#!/usr/bin/env python3
"""Count production Rust lines in the workspace.

Production Rust is every `.rs` file under `crates/` and `examples/`,
except files inside a `tests/` directory, with every `#[cfg(test)]` item
taken out wherever it sits, at any indentation: a test module, a
test-only function or impl block. An item runs from its `#[cfg(test)]`
line to the line that closes it. Every other line counts: blank lines,
comments, and the doc comment above a test-only item included.

Prints the count per crate (`examples` for the examples) and the total.
With `--base REV`, prints each crate's count at REV (read through
`git show`), its count in the working tree, and the difference.

Usage: python3 tools/prod_lines.py [--base REV] [REPO_ROOT]
"""

import os
import subprocess
import sys

TEST_ATTR = "#[cfg(test)]"


def close_line(lines, start):
    """Index of the line on which the item that begins at `start` ends.

    The item ends at the `;` of a bodiless item or at the brace that
    closes its first `{`. Comments, string, raw-string and char literals
    are skipped, so their braces do not count.
    """
    depth = 0
    opened = False
    i = start
    in_block = 0
    raw_hashes = None  # inside a raw string: the number of its `#`s
    in_str = False
    while i < len(lines):
        line = lines[i]
        j = 0
        while j < len(line):
            c = line[j]
            if in_block:
                if line.startswith("*/", j):
                    in_block -= 1
                    j += 2
                    continue
                if line.startswith("/*", j):
                    in_block += 1
                    j += 2
                    continue
                j += 1
                continue
            if raw_hashes is not None:
                if line.startswith('"' + "#" * raw_hashes, j):
                    j += 1 + raw_hashes
                    raw_hashes = None
                    continue
                j += 1
                continue
            if in_str:
                if c == "\\":
                    j += 2
                    continue
                if c == '"':
                    in_str = False
                j += 1
                continue
            if line.startswith("//", j):
                break
            if line.startswith("/*", j):
                in_block = 1
                j += 2
                continue
            if c == "r" and (j == 0 or not (line[j - 1].isalnum() or line[j - 1] == "_")):
                k = j + 1
                while k < len(line) and line[k] == "#":
                    k += 1
                if k < len(line) and line[k] == '"':
                    raw_hashes = k - j - 1
                    j = k + 1
                    continue
            if c == '"':
                in_str = True
                j += 1
                continue
            if c == "'":
                # A char literal ('x', '\n', '\u{7b}'); otherwise a lifetime.
                if line.startswith("\\", j + 1):
                    end = line.find("'", j + 3)
                    j = end + 1 if end > 0 else j + 1
                    continue
                if j + 2 < len(line) and line[j + 2] == "'":
                    j += 3
                    continue
                j += 1
                continue
            if c == "{":
                depth += 1
                opened = True
            elif c == "}":
                depth -= 1
                if opened and depth == 0:
                    return i
            elif c == ";" and not opened:
                return i
            j += 1
        i += 1
    return len(lines) - 1


def production_lines(text):
    """The number of lines of `text` outside its `#[cfg(test)]` items."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    drop = set()
    i = 0
    while i < len(lines):
        if lines[i].strip() != TEST_ATTR:
            i += 1
            continue
        body = i + 1
        while body < len(lines) and lines[body].strip().startswith(("#[", "///")):
            body += 1
        end = close_line(lines, body)
        drop.update(range(i, end + 1))
        i = end + 1
    return len(lines) - len(drop)


def owner(rel):
    """The crate a file counts toward: `crates/<name>`, or `examples`."""
    parts = rel.split(os.sep)
    return parts[1] if parts[0] == "crates" else parts[0]


def counted(rel):
    """Whether the file at repo-relative path `rel` is production Rust."""
    parts = rel.split("/")
    return parts[0] in ("crates", "examples") and rel.endswith(".rs") and "tests" not in parts[:-1]


def tree_counts(root):
    """Production lines per crate in the working tree under `root`."""
    counts = {}
    for top in ("crates", "examples"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "tests")
            for name in sorted(filenames):
                rel = os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
                if counted(rel):
                    with open(os.path.join(root, rel), encoding="utf-8") as f:
                        key = owner(rel)
                        counts[key] = counts.get(key, 0) + production_lines(f.read())
    return counts


def rev_counts(root, rev):
    """Production lines per crate at git revision `rev`."""
    git = ["git", "-C", root]
    files = subprocess.run(
        git + ["ls-tree", "-r", "--name-only", rev, "--", "crates", "examples"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    counts = {}
    for rel in filter(counted, files):
        text = subprocess.run(
            git + ["show", f"{rev}:{rel}"], check=True, capture_output=True, text=True
        ).stdout
        counts[owner(rel)] = counts.get(owner(rel), 0) + production_lines(text)
    return counts


def main():
    args = sys.argv[1:]
    base = None
    if args[:1] == ["--base"] and len(args) > 1:
        base, args = args[1], args[2:]
    root = args[0] if args else os.path.join(os.path.dirname(__file__), "..")
    counts = tree_counts(root)
    if base is None:
        for key in sorted(counts):
            print(f"{key:<12} {counts[key]:>7}")
        print(f"{'total':<12} {sum(counts.values()):>7}")
        return
    before = rev_counts(root, base)
    rows = [(k, before.get(k, 0), counts.get(k, 0)) for k in sorted(set(before) | set(counts))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'':<12} {base:>9} {'tree':>9} {'delta':>7}")
    for key, old, new in rows:
        print(f"{key:<12} {old:>9} {new:>9} {new - old:>+7}")


if __name__ == "__main__":
    main()
