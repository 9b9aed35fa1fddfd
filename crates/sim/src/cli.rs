//! The one command-line reader of the workspace's binaries.
//!
//! A binary declares its flags in a table of [`Flag`] rows, and
//! [`Args::parse`] refuses, before the binary simulates, connects or
//! serves, an unknown flag, an argument that no flag takes, a missing
//! value, a repeated flag that does not take a list, a second run, and a
//! flag that nothing in the invocation reads. An argument that begins
//! with `--` is never a value.
//!
//! A flag that reads itself selects a run, and two runs combine only when
//! each reads the other. Any other flag is accepted when a run, or a flag
//! that is itself accepted, reads it; a flag whose row lists no readers
//! is read by every invocation.

use std::str::FromStr;

/// What a flag takes after it; `what` names the value in messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// Exactly one value.
    One(&'static str),
    /// One or more values, up to the next flag. The flag may repeat, and
    /// its values join across occurrences.
    List(&'static str),
    /// Zero or more values, up to the next flag; given at most once.
    Rest(&'static str),
}

/// One row of a flag table: the flag, what it takes, and the flags that
/// read it, space-separated. An empty list means that every invocation
/// reads it.
pub type Flag = (&'static str, Takes, &'static str);

/// Whether `flag` is among `readers`, a [`Flag`] row's list.
fn reads(readers: &str, flag: &str) -> bool {
    readers.split(' ').any(|r| r == flag)
}

/// An accepted command line: each flag given, with its values, in the
/// order the flags were first given.
#[derive(Debug)]
pub struct Args {
    given: Vec<(&'static Flag, Vec<String>)>,
}

impl Args {
    /// Reads `args` against `table`, or returns the one-line refusal.
    pub fn parse(args: &[String], table: &'static [Flag]) -> Result<Args, String> {
        let mut given: Vec<(&'static Flag, Vec<String>)> = Vec::new();
        let mut rest = args.iter().peekable();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument {arg:?} (see --help)"));
            }
            let Some(flag) = table.iter().find(|(name, ..)| name == arg) else {
                return Err(format!("unknown flag {arg:?} (see --help)"));
            };
            let (name, takes, _) = flag;
            let earlier = given.iter().position(|(f, _)| f.0 == *name);
            if earlier.is_some() && !matches!(takes, Takes::List(_)) {
                return Err(format!("{name} may be given only once"));
            }
            let mut value = || rest.next_if(|v| !v.starts_with("--")).cloned();
            let values: Vec<String> = match takes {
                Takes::Nothing => Vec::new(),
                Takes::One(_) => value().into_iter().collect(),
                Takes::List(_) | Takes::Rest(_) => std::iter::from_fn(value).collect(),
            };
            if let (Takes::One(what) | Takes::List(what), true) = (takes, values.is_empty()) {
                return Err(format!("{name} takes {what}"));
            }
            match earlier {
                Some(i) => given[i].1.extend(values),
                None => given.push((flag, values)),
            }
        }

        let flags: Vec<&Flag> = given.iter().map(|(flag, _)| *flag).collect();
        let runs: Vec<&Flag> = flags
            .iter()
            .copied()
            .filter(|(name, _, readers)| reads(readers, name))
            .collect();
        for (name, _, readers) in &runs {
            if let Some((other, ..)) = runs
                .iter()
                .find(|(other, _, theirs)| !reads(readers, other) || !reads(theirs, name))
            {
                return Err(format!(
                    "{name} and {other} are separate runs; give each its own invocation"
                ));
            }
        }
        let mut read: Vec<&str> = runs.iter().map(|(name, ..)| *name).collect();
        while let Some((name, ..)) = flags.iter().find(|(name, _, readers)| {
            !read.contains(name) && (readers.is_empty() || read.iter().any(|r| reads(readers, r)))
        }) {
            read.push(name);
        }
        if let Some((name, _, readers)) = flags.iter().find(|(name, ..)| !read.contains(name)) {
            let mut list = readers.replace(' ', ", ");
            if let Some(last) = list.rfind(", ") {
                list.replace_range(last..last + 2, " or ");
            }
            let vowel = list
                .trim_start_matches('-')
                .starts_with(['a', 'e', 'i', 'o', 'u']);
            let article = if vowel { "an" } else { "a" };
            return Err(format!("{name} applies only to {article} {list} run"));
        }
        Ok(Args { given })
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|((name, ..), _)| *name == flag)
    }

    /// Every value of `flag`, across its occurrences; empty when it was
    /// not given.
    pub fn values(&self, flag: &str) -> &[String] {
        self.given
            .iter()
            .find(|((name, ..), _)| *name == flag)
            .map_or(&[], |(_, values)| values)
    }

    /// The value of a one-value flag, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).first().map(String::as_str)
    }

    /// The value of a one-value flag as a `T`, if it was given; a value
    /// that does not parse is refused as `{flag} takes {what}, got "…"`.
    /// A positive number parses as a `NonZeroU64` or a `NonZeroU32`.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(((name, Takes::One(what), _), values)) =
            self.given.iter().find(|((name, ..), _)| *name == flag)
        else {
            return Ok(None);
        };
        values
            .first()
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name} takes {what}, got {v:?}"))
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::Takes::{List, Nothing, One, Rest};
    use super::*;

    /// A `--sweep` run that `--more` joins, with a check and its
    /// directory; separate `--fuzz`, `--validate` and `--ablate` runs;
    /// `--jobs` for two of them, and `--verbose` for any invocation.
    const TABLE: &[Flag] = &[
        ("--sweep", List("one or more files"), "--sweep --more"),
        ("--more", Nothing, "--sweep --more"),
        ("--check", Nothing, "--sweep"),
        ("--dir", One("a directory"), "--check --fuzz"),
        ("--fuzz", One("a positive number"), "--fuzz"),
        ("--validate", Rest("files"), "--validate"),
        ("--ablate", Nothing, "--ablate"),
        ("--jobs", One("a number"), "--ablate --sweep"),
        ("--verbose", Nothing, ""),
    ];

    fn parse(args: &str) -> Result<Args, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        Args::parse(&args, TABLE)
    }

    fn refusal(args: &str) -> String {
        parse(args).expect_err(args)
    }

    #[test]
    fn refuses_unknown_flags_and_stray_arguments() {
        assert_eq!(
            refusal("--sweep a --chek"),
            "unknown flag \"--chek\" (see --help)"
        );
        assert_eq!(
            refusal("a --sweep b"),
            "unexpected argument \"a\" (see --help)"
        );
        assert_eq!(
            refusal("--more b"),
            "unexpected argument \"b\" (see --help)"
        );
        assert_eq!(
            refusal("--fuzz 3 4"),
            "unexpected argument \"4\" (see --help)"
        );
    }

    #[test]
    fn refuses_missing_values_and_never_takes_a_flag_as_one() {
        assert_eq!(refusal("--fuzz"), "--fuzz takes a positive number");
        assert_eq!(
            refusal("--fuzz --verbose"),
            "--fuzz takes a positive number"
        );
        assert_eq!(
            refusal("--sweep --check"),
            "--sweep takes one or more files"
        );
        assert_eq!(
            refusal("--sweep a --sweep --check"),
            "--sweep takes one or more files"
        );
    }

    #[test]
    fn refuses_malformed_values_when_read() {
        let args = parse("--fuzz x").unwrap();
        assert_eq!(
            args.parsed::<std::num::NonZeroU64>("--fuzz"),
            Err("--fuzz takes a positive number, got \"x\"".into())
        );
        let args = parse("--fuzz 0").unwrap();
        assert_eq!(
            args.parsed::<std::num::NonZeroU64>("--fuzz"),
            Err("--fuzz takes a positive number, got \"0\"".into())
        );
        let args = parse("--fuzz 7").unwrap();
        assert_eq!(args.parsed::<u64>("--fuzz"), Ok(Some(7)));
        assert_eq!(args.parsed::<u64>("--dir"), Ok(None));
    }

    #[test]
    fn refuses_a_repeat_unless_the_flag_takes_a_list() {
        assert_eq!(
            refusal("--fuzz 1 --fuzz 2"),
            "--fuzz may be given only once"
        );
        assert_eq!(
            refusal("--sweep a --more --more"),
            "--more may be given only once"
        );
        assert_eq!(
            refusal("--validate --validate"),
            "--validate may be given only once"
        );
        let args = parse("--sweep a b --more --sweep c").unwrap();
        assert_eq!(args.values("--sweep"), ["a", "b", "c"]);
        assert_eq!(args.value("--sweep"), Some("a"));
    }

    #[test]
    fn rest_takes_zero_or_more_values() {
        let args = parse("--validate").unwrap();
        assert!(args.has("--validate") && args.values("--validate").is_empty());
        let args = parse("--validate x y").unwrap();
        assert_eq!(args.values("--validate"), ["x", "y"]);
        assert!(!args.has("--sweep") && args.values("--sweep").is_empty());
    }

    #[test]
    fn runs_combine_only_when_each_reads_the_other() {
        assert!(parse("--more --sweep a").is_ok());
        assert_eq!(
            refusal("--sweep a --fuzz 2"),
            "--sweep and --fuzz are separate runs; give each its own invocation"
        );
        assert_eq!(
            refusal("--validate --ablate"),
            "--validate and --ablate are separate runs; give each its own invocation"
        );
    }

    #[test]
    fn refuses_a_flag_that_nothing_reads() {
        assert_eq!(
            refusal("--fuzz 2 --check"),
            "--check applies only to a --sweep run"
        );
        assert_eq!(
            refusal("--validate --jobs 2"),
            "--jobs applies only to an --ablate or --sweep run"
        );
        assert_eq!(refusal("--check"), "--check applies only to a --sweep run");
        // A flag without readers is read by every invocation, even one
        // without a run.
        assert!(parse("--verbose").is_ok());
        assert!(parse("--fuzz 1 --verbose").is_ok());
    }

    #[test]
    fn reading_is_transitive() {
        // --dir is read by --check, which --sweep reads.
        let args = parse("--dir d --sweep a --check").unwrap();
        assert_eq!(args.value("--dir"), Some("d"));
        assert!(parse("--fuzz 1 --dir d").is_ok());
        assert_eq!(
            refusal("--sweep a --dir d"),
            "--dir applies only to a --check or --fuzz run"
        );
    }
}
