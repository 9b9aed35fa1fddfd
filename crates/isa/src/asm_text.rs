//! The text assembler: `.s`-style source ↔ [`Program`].
//!
//! [`parse`] turns assembly text into a [`Program`] with
//! line/column-spanned [`AsmError`]s. It is a front end to the
//! [`Asm`] builder: it tokenizes, reads directives and
//! operands, and encodes mnemonics, while the `Asm` lays out every label,
//! label reference and data segment. [`emit`] renders a [`Program`] back
//! to canonical text such that `parse(emit(p)) == p` for every program the
//! [`Asm`] builder can produce (the workload suite's
//! round-trip tests pin this).
//!
//! # Syntax
//!
//! * Comments run from `;` or `//` to end of line.
//! * A label is `name:` (letters, digits, `_`, `.`, `$`; not starting with
//!   a digit). In code it names the next instruction; in data it names the
//!   address where the next data directive places its bytes.
//! * Directives: `.text [addr]`, `.data [addr]`, `.org addr`,
//!   `.entry addr`, `.align n`, and the data placers `.quad`, `.long`,
//!   `.word` (2 bytes), `.byte`, `.double`, `.zero n`.
//! * Instructions use the mnemonics of the opcode types ([`AluOp`],
//!   [`FpOp`], [`FpCmpOp`], [`Cond`]) plus the assembler forms and
//!   pseudos listed by [`mnemonics`]:
//!
//! ```text
//!         addq r1, r2, r3      ; rc last; rb may be an immediate: addq r1, 8, r3
//!         lda  r3, 16(r2)      ; dest first, disp(base) addressing
//!         li   r4, 0x100000    ; pseudo: lda r4, imm(r31); accepts labels
//!         ldq  r5, 8(r4)       ; loads/stores: ldb/ldw/ldl/ldq (+s signed)
//!         stq  r5, 8(r4)
//!         beq  r5, done        ; branches test a register against zero
//!         jmp  r31, (r26)      ; indirect jump (pseudo: ret)
//! done:   halt
//! ```
//!
//! # Examples
//!
//! Assemble a 5-instruction program from text:
//!
//! ```
//! use contopt_isa::asm_text;
//!
//! let program = asm_text::parse(
//!     "        li   r1, 10      ; counter
//!      loop:  subq r1, 1, r1
//!             bne  r1, loop
//!             nop
//!             halt",
//! )?;
//! assert_eq!(program.len(), 5);
//! assert_eq!(asm_text::parse(&asm_text::emit(&program))?, program);
//! # Ok::<(), contopt_isa::AsmError>(())
//! ```

use crate::analysis::{self, AnalysisReport};
use crate::asm::{Asm, AsmError, AsmErrorKind, Program, Span};
use crate::inst::{load_mnemonic, Inst, Operand};
use crate::opcode::{AluOp, Cond, FpCmpOp, FpOp, MemSize};
use crate::reg::{FReg, Reg};
use std::fmt::Write as _;

/// Every mnemonic the text assembler accepts, in documentation order:
/// the mnemonics of the opcode types ([`AluOp`], [`FpOp`], [`FpCmpOp`],
/// [`Cond`]), the assembler instruction forms, and the
/// pseudo-instructions.
///
/// `docs/ISA.md` is required (by test) to document every entry.
pub fn mnemonics() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    out.extend(AluOp::ALL.iter().map(|op| op.mnemonic()));
    out.push("lda");
    for size in MemSize::ALL {
        // Loads come in an unsigned and a sign-extending flavour per size.
        out.push(load_mnemonic(size, false));
        out.push(load_mnemonic(size, true));
    }
    out.extend(["stb", "stw", "stl", "stq"]);
    out.extend(["ldt", "stt"]);
    out.extend(FpOp::ALL.iter().map(|op| op.mnemonic()));
    out.extend(FpCmpOp::ALL.iter().map(|op| op.mnemonic()));
    out.extend(["itof", "ftoi"]);
    out.extend(Cond::ALL.iter().map(|c| c.mnemonic()));
    out.extend(["br", "bsr", "jmp", "halt", "nop"]);
    out.extend(["li", "mov", "fmov", "ret"]);
    out
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// The text front end: tokens, directives and operands in, [`Asm`] calls
/// out. Every label, reference and data segment is laid out by the `Asm`.
struct Parser {
    mode: Mode,
    asm: Asm,
    /// Source position of each instruction's mnemonic, parallel to the
    /// instructions.
    spans: Vec<Span>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    Data,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    line: u32,
    col: u32,
}

impl Tok<'_> {
    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, kind: AsmErrorKind) -> AsmError {
        AsmError::new(kind, self.text).at(self.line, self.col)
    }
}

/// Parses `.s`-style assembly text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending token and its
/// line:column span for any unknown mnemonic or directive, malformed or
/// out-of-range operand, duplicate label, or unresolved label reference.
pub fn parse(src: &str) -> Result<Program, AsmError> {
    parse_with_spans(src).map(|(p, _)| p)
}

/// Like [`parse`], but also returns the source [`Span`] of each
/// instruction's mnemonic (parallel to [`Program::insts`]), so static
/// analysis can point findings back at source lines.
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_with_spans(src: &str) -> Result<(Program, Vec<Span>), AsmError> {
    let mut p = Parser {
        mode: Mode::Code,
        asm: Asm::new(),
        spans: Vec::new(),
    };
    for (line_idx, raw) in src.lines().enumerate() {
        let line_no = (line_idx + 1) as u32;
        p.line(raw, line_no)?;
    }
    Ok((p.asm.finish()?, p.spans))
}

/// Parses assembly text, then lints the resulting program with the static
/// analyzer ([`crate::analysis`]), attaching source spans to every finding.
///
/// Parsing and verification are separate concerns: a program that parses
/// always comes back `Ok` here, together with its [`AnalysisReport`] —
/// callers decide how strictly to treat error- and warning-severity
/// findings (the scenario loader hard-fails on errors; `--verify` maps the
/// verdict onto exit codes).
///
/// # Errors
///
/// Returns an [`AsmError`] only when the text does not parse.
pub fn parse_and_verify(src: &str) -> Result<(Program, AnalysisReport), AsmError> {
    let (program, spans) = parse_with_spans(src)?;
    let report = analysis::verify_with_spans(&program, &spans);
    Ok((program, report))
}

impl Parser {
    fn line(&mut self, raw: &str, line_no: u32) -> Result<(), AsmError> {
        // Strip comments (`;` and `//`).
        let code = match (raw.find(';'), raw.find("//")) {
            (Some(a), Some(b)) => &raw[..a.min(b)],
            (Some(a), None) => &raw[..a],
            (None, Some(b)) => &raw[..b],
            (None, None) => raw,
        };
        let mut rest = code;
        let mut offset = 0usize; // byte offset of `rest` within `raw`
        loop {
            let trimmed = rest.trim_start();
            offset += rest.len() - trimmed.len();
            rest = trimmed;
            // Leading labels: `ident:`.
            if let Some(colon) = rest.find(':') {
                let head = &rest[..colon];
                if is_ident(head) {
                    let (col, data) = (offset as u32 + 1, self.mode == Mode::Data);
                    self.asm
                        .define(head, data)
                        .map_err(|e| e.at(line_no, col))?;
                    offset += colon + 1;
                    rest = &rest[colon + 1..];
                    continue;
                }
            }
            break;
        }
        if rest.is_empty() {
            return Ok(());
        }
        let (word, word_len) = match rest.find(char::is_whitespace) {
            Some(i) => (&rest[..i], i),
            None => (rest, rest.len()),
        };
        let word_tok = Tok {
            text: word,
            line: line_no,
            col: offset as u32 + 1,
        };
        let args_off = offset + word_len;
        let args = split_operands(&rest[word_len..], args_off, line_no);
        if word.starts_with('.') {
            self.directive(word_tok, &args)
        } else {
            self.instruction(word_tok, &args)
        }
    }

    fn directive(&mut self, word: Tok<'_>, args: &[Tok<'_>]) -> Result<(), AsmError> {
        let need_addr = |args: &[Tok<'_>]| -> Result<u64, AsmError> {
            let [tok] = args else {
                return Err(word.err(AsmErrorKind::BadDirective));
            };
            Ok(parse_int(*tok)? as u64)
        };
        match word.text {
            ".text" => {
                self.mode = Mode::Code;
                self.asm.bind_pending_to_code();
                if !args.is_empty() {
                    self.set_code_base(word, need_addr(args)?)?;
                }
            }
            ".data" => {
                self.mode = Mode::Data;
                let addr = if args.is_empty() {
                    None
                } else {
                    Some(need_addr(args)?)
                };
                self.asm.seek(addr);
            }
            ".org" => {
                let addr = need_addr(args)?;
                match self.mode {
                    Mode::Code => self.set_code_base(word, addr)?,
                    Mode::Data => self.asm.seek(Some(addr)),
                }
            }
            ".entry" => self.asm.set_entry(need_addr(args)?),
            ".align" => {
                let n = need_addr(args)?;
                if self.mode != Mode::Data || !n.is_power_of_two() {
                    return Err(word.err(AsmErrorKind::BadDirective));
                }
                self.asm.align(n);
            }
            ".zero" => {
                if self.mode != Mode::Data {
                    return Err(word.err(AsmErrorKind::BadDirective));
                }
                let n = need_addr(args)?;
                // Bounded so a corrupt size reads as a diagnostic, not an
                // allocation the process cannot survive. 8 MiB covers the
                // whole [DATA_BASE, STACK_TOP) region.
                if n > 8 << 20 {
                    return Err(word.err(AsmErrorKind::BadImmediate));
                }
                self.asm.place(8, vec![0u8; n as usize], true);
            }
            ".quad" | ".long" | ".word" | ".byte" => {
                if self.mode != Mode::Data {
                    return Err(word.err(AsmErrorKind::BadDirective));
                }
                let (align, width) = match word.text {
                    ".quad" => (8u64, 8usize),
                    ".long" => (4, 4),
                    ".word" => (2, 2),
                    _ => (1, 1),
                };
                let mut bytes = Vec::with_capacity(args.len() * width);
                for tok in args {
                    let v = parse_int(*tok)?;
                    // The value must fit the slot as signed or unsigned.
                    let bits = width as u32 * 8;
                    if width < 8 {
                        let lo = -(1i64 << (bits - 1));
                        let hi = (1i64 << bits) - 1;
                        if v < lo || v > hi {
                            return Err(tok.err(AsmErrorKind::BadImmediate));
                        }
                    }
                    bytes.extend_from_slice(&(v as u64).to_le_bytes()[..width]);
                }
                self.asm.place(align, bytes, true);
            }
            ".double" => {
                if self.mode != Mode::Data {
                    return Err(word.err(AsmErrorKind::BadDirective));
                }
                let mut bytes = Vec::with_capacity(args.len() * 8);
                for tok in args {
                    let v: f64 = tok
                        .text
                        .parse()
                        .map_err(|_| tok.err(AsmErrorKind::BadImmediate))?;
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                self.asm.place(8, bytes, true);
            }
            _ => return Err(word.err(AsmErrorKind::BadDirective)),
        }
        Ok(())
    }

    fn set_code_base(&mut self, word: Tok<'_>, addr: u64) -> Result<(), AsmError> {
        let moved = self.asm.set_code_base(addr);
        moved.ok_or_else(|| word.err(AsmErrorKind::BadDirective))
    }

    fn instruction(&mut self, word: Tok<'_>, args: &[Tok<'_>]) -> Result<(), AsmError> {
        if self.mode != Mode::Code {
            return Err(word.err(AsmErrorKind::UnknownMnemonic));
        }
        let mnem = word.text.to_ascii_lowercase();
        let inst = self.encode(&mnem, word, args)?;
        self.asm.emit(inst);
        self.spans.push(word.span());
        Ok(())
    }

    fn encode(&mut self, mnem: &str, word: Tok<'_>, args: &[Tok<'_>]) -> Result<Inst, AsmError> {
        let bad = |t: &Tok<'_>| t.err(AsmErrorKind::BadOperand);
        let count = |n: usize| -> Result<(), AsmError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(word.err(AsmErrorKind::BadOperand))
            }
        };
        // Integer ALU: `op ra, rb|imm, rc`.
        if let Some(op) = AluOp::ALL.iter().find(|op| op.mnemonic() == mnem) {
            count(3)?;
            return Ok(Inst::Alu {
                op: *op,
                ra: parse_reg(args[0])?,
                rb: self.parse_operand(args[1])?,
                rc: parse_reg(args[2])?,
            });
        }
        // FP ALU: `op fa, fb, fc` (sqrtt/cpys also take the 2-operand form).
        if let Some(op) = FpOp::ALL.iter().find(|op| op.mnemonic() == mnem) {
            let (fa, fb, fc) = match (args, op) {
                ([a, c], FpOp::Sqrtt | FpOp::Cpys) => {
                    let fa = parse_freg(*a)?;
                    (fa, fa, parse_freg(*c)?)
                }
                ([a, b, c], _) => (parse_freg(*a)?, parse_freg(*b)?, parse_freg(*c)?),
                _ => return Err(word.err(AsmErrorKind::BadOperand)),
            };
            return Ok(Inst::FAlu {
                op: *op,
                fa,
                fb,
                fc,
            });
        }
        // FP compare: `op fa, fb, rc`.
        if let Some(op) = FpCmpOp::ALL.iter().find(|op| op.mnemonic() == mnem) {
            count(3)?;
            return Ok(Inst::FCmp {
                op: *op,
                fa: parse_freg(args[0])?,
                fb: parse_freg(args[1])?,
                rc: parse_reg(args[2])?,
            });
        }
        // Conditional branches: `bcc ra, target`.
        if let Some(cond) = Cond::ALL.iter().find(|c| c.mnemonic() == mnem) {
            count(2)?;
            let ra = parse_reg(args[0])?;
            let target = self.branch_target(args[1])?;
            return Ok(Inst::Br {
                cond: *cond,
                ra,
                target,
            });
        }
        // Integer loads: `ld{b,w,l,q}[s|u] rc, disp(rb)`.
        for size in MemSize::ALL {
            for signed in [false, true] {
                let canon = load_mnemonic(size, signed);
                let unsigned_alias = !signed && mnem.len() == 4 && mnem.ends_with('u');
                if mnem == canon || (unsigned_alias && mnem[..3] == canon[..3]) {
                    count(2)?;
                    let rc = parse_reg(args[0])?;
                    let (disp, rb) = self.parse_mem(args[1])?;
                    return Ok(Inst::Ld {
                        size,
                        signed,
                        rc,
                        rb,
                        disp,
                    });
                }
            }
        }
        match mnem {
            "lda" => {
                count(2)?;
                let rc = parse_reg(args[0])?;
                let (disp, rb) = self.parse_mem(args[1])?;
                Ok(Inst::Lda { rc, rb, disp })
            }
            "li" => {
                count(2)?;
                let rc = parse_reg(args[0])?;
                let disp = if is_ident(args[1].text) {
                    self.asm.refer(args[1].text, Some(args[1].span()));
                    0
                } else {
                    parse_int(args[1])?
                };
                Ok(Inst::Lda {
                    rc,
                    rb: Reg::R31,
                    disp,
                })
            }
            "mov" => {
                count(2)?;
                Ok(Inst::Lda {
                    rc: parse_reg(args[1])?,
                    rb: parse_reg(args[0])?,
                    disp: 0,
                })
            }
            "stb" | "stw" | "stl" | "stq" => {
                count(2)?;
                let size = match mnem {
                    "stb" => MemSize::Byte,
                    "stw" => MemSize::Word,
                    "stl" => MemSize::Long,
                    _ => MemSize::Quad,
                };
                let ra = parse_reg(args[0])?;
                let (disp, rb) = self.parse_mem(args[1])?;
                Ok(Inst::St { size, ra, rb, disp })
            }
            "ldt" => {
                count(2)?;
                let fc = parse_freg(args[0])?;
                let (disp, rb) = self.parse_mem(args[1])?;
                Ok(Inst::FLd { fc, rb, disp })
            }
            "stt" => {
                count(2)?;
                let fa = parse_freg(args[0])?;
                let (disp, rb) = self.parse_mem(args[1])?;
                Ok(Inst::FSt { fa, rb, disp })
            }
            "fmov" => {
                count(2)?;
                let fa = parse_freg(args[0])?;
                Ok(Inst::FAlu {
                    op: FpOp::Cpys,
                    fa,
                    fb: fa,
                    fc: parse_freg(args[1])?,
                })
            }
            "itof" => {
                count(2)?;
                Ok(Inst::Itof {
                    ra: parse_reg(args[0])?,
                    fc: parse_freg(args[1])?,
                })
            }
            "ftoi" => {
                count(2)?;
                Ok(Inst::Ftoi {
                    fa: parse_freg(args[0])?,
                    rc: parse_reg(args[1])?,
                })
            }
            "br" => {
                count(1)?;
                let target = self.branch_target(args[0])?;
                Ok(Inst::Bru { target })
            }
            "bsr" => {
                count(2)?;
                let rd = parse_reg(args[0])?;
                let target = self.branch_target(args[1])?;
                Ok(Inst::Bsr { rd, target })
            }
            "jmp" => {
                count(2)?;
                let rd = parse_reg(args[0])?;
                let inner = args[1]
                    .text
                    .strip_prefix('(')
                    .and_then(|s| s.strip_suffix(')'))
                    .unwrap_or(args[1].text);
                let ra = parse_reg(Tok {
                    text: inner,
                    ..args[1]
                })?;
                Ok(Inst::Jmp { rd, ra })
            }
            "ret" => {
                count(0)?;
                Ok(Inst::Jmp {
                    rd: Reg::R31,
                    ra: Reg::RA,
                })
            }
            "halt" => {
                count(0)?;
                Ok(Inst::Halt)
            }
            "nop" => {
                count(0)?;
                Ok(Inst::Nop)
            }
            _ => Err(word.err(AsmErrorKind::UnknownMnemonic)),
        }
        .map_err(|e: AsmError| match args.first() {
            // Prefer the operand-level span when the operand was at fault.
            _ if e.span.is_some() => e,
            Some(t) => bad(t),
            None => e,
        })
    }

    /// `rb | imm` ALU operand.
    fn parse_operand(&mut self, tok: Tok<'_>) -> Result<Operand, AsmError> {
        if let Ok(r) = parse_reg(tok) {
            return Ok(Operand::Reg(r));
        }
        Ok(Operand::Imm(parse_int(tok)?))
    }

    /// `disp(rb)` | `(rb)` | `disp` (base defaults to `r31`).
    fn parse_mem(&mut self, tok: Tok<'_>) -> Result<(i64, Reg), AsmError> {
        let text = tok.text;
        match text.find('(') {
            Some(open) => {
                let Some(inner) = text[open..]
                    .strip_prefix('(')
                    .and_then(|s| s.strip_suffix(')'))
                else {
                    return Err(tok.err(AsmErrorKind::BadOperand));
                };
                let rb = parse_reg(Tok {
                    text: inner,
                    col: tok.col + open as u32 + 1,
                    ..tok
                })?;
                let disp = if open == 0 {
                    0
                } else {
                    parse_int(Tok {
                        text: &text[..open],
                        ..tok
                    })?
                };
                Ok((disp, rb))
            }
            None => Ok((parse_int(tok)?, Reg::R31)),
        }
    }

    /// Branch target: a label or an absolute address literal.
    fn branch_target(&mut self, tok: Tok<'_>) -> Result<u64, AsmError> {
        if is_ident(tok.text) {
            self.asm.refer(tok.text, Some(tok.span()));
            Ok(0)
        } else {
            Ok(parse_int(tok)? as u64)
        }
    }
}

/// Splits a comma-separated operand list, tracking each operand's column.
fn split_operands(rest: &str, base_offset: usize, line: u32) -> Vec<Tok<'_>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, c) in rest.char_indices().chain([(rest.len(), ',')]) {
        if c != ',' && i != rest.len() {
            continue;
        }
        let piece = &rest[start..i];
        let trimmed = piece.trim();
        if !trimmed.is_empty() {
            let lead = piece.len() - piece.trim_start().len();
            out.push(Tok {
                text: trimmed,
                line,
                col: (base_offset + start + lead) as u32 + 1,
            });
        }
        start = i + 1;
    }
    out
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || matches!(c, '_' | '.' | '$'))
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '$'))
}

fn parse_reg(tok: Tok<'_>) -> Result<Reg, AsmError> {
    let t = tok.text.to_ascii_lowercase();
    match t.as_str() {
        "sp" => return Ok(Reg::SP),
        "ra" => return Ok(Reg::RA),
        "zero" => return Ok(Reg::R31),
        _ => {}
    }
    t.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n < 32)
        .map(Reg::new)
        .ok_or_else(|| tok.err(AsmErrorKind::BadRegister))
}

fn parse_freg(tok: Tok<'_>) -> Result<FReg, AsmError> {
    tok.text
        .to_ascii_lowercase()
        .strip_prefix('f')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n < 32)
        .map(FReg::new)
        .ok_or_else(|| tok.err(AsmErrorKind::BadRegister))
}

/// Parses a decimal or `0x` hex integer literal into the i64 the ISA's
/// full-width immediates hold. Hex literals are bit patterns (up to 64
/// bits); decimal literals must fit in `i64`.
fn parse_int(tok: Tok<'_>) -> Result<i64, AsmError> {
    let text = tok.text;
    let (neg, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text.strip_prefix('+').unwrap_or(text)),
    };
    let digits = |s: &str| s.replace('_', "");
    let err = || tok.err(AsmErrorKind::BadImmediate);
    let magnitude: u64 = if let Some(hex) = body.strip_prefix("0x").or(body.strip_prefix("0X")) {
        u64::from_str_radix(&digits(hex), 16).map_err(|_| err())?
    } else {
        digits(body).parse().map_err(|_| err())?
    };
    if neg {
        // -2^63 ..= 0
        if magnitude > 1 << 63 {
            return Err(err());
        }
        Ok((magnitude as i64).wrapping_neg())
    } else if body.starts_with("0x") || body.starts_with("0X") {
        // Positive hex is a 64-bit pattern.
        Ok(magnitude as i64)
    } else if magnitude > i64::MAX as u64 {
        Err(err())
    } else {
        Ok(magnitude as i64)
    }
}

// ---------------------------------------------------------------------------
// Emitting
// ---------------------------------------------------------------------------

/// Renders a [`Program`] as canonical assembly text that [`parse`] maps
/// back to an identical `Program` (the round-trip the workload-suite tests
/// pin). Each instruction is written as its [`Inst`] `Display` writes it,
/// except that branch targets inside the code segment become `L<index>`
/// labels; each data segment is emitted behind an explicit `.org`.
pub fn emit(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".text");
    let _ = writeln!(out, ".org {:#x}", p.code_base);
    if p.entry != p.code_base {
        let _ = writeln!(out, ".entry {:#x}", p.entry);
    }
    // Branch targets that land on an instruction boundary become labels.
    let mut label_idx: Vec<usize> = p
        .insts
        .iter()
        .filter_map(branch_target)
        .filter_map(|t| target_index(p, t))
        .collect();
    label_idx.sort_unstable();
    label_idx.dedup();
    for (i, inst) in p.insts.iter().enumerate() {
        if label_idx.binary_search(&i).is_ok() {
            let _ = writeln!(out, "L{i}:");
        }
        out.push_str("        ");
        let _ = inst.write_text(&mut out, &|t| target_index(p, t));
        out.push('\n');
    }
    if label_idx.binary_search(&p.insts.len()).is_ok() {
        let _ = writeln!(out, "L{}:", p.insts.len());
    }
    if !p.data.is_empty() {
        let _ = writeln!(out, ".data");
        for (addr, bytes) in &p.data {
            let _ = writeln!(out, ".org {addr:#x}");
            emit_segment(&mut out, *addr, bytes);
        }
    }
    out
}

/// The branch-target field of an instruction, if it has one.
fn branch_target(inst: &Inst) -> Option<u64> {
    match inst {
        Inst::Br { target, .. } | Inst::Bru { target } | Inst::Bsr { target, .. } => Some(*target),
        _ => None,
    }
}

/// Maps an absolute target onto an instruction index (the one-past-the-end
/// index is allowed, for branches to a trailing label).
fn target_index(p: &Program, target: u64) -> Option<usize> {
    if target < p.code_base || (target - p.code_base) % 4 != 0 {
        return None;
    }
    let idx = ((target - p.code_base) / 4) as usize;
    (idx <= p.insts.len()).then_some(idx)
}

/// Emits one data segment as the widest directive its address and length
/// permit, chunked across lines; consecutive lines re-append to the same
/// segment on parse because no alignment padding is needed.
fn emit_segment(out: &mut String, addr: u64, bytes: &[u8]) {
    if bytes.is_empty() {
        let _ = writeln!(out, ".byte");
        return;
    }
    if addr % 8 == 0 && bytes.iter().all(|&b| b == 0) {
        let _ = writeln!(out, "        .zero {}", bytes.len());
        return;
    }
    let width = if addr % 8 == 0 && bytes.len() % 8 == 0 {
        8
    } else if addr % 4 == 0 && bytes.len() % 4 == 0 {
        4
    } else if addr % 2 == 0 && bytes.len() % 2 == 0 {
        2
    } else {
        1
    };
    let directive = match width {
        8 => ".quad",
        4 => ".long",
        2 => ".word",
        _ => ".byte",
    };
    for line in bytes.chunks(16 * width) {
        let vals: Vec<String> = line
            .chunks(width)
            .map(|c| {
                let mut v = [0u8; 8];
                v[..width].copy_from_slice(c);
                format!("{:#x}", u64::from_le_bytes(v))
            })
            .collect();
        let _ = writeln!(out, "        {directive} {}", vals.join(", "));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::asm::{CODE_BASE, DATA_BASE};
    use crate::reg::{f, r};

    #[test]
    fn parses_a_small_loop() {
        let p = parse(
            "; sum the array
            .text
                    li   r1, buf
                    li   r2, 3
                    li   r3, 0
            loop:   ldq  r4, 0(r1)
                    addq r3, r4, r3
                    lda  r1, 8(r1)
                    subq r2, 1, r2
                    bne  r2, loop
                    halt
            .data
            buf:    .quad 5, 6, 7
            ",
        )
        .unwrap();
        let mut a = Asm::new();
        let arr = a.data_quads(&[5, 6, 7]);
        a.li(r(1), arr as i64);
        a.li(r(2), 3);
        a.li(r(3), 0);
        a.label("loop");
        a.ldq(r(4), r(1), 0);
        a.addq(r(3), r(4), r(3));
        a.lda(r(1), r(1), 8);
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.halt();
        assert_eq!(p, a.finish().unwrap());
    }

    /// A program holding every instruction form the assembler writes.
    pub(crate) fn every_instruction_form() -> Program {
        let mut a = Asm::new();
        let quads = a.data_quads(&[1, u64::MAX]);
        a.data_longs(&[7, 8, 9]);
        a.data_bytes(&[1, 2, 3]);
        a.data_f64s(&[1.5, -2.25]);
        a.data_zeros(32);
        a.li(r(1), quads as i64);
        a.mov(r(1), r(2));
        a.addq(r(1), r(2), r(3));
        a.subq(r(1), -5, r(3));
        a.mulq(r(1), 3, r(4));
        a.s4addq(r(1), r(2), r(5));
        a.s8addq(r(1), 2, r(5));
        a.and(r(1), 0xff, r(6));
        a.or(r(1), r(2), r(6));
        a.xor(r(1), r(2), r(6));
        a.bic(r(1), r(2), r(6));
        a.sll(r(1), 3, r(7));
        a.srl(r(1), 3, r(7));
        a.sra(r(1), 3, r(7));
        a.cmpeq(r(1), r(2), r(8));
        a.cmplt(r(1), 0, r(8));
        a.cmple(r(1), 0, r(8));
        a.cmpult(r(1), r(2), r(8));
        a.cmpule(r(1), r(2), r(8));
        a.ldq(r(9), r(1), 0);
        a.ldl(r(9), r(1), 4);
        a.ldls(r(9), r(1), -4);
        a.ldw(r(9), r(1), 2);
        a.ldbu(r(9), r(1), 1);
        a.stq(r(9), r(1), 8);
        a.stl(r(9), r(1), 4);
        a.stw(r(9), r(1), 2);
        a.stb(r(9), r(1), 1);
        a.ldt(f(0), r(1), 0);
        a.stt(f(0), r(1), 8);
        a.addt(f(0), f(1), f(2));
        a.subt(f(0), f(1), f(2));
        a.mult(f(0), f(1), f(2));
        a.divt(f(0), f(1), f(2));
        a.sqrtt(f(0), f(3));
        a.fmov(f(0), f(4));
        a.cmpteq(f(0), f(1), r(10));
        a.cmptlt(f(0), f(1), r(10));
        a.cmptle(f(0), f(1), r(10));
        a.itof(r(1), f(5));
        a.ftoi(f(5), r(11));
        a.label("skip");
        a.beq(r(1), "skip");
        a.bne(r(1), "skip");
        a.blt(r(1), "skip");
        a.ble(r(1), "skip");
        a.bgt(r(1), "skip");
        a.bge(r(1), "skip");
        a.br("end");
        a.bsr(Reg::RA, "skip");
        a.jmp(r(12), r(13));
        a.ret();
        a.nop();
        a.label("end");
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn every_instruction_form_round_trips() {
        let p = every_instruction_form();
        let text = emit(&p);
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(reparsed, p, "round-trip through:\n{text}");
    }

    #[test]
    fn runs_on_the_emulator_after_parsing() {
        // End-to-end: text → Program → emulated result.
        let p = parse(
            "        li   r1, 0
                     li   r2, 10
            loop:    addq r1, r2, r1
                     subq r2, 1, r2
                     bne  r2, loop
                     halt",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        // 10+9+...+1 = 55 once the emulator runs it (checked in emu tests;
        // here just assert the encoding shape).
        assert!(matches!(
            p.insts[2],
            Inst::Alu {
                op: AluOp::Addq,
                ..
            }
        ));
    }

    #[test]
    fn unknown_mnemonic_is_spanned() {
        let err = parse("        addq r1, r2, r3\n        adq r1, r2, r3").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::UnknownMnemonic);
        assert_eq!(err.token, "adq");
        let span = err.span.expect("text errors carry a span");
        assert_eq!((span.line, span.col), (2, 9));
        assert_eq!(err.to_string(), "line 2:9: unknown mnemonic `adq`");
    }

    #[test]
    fn undefined_label_is_spanned() {
        let err = parse("        br nowhere").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::UndefinedLabel);
        assert_eq!(err.token, "nowhere");
        assert_eq!(err.span.map(|s| (s.line, s.col)), Some((1, 12)));
    }

    #[test]
    fn duplicate_label_is_spanned() {
        let err = parse("x:\n        nop\nx:\n        nop").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::DuplicateLabel);
        assert_eq!(err.token, "x");
        assert_eq!(err.span.map(|s| s.line), Some(3));
    }

    #[test]
    fn immediate_overflow_is_spanned() {
        // One past i64::MAX in decimal.
        let err = parse("        li r1, 9223372036854775808").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::BadImmediate);
        assert_eq!(err.token, "9223372036854775808");
        assert!(err.span.is_some());
        // 65-bit hex pattern.
        let err = parse("        li r1, 0x1ffffffffffffffff").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::BadImmediate);
        // Hex is a 64-bit pattern, so all-ones parses (as -1).
        let p = parse("        li r1, 0xffffffffffffffff\n        halt").unwrap();
        assert_eq!(
            p.insts[0],
            Inst::Lda {
                rc: r(1),
                rb: Reg::R31,
                disp: -1
            }
        );
    }

    #[test]
    fn bad_register_and_operand_shape_are_errors() {
        let err = parse("        addq r1, r2, r99").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::BadRegister);
        assert_eq!(err.token, "r99");
        let err = parse("        addq r1, r2").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::BadOperand);
        let err = parse("        ldt r1, 0(r2)").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::BadRegister, "int reg in FP slot");
    }

    #[test]
    fn bad_directive_is_an_error() {
        let err = parse(".bogus 3").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::BadDirective);
        assert_eq!(err.token, ".bogus");
        // Data placers outside .data are rejected too.
        let err = parse(".quad 1").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::BadDirective);
    }

    #[test]
    fn register_aliases_resolve() {
        let p = parse("        mov sp, r1\n        bsr ra, out\nout:    ret").unwrap();
        assert_eq!(
            p.insts[0],
            Inst::Lda {
                rc: r(1),
                rb: Reg::SP,
                disp: 0
            }
        );
        assert!(matches!(p.insts[1], Inst::Bsr { rd: Reg::RA, .. }));
        assert_eq!(
            p.insts[2],
            Inst::Jmp {
                rd: Reg::R31,
                ra: Reg::RA
            }
        );
    }

    #[test]
    fn data_directives_match_builder_alignment() {
        let p = parse(
            ".data
            b:   .byte 1, 2, 3
            q:   .quad 42
            d:   .double 1.0
            z:   .zero 16
            ",
        )
        .unwrap();
        // Contiguous aligned placements merge into one segment (so the
        // multi-line chunks `emit` writes re-join on parse); the byte run
        // before the 8-aligned `.quad` stays separate because of padding.
        let mut expect = vec![(DATA_BASE, vec![1u8, 2, 3])];
        let mut merged = 42u64.to_le_bytes().to_vec();
        merged.extend_from_slice(&1.0f64.to_le_bytes());
        merged.extend_from_slice(&[0u8; 16]);
        expect.push((DATA_BASE + 8, merged));
        assert_eq!(p.data, expect);
        // Addresses agree with what the builder assigns for the same calls.
        let mut a = Asm::new();
        let (b, q) = (a.data_bytes(&[1, 2, 3]), a.data_quads(&[42]));
        let (d, z) = (a.data_f64s(&[1.0]), a.data_zeros(16));
        assert_eq!((b, q, d, z), (DATA_BASE, b + 8, q + 8, d + 8));
    }

    #[test]
    fn word_directive_is_two_bytes() {
        let p = parse(".data\n        .word 0x1234, -2").unwrap();
        assert_eq!(p.data, vec![(DATA_BASE, vec![0x34, 0x12, 0xfe, 0xff])]);
        // A value that does not fit 16 bits is rejected at its token.
        let err = parse(".data\n        .word 65536").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::BadImmediate);
        assert_eq!(err.token, "65536");
    }

    #[test]
    fn org_and_entry_round_trip() {
        let mut p = parse(
            ".text 0x2000
            top:    nop
                    br top
                    halt
            .data 0x200000
                    .quad 9",
        )
        .unwrap();
        assert_eq!((p.code_base, p.data[0].0), (0x2000, 0x20_0000));
        p.entry = p.code_base + 4;
        let text = emit(&p);
        assert!(text.contains(".org 0x2000"), "{text}");
        assert!(text.contains(".entry 0x2004"), "{text}");
        assert_eq!(parse(&text).unwrap(), p);
    }

    #[test]
    fn numeric_branch_targets_are_absolute() {
        let p = parse("        beq r1, 0x1000\n        halt").unwrap();
        assert_eq!(
            p.insts[0],
            Inst::Br {
                cond: Cond::Eq,
                ra: r(1),
                target: 0x1000
            }
        );
        // A target outside the code segment survives emit (as a literal).
        let mut a = Asm::new();
        a.emit(Inst::Bru { target: 0x9999 });
        a.halt();
        let p = a.finish().unwrap();
        assert_eq!(parse(&emit(&p)).unwrap(), p);
    }

    #[test]
    fn mnemonic_table_is_complete_and_unique() {
        let all = mnemonics();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "no duplicate mnemonics");
        for op in AluOp::ALL {
            assert!(all.contains(&op.mnemonic()));
        }
        for op in FpOp::ALL {
            assert!(all.contains(&op.mnemonic()));
        }
        for op in FpCmpOp::ALL {
            assert!(all.contains(&op.mnemonic()));
        }
        for c in Cond::ALL {
            assert!(all.contains(&c.mnemonic()));
        }
        // Every non-pseudo mnemonic assembles (pseudos are exercised above).
        assert!(all.len() > 40);
    }

    #[test]
    fn isa_reference_documents_every_mnemonic() {
        // docs/ISA.md claims 100% opcode coverage; hold it to that. Every
        // mnemonic must appear as an inline-code entry (`mnemonic` alone,
        // or opening an operand-form description like `lda rc, disp(rb)`).
        let doc = include_str!("../../../docs/ISA.md");
        let missing: Vec<&str> = mnemonics()
            .into_iter()
            .filter(|m| !doc.contains(&format!("`{m}`")) && !doc.contains(&format!("`{m} ")))
            .collect();
        assert!(
            missing.is_empty(),
            "docs/ISA.md is missing mnemonics: {missing:?}"
        );
        // And the memory-layout constants are documented with their values.
        for (name, val) in [
            ("CODE_BASE", CODE_BASE),
            ("DATA_BASE", DATA_BASE),
            ("STACK_TOP", crate::STACK_TOP),
        ] {
            assert!(doc.contains(name), "docs/ISA.md is missing {name}");
            assert!(
                doc.contains(&format!("{val:#x}")),
                "docs/ISA.md is missing the value of {name} ({val:#x})"
            );
        }
    }

    #[test]
    fn code_past_the_top_of_memory_is_refused() {
        // Resolving `next` would compute `code_base + 4 × 1` past 2^64.
        let err = parse_and_verify(".text 0xfffffffffffffffc\n br next\nnext: halt").unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::CodeOverflow);
        assert_eq!(err.token, "0xfffffffffffffffc");
        // Six instructions 16 bytes below the top: the text is refused, and
        // the verifier, handed the same program, reports a bad entry
        // rather than computing where the segment ends.
        let src = format!(".text 0xfffffffffffffff0\n{}", "        nop\n".repeat(6));
        let err = parse_and_verify(&src).unwrap_err();
        assert_eq!(err.kind, AsmErrorKind::CodeOverflow);
        let base = 0xffff_ffff_ffff_fff0;
        let p = Program {
            code_base: base,
            insts: vec![Inst::Nop; 6],
            data: Vec::new(),
            entry: base,
        };
        let report = analysis::verify(&p);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].kind, analysis::ErrorKind::BadEntry);
    }

    #[test]
    fn empty_source_is_an_empty_program() {
        let p = parse("").unwrap();
        assert!(p.is_empty());
        assert_eq!(p.code_base, CODE_BASE);
        assert_eq!(p.entry, CODE_BASE);
        assert!(p.data.is_empty());
        assert_eq!(parse(&emit(&p)).unwrap(), p);
    }
}
