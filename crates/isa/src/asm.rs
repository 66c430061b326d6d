//! Textual assembler and disassembler.
//!
//! This is the Rust counterpart of the SableCC-generated assembly
//! front-end of XMTSim: it turns `.xs` assembly text into the structured
//! [`AsmProgram`] form (from which instruction objects are instantiated),
//! and back. The compiler's post-pass also re-enters through this parser,
//! mirroring the paper's pipeline where the post-pass re-reads the
//! assembly produced by the core-pass.

use crate::instr::{FCmpOp, Instr, Target};
use crate::program::{AsmItem, AsmProgram};
use crate::reg::{FReg, GlobalReg, Reg};
use std::fmt;
use xmt_harness::json::{parse_f32, F32Text};
use xmt_harness::prop::Gen;

/// Render a program as assembly text.
pub fn to_text(p: &AsmProgram) -> String {
    let mut out = String::new();
    for item in &p.items {
        match item {
            AsmItem::Label(l) => {
                out.push_str(l);
                out.push_str(":\n");
            }
            AsmItem::Instr(i) => {
                out.push_str("    ");
                out.push_str(&i.to_string());
                out.push('\n');
            }
            AsmItem::Comment(c) => {
                out.push_str("# ");
                out.push_str(c);
                out.push('\n');
            }
        }
    }
    out
}

/// An error while parsing assembly text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for AsmParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asm line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmParseError {}

/// Parse assembly text into a program.
pub fn parse(text: &str) -> Result<AsmProgram, AsmParseError> {
    let mut prog = AsmProgram::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        // Strip comments.
        let mut code = raw;
        if let Some(pos) = code.find(['#', ';']) {
            let comment = code[pos + 1..].trim();
            code = &code[..pos];
            if code.trim().is_empty() {
                if !comment.is_empty() {
                    prog.comment(comment);
                }
                continue;
            }
        }
        let mut code = code.trim();
        if code.is_empty() {
            continue;
        }
        // Leading label(s).
        while let Some(colon) = code.find(':') {
            let (label, rest) = code.split_at(colon);
            let label = label.trim();
            if label.is_empty() || !is_ident(label) {
                return Err(AsmParseError { line, message: format!("bad label `{label}`") });
            }
            prog.label(label);
            code = rest[1..].trim();
            if code.is_empty() {
                break;
            }
        }
        if code.is_empty() {
            continue;
        }
        let instr = code.parse::<Instr>().map_err(|message| AsmParseError { line, message })?;
        prog.push(instr);
    }
    Ok(prog)
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
}

/// Operand scanner over one instruction's operand text.
pub(crate) struct Ops<'a> {
    parts: std::vec::IntoIter<&'a str>,
}

impl<'a> Ops<'a> {
    pub(crate) fn new(s: &'a str) -> Self {
        let parts: Vec<&str> = s
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .collect();
        Ops { parts: parts.into_iter() }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.parts.next().ok_or_else(|| "missing operand".to_string())
    }

    pub(crate) fn operand<T: Operand>(&mut self) -> Result<T, String> {
        T::parse(self.next()?)
    }

    /// Parse an `off(base)` memory operand.
    pub(crate) fn mem(&mut self) -> Result<(Reg, i32), String> {
        let t = self.next()?;
        let open = t.find('(').ok_or_else(|| format!("bad memory operand `{t}`"))?;
        let close = t.rfind(')').ok_or_else(|| format!("bad memory operand `{t}`"))?;
        if close < open {
            return Err(format!("bad memory operand `{t}`"));
        }
        let off_s = t[..open].trim();
        let off = if off_s.is_empty() {
            0
        } else {
            parse_i32(off_s).ok_or_else(|| format!("bad offset `{off_s}`"))?
        };
        let base = Reg::parse(t[open + 1..close].trim())
            .ok_or_else(|| format!("bad base register in `{t}`"))?;
        Ok((base, off))
    }

    pub(crate) fn done(mut self) -> Result<(), String> {
        match self.parts.next() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected operand `{extra}`")),
        }
    }
}

fn parse_i32(s: &str) -> Option<i32> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok().map(|v| v as i32)
    } else if let Some(hex) = s.strip_prefix("-0x").or_else(|| s.strip_prefix("-0X")) {
        u32::from_str_radix(hex, 16).ok().map(|v| -(v as i64) as i32)
    } else {
        s.parse::<i32>().ok()
    }
}

fn parse_u32(s: &str) -> Option<u32> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse::<u32>().ok()
    }
}

/// A field type of the ISA table (`crate::instr`): its text as an assembly
/// operand, and a value drawn over all of its valid values for property
/// tests. A `u8` field is a shift amount.
pub(crate) trait Operand: Sized {
    fn parse(t: &str) -> Result<Self, String>;

    fn arbitrary(g: &mut Gen) -> Self;

    fn write(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result
    where
        Self: fmt::Display,
    {
        fmt::Display::fmt(self, f)
    }

    /// The field as a static branch target, when it is one.
    fn target(&self) -> Option<&Target> {
        None
    }

    fn target_mut(&mut self) -> Option<&mut Target> {
        None
    }
}

impl Operand for Reg {
    fn parse(t: &str) -> Result<Self, String> {
        Reg::parse(t).ok_or_else(|| format!("bad register `{t}`"))
    }

    fn arbitrary(g: &mut Gen) -> Self {
        *g.choose(&Reg::ALL)
    }
}

impl Operand for FReg {
    fn parse(t: &str) -> Result<Self, String> {
        FReg::parse(t).ok_or_else(|| format!("bad fp register `{t}`"))
    }

    fn arbitrary(g: &mut Gen) -> Self {
        FReg(g.usize_in(0, FReg::COUNT as usize) as u8)
    }
}

impl Operand for GlobalReg {
    fn parse(t: &str) -> Result<Self, String> {
        GlobalReg::parse(t).ok_or_else(|| format!("bad global register `{t}`"))
    }

    fn arbitrary(g: &mut Gen) -> Self {
        GlobalReg(g.usize_in(0, GlobalReg::COUNT as usize) as u8)
    }
}

impl Operand for i32 {
    fn parse(t: &str) -> Result<Self, String> {
        parse_i32(t).ok_or_else(|| format!("bad immediate `{t}`"))
    }

    fn arbitrary(g: &mut Gen) -> Self {
        g.u32() as i32
    }
}

impl Operand for u32 {
    fn parse(t: &str) -> Result<Self, String> {
        parse_i32(t)
            .map(|v| v as u32)
            .or_else(|| parse_u32(t))
            .ok_or_else(|| format!("bad immediate `{t}`"))
    }

    fn arbitrary(g: &mut Gen) -> Self {
        g.u32()
    }
}

impl Operand for u8 {
    fn parse(t: &str) -> Result<Self, String> {
        let v = i32::parse(t)?;
        if !(0..32).contains(&v) {
            return Err(format!("shift amount {v} out of range"));
        }
        Ok(v as u8)
    }

    fn arbitrary(g: &mut Gen) -> Self {
        g.usize_in(0, 32) as u8
    }
}

impl Operand for f32 {
    fn parse(t: &str) -> Result<Self, String> {
        parse_f32(t).ok_or_else(|| format!("bad float immediate `{t}`"))
    }

    fn arbitrary(g: &mut Gen) -> Self {
        // Any bit pattern, but an exponent of all ones (NaN with a random
        // payload, or an infinity) or of all zeros (zero or subnormal) in
        // three draws out of eight.
        let bits = g.u32();
        f32::from_bits(match g.usize_in(0, 8) {
            0 => bits | 0x7f80_0000,
            1 => bits & 0x8000_0000 | 0x7f80_0000,
            2 => bits & 0x807f_ffff,
            _ => bits,
        })
    }

    fn write(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&F32Text(*self), f)
    }
}

impl Operand for Target {
    fn parse(t: &str) -> Result<Self, String> {
        if let Some(abs) = t.strip_prefix('@') {
            let idx: u32 = abs.parse().map_err(|_| format!("bad target `{t}`"))?;
            Ok(Target::Abs(idx))
        } else if is_ident(t) {
            Ok(Target::label(t))
        } else {
            Err(format!("bad target `{t}`"))
        }
    }

    fn arbitrary(g: &mut Gen) -> Self {
        if g.bool_p(0.5) {
            Target::Label(g.ident(12))
        } else {
            Target::Abs(g.u32())
        }
    }

    fn target(&self) -> Option<&Target> {
        Some(self)
    }

    fn target_mut(&mut self) -> Option<&mut Target> {
        Some(self)
    }
}

impl Operand for FCmpOp {
    fn parse(t: &str) -> Result<Self, String> {
        match t {
            "eq" => Ok(FCmpOp::Eq),
            "lt" => Ok(FCmpOp::Lt),
            "le" => Ok(FCmpOp::Le),
            _ => Err(format!("bad compare `{t}`")),
        }
    }

    fn arbitrary(g: &mut Gen) -> Self {
        *g.choose(&[FCmpOp::Eq, FCmpOp::Lt, FCmpOp::Le])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn parse_minimal_program() {
        let text = r"
# array compaction kernel
main:
    li   $a0, 0
    li   $a1, 63
    spawn $a0, $a1
loop:
    ps   $t0, gr0
    chkid $t0
    sll  $t1, $t0, 2
    lw   $t2, 0($t1)
    j loop
    join
    halt
";
        let p = parse(text).unwrap();
        assert_eq!(p.instr_count(), 10);
        let text2 = to_text(&p);
        let p2 = parse(&text2).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn parse_memory_operands() {
        let p = parse("lw $t0, -8($sp)\nsw $t1, ($t2)\n").unwrap();
        assert_eq!(
            p.items[0],
            AsmItem::Instr(Instr::Lw { rt: Reg::T0, base: Reg::Sp, off: -8 })
        );
        assert_eq!(
            p.items[1],
            AsmItem::Instr(Instr::Sw { rt: Reg::T1, base: Reg::T2, off: 0 })
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse("nop\nbogus $t0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn parse_rejects_extra_operands() {
        assert!(parse("nop $t0\n").is_err());
        assert!(parse("add $t0, $t1\n").is_err());
    }

    #[test]
    fn parse_abs_targets() {
        let p = parse("j @42\n").unwrap();
        assert_eq!(p.items[0], AsmItem::Instr(Instr::J { target: Target::Abs(42) }));
    }

    #[test]
    fn label_same_line_as_instr() {
        let p = parse("start: nop\n").unwrap();
        assert_eq!(p.items.len(), 2);
        assert_eq!(p.items[0], AsmItem::Label("start".into()));
    }

    #[test]
    fn fp_text_roundtrip() {
        let text = "fli $f1, 1.5\nfcmp.lt $t0, $f1, $f2\nfcvtsw $f3, $t1\n";
        let p = parse(text).unwrap();
        let p2 = parse(&to_text(&p)).unwrap();
        assert_eq!(p, p2);
    }
}
