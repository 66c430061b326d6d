//! Lexer for XMTC — the modest SPMD parallel extension of C
//! (paper §II-A, Fig. 2a).
//!
//! On top of the C subset, XMTC adds the `spawn` keyword, the virtual
//! thread id symbol `$`, and the prefix-sum primitives `ps`/`psm`.

use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // literals / identifiers
    Int(i64),
    Float(f64),
    Ident(String),
    // keywords
    KwInt,
    KwFloat,
    KwVoid,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwDo,
    KwBreak,
    KwContinue,
    KwReturn,
    KwSpawn,
    KwPs,
    KwPsm,
    KwVolatile,
    KwConst,
    // the virtual thread id
    Dollar,
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Question,
    Colon,
    // operators
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Shl,
    Shr,
    PlusPlus,
    MinusMinus,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Ident(s) => write!(f, "{s}"),
            other => f.write_str(match other {
                Tok::KwInt => "int",
                Tok::KwFloat => "float",
                Tok::KwVoid => "void",
                Tok::KwIf => "if",
                Tok::KwElse => "else",
                Tok::KwWhile => "while",
                Tok::KwFor => "for",
                Tok::KwDo => "do",
                Tok::KwBreak => "break",
                Tok::KwContinue => "continue",
                Tok::KwReturn => "return",
                Tok::KwSpawn => "spawn",
                Tok::KwPs => "ps",
                Tok::KwPsm => "psm",
                Tok::KwVolatile => "volatile",
                Tok::KwConst => "const",
                Tok::Dollar => "$",
                Tok::LParen => "(",
                Tok::RParen => ")",
                Tok::LBrace => "{",
                Tok::RBrace => "}",
                Tok::LBracket => "[",
                Tok::RBracket => "]",
                Tok::Semi => ";",
                Tok::Comma => ",",
                Tok::Question => "?",
                Tok::Colon => ":",
                Tok::Plus => "+",
                Tok::Minus => "-",
                Tok::Star => "*",
                Tok::Slash => "/",
                Tok::Percent => "%",
                Tok::Assign => "=",
                Tok::PlusAssign => "+=",
                Tok::MinusAssign => "-=",
                Tok::StarAssign => "*=",
                Tok::SlashAssign => "/=",
                Tok::PercentAssign => "%=",
                Tok::AmpAssign => "&=",
                Tok::PipeAssign => "|=",
                Tok::CaretAssign => "^=",
                Tok::ShlAssign => "<<=",
                Tok::ShrAssign => ">>=",
                Tok::Eq => "==",
                Tok::Ne => "!=",
                Tok::Lt => "<",
                Tok::Le => "<=",
                Tok::Gt => ">",
                Tok::Ge => ">=",
                Tok::AndAnd => "&&",
                Tok::OrOr => "||",
                Tok::Not => "!",
                Tok::Amp => "&",
                Tok::Pipe => "|",
                Tok::Caret => "^",
                Tok::Tilde => "~",
                Tok::Shl => "<<",
                Tok::Shr => ">>",
                Tok::PlusPlus => "++",
                Tok::MinusMinus => "--",
                Tok::Eof => "<eof>",
                _ => unreachable!(),
            }),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub tok: Tok,
    pub span: Span,
}

/// Lexical error.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub span: Span,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

fn keyword(s: &str) -> Option<Tok> {
    Some(match s {
        "int" => Tok::KwInt,
        "float" => Tok::KwFloat,
        "void" => Tok::KwVoid,
        "if" => Tok::KwIf,
        "else" => Tok::KwElse,
        "while" => Tok::KwWhile,
        "for" => Tok::KwFor,
        "do" => Tok::KwDo,
        "break" => Tok::KwBreak,
        "continue" => Tok::KwContinue,
        "return" => Tok::KwReturn,
        "spawn" => Tok::KwSpawn,
        "ps" => Tok::KwPs,
        "psm" => Tok::KwPsm,
        "volatile" => Tok::KwVolatile,
        "const" => Tok::KwConst,
        _ => return None,
    })
}

/// Tokenize XMTC source text.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    // XMTC runs about one token per two bytes: one allocation, usually.
    let mut toks = Vec::with_capacity(src.len() / 2 + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let span = Span { line, col };
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => bump!(),
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                bump!();
                bump!();
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError { span, message: "unterminated comment".into() });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        break;
                    }
                    bump!();
                }
            }
            b'0'..=b'9' => {
                let start = i;
                let hex = c == b'0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X'));
                if hex {
                    bump!();
                    bump!();
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        bump!();
                    }
                    let text = &src[start + 2..i];
                    let v = i64::from_str_radix(text, 16).map_err(|_| LexError {
                        span,
                        message: format!("bad hex literal `{}`", &src[start..i]),
                    })?;
                    toks.push(Token { tok: Tok::Int(v), span });
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        bump!();
                    }
                    let is_float = i < bytes.len()
                        && bytes[i] == b'.'
                        && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit());
                    if is_float {
                        bump!(); // '.'
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            bump!();
                        }
                        // optional exponent
                        if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                            bump!();
                            if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                                bump!();
                            }
                            while i < bytes.len() && bytes[i].is_ascii_digit() {
                                bump!();
                            }
                        }
                        let v: f64 = src[start..i].parse().map_err(|_| LexError {
                            span,
                            message: format!("bad float literal `{}`", &src[start..i]),
                        })?;
                        toks.push(Token { tok: Tok::Float(v), span });
                    } else {
                        let v: i64 = src[start..i].parse().map_err(|_| LexError {
                            span,
                            message: format!("bad int literal `{}`", &src[start..i]),
                        })?;
                        toks.push(Token { tok: Tok::Int(v), span });
                    }
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    bump!();
                }
                let word = &src[start..i];
                let tok = keyword(word).unwrap_or_else(|| Tok::Ident(word.to_string()));
                toks.push(Token { tok, span });
            }
            _ => {
                // Punctuation / operators (longest match first).
                // Match operators on raw bytes: the source may contain
                // arbitrary (multi-byte) UTF-8 and string slicing would
                // panic off a char boundary.
                let three: &[u8] = &bytes[i..bytes.len().min(i + 3)];
                let two: &[u8] = &bytes[i..bytes.len().min(i + 2)];
                let (tok, len) = match three {
                    b"<<=" => (Tok::ShlAssign, 3),
                    b">>=" => (Tok::ShrAssign, 3),
                    _ => match two {
                    b"+=" => (Tok::PlusAssign, 2),
                    b"-=" => (Tok::MinusAssign, 2),
                    b"*=" => (Tok::StarAssign, 2),
                    b"/=" => (Tok::SlashAssign, 2),
                    b"%=" => (Tok::PercentAssign, 2),
                    b"==" => (Tok::Eq, 2),
                    b"!=" => (Tok::Ne, 2),
                    b"<=" => (Tok::Le, 2),
                    b">=" => (Tok::Ge, 2),
                    b"&&" => (Tok::AndAnd, 2),
                    b"||" => (Tok::OrOr, 2),
                    b"<<" => (Tok::Shl, 2),
                    b">>" => (Tok::Shr, 2),
                    b"++" => (Tok::PlusPlus, 2),
                    b"--" => (Tok::MinusMinus, 2),
                    b"&=" => (Tok::AmpAssign, 2),
                    b"|=" => (Tok::PipeAssign, 2),
                    b"^=" => (Tok::CaretAssign, 2),
                    _ => match c {
                        b'(' => (Tok::LParen, 1),
                        b')' => (Tok::RParen, 1),
                        b'{' => (Tok::LBrace, 1),
                        b'}' => (Tok::RBrace, 1),
                        b'[' => (Tok::LBracket, 1),
                        b']' => (Tok::RBracket, 1),
                        b';' => (Tok::Semi, 1),
                        b',' => (Tok::Comma, 1),
                        b'?' => (Tok::Question, 1),
                        b':' => (Tok::Colon, 1),
                        b'+' => (Tok::Plus, 1),
                        b'-' => (Tok::Minus, 1),
                        b'*' => (Tok::Star, 1),
                        b'/' => (Tok::Slash, 1),
                        b'%' => (Tok::Percent, 1),
                        b'=' => (Tok::Assign, 1),
                        b'<' => (Tok::Lt, 1),
                        b'>' => (Tok::Gt, 1),
                        b'!' => (Tok::Not, 1),
                        b'&' => (Tok::Amp, 1),
                        b'|' => (Tok::Pipe, 1),
                        b'^' => (Tok::Caret, 1),
                        b'~' => (Tok::Tilde, 1),
                        b'$' => (Tok::Dollar, 1),
                        other => {
                            let shown = if other.is_ascii_graphic() {
                                format!("`{}`", other as char)
                            } else {
                                format!("byte 0x{other:02x}")
                            };
                            return Err(LexError {
                                span,
                                message: format!("unexpected character {shown}"),
                            })
                        }
                    },
                    },
                };
                for _ in 0..len {
                    bump!();
                }
                toks.push(Token { tok, span });
            }
        }
    }
    toks.push(Token { tok: Tok::Eof, span: Span { line, col } });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_fig2a_fragment() {
        let toks = kinds("spawn(0,N-1) { int inc=1; if (A[$]!=0) { ps(inc,base); } }");
        assert_eq!(toks[0], Tok::KwSpawn);
        assert!(toks.contains(&Tok::Dollar));
        assert!(toks.contains(&Tok::KwPs));
        assert!(toks.contains(&Tok::Ident("base".into())));
        assert_eq!(*toks.last().unwrap(), Tok::Eof);
    }

    #[test]
    fn numbers_and_floats() {
        assert_eq!(
            kinds("42 0x1f 3.5 1.0e3 2.5e-2"),
            vec![
                Tok::Int(42),
                Tok::Int(31),
                Tok::Float(3.5),
                Tok::Float(1000.0),
                Tok::Float(0.025),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn integer_division_not_float() {
        // `1/2` must stay three tokens, and `a.b` is not valid anyway.
        assert_eq!(
            kinds("1/2"),
            vec![Tok::Int(1), Tok::Slash, Tok::Int(2), Tok::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n/* block\nmore */ b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn compound_operators() {
        assert_eq!(
            kinds("a += b << 2 >= c && !d"),
            vec![
                Tok::Ident("a".into()),
                Tok::PlusAssign,
                Tok::Ident("b".into()),
                Tok::Shl,
                Tok::Int(2),
                Tok::Ge,
                Tok::Ident("c".into()),
                Tok::AndAnd,
                Tok::Not,
                Tok::Ident("d".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].span, Span { line: 1, col: 1 });
        assert_eq!(toks[1].span, Span { line: 2, col: 3 });
    }

    #[test]
    fn errors() {
        assert!(lex("`").is_err());
        assert!(lex("/* never closed").is_err());
    }
}
