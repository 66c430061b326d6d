//! Compact hand-rolled JSON, replacing `serde`/`serde_json`.
//!
//! Checkpoints (§III-E), statistics dumps and bench results are
//! human-inspectable JSON; the encoder and decoder here are the only
//! serialization machinery in the workspace, so the build stays hermetic.
//! The format is plain JSON; the struct/enum conventions mirror serde's
//! external tagging so existing dumps keep their shape:
//!
//! * structs encode as objects with one member per field;
//! * fieldless enum variants encode as the variant-name string;
//! * data-carrying variants encode as `{"Variant": <payload>}`.
//!
//! Floats round-trip exactly through the shortest decimal representation
//! (`{:?}`). JSON has no number for NaN or the infinities, yet a simulated
//! program may hold them in `f32` state (FP registers, printed floats, `fli`
//! immediates): a non-finite `f32` encodes as the string [`F32Text`]
//! writes (`"inf"`, `"-inf"`, `"nan(0x7fc00000)"`), bit for bit. A
//! non-finite `f64` is rejected at encode time, since a checkpoint that
//! failed to round-trip would silently corrupt a resumed run.
//!
//! [`json_struct!`], [`json_enum!`] and [`json_newtype!`] generate the
//! [`ToJson`]/[`FromJson`] impls that `#[derive(Serialize, Deserialize)]`
//! used to.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A parsed JSON value.
///
/// Numbers keep their integer-ness: `I`/`U` hold values written without a
/// fraction or exponent, `F` everything else. This lets `u64::MAX` and
/// exact `i64` counters round-trip without passing through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integer (any number that fits `i64`).
    I(i64),
    /// Unsigned integer beyond `i64::MAX`.
    U(u64),
    /// Floating point number.
    F(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object members in insertion order (deterministic dumps).
    Obj(Vec<(String, Json)>),
}

/// A decode (or parse) error with a short human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
}

impl JsonError {
    pub fn new(message: impl Into<String>) -> Self {
        JsonError { message: message.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError::new(message))
}

// ---------------------------------------------------------------- encoding

impl Json {
    /// Serialize to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::I(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::U(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Json::F(v) => {
                assert!(v.is_finite(), "cannot encode non-finite float {v}");
                // `{:?}` prints the shortest decimal that round-trips, and
                // always includes a `.` or exponent so the value re-parses
                // as a float.
                let _ = fmt::Write::write_fmt(out, format_args!("{v:?}"));
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (k, (name, value)) in members.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(name, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected `{}` at byte {} (found {:?})",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((name, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free UTF-8 run at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| JsonError::new("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pair support for completeness.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                self.pos += 1; // past the first `u`'s last digit
                                if self.peek() != Some(b'\\') {
                                    return err("lone high surrogate");
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return err("lone high surrogate");
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return err("invalid low surrogate");
                                }
                                let v = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(v).ok_or_else(|| JsonError::new("bad codepoint"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| JsonError::new("bad \\u codepoint"))?
                            };
                            s.push(c);
                        }
                        other => {
                            return err(format!("bad escape {:?}", other.map(|c| c as char)))
                        }
                    }
                    self.pos += 1;
                }
                _ => return err("unterminated string"),
            }
        }
    }

    /// Four hex digits following `\u`; leaves `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return err("bad \\u escape"),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F(v)),
            _ => err(format!("bad number `{text}`")),
        }
    }
}

impl Json {
    /// Parse JSON text.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The members of an object value.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(m) => Ok(m),
            other => err(format!("expected object, found {}", other.kind())),
        }
    }

    /// The items of an array value.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => err(format!("expected array, found {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::I(_) | Json::U(_) => "integer",
            Json::F(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

// ------------------------------------------------------------------ traits

/// Types that encode to a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;

    /// Convenience: encode straight to text.
    fn to_json_string(&self) -> String {
        self.to_json().encode()
    }
}

/// Types that decode from a [`Json`] value.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Convenience: decode straight from text.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(s)?)
    }
}

/// Fetch a struct field from decoded object members.
pub fn json_field<T: FromJson>(members: &[(String, Json)], name: &str) -> Result<T, JsonError> {
    match members.iter().find(|(n, _)| n == name) {
        Some((_, v)) => T::from_json(v)
            .map_err(|e| JsonError::new(format!("field `{name}`: {}", e.message))),
        None => err(format!("missing field `{name}`")),
    }
}

// ------------------------------------------------------- primitive impls

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                #[allow(unused_comparisons)]
                if (*self as i128) >= 0 && (*self as i128) > i64::MAX as i128 {
                    Json::U(*self as u64)
                } else {
                    Json::I(*self as i64)
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let wide: i128 = match v {
                    Json::I(x) => *x as i128,
                    Json::U(x) => *x as i128,
                    other => return err(format!(
                        "expected integer, found {}", other.kind())),
                };
                <$t>::try_from(wide)
                    .map_err(|_| JsonError::new(format!(
                        "integer {wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, found {}", other.kind())),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::F(x) => Ok(*x),
            Json::I(x) => Ok(*x as f64),
            Json::U(x) => Ok(*x as f64),
            other => err(format!("expected number, found {}", other.kind())),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        if self.is_finite() {
            // f32 -> f64 is exact, and the f64 shortest-decimal encoding of
            // an exact f32 value parses back to the same f32.
            Json::F(*self as f64)
        } else {
            Json::Str(F32Text(*self).to_string())
        }
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => parse_f32(s)
                .filter(|x| !x.is_finite())
                .ok_or_else(|| JsonError::new(format!("bad non-finite float `{s}`"))),
            other => f64::from_json(other).map(|x| x as f32),
        }
    }
}

/// The exact text of an `f32`: the shortest decimal that reads back to the
/// same value (`{:?}`), `inf`/`-inf`, or `nan(0x…)` with the whole bit
/// pattern (C's `strtod` spelling), so every NaN payload survives. A
/// non-finite `f32` in JSON and the assembler's `fli` immediate are
/// written this way; [`parse_f32`] reads it back. The text holds no `:`,
/// `#` or `;`, which the assembler reads as a label or a comment.
pub struct F32Text(pub f32);

impl fmt::Display for F32Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_nan() {
            write!(f, "nan({:#010x})", self.0.to_bits())
        } else {
            write!(f, "{:?}", self.0)
        }
    }
}

/// Read what [`F32Text`] writes (and any decimal `str::parse` takes).
pub fn parse_f32(s: &str) -> Option<f32> {
    match s.strip_prefix("nan(0x").and_then(|rest| rest.strip_suffix(')')) {
        Some(hex) => u32::from_str_radix(hex, 16).ok().map(f32::from_bits).filter(|x| x.is_nan()),
        None => s.parse().ok(),
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => err(format!("expected string, found {}", other.kind())),
        }
    }
}

impl ToJson for char {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for char {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = String::from_json(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => err("expected single-character string"),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v.as_arr()?;
        if items.len() != N {
            return err(format!("expected array of {N}, found {}", items.len()));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_json(item)?;
        }
        Ok(out)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr()? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            items => err(format!("expected pair, found array of {}", items.len())),
        }
    }
}

/// Map keys: JSON object member names are strings, so keys round-trip
/// through their decimal / literal text form.
pub trait JsonKey: Ord + Sized {
    fn to_key(&self) -> String;
    fn from_key(s: &str) -> Result<Self, JsonError>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }

    fn from_key(s: &str) -> Result<Self, JsonError> {
        Ok(s.to_string())
    }
}

macro_rules! impl_json_key_int {
    ($($t:ty),*) => {$(
        impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }

            fn from_key(s: &str) -> Result<Self, JsonError> {
                s.parse().map_err(|_| JsonError::new(format!("bad {} key `{s}`", stringify!($t))))
            }
        }
    )*};
}

impl_json_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.to_key(), v.to_json())).collect())
    }
}

impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_obj()?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
            .collect()
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

// ------------------------------------------------------------- the macros

/// Generate [`ToJson`]/[`FromJson`] for a struct with named fields.
///
/// ```ignore
/// json_struct! { SpawnRecord { threads, start_ps, end_ps } }
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($f:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $( (stringify!($f).to_string(), $crate::json::ToJson::to_json(&self.$f)), )*
                ])
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let members = v.as_obj().map_err(|e| $crate::json::JsonError::new(
                    format!("{}: {}", stringify!($name), e.message)))?;
                Ok($name {
                    $( $f: $crate::json::json_field(members, stringify!($f))?, )*
                })
            }
        }
    };
}

/// Generate [`ToJson`]/[`FromJson`] for a single-field tuple struct, which
/// encodes transparently as its inner value (like `FReg(3)` -> `3`).
#[macro_export]
macro_rules! json_newtype {
    ($name:ident) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($name($crate::json::FromJson::from_json(v)?))
            }
        }
    };
}

/// Generate [`ToJson`]/[`FromJson`] for an enum. Variants may be fieldless
/// (encoded as the name string), single-field tuples (`{"Name": value}`)
/// or struct-like (`{"Name": {fields...}}`):
///
/// ```ignore
/// json_enum! { Target { Label(String), Abs(u32) } }
/// json_enum! { IcnTiming { Synchronous, Asynchronous { hop_ps, jitter_ps } } }
/// ```
#[macro_export]
macro_rules! json_enum {
    ($name:ident { $( $v:ident $( ( $ty:ty ) )? $( { $($f:ident),* $(,)? } )? ),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            #[allow(irrefutable_let_patterns, unreachable_code)]
            fn to_json(&self) -> $crate::json::Json {
                $( $crate::json_enum!(@enc self, $name, $v $(($ty))? $({$($f),*})?); )+
                unreachable!()
            }
        }

        impl $crate::json::FromJson for $name {
            #[allow(unreachable_code)]
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v {
                    $crate::json::Json::Str(__tag) => {
                        $( $crate::json_enum!(@dec_unit __tag, $name, $v $(($ty))? $({$($f),*})?); )+
                        Err($crate::json::JsonError::new(format!(
                            "unknown {} variant `{__tag}`", stringify!($name))))
                    }
                    $crate::json::Json::Obj(__members) if __members.len() == 1 => {
                        let (__tag, __body) = &__members[0];
                        $( $crate::json_enum!(@dec __tag, __body, $name, $v $(($ty))? $({$($f),*})?); )+
                        Err($crate::json::JsonError::new(format!(
                            "unknown {} variant `{__tag}`", stringify!($name))))
                    }
                    other => Err($crate::json::JsonError::new(format!(
                        "bad {} encoding: {}", stringify!($name), other.encode()))),
                }
            }
        }
    };

    // -- encode arms ------------------------------------------------------
    (@enc $slf:ident, $name:ident, $v:ident) => {
        if let $name::$v = $slf {
            return $crate::json::Json::Str(stringify!($v).to_string());
        }
    };
    (@enc $slf:ident, $name:ident, $v:ident ( $ty:ty )) => {
        if let $name::$v(__x) = $slf {
            return $crate::json::Json::Obj(vec![(
                stringify!($v).to_string(),
                <$ty as $crate::json::ToJson>::to_json(__x),
            )]);
        }
    };
    (@enc $slf:ident, $name:ident, $v:ident { $($f:ident),* }) => {
        if let $name::$v { $($f),* } = $slf {
            return $crate::json::Json::Obj(vec![(
                stringify!($v).to_string(),
                $crate::json::Json::Obj(vec![
                    $( (stringify!($f).to_string(), $crate::json::ToJson::to_json($f)), )*
                ]),
            )]);
        }
    };

    // -- decode from a bare variant-name string (fieldless variants only) -
    (@dec_unit $tag:ident, $name:ident, $v:ident) => {
        if $tag == stringify!($v) {
            return Ok($name::$v);
        }
    };
    (@dec_unit $tag:ident, $name:ident, $v:ident ( $ty:ty )) => {};
    (@dec_unit $tag:ident, $name:ident, $v:ident { $($f:ident),* }) => {};

    // -- decode from `{"Variant": body}` ----------------------------------
    (@dec $tag:ident, $body:ident, $name:ident, $v:ident) => {
        if $tag == stringify!($v) {
            return Ok($name::$v);
        }
    };
    (@dec $tag:ident, $body:ident, $name:ident, $v:ident ( $ty:ty )) => {
        if $tag == stringify!($v) {
            return Ok($name::$v(<$ty as $crate::json::FromJson>::from_json($body)?));
        }
    };
    (@dec $tag:ident, $body:ident, $name:ident, $v:ident { $($f:ident),* }) => {
        if $tag == stringify!($v) {
            let __fields = $body.as_obj()?;
            return Ok($name::$v {
                $( $f: $crate::json::json_field(__fields, stringify!($f))?, )*
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["0", "-1", "42", "9223372036854775807", "-9223372036854775808"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.encode(), text);
        }
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U(u64::MAX));
        assert_eq!(u64::from_json(&Json::parse("18446744073709551615").unwrap()).unwrap(), u64::MAX);
        assert_eq!(Json::parse("1.5").unwrap(), Json::F(1.5));
        assert_eq!(Json::parse("-2e3").unwrap(), Json::F(-2000.0));
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        for s in ["", "plain", "with \"quotes\"", "tab\tnl\nback\\slash", "unicode: ü λ 中", "\u{1}\u{1f}"] {
            let j = Json::Str(s.to_string());
            assert_eq!(Json::parse(&j.encode()).unwrap(), j);
        }
        assert_eq!(Json::parse(r#""Aü""#).unwrap(), Json::Str("Aü".into()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(Vec::<u32>::from_json(&Json::parse(&v.to_json_string()).unwrap()).unwrap(), v);
        let m: BTreeMap<u32, Vec<u8>> = [(7u32, vec![1u8, 2]), (9, vec![])].into_iter().collect();
        let back: BTreeMap<u32, Vec<u8>> =
            BTreeMap::from_json(&Json::parse(&m.to_json_string()).unwrap()).unwrap();
        assert_eq!(back, m);
        let empty: BTreeMap<String, u64> = BTreeMap::new();
        assert_eq!(empty.to_json_string(), "{}");
        assert_eq!(
            BTreeMap::<String, u64>::from_json(&Json::parse("{}").unwrap()).unwrap(),
            empty
        );
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.0f64, -0.0, 1.0 / 3.0, 1e-300, f64::MAX, f64::MIN_POSITIVE] {
            let back = f64::from_json(&Json::parse(&x.to_json_string()).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        for x in [0.1f32, f32::MAX, 12.3323345f32, -1.0e-40] {
            let back = f32::from_json(&Json::parse(&x.to_json_string()).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn non_finite_f32_roundtrips_bit_for_bit() {
        let finite = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, 1.0e-45];
        for x in finite {
            assert_eq!(x.to_json(), Json::F(x as f64), "finite values encode as numbers");
        }
        let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        let payloads = [0x7f80_0001u32, 0x7fbf_ffff, 0xffc0_1234, 0xff80_0001];
        for x in special.into_iter().chain(payloads.map(f32::from_bits)) {
            let text = x.to_json_string();
            let back = f32::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
            assert_eq!(parse_f32(&F32Text(x).to_string()).map(f32::to_bits), Some(x.to_bits()));
        }
        assert_eq!(f32::INFINITY.to_json_string(), r#""inf""#);
        assert_eq!(f32::from_bits(0x7fc0_0001).to_json_string(), r#""nan(0x7fc00001)""#);
        assert!(f32::from_json_str(r#""1.5""#).is_err(), "a finite value is a number");
        assert!(f32::from_json_str(r#""nan(0x3f800000)""#).is_err(), "bits of 1.0 are no NaN");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected_at_encode() {
        let _ = f64::NAN.to_json().encode();
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1e999").is_err(), "overflowing float must not become inf");
    }

    #[test]
    fn truncated_input_says_end_of_input() {
        let e = Json::parse(r#"{"clusters":"#).unwrap_err();
        assert_eq!(e.message, "unexpected end of input at byte 12");
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Demo {
        a: u32,
        b: Vec<i64>,
        c: Option<String>,
    }
    json_struct! { Demo { a, b, c } }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Point,
        Circle(u32),
        Rect { w: u32, h: u32 },
    }
    json_enum! { Shape { Point, Circle(u32), Rect { w, h } } }

    #[test]
    fn derive_macros_roundtrip() {
        let d = Demo { a: 7, b: vec![-1, 2], c: None };
        assert_eq!(Demo::from_json_str(&d.to_json_string()).unwrap(), d);
        for s in [Shape::Point, Shape::Circle(9), Shape::Rect { w: 3, h: 4 }] {
            assert_eq!(Shape::from_json_str(&s.to_json_string()).unwrap(), s);
        }
        assert_eq!(Shape::Point.to_json_string(), "\"Point\"");
        assert_eq!(Shape::Rect { w: 3, h: 4 }.to_json_string(), r#"{"Rect":{"w":3,"h":4}}"#);
        assert!(Shape::from_json_str("\"Rect\"").is_err());
        assert!(Shape::from_json_str(r#"{"Nope":1}"#).is_err());
    }
}
