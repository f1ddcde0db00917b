//! The JSON format of the harness's machine-readable outputs: the
//! suite's reports (`BENCH.json`, which the trend check reads back
//! against `BENCH_baseline.json`, and the paper rows' results files) and
//! `trace_dump`'s bus trace.
//!
//! A [`Value`] tree, a pretty writer ([`to_pretty`], two-space indent,
//! fields in insertion order; [`write_pretty_seq`] streams an array in the
//! same bytes) and a parser ([`parse`]) for what the writer emits. Report structs convert through [`ToJson`]; `json_struct!`
//! declares a struct together with its conversion, so the JSON field list
//! cannot drift from the struct's.

use horam::storage::device::AccessKind;
use horam::storage::trace::TraceEvent;
use std::fmt::{self, Write};
use std::io;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, written exactly.
    UInt(u64),
    /// Any other number. The writer keeps an integral float a float by
    /// appending `.0`, and writes a non-finite one as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object; fields keep their insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The field `name` of a [`Value::Map`].
    pub fn field(&self, name: &str) -> Option<&Value> {
        let fields = self.as_map()?;
        fields.iter().find(|(key, _)| key == name).map(|(_, v)| v)
    }

    /// The fields of a [`Value::Map`].
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements of a [`Value::Seq`].
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Conversion into a [`Value`].
pub trait ToJson {
    /// The value this converts to.
    fn to_json(&self) -> Value;
}

macro_rules! scalar_to_json {
    ($($t:ty => $variant:ident),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::$variant(*self as _)
            }
        }
    )*};
}

scalar_to_json!(bool => Bool, u16 => UInt, u32 => UInt, u64 => UInt, usize => UInt, f64 => Float);

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Seq(self.iter().map(ToJson::to_json).collect())
    }
}

/// One bus event, as `trace_dump` writes it.
impl ToJson for TraceEvent {
    fn to_json(&self) -> Value {
        let kind = match self.kind {
            AccessKind::Read => "Read",
            AccessKind::Write => "Write",
        };
        Value::Map(vec![
            ("at".into(), self.at.as_nanos().to_json()),
            ("device".into(), self.device.0.to_json()),
            ("kind".into(), kind.to_json()),
            ("addr".into(), self.addr.to_json()),
            ("bytes".into(), self.bytes.to_json()),
        ])
    }
}

/// Declares structs and their [`ToJson`] conversions: one JSON field per
/// struct field, named after it, in declaration order.
macro_rules! json_struct {
    ($(
        $(#[$attr:meta])*
        struct $name:ident {
            $($(#[$field_attr:meta])* $field:ident: $ty:ty),* $(,)?
        }
    )+) => {$(
        $(#[$attr])*
        struct $name {
            $($(#[$field_attr])* $field: $ty,)*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Map(vec![$((
                    stringify!($field).to_owned(),
                    $crate::json::ToJson::to_json(&self.$field),
                )),*])
            }
        }
    )+};
}

pub(crate) use json_struct;

/// `value` as indented JSON text.
pub fn to_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, 0, &mut out);
    out
}

/// Writes `items` to `out` as the array [`to_pretty`] writes, one element
/// at a time, so neither the array's [`Value`] nor its text is ever held
/// whole (`trace_dump`'s trace has hundreds of thousands of events).
///
/// # Errors
///
/// The first error `out` returns.
pub fn write_pretty_seq<T: ToJson>(out: &mut impl io::Write, items: &[T]) -> io::Result<()> {
    let mut text = String::new();
    out.write_all(b"[")?;
    for (i, item) in items.iter().enumerate() {
        text.clear();
        text.push_str(if i == 0 { "\n  " } else { ",\n  " });
        write_value(&item.to_json(), 1, &mut text);
        out.write_all(text.as_bytes())?;
    }
    out.write_all(if items.is_empty() { b"]" } else { b"\n]" })
}

fn write_value(value: &Value, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => write!(out, "{b}").expect("writes to a String"),
        Value::UInt(n) => write!(out, "{n}").expect("writes to a String"),
        Value::Float(f) if f.is_finite() => {
            let start = out.len();
            write!(out, "{f}").expect("writes to a String");
            // `Display` never uses an exponent, so a missing point means
            // an integral float, which must not read back as an integer.
            if !out[start..].contains('.') {
                out.push_str(".0");
            }
        }
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => write_compound("[]", items.iter().map(|v| (None, v)), depth, out),
        Value::Map(fields) => {
            let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_compound("{}", fields, depth, out);
        }
    }
}

/// An array or object at `depth`, one element (with its key, in an
/// object) per line; an empty one closes on its opening line.
fn write_compound<'a>(
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
    depth: usize,
    out: &mut String,
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let mut empty = true;
    for (key, item) in items {
        out.push_str(if empty { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(": ");
        }
        write_value(item, depth + 1, out);
        empty = false;
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(close);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("writes"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why [`parse`] rejected its input, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// Byte offset of the problem.
    pub at: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {} at byte {}", self.reason, self.at)
    }
}

/// Parses one JSON value, surrounded by nothing but whitespace. A number
/// of digits alone is a [`Value::UInt`]; any other number a
/// [`Value::Float`].
///
/// # Errors
///
/// Malformed or truncated input.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos == text.len() {
        Ok(value)
    } else {
        Err(parser.error("trailing characters"))
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> Error {
        Error {
            at: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `literal` if the input continues with it.
    fn eat(&mut self, literal: &str) -> bool {
        let found = self.text[self.pos..].starts_with(literal);
        if found {
            self.pos += literal.len();
        }
        found
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            _ if self.eat("null") => Ok(Value::Null),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                let items = self.elements(b']', "expected `,` or `]`", Self::value)?;
                Ok(Value::Seq(items))
            }
            Some(b'{') => {
                let fields = self.elements(b'}', "expected `,` or `}`", |parser| {
                    parser.skip_ws();
                    let key = parser.string()?;
                    parser.skip_ws();
                    if !parser.eat(":") {
                        return Err(parser.error("expected `:`"));
                    }
                    Ok((key, parser.value()?))
                })?;
                Ok(Value::Map(fields))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated elements of a compound whose opening bracket
    /// is next, through its `close` bracket.
    fn elements<T>(
        &mut self,
        close: u8,
        expected: &'static str,
        mut element: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(element(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.error(expected)),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            // Both stops are ASCII (or the end), so this is a char boundary.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character of the escape after a backslash: one the writer
    /// emits.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.error("bad \\u escape"))?;
                self.pos += 4;
                code
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        // `Display` writes no exponent, so these are all a number's bytes.
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let number = if text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse().map(Value::UInt).ok()
        } else {
            text.parse().map(Value::Float).ok()
        };
        number.ok_or(Error {
            at: start,
            reason: "bad number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horam::storage::clock::SimTime;
    use horam::storage::device::DeviceId;

    const BASELINE: &str = include_str!("../../../BENCH_baseline.json");

    #[test]
    fn baseline_round_trips_byte_for_byte() {
        let baseline = parse(BASELINE).expect("the baseline parses");
        assert_eq!(to_pretty(&baseline), BASELINE);
    }

    #[test]
    fn every_strict_prefix_of_the_baseline_is_an_error() {
        assert!(BASELINE.is_ascii(), "every byte offset is a prefix");
        for len in 0..BASELINE.len() {
            assert!(parse(&BASELINE[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    #[test]
    fn bus_events_render_as_trace_dump_writes_them() {
        let event = |at, device, kind, addr, bytes| TraceEvent {
            at: SimTime::from_nanos(at),
            device: DeviceId(device),
            kind,
            addr,
            bytes,
        };
        let events = vec![
            event(1_500, 0, AccessKind::Read, 7, 1024),
            event(2_750, 1, AccessKind::Write, 4096, 64),
            event(2_750, 1, AccessKind::Read, 0, 1024),
        ];
        // Recorded from the serializer `trace_dump` used before this module.
        let expected = r#"[
  {
    "at": 1500,
    "device": 0,
    "kind": "Read",
    "addr": 7,
    "bytes": 1024
  },
  {
    "at": 2750,
    "device": 1,
    "kind": "Write",
    "addr": 4096,
    "bytes": 64
  },
  {
    "at": 2750,
    "device": 1,
    "kind": "Read",
    "addr": 0,
    "bytes": 1024
  }
]"#;
        assert_eq!(to_pretty(&events.to_json()), expected);
        for n in 0..=events.len() {
            let mut streamed = Vec::new();
            write_pretty_seq(&mut streamed, &events[..n]).expect("writes to a Vec");
            let whole = to_pretty(&events[..n].to_vec().to_json());
            assert_eq!(String::from_utf8(streamed).expect("utf-8"), whole);
        }
    }

    #[test]
    fn escapes_and_empty_compounds_round_trip() {
        let value = Value::Seq(vec![
            Value::Str("α \"q\" \\ \n\r\t\u{1}".into()),
            Value::UInt(u64::MAX),
            Value::Float(-5.0),
            Value::Map(vec![]),
        ]);
        assert_eq!(parse(&to_pretty(&value)), Ok(value));
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        let error = |text| parse(text).expect_err(text).reason;
        assert_eq!(error("12 trailing"), "trailing characters");
        assert_eq!(error("\"\\x\""), "bad escape");
        assert_eq!(error("1.2.3"), "bad number");
    }
}
