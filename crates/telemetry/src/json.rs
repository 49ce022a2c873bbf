//! Minimal hand-rolled JSON (no serde — see DESIGN.md §5).
//!
//! Only what the JSONL trace format and the bench metrics files need:
//! string escaping, a flat object builder, and field lookups for the
//! flat objects it writes ([`str_field`], [`u64_field`]).

use std::fmt::Write as _;

/// Escapes a string for embedding inside JSON double quotes.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value (`null` for non-finite numbers).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Round-trippable without scientific-notation surprises for the
        // magnitudes we emit; `{}` on f64 is shortest-round-trip in Rust.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// An incremental builder for one flat JSON object.
///
/// # Examples
///
/// ```
/// use rhychee_telemetry::json::JsonObject;
///
/// let mut o = JsonObject::new();
/// o.str("kind", "counter").u64("value", 3).f64("rate", 0.5);
/// assert_eq!(o.finish(), r#"{"kind":"counter","value":3,"rate":0.5}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::from("{") }
    }

    fn key(&mut self, name: &str) -> &mut Self {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(name));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, name: &str, value: i64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a floating-point field (`null` if non-finite).
    pub fn f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&number(value));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-serialized JSON value verbatim (caller guarantees
    /// validity — used to nest objects).
    pub fn raw(&mut self, name: &str, json: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.buf);
        out.push('}');
        out
    }
}

/// The value of the first `"key":"…"` string field in `text`,
/// unescaped; `None` when the key is absent, not a string, or the
/// string is malformed.
pub fn str_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if hex.len() != 4 {
                        return None;
                    }
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            },
            _ => out.push(c),
        }
    }
    None
}

/// The value of the first `"key":<digits>` unsigned field in `text`;
/// `None` when the key is absent or its value is not an unsigned integer.
pub fn u64_field(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &text[text.find(&pat)? + pat.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("back\\slash"), "back\\\\slash");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("ünïcode"), "ünïcode");
    }

    #[test]
    fn numbers_and_nonfinite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_builder_shapes() {
        assert_eq!(JsonObject::new().finish(), "{}");
        let one = JsonObject::new().i64("x", -3).finish();
        assert_eq!(one, r#"{"x":-3}"#);
        let nested_inner = JsonObject::new().bool("ok", true).finish();
        let nested = JsonObject::new().raw("inner", &nested_inner).finish();
        assert_eq!(nested, r#"{"inner":{"ok":true}}"#);
    }
}
