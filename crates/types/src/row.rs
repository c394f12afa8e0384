//! The one row codec shared by the wire answers and the checkpoint
//! format.
//!
//! A row is a JSON array of [`Value::push_token`] tokens,
//! `["c3","i-7"]`. [`push_row`] writes one; [`RowCursor`] reads rows
//! (and the literals around them) back in one pass. The cursor is
//! strict: it accepts only the exact bytes its writers emit, and
//! answers `None` on anything else (whitespace, reordered fields,
//! escapes, overflowing numbers) — never a panic — so a caller falls
//! back to the generic JSON parser and tolerance stays exactly the
//! generic parser's. Canonical input just skips the per-token
//! allocations.

use crate::{Tuple, Value};

/// Appends `t`'s row fragment to `out`: a JSON array of the value
/// tokens, `["c3","i-7"]`. Tokens never need escaping.
pub fn push_row(out: &mut String, t: &Tuple) {
    out.push('[');
    for (j, v) in t.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push('"');
        v.push_token(out);
        out.push('"');
    }
    out.push(']');
}

/// A strict one-pass cursor over text in a writer's exact layout (see
/// the [module docs](self)). Every method either consumes what it
/// expects and returns it, or returns `None` / `false`; after a `None`
/// the position is unspecified and the caller abandons the cursor.
#[derive(Debug)]
pub struct RowCursor<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> RowCursor<'a> {
    /// A cursor at the start of `s`.
    #[inline]
    pub fn new(s: &'a str) -> Self {
        RowCursor {
            b: s.as_bytes(),
            p: 0,
        }
    }

    /// Consumes `lit` if the input continues with it.
    #[inline]
    pub fn eat(&mut self, lit: &[u8]) -> bool {
        if self.b[self.p..].starts_with(lit) {
            self.p += lit.len();
            true
        } else {
            false
        }
    }

    /// The unconsumed input.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.b[self.p..]
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.b.get(self.p).copied()
    }

    /// A run of decimal digits as a `u64`; `None` on no digits or
    /// overflow.
    #[inline]
    pub fn uint(&mut self) -> Option<u64> {
        let start = self.p;
        let mut val: u64 = 0;
        while let Some(c @ b'0'..=b'9') = self.peek() {
            val = val.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
            self.p += 1;
        }
        (self.p > start).then_some(val)
    }

    /// An optionally negative decimal integer over the full `i64`
    /// range, `i64::MIN` included; `None` on overflow.
    #[inline]
    fn int(&mut self) -> Option<i64> {
        let neg = self.eat(b"-");
        let magnitude = self.uint()?;
        if neg {
            0i64.checked_sub_unsigned(magnitude)
        } else {
            i64::try_from(magnitude).ok()
        }
    }

    /// One quoted value token, `"c5"` or `"i-7"`.
    #[inline]
    fn value(&mut self) -> Option<Value> {
        if !self.eat(b"\"") {
            return None;
        }
        let v = match self.peek()? {
            b'c' => {
                self.p += 1;
                Value::Cat(u32::try_from(self.uint()?).ok()?)
            }
            b'i' => {
                self.p += 1;
                Value::Int(self.int()?)
            }
            _ => return None,
        };
        self.eat(b"\"").then_some(v)
    }

    /// A quoted string with no escapes, borrowed from the input. A
    /// backslash (or a missing closing quote) is `None`.
    pub fn quoted(&mut self) -> Option<&'a str> {
        if !self.eat(b"\"") {
            return None;
        }
        let len = self.rest().iter().position(|&c| c == b'"' || c == b'\\')?;
        if self.b[self.p + len] == b'\\' {
            return None;
        }
        // Quotes are ASCII, so both ends lie on UTF-8 boundaries of
        // the `&str` the cursor was built from.
        let s = std::str::from_utf8(&self.b[self.p..self.p + len]).ok()?;
        self.p += len + 1;
        Some(s)
    }

    /// One [`push_row`] fragment as a [`Tuple`].
    #[inline]
    fn row(&mut self, vals: &mut Vec<Value>) -> Option<Tuple> {
        if !self.eat(b"[") {
            return None;
        }
        vals.clear();
        if !self.eat(b"]") {
            loop {
                vals.push(self.value()?);
                if self.eat(b",") {
                    continue;
                }
                if self.eat(b"]") {
                    break;
                }
                return None;
            }
        }
        Some(Tuple::new(&vals[..]))
    }

    /// A JSON array of [`push_row`] fragments separated by exactly
    /// `sep`, appended to `out` as tuples. Each row's values are
    /// collected in `vals` (scratch, reused across rows and calls), then
    /// copied into the tuple's shared buffer: one allocation per tuple.
    #[inline]
    pub fn rows(&mut self, sep: &[u8], vals: &mut Vec<Value>, out: &mut Vec<Tuple>) -> Option<()> {
        if !self.eat(b"[") {
            return None;
        }
        if self.eat(b"]") {
            return Some(());
        }
        loop {
            out.push(self.row(vals)?);
            if self.eat(sep) {
                continue;
            }
            return self.eat(b"]").then_some(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_push_row() {
        let rows = [
            Tuple::new(vec![Value::Cat(3), Value::Int(-7)]),
            Tuple::new(Vec::new()),
            Tuple::new(vec![
                Value::Cat(0),
                Value::Cat(u32::MAX),
                Value::Int(i64::MIN),
                Value::Int(-1),
                Value::Int(0),
                Value::Int(i64::MAX),
            ]),
        ];
        for sep in [",", ", "] {
            let mut text = String::from("[");
            for (i, t) in rows.iter().enumerate() {
                if i > 0 {
                    text.push_str(sep);
                }
                push_row(&mut text, t);
            }
            text.push(']');
            let mut cur = RowCursor::new(&text);
            let mut got = Vec::new();
            cur.rows(sep.as_bytes(), &mut Vec::new(), &mut got).unwrap();
            assert!(cur.rest().is_empty());
            assert_eq!(got, rows);
        }
        assert_eq!(
            {
                let mut s = String::new();
                push_row(&mut s, &rows[0]);
                s
            },
            r#"["c3","i-7"]"#
        );
    }

    #[test]
    fn every_token_round_trips() {
        for v in [
            Value::Cat(0),
            Value::Cat(7),
            Value::Cat(u32::MAX),
            Value::Int(i64::MIN),
            Value::Int(i64::MIN + 1),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(10),
            Value::Int(i64::MAX),
        ] {
            let mut text = String::from("\"");
            v.push_token(&mut text);
            text.push('"');
            let mut cur = RowCursor::new(&text);
            assert_eq!(cur.value(), Some(v), "{text}");
            assert!(cur.rest().is_empty());
        }
    }

    #[test]
    fn overflow_and_garbage_are_none() {
        for bad in [
            "\"c4294967296\"",
            "\"c-1\"",
            "\"i9223372036854775808\"",
            "\"i-9223372036854775809\"",
            "\"i99999999999999999999999\"",
            "\"i\"",
            "\"i-\"",
            "\"x5\"",
            "\"c5",
            "c5",
            "\"c 5\"",
            "",
        ] {
            assert_eq!(RowCursor::new(bad).value(), None, "{bad:?}");
        }
        assert_eq!(
            RowCursor::new("18446744073709551615").uint(),
            Some(u64::MAX)
        );
        assert_eq!(RowCursor::new("18446744073709551616").uint(), None);
        assert_eq!(RowCursor::new("-9223372036854775808").int(), Some(i64::MIN));
        assert_eq!(RowCursor::new("-").int(), None);
        for bad in ["", "[", "[\"c1\"", "[\"c1\",]", "[\"c1\" ]", "[[]"] {
            let mut cur = RowCursor::new(bad);
            assert_eq!(
                cur.rows(b",", &mut Vec::new(), &mut Vec::new()),
                None,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn quoted_borrows_plain_strings_and_refuses_escapes() {
        let mut cur = RowCursor::new("\"π ≤ τ\tx\",\"a\\\"b\"");
        assert_eq!(cur.quoted(), Some("π ≤ τ\tx"));
        assert!(cur.eat(b","));
        assert_eq!(cur.quoted(), None);
        assert_eq!(RowCursor::new("\"open").quoted(), None);
        assert_eq!(RowCursor::new("bare").quoted(), None);
    }
}
