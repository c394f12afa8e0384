//! Pre-encoded rows: each stored row's wire fragment, encoded once.
//!
//! A wire answer lists its tuples as JSON arrays of value tokens
//! (`["c3","i-7",…]`; see [`hdc_types::Value::push_token`]). The store
//! is immutable, so a row's fragment never changes: the row table holds
//! every row's fragment back to back in one `String`, indexed by `u32`
//! offsets, and a wire response body is then a concatenation of
//! fragments picked by the engine's matched row ids.
//!
//! The table costs each row's fragment plus a four-byte offset (about
//! 84 B per row, 3.8 MB, on the Adult store). It is built lazily, on the
//! first wire query a store answers (see
//! [`ConnectionClient`](crate::ConnectionClient)), so in-process clients
//! and server start-up never pay for it.
//!
//! [`push_row`] (in `hdc-types`, beside the cursor that parses its
//! fragments back) is the one row encoder: the table is built with it,
//! and so is every body that encodes [`Tuple`]s directly, which is what
//! makes fragment-assembled bodies byte-identical to tuple-encoded ones.

use hdc_types::{push_row, Tuple};

/// Every stored row's [`push_row`] fragment, in row-id order.
pub(crate) struct RowTable {
    /// All fragments, back to back.
    text: String,
    /// Row `r`'s fragment is `text[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<u32>,
}

impl RowTable {
    /// Encodes `rows` (row id = position).
    ///
    /// # Panics
    ///
    /// If the encoded rows exceed `u32::MAX` bytes.
    pub(crate) fn build(rows: &[Tuple]) -> Self {
        let mut text = String::new();
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        for t in rows {
            push_row(&mut text, t);
            offsets.push(u32::try_from(text.len()).expect("row table exceeds 4 GiB"));
        }
        RowTable { text, offsets }
    }

    /// Row `r`'s fragment.
    #[inline]
    pub(crate) fn row(&self, r: u32) -> &str {
        let r = r as usize;
        &self.text[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// One query's answer as a wire connection sends it: the overflow flag
/// and the returned rows' fragments, in priority order.
#[derive(Clone, Copy, Debug)]
pub struct Answer<'a> {
    /// The query overflowed: the rows are the top `k` of more.
    pub overflow: bool,
    ids: &'a [u32],
    table: &'a RowTable,
}

impl<'a> Answer<'a> {
    pub(crate) fn new(table: &'a RowTable, ids: &'a [u32], overflow: bool) -> Self {
        Answer {
            overflow,
            ids,
            table,
        }
    }

    /// The returned rows' [`push_row`] fragments.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let table = self.table;
        self.ids.iter().map(move |&r| table.row(r))
    }
}

impl std::fmt::Debug for RowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowTable")
            .field("rows", &(self.offsets.len() - 1))
            .field("bytes", &self.text.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::Value;

    #[test]
    fn fragments_are_push_row_in_row_order() {
        let rows = vec![
            Tuple::new(vec![Value::Cat(3), Value::Int(-7)]),
            Tuple::new(vec![Value::Cat(0), Value::Int(i64::MIN)]),
            Tuple::new(Vec::new()),
            Tuple::new(vec![Value::Cat(u32::MAX), Value::Int(i64::MAX)]),
        ];
        let table = RowTable::build(&rows);
        assert_eq!(table.row(0), r#"["c3","i-7"]"#);
        assert_eq!(table.row(2), "[]");
        for (r, t) in rows.iter().enumerate() {
            let mut want = String::new();
            push_row(&mut want, t);
            assert_eq!(table.row(r as u32), want);
        }
        let answer = Answer::new(&table, &[3, 0], true);
        let got: Vec<&str> = answer.rows().collect();
        assert_eq!(got, [table.row(3), table.row(0)]);
    }
}
