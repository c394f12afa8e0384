//! The per-cell numeric order: each derived cell's rows sorted by each
//! numeric attribute's value.
//!
//! **Cost:** 4 bytes per row per numeric attribute, plus one 4-byte
//! offset per cell (4.8 MB on a 400k-row store with three numeric
//! attributes, 1.1 MB on Adult). **Build:** lazily, once per store, on the
//! first query that pins every categorical attribute and carries a
//! numeric range (see [`crate::engine`]); a store never queried that way
//! never holds it, and server start-up never pays for it.
//!
//! For numeric attribute `a`, `rows[a]` holds every row id, grouped cell
//! by cell (cell `c` at `starts[c]..starts[c + 1]`, the same offsets for
//! every attribute) and sorted by `(value, row)` inside each cell. A range
//! on `a` within cell `c` is then one contiguous slice of that segment,
//! found by two binary searches, and its length is the exact number of the
//! cell's rows in the range.
//!
//! The build is one linear scatter per numeric attribute over the
//! attribute's value-sorted index: walking the global `(value, row)` order
//! and appending each row to its cell's bucket leaves every bucket already
//! sorted, so nothing is sorted again.

use crate::index::ColumnIndex;
use crate::store::{Cells, ColumnData, ColumnStore};

/// Every derived cell's rows in `(value, row)` order, per numeric
/// attribute (see the module docs).
#[derive(Debug)]
pub(crate) struct CellOrder {
    /// Cell `c`'s segment of every attribute's array is
    /// `starts[c]..starts[c + 1]`.
    starts: Vec<u32>,
    /// Per schema attribute: all row ids, cell by cell, each cell's rows
    /// sorted by `(value, row)`. Empty for categorical attributes.
    rows: Vec<Vec<u32>>,
}

impl CellOrder {
    /// Scatters each numeric attribute's value-sorted index into the
    /// cells of `store`'s derived cell column.
    pub(crate) fn build(store: &ColumnStore, index: &ColumnIndex, cells: &Cells) -> Self {
        let ColumnData::Cat(cell_of) = store.col(cells.attr) else {
            unreachable!("the cell column is categorical")
        };
        let mut starts = Vec::with_capacity(cells.count() + 1);
        starts.push(0u32);
        for c in 0..cells.count() {
            let len = index.cat_list(cells.attr, c as u32).len() as u32;
            starts.push(starts[c] + len);
        }
        let rows = (0..cells.attr)
            .map(|a| match store.col(a) {
                ColumnData::Cat(_) => Vec::new(),
                ColumnData::Int(_) => {
                    let mut next = starts.clone();
                    let mut out = vec![0u32; store.n()];
                    // The whole value order of attribute `a`.
                    for &(_, r) in index.num_slice(a, i64::MIN, i64::MAX) {
                        let slot = &mut next[cell_of[r as usize] as usize];
                        out[*slot as usize] = r;
                        *slot += 1;
                    }
                    out
                }
            })
            .collect();
        CellOrder { starts, rows }
    }

    /// The rows of cell `cell` whose value of numeric attribute `a` lies
    /// in `[lo, hi]`, sorted by `(value, row)` — **not** by row.
    pub(crate) fn slice(
        &self,
        store: &ColumnStore,
        cell: u32,
        a: usize,
        lo: i64,
        hi: i64,
    ) -> &[u32] {
        let ColumnData::Int(col) = store.col(a) else {
            unreachable!("range on a numeric attribute")
        };
        let c = cell as usize;
        let seg = &self.rows[a][self.starts[c] as usize..self.starts[c + 1] as usize];
        let start = seg.partition_point(|&r| col[r as usize] < lo);
        let end = seg.partition_point(|&r| col[r as usize] <= hi);
        &seg[start..end.max(start)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::{Schema, Tuple, Value};

    #[test]
    fn slices_are_the_cells_rows_in_value_order() {
        let schema = Schema::builder()
            .categorical("a", 2)
            .numeric("x", 0, 9)
            .categorical("b", 2)
            .numeric("y", 0, 9)
            .build()
            .unwrap();
        // (a, x, b, y) per row; cells by first appearance: (0,0) = 0,
        // (1,0) = 1, (0,1) = 2.
        let rows: Vec<Tuple> = [
            (0, 5, 0, 1),
            (1, 3, 0, 2),
            (0, 2, 0, 2),
            (0, 5, 1, 0),
            (0, 2, 0, 9),
            (1, 3, 0, 0),
        ]
        .iter()
        .map(|&(a, x, b, y)| {
            Tuple::new(vec![
                Value::Cat(a),
                Value::Int(x),
                Value::Cat(b),
                Value::Int(y),
            ])
        })
        .collect();
        let mut store = ColumnStore::build(&schema, &rows);
        let mut index = ColumnIndex::build(&schema, &rows);
        let (col, count) = store.derive_cells(&schema).unwrap();
        index.push_cat(col, count);
        let order = CellOrder::build(&store, &index, store.cells().unwrap());
        assert_eq!(order.starts, [0, 3, 5, 6]);
        assert!(order.rows[0].is_empty() && order.rows[2].is_empty());
        // Cell 0 holds rows 0, 2, 4: by x (5, 2, 2) and by y (1, 2, 9).
        assert_eq!(order.slice(&store, 0, 1, i64::MIN, i64::MAX), [2, 4, 0]);
        assert_eq!(order.slice(&store, 0, 3, i64::MIN, i64::MAX), [0, 2, 4]);
        // Bounds on tied values keep the whole run of ties.
        assert_eq!(order.slice(&store, 0, 1, 2, 2), [2, 4]);
        assert_eq!(order.slice(&store, 0, 1, 3, 5), [0]);
        assert_eq!(order.slice(&store, 1, 3, 0, 1), [5]);
        assert_eq!(order.slice(&store, 2, 1, 5, 5), [3]);
        // Empty and inverted ranges are empty slices.
        assert!(order.slice(&store, 1, 1, 4, 9).is_empty());
        assert!(order.slice(&store, 0, 1, 5, 2).is_empty());
    }
}
