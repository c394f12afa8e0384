//! Structure-of-arrays column store backing the query engine.
//!
//! The server's hot path is predicate evaluation over many rows. Storing
//! each column as a primitive `Vec` (`i64` for numeric attributes, `u32`
//! for categorical ones) in **priority order** turns that into tight
//! loops over contiguous memory — no `Tuple` indirection, no `Value` enum
//! matching — while random access by row id stays O(1) for residual
//! filtering.
//!
//! # The derived cell column
//!
//! When the schema has two or more categorical attributes, the engine
//! appends one **derived** categorical column after the schema's own
//! (see [`ColumnStore::derive_cells`]). Row `r`'s value there is the dense
//! id of its *cell*: its full categorical assignment. A query that pins
//! every categorical attribute (the §5 hybrid's leaf queries) is then one
//! equality predicate on that column, so it is answered from one inverted
//! list and one O(1) check instead of the most selective single-attribute
//! list plus one check per pinned attribute. Cell ids are assigned in
//! order of first appearance, i.e. by the cell's highest-priority row.

use std::collections::HashMap;

use hdc_types::{AttrKind, Predicate, Query, Schema, Tuple, Value};

/// One column of the database, in priority (row) order.
#[derive(Debug)]
pub(crate) enum ColumnData {
    /// A numeric column.
    Int(Vec<i64>),
    /// A categorical column.
    Cat(Vec<u32>),
}

/// All columns, decomposed from the priority-ordered row table.
#[derive(Debug)]
pub(crate) struct ColumnStore {
    n: usize,
    /// One column per schema attribute, then the derived cell column if
    /// [`ColumnStore::derive_cells`] built one.
    cols: Vec<ColumnData>,
    cells: Option<Cells>,
}

/// The key space of the derived cell column: how a query that pins every
/// categorical attribute maps to one cell id.
#[derive(Debug)]
pub(crate) struct Cells {
    /// The derived column's attribute index (the schema's arity).
    pub(crate) attr: usize,
    /// `(attribute, domain size, stride)` per categorical attribute; a
    /// cell's mixed-radix key is `Σ value · stride`.
    radix: Vec<(usize, u32, u64)>,
    /// Cell key → dense cell id, for the cells present in the data.
    ids: HashMap<u64, u32>,
}

impl Cells {
    /// The id of the cell `q` pins, if `q` pins every categorical
    /// attribute: `Some(None)` when that cell holds no row, `None` when
    /// some categorical attribute is left open (or pinned outside its
    /// domain — an empty result the per-attribute plan already settles).
    pub(crate) fn pinned(&self, q: &Query) -> Option<Option<u32>> {
        let mut key = 0u64;
        for &(a, size, stride) in &self.radix {
            match q.pred(a) {
                Predicate::Eq(v) if v < size => key += u64::from(v) * stride,
                _ => return None,
            }
        }
        Some(self.ids.get(&key).copied())
    }

    /// Number of cells present in the data (cell ids are `0..count`).
    pub(crate) fn count(&self) -> usize {
        self.ids.len()
    }
}

/// A predicate compiled against its column's primitive representation.
///
/// Wildcards and full ranges never appear here — the engine compiles only
/// constraining predicates — so every check is a real comparison.
///
/// Equality is structural; the batch planner uses it to detect predicates
/// shared between the queries of one batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CompiledPred {
    /// Categorical equality.
    Eq(u32),
    /// Inclusive numeric range.
    Range(i64, i64),
}

impl CompiledPred {
    /// Compiles a constraining predicate (`None` for wildcards / full
    /// ranges, which constrain nothing).
    pub(crate) fn compile(p: Predicate) -> Option<CompiledPred> {
        if !p.is_constraining() {
            return None;
        }
        match p {
            Predicate::Eq(v) => Some(CompiledPred::Eq(v)),
            Predicate::Range { lo, hi } => Some(CompiledPred::Range(lo, hi)),
            Predicate::Any => None,
        }
    }
}

impl ColumnStore {
    /// Decomposes the priority-ordered, schema-validated rows into
    /// columns.
    pub(crate) fn build(schema: &Schema, rows: &[Tuple]) -> Self {
        let cols = (0..schema.arity())
            .map(|a| match schema.kind(a) {
                AttrKind::Numeric { .. } => ColumnData::Int(
                    rows.iter()
                        .map(|t| match t.get(a) {
                            Value::Int(x) => x,
                            Value::Cat(_) => unreachable!("rows are schema-validated"),
                        })
                        .collect(),
                ),
                AttrKind::Categorical { .. } => ColumnData::Cat(
                    rows.iter()
                        .map(|t| match t.get(a) {
                            Value::Cat(c) => c,
                            Value::Int(_) => unreachable!("rows are schema-validated"),
                        })
                        .collect(),
                ),
            })
            .collect();
        ColumnStore {
            n: rows.len(),
            cols,
            cells: None,
        }
    }

    /// Appends the derived cell column (see the module docs) and returns
    /// it with its number of cells. Returns `None`, leaving the store as
    /// it is, when the schema has fewer than two categorical attributes
    /// (a single attribute's inverted list already *is* its cell list) or
    /// its key space does not fit in a `u64`.
    ///
    /// O(n): each row's mixed-radix key is computed on the fly and
    /// looked up once for its dense id; no per-row key is kept.
    pub(crate) fn derive_cells(&mut self, schema: &Schema) -> Option<(&[u32], usize)> {
        let mut radix = Vec::new();
        let mut space = 1u64;
        for a in 0..schema.arity() {
            if let AttrKind::Categorical { size } = schema.kind(a) {
                radix.push((a, size, space));
                space = space.checked_mul(u64::from(size))?;
            }
        }
        if radix.len() < 2 {
            return None;
        }
        let digits: Vec<(&[u32], u64)> = radix
            .iter()
            .map(|&(a, _, stride)| match &self.cols[a] {
                ColumnData::Cat(col) => (col.as_slice(), stride),
                ColumnData::Int(_) => unreachable!("radix lists categorical columns"),
            })
            .collect();
        let mut ids = HashMap::new();
        let col: Vec<u32> = (0..self.n)
            .map(|r| {
                let key = digits
                    .iter()
                    .map(|&(col, stride)| u64::from(col[r]) * stride)
                    .sum();
                let next = ids.len() as u32;
                *ids.entry(key).or_insert(next)
            })
            .collect();
        let count = ids.len();
        let attr = self.cols.len();
        self.cols.push(ColumnData::Cat(col));
        self.cells = Some(Cells { attr, radix, ids });
        match &self.cols[attr] {
            ColumnData::Cat(col) => Some((col, count)),
            ColumnData::Int(_) => unreachable!("the cell column is categorical"),
        }
    }

    /// The derived cell column's key space, if one was built.
    #[inline]
    pub(crate) fn cells(&self) -> Option<&Cells> {
        self.cells.as_ref()
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The column for attribute `a`.
    #[inline]
    pub(crate) fn col(&self, a: usize) -> &ColumnData {
        &self.cols[a]
    }

    /// Does row `r` satisfy the compiled predicate on column `a`?
    ///
    /// Kind mismatches cannot occur: queries are validated against the
    /// schema before they reach the engine.
    #[inline]
    pub(crate) fn check(&self, a: usize, p: CompiledPred, r: u32) -> bool {
        match (&self.cols[a], p) {
            (ColumnData::Cat(col), CompiledPred::Eq(v)) => col[r as usize] == v,
            (ColumnData::Int(col), CompiledPred::Range(lo, hi)) => {
                let x = col[r as usize];
                lo <= x && x <= hi
            }
            _ => unreachable!("query validated against schema"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::Schema;

    fn fixture() -> (Schema, Vec<Tuple>) {
        let schema = Schema::builder()
            .categorical("c", 3)
            .numeric("x", -10, 10)
            .build()
            .unwrap();
        let rows = [(0u32, -5i64), (2, 0), (1, 7), (0, 10)]
            .iter()
            .map(|&(c, x)| Tuple::new(vec![Value::Cat(c), Value::Int(x)]))
            .collect();
        (schema, rows)
    }

    #[test]
    fn build_decomposes_in_row_order() {
        let (schema, rows) = fixture();
        let store = ColumnStore::build(&schema, &rows);
        assert_eq!(store.n(), 4);
        match store.col(0) {
            ColumnData::Cat(col) => assert_eq!(col, &[0, 2, 1, 0]),
            _ => panic!("expected categorical column"),
        }
        match store.col(1) {
            ColumnData::Int(col) => assert_eq!(col, &[-5, 0, 7, 10]),
            _ => panic!("expected numeric column"),
        }
    }

    #[test]
    fn check_matches_predicate_semantics() {
        let (schema, rows) = fixture();
        let store = ColumnStore::build(&schema, &rows);
        let eq = CompiledPred::compile(Predicate::Eq(0)).unwrap();
        assert!(store.check(0, eq, 0));
        assert!(!store.check(0, eq, 1));
        assert!(store.check(0, eq, 3));
        let range = CompiledPred::compile(Predicate::Range { lo: 0, hi: 7 }).unwrap();
        assert!(!store.check(1, range, 0));
        assert!(store.check(1, range, 1));
        assert!(store.check(1, range, 2));
        assert!(!store.check(1, range, 3));
    }

    #[test]
    fn derive_cells_numbers_cells_by_first_appearance() {
        let (schema, rows) = fixture();
        assert!(
            ColumnStore::build(&schema, &rows)
                .derive_cells(&schema)
                .is_none(),
            "one categorical attribute needs no cell column"
        );
        let schema = Schema::builder()
            .categorical("a", 3)
            .numeric("x", 0, 9)
            .categorical("b", 2)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = [(2u32, 1u32), (0, 1), (2, 1), (2, 0), (0, 1)]
            .iter()
            .map(|&(a, b)| Tuple::new(vec![Value::Cat(a), Value::Int(0), Value::Cat(b)]))
            .collect();
        let mut store = ColumnStore::build(&schema, &rows);
        let (col, count) = store.derive_cells(&schema).unwrap();
        assert_eq!((col, count), (&[0, 1, 0, 2, 1][..], 3));
        let cells = store.cells().unwrap();
        assert_eq!(cells.attr, 3);
        let pin = |a, b| Query::new(vec![a, Predicate::Any, b]);
        let eq = Predicate::Eq;
        assert_eq!(cells.pinned(&pin(eq(2), eq(0))), Some(Some(2)));
        assert_eq!(cells.pinned(&pin(eq(1), eq(0))), Some(None), "absent cell");
        assert_eq!(
            cells.pinned(&pin(eq(2), Predicate::Any)),
            None,
            "open attribute"
        );
        assert_eq!(cells.pinned(&pin(eq(3), eq(0))), None, "outside the domain");

        // Five domains of 2^16 values overflow a u64 key.
        let mut b = Schema::builder();
        for i in 0..5 {
            b = b.categorical(format!("c{i}"), 1 << 16);
        }
        let wide = b.build().unwrap();
        let row = Tuple::new(vec![Value::Cat(0); 5]);
        assert!(ColumnStore::build(&wide, &[row])
            .derive_cells(&wide)
            .is_none());
    }

    #[test]
    fn compile_rejects_non_constraining() {
        assert!(CompiledPred::compile(Predicate::Any).is_none());
        assert!(CompiledPred::compile(Predicate::FULL_RANGE).is_none());
        assert!(CompiledPred::compile(Predicate::Eq(1)).is_some());
        assert!(CompiledPred::compile(Predicate::Range { lo: 3, hi: 2 }).is_some());
    }
}
