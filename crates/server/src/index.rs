//! Per-column access structures used by the query evaluator.

use hdc_types::{AttrKind, Predicate, Schema, Tuple};

/// Index over one column.
#[derive(Debug)]
pub(crate) enum ColIndex {
    /// Inverted lists: `lists[v]` holds the row ids with value `v`, in
    /// ascending row order (row order is priority order, so each list is
    /// already sorted by priority).
    Cat { lists: Vec<Vec<u32>> },
    /// `(value, row)` pairs sorted by value (ties by row). A range
    /// predicate maps to a contiguous slice found by binary search.
    Num { sorted: Vec<(i64, u32)> },
}

/// Per-column indexes over the stored rows.
#[derive(Debug)]
pub(crate) struct ColumnIndex {
    cols: Vec<ColIndex>,
}

impl ColumnIndex {
    /// Builds indexes for all columns. `rows` must already be in priority
    /// order and validated against `schema`.
    pub(crate) fn build(schema: &Schema, rows: &[Tuple]) -> Self {
        let cols = (0..schema.arity())
            .map(|a| match schema.kind(a) {
                AttrKind::Categorical { size } => {
                    let mut lists = vec![Vec::new(); size as usize];
                    for (r, t) in rows.iter().enumerate() {
                        lists[t.get(a).expect_cat() as usize].push(r as u32);
                    }
                    ColIndex::Cat { lists }
                }
                AttrKind::Numeric { .. } => {
                    let mut sorted: Vec<(i64, u32)> = rows
                        .iter()
                        .enumerate()
                        .map(|(r, t)| (t.get(a).expect_int(), r as u32))
                        .collect();
                    sorted.sort_unstable();
                    ColIndex::Num { sorted }
                }
            })
            .collect();
        ColumnIndex { cols }
    }

    /// Appends an inverted-list index over a categorical column whose
    /// values are dense ids in `0..size` — the engine's derived cell
    /// column (see [`crate::store`]). The lists are exactly those of a
    /// [`ColIndex::Cat`] built from the same column: each in ascending
    /// row order, so the column is probed, intersected and block-scanned
    /// like any schema column. Each list is allocated at its exact
    /// length, so the index costs `4 n` bytes plus one `Vec` per value.
    pub(crate) fn push_cat(&mut self, col: &[u32], size: usize) {
        let mut counts = vec![0usize; size];
        for &v in col {
            counts[v as usize] += 1;
        }
        let mut lists: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (r, &v) in col.iter().enumerate() {
            lists[v as usize].push(r as u32);
        }
        self.cols.push(ColIndex::Cat { lists });
    }

    /// Exact number of rows satisfying the predicate on column `a`
    /// (`None` when the predicate does not constrain the column, i.e. a
    /// wildcard or full range — those are never worth probing).
    pub(crate) fn selectivity(&self, a: usize, p: Predicate) -> Option<usize> {
        if !p.is_constraining() {
            return None;
        }
        match (&self.cols[a], p) {
            (ColIndex::Cat { lists }, Predicate::Eq(v)) => {
                Some(lists.get(v as usize).map_or(0, Vec::len))
            }
            (ColIndex::Num { sorted }, Predicate::Range { lo, hi }) => {
                let (s, e) = Self::num_range(sorted, lo, hi);
                Some(e - s)
            }
            // Kind mismatches are rejected by query validation before the
            // evaluator runs; treat defensively as "no index help".
            _ => None,
        }
    }

    /// Collects the row ids matching the predicate on column `a` into
    /// `out`. For categorical columns the result is in ascending row
    /// (priority) order; for numeric columns it is in value order and the
    /// caller must sort.
    ///
    /// Returns `true` if the produced ids are already in row order.
    pub(crate) fn candidates(&self, a: usize, p: Predicate, out: &mut Vec<u32>) -> bool {
        match (&self.cols[a], p) {
            (ColIndex::Cat { lists }, Predicate::Eq(v)) => {
                if let Some(list) = lists.get(v as usize) {
                    out.extend_from_slice(list);
                }
                true
            }
            (ColIndex::Num { sorted }, Predicate::Range { lo, hi }) => {
                let (s, e) = Self::num_range(sorted, lo, hi);
                out.extend(sorted[s..e].iter().map(|&(_, r)| r));
                false
            }
            _ => unreachable!("candidates called with non-constraining or mismatched predicate"),
        }
    }

    /// The row ids holding value `v` in categorical column `a`, ascending
    /// (= priority order). Empty for out-of-domain values.
    pub(crate) fn cat_list(&self, a: usize, v: u32) -> &[u32] {
        match &self.cols[a] {
            ColIndex::Cat { lists } => lists.get(v as usize).map_or(&[], Vec::as_slice),
            ColIndex::Num { .. } => unreachable!("cat_list on numeric column"),
        }
    }

    /// The `(value, row)` pairs of numeric column `a` with values in
    /// `[lo, hi]`, sorted by value (ties by row) — **not** by row.
    pub(crate) fn num_slice(&self, a: usize, lo: i64, hi: i64) -> &[(i64, u32)] {
        match &self.cols[a] {
            ColIndex::Num { sorted } => {
                let (s, e) = Self::num_range(sorted, lo, hi);
                &sorted[s..e]
            }
            ColIndex::Cat { .. } => unreachable!("num_slice on categorical column"),
        }
    }

    /// Half-open index range of `sorted` whose values lie in `[lo, hi]`.
    fn num_range(sorted: &[(i64, u32)], lo: i64, hi: i64) -> (usize, usize) {
        let start = sorted.partition_point(|&(v, _)| v < lo);
        let end = sorted.partition_point(|&(v, _)| v <= hi);
        (start, end.max(start))
    }

    /// Number of distinct values in column `a`.
    pub(crate) fn distinct(&self, a: usize) -> usize {
        match &self.cols[a] {
            ColIndex::Cat { lists } => lists.iter().filter(|l| !l.is_empty()).count(),
            ColIndex::Num { sorted } => {
                let mut count = 0;
                let mut prev = None;
                for &(v, _) in sorted {
                    if prev != Some(v) {
                        count += 1;
                        prev = Some(v);
                    }
                }
                count
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::{Schema, Value};

    fn schema() -> Schema {
        Schema::builder()
            .categorical("c", 3)
            .numeric("n", 0, 100)
            .build()
            .unwrap()
    }

    fn rows() -> Vec<Tuple> {
        // (cat, num) pairs in priority order.
        [(0u32, 5i64), (1, 3), (0, 5), (2, 8), (1, 1)]
            .iter()
            .map(|&(c, x)| Tuple::new(vec![Value::Cat(c), Value::Int(x)]))
            .collect()
    }

    #[test]
    fn cat_lists_are_in_row_order() {
        let idx = ColumnIndex::build(&schema(), &rows());
        let mut out = Vec::new();
        assert!(idx.candidates(0, Predicate::Eq(0), &mut out));
        assert_eq!(out, vec![0, 2]);
        out.clear();
        assert!(idx.candidates(0, Predicate::Eq(1), &mut out));
        assert_eq!(out, vec![1, 4]);
    }

    #[test]
    fn num_range_candidates() {
        let idx = ColumnIndex::build(&schema(), &rows());
        let mut out = Vec::new();
        let ordered = idx.candidates(1, Predicate::Range { lo: 3, hi: 5 }, &mut out);
        assert!(!ordered);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn selectivity_counts() {
        let idx = ColumnIndex::build(&schema(), &rows());
        assert_eq!(idx.selectivity(0, Predicate::Eq(2)), Some(1));
        assert_eq!(idx.selectivity(0, Predicate::Eq(0)), Some(2));
        assert_eq!(
            idx.selectivity(1, Predicate::Range { lo: 0, hi: 100 }),
            Some(5)
        );
        assert_eq!(
            idx.selectivity(1, Predicate::Range { lo: 9, hi: 4 }),
            Some(0)
        );
        assert_eq!(idx.selectivity(0, Predicate::Any), None);
        assert_eq!(idx.selectivity(1, Predicate::FULL_RANGE), None);
    }

    #[test]
    fn empty_range_is_empty() {
        let idx = ColumnIndex::build(&schema(), &rows());
        let mut out = Vec::new();
        idx.candidates(1, Predicate::Range { lo: 50, hi: 60 }, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn distinct_counts() {
        let idx = ColumnIndex::build(&schema(), &rows());
        assert_eq!(idx.distinct(0), 3);
        assert_eq!(idx.distinct(1), 4); // values 1, 3, 5, 8
    }

    #[test]
    fn boundary_ranges() {
        let idx = ColumnIndex::build(&schema(), &rows());
        assert_eq!(
            idx.selectivity(
                1,
                Predicate::Range {
                    lo: i64::MIN,
                    hi: 0
                }
            ),
            Some(0)
        );
        assert_eq!(
            idx.selectivity(
                1,
                Predicate::Range {
                    lo: 8,
                    hi: i64::MAX
                }
            ),
            Some(1)
        );
        assert_eq!(
            idx.selectivity(1, Predicate::Range { lo: 1, hi: 1 }),
            Some(1)
        );
    }
}
