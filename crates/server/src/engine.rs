//! The columnar query engine: planner + three executors, and the
//! full-pin cell-range probe.
//!
//! Rows are stored in priority order (row 0 = highest priority), so the
//! server's "return the `k` highest-priority qualifying tuples" rule is
//! "return the first `k` matching row ids". Every executor therefore
//! produces ascending row ids and stops at the `k + 1`'th match (which
//! proves overflow); they differ only in how they find those ids:
//!
//! * **scan** — a tight loop over one primitive column slice (or the
//!   trivial prefix for unconstrained queries). Chosen when at most one
//!   predicate constrains and no index narrows the candidates enough.
//! * **probe** — the most selective predicate's index list (inverted list
//!   for categorical, value-sorted range for numeric), residual-filtered
//!   by O(1) columnar checks. Numeric candidate lists are cut to the
//!   `k + 1` smallest row ids by partial selection before sorting when no
//!   residual predicate exists.
//! * **intersect** — several constraining predicates, none of whose
//!   indexes narrow enough: intersect *all* predicates' candidate sets as
//!   4096-row **bitset blocks** — each predicate ANDs a 64-bit mask per
//!   64 rows straight from its column slice, zeroed words short-circuit
//!   later predicates, and surviving bits stream out in priority order.
//!   Selective conjunctions probe instead: measurement (`BENCH_pr1.json`)
//!   shows the O(1) columnar residual check beats reading a second
//!   sorted list on this store.
//!
//! The planner measures exact per-predicate selectivities from the
//! indexes and picks the strategy by the cost thresholds documented on
//! [`plan_into`]; ties between equally selective columns break toward the
//! lower attribute index, so plans are deterministic. The chosen strategy
//! is recorded in [`ServerStats`].
//!
//! # The cell column and the per-cell numeric order
//!
//! The paper's §5 hybrid crawls each categorical leaf with rank-shrink,
//! so nearly every query of a mixed-schema crawl pins **every**
//! categorical attribute and adds a numeric range that rank-shrink
//! narrows until it holds about `k` rows *of that cell*. For schemas with
//! two or more categorical attributes, [`Engine::new`] therefore derives
//! one more categorical column whose value is the row's full categorical
//! assignment — its *cell* (see [`crate::store`]) — with row-ordered
//! inverted lists like any categorical column's. A query pinning a cell
//! absent from the data is an empty result.
//!
//! A full-pin query **with** numeric ranges is a **cell-range probe**. It
//! reads the per-cell numeric order ([`crate::cell_order`]): each cell's
//! rows sorted by each numeric attribute's value. It costs 4 bytes per
//! row per numeric attribute and is built lazily, once per engine, by the
//! first such query, so start-up never pays for it. Two binary searches
//! in the cell's segment give each range's cell ∩ range slice and its
//! exact size; the narrowest slice drives, is copied and row-sorted, and
//! only the other ranges are checked as residuals. That slice is never
//! larger than the cell's list or the store-wide range list, so no
//! threshold chooses between drivers. These probes are counted in
//! [`ServerStats::cell_range_probes`].
//!
//! A full-pin query **without** a numeric range becomes one equality on
//! the cell column (selectivity = the cell's row count), so the
//! executors above run on it unchanged. Probes it drives are counted in
//! [`ServerStats::cell_probes`].
//!
//! # Batch evaluation
//!
//! Crawl algorithms issue *bursts* of sibling queries — the slice fetches
//! under one extended-DFS node, the two or three probes of a rank-shrink
//! split — and [`Engine::evaluate`] takes a whole burst at once.
//! Each query is planned on its own. Probe-planned queries that share
//! their driving predicate *and* at least one residual form a **grouped
//! probe**: one walk over the driver's candidate list, with the shared
//! residuals checked once per candidate for the whole group. Every other
//! query runs its solo executor. Grouped probes are the only sharing
//! that crawl traffic reaches: a burst's siblings are distinct queries,
//! and nearly all of them are probes. Batch decisions are recorded in
//! [`ServerStats`] (`batches`, `batched_queries`,
//! `batch_grouped_probes`).
//!
//! The batch path is a performance hint, never a semantic one: answer
//! `i` of a batch is bit-identical to evaluating `qs[i]` alone (enforced
//! by `tests/engine_prop.rs` against the per-query path, the seed
//! evaluator, and a brute-force oracle). Empty batches return no answers
//! and a lone query runs its solo executor, so batching can never cost
//! more than the loop it replaces.
//!
//! All executors are property-tested bit-identical to the seed's
//! row-at-a-time evaluator ([`crate::LegacyEvaluator`]) and to a
//! brute-force oracle (`tests/engine_prop.rs`), which preserves the
//! paper's determinism contract: repeating a query returns the same
//! outcome, whatever plan answered it.

use std::sync::OnceLock;

use hdc_types::{Query, QueryOutcome, Schema, Tuple};

use crate::cell_order::CellOrder;
use crate::index::ColumnIndex;
use crate::stats::ServerStats;
use crate::store::{ColumnData, ColumnStore, CompiledPred};

/// Execution strategy chosen by the planner (recorded in the statistics
/// and forceable through [`crate::HiddenDbServer::query_with_strategy`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Strategy {
    /// Columnar scan (single-slice walk or bitset blocks).
    Scan,
    /// Single index probe + columnar residual filter.
    Probe,
    /// Multi-predicate bitset-block intersection.
    Intersect,
}

/// Scan is preferred unless the best index list is at least this many
/// times smaller than the table (probing pays per-candidate overhead).
/// Inherited from the seed evaluator so plans only get better, never
/// regress.
const PROBE_ADVANTAGE: usize = 4;

/// Rows per bitset block (64 words of 64 rows — fits in L1 alongside the
/// column chunks being tested).
const BLOCK_ROWS: usize = 4096;
const WORD_BITS: usize = 64;
const BLOCK_WORDS: usize = BLOCK_ROWS / WORD_BITS;

/// A constraining predicate annotated with its column and measured
/// selectivity (exact matching-row count from the index).
#[derive(Clone, Copy, Debug)]
struct PredInfo {
    attr: usize,
    pred: CompiledPred,
    sel: usize,
}

/// What the planner decided for one query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PlanKind {
    /// Some predicate matches zero rows (or the query is unsatisfiable):
    /// the result is empty without touching any row.
    EmptyResult,
    /// Columnar scan.
    Scan,
    /// Probe the most selective predicate's index.
    Probe,
    /// Intersect all predicates' bitset blocks.
    Intersect,
    /// A full-pin query with numeric ranges: drive the narrowest
    /// cell ∩ range slice of the per-cell numeric order.
    CellRange,
}

/// Reusable per-caller buffers, so steady-state queries allocate
/// nothing in the engine.
///
/// The engine itself is immutable after construction; all evaluation
/// state lives here. Each client session owns one `Scratch`, which is
/// what lets a single [`Engine`] serve many sessions through `&self`
/// concurrently.
#[derive(Default, Debug)]
pub(crate) struct Scratch {
    /// Row-id candidates for numeric probes.
    ids: Vec<u32>,
    /// Per-query state of the current call (a lone query is a batch of
    /// one).
    batch: BatchScratch,
}

/// Reusable per-batch buffers, one entry per batch member. Inner vectors
/// keep their capacity across batches.
#[derive(Default, Debug)]
struct BatchScratch {
    /// Plan kind per query.
    kinds: Vec<PlanKind>,
    /// Compiled predicates per query.
    preds: Vec<Vec<PredInfo>>,
    /// Matched row ids per query.
    matched: Vec<Vec<u32>>,
    /// Overflow flag per query.
    overflow: Vec<bool>,
    /// Whether the query is answered by a grouped probe rather than the
    /// solo executors.
    in_group: Vec<bool>,
}

impl BatchScratch {
    /// Prepares the buffers for a batch of `m` queries.
    fn reset(&mut self, m: usize) {
        self.kinds.clear();
        if self.preds.len() < m {
            self.preds.resize_with(m, Vec::new);
        }
        if self.matched.len() < m {
            self.matched.resize_with(m, Vec::new);
        }
        self.overflow.clear();
        self.overflow.resize(m, false);
        self.in_group.clear();
        self.in_group.resize(m, false);
    }
}

/// One member of a grouped probe: a query whose driver predicate (and at
/// least one residual) is shared with other members, leaving only
/// `extra` to check per candidate.
#[derive(Debug)]
struct ProbeTask {
    /// Position of this query in the batch.
    slot: usize,
    /// The member's residuals that are *not* shared by the whole group.
    extra: Vec<PredInfo>,
    /// Matched row ids (taken from, and returned to, the batch scratch).
    matched: Vec<u32>,
    overflow: bool,
    done: bool,
}

/// Probe-planned batch queries sharing the same driver.
#[derive(Debug)]
struct ProbeGroup {
    driver: Driver,
    members: Vec<usize>,
}

/// What a probe walks: the driving predicate's candidates, read from the
/// cell ∩ range slice of `cell` for a cell-range probe and from the
/// store-wide index otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Driver {
    attr: usize,
    pred: CompiledPred,
    cell: Option<u32>,
}

/// Splits a probe-like plan's `preds` into its driver and the residuals
/// left to check per candidate; `None` for the other plan kinds. A
/// cell-range plan's trailing cell equality is implied by its slice, so
/// it is not a residual.
fn probe_parts(kind: PlanKind, preds: &[PredInfo]) -> Option<(Driver, &[PredInfo])> {
    let (preds, cell) = match kind {
        PlanKind::Probe => (preds, None),
        PlanKind::CellRange => {
            let (cell, ranges) = preds.split_last().expect("a cell-range plan has a cell");
            let CompiledPred::Eq(c) = cell.pred else {
                unreachable!("a cell-range plan ends with its cell")
            };
            (ranges, Some(c))
        }
        PlanKind::EmptyResult | PlanKind::Scan | PlanKind::Intersect => return None,
    };
    let (d, residual) = preds.split_first().expect("a probe needs a predicate");
    let driver = Driver {
        attr: d.attr,
        pred: d.pred,
        cell,
    };
    Some((driver, residual))
}

/// The engine: SoA column store + per-column indexes.
///
/// Immutable after construction — every evaluation method takes `&self`
/// and writes only into the caller's [`Scratch`] — so one engine can be
/// shared (e.g. behind an `Arc`) by any number of concurrent sessions.
/// The one structure built later, the per-cell numeric order, is built
/// once behind a `OnceLock`.
#[derive(Debug)]
pub(crate) struct Engine {
    store: ColumnStore,
    index: ColumnIndex,
    /// Built by the first full-pin query with a numeric range.
    cell_order: OnceLock<CellOrder>,
}

impl Engine {
    /// Builds the store and indexes over priority-ordered, validated
    /// rows.
    pub(crate) fn new(schema: &Schema, rows: &[Tuple]) -> Self {
        let mut store = ColumnStore::build(schema, rows);
        let mut index = ColumnIndex::build(schema, rows);
        if let Some((cells, count)) = store.derive_cells(schema) {
            index.push_cat(cells, count);
        }
        Engine {
            store,
            index,
            cell_order: OnceLock::new(),
        }
    }

    /// The per-cell numeric order, built on first use. Only full-pin
    /// plans ask for it, and those exist only on stores with a cell
    /// column.
    fn cell_order(&self) -> &CellOrder {
        self.cell_order.get_or_init(|| {
            let cells = self
                .store
                .cells()
                .expect("full-pin plans need a cell column");
            CellOrder::build(&self.store, &self.index, cells)
        })
    }

    /// Records the plan of one query: its strategy, and whether the
    /// derived cell list or a cell ∩ range slice drove it.
    fn record(&self, stats: &mut ServerStats, kind: PlanKind, preds: &[PredInfo]) {
        stats.record_plan(strategy_of(kind));
        match kind {
            PlanKind::Probe if self.store.cells().is_some_and(|c| c.attr == preds[0].attr) => {
                stats.cell_probes += 1;
            }
            PlanKind::CellRange => stats.cell_range_probes += 1,
            _ => {}
        }
    }

    /// Runs the executor the planner chose. Returns `true` iff the query
    /// overflows (`matched` then holds exactly the first `k` row ids).
    fn execute(
        &self,
        kind: PlanKind,
        preds: &[PredInfo],
        k: usize,
        matched: &mut Vec<u32>,
        ids: &mut Vec<u32>,
    ) -> bool {
        match kind {
            PlanKind::EmptyResult => {
                matched.clear();
                false
            }
            PlanKind::Scan => scan(&self.store, preds, k, matched),
            PlanKind::Probe | PlanKind::CellRange => self.probe(kind, preds, k, matched, ids),
            PlanKind::Intersect => block_scan(&self.store, preds, k, matched),
        }
    }

    /// Index probe on the plan's driver, residual-filtering the rest with
    /// O(1) columnar checks.
    fn probe(
        &self,
        kind: PlanKind,
        preds: &[PredInfo],
        k: usize,
        matched: &mut Vec<u32>,
        ids: &mut Vec<u32>,
    ) -> bool {
        matched.clear();
        let (driver, residual) = probe_parts(kind, preds).expect("a probe plan");
        let candidates = self.candidates(driver, ids, residual.is_empty().then_some(k));
        probe_list(&self.store, candidates, residual, k, matched)
    }

    /// The driver's candidate row ids, in row (= priority) order.
    /// Inverted lists already are, so they are borrowed as they stand;
    /// range candidates are copied into `ids` and sorted there. With
    /// `top = Some(k)` only the `k + 1` smallest row ids are kept.
    fn candidates<'a>(&'a self, d: Driver, ids: &'a mut Vec<u32>, top: Option<usize>) -> &'a [u32] {
        let (lo, hi) = match d.pred {
            CompiledPred::Eq(v) => return self.index.cat_list(d.attr, v),
            CompiledPred::Range(lo, hi) => (lo, hi),
        };
        ids.clear();
        match d.cell {
            Some(c) => {
                ids.extend_from_slice(self.cell_order().slice(&self.store, c, d.attr, lo, hi))
            }
            None => ids.extend(self.index.num_slice(d.attr, lo, hi).iter().map(|&(_, r)| r)),
        }
        if let Some(k) = top.filter(|&k| ids.len() > k + 1) {
            // Without residual filters only the k+1 smallest row ids can
            // appear in the answer: partial-select them instead of
            // sorting the whole candidate set.
            ids.select_nth_unstable(k);
            ids.truncate(k + 1);
        }
        ids.sort_unstable();
        ids
    }

    /// The per-column indexes (shared with bookkeeping like
    /// `distinct_in_column`).
    pub(crate) fn index(&self) -> &ColumnIndex {
        &self.index
    }

    /// Evaluates a batch with the planner, recording each decision in
    /// `stats` and scribbling only in the caller's `scratch`. Every query
    /// is planned on its own, and probes sharing their driver and a
    /// residual walk the driver's list together (see the module docs).
    ///
    /// Yields one answer per query, in order: the matched row ids
    /// (ascending, at most `k`) and the overflow flag. The caller turns
    /// them into tuples ([`materialize`]) or wire fragments. Answer `i` is
    /// bit-identical to evaluating `queries[i]` alone; a lone query runs
    /// its solo executor and is not counted as a batch.
    pub(crate) fn evaluate<'s>(
        &self,
        k: usize,
        queries: &[Query],
        stats: &mut ServerStats,
        scratch: &'s mut Scratch,
    ) -> impl ExactSizeIterator<Item = (&'s [u32], bool)> + Clone + 's {
        let m = queries.len();
        let Scratch { ids, batch: b } = scratch;
        b.reset(m);
        match queries {
            [] => {}
            [q] => {
                let kind = self.plan_into(q, &mut b.preds[0]);
                self.record(stats, kind, &b.preds[0]);
                b.overflow[0] = self.execute(kind, &b.preds[0], k, &mut b.matched[0], ids);
            }
            _ => self.execute_batch(k, queries, stats, ids, b),
        }
        let b = &*b;
        (0..m).map(move |i| (&b.matched[i][..], b.overflow[i]))
    }

    /// The multi-query body of [`Self::evaluate`]: leaves each
    /// query's row ids and overflow flag in `b`.
    fn execute_batch(
        &self,
        k: usize,
        queries: &[Query],
        stats: &mut ServerStats,
        ids: &mut Vec<u32>,
        b: &mut BatchScratch,
    ) {
        stats.record_batch(queries.len());
        let m = queries.len();
        for (i, q) in queries.iter().enumerate() {
            b.kinds.push(self.plan_into(q, &mut b.preds[i]));
            self.record(stats, b.kinds[i], &b.preds[i]);
        }

        // Grouped probes. Probe-planned queries that share their driving
        // predicate *and* at least one residual (sibling leaf queries:
        // same prefix, one distinguishing predicate) walk the driver's
        // candidate list once — shared residuals are checked once per
        // candidate for the whole group.
        let residual = |i: usize| {
            probe_parts(b.kinds[i], &b.preds[i])
                .expect("a probe plan")
                .1
        };
        let mut pgroups: Vec<ProbeGroup> = Vec::new();
        for i in 0..m {
            let Some((driver, rest)) = probe_parts(b.kinds[i], &b.preds[i]) else {
                continue;
            };
            if rest.is_empty() {
                continue;
            }
            match pgroups.iter_mut().find(|g| g.driver == driver) {
                Some(g) => g.members.push(i),
                None => pgroups.push(ProbeGroup {
                    driver,
                    members: vec![i],
                }),
            }
        }
        pgroups.retain(|g| g.members.len() >= 2);
        let mut pshared: Vec<Vec<PredInfo>> = Vec::with_capacity(pgroups.len());
        pgroups.retain(|g| {
            // Residuals present in every member; driver-only sharing is
            // left to the solo paths (nothing per-candidate to save).
            let shared: Vec<PredInfo> = residual(g.members[0])
                .iter()
                .copied()
                .filter(|p| {
                    g.members[1..].iter().all(|&j| {
                        residual(j)
                            .iter()
                            .any(|q| q.attr == p.attr && q.pred == p.pred)
                    })
                })
                .collect();
            if shared.is_empty() {
                return false;
            }
            pshared.push(shared);
            true
        });
        for g in &pgroups {
            for &i in &g.members {
                b.in_group[i] = true;
            }
        }

        for i in 0..m {
            if !b.in_group[i] {
                b.overflow[i] = self.execute(b.kinds[i], &b.preds[i], k, &mut b.matched[i], ids);
            }
        }

        // Grouped probes: one walk over each group's driver list.
        for (g, shared) in pgroups.iter().zip(&pshared) {
            stats.batch_grouped_probes += g.members.len() as u64;
            let mut tasks: Vec<ProbeTask> = Vec::with_capacity(g.members.len());
            for &i in &g.members {
                let extra: Vec<PredInfo> = residual(i)
                    .iter()
                    .copied()
                    .filter(|p| !shared.iter().any(|s| s.attr == p.attr && s.pred == p.pred))
                    .collect();
                let mut matched = std::mem::take(&mut b.matched[i]);
                matched.clear();
                tasks.push(ProbeTask {
                    slot: i,
                    extra,
                    matched,
                    overflow: false,
                    done: false,
                });
            }
            // Range candidates are materialized and row-sorted once for
            // the whole group.
            let candidates = self.candidates(g.driver, ids, None);
            grouped_probe(&self.store, candidates, shared, &mut tasks, k);
            for t in tasks {
                b.matched[t.slot] = t.matched;
                b.overflow[t.slot] = t.overflow;
            }
        }
    }

    /// Evaluates `q` with a forced strategy (testing/benchmark hook).
    ///
    /// Outcomes are bit-identical to the planned path for every strategy;
    /// a strategy that cannot apply (probing a query with no constraining
    /// predicate) degrades to a scan without changing the outcome.
    pub(crate) fn evaluate_forced(
        &self,
        rows: &[Tuple],
        k: usize,
        q: &Query,
        strategy: Strategy,
    ) -> QueryOutcome {
        let mut preds = Vec::new();
        let kind = self.plan_into(q, &mut preds);
        if kind == PlanKind::EmptyResult {
            return QueryOutcome::resolved(Vec::new());
        }
        let mut matched = Vec::new();
        let overflow = match (strategy, preds.len()) {
            (Strategy::Scan, _) | (Strategy::Probe, 0) => {
                scan(&self.store, &preds, k, &mut matched)
            }
            (Strategy::Probe, _) => {
                self.probe(PlanKind::Probe, &preds, k, &mut matched, &mut Vec::new())
            }
            (Strategy::Intersect, _) => block_scan(&self.store, &preds, k, &mut matched),
        };
        materialize(rows, &matched, overflow)
    }
}

/// The strategy a plan kind is accounted to in [`ServerStats`]. Empty
/// results are settled by index lookups alone, so they count as probes.
fn strategy_of(kind: PlanKind) -> Strategy {
    match kind {
        PlanKind::EmptyResult | PlanKind::Probe | PlanKind::CellRange => Strategy::Probe,
        PlanKind::Scan => Strategy::Scan,
        PlanKind::Intersect => Strategy::Intersect,
    }
}

impl Engine {
    /// Compiles `q`'s constraining predicates (with exact selectivities,
    /// sorted ascending by `(selectivity, attribute)`) into `preds` and
    /// picks the strategy.
    ///
    /// Decision ladder, for `n` rows and sorted selectivities
    /// `s1 ≤ s2 ≤ …`:
    ///
    /// 1. unsatisfiable query, or any `si = 0` → [`PlanKind::EmptyResult`];
    /// 2. **full pin**: when the store has a derived cell column and `q`
    ///    pins every categorical attribute, the cell implies all those
    ///    equalities. A cell absent from the data →
    ///    [`PlanKind::EmptyResult`]. Then:
    ///    * with numeric ranges → [`PlanKind::CellRange`]: each range's
    ///      selectivity is the exact size of its cell ∩ range slice in
    ///      the per-cell numeric order (built on first use; no store-wide
    ///      list is measured), an empty slice →
    ///      [`PlanKind::EmptyResult`], and the ranges are followed by the
    ///      cell's equality, so `preds` stays the whole conjunction. The
    ///      narrowest slice drives; it is never larger than the cell's
    ///      list or the range's store-wide list, so it is taken whatever
    ///      its size;
    ///    * without one → the equalities become one equality on the cell
    ///      column, whose selectivity is the cell's row count, and the
    ///      rungs below see it as one categorical predicate;
    /// 3. no constraining predicate, or a **single** predicate whose index
    ///    does not narrow enough (`s1 · PROBE_ADVANTAGE > n`) →
    ///    [`PlanKind::Scan`];
    /// 4. `s1 · PROBE_ADVANTAGE ≤ n` (some index narrows, selective or not
    ///    in count of predicates) → [`PlanKind::Probe`]: drive the
    ///    smallest list, check the rest as O(1) columnar residuals.
    ///    Measurement (`BENCH_pr1.json`) shows this beats reading further
    ///    candidate lists whenever the store offers O(1) random access —
    ///    which is why selective multi-predicate queries probe rather
    ///    than intersect;
    /// 5. **several** predicates, none of whose indexes narrow enough →
    ///    [`PlanKind::Intersect`]: intersect all predicates' bitset blocks
    ///    (the dense form of candidate-list intersection).
    ///
    /// The `(selectivity, attribute)` sort key makes equal-selectivity ties
    /// resolve toward the lower attribute index, deterministically (the
    /// cell column's index is past every schema attribute's).
    fn plan_into(&self, q: &Query, preds: &mut Vec<PredInfo>) -> PlanKind {
        let Engine { store, index, .. } = self;
        preds.clear();
        if q.is_unsatisfiable() {
            return PlanKind::EmptyResult;
        }
        let pinned = store
            .cells()
            .and_then(|cells| Some((cells, cells.pinned(q)?)));
        match pinned {
            Some((_, None)) => return PlanKind::EmptyResult,
            Some((cells, Some(cell))) => {
                // The cell implies every categorical equality, so only
                // the ranges are measured, each on the cell's own rows.
                for (attr, &p) in q.preds().iter().enumerate() {
                    if let Some(pred @ CompiledPred::Range(lo, hi)) = CompiledPred::compile(p) {
                        let sel = self.cell_order().slice(store, cell, attr, lo, hi).len();
                        if sel == 0 {
                            return PlanKind::EmptyResult;
                        }
                        preds.push(PredInfo { attr, pred, sel });
                    }
                }
                preds.sort_unstable_by_key(|p| (p.sel, p.attr));
                preds.push(PredInfo {
                    attr: cells.attr,
                    pred: CompiledPred::Eq(cell),
                    sel: index.cat_list(cells.attr, cell).len(),
                });
                if preds.len() > 1 {
                    return PlanKind::CellRange;
                }
            }
            None => {
                for (attr, &p) in q.preds().iter().enumerate() {
                    if let Some(pred) = CompiledPred::compile(p) {
                        let sel = index
                            .selectivity(attr, p)
                            .expect("constraining predicates have measurable selectivity");
                        if sel == 0 {
                            return PlanKind::EmptyResult;
                        }
                        preds.push(PredInfo { attr, pred, sel });
                    }
                }
                preds.sort_unstable_by_key(|p| (p.sel, p.attr));
            }
        }
        let n = store.n();
        match preds.as_slice() {
            [] => PlanKind::Scan,
            [first, rest @ ..] => {
                if first.sel.saturating_mul(PROBE_ADVANTAGE) <= n {
                    PlanKind::Probe
                } else if rest.is_empty() {
                    PlanKind::Scan
                } else {
                    PlanKind::Intersect
                }
            }
        }
    }
}

/// Assembles the outcome; `Tuple` is `Arc`-backed, so each "clone" is a
/// reference-count bump on the shared row table.
pub(crate) fn materialize(rows: &[Tuple], matched: &[u32], overflow: bool) -> QueryOutcome {
    QueryOutcome {
        tuples: matched.iter().map(|&r| rows[r as usize].clone()).collect(),
        overflow,
    }
}

/// Columnar scan. Returns `true` iff the query overflows (`matched` then
/// holds exactly the first `k` matching row ids).
fn scan(store: &ColumnStore, preds: &[PredInfo], k: usize, matched: &mut Vec<u32>) -> bool {
    matched.clear();
    let n = store.n();
    match preds {
        [] => {
            let take = n.min(k);
            matched.extend(0..take as u32);
            n > k
        }
        [single] => scan_one_column(store, *single, k, matched),
        _ => block_scan(store, preds, k, matched),
    }
}

/// Tight loop over one primitive column slice.
fn scan_one_column(store: &ColumnStore, p: PredInfo, k: usize, matched: &mut Vec<u32>) -> bool {
    match (store.col(p.attr), p.pred) {
        (ColumnData::Int(col), CompiledPred::Range(lo, hi)) => {
            for (r, &x) in col.iter().enumerate() {
                if lo <= x && x <= hi {
                    if matched.len() == k {
                        return true;
                    }
                    matched.push(r as u32);
                }
            }
            false
        }
        (ColumnData::Cat(col), CompiledPred::Eq(v)) => {
            for (r, &c) in col.iter().enumerate() {
                if c == v {
                    if matched.len() == k {
                        return true;
                    }
                    matched.push(r as u32);
                }
            }
            false
        }
        _ => unreachable!("query validated against schema"),
    }
}

/// Bitset-block walk over the whole table: per 4096-row block, each
/// predicate ANDs 64-row masks built straight from its column slice;
/// surviving bits stream out in priority order. Returns `true` iff the
/// query overflows.
fn block_scan(store: &ColumnStore, preds: &[PredInfo], k: usize, matched: &mut Vec<u32>) -> bool {
    matched.clear();
    let n = store.n();
    let mut words = [0u64; BLOCK_WORDS];
    let mut base = 0;
    while base < n {
        let rows_here = (n - base).min(BLOCK_ROWS);
        let nwords = rows_here.div_ceil(WORD_BITS);
        let words = &mut words[..nwords];
        words.fill(u64::MAX);
        let tail = rows_here % WORD_BITS;
        if tail != 0 {
            words[nwords - 1] = (1u64 << tail) - 1;
        }
        for p in preds {
            and_pred_mask(store, *p, base, rows_here, words);
        }
        for (w, &m) in words.iter().enumerate() {
            let mut m = m;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                if matched.len() == k {
                    return true;
                }
                matched.push((base + w * WORD_BITS + bit) as u32);
            }
        }
        base += rows_here;
    }
    false
}

/// ANDs the predicate's 64-row masks into `words`. Already-zero words are
/// skipped, so the most selective predicate (tested first) prunes the
/// work of the rest.
fn and_pred_mask(
    store: &ColumnStore,
    p: PredInfo,
    base: usize,
    rows_here: usize,
    words: &mut [u64],
) {
    match (store.col(p.attr), p.pred) {
        (ColumnData::Int(col), CompiledPred::Range(lo, hi)) => {
            let col = &col[base..base + rows_here];
            for (w, chunk) in col.chunks(WORD_BITS).enumerate() {
                if words[w] == 0 {
                    continue;
                }
                let mut m = 0u64;
                for (i, &x) in chunk.iter().enumerate() {
                    m |= u64::from(lo <= x && x <= hi) << i;
                }
                words[w] &= m;
            }
        }
        (ColumnData::Cat(col), CompiledPred::Eq(v)) => {
            let col = &col[base..base + rows_here];
            for (w, chunk) in col.chunks(WORD_BITS).enumerate() {
                if words[w] == 0 {
                    continue;
                }
                let mut m = 0u64;
                for (i, &c) in chunk.iter().enumerate() {
                    m |= u64::from(c == v) << i;
                }
                words[w] &= m;
            }
        }
        _ => unreachable!("query validated against schema"),
    }
}

/// The batch path's grouped probe: one walk over a shared row-ordered
/// candidate list for a group of probes with the same driver. Shared
/// residuals are checked once per candidate; each member then checks only
/// its own `extra` predicates and retires at its `k + 1`'th match, so
/// every member's matches are bit-identical to a solo [`probe_list`].
fn grouped_probe(
    store: &ColumnStore,
    candidates: &[u32],
    shared: &[PredInfo],
    tasks: &mut [ProbeTask],
    k: usize,
) {
    let mut active = tasks.len();
    for &r in candidates {
        if !shared.iter().all(|p| store.check(p.attr, p.pred, r)) {
            continue;
        }
        for t in tasks.iter_mut().filter(|t| !t.done) {
            if t.extra.iter().all(|p| store.check(p.attr, p.pred, r)) {
                if t.matched.len() == k {
                    t.overflow = true;
                    t.done = true;
                    active -= 1;
                } else {
                    t.matched.push(r);
                }
            }
        }
        if active == 0 {
            return;
        }
    }
}

/// Filters a row-ordered candidate list, stopping at the `k + 1`'th
/// survivor.
fn probe_list(
    store: &ColumnStore,
    candidates: &[u32],
    residual: &[PredInfo],
    k: usize,
    matched: &mut Vec<u32>,
) -> bool {
    for &r in candidates {
        if residual.iter().all(|p| store.check(p.attr, p.pred, r)) {
            if matched.len() == k {
                return true;
            }
            matched.push(r);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::{Predicate, Schema, Value};

    fn fixture() -> (Schema, Vec<Tuple>) {
        let schema = Schema::builder()
            .categorical("c", 4)
            .numeric("n", 0, 1000)
            .categorical("d", 2)
            .build()
            .unwrap();
        // 600 rows: c cycles 0..4, n = i, d = parity of i / 7.
        let rows = (0..600)
            .map(|i| {
                Tuple::new(vec![
                    Value::Cat((i % 4) as u32),
                    Value::Int(i as i64),
                    Value::Cat(((i / 7) % 2) as u32),
                ])
            })
            .collect();
        (schema, rows)
    }

    impl Engine {
        /// [`Engine::evaluate`] of one query, materialized.
        fn outcome(
            &self,
            rows: &[Tuple],
            k: usize,
            q: &Query,
            stats: &mut ServerStats,
            scratch: &mut Scratch,
        ) -> QueryOutcome {
            self.outcomes(rows, k, std::slice::from_ref(q), stats, scratch)
                .remove(0)
        }

        /// [`Engine::evaluate`], materialized.
        fn outcomes(
            &self,
            rows: &[Tuple],
            k: usize,
            qs: &[Query],
            stats: &mut ServerStats,
            scratch: &mut Scratch,
        ) -> Vec<QueryOutcome> {
            self.evaluate(k, qs, stats, scratch)
                .map(|(ids, overflow)| materialize(rows, ids, overflow))
                .collect()
        }
    }

    fn brute(rows: &[Tuple], k: usize, q: &Query) -> QueryOutcome {
        let all: Vec<Tuple> = rows.iter().filter(|t| q.matches(t)).cloned().collect();
        if all.len() <= k {
            QueryOutcome::resolved(all)
        } else {
            QueryOutcome::overflowed(all[..k].to_vec())
        }
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::any(3),
            Query::new(vec![Predicate::Eq(2), Predicate::Any, Predicate::Any]),
            Query::new(vec![
                Predicate::Any,
                Predicate::Range { lo: 10, hi: 20 },
                Predicate::Any,
            ]),
            Query::new(vec![
                Predicate::Eq(1),
                Predicate::Range { lo: 0, hi: 300 },
                Predicate::Eq(0),
            ]),
            Query::new(vec![
                Predicate::Eq(3),
                Predicate::Range { lo: 590, hi: 2000 },
                Predicate::Any,
            ]),
            Query::new(vec![
                Predicate::Any,
                Predicate::Range { lo: 400, hi: 300 },
                Predicate::Any,
            ]),
            Query::new(vec![
                Predicate::Eq(0),
                Predicate::Range { lo: 0, hi: 599 },
                Predicate::Eq(1),
            ]),
        ]
    }

    #[test]
    fn planned_evaluation_matches_brute_force() {
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        let mut stats = ServerStats::default();
        let mut scratch = Scratch::default();
        for q in &queries() {
            for k in [1usize, 5, 64, 10_000] {
                let got = engine.outcome(&rows, k, q, &mut stats, &mut scratch);
                assert_eq!(got, brute(&rows, k, q), "q={q} k={k}");
            }
        }
    }

    #[test]
    fn every_forced_strategy_matches_brute_force() {
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        for q in &queries() {
            for k in [1usize, 5, 64, 10_000] {
                let want = brute(&rows, k, q);
                for s in [Strategy::Scan, Strategy::Probe, Strategy::Intersect] {
                    let got = engine.evaluate_forced(&rows, k, q, s);
                    assert_eq!(got, want, "q={q} k={k} strategy={s:?}");
                }
            }
        }
    }

    #[test]
    fn planner_chooses_expected_strategies() {
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        let mut preds = Vec::new();
        // Unconstrained: scan.
        let kind = engine.plan_into(&Query::any(3), &mut preds);
        assert_eq!(kind, PlanKind::Scan);
        // One selective range: probe.
        let q = Query::new(vec![
            Predicate::Any,
            Predicate::Range { lo: 5, hi: 9 },
            Predicate::Any,
        ]);
        assert_eq!(engine.plan_into(&q, &mut preds), PlanKind::Probe);
        // Two selective predicates: probe the smaller list, check the
        // other as a residual.
        let q = Query::new(vec![
            Predicate::Eq(1),
            Predicate::Range { lo: 0, hi: 50 },
            Predicate::Any,
        ]);
        assert_eq!(engine.plan_into(&q, &mut preds), PlanKind::Probe);
        // A dense single predicate: scan (index narrows < 4x).
        let q = Query::new(vec![
            Predicate::Any,
            Predicate::Range { lo: 0, hi: 400 },
            Predicate::Any,
        ]);
        assert_eq!(engine.plan_into(&q, &mut preds), PlanKind::Scan);
        // A zero-selectivity predicate: empty, no execution.
        let q = Query::new(vec![
            Predicate::Any,
            Predicate::Range { lo: 2000, hi: 3000 },
            Predicate::Any,
        ]);
        assert_eq!(engine.plan_into(&q, &mut preds), PlanKind::EmptyResult);
    }

    #[test]
    fn planner_intersects_dense_conjunctions() {
        // 8000 rows: both predicates individually dense (~50%), so no
        // index narrows 4x — the conjunction is answered by intersecting
        // bitset blocks, and recorded as an intersect plan.
        let schema = Schema::builder()
            .categorical("c", 2)
            .numeric("n", 0, 8000)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..8000)
            .map(|i| Tuple::new(vec![Value::Cat((i % 2) as u32), Value::Int(i as i64)]))
            .collect();
        let engine = Engine::new(&schema, &rows);
        let mut preds = Vec::new();
        let q = Query::new(vec![
            Predicate::Eq(0),
            Predicate::Range { lo: 4000, hi: 7999 },
        ]);
        assert_eq!(engine.plan_into(&q, &mut preds), PlanKind::Intersect);
        let mut stats = ServerStats::default();
        let planned_engine = Engine::new(&schema, &rows);
        let got = planned_engine.outcome(&rows, 64, &q, &mut stats, &mut Scratch::default());
        assert_eq!(stats.intersect_evals, 1);
        assert_eq!(got, brute(&rows, 64, &q));
    }

    #[test]
    fn equal_selectivity_ties_break_to_lower_attribute() {
        // Two categorical columns with identical distributions: the
        // planner must deterministically probe the lower attribute index.
        // The third column stays unpinned, so the query keeps its
        // per-attribute plan instead of the cell rewrite.
        let schema = Schema::builder()
            .categorical("a", 10)
            .categorical("b", 10)
            .categorical("c", 2)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..200)
            .map(|i| {
                Tuple::new(vec![
                    Value::Cat((i % 10) as u32),
                    Value::Cat((i % 10) as u32),
                    Value::Cat((i % 2) as u32),
                ])
            })
            .collect();
        let engine = Engine::new(&schema, &rows);
        let mut preds = Vec::new();
        let q = Query::new(vec![Predicate::Eq(3), Predicate::Eq(7), Predicate::Any]);
        let kind = engine.plan_into(&q, &mut preds);
        // Both predicates select 20 of 200 rows; the sort key must place
        // attribute 0 first regardless of input order.
        assert_eq!(preds[0].sel, preds[1].sel, "fixture must tie");
        assert_eq!(preds[0].attr, 0);
        assert_eq!(preds[1].attr, 1);
        assert_eq!(kind, PlanKind::Probe);
    }

    #[test]
    fn block_scan_handles_block_boundaries() {
        // n spanning multiple blocks with matches at block edges.
        let schema = Schema::builder()
            .numeric("x", 0, 20_000)
            .numeric("y", 0, 20_000)
            .build()
            .unwrap();
        let n = 2 * BLOCK_ROWS + 137;
        let rows: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i as i64), Value::Int((i % 5) as i64)]))
            .collect();
        let engine = Engine::new(&schema, &rows);
        // Matches exactly at rows BLOCK_ROWS-1, BLOCK_ROWS, and the last.
        let q = Query::new(vec![
            Predicate::Range {
                lo: BLOCK_ROWS as i64 - 1,
                hi: n as i64,
            },
            Predicate::Range { lo: 0, hi: 4 },
        ]);
        let got = engine.evaluate_forced(&rows, n, &q, Strategy::Scan);
        let want = brute(&rows, n, &q);
        assert_eq!(got, want);
        assert_eq!(
            got.tuples.first().unwrap().get(0),
            Value::Int(BLOCK_ROWS as i64 - 1)
        );
        assert_eq!(got.tuples.last().unwrap().get(0), Value::Int(n as i64 - 1));
    }

    #[test]
    fn batch_evaluation_matches_solo_evaluation() {
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        let mut qs = queries();
        // A duplicate query and sibling split probes sharing the same
        // selective range driver.
        qs.push(qs[3].clone());
        qs.push(Query::new(vec![
            Predicate::Eq(0),
            Predicate::Range { lo: 10, hi: 20 },
            Predicate::Any,
        ]));
        qs.push(Query::new(vec![
            Predicate::Eq(1),
            Predicate::Range { lo: 10, hi: 20 },
            Predicate::Any,
        ]));
        let mut scratch = Scratch::default();
        for k in [1usize, 5, 64, 10_000] {
            let mut stats = ServerStats::default();
            let outs = engine.outcomes(&rows, k, &qs, &mut stats, &mut scratch);
            assert_eq!(outs.len(), qs.len());
            for (q, got) in qs.iter().zip(&outs) {
                assert_eq!(got, &brute(&rows, k, q), "q={q} k={k}");
            }
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.batched_queries as usize, qs.len());
        }
    }

    #[test]
    fn batch_grouped_probe_with_range_driver_matches_solo() {
        // Two probes driven by the same numeric range (x, 36 rows) that
        // share the residual c = 1 and differ in their y range: one
        // grouped walk over the x list answers both. x permutes the row
        // order, so the list must be row-sorted first. A single
        // categorical column keeps the cell rewrite out of the plan.
        let schema = Schema::builder()
            .categorical("c", 4)
            .numeric("x", 0, 1000)
            .numeric("y", 0, 100)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..600)
            .map(|i| {
                Tuple::new(vec![
                    Value::Cat((i % 4) as u32),
                    Value::Int((i * 211 % 600) as i64),
                    Value::Int((i * 37 % 100) as i64),
                ])
            })
            .collect();
        let engine = Engine::new(&schema, &rows);
        let qs: Vec<Query> = [(0, 49), (50, 99)]
            .into_iter()
            .map(|(lo, hi)| {
                Query::new(vec![
                    Predicate::Eq(1),
                    Predicate::Range { lo: 5, hi: 40 },
                    Predicate::Range { lo, hi },
                ])
            })
            .collect();
        let mut scratch = Scratch::default();
        for k in [1usize, 3, 64] {
            let mut stats = ServerStats::default();
            let outs = engine.outcomes(&rows, k, &qs, &mut stats, &mut scratch);
            for (q, got) in qs.iter().zip(&outs) {
                assert_eq!(got, &brute(&rows, k, q), "q={q} k={k}");
            }
            assert_eq!(stats.batch_grouped_probes, 2, "k={k}");
        }
    }

    #[test]
    fn batch_empty_and_singleton_delegate() {
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        let mut stats = ServerStats::default();
        let mut scratch = Scratch::default();
        assert!(engine
            .outcomes(&rows, 5, &[], &mut stats, &mut scratch)
            .is_empty());
        let q = Query::any(3);
        let outs = engine.outcomes(&rows, 5, std::slice::from_ref(&q), &mut stats, &mut scratch);
        assert_eq!(outs, vec![brute(&rows, 5, &q)]);
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.scan_evals, 1);
    }

    #[test]
    fn batch_reuses_scratch_across_calls() {
        // Two consecutive batches through the same engine must not leak
        // state (stale plans or group flags, dirty matched buffers) into
        // each other.
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        let mut stats = ServerStats::default();
        let mut scratch = Scratch::default();
        let first = vec![
            Query::any(3),
            Query::new(vec![Predicate::Eq(1), Predicate::Any, Predicate::Any]),
        ];
        let second = vec![
            Query::new(vec![
                Predicate::Any,
                Predicate::Range { lo: 0, hi: 10 },
                Predicate::Any,
            ]),
            Query::any(3),
            Query::any(3),
        ];
        for batch in [&first, &second, &first] {
            let outs = engine.outcomes(&rows, 7, batch, &mut stats, &mut scratch);
            for (q, got) in batch.iter().zip(&outs) {
                assert_eq!(got, &brute(&rows, 7, q), "q={q}");
            }
        }
    }

    #[test]
    fn full_pin_queries_probe_the_cell_list() {
        // `fixture` has two categorical columns (c, d): pinning both is
        // one cell, pinning one keeps the per-attribute plan. c = 1 ∧
        // d = 0 holds on 65 of 600 rows.
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        let cell = engine.store.cells().expect("two categorical columns").attr;
        assert_eq!(cell, schema.arity());
        let pin = |n| Query::new(vec![Predicate::Eq(1), n, Predicate::Eq(0)]);
        let full = pin(Predicate::Range { lo: 0, hi: 500 });
        let bare = pin(Predicate::Any);
        let partial = Query::new(vec![
            Predicate::Eq(1),
            Predicate::Range { lo: 0, hi: 500 },
            Predicate::Any,
        ]);
        let mut preds = Vec::new();
        assert_eq!(engine.plan_into(&bare, &mut preds), PlanKind::Probe);
        assert_eq!((preds[0].attr, preds[0].sel), (cell, 65));
        assert_eq!(preds.len(), 1);
        // With a range, the cell ∩ range slice (54 rows) drives and the
        // cell follows it, though the range alone holds 501 rows.
        assert_eq!(engine.plan_into(&full, &mut preds), PlanKind::CellRange);
        assert_eq!((preds[0].attr, preds[0].sel), (1, 54));
        assert_eq!((preds[1].attr, preds[1].sel), (cell, 65));
        assert_eq!(preds.len(), 2);
        for (q, cell_probes, cell_range_probes) in [(&bare, 1, 0), (&full, 0, 1), (&partial, 0, 0)]
        {
            let mut stats = ServerStats::default();
            let got = engine.outcome(&rows, 8, q, &mut stats, &mut Scratch::default());
            assert_eq!(got, brute(&rows, 8, q), "q={q}");
            assert_eq!(stats.probe_evals, 1, "q={q}");
            assert_eq!(stats.cell_probes, cell_probes, "q={q}");
            assert_eq!(stats.cell_range_probes, cell_range_probes, "q={q}");
        }
        // A range narrower than the cell drives through its cell slice
        // (3 rows), not its store-wide list (21 rows).
        let narrow = pin(Predicate::Range { lo: 0, hi: 20 });
        assert_eq!(engine.plan_into(&narrow, &mut preds), PlanKind::CellRange);
        assert_eq!((preds[0].attr, preds[0].sel), (1, 3));
        assert_eq!(preds[1].attr, cell);
        let mut stats = ServerStats::default();
        let got = engine.outcome(&rows, 8, &narrow, &mut stats, &mut Scratch::default());
        assert_eq!(got, brute(&rows, 8, &narrow));
        assert_eq!(
            (
                stats.probe_evals,
                stats.cell_probes,
                stats.cell_range_probes
            ),
            (1, 0, 1)
        );
        // A range that misses the cell is settled by the slice's size.
        let miss = pin(Predicate::Range { lo: 2, hi: 4 });
        assert_eq!(engine.plan_into(&miss, &mut preds), PlanKind::EmptyResult);
    }

    #[test]
    fn cell_order_is_built_by_the_first_full_pin_range_query() {
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        let mut stats = ServerStats::default();
        let mut scratch = Scratch::default();
        assert!(engine.cell_order.get().is_none(), "built at construction");
        let range = Predicate::Range { lo: 0, hi: 500 };
        let bare = Query::new(vec![Predicate::Eq(1), Predicate::Any, Predicate::Eq(0)]);
        let partial = Query::new(vec![Predicate::Eq(1), range, Predicate::Any]);
        for q in [&bare, &partial] {
            engine.outcome(&rows, 8, q, &mut stats, &mut scratch);
            assert!(engine.cell_order.get().is_none(), "built by q={q}");
        }
        let full = Query::new(vec![Predicate::Eq(1), range, Predicate::Eq(0)]);
        engine.outcome(&rows, 8, &full, &mut stats, &mut scratch);
        assert!(engine.cell_order.get().is_some());
    }

    #[test]
    fn absent_cells_are_empty_without_execution() {
        let schema = Schema::builder()
            .categorical("c", 3)
            .categorical("d", 3)
            .numeric("n", 0, 100)
            .build()
            .unwrap();
        let rows: Vec<Tuple> = (0..90)
            .map(|i| {
                Tuple::new(vec![
                    Value::Cat((i % 3) as u32),
                    Value::Cat((i % 3) as u32),
                    Value::Int(i as i64),
                ])
            })
            .collect();
        let engine = Engine::new(&schema, &rows);
        // Every row has c == d: (0, 1) is a cell of the key space that
        // the data never fills, though each value alone matches 30 rows.
        let q = Query::new(vec![
            Predicate::Eq(0),
            Predicate::Eq(1),
            Predicate::Range { lo: 0, hi: 50 },
        ]);
        let mut preds = Vec::new();
        assert_eq!(engine.plan_into(&q, &mut preds), PlanKind::EmptyResult);
        let mut stats = ServerStats::default();
        let got = engine.outcome(&rows, 4, &q, &mut stats, &mut Scratch::default());
        assert_eq!(got, brute(&rows, 4, &q));
        assert!(got.tuples.is_empty());
        assert_eq!(
            (
                stats.probe_evals,
                stats.cell_probes,
                stats.cell_range_probes
            ),
            (1, 0, 0)
        );
        for s in [Strategy::Scan, Strategy::Probe, Strategy::Intersect] {
            assert_eq!(
                engine.evaluate_forced(&rows, 4, &q, s),
                got,
                "strategy={s:?}"
            );
        }
    }

    #[test]
    fn overflow_cuts_exactly_at_k_in_every_strategy() {
        let (schema, rows) = fixture();
        let engine = Engine::new(&schema, &rows);
        let q = Query::new(vec![
            Predicate::Eq(0),
            Predicate::Range { lo: 0, hi: 599 },
            Predicate::Any,
        ]);
        for s in [Strategy::Scan, Strategy::Probe, Strategy::Intersect] {
            let out = engine.evaluate_forced(&rows, 10, &q, s);
            assert!(out.overflow, "strategy={s:?}");
            assert_eq!(out.tuples.len(), 10, "strategy={s:?}");
        }
    }
}
