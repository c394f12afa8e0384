//! The **slice-cover** algorithm (§3.2) — optimal categorical crawling —
//! and its **lazy** variant.
//!
//! A *slice query* pins exactly one categorical attribute (`Ai = c`,
//! wildcards elsewhere). Slice-cover first records the server's response
//! to slice queries in a lookup table — the full result when the slice
//! resolves, only an overflow *bit* otherwise — then runs **extended-DFS**
//! over the data-space tree, answering a child node locally whenever the
//! slice for its refining predicate resolved. Lemma 4:
//! `Σ Ui + (n/k)·Σ min{Ui, n/k}` queries (`U1` for `d = 1`), matching the
//! Theorem 4 lower bound.
//!
//! The *lazy* heuristic skips the preprocessing phase and fetches each
//! slice at its first use (memoized), which "does not affect the
//! worst-case cost … but can improve its performance on real data" — in
//! the paper's Figure 11 it wins by orders of magnitude.
//!
//! The extended-DFS driver here is shared with [`crate::Hybrid`] (§5),
//! which plugs a rank-shrink sub-crawl in at the leaves instead of point
//! queries. Both crawl the whole-space [`ShardSpec`] with the routine
//! every plan shard runs.

use std::sync::{Condvar, Mutex, OnceLock};

use hdc_types::{HiddenDatabase, Predicate, Query, QueryOutcome, Schema, Tuple};

use crate::crawler::Crawler;
use crate::dependency::ValidityOracle;
use crate::numeric::rank_shrink::RankShrink;
use crate::report::{CrawlError, CrawlReport};
use crate::session::{run_crawl, Abort, Session, SessionConfig, MAX_BATCH};
use crate::sharded::ShardSpec;

/// A recorded slice-query response.
///
/// Overflowing slices keep only the overflow bit, exactly as §3.2
/// prescribes ("if q overflows, we remember nothing but a bit") — except
/// at the leaf level of a single-categorical-attribute numeric-leaf
/// crawl, where the k-window is kept too (see
/// [`SliceTable::cache_leaf_windows`]).
#[derive(Debug)]
pub(crate) enum SliceResult {
    /// The slice resolved; its complete result is cached.
    Resolved(Vec<Tuple>),
    /// The slice overflowed (`|q(D)| > k`). `window` carries the
    /// truncated k-window only when leaf-window caching is on and the
    /// slice sits at the leaf level; it is `None` otherwise.
    Overflowed {
        /// The k tuples the overflowing slice returned, when cached.
        window: Option<Vec<Tuple>>,
    },
}

/// One crawl's slice lookup table: the recorded response of every slice
/// query `A = v`, keyed by `(attr, value)`, shared by every shard and
/// identity of the crawl (§3.2 keeps one table per crawl, and a sharded
/// crawl is still one crawl). A solo crawl, and each shard a fleet
/// worker crawls, owns a private memo.
///
/// Each entry is *missing*, *in flight* (claimed by the session fetching
/// it) or *done*. A done entry never changes: the database is a
/// deterministic adversary, so a recorded response is never stale. The
/// memo holds at most `Σ Uᵢ` entries over the categorical attributes,
/// each at most k tuples.
pub(crate) struct SliceMemo {
    /// Schema arity (for building wildcard queries).
    arity: usize,
    /// `done[attr][value]`: the slice's response once published; empty
    /// for numeric attributes.
    done: Vec<Vec<OnceLock<SliceResult>>>,
    /// `claimed[attr][value]`: some session is fetching the slice.
    claimed: Mutex<Vec<Vec<bool>>>,
    /// Signalled whenever a fetcher publishes or releases claims.
    changed: Condvar,
}

impl SliceMemo {
    /// An empty memo for `schema`'s categorical attributes.
    pub(crate) fn new(schema: &Schema) -> Self {
        let sizes: Vec<usize> = (0..schema.arity())
            .map(|a| schema.kind(a).domain_size().unwrap_or(0) as usize)
            .collect();
        SliceMemo {
            arity: schema.arity(),
            done: sizes
                .iter()
                .map(|&u| (0..u).map(|_| OnceLock::new()).collect())
                .collect(),
            claimed: Mutex::new(sizes.iter().map(|&u| vec![false; u]).collect()),
            changed: Condvar::new(),
        }
    }

    /// Ends the claims on `values` of `attr`, published or not, and wakes
    /// the sessions waiting on them.
    fn release(&self, attr: usize, values: &[u32]) {
        let mut claimed = self.claimed.lock().expect("slice memo poisoned");
        for &v in values {
            claimed[attr][v as usize] = false;
        }
        drop(claimed);
        self.changed.notify_all();
    }
}

/// Slices a session claimed: released when dropped, so a fetch that
/// fails — an error the retry policy could not absorb, an exhausted
/// budget, a cancel, even a panic — never strands a waiter.
struct Claim<'m> {
    memo: &'m SliceMemo,
    attr: usize,
    values: Vec<u32>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.memo.release(self.attr, &self.values);
    }
}

/// One shard's view of its crawl's [`SliceMemo`]: the shard's tree
/// levels over the memo (memoizing, so it also implements the lazy
/// variant).
pub(crate) struct SliceTable<'m> {
    /// The crawl's slice memo.
    memo: &'m SliceMemo,
    /// The categorical attributes, in tree-level order.
    cat_dims: Vec<usize>,
    /// Keep the k-window of overflowed *leaf-level* slices (see
    /// [`SliceTable::cache_leaf_windows`]).
    keep_leaf_windows: bool,
}

impl<'m> SliceTable<'m> {
    pub(crate) fn new(memo: &'m SliceMemo, cat_dims: &[usize]) -> Self {
        assert!(
            cat_dims.iter().all(|&a| !memo.done[a].is_empty()),
            "slice table requires categorical attributes"
        );
        SliceTable {
            memo,
            cat_dims: cat_dims.to_vec(),
            keep_leaf_windows: false,
        }
    }

    /// Keeps the k-window of overflowed slices at the **leaf level**
    /// (the table's last tree level) instead of only the overflow bit.
    ///
    /// This matters exactly when the tree has one level and the leaves
    /// are numeric sub-crawls (the §5 hybrid with `cat = 1`, or a
    /// single-attribute sharded plan): there a leaf's query *is* its
    /// slice query, and the rank-shrink sub-crawl would otherwise have
    /// to re-issue it as its root just to obtain a pivot window — the
    /// server is deterministic, so the recorded window is exactly what
    /// the re-issue would return. Memory cost is O(k) per overflowed
    /// leaf slice, bounded by `U_leaf` windows. Every shard of a plan
    /// has the same number of levels, so tables sharing a memo agree on
    /// this setting.
    pub(crate) fn cache_leaf_windows(&mut self) {
        self.keep_leaf_windows = true;
    }

    /// Number of tree levels (= categorical attributes).
    pub(crate) fn levels(&self) -> usize {
        self.cat_dims.len()
    }

    /// Schema index of the attribute at tree level `pos`.
    pub(crate) fn attr(&self, pos: usize) -> usize {
        self.cat_dims[pos]
    }

    /// Domain size of the attribute at tree level `pos`.
    pub(crate) fn domain_size(&self, pos: usize) -> u32 {
        self.memo.done[self.attr(pos)].len() as u32
    }

    /// The slice query `A_{cat_dims[pos]} = value` (wildcards elsewhere).
    pub(crate) fn slice_query(&self, pos: usize, value: u32) -> Query {
        Query::any(self.memo.arity).with_pred(self.attr(pos), Predicate::Eq(value))
    }

    /// The recorded response for a slice, or `None` if it has not been
    /// fetched yet. A plain lookup: callers that may still need to issue
    /// the query go through [`SliceTable::fetch_many`] first.
    pub(crate) fn get(&self, pos: usize, value: u32) -> Option<&'m SliceResult> {
        self.memo.done[self.attr(pos)][value as usize].get()
    }

    /// Makes the slices `values` at tree level `pos` done in the memo —
    /// the only way anything enters it. Slices already done are **cache
    /// hits**, tallied in
    /// [`CrawlMetrics::slice_cache_hits`](crate::CrawlMetrics::slice_cache_hits):
    /// this composes with both the eager and the lazy variant, and a
    /// slice fetched once serves every later request — its own node's
    /// next window, a sibling subtree, or another shard of the crawl.
    ///
    /// The protocol, which keeps every slice to one charge and can
    /// neither deadlock nor hang:
    ///
    /// 1. **Claim** every requested slice that is neither done nor in
    ///    flight.
    /// 2. **Fetch** the claimed slices on this session, in
    ///    [`MAX_BATCH`]-sized batches (sibling slice queries share the
    ///    server's batch planning), and **publish** each batch's
    ///    responses, tallied in `slice_fetches`.
    /// 3. Only then **wait** for the slices other sessions claimed. A
    ///    published slice is a cache hit. A fetch that fails publishes
    ///    its answered prefix and releases the rest of its claims; a
    ///    waiter that finds its slice released claims it and fetches it
    ///    itself, on its own identity.
    ///
    /// A session never waits while it holds claims it has not fetched, so
    /// no cycle of waits can form. The queries issued are exactly the
    /// slices no session had recorded; which session pays for a shared
    /// slice depends on timing, but how many slices the crawl pays for
    /// does not.
    pub(crate) fn fetch_many(
        &self,
        session: &mut Session<'_>,
        pos: usize,
        values: &[u32],
    ) -> Result<(), Abort> {
        let attr = self.attr(pos);
        let memo = self.memo;
        let mut pending = values.to_vec();
        loop {
            let mut hits = 0;
            let mine = {
                let mut claimed = memo.claimed.lock().expect("slice memo poisoned");
                loop {
                    let mut mine = Vec::new();
                    pending.retain(|&v| {
                        if memo.done[attr][v as usize].get().is_some() {
                            hits += 1;
                        } else if !claimed[attr][v as usize] {
                            claimed[attr][v as usize] = true;
                            mine.push(v);
                        } else {
                            return true;
                        }
                        false
                    });
                    if !mine.is_empty() || pending.is_empty() {
                        break mine;
                    }
                    claimed = memo.changed.wait(claimed).expect("slice memo poisoned");
                }
            };
            session.metrics().slice_cache_hits += hits;
            if mine.is_empty() {
                return Ok(());
            }
            let claim = Claim {
                memo,
                attr,
                values: mine,
            };
            self.fetch_claimed(session, pos, claim)?;
        }
    }

    /// Fetches and publishes the slices `claim` holds at tree level
    /// `pos`, window by window. Dropping the claim releases whatever
    /// could not be published.
    fn fetch_claimed(
        &self,
        session: &mut Session<'_>,
        pos: usize,
        claim: Claim<'_>,
    ) -> Result<(), Abort> {
        let done = &self.memo.done[claim.attr];
        for window in claim.values.chunks(MAX_BATCH) {
            let queries: Vec<Query> = window.iter().map(|&v| self.slice_query(pos, v)).collect();
            let (outs, end) = session.run_batch_prefix(&queries);
            for (&v, out) in window.iter().zip(outs) {
                session.metrics().slice_fetches += 1;
                if out.overflow {
                    session.metrics().slice_overflows += 1;
                }
                let entry = if out.overflow {
                    let window =
                        (self.keep_leaf_windows && pos + 1 == self.levels()).then_some(out.tuples);
                    SliceResult::Overflowed { window }
                } else {
                    SliceResult::Resolved(out.tuples)
                };
                done[v as usize]
                    .set(entry)
                    .expect("only the claim holder publishes a slice");
            }
            end?;
            self.memo.release(claim.attr, window);
        }
        Ok(())
    }

    /// The eager preprocessing phase: issues every slice query of every
    /// categorical attribute (`Σ Ui` queries), one batch per attribute.
    pub(crate) fn prefetch_all(&self, session: &mut Session<'_>) -> Result<(), Abort> {
        for pos in 0..self.levels() {
            let values: Vec<u32> = (0..self.domain_size(pos)).collect();
            self.fetch_many(session, pos, &values)?;
        }
        Ok(())
    }
}

/// What to do when extended-DFS reaches a leaf of the categorical tree
/// whose slice overflowed.
pub(crate) enum LeafMode<'a> {
    /// Pure categorical spaces: the leaf query is a point query; issue it
    /// (it must resolve, else Problem 1 is unsolvable).
    Point,
    /// Mixed spaces (§5 hybrid): run rank-shrink over the numeric
    /// subspace `D_NUM(p_CAT)` rooted at the leaf query.
    Numeric {
        /// The rank-shrink configuration to run at leaves.
        rank: &'a RankShrink<'a>,
        /// Schema indices of the numeric attributes, in split order.
        dims: &'a [usize],
    },
}

/// Where an extended-DFS crawl starts: a node of the tree that is
/// treated like the root — assumed to overflow and never issued, its
/// children handled directly.
///
/// A solo crawl starts at the tree root (`Query::any`, level 0) and
/// expands every value of the first level. A shard starts at its roots'
/// shared prefix, the node pinning the first `level` tree levels, and
/// expands only the values its roots pin at `level` (see
/// [`crate::ShardSpec`]).
pub(crate) struct DfsRoot {
    /// The start node's query (its pinned tree-level predicates).
    pub query: Query,
    /// The start node's depth: how many tree levels `query` pins.
    pub level: usize,
    /// The start node's children to expand: values of the attribute at
    /// `level`, ascending. Deeper levels are never filtered — a shard
    /// owns complete subtrees.
    pub values: Vec<u32>,
}

/// [`extended_dfs_from`] the tree root, expanding every child.
#[cfg(test)]
pub(crate) fn extended_dfs(
    session: &mut Session<'_>,
    table: &SliceTable<'_>,
    leaf: &LeafMode<'_>,
) -> Result<(), Abort> {
    let values = (0..table.domain_size(0)).collect();
    extended_dfs_from(
        session,
        table,
        leaf,
        DfsRoot {
            query: Query::any(table.memo.arity),
            level: 0,
            values,
        },
    )
}

/// Extended-DFS (§3.2) over the categorical data-space tree, from the
/// start node `root`.
///
/// Differences from plain DFS, all cost-saving and all from the paper:
///
/// * a child whose refining slice **resolved** is answered locally from
///   the lookup table (no server query, subtree pruned);
/// * the root is never issued — its children are handled directly (the
///   paper's Figure 5/6 walk-through issues no extended-DFS query at all);
/// * a level-1 child whose query *is* an overflowed slice query inherits
///   the overflow bit instead of being re-issued.
///
/// Sibling queries are issued in batches — the lazy slice fetches under
/// one node, the point queries of its leaf children, and the node queries
/// of its internal children each go to the server as one
/// `query_batch` call. The set of issued queries (and hence the cost) is
/// exactly the sequential algorithm's; batching only lets the server
/// share planning and per-predicate work across siblings.
pub(crate) fn extended_dfs_from(
    session: &mut Session<'_>,
    table: &SliceTable<'_>,
    leaf: &LeafMode<'_>,
    root: DfsRoot,
) -> Result<(), Abort> {
    let levels = table.levels();
    assert!(
        levels > 0,
        "extended-DFS needs at least one categorical attribute"
    );
    assert!(root.level < levels, "start node must be an interior node");
    // Every stacked node is known to overflow (the start node by
    // convention — it is never issued — and every other entry was
    // observed to overflow when its parent expanded).
    let mut stack: Vec<(Query, usize)> = vec![(root.query, root.level)];
    let mut start_values = Some(root.values);
    while let Some((q, level)) = stack.pop() {
        debug_assert!(level < levels, "leaves are handled inline, never stacked");
        let attr = table.attr(level);
        let child_level = level + 1;
        let values: Vec<u32> = start_values
            .take()
            .unwrap_or_else(|| (0..table.domain_size(level)).collect());
        let mut point_leaves: Vec<Query> = Vec::new();
        let mut to_recurse: Vec<(Query, usize, bool)> = Vec::new();
        // The node's missing sibling slices go to the server in
        // MAX_BATCH-sized windows; each window's local answers are
        // reported before the next is fetched (progressiveness on
        // failure: at most one window's outcomes are ever forfeited).
        // After the window's one `fetch_many`, every per-value lookup is
        // a plain table read — the window's slice list is materialized
        // exactly once, never re-derived per value.
        for window in values.chunks(MAX_BATCH) {
            table.fetch_many(session, level, window)?;
            for &value in window {
                let child_q = q.with_pred(attr, Predicate::Eq(value));
                match table.get(level, value).expect("window just fetched") {
                    SliceResult::Resolved(tuples) => {
                        // The slice holds every tuple with A_attr = value;
                        // the child's result is its subset matching the
                        // prefix.
                        let matched: Vec<Tuple> = tuples
                            .iter()
                            .filter(|t| child_q.matches(t))
                            .cloned()
                            .collect();
                        session.metrics().local_answers += 1;
                        session.report(matched);
                    }
                    SliceResult::Overflowed {
                        window: leaf_window,
                    } => {
                        let is_slice = child_q.constrained_count() == 1;
                        if child_level == levels {
                            match leaf {
                                LeafMode::Point => {
                                    if is_slice {
                                        // d = 1: the slice *is* the point
                                        // query and it overflowed — >k
                                        // duplicates.
                                        return Err(Abort::Unsolvable(child_q));
                                    }
                                    point_leaves.push(child_q);
                                }
                                LeafMode::Numeric { rank, dims } => {
                                    session.metrics().leaf_subcrawls += 1;
                                    match (is_slice, leaf_window) {
                                        (true, Some(w)) => {
                                            // The leaf's root *is* this
                                            // slice and its k-window is
                                            // cached: seed rank-shrink
                                            // with the recorded response
                                            // instead of re-issuing the
                                            // query (deterministic server
                                            // → identical outcome, one
                                            // query saved per overflowing
                                            // leaf).
                                            session.metrics().slice_cache_hits += 1;
                                            let known = QueryOutcome::overflowed(w.clone());
                                            rank.run_subspace_seeded(
                                                session, child_q, known, dims,
                                            )?;
                                        }
                                        _ => rank.run_subspace(session, child_q, dims)?,
                                    }
                                }
                            }
                        } else {
                            to_recurse.push((child_q, child_level, !is_slice));
                        }
                    }
                }
            }
        }
        // Sibling point queries in windowed batches; each must resolve.
        for window in point_leaves.chunks(MAX_BATCH) {
            let outs = session.run_batch(window)?;
            for (pq, out) in window.iter().zip(outs) {
                if out.overflow {
                    return Err(Abort::Unsolvable(pq.clone()));
                }
                session.report(out.tuples);
            }
        }
        // Sibling internal nodes that need issuing (non-slice queries —
        // slice children inherit their recorded overflow bit) are also
        // batched per window: resolved children are answered at
        // expansion, overflowing ones are stacked for their own
        // expansion.
        let mut pushes: Vec<(Query, usize)> = Vec::new();
        for window in to_recurse.chunks(MAX_BATCH) {
            let issue_qs: Vec<Query> = window
                .iter()
                .filter(|&&(_, _, issue)| issue)
                .map(|(cq, _, _)| cq.clone())
                .collect();
            let mut outs = session.run_batch(&issue_qs)?.into_iter();
            for (cq, lvl, issue) in window {
                if *issue {
                    let out = outs.next().expect("one outcome per issued child");
                    if out.is_resolved() {
                        session.report(out.tuples);
                        continue;
                    }
                    // Overflow: the k returned tuples are discarded; the
                    // children below cover the node's subspace exactly
                    // once.
                }
                pushes.push((cq.clone(), *lvl));
            }
        }
        // Depth-first order: first child's subtree explored first.
        for task in pushes.into_iter().rev() {
            stack.push(task);
        }
    }
    Ok(())
}

/// The slice-cover crawler (eager preprocessing) and its lazy variant.
pub struct SliceCover<'o> {
    eager: bool,
    oracle: Option<&'o dyn ValidityOracle>,
}

impl<'o> SliceCover<'o> {
    /// Eager slice-cover: the §3.2 preprocessing phase issues every slice
    /// query up front.
    pub fn eager() -> Self {
        SliceCover {
            eager: true,
            oracle: None,
        }
    }

    /// Lazy-slice-cover: slices are fetched at first need (the §3.2
    /// heuristic; same worst-case bound, far cheaper on real data).
    pub fn lazy() -> Self {
        SliceCover {
            eager: false,
            oracle: None,
        }
    }

    /// Attaches a §1.3 validity oracle to the lazy variant.
    pub fn lazy_with_oracle(oracle: &'o dyn ValidityOracle) -> Self {
        SliceCover {
            eager: false,
            oracle: Some(oracle),
        }
    }
}

impl Crawler for SliceCover<'_> {
    fn name(&self) -> &'static str {
        if self.eager {
            "slice-cover"
        } else {
            "lazy-slice-cover"
        }
    }

    fn supports(&self, schema: &Schema) -> bool {
        schema.is_categorical()
    }

    fn crawl_with(
        &self,
        db: &mut dyn HiddenDatabase,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError> {
        let schema = db.schema().clone();
        assert!(
            self.supports(&schema),
            "slice-cover requires a categorical schema"
        );
        run_crawl(self.name(), db, self.oracle, config, |session| {
            let memo = SliceMemo::new(&schema);
            ShardSpec::whole(&schema).run(session, &schema, &memo, self.eager, None)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::run_crawl;
    use crate::validate::verify_complete;
    use hdc_server::{HiddenDbServer, ServerConfig};
    use hdc_types::tuple::cat_tuple;
    use hdc_types::TupleBag;

    /// The Figure 5 dataset (paper coordinates are 1-based; ours 0-based).
    fn figure5_tuples() -> Vec<Tuple> {
        vec![
            cat_tuple(&[0, 0]), // t1
            cat_tuple(&[0, 1]), // t2
            cat_tuple(&[0, 2]), // t3
            cat_tuple(&[0, 3]), // t4
            cat_tuple(&[1, 3]), // t5
            cat_tuple(&[2, 0]), // t6
            cat_tuple(&[2, 1]), // t7
            cat_tuple(&[2, 2]), // t8
            cat_tuple(&[2, 2]), // t9 (duplicate of t8's point)
            cat_tuple(&[3, 1]), // t10
        ]
    }

    fn figure5_schema() -> Schema {
        Schema::builder()
            .categorical("A1", 4)
            .categorical("A2", 4)
            .build()
            .unwrap()
    }

    fn figure5_server(k: usize) -> HiddenDbServer {
        HiddenDbServer::new(
            figure5_schema(),
            figure5_tuples(),
            ServerConfig { k, seed: 0 },
        )
        .unwrap()
    }

    /// Figure 6: the preprocessing lookup table for k = 3.
    #[test]
    fn figure6_lookup_table() {
        let mut db = figure5_server(3);
        let schema = figure5_schema();
        let report = run_crawl("test", &mut db, None, SessionConfig::default(), |session| {
            let memo = SliceMemo::new(&schema);
            let table = SliceTable::new(&memo, &[0, 1]);
            table.prefetch_all(session)?;
            // A1 = 1 (paper) = value 0: overflow. A1 = 2 → {t5}.
            assert!(matches!(
                table.get(0, 0),
                Some(SliceResult::Overflowed { .. })
            ));
            match table.get(0, 1) {
                Some(SliceResult::Resolved(ts)) => {
                    assert_eq!(TupleBag::from_tuples(ts.clone()).len(), 1);
                    assert_eq!(ts[0], cat_tuple(&[1, 3]));
                }
                other => panic!("A1=2 should resolve, got {other:?}"),
            }
            assert!(matches!(
                table.get(0, 2),
                Some(SliceResult::Overflowed { .. })
            ));
            match table.get(0, 3) {
                Some(SliceResult::Resolved(ts)) => assert_eq!(ts, &[cat_tuple(&[3, 1])]),
                other => panic!("A1=4 should resolve, got {other:?}"),
            }
            // A2 slices all resolve with the Figure 6 contents.
            let expect: [&[Tuple]; 4] = [
                &[cat_tuple(&[0, 0]), cat_tuple(&[2, 0])],
                &[cat_tuple(&[0, 1]), cat_tuple(&[2, 1]), cat_tuple(&[3, 1])],
                &[cat_tuple(&[0, 2]), cat_tuple(&[2, 2]), cat_tuple(&[2, 2])],
                &[cat_tuple(&[0, 3]), cat_tuple(&[1, 3])],
            ];
            for (v, want) in expect.iter().enumerate() {
                match table.get(1, v as u32) {
                    Some(SliceResult::Resolved(ts)) => {
                        let got = TupleBag::from_tuples(ts.clone());
                        let want = TupleBag::from_tuples(want.to_vec());
                        assert!(got.multiset_eq(&want), "A2={}", v + 1);
                    }
                    other => panic!("A2={} should resolve, got {other:?}", v + 1),
                }
            }
            Ok(())
        })
        .unwrap();
        // Exactly the Σ Ui = 8 slice queries.
        assert_eq!(report.queries, 8);
    }

    /// §3.2 walk-through: with the table built, extended-DFS answers
    /// everything locally — "No query is ever issued to the server in the
    /// entire process."
    #[test]
    fn figure5_eager_costs_exactly_8() {
        let tuples = figure5_tuples();
        let mut db = figure5_server(3);
        let report = SliceCover::eager().crawl(&mut db).unwrap();
        verify_complete(&tuples, &report).unwrap();
        assert_eq!(report.queries, 8, "8 slices + 0 extended-DFS queries");
    }

    #[test]
    fn figure5_lazy_also_costs_8() {
        // On this tiny example every slice ends up needed, so lazy = eager.
        let tuples = figure5_tuples();
        let mut db = figure5_server(3);
        let report = SliceCover::lazy().crawl(&mut db).unwrap();
        verify_complete(&tuples, &report).unwrap();
        assert_eq!(report.queries, 8);
    }

    #[test]
    fn lazy_skips_unneeded_slices() {
        // Large k: the A1 slices all resolve, so the A2 slices are never
        // fetched. Lazy pays U1 = 4; eager pays ΣUi = 8.
        let tuples = figure5_tuples();
        let mut lazy_db = figure5_server(100);
        let lazy = SliceCover::lazy().crawl(&mut lazy_db).unwrap();
        verify_complete(&tuples, &lazy).unwrap();
        assert_eq!(lazy.queries, 4);

        let mut eager_db = figure5_server(100);
        let eager = SliceCover::eager().crawl(&mut eager_db).unwrap();
        verify_complete(&tuples, &eager).unwrap();
        assert_eq!(eager.queries, 8);
    }

    #[test]
    fn one_dimensional_costs_exactly_u1() {
        // Lemma 4: for d = 1 slice-cover issues exactly U1 queries.
        let schema = Schema::builder().categorical("A1", 7).build().unwrap();
        let tuples: Vec<Tuple> = (0..30u32).map(|i| cat_tuple(&[i % 7])).collect();
        for crawler in [SliceCover::eager(), SliceCover::lazy()] {
            let mut db = HiddenDbServer::new(
                schema.clone(),
                tuples.clone(),
                ServerConfig { k: 5, seed: 1 },
            )
            .unwrap();
            let report = crawler.crawl(&mut db).unwrap();
            verify_complete(&tuples, &report).unwrap();
            assert_eq!(report.queries, 7, "{}", crawler.name());
        }
    }

    #[test]
    fn one_dimensional_unsolvable() {
        let schema = Schema::builder().categorical("A1", 3).build().unwrap();
        let tuples: Vec<Tuple> = std::iter::repeat_n(cat_tuple(&[1]), 9).collect();
        let mut db = HiddenDbServer::new(schema, tuples, ServerConfig { k: 4, seed: 1 }).unwrap();
        let err = SliceCover::lazy().crawl(&mut db).unwrap_err();
        assert!(matches!(err, CrawlError::Unsolvable { .. }));
    }

    #[test]
    fn point_duplicates_below_k_are_extracted() {
        let schema = Schema::builder()
            .categorical("a", 3)
            .categorical("b", 3)
            .categorical("c", 3)
            .build()
            .unwrap();
        let mut tuples: Vec<Tuple> = (0..3u32)
            .flat_map(|a| (0..3u32).map(move |b| cat_tuple(&[a, b, (a + b) % 3])))
            .collect();
        tuples.extend(std::iter::repeat_n(cat_tuple(&[1, 1, 1]), 4));
        for crawler in [SliceCover::eager(), SliceCover::lazy()] {
            let mut db = HiddenDbServer::new(
                schema.clone(),
                tuples.clone(),
                ServerConfig { k: 4, seed: 2 },
            )
            .unwrap();
            let report = crawler.crawl(&mut db).unwrap();
            verify_complete(&tuples, &report).unwrap();
        }
    }

    #[test]
    fn lemma4_bound_holds() {
        // Random 3-attribute categorical data; check the Lemma 4 formula.
        let schema = Schema::builder()
            .categorical("a", 10)
            .categorical("b", 6)
            .categorical("c", 4)
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..600)
            .map(|i| {
                let h = crate::theory::mix(i);
                cat_tuple(&[
                    (h % 10) as u32,
                    ((h >> 8) % 6) as u32,
                    ((h >> 16) % 4) as u32,
                ])
            })
            .collect();
        let (n, k) = (tuples.len() as f64, 8f64);
        let bound = crate::theory::slice_cover_bound(&[10, 6, 4], n, k);
        for crawler in [SliceCover::eager(), SliceCover::lazy()] {
            let mut db = HiddenDbServer::new(
                schema.clone(),
                tuples.clone(),
                ServerConfig { k: 8, seed: 3 },
            )
            .unwrap();
            let report = crawler.crawl(&mut db).unwrap();
            verify_complete(&tuples, &report).unwrap();
            assert!(
                (report.queries as f64) <= bound,
                "{}: {} > {bound}",
                crawler.name(),
                report.queries
            );
        }
    }

    #[test]
    fn metrics_account_for_slices_and_local_answers() {
        let mut db = figure5_server(3);
        let report = SliceCover::eager().crawl(&mut db).unwrap();
        // Eager preprocessing fetches all Σ Ui = 8 slices; A1 ∈ {1, 3}
        // (paper numbering) overflow.
        assert_eq!(report.metrics.slice_fetches, 8);
        assert_eq!(report.metrics.slice_overflows, 2);
        // Local answers: 2 root children (A1 = 2, 4) + 4 children of each
        // of the two recursed nodes = 10.
        assert_eq!(report.metrics.local_answers, 10);
        assert_eq!(
            report.metrics.leaf_subcrawls, 0,
            "pure categorical: point leaves"
        );
    }

    /// The leaf k-window cache, measured differentially in-tree: on a
    /// `cat = 1` mixed schema every overflowing level-0 slice spawns a
    /// rank-shrink leaf whose root *is* that slice, so caching the
    /// overflowed windows saves exactly one query per overflowing slice
    /// — with a bit-identical bag and otherwise identical traversal.
    /// (Multi-categorical schemas like the Yahoo/Adult stand-ins have
    /// multi-predicate leaf queries that are never slices: their delta
    /// is structurally zero, which
    /// `hybrid::tests::leaf_window_cache_is_inert_on_multi_categorical_real_datasets`
    /// pins on the real dataset generators.)
    #[test]
    fn leaf_window_cache_saves_one_query_per_overflowing_leaf_slice() {
        use crate::report::CrawlReport;
        use hdc_types::Value;

        let schema = Schema::builder()
            .categorical("c", 6)
            .numeric("x", 0, 999)
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..800u64)
            .map(|i| {
                let h = crate::theory::mix(i);
                Tuple::new(vec![
                    Value::Cat((h % 6) as u32),
                    Value::Int(((h >> 8) % 1000) as i64),
                ])
            })
            .collect();
        let run = |cache: bool| -> CrawlReport {
            let mut db = HiddenDbServer::new(
                schema.clone(),
                tuples.clone(),
                ServerConfig { k: 16, seed: 3 },
            )
            .unwrap();
            let rank = RankShrink::new();
            run_crawl("t", &mut db, None, SessionConfig::default(), |session| {
                let memo = SliceMemo::new(&schema);
                let mut table = SliceTable::new(&memo, &[0]);
                if cache {
                    table.cache_leaf_windows();
                }
                extended_dfs(
                    session,
                    &table,
                    &LeafMode::Numeric {
                        rank: &rank,
                        dims: &[1],
                    },
                )
            })
            .unwrap()
        };
        let old = run(false); // the pre-cache behavior, bit for bit
        let new = run(true);
        eprintln!(
            "cat=1 leaf-window delta: {} -> {} queries ({} overflowing leaf slices)",
            old.queries, new.queries, new.metrics.slice_overflows
        );
        let old_bag = TupleBag::from_tuples(old.tuples.clone());
        let new_bag = TupleBag::from_tuples(new.tuples.clone());
        assert!(old_bag.multiset_eq(&new_bag), "cache changed the bag");
        assert!(
            new.metrics.slice_overflows > 0,
            "instance must exercise overflowing leaf slices"
        );
        assert_eq!(
            old.queries,
            new.queries + new.metrics.slice_overflows,
            "exactly one query saved per overflowing leaf slice"
        );
        assert_eq!(
            new.metrics.slice_cache_hits,
            old.metrics.slice_cache_hits + new.metrics.slice_overflows,
            "each saved re-issue is tallied as a slice-cache hit"
        );
    }

    #[test]
    fn lazy_never_costs_more_than_eager() {
        for seed in 0..5u64 {
            let schema = Schema::builder()
                .categorical("a", 8)
                .categorical("b", 8)
                .build()
                .unwrap();
            // Bounded multiplicity (≤ 3 < k) so every instance is solvable.
            let tuples: Vec<Tuple> = (0..64u64)
                .flat_map(|p| {
                    let copies = crate::theory::mix(p * 31 + seed) % 4;
                    (0..copies).map(move |_| cat_tuple(&[(p % 8) as u32, (p / 8) as u32]))
                })
                .collect();
            let mut db_l =
                HiddenDbServer::new(schema.clone(), tuples.clone(), ServerConfig { k: 6, seed })
                    .unwrap();
            let mut db_e =
                HiddenDbServer::new(schema, tuples, ServerConfig { k: 6, seed }).unwrap();
            let lazy = SliceCover::lazy().crawl(&mut db_l).unwrap();
            let eager = SliceCover::eager().crawl(&mut db_e).unwrap();
            assert!(lazy.queries <= eager.queries, "seed {seed}");
        }
    }
}
