//! Multi-session (sharded) crawling: a plan of disjoint shards dealt to
//! client identities from one shared cursor.
//!
//! The paper's cost metric exists because "most systems have a control on
//! how many queries can be submitted by the same IP address within a
//! period of time" (§1.1). A crawler with access to several client
//! identities can therefore *partition* the data space and crawl the
//! parts concurrently, for wall-clock time and per-identity quota
//! headroom. The parts still make one crawl: every shard of a
//! [`CrawlBuilder::run_sharded`] crawl reads and fills one slice memo
//! (§3.2's lookup table), so no slice is paid for twice, whichever
//! shards need it.
//!
//! # Plans and shards
//!
//! A shard has one shape, [`ShardSpec`]: a categorical **level order**
//! and the disjoint **root** queries the shard owns. A root that pins a
//! prefix of the order is a node of the §5 hybrid's categorical tree,
//! crawled by extended DFS with rank-shrink at the numeric leaves; a
//! root that carries a range, or any root on a numeric-only schema, is
//! a box crawled by rank-shrink. A solo crawl is the one-shard case:
//! [`ShardSpec::whole`] keeps the schema order and roots every value of
//! the first categorical attribute (or the single [`Query::any`] box),
//! and [`crate::Hybrid`] and [`crate::SliceCover`] crawl exactly that
//! shard with the routine every plan shard uses.
//!
//! [`Sharded::plan_oversubscribed`] cuts the data space into disjoint
//! shards along one partition attribute:
//!
//! * schemas with **categorical** attributes partition on the one with
//!   the largest domain; its values are dealt round-robin across shards,
//!   one root per value. When the requested shard count exceeds the
//!   domain, each value is **sub-split** one level further — by the
//!   next-widest categorical attribute (roots pinning both values) or,
//!   failing that, by sub-ranges of the first numeric attribute (one box
//!   per shard);
//! * **numeric-only schemas** cut the first attribute's declared range
//!   into equal sub-ranges, one box per shard.
//!
//! Every shard's level order is the partition attribute, then the
//! sub-split attribute if there is one, then the remaining categorical
//! attributes in schema order. Shards cover disjoint subspaces, so
//! concatenating the per-shard bags reconstructs `D` exactly. A shard
//! travels by its [`ShardSpec::signature`], written with the wire's
//! predicate tokens; [`ShardSpec::parse_signature`] checks it against
//! the schema before anything crawls it. A checkpoint records its plan
//! as signatures, and a resume crawls that plan ([`Sharded::plan_for`]),
//! whatever its own session count.
//!
//! # Scheduling: identities ≠ shards
//!
//! [`CrawlBuilder::run_sharded`] is the one entry point to the shard cursor.
//! [`CrawlBuilder::sessions`]`(n)` fixes the number of client
//! *identities* (worker threads, each with its own connection from the
//! caller's [`Connector`]). The *plan* is deliberately finer:
//! [`CrawlBuilder::oversubscribe`]`(factor)` produces `≈ sessions × factor`
//! shards, dealt to the workers dynamically: a worker that finishes a
//! shard takes the next plan index from one shared atomic cursor. A
//! skew-heavy shard then no longer gates wall-clock: while one worker
//! grinds through the heavy subtree, the others take the rest of the
//! plan instead of idling. Shards never spawn shards, so a worker whose
//! cursor read runs past the plan's end is done. Workers line up after
//! connecting and yield between shards, which spreads the plan over the
//! identities on hosts with fewer cores than sessions. With `factor = 1`
//! (the default) the plan is one shard per session. One session at
//! factor 1 is the one-shard plan, [`ShardSpec::whole`], which
//! [`CrawlBuilder::run_sharded`] crawls with the strategy's own solo
//! crawler: a checkpointed or wire-carried one-session crawl costs
//! exactly what [`CrawlBuilder::run`] costs. A resume plans nothing: it
//! crawls its checkpoint's plan, so its session count sets only how
//! many identities share that plan. The cursor is the plan's
//! only executor: a one-session crawl, checkpointed or not, runs on one
//! worker.
//!
//! # Determinism contract
//!
//! Which worker runs which shard depends on timing and is **not**
//! deterministic. Everything the crawl *reports about the data* is:
//! each shard's traversal (and hence its extracted bag) depends only on
//! the shard spec and the database, never on the worker or the order
//! shards interleave, and the merged report concatenates shard results
//! **in plan order**.
//!
//! The shards share one slice memo, and which shard pays for a slice
//! several of them need depends on which asks first. So a shard's own
//! `queries`, and the split of its slice work between
//! `slice_fetches` and `slice_cache_hits`, are schedule-dependent; a
//! shard never costs more than it costs crawled alone. These stay
//! deterministic: the merged bag, every shard's bag, the merged cost and
//! the merged metrics. The merged cost is the number of *distinct*
//! queries the plan's shards issue crawled one by one, each on its own
//! memo: the repeats are all slices, because the other queries of
//! disjoint shards never coincide. The `sharded_steal` and
//! `builder_equiv` differential suites enforce this against a
//! query-logged sequential run of the same plan. Scheduling shows up
//! otherwise only in wall-clock, in the per-identity aggregation
//! ([`ShardedReport::per_session`]), and in the [`ShardedReport::pool`]
//! counters.
//!
//! A resumed crawl starts with an empty memo, so it may pay again for a
//! slice a banked shard had fetched: at most the banked shards'
//! `slice_fetches` more than the uninterrupted crawl. The fleet
//! ([`ShardSpec::crawl_with`] per leased shard) keeps a private memo per
//! shard, so a drained fleet's cost does not depend on which worker
//! leased which shard.
//!
//! # Failure semantics
//!
//! A shard failing with a permanent [`CrawlError::Db`] retires its
//! worker (that identity's quota is spent; issuing one doomed query per
//! remaining shard would be waste), and so do [`TRANSIENT_STRIKES`]
//! consecutive shards failing with a transient one that outlived the
//! retry policy. The surviving identities take the rest of the plan
//! from the cursor, so every shard a crippled session had not yet taken
//! is still crawled. The shards it failed on are *not* re-dealt: each
//! keeps the partial its failing session paid for, and the rest of its
//! subtree stays uncrawled in this run (a checkpointed resume crawls it).
//! [`CrawlError::Unsolvable`] does *not* retire the worker (the
//! connection is fine; the data is not), and every other shard is still
//! crawled. If every identity retires, the shards nobody took are never
//! run ([`PoolStats::unrun`]). Either way the first failure (in plan
//! order) is re-raised carrying the merged partial report. A
//! [`Connector`] that panics still lets its worker reach the start
//! line, so no peer waits there forever: the peers take no shard, and
//! the panic propagates out of [`CrawlBuilder::run_sharded`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};

use hdc_types::{AttrKind, Budgeted, DbError, HiddenDatabase, Predicate, Query, Schema};

use crate::categorical::slice_cover::{
    extended_dfs_from, DfsRoot, LeafMode, SliceMemo, SliceTable,
};
use crate::connector::Connector;
use crate::dependency::ValidityOracle;
use crate::events::{ChannelObserver, EventSink, SessionEvent, EVENT_CHANNEL_CAPACITY};
use crate::numeric::rank_shrink::RankShrink;
use crate::orchestrate::{CancelToken, CrawlBuilder, CrawlObserver, Flow, ShardEvent};
use crate::report::{CrawlError, CrawlReport, ProgressPoint};
use crate::repository::{CrawlCheckpoint, CrawlRepository, ShardSnapshot};
use crate::retry::RetryPolicy;
use crate::session::{run_crawl, Abort, Session, SessionConfig};

/// One shard of a plan: the categorical **level order** its extended
/// DFS walks, and the disjoint **root** queries it owns.
///
/// Each root is crawled by the solo algorithm's own subtree routine:
///
/// * a root that pins `order[0..=L]` and nothing else is a child of the
///   shard's shared prefix, the node pinning `order[0..L]`; the roots'
///   values at `order[L]` are expanded by extended DFS on one slice
///   table in the shard's level order;
/// * a root that carries a range, or lives in a schema with no
///   categorical attributes, is a box that rank-shrink crawls.
///
/// A shard's roots are all of one kind, and categorical roots share one
/// prefix. [`ShardSpec::parse_signature`] checks this, and everything
/// else a crawl relies on, against the schema. A solo crawl is the
/// one-shard case, [`ShardSpec::whole`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// The categorical attributes in tree-level order.
    order: Vec<usize>,
    /// The owned subtrees, pairwise disjoint, in crawl order.
    roots: Vec<Query>,
}

impl ShardSpec {
    /// The whole data space as one shard: the categorical attributes in
    /// schema order, rooted at every value of the first — or, on a
    /// numeric-only schema, the single [`Query::any`] box. Crawling it is
    /// the solo hybrid crawl.
    pub fn whole(schema: &Schema) -> ShardSpec {
        let order = schema.cat_indices();
        let roots = match order.first() {
            Some(&first) => (0..domain(schema, first))
                .map(|v| Query::any(schema.arity()).with_pred(first, Predicate::Eq(v)))
                .collect(),
            None => vec![Query::any(schema.arity())],
        };
        ShardSpec { order, roots }
    }

    /// The shard with the given level order and roots, checked against
    /// `schema` by the rules [`ShardSpec::parse_signature`] states. The
    /// error names the first violation.
    fn checked(schema: &Schema, order: Vec<usize>, roots: Vec<Query>) -> Result<ShardSpec, String> {
        let mut levels = order.clone();
        levels.sort_unstable();
        if levels != schema.cat_indices() {
            return Err(format!(
                "level order {order:?} is not a permutation of the categorical attributes"
            ));
        }
        let spec = ShardSpec { order, roots };
        for root in &spec.roots {
            root.validate(schema)
                .map_err(|e| format!("root {root}: {e}"))?;
            for (attr, &p) in root.preds().iter().enumerate() {
                if let (Predicate::Range { lo, hi }, AttrKind::Numeric { min, max }) =
                    (p, schema.kind(attr))
                {
                    if lo > hi || lo < min || hi > max {
                        return Err(format!(
                            "root {root}: range {lo}..{hi} is not inside [{min}, {max}]"
                        ));
                    }
                }
            }
        }
        let boxes = spec.roots.iter().filter(|r| spec.is_box(r)).count();
        if boxes == 0 {
            // Roots under one prefix are disjoint iff their last pinned
            // values differ.
            let mut shared = None;
            let mut values = Vec::with_capacity(spec.roots.len());
            for root in &spec.roots {
                let (level, prefix) = spec.start_of(root).ok_or_else(|| {
                    format!("root {root} does not pin a prefix of the level order")
                })?;
                if shared.get_or_insert_with(|| (level, prefix.clone())) != &(level, prefix) {
                    return Err(format!("root {root} does not share the shard's prefix"));
                }
                values.push(eq_value(root, spec.order[level]));
            }
            values.sort_unstable();
            if let Some(twice) = values.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!("two roots pin value {}", twice[0]));
            }
        } else if boxes != spec.roots.len() {
            return Err("the shard mixes categorical roots and boxes".to_string());
        } else {
            // Pairwise: plans give a shard at most one box.
            for (i, a) in spec.roots.iter().enumerate() {
                if let Some(b) = spec.roots[i + 1..].iter().find(|b| !a.is_disjoint(b)) {
                    return Err(format!("roots {a} and {b} overlap"));
                }
            }
        }
        Ok(spec)
    }

    /// The shard's roots: disjoint queries, one per owned subtree, which
    /// together cover exactly the shard's share of the data space.
    pub fn queries(&self) -> &[Query] {
        &self.roots
    }

    /// Whether `root` is a rank-shrink box rather than an extended-DFS
    /// child.
    fn is_box(&self, root: &Query) -> bool {
        self.order.is_empty()
            || root
                .preds()
                .iter()
                .any(|p| matches!(p, Predicate::Range { .. }))
    }

    /// Where extended DFS starts for a categorical root that pins
    /// `order[0..=L]` and nothing else: the level `L` and the prefix node
    /// pinning `order[0..L]`. `None` for any other root.
    fn start_of(&self, root: &Query) -> Option<(usize, Query)> {
        let pinned = root.constrained_count();
        let levels = self.order.get(..pinned).filter(|l| !l.is_empty())?;
        if !levels
            .iter()
            .all(|&a| matches!(root.pred(a), Predicate::Eq(_)))
        {
            return None;
        }
        let level = pinned - 1;
        Some((level, root.with_pred(levels[level], Predicate::Any)))
    }

    /// A canonical, stable string naming exactly this shard's share of
    /// the data space. Two plans cut the same way produce the same
    /// signature sequence. Checkpoints embed it, and a resume reads its
    /// plan from it ([`Sharded::plan_for`]).
    ///
    /// The format is the level order, `/`, then the roots separated by
    /// `;`. A root lists its pinned predicates separated by `&`, each
    /// written `attr:token` with the wire's [`Predicate::token`]; a root
    /// that pins nothing is `*`. So `2,0,1/2:=0;2:=16` owns the subtrees
    /// `A2 = 0` and `A2 = 16` under the level order 2, 0, 1, and
    /// `/0:0..24` is one rank-shrink box on a numeric-only schema.
    /// Signatures never contain `"`, `\` or whitespace.
    pub fn signature(&self) -> String {
        let order: Vec<String> = self.order.iter().map(usize::to_string).collect();
        let roots: Vec<String> = self
            .roots
            .iter()
            .map(|root| {
                let pinned: Vec<String> = root
                    .preds()
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| !p.is_any())
                    .map(|(attr, p)| format!("{attr}:{}", p.token()))
                    .collect();
                if pinned.is_empty() {
                    "*".to_string()
                } else {
                    pinned.join("&")
                }
            })
            .collect();
        format!("{}/{}", order.join(","), roots.join(";"))
    }

    /// Parses a [`ShardSpec::signature`] back into the spec — the wire
    /// half of the distributed protocol: a lease coordinator hands out
    /// shards *by signature* (the canonical name is the only thing that
    /// crosses the wire), and the worker reconstructs the spec to crawl
    /// it. Round-trips exactly: `parse_signature(&s.signature(), schema)
    /// == Ok(s)` for every plan shard.
    ///
    /// A signature is outside input, so it is checked against `schema`
    /// before anything crawls it: the order must be a permutation of the
    /// categorical attributes; every root must pass [`Query::validate`]
    /// and keep its ranges inside the attribute's declared bounds (and
    /// not inverted); the roots must be all categorical or all boxes;
    /// categorical roots must each pin a prefix of the order, all of one
    /// length and sharing all but the last value; and the roots must be
    /// disjoint. Anything else, including a signature in another format,
    /// is an error naming the problem.
    pub fn parse_signature(sig: &str, schema: &Schema) -> Result<ShardSpec, String> {
        let (order, roots) = sig
            .split_once('/')
            .ok_or("no '/' between the level order and the roots")?;
        let order = split_nonempty(order, ',')
            .map(|a| a.parse().map_err(|_| format!("bad level {a:?}")))
            .collect::<Result<Vec<usize>, String>>()?;
        let roots = split_nonempty(roots, ';')
            .map(|root| parse_root(root, schema))
            .collect::<Result<Vec<Query>, String>>()?;
        ShardSpec::checked(schema, order, roots)
    }

    /// Crawls this shard on `db`, which must view the same logical
    /// database the plan was made for: [`ShardSpec::crawl_with`] under
    /// the default config, without a resume callback.
    ///
    /// The query sequence depends only on the spec and the database —
    /// not on what else ran on the connection — so a shard can be
    /// crawled on any session, in any order, even on another machine,
    /// and still produce exactly the result the plan promises. Truly
    /// distributed callers can drive shards through this method
    /// directly; each crawl has a private slice memo.
    pub fn crawl(
        &self,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
    ) -> Result<CrawlReport, CrawlError> {
        self.crawl_with(db, schema, None, SessionConfig::default(), None)
    }

    /// Crawls this shard under `config` (retry policy, cancellation,
    /// events), pruning with `oracle` if given: queries it proves empty
    /// are answered locally, free of charge (§1.3). The crawl has a
    /// private slice memo, shared with no other shard; the fleet worker
    /// crawls every leased shard this way, while
    /// [`CrawlBuilder::run_sharded`] shares one memo across its shards.
    /// Retries do not change the charged query sequence (a transient
    /// failure charges nothing, and the deterministic server answers the
    /// re-issued query exactly as it would have answered the original),
    /// so the determinism contract holds under faults too.
    ///
    /// With a **resume boundary callback** `on_root`, the roots are
    /// crawled one at a time — categorical ones on a *shared* slice
    /// table and session — and `on_root(done, interim)` fires after each
    /// completed root with the session's point-in-time report. A caller
    /// banks those interims as partial [`ShardSnapshot`]s (`frontier =
    /// done`): a crash mid-shard then replays only the suffix
    /// `resume_suffix(done)` instead of the whole shard. A one-root
    /// shard, such as every numeric shard of a plan, fires once, at its
    /// end.
    ///
    /// Equivalence: each child of the shared prefix is crawled exactly
    /// once either way, and the slices it needs come through the
    /// (shared, memoizing) slice table whether the roots are expanded in
    /// one call or one at a time. The charged query multiset, total
    /// cost, tallies, metrics, and extracted **bag** (as a multiset) are
    /// therefore exactly the one-call crawl's; only database batch
    /// grouping and the interleaving of resolved root slices with
    /// sibling subtrees can differ, neither of which the cost model or
    /// the bag observes. The differential test
    /// `fleet_equiv::resumable_crawl_matches_one_call` pins this. Boxes
    /// share nothing, so crawling them one at a time changes nothing.
    ///
    /// Without `on_root` the categorical roots are expanded in one call,
    /// because only then can a database batch span several roots. The
    /// batch grouping is what the wire pays for: on the benchmark's
    /// `wire_skewed` workload (2 sessions over loopback HTTP, 82-shard
    /// Adult plan, shared 2-core x86-64 Linux host, 10 runs each) the
    /// per-root body raised the median crawl wall time by ~36% and cut
    /// charged queries per second by ~23% at the same charged cost.
    pub fn crawl_with(
        &self,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
        oracle: Option<&dyn ValidityOracle>,
        config: SessionConfig<'_>,
        on_root: Option<&mut OnRoot<'_>>,
    ) -> Result<CrawlReport, CrawlError> {
        let memo = SliceMemo::new(schema);
        self.crawl_on(&memo, db, schema, oracle, config, on_root)
    }

    /// [`ShardSpec::crawl_with`] on `memo`, the slice memo of the crawl
    /// this shard belongs to: a slice any shard sharing the memo has
    /// fetched, or is fetching, is not issued again.
    pub(crate) fn crawl_on(
        &self,
        memo: &SliceMemo,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
        oracle: Option<&dyn ValidityOracle>,
        config: SessionConfig<'_>,
        on_root: Option<&mut OnRoot<'_>>,
    ) -> Result<CrawlReport, CrawlError> {
        run_crawl("sharded-hybrid", db, oracle, config, |session| {
            self.run(session, schema, memo, false, on_root)
        })
    }

    /// The §5 hybrid's one routine, behind every crawl of the hybrid
    /// family: solo [`crate::Hybrid`] and [`crate::SliceCover`] run it on
    /// [`ShardSpec::whole`], and every plan shard runs it on its own
    /// spec. Boxes go to rank-shrink one by one; categorical roots go to
    /// extended DFS on a slice table over `memo` in the shard's level
    /// order, with rank-shrink at the numeric leaves. `eager` runs
    /// slice-cover's preprocessing phase on that table first.
    pub(crate) fn run(
        &self,
        session: &mut Session<'_>,
        schema: &Schema,
        memo: &SliceMemo,
        eager: bool,
        mut on_root: Option<&mut OnRoot<'_>>,
    ) -> Result<(), Abort> {
        let num_dims = schema.num_indices();
        let rank = RankShrink::new();
        let start = self.roots.first().filter(|r| !self.is_box(r));
        let Some((level, prefix)) = start.and_then(|r| self.start_of(r)) else {
            for (done, root) in self.roots.iter().enumerate() {
                rank.run_subspace(session, root.clone(), &num_dims)?;
                if let Some(on_root) = on_root.as_deref_mut() {
                    on_root(done as u64 + 1, &session.interim_report());
                }
            }
            return Ok(());
        };
        let mut table = SliceTable::new(memo, &self.order);
        if !num_dims.is_empty() && self.order.len() == 1 {
            // cat = 1: a numeric leaf's root is its slice query — cache
            // the overflowed leaf windows so the sub-crawl needn't
            // re-issue them.
            table.cache_leaf_windows();
        }
        if eager {
            table.prefetch_all(session)?;
        }
        let leaf = if num_dims.is_empty() {
            LeafMode::Point
        } else {
            LeafMode::Numeric {
                rank: &rank,
                dims: &num_dims,
            }
        };
        let attr = self.order[level];
        let Some(on_root) = on_root else {
            let mut values: Vec<u32> = self.roots.iter().map(|r| eq_value(r, attr)).collect();
            values.sort_unstable();
            return extended_dfs_from(
                session,
                &table,
                &leaf,
                DfsRoot {
                    query: prefix,
                    level,
                    values,
                },
            );
        };
        for (done, root) in self.roots.iter().enumerate() {
            extended_dfs_from(
                session,
                &table,
                &leaf,
                DfsRoot {
                    query: prefix.clone(),
                    level,
                    values: vec![eq_value(root, attr)],
                },
            )?;
            on_root(done as u64 + 1, &session.interim_report());
        }
        Ok(())
    }
}

/// The value a categorical root pins on its level attribute `attr`.
fn eq_value(root: &Query, attr: usize) -> u32 {
    match root.pred(attr) {
        Predicate::Eq(v) => v,
        other => unreachable!("a categorical root pins its level, not {other}"),
    }
}

/// The parts of `text` between `sep`s; none for an empty `text`.
fn split_nonempty(text: &str, sep: char) -> impl Iterator<Item = &str> {
    text.split(sep).filter(move |_| !text.is_empty())
}

/// Parses one root of a [`ShardSpec::signature`]: `*`, or pinned
/// predicates `attr:token` joined by `&`, each attribute at most once.
fn parse_root(text: &str, schema: &Schema) -> Result<Query, String> {
    let mut root = Query::any(schema.arity());
    if text == "*" {
        return Ok(root);
    }
    for pred in text.split('&') {
        let (attr, token) = pred
            .split_once(':')
            .ok_or_else(|| format!("bad root predicate {pred:?}"))?;
        let attr: usize = attr
            .parse()
            .ok()
            .filter(|&a| a < schema.arity())
            .ok_or_else(|| format!("bad attribute in root predicate {pred:?}"))?;
        let p = Predicate::parse_token(token)?;
        if p.is_any() || !root.pred(attr).is_any() {
            return Err(format!("root {text:?} pins attribute {attr} twice or as *"));
        }
        root = root.with_pred(attr, p);
    }
    Ok(root)
}

/// A resume-boundary callback for [`ShardSpec::crawl_with`]: fired with
/// the number of completed roots and the session's interim report.
pub type OnRoot<'a> = dyn FnMut(u64, &CrawlReport) + 'a;

/// Mid-flight checkpoints: a shard can bank its progress at
/// crawler-defined boundaries, so a crash replays only the
/// un-checkpointed suffix.
///
/// The boundary is a *root*: a shard's roots partition its bag, and the
/// crawl visits them in order — so "the first `c` roots are done" is a
/// complete description of a prefix, and the remaining work is exactly
/// the shard made of the remaining roots. A rank-shrink box has no finer
/// static boundary, so a one-root numeric shard resumes only at its end.
///
/// The contract tying this to [`ShardSnapshot::frontier`]
/// (`frontier = Some(c)`):
///
/// * the partial snapshot's tuples and accounting describe exactly the
///   first `c` roots (what [`ShardSpec::crawl_with`]'s resume callback
///   observed);
/// * `resume_suffix(c)` is a spec whose crawl produces exactly the
///   rest: prefix + suffix tuples concatenated = the whole shard's bag
///   as a multiset. Cost is *nearly* additive: the suffix crawl's fresh
///   slice table may re-fetch slices the prefix shared with it, but it
///   never re-pays a prefix root's own slice, so resuming always
///   charges strictly fewer queries than redoing the whole shard (the
///   `fleet_equiv` suite enforces both properties).
impl ShardSpec {
    /// How many resume boundaries this shard has: one per root.
    pub fn resume_points(&self) -> usize {
        self.roots.len()
    }

    /// The shard covering everything after the first `cursor` completed
    /// roots, or `None` for an out-of-range cursor. `resume_suffix(0)`
    /// is the whole shard (modulo being a fresh value).
    pub fn resume_suffix(&self, cursor: usize) -> Option<ShardSpec> {
        Some(ShardSpec {
            order: self.order.clone(),
            roots: self.roots.get(cursor..)?.to_vec(),
        })
    }
}

/// The categorical attribute with the largest domain among `attrs` (the
/// last of them on a tie).
fn widest(schema: &Schema, attrs: impl Iterator<Item = usize>) -> Option<usize> {
    attrs.max_by_key(|&a| domain(schema, a))
}

/// Domain size of the categorical attribute `attr`.
fn domain(schema: &Schema, attr: usize) -> u32 {
    schema.kind(attr).domain_size().expect("categorical")
}

/// One executed shard: where it ran, how long it took, what it cost.
#[derive(Debug)]
pub struct ShardRun {
    /// The shard's spec (position in [`ShardedReport::shards`] = position
    /// in the plan).
    pub spec: ShardSpec,
    /// The worker (client identity) that took the shard from the cursor
    /// and crawled it.
    pub worker: usize,
    /// Wall time of this shard's crawl.
    pub wall: Duration,
    /// Tuples this shard extracted. The tuples themselves live in the
    /// merged report (moved there, not cloned); this count is what
    /// remains per shard.
    pub tuples: u64,
    /// Whether this shard's crawl failed (its `report` is then the
    /// failure's partial).
    pub failed: bool,
    /// Whether this shard was replayed from a checkpoint instead of
    /// crawled: its accounting comes from the snapshot (it charged its
    /// queries in the run that produced the checkpoint, not in this one)
    /// and its `worker`/`wall` are placeholders.
    pub restored: bool,
    /// The shard's crawl report — full accounting and progress curve,
    /// with `tuples` drained into the merged report.
    pub report: CrawlReport,
}

/// Result of a sharded crawl.
#[derive(Debug)]
pub struct ShardedReport {
    /// The union of all shards' extractions (exactly `D` on success),
    /// concatenated in plan order.
    pub merged: CrawlReport,
    /// Per-identity aggregates, indexed by session: every counter of
    /// every shard the identity executed, summed. Tuples and progress
    /// live elsewhere (the bag in `merged`, per-shard curves in
    /// `shards`), so `tuples`/`progress` are empty here.
    pub per_session: Vec<CrawlReport>,
    /// Every executed shard, in plan order.
    pub shards: Vec<ShardRun>,
    /// Scheduler counters: per-worker executed counts, busy time and
    /// retirement, and the run's wall clock.
    pub pool: PoolStats,
}

impl ShardedReport {
    /// The largest single-identity query count — the quota- and
    /// wall-clock-limiting session when queries are metered per client
    /// identity.
    pub fn max_session_queries(&self) -> u64 {
        self.per_session
            .iter()
            .map(|r| r.queries)
            .max()
            .unwrap_or(0)
    }
}

/// One worker's counters in a sharded run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Shards this worker took from the cursor and crawled.
    pub executed: u64,
    /// Wall time spent crawling shards.
    pub busy: Duration,
    /// Whether the worker's identity retired before the plan ran out.
    pub retired: bool,
}

/// The scheduler counters of one sharded run.
#[derive(Clone, Debug)]
pub struct PoolStats {
    /// Worker count of the run: one per session.
    pub workers: usize,
    /// Wall time of the whole run (spawn to last join).
    pub wall: Duration,
    /// Per-worker counters, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Shards never run: every identity retired, or the halt token was
    /// cancelled, before a worker took them.
    pub unrun: usize,
    /// Whether the halt token was cancelled when the run finished.
    pub cancelled: bool,
}

impl PoolStats {
    /// Always 0: workers take shards from one shared cursor, so no shard
    /// is ever stolen. Kept only because the benchmark's `core.steals`
    /// column reads it; both go together.
    pub fn steals(&self) -> u64 {
        0
    }

    /// Total shards executed across all workers.
    pub fn executed(&self) -> u64 {
        self.per_worker.iter().map(|w| w.executed).sum()
    }

    /// Wall time worker `w` spent *not* crawling: connecting, waiting
    /// at the start line, or finished early. High idle on some workers
    /// with low idle on others is the signature of imbalance.
    pub fn idle(&self, w: usize) -> Duration {
        self.wall.saturating_sub(self.per_worker[w].busy)
    }
}

/// The shard planner: cuts a schema's data space into disjoint covering
/// [`ShardSpec`]s. The plans run on the shard cursor through
/// [`CrawlBuilder::run_sharded`]; distributed callers hand them out by
/// [`ShardSpec::signature`] and crawl each with [`ShardSpec::crawl`].
#[derive(Debug)]
pub struct Sharded;

/// How many *consecutive* shards may fail with a transient error (after
/// exhausting their session's retries) before the identity is considered
/// unhealthy and retired from the crawl. A permanent database error still
/// retires the worker immediately; a successful shard resets the count.
pub const TRANSIENT_STRIKES: u32 = 2;

impl Sharded {
    /// Plans the disjoint covering shards for a schema, one per session
    /// (`plan_oversubscribed` with factor 1).
    pub fn plan(schema: &Schema, sessions: usize) -> Vec<ShardSpec> {
        Self::plan_oversubscribed(schema, sessions, 1)
    }

    /// Plans `≈ sessions × factor` disjoint covering shards.
    ///
    /// One session at factor 1 is the one-shard plan,
    /// `vec![ShardSpec::whole(schema)]`: the solo crawl, whose cost does
    /// not depend on whether it is checkpointed or which transport
    /// carries it. Every other plan partitions the space as follows.
    ///
    /// Schemas with categorical attributes partition on the one with the
    /// largest domain, dealing values round-robin (value `v` → shard
    /// `v mod shards`) to balance skewed domains better than contiguous
    /// chunks; since `sessions` divides the shard count, the fine plan
    /// *refines* the factor-1 plan — shards `j ≡ w (mod sessions)`
    /// jointly own exactly the values of the factor-1 plan's shard `w`.
    /// (Which identity *executes* which fine shard is the scheduler's
    /// dynamic choice; only the partition structure is conformal.)
    /// When the domain has fewer values than the requested shard
    /// count, each value is sub-split by the next-widest categorical
    /// attribute, or by sub-ranges of the first numeric attribute, or —
    /// for single-attribute categorical schemas, where no finer
    /// partition exists — kept as one shard per value. Numeric-only
    /// schemas split the first attribute's declared range evenly.
    /// Shards may be empty (no roots) when the requested count exceeds
    /// the domain.
    ///
    /// Every shard's level order is the partition attribute, then the
    /// sub-split attribute if there is one, then the remaining
    /// categorical attributes in schema order.
    pub fn plan_oversubscribed(schema: &Schema, sessions: usize, factor: usize) -> Vec<ShardSpec> {
        assert!(sessions >= 1);
        assert!(factor >= 1);
        let target = sessions.saturating_mul(factor);
        if target == 1 {
            return vec![ShardSpec::whole(schema)];
        }
        let cats = schema.cat_indices();
        let any = Query::any(schema.arity());
        let shard = |order: &[usize], roots: Vec<Query>| ShardSpec {
            order: order
                .iter()
                .chain(cats.iter().filter(|a| !order.contains(a)))
                .copied()
                .collect(),
            roots,
        };
        let ranges = |attr: usize, parts: usize, node: &Query| -> Vec<Vec<Query>> {
            let AttrKind::Numeric { min, max } = schema.kind(attr) else {
                unreachable!("ranges split numeric attributes")
            };
            split_range(min, max, parts)
                .into_iter()
                .map(|r| {
                    r.map(|(lo, hi)| node.with_pred(attr, Predicate::Range { lo, hi }))
                        .into_iter()
                        .collect()
                })
                .collect()
        };
        let Some(attr) = widest(schema, cats.iter().copied()) else {
            // Numeric-only schema: equal sub-ranges of the first attribute.
            return ranges(0, target, &any)
                .into_iter()
                .map(|roots| shard(&[], roots))
                .collect();
        };
        let size = domain(schema, attr);
        let pin = |value: u32| any.with_pred(attr, Predicate::Eq(value));
        if size as usize >= target || factor == 1 {
            // Enough values to deal one subtree set per shard (factor 1
            // keeps the historical shape even when values run short:
            // `sessions` shards, some possibly empty).
            let mut shards = vec![shard(&[attr], Vec::new()); target];
            for v in 0..size {
                shards[(v as usize) % target].roots.push(pin(v));
            }
            return shards;
        }
        // Fewer values than requested shards: sub-split every value.
        let per_value = target.div_ceil(size as usize);
        let mut shards = Vec::new();
        if let Some(sub_attr) = widest(schema, cats.iter().copied().filter(|&a| a != attr)) {
            let sub_size = domain(schema, sub_attr);
            let pieces = per_value.min(sub_size as usize);
            for value in 0..size {
                let mut group = vec![shard(&[attr, sub_attr], Vec::new()); pieces];
                for w in 0..sub_size {
                    group[(w as usize) % pieces]
                        .roots
                        .push(pin(value).with_pred(sub_attr, Predicate::Eq(w)));
                }
                shards.extend(group);
            }
        } else if let Some(&num_attr) = schema.num_indices().first() {
            for value in 0..size {
                for roots in ranges(num_attr, per_value, &pin(value)) {
                    shards.push(shard(&[attr], roots));
                }
            }
        } else {
            // Single categorical attribute: one value per shard is the
            // finest partition that exists.
            shards.extend((0..size).map(|value| shard(&[attr], vec![pin(value)])));
        }
        shards
    }

    /// The plan a sharded crawl crawls: the `saved` checkpoint's, which
    /// a resume reads back whatever its own session count, else a fresh
    /// [`Sharded::plan_oversubscribed`] plan. Each saved signature is
    /// parsed against `schema` ([`ShardSpec::parse_signature`]), the
    /// roots must tile the schema's data space, as every plan the
    /// planner makes does, and every snapshot must index into the plan.
    /// The error names the first violation.
    pub fn plan_for(
        schema: &Schema,
        saved: Option<&CrawlCheckpoint>,
        sessions: usize,
        factor: usize,
    ) -> Result<Vec<ShardSpec>, String> {
        let Some(checkpoint) = saved else {
            return Ok(Self::plan_oversubscribed(schema, sessions, factor));
        };
        let plan = checkpoint
            .plan
            .iter()
            .enumerate()
            .map(|(i, sig)| {
                ShardSpec::parse_signature(sig, schema)
                    .map_err(|e| format!("checkpoint shard {i} {sig:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let roots: Vec<&Query> = plan.iter().flat_map(|s| &s.roots).collect();
        if !tiles(schema, &roots, 0) {
            return Err("the checkpoint's plan does not partition this schema's data space".into());
        }
        match checkpoint.shards.iter().find(|s| s.index >= plan.len()) {
            Some(s) => Err(format!("checkpoint snapshot index {} out of plan", s.index)),
            None => Ok(plan),
        }
    }
}

/// Whether `roots` partition the space left after attributes `..attr`:
/// on each attribute in turn, either every root is [`Predicate::Any`],
/// or the roots' distinct values or ranges abut end to end over the
/// attribute's whole domain, each group tiling the rest in turn, down
/// to one root per cell. Every planner-made plan is such a grid.
fn tiles(schema: &Schema, roots: &[&Query], attr: usize) -> bool {
    if attr == schema.arity() {
        return roots.len() == 1;
    }
    if roots.iter().all(|r| r.pred(attr).is_any()) {
        return tiles(schema, roots, attr + 1);
    }
    let mut groups: std::collections::BTreeMap<(i64, i64), Vec<&Query>> = Default::default();
    for &root in roots {
        let span = match root.pred(attr) {
            Predicate::Any => return false,
            Predicate::Eq(v) => (i64::from(v), i64::from(v)),
            Predicate::Range { lo, hi } => (lo, hi),
        };
        groups.entry(span).or_default().push(root);
    }
    let (min, max) = match schema.kind(attr) {
        AttrKind::Categorical { size } => (0, i64::from(size) - 1),
        AttrKind::Numeric { min, max } => (min, max),
    };
    let mut next = i128::from(min);
    for ((lo, hi), group) in groups {
        if i128::from(lo) != next || !tiles(schema, &group, attr + 1) {
            return false;
        }
        next = i128::from(hi) + 1;
    }
    next == i128::from(max) + 1
}

impl CrawlBuilder<'_> {
    /// The shard executor behind [`CrawlBuilder::run_sharded`]: plans the
    /// crawl (the repository's checkpoint, else `schema`'s oversubscribed
    /// plan) and runs it across the builder's sessions, with its retry
    /// policy, per-identity budget, observer, cancel token, and
    /// repository. `shard_crawl` sees the plan before any query is
    /// charged and returns the routine that crawls one shard; that
    /// routine's query sequence may depend only on the shard spec and
    /// the database, never on the worker or what ran before on the
    /// connection (the determinism contract in the module docs).
    pub(crate) fn run_pool<'g, C: Connector>(
        self,
        schema: &Schema,
        connector: C,
        shard_crawl: impl FnOnce(&[ShardSpec]) -> Box<ShardCrawl<'g>>,
    ) -> Result<ShardedReport, CrawlError> {
        let internal_halt = CancelToken::new();
        let run = ShardedRun::prepare(
            schema,
            self.sessions,
            self.oversubscribe,
            self.retry,
            self.cancel.unwrap_or(&internal_halt),
            self.repository,
        )?;
        let shard_crawl = shard_crawl(&run.plan);
        let mut observer = self.observer;
        let (slots, stats) = match self.budget {
            // Per-identity quota: each connection carries its own
            // allowance, matching how real sites meter queries (§1.1).
            Some(limit) => run.execute(
                |s| Budgeted::new(connector.connect(s), limit),
                &*shard_crawl,
                observer.as_deref_mut(),
            ),
            None => run.execute(connector, &*shard_crawl, observer.as_deref_mut()),
        };
        run.finish(slots, stats, observer)
    }
}

/// One shard's crawl as a worker runs it: the shard on one connection,
/// under the [`SessionConfig`] the worker hands it (the crawl's retry
/// policy, halt token, and the shard's event route).
pub(crate) type ShardCrawl<'g> = dyn Fn(&ShardSpec, &mut dyn HiddenDatabase, SessionConfig<'_>) -> Result<CrawlReport, CrawlError>
    + Sync
    + 'g;

/// One sharded crawl from plan to merge: planning, checkpoint restore,
/// the workers that take shards from the cursor on their own connections
/// with the event channel that carries their events to the observer, the
/// per-shard run with its identity-health check and journal write, and
/// the reassembly for the merge.
struct ShardedRun<'h, 'r> {
    sessions: usize,
    retry: RetryPolicy,
    plan: Vec<ShardSpec>,
    /// Snapshotted shards, replayed without a query.
    restored: Vec<Option<ShardSnapshot>>,
    /// The halt flag: the caller's token when provided (so external
    /// cancellation reaches every session), else an internal one (so a
    /// Stopped shard still halts its in-flight peers).
    halt: &'h CancelToken,
    /// Checkpoint journal: each completed shard appends its snapshot and
    /// stores the accumulated state, serialized by the mutex.
    journal: Option<Mutex<(&'r mut dyn CrawlRepository, CrawlCheckpoint)>>,
    /// Store failures are latched, never panicked — the crawl itself is
    /// healthy, only resumability is degraded — and surfaced once at the
    /// end.
    store_error: Mutex<Option<std::io::Error>>,
}

impl<'h, 'r> ShardedRun<'h, 'r> {
    /// Plans the crawl: with a repository that holds a checkpoint, the
    /// checkpoint's own plan with its banked shards restored; otherwise
    /// a fresh `sessions × oversubscribe` plan.
    fn prepare(
        schema: &Schema,
        sessions: usize,
        oversubscribe: usize,
        retry: RetryPolicy,
        halt: &'h CancelToken,
        mut repository: Option<&'r mut dyn CrawlRepository>,
    ) -> Result<Self, CrawlError> {
        // A checkpoint that cannot be resumed is a typed, recoverable
        // error, raised before any query and leaving the file as it was.
        let failed = |error: String| CrawlError::Db {
            error: DbError::Backend(error),
            partial: Box::new(CrawlReport::empty("sharded-hybrid")),
        };
        let saved = match repository.as_deref_mut().map(|repo| repo.load()) {
            Some(Err(e)) => return Err(failed(format!("checkpoint load failed: {e}"))),
            Some(Ok(saved)) => saved,
            None => None,
        };
        let plan =
            Sharded::plan_for(schema, saved.as_ref(), sessions, oversubscribe).map_err(failed)?;
        let mut restored: Vec<Option<ShardSnapshot>> = vec![None; plan.len()];
        // Partial (frontier-bearing) snapshots belong to the lease
        // coordinator's salvage path; a whole-plan resume re-crawls such
        // shards from scratch, which is always correct.
        let banked = saved.into_iter().flat_map(|checkpoint| checkpoint.shards);
        for snap in banked.filter(ShardSnapshot::is_complete) {
            let index = snap.index;
            restored[index] = Some(snap);
        }
        let journal = repository.map(|repo| {
            let seeded = CrawlCheckpoint {
                plan: plan.iter().map(ShardSpec::signature).collect(),
                shards: restored.iter().flatten().cloned().collect(),
            };
            Mutex::new((repo, seeded))
        });
        Ok(ShardedRun {
            sessions,
            retry,
            plan,
            restored,
            halt,
            journal,
            store_error: Mutex::new(None),
        })
    }

    /// Runs the shards left to crawl, one worker thread per session,
    /// each owning the connection `connector` mints for it. Every worker
    /// takes the next plan index from one shared cursor until the plan
    /// runs out, its identity retires, or the halt token is cancelled.
    /// With an observer, every shard session's events stream live
    /// through a bounded channel into a [`Relay`] on this thread.
    /// Returns one slot per plan index, `None` where no shard ran.
    fn execute<C: Connector>(
        &self,
        connector: C,
        shard_crawl: &ShardCrawl<'_>,
        observer: Option<&mut (dyn CrawlObserver + '_)>,
    ) -> (Vec<Option<PendingRun>>, PoolStats) {
        let tasks: Vec<usize> = (0..self.plan.len())
            .filter(|&i| self.restored[i].is_none())
            .collect();
        // The next position in `tasks`. `Relaxed` suffices: an index
        // publishes no other data (results go through `slots`' mutex).
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<PendingRun>>> =
            Mutex::new((0..self.plan.len()).map(|_| None).collect());
        // Workers line up after connecting, so a fast-starting worker
        // does not take the whole plan before a slow-starting peer runs.
        let start_line = Barrier::new(self.sessions);
        // Set by a worker whose connector panicked: its peers, waiting at
        // the start line, then take no shard, and the panic propagates.
        // `Relaxed` suffices: the start line orders every store before
        // every load, and the flag publishes no other data.
        let connect_panicked = AtomicBool::new(false);
        let work = |w: usize, events: Option<EventSink>| {
            // The panic waits for the start line, or its peers would wait
            // there for it forever.
            let connected = panic::catch_unwind(AssertUnwindSafe(|| connector.connect(w)));
            connect_panicked.fetch_or(connected.is_err(), Ordering::Relaxed);
            start_line.wait();
            let mut db = connected.unwrap_or_else(|payload| panic::resume_unwind(payload));
            let mut strikes = 0;
            let mut stats = WorkerStats::default();
            while !self.halt.is_cancelled() && !connect_panicked.load(Ordering::Relaxed) {
                let Some(&index) = tasks.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                    break;
                };
                let begun = Instant::now();
                let (run, retire) = self.shard(
                    shard_crawl,
                    &mut db,
                    &mut strikes,
                    w,
                    index,
                    events.as_ref(),
                );
                stats.busy += begun.elapsed();
                stats.executed += 1;
                slots.lock().expect("slots poisoned")[index] = Some(run);
                if retire {
                    stats.retired = true;
                    break;
                }
                // Give peers a scheduling opportunity between shards. On
                // a host with fewer cores than sessions, a worker running
                // CPU-bound shards back to back would otherwise take the
                // whole plan before its peers run, concentrating the load
                // on one identity.
                std::thread::yield_now();
            }
            stats
        };
        let (sink, drain) = match observer {
            Some(obs) => {
                let (tx, rx) = mpsc::sync_channel(EVENT_CHANNEL_CAPACITY);
                (
                    Some(EventSink::new(tx, 0)),
                    Some((rx, Relay::new(obs, self))),
                )
            }
            None => (None, None),
        };
        let began = Instant::now();
        let per_worker = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.sessions)
                .map(|w| {
                    let (work, events) = (&work, sink.clone());
                    scope.spawn(move || work(w, events))
                })
                .collect();
            // The workers hold the only senders left, so the drain ends
            // when the last of them finishes.
            drop(sink);
            if let Some((rx, mut relay)) = drain {
                while let Ok(event) = rx.recv() {
                    relay.forward(event);
                }
            }
            workers
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| panic::resume_unwind(payload))
                })
                .collect::<Vec<WorkerStats>>()
        });
        let executed: u64 = per_worker.iter().map(|w| w.executed).sum();
        let stats = PoolStats {
            workers: self.sessions,
            wall: began.elapsed(),
            per_worker,
            unrun: tasks.len() - executed as usize,
            // Read after the drain: an observer Stop relayed as the last
            // shard finished still counts.
            cancelled: self.halt.is_cancelled(),
        };
        (slots.into_inner().expect("slots poisoned"), stats)
    }

    /// Work already replayed from the checkpoint, so live progress events
    /// resume the crawl's totals instead of restarting at zero.
    fn restored_progress(&self) -> ProgressPoint {
        self.restored
            .iter()
            .flatten()
            .fold(ProgressPoint::default(), |acc, snap| ProgressPoint {
                queries: acc.queries + snap.queries,
                tuples: acc.tuples + snap.tuples.len() as u64,
            })
    }

    /// Crawls plan shard `index` on worker `worker`'s connection and says
    /// whether the identity retires. The session gets the crawl's retry
    /// policy, the halt token and, with `events`, a channel observer for
    /// the shard. `strikes` counts the identity's consecutive transient
    /// shard failures (retired at [`TRANSIENT_STRIKES`]).
    fn shard(
        &self,
        shard_crawl: &ShardCrawl<'_>,
        db: &mut dyn HiddenDatabase,
        strikes: &mut u32,
        worker: usize,
        index: usize,
        events: Option<&EventSink>,
    ) -> (PendingRun, bool) {
        let begun = Instant::now();
        let spec = self.plan[index].clone();
        let mut proxy = events.map(|sink| ChannelObserver::new(sink.for_shard(index)));
        let config = SessionConfig {
            retry: self.retry.clone(),
            cancel: Some(self.halt),
            observer: proxy.as_mut().map(|p| p as &mut dyn CrawlObserver),
        };
        let result = shard_crawl(&spec, db, config);
        // Identity health. A permanent database failure means this
        // identity is dead (quota exhausted, banned): retire the worker
        // instead of burning one doomed query per remaining shard. A
        // *transient* failure that survived the retry policy marks a
        // strike — the identity is flaky, but only repeated consecutive
        // strikes retire it. An unsolvable instance leaves the connection
        // healthy, and a stopped shard halts the whole crawl instead.
        let retire = match &result {
            Ok(_) => {
                *strikes = 0;
                false
            }
            Err(CrawlError::Db { error, .. }) if error.is_transient() => {
                *strikes += 1;
                *strikes >= TRANSIENT_STRIKES
            }
            Err(CrawlError::Db { .. }) => true,
            Err(CrawlError::Stopped { .. }) => {
                self.halt.cancel();
                false
            }
            Err(CrawlError::Unsolvable { .. }) => false,
        };
        if let (Ok(report), Some(journal)) = (&result, &self.journal) {
            let mut guard = journal.lock().expect("journal poisoned");
            let (repo, checkpoint) = &mut *guard;
            checkpoint.shards.push(snapshot_of(index, report));
            if let Err(e) = repo.store(checkpoint) {
                self.store_error
                    .lock()
                    .expect("store_error poisoned")
                    .get_or_insert(e);
            }
        }
        let run = PendingRun {
            spec,
            worker,
            wall: begun.elapsed(),
            result,
            restored: false,
        };
        (run, retire)
    }

    /// Reassembles plan order — live results at their plan index,
    /// snapshotted shards replayed as pre-completed runs — and merges.
    fn finish(
        self,
        mut slots: Vec<Option<PendingRun>>,
        pool: PoolStats,
        observer: Option<&mut dyn CrawlObserver>,
    ) -> Result<ShardedReport, CrawlError> {
        for (index, snap) in self.restored.into_iter().enumerate() {
            let Some(snap) = snap else { continue };
            slots[index] = Some(PendingRun {
                spec: self.plan[index].clone(),
                worker: 0,
                wall: Duration::ZERO,
                result: Ok(CrawlReport::from(snap)),
                restored: true,
            });
        }
        let store_error = self.store_error.into_inner().expect("store_error poisoned");
        merge_results(slots, pool, observer, store_error)
    }
}

/// Delivers a crawl's live within-shard events, drained from the
/// workers' channel, to its observer: query and tuple events pass through as-is,
/// and per-shard progress points are aggregated into crawl totals —
/// seeded with checkpoint-restored work — and deduplicated, so the
/// observer sees one monotone `(queries, tuples)` stream for the whole
/// crawl.
///
/// Any [`Flow::Stop`] trips the crawl's halt token (stopping every
/// in-flight shard at its next query) and silences further delivery.
struct Relay<'r> {
    observer: &'r mut dyn CrawlObserver,
    halt: &'r CancelToken,
    per_shard: Vec<ProgressPoint>,
    base: ProgressPoint,
    last: Option<ProgressPoint>,
    stopped: bool,
}

impl<'r> Relay<'r> {
    fn new(observer: &'r mut dyn CrawlObserver, run: &ShardedRun<'r, '_>) -> Self {
        Relay {
            observer,
            halt: run.halt,
            per_shard: vec![ProgressPoint::default(); run.plan.len()],
            base: run.restored_progress(),
            last: None,
            stopped: false,
        }
    }

    fn deliver(&mut self, event: impl FnOnce(&mut dyn CrawlObserver) -> Flow) {
        if !self.stopped && event(&mut *self.observer) == Flow::Stop {
            self.halt.cancel();
            self.stopped = true;
        }
    }

    fn progress(&mut self, shard: usize, point: ProgressPoint) {
        self.per_shard[shard] = point;
        let total = self
            .per_shard
            .iter()
            .fold(self.base, |acc, p| ProgressPoint {
                queries: acc.queries + p.queries,
                tuples: acc.tuples + p.tuples,
            });
        if self.last != Some(total) {
            self.last = Some(total);
            self.deliver(|o| o.on_progress(total));
        }
    }

    /// Delivers one event drained from the workers' channel.
    fn forward(&mut self, event: SessionEvent) {
        match event {
            SessionEvent::Query { query, outcome, .. } => {
                self.deliver(|o| o.on_query(&query, &outcome))
            }
            SessionEvent::Tuples { tuples, .. } => self.deliver(|o| o.on_tuples(&tuples)),
            SessionEvent::Progress { shard, point } => self.progress(shard, point),
        }
    }
}

/// The durable snapshot of a shard's report: complete when `frontier`
/// is `None`, a resumable prefix otherwise (see
/// [`ShardSnapshot::frontier`]).
pub fn snapshot_of_report(
    index: usize,
    report: &CrawlReport,
    frontier: Option<u64>,
) -> ShardSnapshot {
    ShardSnapshot {
        index,
        queries: report.queries,
        resolved: report.resolved,
        overflowed: report.overflowed,
        pruned: report.pruned,
        frontier,
        metrics: report.metrics,
        tuples: report.tuples.clone(),
    }
}

/// The durable snapshot of a completed shard's report.
fn snapshot_of(index: usize, report: &CrawlReport) -> ShardSnapshot {
    snapshot_of_report(index, report, None)
}

/// One shard's outcome as it comes off a worker (or out of a
/// checkpoint), before merging.
struct PendingRun {
    spec: ShardSpec,
    worker: usize,
    wall: Duration,
    result: Result<CrawlReport, CrawlError>,
    restored: bool,
}

enum Failure {
    Db(DbError),
    Unsolvable(Query),
    /// The crawl was stopped: an observer's live [`Flow::Stop`] or a
    /// cancelled token halted the workers, or a custom crawler's internal
    /// observer stopped its shard.
    Stopped,
}

/// Records one crawl's scheduler counters into the process-wide
/// telemetry registry ([`hdc_obs::registry`]): shards executed, retired
/// identities, and a histogram of per-worker idle time. Once per crawl, off the hot path, and gated on
/// [`hdc_obs::enabled`] like every other observation.
fn record_pool_metrics(pool: &PoolStats) {
    if !hdc_obs::enabled() {
        return;
    }
    let r = hdc_obs::registry();
    r.counter(
        "hdc_pool_shards_executed_total",
        "Shards executed by pool workers (excludes checkpoint-restored shards)",
    )
    .add(pool.executed());
    r.counter(
        "hdc_pool_retired_total",
        "Worker identities retired mid-crawl (dead or repeatedly flaky)",
    )
    .add(pool.per_worker.iter().filter(|w| w.retired).count() as u64);
    let idle = r.histogram(
        "hdc_pool_worker_idle_seconds",
        "Per-worker idle time (pool wall minus busy) per crawl",
        hdc_obs::latency_bounds(),
        hdc_obs::Unit::Nanos,
    );
    for w in 0..pool.per_worker.len() {
        idle.observe_duration(pool.idle(w));
    }
}

/// Merges per-shard outcomes into one report (or one failure carrying
/// everything salvaged across all shards). Tuples are **moved** out of
/// the shard reports into the merged bag — never cloned — in plan order.
/// Each merged shard fires one [`ShardEvent`] notification at the
/// observer.
fn merge_results(
    slots: Vec<Option<PendingRun>>,
    pool: PoolStats,
    mut observer: Option<&mut dyn CrawlObserver>,
    store_error: Option<std::io::Error>,
) -> Result<ShardedReport, CrawlError> {
    record_pool_metrics(&pool);
    let total = slots.len();
    // Progress curves stay per-shard (shards run concurrently, so a
    // single interleaved curve would be fictitious) — except in a
    // one-shard plan, whose report is its shard's.
    let mut merged = CrawlReport::empty("sharded-hybrid");
    let mut per_session: Vec<CrawlReport> = (0..pool.workers)
        .map(|_| CrawlReport::empty("sharded-session"))
        .collect();
    let mut shards = Vec::with_capacity(slots.len());
    let mut failure: Option<Failure> = None;
    // A cancelled run that produced no failing shard of its own (the
    // token was flipped from outside) must still surface as Stopped, not
    // as a suspiciously short success.
    if pool.cancelled {
        failure = Some(Failure::Stopped);
    }
    for (index, slot) in slots.into_iter().enumerate() {
        // A `None` slot is a shard no surviving worker could run (every
        // identity retired first); `PoolStats::unrun` counts them and
        // the failure that killed the identities is already recorded.
        let Some(run) = slot else { continue };
        // The first *real* failure (Db/Unsolvable) in plan order is the
        // one re-raised; a per-shard Stopped (a custom crawler's own
        // observer) is recorded only while no real failure exists and
        // never shadows one that surfaces later in the walk — a dead
        // identity must not be misread as a voluntary stop.
        let real_failure_recorded =
            matches!(failure, Some(Failure::Db(_)) | Some(Failure::Unsolvable(_)));
        let (mut report, failed) = match run.result {
            Ok(report) => (report, false),
            Err(CrawlError::Db { error, partial }) => {
                if !real_failure_recorded {
                    failure = Some(Failure::Db(error));
                }
                (*partial, true)
            }
            Err(CrawlError::Unsolvable { witness, partial }) => {
                if !real_failure_recorded {
                    failure = Some(Failure::Unsolvable(witness));
                }
                (*partial, true)
            }
            Err(CrawlError::Stopped { partial }) => {
                if failure.is_none() {
                    failure = Some(Failure::Stopped);
                }
                (*partial, true)
            }
        };
        // The bag moves into the merged report exactly once; the
        // identity's aggregate then absorbs the accounting alone.
        let tuples = report.tuples.len() as u64;
        merged.absorb(&mut report);
        if total == 1 {
            merged.algorithm = report.algorithm;
            merged.progress = report.progress.clone();
        }
        // Restored shards spent their queries in the run that produced
        // the checkpoint — charging them to this run's identity 0 would
        // fabricate per-session quota pressure that never happened.
        if !run.restored {
            per_session[run.worker].absorb(&mut report);
        }
        if let Some(obs) = observer.as_deref_mut() {
            obs.on_shard(&ShardEvent {
                index,
                total,
                spec: &run.spec,
                worker: run.worker,
                queries: report.queries,
                tuples,
                failed,
                restored: run.restored,
            });
        }
        shards.push(ShardRun {
            spec: run.spec,
            worker: run.worker,
            wall: run.wall,
            tuples,
            failed,
            restored: run.restored,
            report,
        });
    }
    match failure {
        None => {
            // The crawl itself succeeded; a failed checkpoint store must
            // still be loud — the caller believes this crawl is
            // resumable and it is not.
            if let Some(e) = store_error {
                return Err(CrawlError::Db {
                    error: DbError::Backend(format!("checkpoint store failed: {e}")),
                    partial: Box::new(merged),
                });
            }
            Ok(ShardedReport {
                merged,
                per_session,
                shards,
                pool,
            })
        }
        Some(Failure::Db(error)) => Err(CrawlError::Db {
            error,
            partial: Box::new(merged),
        }),
        Some(Failure::Unsolvable(witness)) => Err(CrawlError::Unsolvable {
            witness,
            partial: Box::new(merged),
        }),
        Some(Failure::Stopped) => Err(CrawlError::Stopped {
            partial: Box::new(merged),
        }),
    }
}

/// Splits the inclusive range `[min, max]` into `parts` contiguous
/// inclusive sub-ranges of near-equal width; `None` marks an empty part
/// when the domain has fewer values than `parts`.
fn split_range(min: i64, max: i64, parts: usize) -> Vec<Option<(i64, i64)>> {
    let width = (max as i128 - min as i128 + 1) as u128;
    let mut lo = min as i128;
    (0..parts)
        .map(|s| {
            let hi = min as i128 + (width * (s as u128 + 1) / parts as u128) as i128 - 1;
            (lo <= hi).then(|| {
                let range = (lo as i64, hi as i64);
                lo = hi + 1;
                range
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrate::Crawl;
    use crate::validate::verify_complete;
    use hdc_server::{Budgeted, HiddenDbServer, ServerConfig};
    use hdc_types::tuple::{cat_tuple, int_tuple};
    use hdc_types::{Tuple, TupleBag, Value};
    use std::sync::{Arc, Condvar};

    fn mixed_schema() -> Schema {
        Schema::builder()
            .categorical("make", 7)
            .numeric("price", 0, 9_999)
            .build()
            .unwrap()
    }

    fn mixed_tuples(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let h = crate::theory::mix(i as u64);
                Tuple::new(vec![
                    Value::Cat((h % 7) as u32),
                    Value::Int(((h >> 8) % 10_000) as i64),
                ])
            })
            .collect()
    }

    fn factory<'a>(
        schema: &'a Schema,
        tuples: &'a [Tuple],
        k: usize,
    ) -> impl Fn(usize) -> HiddenDbServer + Sync + 'a {
        move |_s| {
            // Same seed for every session: all sessions see the same
            // logical server (same priorities, same responses).
            HiddenDbServer::new(
                schema.clone(),
                tuples.to_vec(),
                ServerConfig { k, seed: 17 },
            )
            .unwrap()
        }
    }

    /// `Query::any` on `arity` attributes with `pins` applied.
    fn root(arity: usize, pins: &[(usize, Predicate)]) -> Query {
        pins.iter()
            .fold(Query::any(arity), |q, &(a, p)| q.with_pred(a, p))
    }

    /// One root `attr = v` per value, on `arity` attributes.
    fn cat_roots(arity: usize, attr: usize, values: &[u32]) -> Vec<Query> {
        values
            .iter()
            .map(|&v| root(arity, &[(attr, Predicate::Eq(v))]))
            .collect()
    }

    /// The values a categorical shard's roots pin on `attr`.
    fn pinned(spec: &ShardSpec, attr: usize) -> Vec<u32> {
        spec.queries()
            .iter()
            .map(|q| match q.pred(attr) {
                Predicate::Eq(v) => v,
                other => panic!("root {q} pins {other} on {attr}"),
            })
            .collect()
    }

    #[test]
    fn plan_round_robins_categorical_values() {
        let plan = Sharded::plan(&mixed_schema(), 3);
        assert_eq!(plan.len(), 3);
        for spec in &plan {
            assert_eq!(spec.order, &[0]);
        }
        assert_eq!(plan[0].queries(), cat_roots(2, 0, &[0, 3, 6]));
        assert_eq!(plan[1].queries(), cat_roots(2, 0, &[1, 4]));
        assert_eq!(plan[2].queries(), cat_roots(2, 0, &[2, 5]));
    }

    #[test]
    fn plan_splits_numeric_ranges_evenly() {
        let schema = Schema::builder().numeric("x", 0, 99).build().unwrap();
        let plan = Sharded::plan(&schema, 4);
        assert_eq!(plan.len(), 4);
        for (spec, (lo, hi)) in plan.iter().zip([(0, 24), (25, 49), (50, 74), (75, 99)]) {
            assert!(spec.order.is_empty());
            assert_eq!(
                spec.queries(),
                [root(1, &[(0, Predicate::Range { lo, hi })])]
            );
        }
    }

    #[test]
    fn plan_pads_with_rootless_shards() {
        // 3 values over 4 sub-ranges: one part of each value is empty.
        let schema = Schema::builder().numeric("x", 0, 2).build().unwrap();
        let plan = Sharded::plan(&schema, 4);
        assert_eq!(plan.len(), 4);
        let roots: Vec<usize> = plan.iter().map(ShardSpec::resume_points).collect();
        assert_eq!(roots, [0, 1, 1, 1]);
        assert_eq!(plan[0].signature(), "/");
        assert_eq!(plan[1].signature(), "/0:0..0");
    }

    #[test]
    fn oversubscribed_plan_deals_finer_while_domain_lasts() {
        // 7 values, 2 sessions × factor 3 = 6 shards: still one
        // round-robin deal of the partition attribute, just finer.
        let plan = Sharded::plan_oversubscribed(&mixed_schema(), 2, 3);
        assert_eq!(plan.len(), 6);
        assert_eq!(plan[0].queries(), cat_roots(2, 0, &[0, 6]));
        assert_eq!(plan[5].queries(), cat_roots(2, 0, &[5]));
        // `sessions` divides the shard count, so the fine plan refines
        // the coarse one: shards j ≡ w (mod sessions) jointly own
        // exactly the factor-1 plan's shard w (a plan-structure
        // invariant; the scheduler assigns fine shards dynamically).
        let coarse = Sharded::plan(&mixed_schema(), 2);
        for (w, coarse_shard) in coarse.iter().enumerate() {
            let mut fine: Vec<u32> = plan
                .iter()
                .enumerate()
                .filter(|(j, _)| j % 2 == w)
                .flat_map(|(_, s)| pinned(s, 0))
                .collect();
            fine.sort_unstable();
            assert_eq!(fine, pinned(coarse_shard, 0));
        }
    }

    #[test]
    fn oversubscribed_plan_sub_splits_by_secondary_categorical() {
        let schema = Schema::builder()
            .categorical("a", 3)
            .categorical("b", 5)
            .numeric("x", 0, 99)
            .build()
            .unwrap();
        // Partition on the widest categorical (b, 5 values); target
        // 8 > 5, so every value splits into ceil(8/5) = 2 pieces of the
        // next-widest categorical (a, 3 values) — 10 shards total.
        let plan = Sharded::plan_oversubscribed(&schema, 2, 4);
        assert_eq!(plan.len(), 10);
        let sub = |b: u32, a: u32| root(3, &[(1, Predicate::Eq(b)), (0, Predicate::Eq(a))]);
        for spec in &plan {
            assert_eq!(spec.order, &[1, 0]);
        }
        assert_eq!(plan[0].queries(), [sub(0, 0), sub(0, 2)]);
        assert_eq!(plan[1].queries(), [sub(0, 1)]);
        assert_eq!(plan[9].queries(), [sub(4, 1)]);
    }

    #[test]
    fn oversubscribed_plan_sub_splits_by_numeric_when_single_cat() {
        let schema = Schema::builder()
            .categorical("c", 2)
            .numeric("x", 0, 99)
            .build()
            .unwrap();
        let plan = Sharded::plan_oversubscribed(&schema, 2, 2);
        // target 4 > 2 values: each value splits into 2 numeric
        // sub-ranges.
        assert_eq!(plan.len(), 4);
        let boxed = |c: u32, lo: i64, hi: i64| {
            root(
                2,
                &[(0, Predicate::Eq(c)), (1, Predicate::Range { lo, hi })],
            )
        };
        assert_eq!(plan[0].order, &[0]);
        assert_eq!(plan[0].queries(), [boxed(0, 0, 49)]);
        assert_eq!(plan[3].queries(), [boxed(1, 50, 99)]);
    }

    #[test]
    fn oversubscribed_plan_caps_at_single_values_for_1d_categorical() {
        let schema = Schema::builder().categorical("only", 4).build().unwrap();
        let plan = Sharded::plan_oversubscribed(&schema, 3, 5);
        // No secondary attribute exists: the finest partition is one
        // value per shard.
        assert_eq!(plan.len(), 4);
        for (v, spec) in plan.iter().enumerate() {
            assert_eq!(spec.order, &[0]);
            assert_eq!(spec.queries(), cat_roots(1, 0, &[v as u32]));
        }
    }

    /// The whole-space shard is the solo crawl's shape: schema order,
    /// every value of the first level — or one `Query::any` box.
    #[test]
    fn whole_space_shard_is_the_solo_shape() {
        let schema = Schema::builder()
            .numeric("x", 0, 9)
            .categorical("a", 3)
            .categorical("b", 2)
            .build()
            .unwrap();
        let whole = ShardSpec::whole(&schema);
        assert_eq!(whole.order, &[1, 2]);
        assert_eq!(whole.queries(), cat_roots(3, 1, &[0, 1, 2]));
        assert_eq!(whole.signature(), "1,2/1:=0;1:=1;1:=2");
        let numeric = Schema::builder().numeric("x", 0, 9).build().unwrap();
        let whole = ShardSpec::whole(&numeric);
        assert_eq!(whole.queries(), [Query::any(1)]);
        assert_eq!(whole.signature(), "/*");
        assert_eq!(ShardSpec::parse_signature("/*", &numeric), Ok(whole));
    }

    /// The parser checks a signature against the schema: everything a
    /// crawl relies on is refused with a reason, never a panic.
    #[test]
    fn parse_signature_refuses_what_a_crawl_cannot_run() {
        let schema = Schema::builder()
            .categorical("a", 3)
            .categorical("b", 5)
            .numeric("x", 0, 99)
            .build()
            .unwrap();
        let ok = "1,0/0:=2&1:=0;0:=1&1:=0";
        assert_eq!(
            ShardSpec::parse_signature(ok, &schema).map(|s| s.signature()),
            Ok(ok.to_string())
        );
        for bad in [
            "cat:1=[0, 1]",              // the previous format
            "1,0",                       // no roots part
            "1/1:=0",                    // order misses a categorical attribute
            "1,0,2/1:=0",                // order names a numeric attribute
            "1,1/1:=0",                  // order repeats an attribute
            "1,0/9:=0",                  // attribute out of range
            "1,0/1:=5",                  // value out of domain
            "1,0/2:=1",                  // equality on a numeric attribute
            "1,0/1:0..1",                // range on a categorical attribute
            "1,0/0:=0",                  // not a prefix of the order
            "1,0/1:=0&1:=1",             // attribute pinned twice
            "1,0/1:=0;1:=0",             // overlapping roots
            "1,0/1:=0&0:=1;1:=1&0:=1",   // no shared prefix
            "1,0/1:=0;1:=1&0:=1",        // roots at different levels
            "1,0/1:=0&0:=0&2:5..1",      // inverted range
            "1,0/1:=0&0:=0&2:0..100",    // range beyond the bounds
            "1,0/1:=0&0:=0&2:0..9;1:=1", // boxes mixed with categorical roots
            "1,0/*",                     // a wildcard root on a categorical schema
            "1,0/1:*",                   // a wildcard predicate
            "1,0/1=0",                   // no ':' in a predicate
        ] {
            assert!(
                ShardSpec::parse_signature(bad, &schema).is_err(),
                "{bad:?} must be refused"
            );
        }
    }

    #[test]
    fn sharded_mixed_crawl_is_complete_for_any_session_count() {
        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        for sessions in [1usize, 2, 3, 8, 16] {
            let report = Crawl::builder()
                .sessions(sessions)
                .run_sharded(factory(&schema, &tuples, 32))
                .unwrap_or_else(|e| panic!("sessions={sessions}: {e}"));
            verify_complete(&tuples, &report.merged)
                .unwrap_or_else(|e| panic!("sessions={sessions}: {e}"));
            assert_eq!(report.per_session.len(), sessions);
        }
    }

    #[test]
    fn oversubscribed_crawl_is_complete() {
        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        for (sessions, factor) in [(1usize, 4usize), (2, 2), (2, 8), (3, 4)] {
            let report = Crawl::builder()
                .sessions(sessions)
                .oversubscribe(factor)
                .run_sharded(factory(&schema, &tuples, 32))
                .unwrap_or_else(|e| panic!("sessions={sessions} factor={factor}: {e}"));
            verify_complete(&tuples, &report.merged)
                .unwrap_or_else(|e| panic!("sessions={sessions} factor={factor}: {e}"));
            assert_eq!(report.per_session.len(), sessions);
            assert!(report.shards.len() >= sessions * factor.min(7));
        }
    }

    #[test]
    fn sharding_balances_work() {
        let schema = mixed_schema();
        let tuples = mixed_tuples(4_000);
        let single = Crawl::builder()
            .sessions(1)
            .run_sharded(factory(&schema, &tuples, 32))
            .unwrap();
        let quad = Crawl::builder()
            .sessions(4)
            .run_sharded(factory(&schema, &tuples, 32))
            .unwrap();
        // Concurrency wins wall-clock: the busiest session does much less
        // than the single-session total…
        assert!(quad.max_session_queries() < single.merged.queries);
        // …at a bounded total overhead (node queries a finer plan adds).
        assert!(quad.merged.queries <= 2 * single.merged.queries);
    }

    /// The merged bag, total cost, and *per-shard* costs of a
    /// dynamically dealt run must equal a sequential one-shard-at-a-time run
    /// of the same plan. Per-shard costs match here because this plan's
    /// shards share no slice (each value is sub-split by price ranges,
    /// crawled as boxes); see the module docs for plans that do.
    #[test]
    fn stealing_run_matches_sequential_run_of_the_same_plan() {
        let schema = mixed_schema();
        let tuples = mixed_tuples(3_000);
        let (sessions, fact) = (3usize, 4usize);
        let make = factory(&schema, &tuples, 32);

        let stolen = Crawl::builder()
            .sessions(sessions)
            .oversubscribe(fact)
            .run_sharded(&make)
            .unwrap();

        let plan = Sharded::plan_oversubscribed(&schema, sessions, fact);
        assert_eq!(stolen.shards.len(), plan.len());
        let mut seq_bag = TupleBag::new();
        let mut seq_total = 0u64;
        for (i, spec) in plan.iter().enumerate() {
            let mut db = make(0);
            let report = spec.crawl(&mut db, &schema).unwrap();
            assert_eq!(
                report.queries, stolen.shards[i].report.queries,
                "shard {i} cost depends on scheduling"
            );
            assert_eq!(report.tuples.len() as u64, stolen.shards[i].tuples);
            seq_total += report.queries;
            for t in report.tuples {
                seq_bag.insert(t);
            }
        }
        assert_eq!(stolen.merged.queries, seq_total);
        let stolen_bag: TupleBag = stolen.merged.tuples.iter().collect();
        assert!(stolen_bag.multiset_eq(&seq_bag));
    }

    #[test]
    fn shard_runs_record_worker_wall_and_tuple_counts() {
        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        let report = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .run_sharded(factory(&schema, &tuples, 32))
            .unwrap();
        assert_eq!(report.shards.len(), 6);
        let mut by_worker = [0u64; 2];
        for run in &report.shards {
            assert!(run.worker < 2);
            assert!(!run.failed);
            assert!(run.report.tuples.is_empty(), "tuples moved into merged");
            by_worker[run.worker] += run.report.queries;
        }
        // Per-identity aggregates are exactly the shard totals.
        for (w, &queries) in by_worker.iter().enumerate() {
            assert_eq!(report.per_session[w].queries, queries);
            assert!(report.per_session[w].tuples.is_empty());
        }
        let shard_tuples: u64 = report.shards.iter().map(|r| r.tuples).sum();
        assert_eq!(shard_tuples, report.merged.tuples.len() as u64);
        // Pool accounting covers every shard.
        assert_eq!(report.pool.executed(), 6);
        assert_eq!(report.pool.unrun, 0);
        assert_eq!(report.pool.workers, 2);

        // …and a run halted before it began covers none: no worker takes
        // a shard, every shard counts as unrun, and the merge reports
        // `Stopped` with nothing charged.
        let halt = CancelToken::new();
        halt.cancel();
        let run = ShardedRun::prepare(&schema, 2, 3, RetryPolicy::none(), &halt, None).unwrap();
        let crawl = |spec: &ShardSpec, db: &mut dyn HiddenDatabase, config: SessionConfig<'_>| {
            spec.crawl_with(db, &schema, None, config, None)
        };
        let (slots, stats) = run.execute(factory(&schema, &tuples, 32), &crawl, None);
        assert!(slots.iter().all(Option::is_none));
        assert_eq!(stats.executed(), 0);
        assert_eq!(stats.unrun, 6);
        assert!(stats.cancelled);
        match run.finish(slots, stats, None) {
            Err(CrawlError::Stopped { partial }) => {
                assert_eq!(partial.queries, 0);
                assert!(partial.tuples.is_empty());
            }
            other => panic!("expected Stopped, got {other:?}"),
        }
    }

    #[test]
    fn numeric_only_sharding() {
        let schema = Schema::builder().numeric("x", 0, 9_999).build().unwrap();
        let tuples: Vec<Tuple> = (0..3_000)
            .map(|i| int_tuple(&[(crate::theory::mix(i) % 10_000) as i64]))
            .collect();
        for (sessions, factor) in [(1usize, 1usize), (3, 1), (5, 1), (2, 6)] {
            let report = Crawl::builder()
                .sessions(sessions)
                .oversubscribe(factor)
                .run_sharded(|_s| {
                    HiddenDbServer::new(
                        schema.clone(),
                        tuples.clone(),
                        ServerConfig { k: 64, seed: 3 },
                    )
                    .unwrap()
                })
                .unwrap();
            verify_complete(&tuples, &report.merged).unwrap();
        }
    }

    #[test]
    fn pure_categorical_sharding() {
        let schema = Schema::builder()
            .categorical("a", 5)
            .categorical("b", 6)
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..30u64)
            .flat_map(|p| {
                let copies = 1 + crate::theory::mix(p) % 3;
                (0..copies).map(move |_| cat_tuple(&[(p % 5) as u32, (p / 5) as u32]))
            })
            .collect();
        for factor in [1usize, 4] {
            let report = Crawl::builder()
                .sessions(2)
                .oversubscribe(factor)
                .run_sharded(|_s| {
                    HiddenDbServer::new(
                        schema.clone(),
                        tuples.clone(),
                        ServerConfig { k: 4, seed: 5 },
                    )
                    .unwrap()
                })
                .unwrap();
            verify_complete(&tuples, &report.merged).unwrap();
        }
    }

    #[test]
    fn cat_num_sub_split_crawl_is_complete() {
        // Single categorical + numeric: over-partitioning must fall back
        // to numeric sub-ranges per value (one-box shards).
        let schema = Schema::builder()
            .categorical("c", 2)
            .numeric("x", 0, 999)
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..800)
            .map(|i| {
                let h = crate::theory::mix(i);
                Tuple::new(vec![
                    Value::Cat((h % 2) as u32),
                    Value::Int(((h >> 8) % 1000) as i64),
                ])
            })
            .collect();
        let report = Crawl::builder()
            .sessions(2)
            .oversubscribe(4)
            .run_sharded(|_s| {
                HiddenDbServer::new(
                    schema.clone(),
                    tuples.clone(),
                    ServerConfig { k: 16, seed: 9 },
                )
                .unwrap()
            })
            .unwrap();
        assert!(report.shards.iter().all(|r| {
            let roots = r.spec.queries();
            roots.len() == 1 && matches!(roots[0].pred(1), Predicate::Range { .. })
        }));
        verify_complete(&tuples, &report.merged).unwrap();
    }

    #[test]
    fn more_sessions_than_domain_values() {
        let schema = Schema::builder()
            .categorical("tiny", 2)
            .numeric("x", 0, 999)
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..500)
            .map(|i| {
                let h = crate::theory::mix(i);
                Tuple::new(vec![
                    Value::Cat((h % 2) as u32),
                    Value::Int(((h >> 8) % 1000) as i64),
                ])
            })
            .collect();
        let report = Crawl::builder()
            .sessions(6)
            .run_sharded(|_s| {
                HiddenDbServer::new(
                    schema.clone(),
                    tuples.clone(),
                    ServerConfig { k: 16, seed: 7 },
                )
                .unwrap()
            })
            .unwrap();
        verify_complete(&tuples, &report.merged).unwrap();
        // 4 of the 6 shards own no values and issue no queries. (Which
        // *identities* ran the two real shards depends on scheduling, so
        // the deterministic assertion is per shard.)
        assert_eq!(report.shards.len(), 6);
        let idle = report
            .shards
            .iter()
            .filter(|r| r.report.queries == 0)
            .count();
        assert_eq!(idle, 4);

        // More sessions than shards: a one-attribute schema has no finer
        // partition than one shard per value, so 4 sessions × 2 plan 3
        // shards, and at least one worker takes none.
        let schema = Schema::builder().categorical("c", 3).build().unwrap();
        let tuples: Vec<Tuple> = (0..30u32).map(|i| cat_tuple(&[i % 3])).collect();
        let report = Crawl::builder()
            .sessions(4)
            .oversubscribe(2)
            .run_sharded(|_s| {
                HiddenDbServer::new(
                    schema.clone(),
                    tuples.clone(),
                    ServerConfig { k: 16, seed: 7 },
                )
                .unwrap()
            })
            .unwrap();
        verify_complete(&tuples, &report.merged).unwrap();
        assert_eq!(report.shards.len(), 3);
        assert_eq!(report.pool.executed(), 3);
        assert!(report.pool.per_worker.iter().any(|w| w.executed == 0));
    }

    /// Holds the healthy identities' queries until identity 0 has
    /// struck its budget (or a generous timeout passes), so they cannot
    /// take every shard before the crippled identity issues a query —
    /// the `FuseGate` idiom of `tests/faults.rs`.
    struct BudgetGate {
        inner: Budgeted<HiddenDbServer>,
        signals: bool,
        dead: Arc<(Mutex<bool>, Condvar)>,
    }

    impl HiddenDatabase for BudgetGate {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn k(&self) -> usize {
            self.inner.k()
        }

        fn query(&mut self, q: &Query) -> Result<hdc_types::QueryOutcome, DbError> {
            let (flag, cv) = &*self.dead;
            if !self.signals {
                let guard = flag.lock().unwrap();
                drop(
                    cv.wait_timeout_while(guard, Duration::from_secs(30), |dead| !*dead)
                        .unwrap(),
                );
            }
            let out = self.inner.query(q);
            if self.signals && out.is_err() {
                *flag.lock().unwrap() = true;
                cv.notify_all();
            }
            out
        }

        fn queries_issued(&self) -> u64 {
            self.inner.queries_issued()
        }
    }

    #[test]
    fn shard_failure_surfaces_with_merged_partial() {
        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        let dead = Arc::default();
        // Session 0 gets a crippling budget; the others are unlimited
        // and start only once session 0 has exhausted it.
        let result = Crawl::builder().sessions(3).run_sharded(|s| {
            let server = HiddenDbServer::new(
                schema.clone(),
                tuples.clone(),
                ServerConfig { k: 32, seed: 17 },
            )
            .unwrap();
            BudgetGate {
                inner: Budgeted::new(server, if s == 0 { 2 } else { u64::MAX }),
                signals: s == 0,
                dead: Arc::clone(&dead),
            }
        });
        match result {
            Err(CrawlError::Db { error, partial }) => {
                assert!(matches!(error, hdc_types::DbError::BudgetExhausted { .. }));
                // The healthy shards' tuples are all salvaged.
                assert!(!partial.tuples.is_empty());
                let truth: hdc_types::TupleBag = tuples.iter().collect();
                let got: hdc_types::TupleBag = partial.tuples.iter().collect();
                for (t, c) in got.iter() {
                    assert!(c <= truth.count(t));
                }
            }
            other => panic!("expected budget failure, got {other:?}"),
        }

        // Every identity crippled: each retires on the first shard it
        // takes (the cursor deals them shards 0 and 1), no shard runs
        // twice, the shards nobody took never run and count as unrun,
        // and the first failure in plan order is re-raised with both
        // partials merged.
        let halt = CancelToken::new();
        let run = ShardedRun::prepare(&schema, 2, 4, RetryPolicy::none(), &halt, None).unwrap();
        let crawled = Mutex::new(vec![0u32; run.plan.len()]);
        let crawl = |spec: &ShardSpec, db: &mut dyn HiddenDatabase, config: SessionConfig<'_>| {
            let index = run.plan.iter().position(|p| p == spec).unwrap();
            crawled.lock().unwrap()[index] += 1;
            spec.crawl_with(db, &schema, None, config, None)
                .map_err(|e| match e {
                    CrawlError::Db { error, partial } => CrawlError::Db {
                        error: DbError::Backend(format!("shard {index}: {error}")),
                        partial,
                    },
                    other => other,
                })
        };
        let make = factory(&schema, &tuples, 32);
        let (slots, stats) = run.execute(|s| Budgeted::new(make(s), 3), &crawl, None);
        let crawled = crawled.into_inner().unwrap();
        assert_eq!(crawled[..2], [1, 1]);
        assert!(crawled[2..].iter().all(|&n| n == 0), "{crawled:?}");
        assert!(stats
            .per_worker
            .iter()
            .all(|w| w.executed == 1 && w.retired));
        assert_eq!(stats.unrun, run.plan.len() - 2);
        match run.finish(slots, stats, None) {
            Err(CrawlError::Db {
                error: DbError::Backend(message),
                partial,
            }) => {
                assert!(message.starts_with("shard 0:"), "{message}");
                assert_eq!(partial.queries, 6, "three charged queries per identity");
            }
            other => panic!("expected shard 0's failure, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn zero_sessions_rejected() {
        let _ = Crawl::builder().sessions(0);
    }

    /// A connector that panics for one identity ends the crawl with that
    /// panic: the panicking worker still reaches the start line, so its
    /// peers do not wait there forever.
    #[test]
    fn panicking_connector_propagates_instead_of_hanging() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let (schema, tuples) = (mixed_schema(), mixed_tuples(200));
            let connect = factory(&schema, &tuples, 8);
            let crawl = panic::catch_unwind(AssertUnwindSafe(|| {
                Crawl::builder().sessions(2).run_sharded(|s| {
                    assert_ne!(s, 1, "identity 1 cannot connect");
                    connect(s)
                })
            }));
            let message = crawl
                .err()
                .and_then(|p| p.downcast_ref::<String>().cloned());
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the crawl ends");
        assert!(
            message.is_some_and(|m| m.contains("identity 1 cannot connect")),
            "the connector's panic propagates"
        );
    }

    /// A resume crawls its checkpoint's plan, whatever its own session
    /// count, only if every signature parses, the roots partition the
    /// schema's space, and every snapshot indexes into the plan.
    #[test]
    fn plan_for_refuses_what_a_resume_cannot_crawl() {
        let schema = mixed_schema();
        let signatures = |schema: &Schema| -> Vec<String> {
            Sharded::plan_oversubscribed(schema, 2, 2)
                .iter()
                .map(ShardSpec::signature)
                .collect()
        };
        let sigs = signatures(&schema);
        let plan_for = |plan: Vec<String>, index: usize| {
            let mut checkpoint = CrawlCheckpoint::new(plan);
            checkpoint
                .shards
                .push(snapshot_of(index, &CrawlReport::empty("x")));
            Sharded::plan_for(&schema, Some(&checkpoint), 1, 1)
        };
        assert_eq!(
            plan_for(sigs.clone(), 3),
            Ok(Sharded::plan_oversubscribed(&schema, 2, 2))
        );
        // The same shape with a smaller first domain parses, but leaves
        // values 5 and 6 uncrawled.
        let narrow = Schema::builder()
            .categorical("make", 5)
            .numeric("price", 0, 9_999)
            .build()
            .unwrap();
        for (plan, index, error) in [
            (vec!["cat:0=[0, 4]".to_string()], 0, "checkpoint shard 0"),
            (sigs[1..].to_vec(), 0, "does not partition"),
            ([&sigs[..], &sigs[..1]].concat(), 0, "does not partition"),
            (Vec::new(), 0, "does not partition"),
            (signatures(&narrow), 0, "does not partition"),
            (sigs.clone(), 4, "index 4 out of plan"),
        ] {
            let got = plan_for(plan.clone(), index).unwrap_err();
            assert!(got.contains(error), "{plan:?}: {got}");
        }
    }

    /// The merge-path notification: one `ShardEvent` per shard, in plan
    /// order, carrying each shard's tuple count.
    #[test]
    fn on_shard_events_stream_in_plan_order() {
        use crate::orchestrate::{CrawlObserver, ShardEvent};

        #[derive(Default)]
        struct ShardLog {
            seen: Vec<(usize, u64)>,
        }

        impl CrawlObserver for ShardLog {
            fn on_shard(&mut self, event: &ShardEvent<'_>) {
                self.seen.push((event.index, event.tuples));
            }
        }

        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        let mut log = ShardLog::default();
        let full = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .observer(&mut log)
            .run_sharded(factory(&schema, &tuples, 32))
            .unwrap();
        assert_eq!(log.seen.len(), full.shards.len());
        for (i, &(index, tuples)) in log.seen.iter().enumerate() {
            assert_eq!(index, i, "events must arrive in plan order");
            assert_eq!(tuples, full.shards[i].tuples);
        }
    }

    /// A real shard failure outranks an observer stop: a dead identity
    /// must surface as `Db`, never be misread as a voluntary stop.
    #[test]
    fn shard_failure_outranks_observer_stop() {
        use crate::orchestrate::{CrawlObserver, Flow};

        #[derive(Default)]
        struct StopAtFirstQuery {
            stopped: bool,
        }
        impl CrawlObserver for StopAtFirstQuery {
            fn on_query(&mut self, _q: &Query, _out: &hdc_types::QueryOutcome) -> Flow {
                self.stopped = true;
                Flow::Stop
            }
        }

        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        let make = factory(&schema, &tuples, 32);
        // Identity 0 has no quota: the shard it takes fails on its first
        // query. Identity 1's queries wait for that failure, so the live
        // stop (fired by the first charged query) can never keep
        // identity 0 from running its shard.
        let dead = Arc::default();
        let mut stopper = StopAtFirstQuery::default();
        let result = Crawl::builder()
            .sessions(2)
            .observer(&mut stopper)
            .run_sharded(|s| BudgetGate {
                inner: Budgeted::new(make(s), if s == 0 { 0 } else { u64::MAX }),
                signals: s == 0,
                dead: Arc::clone(&dead),
            });
        assert!(stopper.stopped, "the observer stopped the crawl");
        assert!(
            matches!(result, Err(CrawlError::Db { .. })),
            "expected the budget failure to win over the stop, got {result:?}"
        );
    }

    /// The tentpole property: a sharded crawl streams within-shard
    /// `on_query`/`on_tuples`/`on_progress` events to the observer
    /// *live* (they arrive through the bounded channel while the workers
    /// runs and are all delivered by the time the crawl returns), the
    /// progress stream aggregates to crawl-wide totals, and observing
    /// changes nothing about the result.
    #[test]
    fn within_shard_events_stream_live_from_the_pool_and_are_inert() {
        use crate::orchestrate::{CrawlObserver, Flow};

        #[derive(Default)]
        struct Tap {
            queries: u64,
            tuples: u64,
            last_progress: Option<ProgressPoint>,
        }

        impl CrawlObserver for Tap {
            fn on_query(&mut self, _q: &Query, _out: &hdc_types::QueryOutcome) -> Flow {
                self.queries += 1;
                Flow::Continue
            }

            fn on_tuples(&mut self, tuples: &[Tuple]) -> Flow {
                self.tuples += tuples.len() as u64;
                Flow::Continue
            }

            fn on_progress(&mut self, point: ProgressPoint) -> Flow {
                if let Some(last) = self.last_progress {
                    assert!(
                        point.queries >= last.queries && point.tuples >= last.tuples,
                        "aggregated progress must be monotone: {last:?} then {point:?}"
                    );
                }
                self.last_progress = Some(point);
                Flow::Continue
            }
        }

        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        let make = factory(&schema, &tuples, 32);

        let unobserved = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .run_sharded(&make)
            .unwrap();
        let mut tap = Tap::default();
        let observed = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .observer(&mut tap)
            .run_sharded(&make)
            .unwrap();

        // Live events arrived: every charged query and every extracted
        // tuple was streamed out of the worker threads.
        assert_eq!(tap.queries, observed.merged.queries);
        assert_eq!(tap.tuples, observed.merged.tuples.len() as u64);
        assert_eq!(
            tap.last_progress,
            Some(ProgressPoint {
                queries: observed.merged.queries,
                tuples: observed.merged.tuples.len() as u64,
            }),
            "the aggregated progress stream must end at the crawl's totals"
        );

        // Telemetry is inert: observing changed nothing.
        let a: TupleBag = observed.merged.tuples.iter().collect();
        let b: TupleBag = unobserved.merged.tuples.iter().collect();
        assert!(a.multiset_eq(&b));
        assert_eq!(observed.merged.queries, unobserved.merged.queries);
        for (x, y) in observed.shards.iter().zip(&unobserved.shards) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.report.queries, y.report.queries);
        }
    }

    /// A `Flow::Stop` from a live within-shard event trips the crawl's
    /// halt token: in-flight shards stop at their next query, the crawl
    /// returns `Stopped`, and the partial is prefix-consistent (a
    /// sub-bag of the truth that never over-reports).
    #[test]
    fn live_event_stop_halts_in_flight_shards() {
        use crate::orchestrate::{CrawlObserver, Flow};

        struct StopAfter {
            tuples: u64,
            threshold: u64,
        }

        impl CrawlObserver for StopAfter {
            fn on_tuples(&mut self, tuples: &[Tuple]) -> Flow {
                self.tuples += tuples.len() as u64;
                if self.tuples >= self.threshold {
                    Flow::Stop
                } else {
                    Flow::Continue
                }
            }
        }

        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        let make = factory(&schema, &tuples, 32);
        let full = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .run_sharded(&make)
            .unwrap();

        let mut stopper = StopAfter {
            tuples: 0,
            threshold: 20,
        };
        let err = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .observer(&mut stopper)
            .run_sharded(&make)
            .unwrap_err();
        let CrawlError::Stopped { partial } = err else {
            panic!("expected a live-event stop, got another failure");
        };
        assert!(partial.queries > 0, "the crawl had started");
        assert!(
            partial.queries < full.merged.queries,
            "the stop must spare queries the full crawl would have spent"
        );
        // Paid-for work is kept and truthful: a sub-bag of the truth.
        let truth: TupleBag = tuples.iter().collect();
        let got: TupleBag = partial.tuples.iter().collect();
        for (t, c) in got.iter() {
            assert!(c <= truth.count(t), "partial over-reports {t}");
        }
    }

    /// Plans must partition the space: pairwise-disjoint shard queries
    /// whose union matches every tuple exactly once — at every
    /// oversubscription factor, across every sub-splitting mode. Every
    /// signature parses back to its spec and needs no JSON escaping.
    #[test]
    fn plans_partition_the_space() {
        let adult = hdc_data::adult::schema();
        let small = [
            mixed_schema(),
            Schema::builder().numeric("x", -50, 49).build().unwrap(),
            Schema::builder()
                .categorical("a", 4)
                .categorical("b", 11)
                .build()
                .unwrap(),
            Schema::builder()
                .categorical("c", 3)
                .numeric("x", 0, 999)
                .build()
                .unwrap(),
        ];
        for schema in &small {
            for sessions in [1usize, 2, 5, 13] {
                for fact in [1usize, 3, 8] {
                    assert_partition(schema, sessions, fact);
                }
            }
        }
        // The dataset schemas, with the plan lengths the four-variant
        // planner produced, per sessions 1–4 × factors 1, 2, 8, 24.
        let datasets = [
            (
                hdc_data::yahoo::schema(),
                [1, 2, 8, 24, 2, 4, 16, 48, 3, 6, 24, 72, 4, 8, 32, 170],
            ),
            (
                adult.clone(),
                [1, 2, 8, 24, 2, 4, 16, 82, 3, 6, 24, 82, 4, 8, 32, 123],
            ),
            (
                hdc_data::nsf::schema(),
                [1, 2, 8, 24, 2, 4, 16, 48, 3, 6, 24, 72, 4, 8, 32, 96],
            ),
            (
                adult.project(&adult.num_indices()),
                [1, 2, 8, 24, 2, 4, 16, 48, 3, 6, 24, 72, 4, 8, 32, 96],
            ),
        ];
        for (schema, lengths) in &datasets {
            let mut expected = lengths.iter();
            for sessions in 1..=4usize {
                for fact in [1usize, 2, 8, 24] {
                    let plan = assert_partition(schema, sessions, fact);
                    assert_eq!(
                        Some(&plan.len()),
                        expected.next(),
                        "sessions={sessions} factor={fact}"
                    );
                }
            }
        }
    }

    /// Checks one plan: signatures round-trip and need no escaping, and
    /// the roots are pairwise disjoint and cover the space.
    fn assert_partition(schema: &Schema, sessions: usize, fact: usize) -> Vec<ShardSpec> {
        let plan = Sharded::plan_oversubscribed(schema, sessions, fact);
        for spec in &plan {
            let sig = spec.signature();
            assert!(!sig.contains(['"', '\\']), "{sig} needs escaping");
            assert_eq!(
                ShardSpec::parse_signature(&sig, schema).as_ref(),
                Ok(spec),
                "{sig}"
            );
        }
        // Roots pinning different values of the partition attribute are
        // disjoint, and a tuple can match only the roots pinning its
        // value: bucket the roots by that value.
        let partition = plan[0].order.first().copied();
        let mut buckets: std::collections::HashMap<Option<u32>, Vec<&Query>> = Default::default();
        for spec in &plan {
            assert_eq!(spec.order.first().copied(), partition);
            for q in spec.queries() {
                buckets
                    .entry(partition.map(|a| eq_value(q, a)))
                    .or_default()
                    .push(q);
            }
        }
        for bucket in buckets.values() {
            for (i, a) in bucket.iter().enumerate() {
                for b in &bucket[i + 1..] {
                    assert!(a.is_disjoint(b), "{a} overlaps {b}");
                }
            }
        }
        // Coverage: sample tuples all match exactly one query.
        for i in 0..200u64 {
            let t = Tuple::new(
                (0..schema.arity())
                    .map(|a| {
                        let h = crate::theory::mix(i * 64 + a as u64);
                        match schema.kind(a) {
                            hdc_types::AttrKind::Categorical { size } => {
                                Value::Cat((h % u64::from(size)) as u32)
                            }
                            hdc_types::AttrKind::Numeric { min, max } => {
                                let span = (max - min + 1) as u64;
                                Value::Int(min + (h % span) as i64)
                            }
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            let key = partition.map(|a| match t.get(a) {
                Value::Cat(v) => v,
                other => panic!("partition value {other}"),
            });
            let hits = buckets
                .get(&key)
                .map_or(0, |b| b.iter().filter(|q| q.matches(&t)).count());
            assert_eq!(hits, 1, "tuple {t} covered {hits} times");
        }
        // A resume reads the same plan back from its signatures.
        let checkpoint = CrawlCheckpoint::new(plan.iter().map(ShardSpec::signature).collect());
        let resumed = Sharded::plan_for(schema, Some(&checkpoint), 1, 1);
        assert_eq!(resumed.as_ref(), Ok(&plan));
        plan
    }
}
