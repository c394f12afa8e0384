//! Multi-session (sharded) crawling with a work-stealing scheduler.
//!
//! The paper's cost metric exists because "most systems have a control on
//! how many queries can be submitted by the same IP address within a
//! period of time" (§1.1). A crawler with access to several client
//! identities can therefore *partition* the data space and crawl the
//! parts concurrently, trading some duplicated slice work for wall-clock
//! time and per-identity quota headroom.
//!
//! # Plans and shards
//!
//! [`Sharded::plan_oversubscribed`] cuts the data space into disjoint
//! [`ShardSpec`]s along one partition attribute:
//!
//! * schemas with **categorical** attributes partition on the one with
//!   the largest domain; its values are dealt round-robin across shards.
//!   When the requested shard count exceeds the domain, each value is
//!   **sub-split** one level further — by the next-widest categorical
//!   attribute ([`ShardSpec::CatSub`]) or, failing that, by sub-ranges of
//!   the first numeric attribute ([`ShardSpec::CatNumRange`]);
//! * **numeric-only schemas** cut the first attribute's declared range
//!   into equal sub-ranges, one rank-shrink instance per shard.
//!
//! Shards cover disjoint subspaces, so concatenating the per-shard bags
//! reconstructs `D` exactly.
//!
//! # Scheduling: identities ≠ shards
//!
//! [`CrawlBuilder::run_sharded`] is the one driver of the pool.
//! [`CrawlBuilder::sessions`]`(n)` fixes the number of client
//! *identities* (worker threads, each with its own connection from the
//! caller's [`Connector`]). The *plan* is deliberately finer:
//! [`CrawlBuilder::oversubscribe`]`(factor)` produces `≈ sessions × factor`
//! shards, dealt to the workers dynamically by a minimal work-stealing
//! pool (vendored in `crates/compat/workpool`: a shared injector queue
//! plus per-worker deques, LIFO-local/FIFO-steal). A skew-heavy shard
//! then no longer gates wall-clock: while one worker grinds through the
//! heavy subtree, the others drain the rest of the plan instead of
//! idling. With `factor = 1` (the default) the plan degenerates to one
//! shard per session — the static placement this module had before the
//! pool existed — and per-shard costs are unchanged. The pool is the
//! plan's only executor: a one-session crawl, checkpointed or not, runs
//! on a one-worker pool.
//!
//! # Determinism contract
//!
//! Which worker runs which shard depends on timing and is **not**
//! deterministic. Everything the crawl *reports about the data* is:
//! each shard's query sequence (and hence its cost and extracted bag)
//! depends only on the shard spec and the database, never on the worker
//! or the order shards interleave, and the merged report concatenates
//! shard results **in plan order**. The `sharded_steal` differential
//! suite enforces this: a work-stealing run and a sequential
//! one-shard-at-a-time run of the same plan produce identical merged
//! bags, identical total cost, and identical per-shard costs.
//! Scheduling shows up only in wall-clock, in the per-identity
//! aggregation ([`ShardedReport::per_session`]), and in the
//! [`ShardedReport::pool`] counters.
//!
//! # Failure semantics
//!
//! A shard failing with a permanent [`CrawlError::Db`] retires its
//! worker (that identity's quota is spent; issuing one doomed query per
//! remaining shard would be waste), and so do [`TRANSIENT_STRIKES`]
//! consecutive shards failing with a transient one that outlived the
//! retry policy — the worker's remaining share is drained by
//! the surviving identities, so one crippled session still salvages
//! every shard a healthy session could reach. [`CrawlError::Unsolvable`]
//! does *not* retire the worker (the connection is fine; the data is
//! not), matching the old one-shard-per-thread behavior of completing
//! every other shard. Either way the first failure (in plan order) is
//! re-raised carrying the merged partial report.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use hdc_types::{AttrKind, Budgeted, DbError, HiddenDatabase, Predicate, Query, Schema};
use workpool::TaskCtx;
pub use workpool::{PoolStats, Source as TaskSource, Verdict, WorkerStats};

use crate::categorical::slice_cover::{extended_dfs_from, DfsRoot, LeafMode, SliceTable};
use crate::connector::Connector;
use crate::events::{ChannelObserver, EventSink, SessionEvent, EVENT_CHANNEL_CAPACITY};
use crate::numeric::rank_shrink::RankShrink;
use crate::orchestrate::{CancelToken, CrawlBuilder, CrawlObserver, Flow, ShardEvent};
use crate::report::{CrawlError, CrawlReport, ProgressPoint};
use crate::repository::{CrawlCheckpoint, CrawlRepository, ShardSnapshot};
use crate::retry::RetryPolicy;
use crate::session::{run_crawl, SessionConfig};

/// How one shard's share of the data space is described.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardSpec {
    /// A subset of the partition attribute's values.
    CatValues {
        /// Schema index of the partitioning attribute.
        attr: usize,
        /// The values this shard owns.
        values: Vec<u32>,
    },
    /// One partition value, sub-split by a second categorical attribute:
    /// the shard owns the subtrees `attr = value ∧ sub_attr = w` for
    /// every `w` in `sub_values`. Produced by over-partitioned plans when
    /// the partition domain alone is too coarse.
    CatSub {
        /// Schema index of the partitioning attribute.
        attr: usize,
        /// The pinned partition value.
        value: u32,
        /// Schema index of the secondary (sub-splitting) attribute.
        sub_attr: usize,
        /// The secondary values this shard owns.
        sub_values: Vec<u32>,
    },
    /// One partition value, sub-split by a numeric attribute's sub-range
    /// (for schemas whose only categorical attribute is the partition
    /// attribute). Empty when `lo > hi`.
    CatNumRange {
        /// Schema index of the partitioning attribute.
        attr: usize,
        /// The pinned partition value.
        value: u32,
        /// Schema index of the sub-splitting numeric attribute.
        num_attr: usize,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// A sub-range of the first numeric attribute's declared bounds
    /// (numeric-only schemas). Empty when `lo > hi`.
    NumRange {
        /// Schema index of the partitioning attribute.
        attr: usize,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

impl ShardSpec {
    /// The covering queries of this shard: one per owned subtree. Used to
    /// audit that a plan's shards are pairwise disjoint and jointly cover
    /// the space.
    pub fn queries(&self, schema: &Schema) -> Vec<Query> {
        match self {
            ShardSpec::CatValues { attr, values } => values
                .iter()
                .map(|&v| Query::any(schema.arity()).with_pred(*attr, Predicate::Eq(v)))
                .collect(),
            ShardSpec::CatSub {
                attr,
                value,
                sub_attr,
                sub_values,
            } => sub_values
                .iter()
                .map(|&w| {
                    Query::any(schema.arity())
                        .with_pred(*attr, Predicate::Eq(*value))
                        .with_pred(*sub_attr, Predicate::Eq(w))
                })
                .collect(),
            ShardSpec::CatNumRange {
                attr,
                value,
                num_attr,
                lo,
                hi,
            } => {
                if lo > hi {
                    Vec::new()
                } else {
                    vec![Query::any(schema.arity())
                        .with_pred(*attr, Predicate::Eq(*value))
                        .with_pred(*num_attr, Predicate::Range { lo: *lo, hi: *hi })]
                }
            }
            ShardSpec::NumRange { attr, lo, hi } => {
                if lo > hi {
                    Vec::new()
                } else {
                    vec![Query::any(schema.arity())
                        .with_pred(*attr, Predicate::Range { lo: *lo, hi: *hi })]
                }
            }
        }
    }

    /// A canonical, stable string naming exactly this shard's share of
    /// the data space. Two plans cut the same way produce the same
    /// signature sequence; checkpoints embed it so a resume against a
    /// different plan (schema, session count, or oversubscription
    /// changed) is detected instead of silently merging mismatched bags.
    pub fn signature(&self) -> String {
        match self {
            ShardSpec::CatValues { attr, values } => format!("cat:{attr}={values:?}"),
            ShardSpec::CatSub {
                attr,
                value,
                sub_attr,
                sub_values,
            } => format!("catsub:{attr}={value}:{sub_attr}={sub_values:?}"),
            ShardSpec::CatNumRange {
                attr,
                value,
                num_attr,
                lo,
                hi,
            } => format!("catnum:{attr}={value}:{num_attr}=[{lo},{hi}]"),
            ShardSpec::NumRange { attr, lo, hi } => format!("num:{attr}=[{lo},{hi}]"),
        }
    }

    /// Parses a [`ShardSpec::signature`] back into the spec — the wire
    /// half of the distributed protocol: a lease coordinator hands out
    /// shards *by signature* (the canonical name is the only thing that
    /// crosses the wire), and the worker reconstructs the spec to crawl
    /// it. Round-trips exactly: `parse_signature(&s.signature()) ==
    /// Some(s)` for every spec. Returns `None` on anything that is not a
    /// well-formed signature.
    pub fn parse_signature(sig: &str) -> Option<ShardSpec> {
        fn values(s: &str) -> Option<Vec<u32>> {
            let inner = s.strip_prefix('[')?.strip_suffix(']')?;
            if inner.trim().is_empty() {
                return Some(Vec::new());
            }
            inner
                .split(',')
                .map(|tok| tok.trim().parse::<u32>().ok())
                .collect()
        }
        fn range(s: &str) -> Option<(i64, i64)> {
            let inner = s.strip_prefix('[')?.strip_suffix(']')?;
            let (lo, hi) = inner.split_once(',')?;
            Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
        }
        if let Some(rest) = sig.strip_prefix("cat:") {
            let (attr, vals) = rest.split_once('=')?;
            return Some(ShardSpec::CatValues {
                attr: attr.parse().ok()?,
                values: values(vals)?,
            });
        }
        if let Some(rest) = sig.strip_prefix("catsub:") {
            let (first, second) = rest.split_once(':')?;
            let (attr, value) = first.split_once('=')?;
            let (sub_attr, sub_vals) = second.split_once('=')?;
            return Some(ShardSpec::CatSub {
                attr: attr.parse().ok()?,
                value: value.parse().ok()?,
                sub_attr: sub_attr.parse().ok()?,
                sub_values: values(sub_vals)?,
            });
        }
        if let Some(rest) = sig.strip_prefix("catnum:") {
            let (first, second) = rest.split_once(':')?;
            let (attr, value) = first.split_once('=')?;
            let (num_attr, bounds) = second.split_once('=')?;
            let (lo, hi) = range(bounds)?;
            return Some(ShardSpec::CatNumRange {
                attr: attr.parse().ok()?,
                value: value.parse().ok()?,
                num_attr: num_attr.parse().ok()?,
                lo,
                hi,
            });
        }
        if let Some(rest) = sig.strip_prefix("num:") {
            let (attr, bounds) = rest.split_once('=')?;
            let (lo, hi) = range(bounds)?;
            return Some(ShardSpec::NumRange {
                attr: attr.parse().ok()?,
                lo,
                hi,
            });
        }
        None
    }

    /// Crawls this shard on `db`, which must view the same logical
    /// database the plan was made for: [`ShardSpec::crawl_with`] under
    /// the default config, without a resume callback.
    ///
    /// The query sequence depends only on the spec and the database —
    /// not on what else ran on the connection — so a shard can be
    /// crawled on any session, in any order, even on another machine,
    /// and still produce exactly the result the plan promises. The
    /// in-process scheduler relies on this; truly distributed callers
    /// can drive shards through this method directly.
    pub fn crawl(
        &self,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
    ) -> Result<CrawlReport, CrawlError> {
        self.crawl_with(db, schema, SessionConfig::default(), None)
    }

    /// Crawls this shard under `config` (retry policy, cancellation,
    /// events). Retries do not change the charged query sequence (a
    /// transient failure charges nothing, and the deterministic server
    /// answers the re-issued query exactly as it would have answered the
    /// original), so the determinism contract holds under faults too.
    ///
    /// With a **resume boundary callback** `on_root`, the extended-DFS
    /// shard kinds ([`CatValues`] / [`CatSub`], the ones
    /// [`ShardSpec::resume_points`] reports resumable) crawl their root
    /// values one at a time on a *shared* slice table and session, and
    /// `on_root(done, interim)` fires after each completed root with the
    /// session's point-in-time report. A caller banks those interims as
    /// partial [`ShardSnapshot`]s (`frontier = done`): a crash mid-shard
    /// then replays only the suffix `resume_suffix(done)` instead of the
    /// whole shard.
    ///
    /// Equivalence: a root-level child of these shard kinds is always a
    /// slice query — fetched once through the (shared, memoizing) slice
    /// table whether the roots are expanded in one call or one at a
    /// time. The charged query multiset, total cost, tallies, metrics,
    /// and extracted **bag** (as a multiset) are therefore exactly the
    /// one-call crawl's; only database batch grouping and the
    /// interleaving of resolved root slices with sibling subtrees can
    /// differ, neither of which the cost model or the bag observes. The
    /// `resumable_equiv` differential test pins this. Numeric shards
    /// have no crawler-defined resume boundary (rank-shrink's split tree
    /// is adaptive, so the only safe checkpoint is the whole shard):
    /// `on_root` never fires for them.
    ///
    /// Without `on_root` the roots are expanded in one call, because
    /// only then can a database batch span several roots. The batch
    /// grouping is what the wire pays for: on the benchmark's
    /// `wire_skewed` workload (2 sessions over loopback HTTP, 82-shard
    /// Adult plan, shared 2-core x86-64 Linux host, 10 runs each) the
    /// per-root body raised the median crawl wall time by ~36% and cut
    /// charged queries per second by ~23% at the same charged cost.
    ///
    /// [`CatValues`]: ShardSpec::CatValues
    /// [`CatSub`]: ShardSpec::CatSub
    pub fn crawl_with(
        &self,
        db: &mut dyn HiddenDatabase,
        schema: &Schema,
        config: SessionConfig<'_>,
        on_root: Option<&mut OnRoot<'_>>,
    ) -> Result<CrawlReport, CrawlError> {
        let cat_dims = schema.cat_indices();
        let num_dims = schema.num_indices();
        let rank = RankShrink::new();
        run_crawl("sharded-hybrid", db, None, config, |session| {
            // The extended-DFS kinds promote their partition attribute(s)
            // to the first tree level(s) — keeping the others in schema
            // order — and expand only the owned root values.
            let (level_order, query, level, roots) = match self {
                ShardSpec::NumRange { attr, lo, hi } => {
                    if lo > hi {
                        return Ok(()); // empty shard
                    }
                    let root = Query::any(schema.arity())
                        .with_pred(*attr, Predicate::Range { lo: *lo, hi: *hi });
                    return rank.run_subspace(session, root, &num_dims);
                }
                ShardSpec::CatNumRange {
                    attr,
                    value,
                    num_attr,
                    lo,
                    hi,
                } => {
                    if lo > hi {
                        return Ok(());
                    }
                    // Rank-shrink over the numeric subspace of one pinned
                    // categorical value, restricted to the owned
                    // sub-range — the §5 "numeric server emulation" with
                    // one extra constraint.
                    let root = Query::any(schema.arity())
                        .with_pred(*attr, Predicate::Eq(*value))
                        .with_pred(*num_attr, Predicate::Range { lo: *lo, hi: *hi });
                    return rank.run_subspace(session, root, &num_dims);
                }
                ShardSpec::CatValues { attr, values } => {
                    let mut order = vec![*attr];
                    order.extend(cat_dims.iter().copied().filter(|a| a != attr));
                    (order, Query::any(schema.arity()), 0, values.as_slice())
                }
                ShardSpec::CatSub {
                    attr,
                    value,
                    sub_attr,
                    sub_values,
                } => {
                    // Start the DFS at the node pinning `attr = value`.
                    let mut order = vec![*attr, *sub_attr];
                    order.extend(
                        cat_dims
                            .iter()
                            .copied()
                            .filter(|a| a != attr && a != sub_attr),
                    );
                    let query =
                        Query::any(schema.arity()).with_pred(*attr, Predicate::Eq(*value));
                    (order, query, 1, sub_values.as_slice())
                }
            };
            if roots.is_empty() {
                return Ok(());
            }
            let mut table = SliceTable::new(schema, &level_order);
            if !num_dims.is_empty() && level_order.len() == 1 {
                // cat = 1: a numeric leaf's root is its slice query —
                // cache the overflowed leaf windows so the sub-crawl
                // needn't re-issue them (same rule as solo Hybrid, so
                // sharded and solo costs stay aligned).
                table.cache_leaf_windows();
            }
            let leaf = leaf_mode(&rank, &num_dims);
            let Some(on_root) = on_root else {
                return extended_dfs_from(
                    session,
                    &mut table,
                    &leaf,
                    DfsRoot {
                        query,
                        level,
                        filter: Some(roots),
                    },
                );
            };
            for (done, v) in roots.iter().enumerate() {
                extended_dfs_from(
                    session,
                    &mut table,
                    &leaf,
                    DfsRoot {
                        query: query.clone(),
                        level,
                        filter: Some(std::slice::from_ref(v)),
                    },
                )?;
                on_root(done as u64 + 1, &session.interim_report());
            }
            Ok(())
        })
    }
}

/// A resume-boundary callback for [`ShardSpec::crawl_with`]: fired with
/// the number of completed root values and the session's interim report.
pub type OnRoot<'a> = dyn FnMut(u64, &CrawlReport) + 'a;

/// Mid-flight checkpoints: a shard can bank its progress at
/// crawler-defined boundaries, so a crash replays only the
/// un-checkpointed suffix.
///
/// The boundary for the extended-DFS shard kinds is a *root value*: the
/// owned values of [`ShardSpec::CatValues`] (resp. the owned secondary
/// values of [`ShardSpec::CatSub`]) partition the shard's bag, and the
/// crawl visits them in order — so "the first `c` roots are done" is a
/// complete description of a prefix, and the remaining work is exactly
/// the shard made of the remaining roots. Numeric shards (rank-shrink)
/// have no such static boundary and report themselves non-resumable.
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
    /// How many resume boundaries (root values) this shard has, or
    /// `None` if it cannot checkpoint mid-flight.
    pub fn resume_points(&self) -> Option<usize> {
        match self {
            ShardSpec::CatValues { values, .. } => Some(values.len()),
            ShardSpec::CatSub { sub_values, .. } => Some(sub_values.len()),
            ShardSpec::CatNumRange { .. } | ShardSpec::NumRange { .. } => None,
        }
    }

    /// The shard covering everything after the first `cursor` completed
    /// roots. `None` for non-resumable shards or an out-of-range cursor.
    /// `resume_suffix(0)` is the whole shard (modulo being a fresh
    /// value).
    pub fn resume_suffix(&self, cursor: usize) -> Option<ShardSpec> {
        match self {
            ShardSpec::CatValues { attr, values } => {
                if cursor > values.len() {
                    return None;
                }
                Some(ShardSpec::CatValues {
                    attr: *attr,
                    values: values[cursor..].to_vec(),
                })
            }
            ShardSpec::CatSub {
                attr,
                value,
                sub_attr,
                sub_values,
            } => {
                if cursor > sub_values.len() {
                    return None;
                }
                Some(ShardSpec::CatSub {
                    attr: *attr,
                    value: *value,
                    sub_attr: *sub_attr,
                    sub_values: sub_values[cursor..].to_vec(),
                })
            }
            ShardSpec::CatNumRange { .. } | ShardSpec::NumRange { .. } => None,
        }
    }
}

fn leaf_mode<'a>(rank: &'a RankShrink<'a>, num_dims: &'a [usize]) -> LeafMode<'a> {
    if num_dims.is_empty() {
        LeafMode::Point
    } else {
        LeafMode::Numeric {
            rank,
            dims: num_dims,
        }
    }
}

/// One executed shard: where it ran, how long it took, what it cost.
#[derive(Debug)]
pub struct ShardRun {
    /// The shard's spec (position in [`ShardedReport::shards`] = position
    /// in the plan).
    pub spec: ShardSpec,
    /// The worker (client identity) that executed the shard.
    pub worker: usize,
    /// How the worker acquired the shard (seeded / injector / stolen).
    pub source: TaskSource,
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
    /// and its `worker`/`source`/`wall` are placeholders.
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
    /// Scheduler counters: per-worker executed/stolen counts, busy time,
    /// and the run's wall clock.
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

    /// Total shards acquired by stealing from a peer's deque.
    pub fn steals(&self) -> u64 {
        self.pool.steals()
    }
}

/// The shard planner: cuts a schema's data space into disjoint covering
/// [`ShardSpec`]s. The plans run on the work-stealing pool through
/// [`CrawlBuilder::run_sharded`]; distributed callers hand them out by
/// [`ShardSpec::signature`] and crawl each with [`ShardSpec::crawl`].
#[derive(Debug)]
pub struct Sharded;

/// How many *consecutive* shards may fail with a transient error (after
/// exhausting their session's retries) before the identity is considered
/// unhealthy and retired from the pool. A permanent database error still
/// retires the worker immediately; a successful shard resets the count.
pub const TRANSIENT_STRIKES: u32 = 2;

impl Sharded {
    /// Plans the disjoint covering shards for a schema: the
    /// static-equivalent plan, one shard per session
    /// (`plan_oversubscribed` with factor 1).
    pub fn plan(schema: &Schema, sessions: usize) -> Vec<ShardSpec> {
        Self::plan_oversubscribed(schema, sessions, 1)
    }

    /// Plans `≈ sessions × factor` disjoint covering shards.
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
    /// Shards may be empty when the requested count exceeds the domain.
    pub fn plan_oversubscribed(
        schema: &Schema,
        sessions: usize,
        factor: usize,
    ) -> Vec<ShardSpec> {
        assert!(sessions >= 1);
        assert!(factor >= 1);
        let target = sessions.saturating_mul(factor);
        let widest_cat = schema
            .cat_indices()
            .into_iter()
            .max_by_key(|&a| schema.kind(a).domain_size().expect("categorical"));
        let Some(attr) = widest_cat else {
            // Numeric-only schema: equal sub-ranges of the first attribute.
            let attr = 0;
            let AttrKind::Numeric { min, max } = schema.kind(attr) else {
                unreachable!("schemas are non-empty and all-numeric here")
            };
            return split_range(min, max, target)
                .into_iter()
                .map(|(lo, hi)| ShardSpec::NumRange { attr, lo, hi })
                .collect();
        };
        let size = schema.kind(attr).domain_size().expect("categorical");
        if size as usize >= target || factor == 1 {
            // Enough values to deal one subtree set per shard (factor 1
            // keeps the historical shape even when values run short:
            // `sessions` shards, some possibly empty).
            let mut values: Vec<Vec<u32>> = vec![Vec::new(); target];
            for v in 0..size {
                values[(v as usize) % target].push(v);
            }
            return values
                .into_iter()
                .map(|values| ShardSpec::CatValues { attr, values })
                .collect();
        }
        // Fewer values than requested shards: sub-split every value.
        let per_value = target.div_ceil(size as usize);
        let sub_cat = schema
            .cat_indices()
            .into_iter()
            .filter(|&a| a != attr)
            .max_by_key(|&a| schema.kind(a).domain_size().expect("categorical"));
        let mut shards = Vec::new();
        if let Some(sub_attr) = sub_cat {
            let sub_size = schema.kind(sub_attr).domain_size().expect("categorical");
            let pieces = per_value.min(sub_size as usize);
            for value in 0..size {
                let mut groups: Vec<Vec<u32>> = vec![Vec::new(); pieces];
                for w in 0..sub_size {
                    groups[(w as usize) % pieces].push(w);
                }
                for sub_values in groups {
                    shards.push(ShardSpec::CatSub {
                        attr,
                        value,
                        sub_attr,
                        sub_values,
                    });
                }
            }
        } else if let Some(&num_attr) = schema.num_indices().first() {
            let AttrKind::Numeric { min, max } = schema.kind(num_attr) else {
                unreachable!("num_indices returns numeric attributes")
            };
            for value in 0..size {
                for (lo, hi) in split_range(min, max, per_value) {
                    shards.push(ShardSpec::CatNumRange {
                        attr,
                        value,
                        num_attr,
                        lo,
                        hi,
                    });
                }
            }
        } else {
            // Single categorical attribute: one value per shard is the
            // finest partition that exists.
            for value in 0..size {
                shards.push(ShardSpec::CatValues {
                    attr,
                    values: vec![value],
                });
            }
        }
        shards
    }
}

impl CrawlBuilder<'_> {
    /// The pool executor behind [`CrawlBuilder::run_sharded`]: runs
    /// `schema`'s plan across the builder's sessions, with its
    /// oversubscription, retry policy, per-identity budget, observer,
    /// cancel token, and repository. `shard_crawl` crawls one shard; its
    /// query sequence may depend only on the shard spec and the
    /// database, never on the worker or what ran before on the
    /// connection (the determinism contract in the module docs).
    pub(crate) fn run_pool<C, G>(
        self,
        schema: &Schema,
        connector: C,
        shard_crawl: G,
    ) -> Result<ShardedReport, CrawlError>
    where
        C: Connector,
        G: Fn(
                &ShardSpec,
                &mut dyn HiddenDatabase,
                SessionConfig<'_>,
            ) -> Result<CrawlReport, CrawlError>
            + Sync,
    {
        let internal_halt = CancelToken::new();
        let run = ShardedRun::prepare(
            schema,
            self.sessions,
            self.oversubscribe,
            self.retry,
            self.cancel.unwrap_or(&internal_halt),
            self.repository,
        )?;
        let mut observer = self.observer;
        let (slots, stats) = match self.budget {
            // Per-identity quota: each connection carries its own
            // allowance, matching how real sites meter queries (§1.1).
            Some(limit) => run.execute(
                |s| Budgeted::new(connector.connect(s), limit),
                &shard_crawl,
                observer.as_deref_mut(),
            ),
            None => run.execute(connector, &shard_crawl, observer.as_deref_mut()),
        };
        run.finish(slots, stats, observer)
    }
}

/// One shard's crawl as the pool runs it: the shard on one connection,
/// under the [`SessionConfig`] the pool hands it (the crawl's retry
/// policy, halt token, and the shard's event route).
type ShardCrawl<'g> = dyn Fn(&ShardSpec, &mut dyn HiddenDatabase, SessionConfig<'_>) -> Result<CrawlReport, CrawlError>
    + Sync
    + 'g;

/// One sharded crawl from plan to merge: planning, checkpoint restore,
/// the work-stealing pool that deals tasks to connections with the event
/// channel that carries them to the observer, the per-shard run with its
/// identity-health verdict and journal write, and the reassembly for the
/// merge.
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
    /// Plans the crawl and, with a repository, restores its checkpoint.
    fn prepare(
        schema: &Schema,
        sessions: usize,
        oversubscribe: usize,
        retry: RetryPolicy,
        halt: &'h CancelToken,
        mut repository: Option<&'r mut dyn CrawlRepository>,
    ) -> Result<Self, CrawlError> {
        let plan = Sharded::plan_oversubscribed(schema, sessions, oversubscribe);
        let signatures: Vec<String> = plan.iter().map(ShardSpec::signature).collect();
        let mut restored: Vec<Option<ShardSnapshot>> = (0..plan.len()).map(|_| None).collect();
        if let Some(repo) = repository.as_deref_mut() {
            let failed = |error: String| CrawlError::Db {
                error: DbError::Backend(error),
                partial: Box::new(CrawlReport::empty("sharded-hybrid")),
            };
            match repo.load() {
                Ok(None) => {}
                Ok(Some(checkpoint)) => {
                    // A stale checkpoint is a typed, recoverable error —
                    // the caller prints the hint and exits cleanly — not
                    // a panic that would take a whole fleet down.
                    checkpoint
                        .verify_plan(&signatures)
                        .map_err(|e| failed(e.to_string()))?;
                    for snap in checkpoint.shards {
                        // Partial (frontier-bearing) snapshots belong to
                        // the lease coordinator's salvage path; whole-plan
                        // resume re-crawls such shards from scratch, which
                        // is always correct.
                        if snap.is_complete() {
                            let index = snap.index;
                            restored[index] = Some(snap);
                        }
                    }
                }
                Err(e) => return Err(failed(format!("checkpoint load failed: {e}"))),
            }
        }
        let journal = repository.map(|repo| {
            let seeded = CrawlCheckpoint {
                plan: signatures,
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

    /// Runs the shards left to crawl on the work-stealing pool, one
    /// worker per session, each owning the connection `connector` mints
    /// for it. With an observer, every shard session's events stream
    /// live through a bounded channel into a [`Relay`].
    fn execute<C: Connector>(
        &self,
        connector: C,
        shard_crawl: &ShardCrawl<'_>,
        observer: Option<&mut (dyn CrawlObserver + '_)>,
    ) -> (Vec<Option<PendingRun>>, PoolStats) {
        let pool = workpool::Pool::new(self.sessions);
        // The pool run, parameterized over the live event sink so the
        // observed and unobserved paths share one task closure: with a
        // sink, every shard session's observer is a channel proxy that
        // streams its events, tagged with the plan index.
        let run_tasks = |events: Option<EventSink>| {
            pool.run_cancellable(
                self.tasks(),
                |w| (connector.connect(w), 0),
                |(db, strikes): &mut (C::Db, u32), ctx, task: (usize, ShardSpec)| {
                    let mut proxy = events
                        .as_ref()
                        .map(|sink| ChannelObserver::new(sink.for_shard(task.0)));
                    let config = SessionConfig {
                        observer: proxy.as_mut().map(|p| p as &mut dyn CrawlObserver),
                        ..SessionConfig::default()
                    };
                    self.shard(shard_crawl, db, strikes, ctx, task, config)
                },
                Some(self.halt.flag()),
            )
        };
        let Some(obs) = observer else {
            return run_tasks(None);
        };
        // Live streaming: the pool runs on its own (scoped) thread while
        // this one drains the event channel into the observer. The drain
        // ends when the pool drops the last sender.
        let (tx, rx) = chan::bounded(EVENT_CHANNEL_CAPACITY);
        let sink = EventSink::new(tx, 0);
        let mut relay = Relay::new(obs, self);
        std::thread::scope(|scope| {
            let pool_run = scope.spawn(move || run_tasks(Some(sink)));
            while let Ok(event) = rx.recv() {
                relay.forward(event);
            }
            let (slots, mut stats) = pool_run.join().expect("pool thread panicked");
            // An observer Stop that lands as the pool drains its last
            // shard can post-date the pool's own sample of the flag; the
            // merge must still see it.
            stats.cancelled |= relay.stopped;
            (slots, stats)
        })
    }

    /// The shards left to crawl, with their plan indices.
    fn tasks(&self) -> Vec<(usize, ShardSpec)> {
        self.plan
            .iter()
            .enumerate()
            .filter(|(i, _)| self.restored[*i].is_none())
            .map(|(i, spec)| (i, spec.clone()))
            .collect()
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

    /// Crawls one shard on one identity's connection and decides whether
    /// the identity keeps working. The pool's `config` carries the
    /// shard's channel observer; the run adds the retry policy and the
    /// halt token. `strikes` counts the identity's consecutive transient
    /// shard failures (retired at [`TRANSIENT_STRIKES`]).
    fn shard<'c>(
        &self,
        shard_crawl: &ShardCrawl<'_>,
        db: &mut dyn HiddenDatabase,
        strikes: &mut u32,
        ctx: &TaskCtx,
        (index, spec): (usize, ShardSpec),
        mut config: SessionConfig<'c>,
    ) -> (PendingRun, Verdict)
    where
        'h: 'c,
    {
        let begun = Instant::now();
        config.retry = self.retry.clone();
        config.cancel = Some(self.halt);
        let result = shard_crawl(&spec, db, config);
        // Identity health. A permanent database failure means this
        // identity is dead (quota exhausted, banned): retire the worker
        // instead of burning one doomed query per remaining shard. A
        // *transient* failure that survived the retry policy marks a
        // strike — the identity is flaky, but only repeated consecutive
        // strikes retire it. An unsolvable instance leaves the connection
        // healthy, and a stopped shard halts the whole crawl instead.
        let verdict = match &result {
            Ok(_) => {
                *strikes = 0;
                Verdict::Continue
            }
            Err(CrawlError::Db { error, .. }) if error.is_transient() => {
                *strikes += 1;
                if *strikes >= TRANSIENT_STRIKES {
                    Verdict::Retire
                } else {
                    Verdict::Continue
                }
            }
            Err(CrawlError::Db { .. }) => Verdict::Retire,
            Err(CrawlError::Stopped { .. }) => {
                self.halt.cancel();
                Verdict::Continue
            }
            Err(CrawlError::Unsolvable { .. }) => Verdict::Continue,
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
            index,
            spec,
            worker: ctx.worker,
            source: ctx.source,
            wall: begun.elapsed(),
            result,
            restored: false,
        };
        (run, verdict)
    }

    /// Reassembles plan order — live results at their plan index,
    /// snapshotted shards replayed as pre-completed runs — and merges.
    fn finish(
        self,
        slots: Vec<Option<PendingRun>>,
        pool: PoolStats,
        observer: Option<&mut dyn CrawlObserver>,
    ) -> Result<ShardedReport, CrawlError> {
        let mut full: Vec<Option<PendingRun>> = (0..self.plan.len()).map(|_| None).collect();
        for run in slots.into_iter().flatten() {
            let index = run.index;
            full[index] = Some(run);
        }
        for (index, snap) in self.restored.into_iter().enumerate() {
            let Some(snap) = snap else { continue };
            full[index] = Some(PendingRun {
                index,
                spec: self.plan[index].clone(),
                worker: 0,
                source: TaskSource::Seeded,
                wall: Duration::ZERO,
                result: Ok(CrawlReport::from(snap)),
                restored: true,
            });
        }
        let store_error = self.store_error.into_inner().expect("store_error poisoned");
        merge_results(full, pool, observer, store_error)
    }
}

/// Delivers a crawl's live within-shard events, drained from the pool's
/// channel, to its observer: query and tuple events pass through as-is,
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

    /// Delivers one event drained from the pool's channel.
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

/// One shard's outcome as it comes off the pool (or out of a
/// checkpoint), before merging.
struct PendingRun {
    index: usize,
    spec: ShardSpec,
    worker: usize,
    source: TaskSource,
    wall: Duration,
    result: Result<CrawlReport, CrawlError>,
    restored: bool,
}

enum Failure {
    Db(DbError),
    Unsolvable(Query),
    /// The crawl was stopped: an observer's live [`Flow::Stop`] or a
    /// cancelled token halted the pool, or a custom crawler's internal
    /// observer stopped its shard.
    Stopped,
}

/// Records one crawl's scheduler counters into the process-wide
/// telemetry registry ([`hdc_obs::registry`]): shards executed, steals,
/// injector hits, retired identities, and a histogram of per-worker
/// idle time. Once per crawl, off the hot path, and gated on
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
        "hdc_pool_steals_total",
        "Shards stolen from peer worker deques",
    )
    .add(pool.steals());
    r.counter(
        "hdc_pool_injected_total",
        "Shards taken from the shared injector queue",
    )
    .add(pool.injected());
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
    // single interleaved curve would be fictitious).
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
        // identity retired first); the pool counts them in `unrun` and
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
                source: run.source,
                queries: report.queries,
                tuples,
                failed,
                restored: run.restored,
            });
        }
        shards.push(ShardRun {
            spec: run.spec,
            worker: run.worker,
            source: run.source,
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
/// inclusive sub-ranges of near-equal width, padding with empty
/// (`lo > hi`) ranges when the domain has fewer values than `parts`.
fn split_range(min: i64, max: i64, parts: usize) -> Vec<(i64, i64)> {
    let width = (max as i128 - min as i128 + 1) as u128;
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = min as i128;
    for s in 0..parts {
        let hi = min as i128 + (width * (s as u128 + 1) / parts as u128) as i128 - 1;
        if lo > hi {
            // Degenerate: more shards than domain values.
            ranges.push((1, 0));
        } else {
            ranges.push((lo as i64, hi as i64));
            lo = hi + 1;
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrate::Crawl;
    use crate::validate::verify_complete;
    use crate::Crawler;
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

    #[test]
    fn plan_round_robins_categorical_values() {
        let plan = Sharded::plan(&mixed_schema(), 3);
        assert_eq!(plan.len(), 3);
        assert_eq!(
            plan[0],
            ShardSpec::CatValues {
                attr: 0,
                values: vec![0, 3, 6]
            }
        );
        assert_eq!(
            plan[1],
            ShardSpec::CatValues {
                attr: 0,
                values: vec![1, 4]
            }
        );
        assert_eq!(
            plan[2],
            ShardSpec::CatValues {
                attr: 0,
                values: vec![2, 5]
            }
        );
    }

    #[test]
    fn plan_splits_numeric_ranges_evenly() {
        let schema = Schema::builder().numeric("x", 0, 99).build().unwrap();
        let plan = Sharded::plan(&schema, 4);
        assert_eq!(
            plan,
            vec![
                ShardSpec::NumRange {
                    attr: 0,
                    lo: 0,
                    hi: 24
                },
                ShardSpec::NumRange {
                    attr: 0,
                    lo: 25,
                    hi: 49
                },
                ShardSpec::NumRange {
                    attr: 0,
                    lo: 50,
                    hi: 74
                },
                ShardSpec::NumRange {
                    attr: 0,
                    lo: 75,
                    hi: 99
                },
            ]
        );
    }

    #[test]
    fn oversubscribed_plan_deals_finer_while_domain_lasts() {
        // 7 values, 2 sessions × factor 3 = 6 shards: still one
        // round-robin CatValues deal, just finer.
        let plan = Sharded::plan_oversubscribed(&mixed_schema(), 2, 3);
        assert_eq!(plan.len(), 6);
        assert_eq!(
            plan[0],
            ShardSpec::CatValues {
                attr: 0,
                values: vec![0, 6]
            }
        );
        assert_eq!(
            plan[5],
            ShardSpec::CatValues {
                attr: 0,
                values: vec![5]
            }
        );
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
                .flat_map(|(_, s)| match s {
                    ShardSpec::CatValues { values, .. } => values.clone(),
                    _ => unreachable!(),
                })
                .collect();
            fine.sort_unstable();
            let ShardSpec::CatValues { values, .. } = coarse_shard else {
                unreachable!()
            };
            assert_eq!(&fine, values);
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
        assert_eq!(
            plan[0],
            ShardSpec::CatSub {
                attr: 1,
                value: 0,
                sub_attr: 0,
                sub_values: vec![0, 2]
            }
        );
        assert_eq!(
            plan[1],
            ShardSpec::CatSub {
                attr: 1,
                value: 0,
                sub_attr: 0,
                sub_values: vec![1]
            }
        );
        assert_eq!(
            plan[9],
            ShardSpec::CatSub {
                attr: 1,
                value: 4,
                sub_attr: 0,
                sub_values: vec![1]
            }
        );
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
        assert_eq!(
            plan[0],
            ShardSpec::CatNumRange {
                attr: 0,
                value: 0,
                num_attr: 1,
                lo: 0,
                hi: 49
            }
        );
        assert_eq!(
            plan[3],
            ShardSpec::CatNumRange {
                attr: 0,
                value: 1,
                num_attr: 1,
                lo: 50,
                hi: 99
            }
        );
    }

    #[test]
    fn oversubscribed_plan_caps_at_single_values_for_1d_categorical() {
        let schema = Schema::builder().categorical("only", 4).build().unwrap();
        let plan = Sharded::plan_oversubscribed(&schema, 3, 5);
        // No secondary attribute exists: the finest partition is one
        // value per shard.
        assert_eq!(plan.len(), 4);
        for (v, spec) in plan.iter().enumerate() {
            assert_eq!(
                spec,
                &ShardSpec::CatValues {
                    attr: 0,
                    values: vec![v as u32]
                }
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
    fn single_session_matches_hybrid_cost_shape() {
        let schema = mixed_schema();
        let tuples = mixed_tuples(2_000);
        let sharded = Crawl::builder()
            .sessions(1)
            .run_sharded(factory(&schema, &tuples, 32))
            .unwrap();
        let mut db = HiddenDbServer::new(
            schema.clone(),
            tuples.clone(),
            ServerConfig { k: 32, seed: 17 },
        )
        .unwrap();
        let hybrid = crate::Hybrid::new().crawl(&mut db).unwrap();
        assert_eq!(sharded.merged.queries, hybrid.queries);
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
        // …at a bounded total overhead (re-fetched slices etc.).
        assert!(quad.merged.queries <= 2 * single.merged.queries);
    }

    /// The merged bag, total cost, and *per-shard* costs of a
    /// work-stealing run must equal a sequential one-shard-at-a-time run
    /// of the same plan — scheduling is invisible to everything but
    /// wall-clock (see module docs).
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
        // to numeric sub-ranges per value (CatNumRange shards).
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
        assert!(report
            .shards
            .iter()
            .all(|r| matches!(r.spec, ShardSpec::CatNumRange { .. })));
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
    }

    /// Holds the healthy identities' queries until identity 0 has
    /// struck its budget (or a generous timeout passes), so they cannot
    /// steal every shard before the crippled identity issues a query —
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
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn zero_sessions_rejected() {
        let _ = Crawl::builder().sessions(0);
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
        use std::sync::atomic::{AtomicBool, Ordering};

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
        let plan = Sharded::plan(&schema, 2);
        // Identity 0 has no quota: its seeded shard 0 fails on its first
        // query. Every other shard waits for that failure before it
        // crawls, so the live stop (fired by the first charged query)
        // can never keep shard 0 from running.
        let shard0_failed = AtomicBool::new(false);
        let mut stopper = StopAtFirstQuery::default();
        let result = Crawl::builder()
            .sessions(2)
            .observer(&mut stopper)
            .run_pool(
                &schema,
                |s| Budgeted::new(make(s), if s == 0 { 0 } else { u64::MAX }),
                |spec: &ShardSpec, db: &mut dyn HiddenDatabase, config: SessionConfig<'_>| {
                    let first = spec == &plan[0];
                    while !first && !shard0_failed.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    let result = spec.crawl_with(db, &schema, config, None);
                    if first {
                        shard0_failed.store(true, Ordering::Release);
                    }
                    result
                },
            );
        assert!(stopper.stopped, "the observer stopped the crawl");
        assert!(
            matches!(result, Err(CrawlError::Db { .. })),
            "expected the budget failure to win over the stop, got {result:?}"
        );
    }

    /// The tentpole property: a sharded crawl streams within-shard
    /// `on_query`/`on_tuples`/`on_progress` events to the observer
    /// *live* (they arrive through the bounded channel while the pool
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
    /// oversubscription factor, across every sub-splitting mode.
    #[test]
    fn plans_partition_the_space() {
        let schemas = [
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
        for schema in &schemas {
            for sessions in [1usize, 2, 5, 13] {
                for fact in [1usize, 3, 8] {
                    let plan = Sharded::plan_oversubscribed(schema, sessions, fact);
                    let queries: Vec<Query> =
                        plan.iter().flat_map(|s| s.queries(schema)).collect();
                    for (i, a) in queries.iter().enumerate() {
                        for b in &queries[i + 1..] {
                            assert!(a.is_disjoint(b), "{a} overlaps {b}");
                        }
                    }
                    // Coverage: sample tuples all match exactly one query.
                    for i in 0..200u64 {
                        let h = crate::theory::mix(i);
                        let t = Tuple::new(
                            (0..schema.arity())
                                .map(|a| match schema.kind(a) {
                                    hdc_types::AttrKind::Categorical { size } => {
                                        Value::Cat(((h >> (a * 8)) % u64::from(size)) as u32)
                                    }
                                    hdc_types::AttrKind::Numeric { min, max } => {
                                        let span = (max - min + 1) as u64;
                                        Value::Int(min + ((h >> (a * 8)) % span) as i64)
                                    }
                                })
                                .collect::<Vec<_>>(),
                        );
                        let hits = queries.iter().filter(|q| q.matches(&t)).count();
                        assert_eq!(hits, 1, "tuple {t} covered {hits} times");
                    }
                }
            }
        }
    }
}
