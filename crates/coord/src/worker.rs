//! The worker loop: lease a shard, crawl it with per-root heartbeats,
//! merge any salvaged prefix, report completion, repeat until the plan
//! drains. `hdc work --join URL` is a thin wrapper over
//! [`drive_worker`]; the in-process fleet tests drive it directly
//! against a [`crate::MemoryLeaseRepository`].
//!
//! Heartbeats ride the crawl's own resume boundaries
//! ([`hdc_core::ShardSpec::crawl_with`]'s resume callback fires after
//! every completed root value), so no timer thread exists: a worker
//! that crashes or stalls simply stops heartbeating, its lease lapses,
//! and a peer salvages the shard from the last banked partial. A
//! heartbeat answered `lost` trips the session's [`CancelToken`], so
//! the worker abandons the shard before issuing further queries.

use std::io;
use std::time::Duration;

use hdc_core::{
    snapshot_of_report, CancelToken, CrawlError, CrawlMetrics, CrawlReport, ResumableShard,
    RetryPolicy, SessionConfig, ShardSnapshot, ShardSpec,
};
use hdc_types::{DbError, HiddenDatabase, Schema};

use crate::lease::{LeaseDecision, LeaseRepository};

/// Worker behavior knobs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Display name sent with lease requests (logs only).
    pub name: String,
    /// Retry policy for the data connection, threaded into every
    /// shard session.
    pub retry: RetryPolicy,
    /// Ceiling on how long one `wait` pause may sleep — the coordinator
    /// suggests a delay, the worker polls at least this often.
    pub wait_cap_ms: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".to_string(),
            retry: RetryPolicy::default(),
            wait_cap_ms: 200,
        }
    }
}

/// What one worker did over its lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerReport {
    /// Shards leased, crawled, and accepted.
    pub shards_completed: u64,
    /// Shards whose lease was lost mid-crawl or whose completion was
    /// rejected as stale (a peer salvaged them — no work is lost).
    pub shards_lost: u64,
    /// Grants that carried a salvaged partial (this worker resumed a
    /// peer's shard mid-flight).
    pub shards_resumed: u64,
    /// Queries this worker charged for *accepted* shards.
    pub queries: u64,
    /// Tuples this worker delivered in accepted shards.
    pub tuples: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// `wait` pauses taken.
    pub waits: u64,
}

/// Merges a salvaged prefix snapshot with a freshly crawled suffix
/// report into one snapshot for shard `index`.
///
/// The resume boundary partitions the shard's bag by root value, so
/// prefix + suffix tuples concatenated are exactly the whole shard's
/// bag (as a multiset). The query accounting records the honest spend
/// of both passes: the suffix may re-pay slice fetches it shared with
/// the prefix, but it is always strictly cheaper than a whole-shard
/// redo (`fleet_equiv` pins both). `frontier` is `None` for a
/// completed shard, or the new cursor for a heartbeat partial.
pub fn merge_snapshot(
    index: usize,
    prefix: Option<&ShardSnapshot>,
    suffix: &CrawlReport,
    frontier: Option<u64>,
) -> ShardSnapshot {
    let mut snap = snapshot_of_report(index, suffix, frontier);
    let Some(p) = prefix else {
        return snap;
    };
    snap.queries += p.queries;
    snap.resolved += p.resolved;
    snap.overflowed += p.overflowed;
    snap.pruned += p.pruned;
    let mut merged = CrawlMetrics::default();
    merged.merge_from(&p.metrics);
    merged.merge_from(&snap.metrics);
    snap.metrics = merged;
    let mut tuples = p.tuples.clone();
    tuples.extend(snap.tuples.iter().cloned());
    snap.tuples = tuples;
    snap
}

/// A coordination failure (transport or protocol), shaped as the crawl
/// error the caller already handles.
fn coord_failure(e: io::Error) -> CrawlError {
    CrawlError::Db {
        error: DbError::Backend(format!("coordination: {e}")),
        partial: Box::new(CrawlReport {
            algorithm: "fleet-worker",
            tuples: Vec::new(),
            queries: 0,
            resolved: 0,
            overflowed: 0,
            pruned: 0,
            metrics: CrawlMetrics::default(),
            progress: Vec::new(),
        }),
    }
}

/// Runs the lease → crawl → report loop until the coordinator answers
/// `drained`.
///
/// Each granted shard is crawled with [`ShardSpec::crawl_with`] and a
/// resume callback; after every completed
/// root value the worker heartbeats, banking a partial snapshot
/// (`frontier` = roots done, salvaged prefix included) so a peer can
/// resume from exactly that point if this worker dies. A grant carrying
/// a salvaged partial is resumed from its frontier: the worker crawls
/// only [`ResumableShard::resume_suffix`] and merges via
/// [`merge_snapshot`].
pub fn drive_worker(
    repo: &mut dyn LeaseRepository,
    db: &mut dyn HiddenDatabase,
    schema: &Schema,
    cfg: &WorkerConfig,
) -> Result<WorkerReport, CrawlError> {
    let mut report = WorkerReport::default();
    loop {
        match repo.lease(&cfg.name).map_err(coord_failure)? {
            LeaseDecision::Drained => return Ok(report),
            LeaseDecision::Wait { retry_ms } => {
                report.waits += 1;
                std::thread::sleep(Duration::from_millis(
                    retry_ms.clamp(1, cfg.wait_cap_ms.max(1)),
                ));
            }
            LeaseDecision::Grant(g) => {
                let Some(spec) = ShardSpec::parse_signature(&g.signature) else {
                    return Err(coord_failure(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unparseable shard signature {:?} (version skew?)", g.signature),
                    )));
                };
                // A salvaged partial moves the start line: crawl only
                // the suffix and merge the prefix back in. If the spec
                // cannot resume (or the cursor is somehow out of
                // range), recrawl the whole shard and drop the prefix —
                // never merge a prefix the crawl also covers.
                let cursor = g.partial.as_ref().and_then(|p| p.frontier).unwrap_or(0) as usize;
                let (run_spec, prefix) = if cursor > 0 {
                    match spec.resume_suffix(cursor) {
                        Some(suffix) => (suffix, g.partial.as_ref()),
                        None => (spec.clone(), None),
                    }
                } else {
                    (spec.clone(), None)
                };
                if prefix.is_some() {
                    report.shards_resumed += 1;
                }

                let halt = CancelToken::new();
                let mut lease_lost = false;
                let mut coord_err: Option<io::Error> = None;
                let result = {
                    let halt_ref = &halt;
                    let heartbeats = &mut report.heartbeats;
                    let lease_lost = &mut lease_lost;
                    let coord_err = &mut coord_err;
                    run_spec.crawl_with(
                        db,
                        schema,
                        SessionConfig {
                            retry: cfg.retry.clone(),
                            cancel: Some(halt_ref),
                            ..SessionConfig::default()
                        },
                        Some(&mut |done, interim| {
                            *heartbeats += 1;
                            let banked = merge_snapshot(
                                g.index,
                                prefix,
                                interim,
                                Some(cursor as u64 + done),
                            );
                            match repo.heartbeat(g.index, g.lease, Some(&banked)) {
                                Ok(true) => {}
                                Ok(false) => {
                                    *lease_lost = true;
                                    halt_ref.cancel();
                                }
                                Err(e) => {
                                    *coord_err = Some(e);
                                    halt_ref.cancel();
                                }
                            }
                        }),
                    )
                };

                match result {
                    Ok(shard_report) => {
                        let snapshot = merge_snapshot(g.index, prefix, &shard_report, None);
                        match repo
                            .complete(g.index, g.lease, snapshot)
                            .map_err(coord_failure)?
                        {
                            Some(_new) => {
                                report.shards_completed += 1;
                                report.queries += shard_report.queries;
                                report.tuples += shard_report.tuples.len() as u64;
                            }
                            // Stale: the lease lapsed and a peer owns the
                            // shard now. Its result will be used; drop ours.
                            None => report.shards_lost += 1,
                        }
                    }
                    Err(CrawlError::Stopped { .. }) if lease_lost => {
                        report.shards_lost += 1;
                    }
                    Err(CrawlError::Stopped { .. }) if coord_err.is_some() => {
                        return Err(coord_failure(coord_err.expect("just checked")));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
}
