//! The worker loop: lease a shard, crawl it with per-root heartbeats,
//! resume any salvaged prefix, report completion, repeat until the plan
//! drains. `hdc work --join URL` is a thin wrapper over
//! [`drive_worker`]; the in-process fleet tests drive it directly
//! against a [`crate::MemoryLeaseRepository`].
//!
//! Heartbeats ride the crawl's own resume boundaries
//! ([`hdc_core::ShardSpec::crawl_with`]'s resume callback fires after
//! every completed root), so no timer thread exists: a worker
//! that crashes or stalls simply stops heartbeating, its lease lapses,
//! and a peer salvages the shard from the last banked partial. A
//! heartbeat answered `lost` trips the session's [`CancelToken`], so
//! the worker abandons the shard before issuing further queries.
//!
//! Each heartbeat and the completion carry a delta: only the tuples
//! found since the last accepted heartbeat, with the counters and
//! frontier cumulative. The coordinator appends each delta to the
//! partial it holds, so the bytes a shard sends grow with its bag, not
//! with its bag times its roots.

use std::io;
use std::time::Duration;

use hdc_core::{
    CancelToken, CrawlError, CrawlReport, RetryPolicy, SessionConfig, ShardSnapshot, ShardSpec,
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
/// The resume boundary partitions the shard's bag by root, so
/// prefix + suffix tuples concatenated are exactly the whole shard's
/// bag (as a multiset). The query accounting records the honest spend
/// of both passes: the suffix may re-pay slice fetches it shared with
/// the prefix, but it is always strictly cheaper than a whole-shard
/// redo (`fleet_equiv` pins both). `frontier` is `None` for a
/// completed shard, or the new cursor for a heartbeat partial.
///
/// This is the whole snapshot the coordinator assembles from the
/// deltas [`drive_worker`] sends.
pub fn merge_snapshot(
    index: usize,
    prefix: Option<&ShardSnapshot>,
    suffix: &CrawlReport,
    frontier: Option<u64>,
) -> ShardSnapshot {
    let mut snap = delta_snapshot(index, prefix, suffix, 0, frontier);
    if let Some(p) = prefix {
        snap.tuples.splice(0..0, p.tuples.iter().cloned());
    }
    snap
}

/// The snapshot a lease verb carries: [`merge_snapshot`]'s cumulative
/// counters, metrics and frontier, but only the suffix tuples from
/// `sent` on — the coordinator already holds the prefix's and those of
/// every accepted heartbeat.
fn delta_snapshot(
    index: usize,
    prefix: Option<&ShardSnapshot>,
    suffix: &CrawlReport,
    sent: usize,
    frontier: Option<u64>,
) -> ShardSnapshot {
    let mut snap = ShardSnapshot {
        index,
        queries: suffix.queries,
        resolved: suffix.resolved,
        overflowed: suffix.overflowed,
        pruned: suffix.pruned,
        frontier,
        metrics: suffix.metrics,
        tuples: suffix.tuples[sent..].to_vec(),
    };
    if let Some(p) = prefix {
        snap.queries += p.queries;
        snap.resolved += p.resolved;
        snap.overflowed += p.overflowed;
        snap.pruned += p.pruned;
        snap.metrics.merge_from(&p.metrics);
    }
    snap
}

/// A coordination failure (transport or protocol), shaped as the crawl
/// error the caller already handles.
fn coord_failure(e: io::Error) -> CrawlError {
    CrawlError::Db {
        error: DbError::Backend(format!("coordination: {e}")),
        partial: Box::new(CrawlReport::empty("fleet-worker")),
    }
}

/// Runs the lease → crawl → report loop until the coordinator answers
/// `drained`.
///
/// Each granted shard is crawled with [`ShardSpec::crawl_with`] and a
/// resume callback; after every completed root the worker
/// heartbeats, banking the tuples found since its last accepted
/// heartbeat with cumulative counters (`frontier` = roots done,
/// salvaged prefix included), so a peer can resume from exactly that
/// point if this worker dies. The completion carries the final delta
/// the same way. A grant carrying a salvaged partial is resumed from its
/// frontier: the worker crawls only [`ShardSpec::resume_suffix`] and
/// adds the prefix's counters, while the coordinator keeps the prefix's
/// tuples.
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
                // The signature is outside input: the parser checks it
                // against the schema, so nothing a grant names can make
                // the crawl panic.
                let spec = ShardSpec::parse_signature(&g.signature, schema).map_err(|why| {
                    coord_failure(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "unparseable shard signature {:?}: {why} (version skew?)",
                            g.signature
                        ),
                    ))
                })?;
                // A salvaged partial moves the start line: crawl only
                // the suffix. The coordinator holds the prefix's tuples
                // and appends ours, so a frontier the spec cannot
                // resume from is an error, never a whole-shard recrawl
                // on top of the held prefix.
                let prefix = g.partial.as_ref();
                let cursor = prefix.and_then(|p| p.frontier).unwrap_or(0);
                let run_spec = if cursor == 0 {
                    spec
                } else {
                    spec.resume_suffix(cursor as usize).ok_or_else(|| {
                        coord_failure(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "salvaged frontier {cursor} is not a resume point of {:?}",
                                g.signature
                            ),
                        ))
                    })?
                };
                if prefix.is_some() {
                    report.shards_resumed += 1;
                }

                let halt = CancelToken::new();
                let mut sent = 0;
                let mut lease_lost = false;
                let mut coord_err: Option<io::Error> = None;
                let result = {
                    let halt_ref = &halt;
                    let heartbeats = &mut report.heartbeats;
                    let sent = &mut sent;
                    let lease_lost = &mut lease_lost;
                    let coord_err = &mut coord_err;
                    run_spec.crawl_with(
                        db,
                        schema,
                        None,
                        SessionConfig {
                            retry: cfg.retry.clone(),
                            cancel: Some(halt_ref),
                            ..SessionConfig::default()
                        },
                        Some(&mut |done, interim| {
                            *heartbeats += 1;
                            let delta = delta_snapshot(
                                g.index,
                                prefix,
                                interim,
                                *sent,
                                Some(cursor + done),
                            );
                            match repo.heartbeat(g.index, g.lease, Some(&delta)) {
                                Ok(true) => *sent = interim.tuples.len(),
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
                        let snapshot = delta_snapshot(g.index, prefix, &shard_report, sent, None);
                        match repo
                            .complete(g.index, g.lease, snapshot)
                            .map_err(coord_failure)?
                        {
                            Some(_) => {
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
