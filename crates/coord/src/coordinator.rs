//! The wire-served coordinator: a [`RouteExt`] that mounts the
//! [`LeaseRepository`] contract on the data server's HTTP listener
//! (`hdc serve --coordinate`), with optional checkpoint persistence.
//!
//! # Wire protocol
//!
//! Plain-text framing on five endpoints, with checkpoint JSON (the
//! established on-disk format) as the payload wherever a snapshot
//! travels — every carried checkpoint embeds the full plan, so each
//! message re-validates the plan fingerprint for free:
//!
//! | request | body | response |
//! |---|---|---|
//! | `POST /lease` | worker name | `grant <index> <lease> <ttl_ms>` (+ `\n` + salvaged frontier and counters as checkpoint JSON, no tuples), `wait <ms>`, or `drained` |
//! | `POST /heartbeat` | `<index> <lease> <since>` (+ `\n` + partial delta checkpoint) | `ok` or `lost` |
//! | `POST /complete` | `<index> <lease> <since>` + `\n` + final delta checkpoint | `ok <tuples>` (the whole shard's tuple count) or `lost`; `409 mismatch: …` on plan mismatch |
//! | `GET /plan` | — | `hdc-coord v1 <ttl_ms> <total> <done>` + one signature per line |
//! | `GET /checkpoint` | — | accumulated checkpoint JSON |
//!
//! Snapshots on `/heartbeat` and `/complete` are **deltas**: the tuples
//! found since the last accepted heartbeat on the lease, with
//! cumulative counters and frontier. `<since>` is the frontier the
//! delta starts from. The coordinator appends an accepted delta in
//! place to the partial it holds for the lease, and answers `400` to a
//! delta whose `since` is not the held frontier or whose frontier does
//! not advance; a refused delta is never merged. A completion is
//! recorded as held partial + final delta, so the checkpoint holds
//! each shard's whole bag.
//!
//! The coordinator never issues data queries: leases and heartbeats are
//! pure control traffic, so a wire-leased fleet's charged query cost is
//! exactly the solo crawl's.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hdc_core::{
    CancelToken, CrawlCheckpoint, CrawlReport, CrawlRepository, JsonFileRepository, ShardSnapshot,
};
use hdc_net::http::{Request, Response};
use hdc_net::RouteExt;

use crate::lease::{LeaseDecision, LeaseRepository, MemoryLeaseRepository};

/// How a coordinator came up relative to its persisted checkpoint.
#[derive(Clone, Debug)]
pub enum Restore {
    /// No checkpoint file (or persistence off): fresh plan.
    Fresh,
    /// Checkpoint absorbed: this many shards were already complete.
    Resumed {
        /// Complete shards restored from disk.
        complete: usize,
    },
}

/// Configuration for [`Coordinator::new`].
pub struct CoordinatorConfig {
    /// Lease TTL: how long a worker may go between heartbeats.
    pub ttl: Duration,
    /// Checkpoint file for crash-restart persistence.
    pub checkpoint: Option<PathBuf>,
    /// Log lease traffic to stderr.
    pub verbose: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            ttl: Duration::from_secs(30),
            checkpoint: None,
            verbose: false,
        }
    }
}

/// Fleet summary for the operator once the plan drains.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Tuples across all complete shards (bag cardinality).
    pub tuples: u64,
    /// Total charged queries across all complete shards.
    pub queries: u64,
    /// Complete / total shard counts.
    pub shards: (usize, usize),
    /// Leases that expired and were reclaimed.
    pub expired_leases: u64,
    /// Grants that carried a salvaged partial snapshot.
    pub salvaged_grants: u64,
    /// First persistence failure, if any (the crawl itself is
    /// unaffected; only resumability degraded).
    pub persist_error: Option<String>,
}

/// Wire-serving face of a [`MemoryLeaseRepository`]: translate HTTP
/// requests into lease verbs, persist after every state change, and
/// trip a [`CancelToken`] when the plan drains so `hdc serve
/// --coordinate` can shut itself down.
pub struct Coordinator {
    repo: MemoryLeaseRepository,
    /// Shard signatures in plan order, fixed for the coordinator's life.
    plan: Vec<String>,
    persist: Mutex<Option<JsonFileRepository>>,
    persist_error: Mutex<Option<String>>,
    drained: Arc<CancelToken>,
    verbose: bool,
}

impl Coordinator {
    /// Builds a coordinator over `plan` (shard signatures in plan
    /// order). When `cfg.checkpoint` names an existing checkpoint, its
    /// completed shards and salvageable partials are restored. A
    /// checkpoint for a *different* plan is refused, as the sharded
    /// driver refuses it: an [`io::ErrorKind::InvalidData`] error
    /// carrying the [`hdc_core::RepositoryError::PlanMismatch`] text,
    /// with the file left untouched.
    pub fn new(plan: Vec<String>, cfg: CoordinatorConfig) -> io::Result<(Self, Restore)> {
        let mut repo = MemoryLeaseRepository::new(plan.clone(), cfg.ttl);
        let mut restore = Restore::Fresh;
        let mut persist = None;
        if let Some(path) = cfg.checkpoint {
            let mut file_repo = JsonFileRepository::new(&path);
            if let Some(cp) = file_repo.load()? {
                repo.store(&cp)?;
                restore = Restore::Resumed {
                    complete: repo.progress().0,
                };
            }
            persist = Some(file_repo);
        }
        let coordinator = Coordinator {
            repo,
            plan,
            persist: Mutex::new(persist),
            persist_error: Mutex::new(None),
            drained: Arc::new(CancelToken::new()),
            verbose: cfg.verbose,
        };
        // A checkpoint can restore the plan already fully complete; no
        // `complete()` will ever arrive, so trip the token now or the
        // serving process would wait forever.
        if coordinator.repo.is_drained() {
            coordinator.drained.cancel();
        }
        Ok((coordinator, restore))
    }

    /// The shared lease repository — hand clones to in-process workers.
    pub fn repo(&self) -> MemoryLeaseRepository {
        self.repo.clone()
    }

    /// Token tripped when the last shard completes; `hdc serve
    /// --coordinate` passes it to the accept loop so the process drains
    /// itself.
    pub fn drained_token(&self) -> Arc<CancelToken> {
        Arc::clone(&self.drained)
    }

    /// Whether every shard has completed.
    pub fn is_drained(&self) -> bool {
        self.repo.is_drained()
    }

    /// Summary counters over the complete shards — for the operator's
    /// final verification line.
    pub fn outcome(&self) -> FleetOutcome {
        let merged = CrawlReport::from_snapshots("fleet", self.repo.checkpoint().shards);
        let (complete, total) = self.repo.progress();
        let (expired, salvaged) = self.repo.fleet_stats();
        FleetOutcome {
            tuples: merged.tuples.len() as u64,
            queries: merged.queries,
            shards: (complete, total),
            expired_leases: expired,
            salvaged_grants: salvaged,
            persist_error: self
                .persist_error
                .lock()
                .expect("persist error lock")
                .clone(),
        }
    }

    /// The accumulated checkpoint (complete shards + best partials).
    pub fn checkpoint(&self) -> CrawlCheckpoint {
        self.repo.checkpoint()
    }

    /// Writes the checkpoint. Failures are recorded (first
    /// one wins) and surfaced via [`Coordinator::outcome`] instead of
    /// failing the in-flight request: the crawl is correct either way,
    /// only crash-resumability degrades — same policy as the solo
    /// checkpointed crawl.
    fn persist(&self) {
        let result = self.try_persist();
        if let Err(e) = result {
            let mut slot = self.persist_error.lock().expect("persist error lock");
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
    }

    fn try_persist(&self) -> io::Result<()> {
        let mut guard = self.persist.lock().expect("persist lock");
        let Some(file_repo) = guard.as_mut() else {
            return Ok(());
        };
        file_repo.store(&self.repo.checkpoint())
    }

    fn log(&self, line: std::fmt::Arguments<'_>) {
        if self.verbose {
            eprintln!("coord: {line}");
        }
    }

    /// Parses `<index> <lease> <since>`, optionally followed by a
    /// newline and checkpoint JSON; validates any carried snapshot
    /// against the coordinator's plan.
    fn parse_verb(&self, body: &[u8]) -> Result<Verb, Response> {
        let text = std::str::from_utf8(body)
            .map_err(|_| text_response(400, "body is not UTF-8".into()))?;
        let (head, rest) = match text.split_once('\n') {
            Some((h, r)) => (h, r.trim()),
            None => (text.trim(), ""),
        };
        let fields: Vec<&str> = head.split_whitespace().collect();
        let (index, lease, since) = match fields[..] {
            [i, l, f] => match (i.parse(), l.parse(), f.parse()) {
                (Ok(i), Ok(l), Ok(f)) => (i, l, f),
                _ => return Err(text_response(400, format!("bad verb line {head:?}"))),
            },
            _ => return Err(text_response(400, format!("bad verb line {head:?}"))),
        };
        let mut verb = Verb {
            index,
            lease,
            since,
            snapshot: None,
        };
        if rest.is_empty() {
            return Ok(verb);
        }
        let cp = CrawlCheckpoint::from_json(rest)
            .map_err(|e| text_response(400, format!("bad snapshot payload: {e}")))?;
        if let Err(e) = cp.verify_plan(&self.plan) {
            return Err(text_response(409, format!("mismatch: {e}")));
        }
        let mut shards = cp.shards;
        if shards.len() != 1 {
            return Err(text_response(
                400,
                format!("expected exactly one snapshot, got {}", shards.len()),
            ));
        }
        verb.snapshot = Some(shards.remove(0));
        Ok(verb)
    }

    fn lease_response(&self, req: &Request) -> Response {
        let worker = String::from_utf8_lossy(&req.body).trim().to_string();
        let name = if worker.is_empty() { "worker" } else { &worker };
        let mut repo = self.repo.clone();
        match repo.lease(name) {
            Ok(LeaseDecision::Grant(g)) => {
                self.log(format_args!(
                    "lease {} -> shard {} (lease {}, cursor {:?})",
                    name,
                    g.index,
                    g.lease,
                    g.partial.as_ref().and_then(|p| p.frontier)
                ));
                let mut body = format!("grant {} {} {}\n", g.index, g.lease, g.ttl_ms);
                if let Some(p) = &g.partial {
                    body.push_str(&CrawlCheckpoint::json_for(
                        &self.plan,
                        std::slice::from_ref(p),
                    ));
                }
                text_response(200, body)
            }
            Ok(LeaseDecision::Wait { retry_ms }) => {
                text_response(200, format!("wait {retry_ms}\n"))
            }
            Ok(LeaseDecision::Drained) => text_response(200, "drained\n".into()),
            Err(e) => text_response(500, format!("lease failed: {e}")),
        }
    }

    fn heartbeat_response(&self, req: &Request) -> Response {
        let Verb {
            index,
            lease,
            since,
            snapshot: partial,
        } = match self.parse_verb(&req.body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let banked = partial.is_some();
        match self.repo.heartbeat_from(index, lease, Some(since), partial) {
            Ok(true) => {
                if banked {
                    self.persist();
                }
                text_response(200, "ok\n".into())
            }
            Ok(false) => {
                self.log(format_args!(
                    "heartbeat on lost lease {lease} (shard {index})"
                ));
                text_response(200, "lost\n".into())
            }
            Err(e) => text_response(400, format!("heartbeat failed: {e}")),
        }
    }

    fn complete_response(&self, req: &Request) -> Response {
        let Verb {
            index,
            lease,
            since,
            snapshot,
        } = match self.parse_verb(&req.body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let Some(snapshot) = snapshot else {
            return text_response(400, "complete requires a snapshot".into());
        };
        match self.repo.complete_from(index, lease, Some(since), snapshot) {
            Ok(Some(tuples)) => {
                self.persist();
                let (done, total) = self.repo.progress();
                self.log(format_args!("shard {index} complete ({done}/{total})"));
                if done == total {
                    self.log(format_args!("plan drained"));
                    self.drained.cancel();
                }
                text_response(200, format!("ok {tuples}\n"))
            }
            Ok(None) => {
                self.log(format_args!("stale completion for shard {index} discarded"));
                text_response(200, "lost\n".into())
            }
            Err(e) => text_response(400, format!("complete failed: {e}")),
        }
    }

    fn plan_response(&self) -> Response {
        let (done, total) = self.repo.progress();
        let mut body = format!("hdc-coord v1 {} {} {}\n", self.repo.ttl_ms(), total, done);
        for sig in &self.plan {
            body.push_str(sig);
            body.push('\n');
        }
        text_response(200, body)
    }
}

impl RouteExt for Coordinator {
    fn handle(&self, req: &Request) -> Option<Response> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/lease") => Some(self.lease_response(req)),
            ("POST", "/heartbeat") => Some(self.heartbeat_response(req)),
            ("POST", "/complete") => Some(self.complete_response(req)),
            ("GET", "/plan") => Some(self.plan_response()),
            ("GET", "/checkpoint") => Some(Response::json(
                200,
                self.repo.checkpoint().to_json().into_bytes(),
            )),
            _ => None,
        }
    }
}

/// A parsed `/heartbeat` or `/complete` request.
struct Verb {
    index: usize,
    lease: u64,
    /// The frontier the carried delta starts from.
    since: u64,
    snapshot: Option<ShardSnapshot>,
}

/// A plain-text response (the coordination protocol's framing; data
/// endpoints stay JSON).
fn text_response(status: u16, body: String) -> Response {
    Response {
        status,
        body: body.into_bytes(),
        content_type: "text/plain; charset=utf-8",
    }
}
