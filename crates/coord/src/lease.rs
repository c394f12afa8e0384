//! Shard leasing: the coordination contract and its canonical
//! in-process implementation.
//!
//! A lease is the unit of fleet fault tolerance. The coordinator hands
//! a worker one pending shard at a time as a *lease* — an id plus a
//! deadline. The worker renews by heartbeat, optionally banking the
//! roots it finished since its last accepted heartbeat as a *delta*
//! [`ShardSnapshot`]: the new tuples only, with the counters and the
//! frontier cumulative. The repository appends each delta in place to
//! the partial it holds for the lease, so a verb costs O(delta), not
//! O(shard). When the deadline lapses un-renewed, the shard is
//! reclaimed and the next [`LeaseRepository::lease`] call hands it to a
//! live peer, which resumes from the held partial's frontier while the
//! repository keeps its tuples. Completion is exactly-once by
//! construction: a shard's result is accepted only from the lease id
//! currently on record, and only once.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hdc_core::{CrawlCheckpoint, CrawlRepository, ShardSnapshot};

/// A granted lease: one shard, one holder, one deadline.
#[derive(Clone, Debug)]
pub struct LeaseGrant {
    /// The shard's index in the plan.
    pub index: usize,
    /// The shard's plan signature ([`hdc_core::ShardSpec::signature`]);
    /// the worker reconstructs the spec with
    /// [`hdc_core::ShardSpec::parse_signature`].
    pub signature: String,
    /// Lease id — must accompany every heartbeat and the completion.
    pub lease: u64,
    /// Time the holder has between heartbeats before the shard is
    /// reclaimed.
    pub ttl_ms: u64,
    /// Salvaged partial from a previous (expired) holder, if any:
    /// `frontier = Some(c)` means the first `c` roots are done
    /// and the grantee should crawl only the suffix. It carries the
    /// prefix's counters and metrics but **no tuples**: the repository
    /// already holds them, and the grantee's deltas append to them.
    pub partial: Option<ShardSnapshot>,
}

/// The coordinator's answer to a lease request.
#[derive(Clone, Debug)]
pub enum LeaseDecision {
    /// A shard was pending: crawl it.
    Grant(Box<LeaseGrant>),
    /// Every pending shard is currently leased to a live peer; ask
    /// again after `retry_ms`.
    Wait {
        /// Suggested retry delay (until the earliest lease can expire).
        retry_ms: u64,
    },
    /// Every shard in the plan is complete: the fleet is done.
    Drained,
}

/// The distributed-coordination contract, layered on
/// [`CrawlRepository`]: `load` assembles the fleet's accumulated
/// checkpoint (complete shards plus best partials), `store` seeds the
/// lease state from a persisted checkpoint, and the three lease verbs
/// drive the worker loop.
///
/// Every method takes `&mut self` so a plain client value (e.g. one
/// wire connection) can implement it without interior mutability;
/// shared in-process implementations hand out cheap clones instead.
///
/// The snapshots the holder sends are **deltas**: `tuples` are those
/// found since the last accepted heartbeat on this lease (for a salvage
/// grant, since the granted frontier), while the counters, metrics and
/// `frontier` are cumulative, salvaged prefix included. The repository
/// appends each accepted delta to the partial it holds, so the shard's
/// full snapshot is assembled on its side.
pub trait LeaseRepository: CrawlRepository {
    /// The shard plan, as signatures in plan order.
    fn plan(&mut self) -> io::Result<Vec<String>>;

    /// Requests a shard lease for `worker` (a display name for logs —
    /// identity is the lease id, not the name).
    fn lease(&mut self, worker: &str) -> io::Result<LeaseDecision>;

    /// Renews lease `lease` on shard `index`, optionally banking a
    /// partial delta: the tuples since the last accepted heartbeat, with
    /// cumulative counters and a frontier that must advance past the
    /// held one. Returns `false` when the lease is no longer held
    /// (expired and reclaimed): the worker must abandon the shard
    /// immediately — a peer may already own it. A delta that does not
    /// extend the held partial is refused with `InvalidInput` and never
    /// merged.
    fn heartbeat(
        &mut self,
        index: usize,
        lease: u64,
        partial: Option<&ShardSnapshot>,
    ) -> io::Result<bool>;

    /// Reports shard `index` complete under lease `lease` with the final
    /// delta (`frontier = None`): the tuples since the last accepted
    /// heartbeat and the shard's cumulative counters. The repository
    /// records held partial + final delta as the shard's result.
    /// Returns `Some(tuples)` — the whole shard's tuple count, salvaged
    /// prefix included — when the result was accepted, `None` when the
    /// lease had been reclaimed (the result is discarded; the salvaging
    /// peer's will be used).
    fn complete(
        &mut self,
        index: usize,
        lease: u64,
        snapshot: ShardSnapshot,
    ) -> io::Result<Option<u64>>;
}

/// One live lease.
struct Active {
    lease: u64,
    worker: String,
    deadline: Instant,
    /// Everything accepted on this lease: the salvaged prefix it was
    /// granted with, plus every heartbeat delta appended in place.
    partial: Option<ShardSnapshot>,
}

impl Active {
    /// The frontier the next delta starts from (0 before any root).
    fn frontier(&self) -> u64 {
        self.partial.as_ref().and_then(|p| p.frontier).unwrap_or(0)
    }
}

/// The coordinator's whole mutable state, under one lock.
struct LeaseState {
    plan: Vec<String>,
    ttl: Duration,
    next_lease: u64,
    /// Completed shards, plan-indexed. Set exactly once.
    done: Vec<Option<ShardSnapshot>>,
    /// Live leases by shard index.
    active: HashMap<usize, Active>,
    /// Best partial snapshot salvaged from expired leases, plan-indexed.
    salvage: Vec<Option<ShardSnapshot>>,
    expired: u64,
    salvaged_grants: u64,
}

impl LeaseState {
    /// Reclaims every lease whose deadline has passed, banking its best
    /// partial for the next grantee.
    fn reclaim_expired(&mut self, now: Instant) {
        let lapsed: Vec<usize> = self
            .active
            .iter()
            .filter(|(_, a)| a.deadline <= now)
            .map(|(&i, _)| i)
            .collect();
        for i in lapsed {
            let a = self.active.remove(&i).expect("just listed");
            self.expired += 1;
            bank_partial(&mut self.salvage[i], a.partial);
        }
    }

    fn all_done(&self) -> bool {
        self.done.iter().all(Option::is_some)
    }

    /// The accumulated checkpoint: complete shards in plan order, then
    /// the best partial (banked or in-flight) for each unfinished shard.
    fn checkpoint(&self) -> CrawlCheckpoint {
        let mut cp = CrawlCheckpoint::new(self.plan.clone());
        for snap in self.done.iter().flatten() {
            cp.shards.push(snap.clone());
        }
        for (i, banked) in self.salvage.iter().enumerate() {
            if self.done[i].is_some() {
                continue;
            }
            let mut best = banked.clone();
            if let Some(a) = self.active.get(&i) {
                bank_partial(&mut best, a.partial.clone());
            }
            if let Some(p) = best {
                cp.shards.push(p);
            }
        }
        cp
    }
}

/// Keeps the partial with the furthest frontier (replacing `slot` only
/// when `candidate` is strictly ahead).
fn bank_partial(slot: &mut Option<ShardSnapshot>, candidate: Option<ShardSnapshot>) {
    let Some(c) = candidate else { return };
    if c.frontier.unwrap_or(0) == 0 {
        // A "complete" snapshot must go through `complete()`, not the
        // salvage path, and a zero-root partial has nothing to salvage:
        // drop both rather than corrupt resume logic.
        return;
    }
    let ahead = match slot {
        Some(s) => c.frontier > s.frontier,
        None => true,
    };
    if ahead {
        *slot = Some(c);
    }
}

/// Refuses a delta that does not extend a lease holding frontier
/// `held`: a snapshot for another shard, a `since` (the frontier the
/// sender believes is held, when it says) other than `held`, or a
/// partial whose frontier does not advance past `held`. A complete
/// snapshot (`frontier = None`) always advances.
fn check_delta(
    index: usize,
    held: u64,
    since: Option<u64>,
    delta: &ShardSnapshot,
) -> io::Result<()> {
    let refuse = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    if delta.index != index {
        return refuse(format!(
            "snapshot for shard {} on lease of shard {index}",
            delta.index
        ));
    }
    if let Some(since) = since.filter(|&s| s != held) {
        return refuse(format!(
            "delta starts at frontier {since}, but {held} is held"
        ));
    }
    match delta.frontier {
        Some(f) if f <= held => refuse(format!("delta frontier {f} does not advance past {held}")),
        _ => Ok(()),
    }
}

/// The held partial extended by `delta`: the held tuples followed by
/// the delta's, with the delta's cumulative counters, metrics and
/// frontier.
fn append_delta(held: Option<ShardSnapshot>, mut delta: ShardSnapshot) -> ShardSnapshot {
    if let Some(mut held) = held {
        held.tuples.append(&mut delta.tuples);
        delta.tuples = held.tuples;
    }
    delta
}

/// The canonical [`LeaseRepository`]: all state in-process behind one
/// mutex. Clones share state, so one value can be handed to N worker
/// threads (the in-process fleet) *and* wrapped by the wire-serving
/// [`crate::Coordinator`] at the same time.
#[derive(Clone)]
pub struct MemoryLeaseRepository {
    state: Arc<Mutex<LeaseState>>,
}

impl MemoryLeaseRepository {
    /// A fresh lease repository over `plan` (shard signatures in plan
    /// order) with the given lease TTL.
    pub fn new(plan: Vec<String>, ttl: Duration) -> Self {
        let n = plan.len();
        MemoryLeaseRepository {
            state: Arc::new(Mutex::new(LeaseState {
                plan,
                ttl,
                next_lease: 1,
                done: vec![None; n],
                active: HashMap::new(),
                salvage: vec![None; n],
                expired: 0,
                salvaged_grants: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LeaseState> {
        self.state.lock().expect("lease state poisoned")
    }

    /// Forces every live lease to expire **now** — the deterministic
    /// test hook standing in for a crashed worker's deadline lapsing.
    /// Returns how many leases were reclaimed.
    pub fn expire_leases_now(&self) -> usize {
        let mut s = self.lock();
        let n = s.active.len();
        let indices: Vec<usize> = s.active.keys().copied().collect();
        for i in indices {
            let a = s.active.remove(&i).expect("just listed");
            s.expired += 1;
            bank_partial(&mut s.salvage[i], a.partial);
        }
        n
    }

    /// Whether every shard in the plan has completed.
    pub fn is_drained(&self) -> bool {
        self.lock().all_done()
    }

    /// `(complete, total)` shard counts.
    pub fn progress(&self) -> (usize, usize) {
        let s = self.lock();
        (s.done.iter().flatten().count(), s.plan.len())
    }

    /// Lease TTL in milliseconds.
    pub fn ttl_ms(&self) -> u64 {
        self.lock().ttl.as_millis() as u64
    }

    /// `(expired, salvaged)`: `expired` counts reclaimed leases;
    /// `salvaged` counts grants that carried a partial.
    pub fn fleet_stats(&self) -> (u64, u64) {
        let s = self.lock();
        (s.expired, s.salvaged_grants)
    }

    /// The current accumulated checkpoint (same as
    /// [`CrawlRepository::load`], without the `Option`).
    pub fn checkpoint(&self) -> CrawlCheckpoint {
        self.lock().checkpoint()
    }
}

impl CrawlRepository for MemoryLeaseRepository {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        Ok(Some(self.lock().checkpoint()))
    }

    /// Seeds the lease state from a persisted checkpoint: complete
    /// snapshots mark their shards done, partial snapshots become
    /// salvage for the next grantee. Errors with the typed plan-mismatch
    /// message when the checkpoint belongs to a different plan.
    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        let mut s = self.lock();
        let plan = s.plan.clone();
        checkpoint
            .verify_plan(&plan)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        for snap in &checkpoint.shards {
            if snap.is_complete() {
                s.done[snap.index] = Some(snap.clone());
                s.salvage[snap.index] = None;
            } else if s.done[snap.index].is_none() {
                bank_partial(&mut s.salvage[snap.index], Some(snap.clone()));
            }
        }
        Ok(())
    }
}

impl LeaseRepository for MemoryLeaseRepository {
    fn plan(&mut self) -> io::Result<Vec<String>> {
        Ok(self.lock().plan.clone())
    }

    fn lease(&mut self, worker: &str) -> io::Result<LeaseDecision> {
        let now = Instant::now();
        let mut s = self.lock();
        s.reclaim_expired(now);
        let pending = (0..s.plan.len())
            .find(|&i| s.done[i].is_none() && !s.active.contains_key(&i));
        if let Some(index) = pending {
            let lease = s.next_lease;
            s.next_lease += 1;
            // The salvaged partial moves into the new lease, which
            // appends the grantee's deltas to it; the grantee gets its
            // frontier and counters only.
            let held = s.salvage[index].take();
            let partial = held.as_ref().map(|p| ShardSnapshot {
                tuples: Vec::new(),
                ..*p
            });
            if partial.is_some() {
                s.salvaged_grants += 1;
            }
            let ttl = s.ttl;
            s.active.insert(
                index,
                Active {
                    lease,
                    worker: worker.to_string(),
                    deadline: now + ttl,
                    partial: held,
                },
            );
            return Ok(LeaseDecision::Grant(Box::new(LeaseGrant {
                index,
                signature: s.plan[index].clone(),
                lease,
                ttl_ms: ttl.as_millis() as u64,
                partial,
            })));
        }
        if s.all_done() {
            return Ok(LeaseDecision::Drained);
        }
        // Everything pending is leased to live peers: wait until the
        // earliest deadline can lapse (floor 10ms so a tight loop still
        // yields).
        let retry_ms = s
            .active
            .values()
            .map(|a| a.deadline.saturating_duration_since(now).as_millis() as u64)
            .min()
            .unwrap_or_else(|| (s.ttl.as_millis() as u64) / 4)
            .max(10);
        Ok(LeaseDecision::Wait { retry_ms })
    }

    fn heartbeat(
        &mut self,
        index: usize,
        lease: u64,
        partial: Option<&ShardSnapshot>,
    ) -> io::Result<bool> {
        self.heartbeat_from(index, lease, None, partial.cloned())
    }

    fn complete(
        &mut self,
        index: usize,
        lease: u64,
        snapshot: ShardSnapshot,
    ) -> io::Result<Option<u64>> {
        self.complete_from(index, lease, None, snapshot)
    }
}

impl MemoryLeaseRepository {
    /// [`LeaseRepository::heartbeat`] with the contiguity check the wire
    /// protocol adds: `since`, when given, is the frontier the sender
    /// believes is held, and a delta is refused unless it matches. The
    /// delta is taken by value, so the coordinator moves the one it
    /// parsed into the held partial instead of cloning it under the
    /// lock.
    pub(crate) fn heartbeat_from(
        &self,
        index: usize,
        lease: u64,
        since: Option<u64>,
        partial: Option<ShardSnapshot>,
    ) -> io::Result<bool> {
        let now = Instant::now();
        let mut s = self.lock();
        s.reclaim_expired(now);
        let ttl = s.ttl;
        let Some(a) = s.active.get_mut(&index).filter(|a| a.lease == lease) else {
            return Ok(false);
        };
        if let Some(p) = partial {
            if p.is_complete() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "heartbeat snapshot must be partial (frontier set)",
                ));
            }
            check_delta(index, a.frontier(), since, &p)?;
            a.partial = Some(append_delta(a.partial.take(), p));
        }
        a.deadline = now + ttl;
        Ok(true)
    }

    /// [`LeaseRepository::complete`] with the same `since` check as
    /// [`MemoryLeaseRepository::heartbeat_from`].
    pub(crate) fn complete_from(
        &self,
        index: usize,
        lease: u64,
        since: Option<u64>,
        snapshot: ShardSnapshot,
    ) -> io::Result<Option<u64>> {
        let mut s = self.lock();
        if index >= s.plan.len() || snapshot.index != index {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("completion for shard {index} does not match snapshot/plan"),
            ));
        }
        if !snapshot.is_complete() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "completion carried a partial snapshot (frontier set)",
            ));
        }
        // Deliberately no expiry sweep here: a *finished* shard from a
        // lapsed-but-not-reclaimed lease is still exactly the
        // deterministic result the plan promises, so accept it. Only a
        // lease that was actually reclaimed (and possibly re-granted)
        // loses its claim.
        let Some(a) = s.active.get(&index).filter(|a| a.lease == lease) else {
            return Ok(None);
        };
        if s.done[index].is_some() {
            return Ok(None);
        }
        check_delta(index, a.frontier(), since, &snapshot)?;
        let a = s.active.remove(&index).expect("just checked");
        let whole = append_delta(a.partial, snapshot);
        let tuples = whole.tuples.len() as u64;
        s.salvage[index] = None;
        s.done[index] = Some(whole);
        Ok(Some(tuples))
    }
}

// Silence the never-read warning on `worker` without dropping the field
// — it exists for debugging and future log lines.
impl std::fmt::Debug for MemoryLeaseRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.lock();
        let holders: Vec<&str> = s.active.values().map(|a| a.worker.as_str()).collect();
        f.debug_struct("MemoryLeaseRepository")
            .field("plan", &s.plan.len())
            .field("done", &s.done.iter().flatten().count())
            .field("active", &holders)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::snapshot_of_report;
    use hdc_core::CrawlReport;
    use hdc_types::tuple::int_tuple;

    fn plan3() -> Vec<String> {
        vec!["sig-a".into(), "sig-b".into(), "sig-c".into()]
    }

    fn report(n: i64) -> CrawlReport {
        CrawlReport {
            algorithm: "test",
            tuples: (0..n).map(|v| int_tuple(&[v])).collect(),
            queries: n as u64 * 2,
            resolved: n as u64,
            overflowed: n as u64,
            pruned: 0,
            metrics: Default::default(),
            progress: Vec::new(),
        }
    }

    fn grant(repo: &mut MemoryLeaseRepository, worker: &str) -> LeaseGrant {
        match repo.lease(worker).unwrap() {
            LeaseDecision::Grant(g) => *g,
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn leases_are_exclusive_and_drain_in_plan_order() {
        let mut repo = MemoryLeaseRepository::new(plan3(), Duration::from_secs(60));
        let g0 = grant(&mut repo, "a");
        let g1 = grant(&mut repo, "b");
        let g2 = grant(&mut repo, "c");
        assert_eq!((g0.index, g1.index, g2.index), (0, 1, 2));
        assert!(matches!(
            repo.lease("d").unwrap(),
            LeaseDecision::Wait { .. }
        ));
        for g in [g0, g1, g2] {
            assert!(repo
                .complete(g.index, g.lease, snapshot_of_report(g.index, &report(2), None))
                .unwrap()
                .is_some());
        }
        assert!(matches!(repo.lease("d").unwrap(), LeaseDecision::Drained));
        assert!(repo.is_drained());
    }

    #[test]
    fn expired_lease_is_reclaimed_with_best_partial_exactly_once() {
        let mut repo = MemoryLeaseRepository::new(plan3(), Duration::from_secs(60));
        let g0 = grant(&mut repo, "dying");
        let partial = snapshot_of_report(g0.index, &report(1), Some(1));
        assert!(repo.heartbeat(g0.index, g0.lease, Some(&partial)).unwrap());
        assert_eq!(repo.expire_leases_now(), 1);
        // Old lease is dead for every verb.
        assert!(!repo.heartbeat(g0.index, g0.lease, None).unwrap());
        assert!(repo
            .complete(g0.index, g0.lease, snapshot_of_report(g0.index, &report(2), None))
            .unwrap()
            .is_none());
        // The salvaging peer receives the banked frontier and counters,
        // but not the tuples: the repository keeps those...
        let g0b = grant(&mut repo, "peer");
        assert_eq!(g0b.index, 0);
        let salvaged = g0b.partial.as_ref().expect("salvage grant");
        assert_eq!(salvaged.frontier, Some(1));
        assert_eq!(salvaged.queries, partial.queries);
        assert!(salvaged.tuples.is_empty());
        // ...and its completion, the final delta (tuple 1 only, with
        // the whole shard's counters), is the only one accepted. The
        // assembled shard holds each tuple once.
        let mut delta = snapshot_of_report(0, &report(2), None);
        delta.tuples.drain(..1);
        assert!(repo.complete(g0b.index, g0b.lease, delta).unwrap().is_some());
        let whole = repo.checkpoint().shards.remove(0);
        assert_eq!(whole.tuples.len(), 2);
        assert_eq!(whole, snapshot_of_report(0, &report(2), None));
        let (expired, salvaged) = repo.fleet_stats();
        assert_eq!((expired, salvaged), (1, 1));
    }

    #[test]
    fn deltas_append_in_place_and_refused_ones_change_nothing() {
        let mut repo = MemoryLeaseRepository::new(plan3(), Duration::from_secs(60));
        let g = grant(&mut repo, "w");
        let first = snapshot_of_report(g.index, &report(1), Some(1));
        assert!(repo.heartbeat(g.index, g.lease, Some(&first)).unwrap());
        let held = repo.checkpoint();
        // A frontier that does not advance, a delta for another shard,
        // and a complete snapshot on the heartbeat path are refused.
        let stale = snapshot_of_report(g.index, &report(2), Some(1));
        let foreign = snapshot_of_report(g.index + 1, &report(2), Some(2));
        let complete = snapshot_of_report(g.index, &report(2), None);
        for bad in [&stale, &foreign, &complete] {
            let err = repo.heartbeat(g.index, g.lease, Some(bad)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        }
        assert_eq!(repo.checkpoint(), held, "a refused delta is never merged");
        // The next root's delta appends in place.
        let mut second = snapshot_of_report(g.index, &report(2), Some(2));
        second.tuples.drain(..1);
        assert!(repo.heartbeat(g.index, g.lease, Some(&second)).unwrap());
        assert_eq!(
            repo.checkpoint().shards,
            vec![snapshot_of_report(g.index, &report(2), Some(2))]
        );
    }

    #[test]
    fn late_complete_without_reclaim_is_accepted() {
        // Deadline lapsed but nobody swept: finished work is still the
        // deterministic answer — accept it.
        let mut repo = MemoryLeaseRepository::new(plan3(), Duration::from_millis(0));
        let g = grant(&mut repo, "slow");
        assert!(repo
            .complete(g.index, g.lease, snapshot_of_report(g.index, &report(1), None))
            .unwrap()
            .is_some());
    }

    #[test]
    fn store_seeds_done_and_salvage_and_rejects_foreign_plans() {
        let mut repo = MemoryLeaseRepository::new(plan3(), Duration::from_secs(60));
        let mut cp = CrawlCheckpoint::new(plan3());
        cp.shards.push(snapshot_of_report(0, &report(2), None));
        cp.shards.push(snapshot_of_report(2, &report(1), Some(1)));
        repo.store(&cp).unwrap();
        assert_eq!(repo.progress(), (1, 3));
        let g = grant(&mut repo, "w");
        assert_eq!(g.index, 1, "done shard skipped");
        let g2 = grant(&mut repo, "w");
        assert_eq!(g2.index, 2);
        assert_eq!(g2.partial.as_ref().and_then(|p| p.frontier), Some(1));

        let foreign = CrawlCheckpoint::new(vec!["other".into()]);
        let err = repo.store(&foreign).unwrap_err();
        assert!(err.to_string().contains("plan mismatch"), "{err}");
    }
}
