//! Differential suite for distributed crawl coordination — the PR's
//! headline theorems, checked against the deterministic server:
//!
//! 1. **Fleet ≡ solo.** N workers leasing shards from one
//!    [`MemoryLeaseRepository`] (and, separately, over the wire from a
//!    [`Coordinator`]) extract the same bag at the same total charged
//!    query cost as crawling the same plan solo, shard by shard.
//! 2. **Salvage loses nothing and redoes little.** A worker killed
//!    mid-shard — after banking a partial snapshot by heartbeat — loses
//!    its lease; the peer that salvages the shard resumes from the
//!    frontier. The merged bag is exactly the uninterrupted crawl's (no
//!    tuple lost, none double-counted), and the replay charges
//!    *strictly fewer* queries than a whole-shard redo (the suffix may
//!    re-pay slice fetches the prefix shared, but never the prefix
//!    roots' own slices — the accounting honestly records both passes).
//!    Heartbeats and completions carry deltas (the tuples since the last
//!    accepted heartbeat); the partial the coordinator assembles from
//!    them is bit-identical to the full snapshot the worker would have
//!    sent, after any number of banked roots and over either transport.
//!
//! Bags are compared as **multisets** ([`TupleBag::multiset_eq`]): the
//! determinism contract fixes each shard's charged query sequence and
//! bag, but fleet merge order (completion order vs plan order) and
//! per-root emission interleaving are scheduling artifacts the cost
//! model and the paper's Problem 1 do not observe.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;

use hdc_coord::{
    drive_worker, merge_snapshot, Coordinator, CoordinatorConfig, LeaseDecision, LeaseGrant,
    LeaseRepository, MemoryLeaseRepository, WireLeaseRepository, WorkerConfig,
};
use hdc_core::{
    snapshot_of_report, CancelToken, Crawl, CrawlCheckpoint, CrawlError, CrawlReport,
    CrawlRepository, JsonFileRepository, SessionConfig, ShardSnapshot, ShardSpec, Sharded,
};
use hdc_net::{http, Client, RouteExt, ServeOptions, WireServer};
use hdc_server::{HiddenDbServer, ServerConfig, SharedServer};
use hdc_types::{AttrKind, HiddenDatabase, Schema, Tuple, TupleBag, Value};

/// A generated test instance (same generator family as the core fault
/// suite).
#[derive(Debug, Clone)]
struct Instance {
    schema: Schema,
    tuples: Vec<Tuple>,
    k: usize,
}

impl Instance {
    fn solvable(&self) -> bool {
        TupleBag::from_tuples(self.tuples.iter().cloned()).max_multiplicity() <= self.k
    }

    fn server(&self, seed: u64) -> HiddenDbServer {
        HiddenDbServer::new(
            self.schema.clone(),
            self.tuples.clone(),
            ServerConfig { k: self.k, seed },
        )
        .unwrap()
    }
}

fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn instance_strategy() -> impl PropStrategy<Value = Instance> {
    (
        proptest::collection::vec((any::<bool>(), 2u32..6, 1i64..20), 1..4),
        3usize..10,
        0usize..100,
        any::<u64>(),
    )
        .prop_map(|(attrs, k, n, seed)| {
            let mut builder = Schema::builder();
            let mut kinds = Vec::new();
            for (i, &(is_cat, u, w)) in attrs.iter().enumerate() {
                if is_cat {
                    builder = builder.categorical(format!("c{i}"), u);
                    kinds.push(AttrKind::Categorical { size: u });
                } else {
                    builder = builder.numeric(format!("n{i}"), -w, w);
                    kinds.push(AttrKind::Numeric { min: -w, max: w });
                }
            }
            let schema = builder.build().unwrap();
            let mut next = xorshift(seed);
            let tuples: Vec<Tuple> = (0..n)
                .map(|_| {
                    Tuple::new(
                        kinds
                            .iter()
                            .map(|&kind| match kind {
                                AttrKind::Categorical { size } => {
                                    Value::Cat((next() % u64::from(size)) as u32)
                                }
                                AttrKind::Numeric { min, max } => {
                                    let span = (max - min + 1) as u64;
                                    Value::Int(min + (next() % span) as i64)
                                }
                            })
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            Instance { schema, tuples, k }
        })
}

/// The fixed multi-root instance the deterministic kill/salvage tests
/// use: 5 "make" values × numeric "price", plan of 2 shards with 3 and
/// 2 root values each.
fn yahoo_like() -> Instance {
    let schema = Schema::builder()
        .categorical("make", 5)
        .numeric("price", 0, 199)
        .build()
        .unwrap();
    let mut next = xorshift(0xfeed);
    let tuples: Vec<Tuple> = (0..300)
        .map(|_| {
            Tuple::new(vec![
                Value::Cat((next() % 5) as u32),
                Value::Int((next() % 200) as i64),
            ])
        })
        .collect();
    Instance {
        schema,
        tuples,
        k: 10,
    }
}

fn bag(tuples: &[Tuple]) -> TupleBag {
    TupleBag::from_tuples(tuples.iter().cloned())
}

/// The solo baseline: every shard of the plan crawled one-call on a
/// single connection; total charged queries + merged bag.
fn solo(plan: &[ShardSpec], inst: &Instance, seed: u64) -> (u64, TupleBag) {
    let mut db = inst.server(seed);
    let mut queries = 0;
    let mut tuples = Vec::new();
    for spec in plan {
        let report = spec.crawl(&mut db, &inst.schema).unwrap();
        queries += report.queries;
        tuples.extend(report.tuples);
    }
    (queries, bag(&tuples))
}

/// Totals from a drained lease repository's checkpoint.
fn fleet_totals(repo: &MemoryLeaseRepository) -> (u64, TupleBag) {
    let cp = repo.checkpoint();
    let mut queries = 0;
    let mut tuples = Vec::new();
    for snap in &cp.shards {
        assert!(snap.is_complete(), "drained fleet left partial shard");
        queries += snap.queries;
        tuples.extend(snap.tuples.iter().cloned());
    }
    (queries, bag(&tuples))
}

/// Runs `workers` in-process workers to drain `repo`, each on its own
/// (identically seeded, hence identically answering) server.
fn run_fleet(repo: &MemoryLeaseRepository, inst: &Instance, seed: u64, workers: usize) {
    std::thread::scope(|scope| {
        for w in 0..workers {
            let mut repo = repo.clone();
            let inst = inst.clone();
            scope.spawn(move || {
                let mut db = inst.server(seed);
                let cfg = WorkerConfig {
                    name: format!("w{w}"),
                    wait_cap_ms: 10,
                    ..WorkerConfig::default()
                };
                drive_worker(&mut repo, &mut db, &inst.schema, &cfg).unwrap();
            });
        }
    });
}

fn signatures(plan: &[ShardSpec]) -> Vec<String> {
    plan.iter().map(ShardSpec::signature).collect()
}

// ---------------------------------------------------------------------
// Theorem 1a: per-root resumable crawl ≡ one-call crawl, and plan
// signatures round-trip through parse.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn resumable_crawl_matches_one_call(inst in instance_strategy(), seed in any::<u64>()) {
        prop_assume!(inst.solvable());
        let plan = Sharded::plan_oversubscribed(&inst.schema, 2, 2);
        for spec in &plan {
            let reparsed = ShardSpec::parse_signature(&spec.signature(), &inst.schema);
            prop_assert_eq!(reparsed.as_ref(), Ok(spec), "signature must round-trip");
            let mut db_a = inst.server(seed);
            let one_call = spec.crawl(&mut db_a, &inst.schema).unwrap();
            let mut db_b = inst.server(seed);
            let mut roots = 0;
            let per_root = spec
                .crawl_with(
                    &mut db_b,
                    &inst.schema,
                    SessionConfig::default(),
                    Some(&mut |done, _| roots = done),
                )
                .unwrap();
            prop_assert_eq!(one_call.queries, per_root.queries);
            prop_assert_eq!(one_call.resolved, per_root.resolved);
            prop_assert_eq!(one_call.overflowed, per_root.overflowed);
            prop_assert_eq!(one_call.pruned, per_root.pruned);
            prop_assert!(bag(&one_call.tuples).multiset_eq(&bag(&per_root.tuples)));
            prop_assert_eq!(roots as usize, spec.resume_points(), "one callback per root");
        }
    }

    // -----------------------------------------------------------------
    // Theorem 2a: prefix (banked partial) + suffix (resume) ≡ whole, at
    // every cursor — and the suffix replay is strictly cheaper whenever
    // the prefix charged anything.
    // -----------------------------------------------------------------

    #[test]
    fn partial_resume_merges_exactly(inst in instance_strategy(), seed in any::<u64>()) {
        prop_assume!(inst.solvable());
        let plan = Sharded::plan_oversubscribed(&inst.schema, 1, 2);
        for spec in &plan {
            let points = spec.resume_points();
            if points < 2 {
                continue;
            }
            let mut db = inst.server(seed);
            let whole = spec.crawl(&mut db, &inst.schema).unwrap();
            for cursor in 1..points {
                // Bank the partial the worker would heartbeat at `cursor`.
                let mut banked = None;
                let mut db_p = inst.server(seed);
                spec.crawl_with(
                    &mut db_p,
                    &inst.schema,
                    SessionConfig::default(),
                    Some(&mut |done, interim| {
                        if done as usize == cursor {
                            banked = Some(merge_snapshot(0, None, interim, Some(done)));
                        }
                    }),
                )
                .unwrap();
                let partial = banked.expect("cursor < points, callback must fire");
                // Salvage: crawl only the suffix, merge.
                let suffix_spec = spec.resume_suffix(cursor).unwrap();
                let mut db_s = inst.server(seed);
                let suffix = suffix_spec.crawl(&mut db_s, &inst.schema).unwrap();
                let merged = merge_snapshot(0, Some(&partial), &suffix, None);
                // Bag additivity is exact: root values partition the bag.
                prop_assert!(bag(&merged.tuples).multiset_eq(&bag(&whole.tuples)));
                // The merged accounting is the honest sum of both passes.
                prop_assert_eq!(merged.queries, partial.queries + suffix.queries);
                // Cost: the suffix may re-pay slice fetches the prefix
                // shared with it (the slice table memoizes per-session),
                // so the sum can exceed the uninterrupted whole — but
                // each prefix root's own slice fetch is never re-paid,
                // so the replay is strictly cheaper than a redo.
                prop_assert!(
                    merged.queries >= whole.queries,
                    "merged spend cannot undercut the uninterrupted crawl"
                );
                prop_assert!(
                    suffix.queries < whole.queries,
                    "salvage must replay strictly fewer queries than a whole-shard redo"
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Theorem 1b: the in-process fleet ≡ solo, bag and total cost.
    // -----------------------------------------------------------------

    #[test]
    fn fleet_matches_solo_bag_and_cost(
        inst in instance_strategy(),
        seed in any::<u64>(),
        workers in 1usize..4,
    ) {
        prop_assume!(inst.solvable());
        let plan = Sharded::plan_oversubscribed(&inst.schema, 2, 2);
        let (solo_queries, solo_bag) = solo(&plan, &inst, seed);
        let repo = MemoryLeaseRepository::new(signatures(&plan), Duration::from_secs(60));
        run_fleet(&repo, &inst, seed, workers);
        prop_assert!(repo.is_drained());
        let (fleet_queries, fleet_bag) = fleet_totals(&repo);
        prop_assert_eq!(fleet_queries, solo_queries, "fleet must charge exactly solo's cost");
        prop_assert!(fleet_bag.multiset_eq(&solo_bag), "fleet bag must equal solo bag");
    }
}

// ---------------------------------------------------------------------
// Theorem 2b: kill a worker mid-shard → lease expiry → peer salvage,
// exactly equal to the uninterrupted crawl, with a strictly cheaper
// replay than a whole-shard redo.
// ---------------------------------------------------------------------

#[test]
fn killed_worker_is_salvaged_exactly() {
    let inst = yahoo_like();
    let seed = 11;
    let plan = Sharded::plan_oversubscribed(&inst.schema, 1, 2);
    assert!(plan.len() >= 2 && plan[0].resume_points() >= 2);
    let (solo_queries, solo_bag) = solo(&plan, &inst, seed);
    let whole_shard0 = {
        let mut db = inst.server(seed);
        plan[0].crawl(&mut db, &inst.schema).unwrap()
    };

    let mut repo = MemoryLeaseRepository::new(signatures(&plan), Duration::from_secs(60));

    // Worker A leases shard 0, banks one root by heartbeat, then dies.
    let grant = match repo.lease("doomed").unwrap() {
        LeaseDecision::Grant(g) => *g,
        other => panic!("expected grant, got {other:?}"),
    };
    assert_eq!(grant.index, 0);
    let spec = ShardSpec::parse_signature(&grant.signature, &inst.schema).unwrap();
    let halt = CancelToken::new();
    let mut banked_queries = 0;
    {
        let repo_cell = Mutex::new(repo.clone());
        let result = spec.crawl_with(
            &mut inst.server(seed),
            &inst.schema,
            SessionConfig {
                cancel: Some(&halt),
                ..SessionConfig::default()
            },
            Some(&mut |done, interim| {
                if done == 1 {
                    let partial = merge_snapshot(grant.index, None, interim, Some(1));
                    banked_queries = partial.queries;
                    assert!(repo_cell
                        .lock()
                        .unwrap()
                        .heartbeat(grant.index, grant.lease, Some(&partial))
                        .unwrap());
                    halt.cancel(); // the crash
                }
            }),
        );
        assert!(matches!(result, Err(CrawlError::Stopped { .. })));
    }
    assert!(banked_queries > 0, "first root must have charged queries");

    // The deadline lapses; the shard is reclaimed with the banked partial.
    assert_eq!(repo.expire_leases_now(), 1);

    // Worker B drains the plan, salvaging shard 0 from the frontier.
    let mut db_b = inst.server(seed);
    let cfg = WorkerConfig {
        name: "survivor".into(),
        wait_cap_ms: 10,
        ..WorkerConfig::default()
    };
    let mut repo_b = repo.clone();
    let report_b = drive_worker(&mut repo_b, &mut db_b, &inst.schema, &cfg).unwrap();
    assert_eq!(report_b.shards_resumed, 1, "shard 0 must be resumed, not redone");
    assert!(repo.is_drained());

    // Exactness: no tuple lost, none double-counted — the salvaged
    // fleet's bag is the uninterrupted solo bag. The charged total may
    // exceed solo's by the slice fetches the suffix re-paid (honest
    // accounting of the crash), but never undercuts it.
    let (fleet_queries, fleet_bag) = fleet_totals(&repo);
    assert!(fleet_bag.multiset_eq(&solo_bag));
    assert!(fleet_queries >= solo_queries);

    // The salvage replayed only the suffix: strictly fewer queries than
    // a whole-shard redo.
    let salvaged = repo
        .checkpoint()
        .shards
        .iter()
        .find(|s| s.index == 0)
        .cloned()
        .unwrap();
    let replayed = salvaged.queries - banked_queries;
    assert!(
        replayed < whole_shard0.queries,
        "salvage replayed {replayed} vs whole-shard {}",
        whole_shard0.queries
    );
    let (expired, salvaged_grants) = repo.fleet_stats();
    assert_eq!((expired, salvaged_grants), (1, 1));
}

// ---------------------------------------------------------------------
// Theorem 2c: the delta protocol banks exactly what the full-snapshot
// protocol would have, after any number of roots, in memory and over
// the wire — including a delta landing on a salvaged prefix.
// ---------------------------------------------------------------------

/// A lease client that crashes once it has sent `beats` heartbeats on
/// shard `target`: its next verb on that shard fails without reaching
/// the coordinator, so the lease is left holding exactly `beats` roots.
struct Dying<'a> {
    inner: &'a mut dyn LeaseRepository,
    target: usize,
    beats: usize,
}

fn killed() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "worker killed")
}

impl CrawlRepository for Dying<'_> {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        self.inner.load()
    }
    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        self.inner.store(checkpoint)
    }
}

impl LeaseRepository for Dying<'_> {
    fn plan(&mut self) -> io::Result<Vec<String>> {
        self.inner.plan()
    }
    fn lease(&mut self, worker: &str) -> io::Result<LeaseDecision> {
        self.inner.lease(worker)
    }
    fn heartbeat(
        &mut self,
        index: usize,
        lease: u64,
        partial: Option<&ShardSnapshot>,
    ) -> io::Result<bool> {
        if index == self.target {
            if self.beats == 0 {
                return Err(killed());
            }
            self.beats -= 1;
        }
        self.inner.heartbeat(index, lease, partial)
    }
    fn complete(
        &mut self,
        index: usize,
        lease: u64,
        snapshot: ShardSnapshot,
    ) -> io::Result<Option<u64>> {
        if index == self.target {
            return Err(killed());
        }
        self.inner.complete(index, lease, snapshot)
    }
}

/// A fresh fleet over `plan`, in process or behind a hosted
/// [`Coordinator`]. Either way `state` is the lease state to inspect and
/// expire, and `client` opens a worker's lease connection.
struct Fleet {
    state: MemoryLeaseRepository,
    wire: Option<(String, Arc<AtomicBool>)>,
}

impl Fleet {
    fn new(plan: &[ShardSpec], wire: bool) -> Fleet {
        let sigs = signatures(plan);
        if !wire {
            return Fleet {
                state: MemoryLeaseRepository::new(sigs, Duration::from_secs(60)),
                wire: None,
            };
        }
        let (coordinator, _) = Coordinator::new(
            sigs,
            CoordinatorConfig {
                ttl: Duration::from_secs(60),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        let state = coordinator.repo();
        let (addr, stop) = host_coordinator(Arc::new(coordinator));
        Fleet {
            state,
            wire: Some((format!("http://{addr}"), stop)),
        }
    }

    fn client(&self) -> Box<dyn LeaseRepository> {
        match &self.wire {
            Some((url, _)) => Box::new(WireLeaseRepository::connect(url).unwrap()),
            None => Box::new(self.state.clone()),
        }
    }

    /// Runs a worker that dies after banking `beats` roots of shard
    /// `target`, then lapses its lease.
    fn kill_after(&self, inst: &Instance, seed: u64, target: usize, beats: usize) {
        let mut client = self.client();
        let mut dying = Dying {
            inner: client.as_mut(),
            target,
            beats,
        };
        let cfg = WorkerConfig {
            name: "doomed".into(),
            wait_cap_ms: 10,
            ..WorkerConfig::default()
        };
        let died = drive_worker(&mut dying, &mut inst.server(seed), &inst.schema, &cfg);
        assert!(died.is_err(), "the worker must die on shard {target}");
        assert_eq!(self.state.expire_leases_now(), 1);
    }

    /// Drains the rest of the plan with one survivor, which must resume
    /// exactly one salvaged shard.
    fn drain(&self, inst: &Instance, seed: u64) {
        let cfg = WorkerConfig {
            name: "survivor".into(),
            wait_cap_ms: 10,
            ..WorkerConfig::default()
        };
        let mut client = self.client();
        let report = drive_worker(client.as_mut(), &mut inst.server(seed), &inst.schema, &cfg)
            .unwrap();
        assert_eq!(report.shards_resumed, 1);
        assert!(self.state.is_drained());
    }

    /// The snapshot the lease state holds for shard `index`.
    fn banked(&self, index: usize) -> ShardSnapshot {
        let cp = self.state.checkpoint();
        cp.shards.into_iter().find(|s| s.index == index).unwrap()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some((_, stop)) = &self.wire {
            stop.store(true, Ordering::Release);
        }
    }
}

/// Every interim report `spec`'s per-root crawl passes its resume
/// callback, in root order.
fn interims(spec: &ShardSpec, inst: &Instance, seed: u64) -> Vec<CrawlReport> {
    let mut out = Vec::new();
    spec.crawl_with(
        &mut inst.server(seed),
        &inst.schema,
        SessionConfig::default(),
        Some(&mut |_, interim| out.push(interim.clone())),
    )
    .unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn multi_root_salvage_banks_the_full_snapshot(inst in instance_strategy(), seed in any::<u64>()) {
        prop_assume!(inst.solvable());
        let plan = Sharded::plan_oversubscribed(&inst.schema, 1, 2);
        let target = plan.iter().position(|s| s.resume_points() >= 2);
        let Some(target) = target else { return Ok(()) };
        let points = plan[target].resume_points();
        let (_, solo_bag) = solo(&plan, &inst, seed);
        let whole = plan[target].crawl(&mut inst.server(seed), &inst.schema).unwrap();
        let roots = interims(&plan[target], &inst, seed);
        prop_assert_eq!(roots.len(), points);
        for r in 1..points {
            for wire in [false, true] {
                let fleet = Fleet::new(&plan, wire);
                fleet.kill_after(&inst, seed, target, r);
                let banked = fleet.banked(target);
                let full = merge_snapshot(target, None, &roots[r - 1], Some(r as u64));
                prop_assert_eq!(&banked, &full, "r = {}, wire = {}", r, wire);
                fleet.drain(&inst, seed);
                let (_, fleet_bag) = fleet_totals(&fleet.state);
                prop_assert!(fleet_bag.multiset_eq(&solo_bag), "r = {}, wire = {}", r, wire);
                let suffix = fleet.banked(target).queries - banked.queries;
                prop_assert!(
                    suffix < whole.queries,
                    "suffix {} vs whole shard {} (r = {}, wire = {})",
                    suffix,
                    whole.queries,
                    r,
                    wire
                );
            }
        }
    }
}

/// Two crashes on one shard: the salvaging worker banks one more root
/// before it dies too, so its delta lands on the salvaged prefix the
/// coordinator holds. The result is exactly the full snapshot the
/// second worker would have sent, and the third worker finishes the
/// shard to the solo bag.
#[test]
fn delta_on_a_salvaged_prefix_banks_the_full_snapshot() {
    let inst = yahoo_like();
    let seed = 41;
    let plan = Sharded::plan_oversubscribed(&inst.schema, 1, 2);
    assert!(plan[0].resume_points() >= 3);
    let (_, solo_bag) = solo(&plan, &inst, seed);
    let first = merge_snapshot(0, None, &interims(&plan[0], &inst, seed)[0], Some(1));
    let suffix = plan[0].resume_suffix(1).unwrap();
    let second = merge_snapshot(0, Some(&first), &interims(&suffix, &inst, seed)[0], Some(2));
    for wire in [false, true] {
        let fleet = Fleet::new(&plan, wire);
        fleet.kill_after(&inst, seed, 0, 1);
        assert_eq!(fleet.banked(0), first, "wire = {wire}");
        fleet.kill_after(&inst, seed, 0, 1);
        assert_eq!(fleet.banked(0), second, "wire = {wire}");
        fleet.drain(&inst, seed);
        let (_, fleet_bag) = fleet_totals(&fleet.state);
        assert!(fleet_bag.multiset_eq(&solo_bag), "wire = {wire}");
        let (expired, salvaged) = fleet.state.fleet_stats();
        assert_eq!((expired, salvaged), (2, 2), "wire = {wire}");
    }
}

// ---------------------------------------------------------------------
// Theorem 1c: the same fleet over the wire — workers speaking HTTP to a
// Coordinator — is still exactly solo, and the coordinator trips its
// drain token when the last shard lands.
// ---------------------------------------------------------------------

/// A minimal HTTP host for a [`Coordinator`]: one request per
/// connection, coordination endpoints only. (The production host is
/// `hdc serve --coordinate`, where the same [`hdc_net::RouteExt`] hook
/// shares the listener with the data endpoints; the CI fleet-loopback
/// job exercises that path end to end.)
fn host_coordinator(
    coordinator: std::sync::Arc<Coordinator>,
) -> (String, std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use hdc_net::RouteExt;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_flag = stop.clone();
    listener.set_nonblocking(true).unwrap();
    std::thread::spawn(move || loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).unwrap();
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                let Ok(Some(req)) = http::read_request(&mut reader) else {
                    continue;
                };
                let resp = coordinator.handle(&req).unwrap_or(http::Response {
                    status: 404,
                    body: b"not found".to_vec(),
                    content_type: "text/plain; charset=utf-8",
                });
                let mut stream = stream;
                let _ = http::write_response(&mut stream, &resp, true);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop_flag.load(std::sync::atomic::Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    });
    (addr, stop)
}

#[test]
fn wire_fleet_matches_solo() {
    let inst = yahoo_like();
    let seed = 31;
    let plan = Sharded::plan_oversubscribed(&inst.schema, 2, 2);
    let total = plan.len();
    let (solo_queries, solo_bag) = solo(&plan, &inst, seed);

    let (coordinator, _) = Coordinator::new(
        signatures(&plan),
        CoordinatorConfig {
            ttl: Duration::from_secs(60),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let coordinator = std::sync::Arc::new(coordinator);
    let (addr, stop) = host_coordinator(coordinator.clone());

    std::thread::scope(|scope| {
        for w in 0..2 {
            let inst = inst.clone();
            let addr = addr.clone();
            scope.spawn(move || {
                let mut repo = WireLeaseRepository::connect(&format!("http://{addr}")).unwrap();
                assert_eq!(repo.plan().unwrap().len(), total);
                let mut db = inst.server(seed);
                let cfg = WorkerConfig {
                    name: format!("wire-{w}"),
                    wait_cap_ms: 10,
                    ..WorkerConfig::default()
                };
                drive_worker(&mut repo, &mut db, &inst.schema, &cfg).unwrap();
            });
        }
    });

    assert!(coordinator.is_drained());
    assert!(
        coordinator.drained_token().is_cancelled(),
        "drain must trip the serve-loop token"
    );
    let outcome = coordinator.outcome();
    assert_eq!(outcome.queries, solo_queries, "wire fleet cost ≡ solo exactly");
    assert_eq!(outcome.shards, (total, total));
    let cp = coordinator.checkpoint();
    let tuples: Vec<Tuple> = cp.shards.iter().flat_map(|s| s.tuples.clone()).collect();
    assert!(bag(&tuples).multiset_eq(&solo_bag));

    // The wire checkpoint endpoint serves the same state.
    let mut client = WireLeaseRepository::connect(&format!("http://{addr}")).unwrap();
    let served = client.load().unwrap().unwrap();
    assert_eq!(served.shards.len(), total);
    assert!(matches!(
        client.lease("latecomer").unwrap(),
        LeaseDecision::Drained
    ));
    stop.store(true, std::sync::atomic::Ordering::Release);
}

/// `yahoo_like`'s 2-session × 2 plan as the four-variant planner wrote
/// it, before signatures used the wire's predicate tokens.
fn previous_format_plan() -> Vec<String> {
    ["cat:0=[0, 4]", "cat:0=[1]", "cat:0=[2]", "cat:0=[3]"]
        .map(String::from)
        .to_vec()
}

/// A coordinator handed a checkpoint for another plan refuses it, as
/// the sharded driver does: `Coordinator::new` fails with the
/// plan-mismatch `InvalidData` error, and the foreign file is left
/// byte-identical. A checkpoint of the same plan written in the
/// previous signature format is foreign too: there is no reader for it.
#[test]
fn foreign_checkpoint_is_refused_and_preserved() {
    let inst = yahoo_like();
    let theirs = Sharded::plan_oversubscribed(&inst.schema, 1, 2);
    let ours = Sharded::plan_oversubscribed(&inst.schema, 2, 2);
    assert_ne!(signatures(&theirs), signatures(&ours));
    assert_eq!(ours.len(), previous_format_plan().len());
    let path = std::env::temp_dir().join(format!("hdc_fleet_foreign_{}.json", std::process::id()));
    let shard = theirs[0].crawl(&mut inst.server(7), &inst.schema).unwrap();
    for foreign in [signatures(&theirs), previous_format_plan()] {
        JsonFileRepository::new(&path)
            .store(&CrawlCheckpoint {
                plan: foreign,
                shards: vec![snapshot_of_report(0, &shard, None)],
            })
            .unwrap();
        let before = std::fs::read(&path).unwrap();

        let refused = Coordinator::new(
            signatures(&ours),
            CoordinatorConfig {
                checkpoint: Some(path.clone()),
                ..CoordinatorConfig::default()
            },
        );
        let err = refused.err().expect("a foreign checkpoint must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("plan mismatch"), "{err}");
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after, before, "checkpoint file touched");
    }
    std::fs::remove_file(&path).unwrap();
}

/// The sharded driver refuses a checkpoint written in the previous
/// signature format through the same plan-mismatch path, before
/// charging a query, and leaves the file byte-identical.
#[test]
fn previous_format_checkpoint_is_refused_by_the_sharded_driver() {
    let inst = yahoo_like();
    let path = std::env::temp_dir().join(format!("hdc_sharded_old_{}.json", std::process::id()));
    let shard = Sharded::plan_oversubscribed(&inst.schema, 2, 2)[0]
        .crawl(&mut inst.server(7), &inst.schema)
        .unwrap();
    JsonFileRepository::new(&path)
        .store(&CrawlCheckpoint {
            plan: previous_format_plan(),
            shards: vec![snapshot_of_report(0, &shard, None)],
        })
        .unwrap();
    let before = std::fs::read(&path).unwrap();
    let mut repo = JsonFileRepository::new(&path);
    // A zero quota: any query the resume attempted would fail with a
    // budget error instead.
    let err = Crawl::builder()
        .sessions(2)
        .oversubscribe(2)
        .budget(0)
        .repository(&mut repo)
        .run_sharded(|_s| inst.server(7))
        .unwrap_err();
    let CrawlError::Db { error, partial } = err else {
        panic!("expected a typed mismatch error, got {err:?}");
    };
    assert!(error.to_string().contains("plan mismatch"), "{error}");
    assert_eq!(partial.queries, 0, "refused before spending");
    let after = std::fs::read(&path).unwrap();
    assert_eq!(after, before, "checkpoint file touched");
    std::fs::remove_file(&path).unwrap();
}

/// A lease repository that grants one signature, then reports the plan
/// drained, counting the verbs the worker sends.
struct OneGrant {
    signature: String,
    granted: bool,
    heartbeats: usize,
    completes: usize,
}

impl OneGrant {
    fn new(signature: &str) -> Self {
        OneGrant {
            signature: signature.to_string(),
            granted: false,
            heartbeats: 0,
            completes: 0,
        }
    }
}

impl CrawlRepository for OneGrant {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        Ok(None)
    }

    fn store(&mut self, _checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        Ok(())
    }
}

impl LeaseRepository for OneGrant {
    fn plan(&mut self) -> io::Result<Vec<String>> {
        Ok(vec![self.signature.clone()])
    }

    fn lease(&mut self, _worker: &str) -> io::Result<LeaseDecision> {
        if std::mem::replace(&mut self.granted, true) {
            return Ok(LeaseDecision::Drained);
        }
        Ok(LeaseDecision::Grant(Box::new(LeaseGrant {
            index: 0,
            signature: self.signature.clone(),
            lease: 1,
            ttl_ms: 60_000,
            partial: None,
        })))
    }

    fn heartbeat(
        &mut self,
        _index: usize,
        _lease: u64,
        _partial: Option<&ShardSnapshot>,
    ) -> io::Result<bool> {
        self.heartbeats += 1;
        Ok(true)
    }

    fn complete(
        &mut self,
        _index: usize,
        _lease: u64,
        snapshot: ShardSnapshot,
    ) -> io::Result<Option<u64>> {
        self.completes += 1;
        Ok(Some(snapshot.tuples.len() as u64))
    }
}

/// A grant's signature is outside input. On the Yahoo schema, every
/// signature a crawl cannot run is a clean `InvalidData` error — never
/// a panic, never a query, never a `complete` — while a plan's own
/// signature crawls and completes.
#[test]
fn hostile_grant_signatures_are_refused_cleanly() {
    let ds = hdc_data::yahoo::generate_scaled(1_000, 3);
    let server = || {
        HiddenDbServer::new(
            ds.schema.clone(),
            ds.tuples.clone(),
            ServerConfig { k: 256, seed: 3 },
        )
        .unwrap()
    };
    let cfg = WorkerConfig::default();
    let shard = &Sharded::plan(&ds.schema, 2)[0];
    let mut repo = OneGrant::new(&shard.signature());
    let report = drive_worker(&mut repo, &mut server(), &ds.schema, &cfg).unwrap();
    assert_eq!((report.shards_completed, repo.completes), (1, 1));
    assert_eq!(repo.heartbeats, shard.resume_points());

    for (signature, case) in [
        ("2,0,1/99:=1", "attribute out of range"),
        ("2,0,1/3:=1", "equality on a numeric attribute"),
        ("2,0,1/2:=999", "value out of domain"),
        ("2,0,1/2:=0&2:=1", "the same attribute twice"),
        ("99,0,1/2:=1", "order names an attribute out of range"),
        ("2,0/2:=1", "order misses a categorical attribute"),
        ("2,0,1/0:=1", "root off the level order"),
        ("2,0,1/2:=1;2:=1", "the same root twice"),
        ("2,0,1/0:=0&1:=0&2:=1&3:9..1", "inverted range"),
        ("cat:2=[1]", "the previous format"),
    ] {
        let mut repo = OneGrant::new(signature);
        let mut db = server();
        let err = drive_worker(&mut repo, &mut db, &ds.schema, &cfg)
            .expect_err(case)
            .to_string();
        assert!(err.contains("unparseable shard signature"), "{case}: {err}");
        assert_eq!(repo.completes + repo.heartbeats, 0, "{case}");
        assert_eq!(db.queries_issued(), 0, "{case}");
    }
}

/// A hostile `/complete` body — a valid verb line followed by 1 MB of
/// `[` — is a clean 400, not a stack overflow, and the same host keeps
/// answering afterwards. So is every delta that does not extend the
/// partial the coordinator holds, and none of them changes it.
#[test]
fn hostile_snapshot_payload_is_a_clean_400() {
    let inst = yahoo_like();
    let plan = Sharded::plan_oversubscribed(&inst.schema, 2, 2);
    let (coordinator, _) =
        Coordinator::new(signatures(&plan), CoordinatorConfig::default()).unwrap();
    let coordinator = Arc::new(coordinator);
    let (addr, stop) = host_coordinator(coordinator.clone());
    let mut client = Client::new(&addr, Duration::from_secs(30));

    let mut body = b"0 1 0\n".to_vec();
    body.resize(body.len() + (1 << 20), b'[');
    let resp = client.request("POST", "/complete", &body).unwrap();
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));

    let plan_resp = client.request("GET", "/plan", b"").unwrap();
    assert_eq!(plan_resp.status, 200);
    assert!(plan_resp.body.starts_with(b"hdc-coord v1 "));
    assert_eq!(client.connects(), 2, "`Connection: close` forces a reconnect");

    // Deltas. Lease shard 0 and bank one root (tuples 0..2, frontier 1).
    let grant = client.request("POST", "/lease", b"hostile").unwrap();
    assert!(grant.body.starts_with(b"grant 0 1 "));
    let sigs = signatures(&plan);
    let verb = |path: &str, head: &str, frontier: Option<u64>, tuples: &[Tuple]| {
        let mut cp = CrawlCheckpoint::new(sigs.clone());
        cp.shards.push(ShardSnapshot {
            index: 0,
            queries: 5,
            resolved: 3,
            overflowed: 2,
            pruned: 0,
            frontier,
            metrics: Default::default(),
            tuples: tuples.to_vec(),
        });
        let body = format!("{head}\n{}", cp.to_json());
        let resp = Client::new(&addr, Duration::from_secs(30))
            .request("POST", path, body.as_bytes())
            .unwrap();
        (resp.status, String::from_utf8_lossy(&resp.body).trim().to_string())
    };
    let ok = verb("/heartbeat", "0 1 0", Some(1), &inst.tuples[..2]);
    assert_eq!(ok, (200, "ok".to_string()));
    let held = coordinator.checkpoint();
    assert_eq!(held.shards[0].tuples, inst.tuples[..2].to_vec());

    let refused = [
        // `since` is not the held frontier (1).
        ("/heartbeat", "0 1 0", Some(2)),
        ("/heartbeat", "0 1 2", Some(3)),
        // The frontier does not advance.
        ("/heartbeat", "0 1 1", Some(1)),
        // A completion from a stale `since`.
        ("/complete", "0 1 0", None),
        // The two-field verb line of the full-snapshot protocol.
        ("/heartbeat", "0 1", Some(2)),
    ];
    for (path, head, frontier) in refused {
        let (status, answer) = verb(path, head, frontier, &inst.tuples[2..3]);
        assert_eq!(status, 400, "{path} {head:?}: {answer}");
        assert_eq!(coordinator.checkpoint(), held, "{path} {head:?} must not merge");
    }

    // A delta on a reclaimed lease is `lost`, and the salvaged partial
    // stays exactly what was held.
    assert_eq!(coordinator.repo().expire_leases_now(), 1);
    for (path, frontier) in [("/heartbeat", Some(2)), ("/complete", None)] {
        let answer = verb(path, "0 1 1", frontier, &inst.tuples[2..3]);
        assert_eq!(answer, (200, "lost".to_string()), "{path}");
        assert_eq!(coordinator.checkpoint(), held, "{path} must not merge");
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
}

/// The control plane keeps its connection alive: joining (`GET /plan`),
/// lease, heartbeat, completion and checkpoint load all ride one TCP
/// connection to a `Coordinator` mounted on a real `WireServer`.
#[test]
fn lease_verbs_share_one_keep_alive_connection() {
    let inst = yahoo_like();
    let plan = Sharded::plan_oversubscribed(&inst.schema, 2, 2);
    let (coordinator, _) =
        Coordinator::new(signatures(&plan), CoordinatorConfig::default()).unwrap();
    let shared = SharedServer::new(
        inst.schema.clone(),
        inst.tuples.clone(),
        ServerConfig { k: inst.k, seed: 5 },
    )
    .unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        shared,
        ServeOptions {
            extension: Some(std::sync::Arc::new(coordinator) as std::sync::Arc<dyn RouteExt>),
            ..ServeOptions::default()
        },
    )
    .unwrap();

    let mut repo = WireLeaseRepository::connect(&format!("http://{}/", server.addr())).unwrap();
    let LeaseDecision::Grant(grant) = repo.lease("keep-alive").unwrap() else {
        panic!("a fresh plan grants a shard");
    };
    assert!(repo.heartbeat(grant.index, grant.lease, None).unwrap());
    let snapshot = ShardSnapshot {
        index: grant.index,
        queries: 0,
        resolved: 0,
        overflowed: 0,
        pruned: 0,
        frontier: None,
        metrics: Default::default(),
        tuples: Vec::new(),
    };
    assert!(repo.complete(grant.index, grant.lease, snapshot).unwrap().is_some());
    let checkpoint = repo.load().unwrap().unwrap();
    assert!(checkpoint.has_shard(grant.index));
    drop(repo);

    let stats = server.shutdown().unwrap();
    assert_eq!(stats.requests, 5, "plan, lease, heartbeat, complete, checkpoint");
    assert_eq!(stats.connections, 1, "every lease verb rides one connection");
}
