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
//! 3. **Dedup never drops a tuple.** Cross-restart dedup (exact and
//!    Bloom) annotates new-vs-seen counts; the crawled bag is identical
//!    with dedup off, exact, or Bloom, and a re-crawl reports zero new
//!    tuples in both modes (Bloom has no false negatives).
//!
//! Bags are compared as **multisets** ([`TupleBag::multiset_eq`]): the
//! determinism contract fixes each shard's charged query sequence and
//! bag, but fleet merge order (completion order vs plan order) and
//! per-root emission interleaving are scheduling artifacts the cost
//! model and the paper's Problem 1 do not observe.

use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;

use hdc_coord::{
    drive_worker, merge_snapshot, Coordinator, CoordinatorConfig, LeaseDecision, LeaseRepository,
    MemoryLeaseRepository, TupleDedup, WireLeaseRepository, WorkerConfig,
};
use hdc_core::{
    CancelToken, CrawlError, CrawlRepository, ResumableShard, SessionConfig, ShardSpec, Sharded,
};
use hdc_net::http;
use hdc_server::{HiddenDbServer, ServerConfig};
use hdc_types::{AttrKind, Schema, Tuple, TupleBag, Value};

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
            let reparsed = ShardSpec::parse_signature(&spec.signature());
            prop_assert_eq!(reparsed.as_ref(), Some(spec), "signature must round-trip");
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
            if let Some(points) = spec.resume_points() {
                prop_assert_eq!(roots as usize, points, "one callback per root value");
            }
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
            let Some(points) = spec.resume_points() else { continue };
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
    assert!(plan.len() >= 2 && plan[0].resume_points().unwrap() >= 2);
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
    let spec = ShardSpec::parse_signature(&grant.signature).unwrap();
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
    let (_, expired, salvaged_grants) = repo.fleet_stats();
    assert_eq!((expired, salvaged_grants), (1, 1));
}

// ---------------------------------------------------------------------
// Theorem 3: dedup (exact and Bloom) never changes the bag, and a
// re-crawl reports zero new tuples in both modes.
// ---------------------------------------------------------------------

#[test]
fn dedup_annotates_without_dropping_tuples() {
    let inst = yahoo_like();
    let seed = 23;
    let plan = Sharded::plan_oversubscribed(&inst.schema, 1, 2);
    let sigs = signatures(&plan);
    let (_, solo_bag) = solo(&plan, &inst, seed);
    let distinct = {
        let mut d = TupleDedup::exact();
        inst.tuples.iter().filter(|t| d.insert(t)).count() as u64
    };

    let mut carried: Vec<(String, TupleDedup)> = Vec::new();
    for (label, dedup) in [
        ("exact", TupleDedup::exact()),
        ("bloom", TupleDedup::bloom(1024, 7)),
    ] {
        let repo =
            MemoryLeaseRepository::new(sigs.clone(), Duration::from_secs(60)).with_dedup(dedup);
        run_fleet(&repo, &inst, seed, 2);
        let (_, fleet_bag) = fleet_totals(&repo);
        assert!(
            fleet_bag.multiset_eq(&solo_bag),
            "{label}: dedup must never drop a tuple from the bag"
        );
        let (stats, _, _) = repo.fleet_stats();
        assert!(
            stats.new <= distinct,
            "{label}: new count {} cannot exceed distinct {}",
            stats.new,
            distinct
        );
        if label == "exact" {
            assert_eq!(stats.new, distinct, "exact mode counts every distinct tuple");
        }
        carried.push((
            label.to_string(),
            TupleDedup::from_text(&repo.dedup_text().unwrap()).unwrap(),
        ));
    }

    // Re-crawl with carried-over dedup state: everything was seen, so
    // both modes must report zero new (Bloom has no false negatives).
    for (label, dedup) in carried {
        let repo =
            MemoryLeaseRepository::new(sigs.clone(), Duration::from_secs(60)).with_dedup(dedup);
        run_fleet(&repo, &inst, seed, 2);
        let (_, fleet_bag) = fleet_totals(&repo);
        assert!(fleet_bag.multiset_eq(&solo_bag), "{label}: re-crawl bag intact");
        let (stats, _, _) = repo.fleet_stats();
        assert_eq!(
            stats.new, 0,
            "{label}: re-crawl of known tuples must report zero new"
        );
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
