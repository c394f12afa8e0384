//! Fleet-coordination benchmark + `BENCH_pr10.json` emitter.
//!
//! PR 10 adds distributed crawl coordination: a lease coordinator
//! (in-process [`MemoryLeaseRepository`], or wire-served by a
//! [`Coordinator`] mounted next to the data plane) hands shards to
//! workers that crawl, heartbeat, and report. This bench quantifies the
//! claims behind shipping it:
//!
//! 1. **Coordination is free of *semantic* cost.** A leased fleet —
//!    in-process or over the wire — extracts the same bag at the same
//!    total charged query cost as the same plan crawled solo, at every
//!    worker count. Leases, heartbeats, and completions are control
//!    traffic; the server never charges for them. Asserted exactly,
//!    even under `--quick`.
//! 2. **Control traffic is cheap.** Lease/heartbeat round trips are
//!    counted per run and one control round trip is timed directly, so
//!    the overhead of coordinating is a recorded number, not a vibe.
//! 3. **Partial-snapshot salvage replays strictly less than a
//!    whole-shard redo.** For a mid-shard crash the salvaging peer
//!    crawls only the un-checkpointed suffix; recorded as banked /
//!    suffix / whole-shard query counts, asserted
//!    `suffix < whole` (the suffix may re-pay slice fetches it shared
//!    with the prefix, so `banked + suffix ≥ whole` is the honest
//!    accounting, not equality).
//!
//! # What is measured
//!
//! One solvable Yahoo-shaped store (k = 128). One fixed
//! 16-shard plan. For each worker count W ∈ {1, 2, 4, 8}: fleet wall
//! time, total charged queries, and control-message counts in two
//! regimes — `memory-lease` (threads sharing a
//! [`MemoryLeaseRepository`], each on its own store client) and
//! `wire-lease` ([`WireServer`] hosting data + coordinator, workers
//! speaking HTTP for both planes). The `solo` row is the same plan
//! crawled shard-by-shard on one connection.
//!
//! Output: `BENCH_pr10.json` (override path with `BENCH_OUT`;
//! `--quick` runs a CI-sized subset). Claims are asserted at record
//! time — the process fails if they do not hold.

use std::sync::Arc;
use std::time::Instant;

use hdc_coord::{
    drive_worker, Coordinator, CoordinatorConfig, MemoryLeaseRepository, WireLeaseRepository,
    WorkerConfig, WorkerReport,
};
use hdc_core::{CrawlReport, ResumableShard, SessionConfig, ShardSpec, Sharded};
use hdc_net::{RouteExt, ServeOptions, WireServer};
use hdc_server::{ServerConfig, SharedServer};
use hdc_types::TupleBag;

const SEED: u64 = 0x10aa;
const K: usize = 128;
/// The fixed plan width: `plan_oversubscribed(schema, 8, 2)` — the same
/// partition for every worker count, so costs are comparable across W.
const PLAN_SESSIONS: usize = 8;
const PLAN_FACTOR: usize = 2;

struct Cell {
    workers: usize,
    mode: &'static str,
    wall_ms: f64,
    queries: u64,
    tuples: usize,
    heartbeats: u64,
    waits: u64,
    salvaged: u64,
}

/// Sums the control counters of a fleet's worker reports.
fn fold_reports(reports: &[WorkerReport]) -> (u64, u64, u64) {
    reports.iter().fold((0, 0, 0), |(h, w, s), r| {
        (h + r.heartbeats, w + r.waits, s + r.shards_resumed)
    })
}

/// Totals from a drained repository checkpoint.
fn totals(repo: &mut dyn hdc_coord::LeaseRepository) -> (u64, usize, TupleBag) {
    let cp = repo.load().expect("checkpoint").expect("drained fleet");
    let mut queries = 0;
    let mut tuples = Vec::new();
    for snap in &cp.shards {
        assert!(snap.is_complete(), "drained fleet left a partial shard");
        queries += snap.queries;
        tuples.extend(snap.tuples.iter().cloned());
    }
    let count = tuples.len();
    (queries, count, TupleBag::from_tuples(tuples))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 1_500 } else { 12_000 };
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_pr10.json".to_string());

    eprintln!("building store n = {n}, k = {K} …");
    let ds = hdc_data::yahoo::generate_scaled(n, 11);
    let shared = SharedServer::new(ds.schema.clone(), ds.tuples.clone(), ServerConfig {
        k: K,
        seed: SEED,
    })
    .expect("yahoo dataset is schema-valid");
    let plan = Sharded::plan_oversubscribed(&ds.schema, PLAN_SESSIONS, PLAN_FACTOR);
    let signatures: Vec<String> = plan.iter().map(ShardSpec::signature).collect();
    eprintln!("plan: {} shards", plan.len());

    let worker_cfg = |name: String| WorkerConfig {
        name,
        wait_cap_ms: 10,
        ..WorkerConfig::default()
    };
    let mut cells: Vec<Cell> = Vec::new();
    let mut claims_ok = true;

    // Solo baseline: the same plan, shard by shard, one connection.
    let t0 = Instant::now();
    let (solo_queries, solo_tuples, solo_bag) = {
        let mut db = shared.client();
        let mut queries = 0;
        let mut tuples = Vec::new();
        for spec in &plan {
            let report = spec.crawl(&mut db, &ds.schema).expect("bench store is solvable");
            queries += report.queries;
            tuples.extend(report.tuples);
        }
        let count = tuples.len();
        (queries, count, TupleBag::from_tuples(tuples))
    };
    let solo_wall = t0.elapsed().as_secs_f64() * 1e3;
    cells.push(Cell {
        workers: 1,
        mode: "solo",
        wall_ms: solo_wall,
        queries: solo_queries,
        tuples: solo_tuples,
        heartbeats: 0,
        waits: 0,
        salvaged: 0,
    });
    eprintln!("  solo: {solo_queries} queries, {solo_tuples} tuples, {solo_wall:.1} ms");

    for &w in worker_counts {
        // In-process lease fleet: W threads, one shared lease state,
        // each worker on its own client of the shared store.
        let repo = MemoryLeaseRepository::new(signatures.clone(), std::time::Duration::from_secs(30));
        let t0 = Instant::now();
        let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..w)
                .map(|i| {
                    let mut worker_repo = repo.clone();
                    let cfg = worker_cfg(format!("mem-{i}"));
                    let shared = &shared;
                    let schema = &ds.schema;
                    scope.spawn(move || {
                        let mut db = shared.client();
                        drive_worker(&mut worker_repo, &mut db, schema, &cfg)
                            .expect("in-process fleet worker")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
        });
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let mut repo = repo;
        let (queries, tuples, fleet_bag) = totals(&mut repo);
        let (heartbeats, waits, salvaged) = fold_reports(&reports);
        if queries != solo_queries || !fleet_bag.multiset_eq(&solo_bag) {
            eprintln!(
                "CLAIM FAILED: W={w}: memory-lease fleet (bag {tuples}, cost {queries}) != \
                 solo (bag {solo_tuples}, cost {solo_queries})"
            );
            claims_ok = false;
        }
        cells.push(Cell {
            workers: w,
            mode: "memory-lease",
            wall_ms: wall,
            queries,
            tuples,
            heartbeats,
            waits,
            salvaged,
        });

        // Wire lease fleet: one server hosts both planes; workers speak
        // HTTP for data queries and lease verbs alike.
        let (coordinator, _restore) =
            Coordinator::new(signatures.clone(), CoordinatorConfig::default())
                .expect("coordinator over a fresh plan");
        let coordinator = Arc::new(coordinator);
        let server = WireServer::start("127.0.0.1:0", shared.clone(), ServeOptions {
            extension: Some(Arc::clone(&coordinator) as Arc<dyn RouteExt>),
            ..ServeOptions::default()
        })
        .expect("bind loopback");
        let addr = server.addr().to_string();
        let t0 = Instant::now();
        let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..w)
                .map(|i| {
                    let cfg = worker_cfg(format!("wire-{i}"));
                    let addr = addr.clone();
                    let schema = &ds.schema;
                    scope.spawn(move || {
                        let mut lease =
                            WireLeaseRepository::connect(&addr).expect("coordinator reachable");
                        let conn =
                            hdc_net::HttpConnector::new(&addr).expect("schema probe");
                        let mut db = conn.db(i);
                        drive_worker(&mut lease, &mut db, schema, &cfg)
                            .expect("wire fleet worker")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
        });
        let wall = t0.elapsed().as_secs_f64() * 1e3;

        // Control-plane round trip, timed directly: each connect is one
        // TCP setup + `GET /plan` + full response.
        let probes = 32;
        let t0 = Instant::now();
        for _ in 0..probes {
            WireLeaseRepository::connect(&addr).expect("coordinator reachable");
        }
        let control_rtt_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(probes);
        server.shutdown().expect("clean drain");

        let mut wire_repo = coordinator.repo();
        let (queries, tuples, fleet_bag) = totals(&mut wire_repo);
        let (heartbeats, waits, salvaged) = fold_reports(&reports);
        if queries != solo_queries || !fleet_bag.multiset_eq(&solo_bag) {
            eprintln!(
                "CLAIM FAILED: W={w}: wire-lease fleet (bag {tuples}, cost {queries}) != \
                 solo (bag {solo_tuples}, cost {solo_queries})"
            );
            claims_ok = false;
        }
        cells.push(Cell {
            workers: w,
            mode: "wire-lease",
            wall_ms: wall,
            queries,
            tuples,
            heartbeats,
            waits,
            salvaged,
        });

        for cell in &cells[cells.len() - 2..] {
            eprintln!(
                "  W = {:>2}  {:<13}  wall {:>8.1} ms  {:>7} queries  {:>6} heartbeats  \
                 {:>5} waits  {} tuples",
                cell.workers, cell.mode, cell.wall_ms, cell.queries, cell.heartbeats,
                cell.waits, cell.tuples
            );
        }
        eprintln!("           control round trip {control_rtt_ms:.2} ms (TCP connect + GET /plan)");
    }

    // Partial-snapshot salvage: bank a mid-shard frontier, then crawl
    // only the suffix; record banked / suffix / whole query counts.
    let (spec, points) = plan
        .iter()
        .filter_map(|s| s.resume_points().map(|p| (s, p)))
        .max_by_key(|&(_, p)| p)
        .expect("plan has a resumable shard");
    assert!(points >= 2, "salvage measurement needs ≥ 2 resume points");
    let cursor = points / 2;
    let whole = {
        let mut db = shared.client();
        spec.crawl(&mut db, &ds.schema).expect("solvable").queries
    };
    let banked = {
        let mut db = shared.client();
        let mut at_cursor = 0;
        let mut bank = |done: u64, interim: &CrawlReport| {
            if done as usize == cursor {
                at_cursor = interim.queries;
            }
        };
        spec.crawl_with(&mut db, &ds.schema, SessionConfig::default(), Some(&mut bank))
            .expect("solvable");
        at_cursor
    };
    let suffix = {
        let mut db = shared.client();
        spec.resume_suffix(cursor)
            .expect("cursor in range")
            .crawl(&mut db, &ds.schema)
            .expect("solvable")
            .queries
    };
    eprintln!(
        "salvage: shard {:?} at cursor {cursor}/{points}: banked {banked} + suffix {suffix} \
         vs whole {whole} (saved {} replay queries)",
        spec.signature(),
        whole.saturating_sub(suffix)
    );
    if suffix >= whole || banked + suffix < whole {
        eprintln!(
            "CLAIM FAILED: salvage accounting: banked {banked}, suffix {suffix}, whole {whole}"
        );
        claims_ok = false;
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"pr\": 10,\n");
    json.push_str(
        "  \"description\": \"fleet coordination cost: one fixed shard plan crawled by W \
         leased workers in two regimes — memory-lease (threads on one MemoryLeaseRepository) \
         and wire-lease (WireServer hosting data plane + lease coordinator, workers speaking \
         HTTP for both) — against the same plan crawled solo. Asserted at record time: fleet \
         bag and total charged cost equal solo exactly in both regimes at every worker count \
         (leases/heartbeats are uncharged control traffic), and a mid-shard salvage's suffix \
         replay charges strictly fewer queries than a whole-shard redo\",\n",
    );
    json.push_str(&format!("  \"n\": {n},\n"));
    json.push_str(&format!("  \"k\": {K},\n"));
    json.push_str(&format!("  \"shards\": {},\n", plan.len()));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"salvage\": {{\"resume_points\": {points}, \"cursor\": {cursor}, \
         \"whole_queries\": {whole}, \"banked_queries\": {banked}, \
         \"suffix_queries\": {suffix}, \"replay_saved\": {}}},\n",
        whole.saturating_sub(suffix)
    ));
    json.push_str("  \"rows\": [\n");
    for (i, x) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"mode\": \"{}\", \"wall_ms\": {:.2}, \"queries\": {}, \
             \"tuples\": {}, \"heartbeats\": {}, \"waits\": {}, \"salvaged_grants\": {}}}{}\n",
            x.workers,
            x.mode,
            x.wall_ms,
            x.queries,
            x.tuples,
            x.heartbeats,
            x.waits,
            x.salvaged,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench json");
    eprintln!("wrote {out_path}");

    assert!(claims_ok, "one or more recorded claims failed; see stderr");
}
