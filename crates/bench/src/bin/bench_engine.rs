//! Engine micro-benchmark + `BENCH_pr1.json` emitter.
//!
//! Measures median queries/second of the columnar engine (the live
//! `HiddenDbServer::query` path) against the seed's row-at-a-time
//! evaluator (`LegacyEvaluator`, preserved verbatim including its
//! deep-copy materialization) on identical data and priorities, across
//! the workloads the planner distinguishes, at n ∈ {10k, 100k, 1M}.
//!
//! The numbers land in `BENCH_pr1.json` (override the path with
//! `BENCH_OUT`) so later PRs have a perf trajectory to compare against.
//! Pass `--quick` to halve sampling for smoke runs.
//!
//! Workloads are named for their *query shape*; the strategy the
//! engine's planner actually chose is measured per workload (via
//! `ServerStats` deltas) and recorded in the JSON as `"plan"`:
//!
//! * `dense_conjunction` is the seed's worst case: two individually
//!   dense predicates (~50% each) whose conjunction is **empty** by
//!   construction, so evaluation must walk the whole table. The seed
//!   scans tuple by tuple matching `Value` enums; the engine intersects
//!   the predicates' bitset blocks over primitive columns.
//! * `probe_eq` / `probe_range` are the selective single-predicate
//!   probes that dominate deep crawl trees.
//! * `selective_conj_cat` / `selective_conj_num` are selective
//!   multi-predicate conjunctions; both evaluators drive the smallest
//!   index list — the seed re-filters row-at-a-time, the engine uses
//!   O(1) columnar residual checks (which measured faster than
//!   intersecting a second sorted list; see
//!   `crates/server/src/engine.rs`).
//! * `root_any` overflows immediately; it isolates response
//!   materialization (zero-clone vs deep copy).

use std::time::Instant;

use hdc_bench::engine_workload::{rows, schema, workloads};
use hdc_bench::{obj, BenchRun, Field};
use hdc_server::{HiddenDbServer, LegacyEvaluator, ServerConfig};
use hdc_types::{HiddenDatabase, Query};

const K: usize = 256;
const SCALES: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Which strategy the planner chose for `q`, observed via the stats
/// counters (so the record reflects measurement, not assumption).
fn observed_plan(server: &mut HiddenDbServer, q: &Query) -> &'static str {
    let before = server.stats();
    server.query(q).expect("workload queries are valid");
    let after = server.stats();
    if after.scan_evals > before.scan_evals {
        "scan"
    } else if after.probe_evals > before.probe_evals {
        "probe"
    } else {
        "intersect"
    }
}

/// Median nanoseconds per call of `f`, over `samples` samples of
/// adaptively-sized batches.
fn median_ns(samples: usize, mut f: impl FnMut() -> usize) -> f64 {
    // Calibrate the batch to ~20ms.
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        if start.elapsed().as_millis() >= 20 || batch >= 1 << 30 {
            break;
        }
        batch *= 4;
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    per_call[per_call.len() / 2]
}

fn main() {
    let run = BenchRun::start(1);
    let samples = if run.quick { 5 } else { 11 };

    let mut records: Vec<Field> = Vec::new();
    for &n in &SCALES {
        eprintln!("building n = {n} ...");
        let table = rows(n);
        let mut server = HiddenDbServer::new(schema(), table, ServerConfig { k: K, seed: 0xbe7c })
            .expect("bench table is schema-valid");
        let legacy: LegacyEvaluator = server.legacy_evaluator();

        for (name, q) in workloads() {
            let plan = observed_plan(&mut server, &q);
            let engine_qps = 1e9 / median_ns(samples, || server.query(&q).unwrap().tuples.len());
            let legacy_qps = 1e9 / median_ns(samples, || legacy.evaluate(&q).tuples.len());
            let speedup = engine_qps / legacy_qps;
            eprintln!(
                "  {name:<20} n={n:<9} plan={plan:<9} engine {engine_qps:>12.0} q/s   \
                 legacy {legacy_qps:>12.0} q/s   speedup {speedup:>6.2}x"
            );
            records.push(obj! {
                "workload" => name, "plan" => plan, "n" => n,
                "engine_qps" => Field::Fixed(engine_qps, 1),
                "legacy_qps" => Field::Fixed(legacy_qps, 1),
                "speedup" => Field::Fixed(speedup, 3),
            });
        }
    }

    run.finish(obj! {
        "k" => K,
        "description" => "median queries/sec, columnar engine (HiddenDbServer::query) vs seed \
            row-at-a-time evaluator (LegacyEvaluator), identical data and priorities",
        "workloads" => records,
    });
}
