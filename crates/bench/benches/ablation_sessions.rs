//! **Ablation** — multi-session (sharded) crawling.
//!
//! The paper's cost metric is per-client query count because servers
//! meter each client identity (§1.1). This ablation quantifies the
//! library's multi-identity extension: partitioning the widest
//! categorical domain round-robin across `s` concurrent sessions divides
//! the per-identity load by ≈ s while costing only a small total
//! overhead (per-session slice tables), and never changes the extracted
//! bag.

use hdc_bench::{ShapeChecks, Table};
use hdc_core::{verify_complete, Crawl};
use hdc_data::{adult, yahoo};
use hdc_server::{HiddenDbServer, ServerConfig};

const SEED: u64 = 42;
const K: usize = 256;

fn main() {
    let mut checks = ShapeChecks::new();
    for ds in [yahoo::generate(SEED), adult::generate(SEED)] {
        let factory = |_s: usize| {
            HiddenDbServer::new(
                ds.schema.clone(),
                ds.tuples.clone(),
                ServerConfig { k: K, seed: 9 },
            )
            .expect("valid database")
        };
        let mut table = Table::new(
            format!("Ablation — sessions on {} (k = {K})", ds.name),
            &[
                "sessions",
                "total queries",
                "busiest session",
                "speedup",
                "overhead",
            ],
        );
        let single = Crawl::builder()
            .run_sharded(factory)
            .expect("crawl succeeds");
        verify_complete(&ds.tuples, &single.merged).expect("complete");
        let base = single.merged.queries;
        let mut busiest = Vec::new();
        for sessions in [1usize, 2, 4, 8, 16] {
            let report = Crawl::builder()
                .sessions(sessions)
                .run_sharded(factory)
                .expect("crawl succeeds");
            verify_complete(&ds.tuples, &report.merged).expect("complete");
            let max = report.max_session_queries();
            table.row(&[
                &sessions,
                &report.merged.queries,
                &max,
                &format!("{:.2}×", base as f64 / max as f64),
                &format!("{:.2}×", report.merged.queries as f64 / base as f64),
            ]);
            busiest.push(max);
        }
        table.print();
        table.write_csv(&format!("ablation_sessions_{}", ds.name.to_lowercase()));

        checks.check(
            &format!(
                "{}: busiest session shrinks monotonically with sessions",
                ds.name
            ),
            busiest.windows(2).all(|w| w[1] <= w[0]),
        );
        let eight = busiest[3];
        if ds.name == "Yahoo" {
            // Make (85 values, moderate skew) partitions well.
            checks.check(
                &format!(
                    "{}: 8 sessions cut the per-identity load ≥ 3× ({base} → {eight})",
                    ds.name
                ),
                (eight as f64) <= base as f64 / 3.0,
            );
        } else {
            // Adult partitions on Country, whose value 0 holds ~90% of the
            // tuples — value-sharding cannot split that shard, so gains
            // are bounded by the heaviest value. Honest expectation:
            // sharding still never hurts.
            checks.check(
                &format!(
                    "{}: sharding never increases the per-identity load ({base} → {eight};                      bounded by the dominant Country value)",
                    ds.name
                ),
                eight <= base,
            );
        }
    }
    checks.finish();
}
