//! Differential suite for sharded crawls over a **shared** store.
//!
//! PR 7's serving refactor lets a fleet of crawl identities share one
//! immutable column store (`SharedServer::client()` as the identity
//! factory) instead of cloning the whole database per identity. The
//! claims under test, all bit-level:
//!
//! 1. **Share ≡ clone.** A sharded crawl whose identities are clients of
//!    one shared store extracts the same bag at the same charged cost —
//!    and the same *per-shard* cost — as the clone-per-identity path.
//! 2. **Budgets stay per-client.** Per-identity quotas behave
//!    identically in both worlds, including the exhaustion (salvage)
//!    path.
//! 3. **Faults stay per-client.** `FaultyDb`-wrapped shared clients with
//!    retry are indistinguishable from fault-free — concurrently, on the
//!    real shard cursor (extends `faults.rs` theorem 1 to the
//!    shared path).

use proptest::prelude::*;
use proptest::Strategy as PropStrategy;

use hdc_core::{Crawl, CrawlError, RetryPolicy, Strategy};
use hdc_server::{HiddenDbServer, ServerConfig, SharedServer};
use hdc_types::{AttrKind, FaultConfig, FaultyDb, Schema, Tuple, TupleBag, Value};

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

    fn shared(&self, seed: u64) -> SharedServer {
        SharedServer::new(
            self.schema.clone(),
            self.tuples.clone(),
            ServerConfig { k: self.k, seed },
        )
        .unwrap()
    }
}

fn instance_strategy() -> impl PropStrategy<Value = Instance> {
    (
        proptest::collection::vec((any::<bool>(), 2u32..7, 1i64..25), 1..4),
        2usize..10,
        0usize..120,
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
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545_f491_4f6c_dd1d)
            };
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

fn bag(tuples: &[Tuple]) -> TupleBag {
    TupleBag::from_tuples(tuples.iter().cloned())
}

fn sharded_supported(inst: &Instance) -> bool {
    Strategy::Auto
        .resolve(&inst.schema)
        .supports_sharded(&inst.schema)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Theorem: sharded crawls over one shared store are bag- and
    /// cost-identical to the clone-per-identity path — down to each
    /// individual shard's extracted tuples (shards are reported in plan
    /// order, so they align 1:1). Which shard pays for a slice the
    /// shards share depends on timing, so per-shard costs are not
    /// compared; the merged cost and tallies are.
    #[test]
    fn shared_store_sharded_crawl_equals_clone_per_identity(
        inst in instance_strategy(),
        sessions in 1usize..5,
        oversubscribe in 1usize..4,
    ) {
        prop_assume!(inst.solvable());
        prop_assume!(sharded_supported(&inst));

        let cloned = Crawl::builder()
            .sessions(sessions)
            .oversubscribe(oversubscribe)
            .run_sharded(|_s| inst.server(5))
            .unwrap();

        let shared = inst.shared(5);
        let got = Crawl::builder()
            .sessions(sessions)
            .oversubscribe(oversubscribe)
            .run_sharded(|_s| shared.client())
            .unwrap();

        prop_assert_eq!(&got.merged.tuples, &cloned.merged.tuples,
            "shared-store sharded crawl changed the extracted bag");
        prop_assert_eq!(got.merged.queries, cloned.merged.queries,
            "shared-store sharded crawl changed the charged cost");
        prop_assert_eq!(got.merged.metrics, cloned.merged.metrics);
        prop_assert_eq!(got.shards.len(), cloned.shards.len());
        for (s, (a, b)) in got.shards.iter().zip(&cloned.shards).enumerate() {
            prop_assert_eq!(a.tuples, b.tuples, "shard {} bag size diverged", s);
        }
    }

    /// Theorem: per-identity budgets are identical in both worlds. With a
    /// generous quota the runs succeed identically; with a starving quota
    /// both fail with the same salvaged partial (single worker, so the
    /// salvage order is deterministic).
    #[test]
    fn shared_store_budgets_match_clone_per_identity(
        inst in instance_strategy(),
        sessions in 1usize..4,
    ) {
        prop_assume!(inst.solvable());
        prop_assume!(sharded_supported(&inst));

        // Learn the true cost first. The generous quota must cover any
        // schedule the shard cursor produces — per-session maxima from
        // the reference run are schedule-dependent — so use the total.
        let full = Crawl::builder()
            .sessions(sessions)
            .run_sharded(|_s| inst.server(5))
            .unwrap();

        let generous = full.merged.queries + 1;
        let shared = inst.shared(5);
        let got = Crawl::builder()
            .sessions(sessions)
            .budget(generous)
            .run_sharded(|_s| shared.client())
            .unwrap();
        prop_assert!(bag(&got.merged.tuples).multiset_eq(&bag(&full.merged.tuples)));
        prop_assert_eq!(got.merged.queries, full.merged.queries);

        // Starve a deterministic single-identity run in both worlds.
        if full.merged.queries >= 2 {
            let starved = full.merged.queries / 2;
            let clone_err = Crawl::builder()
                .sessions(1)
                .budget(starved)
                .run_sharded(|_s| inst.server(5))
                .unwrap_err();
            let shared2 = inst.shared(5);
            let shared_err = Crawl::builder()
                .sessions(1)
                .budget(starved)
                .run_sharded(|_s| shared2.client())
                .unwrap_err();
            match (clone_err, shared_err) {
                (
                    CrawlError::Db { error: e1, partial: p1 },
                    CrawlError::Db { error: e2, partial: p2 },
                ) => {
                    prop_assert_eq!(format!("{e1}"), format!("{e2}"));
                    prop_assert!(bag(&p1.tuples).multiset_eq(&bag(&p2.tuples)),
                        "salvaged partials diverged");
                    prop_assert_eq!(p1.queries, p2.queries);
                }
                (a, b) => prop_assert!(false, "unexpected errors: {a:?} vs {b:?}"),
            }
        }
    }

    /// Satellite stress: `FaultyDb`-wrapped shared clients with retry ≡
    /// fault-free shared clients ≡ fault-free clones, concurrently on the
    /// pool. Per-identity fault schedules, per-client retry accounting.
    #[test]
    fn faulty_shared_clients_with_retry_equal_fault_free(
        inst in instance_strategy(),
        fault_seed in any::<u64>(),
        rate_pct in 0u32..=30,
    ) {
        prop_assume!(inst.solvable());
        prop_assume!(sharded_supported(&inst));

        let clean = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .run_sharded(|_s| inst.server(5))
            .unwrap();

        let shared = inst.shared(5);
        let faulty = Crawl::builder()
            .sessions(2)
            .oversubscribe(3)
            .retry(RetryPolicy::new(50).no_sleep())
            .run_sharded(|s| {
                FaultyDb::new(
                    shared.client(),
                    FaultConfig {
                        seed: fault_seed ^ s as u64,
                        transient_rate: f64::from(rate_pct) / 100.0,
                        burst: 1,
                        fail_after: None,
                    },
                )
            })
            .unwrap();

        prop_assert!(
            bag(&faulty.merged.tuples).multiset_eq(&bag(&clean.merged.tuples)),
            "faults on shared clients changed the merged bag"
        );
        prop_assert_eq!(faulty.merged.queries, clean.merged.queries,
            "failed attempts must never be charged, shared or not");
    }
}

/// Deterministic large-fleet stress on a real dataset shape: 8 sessions,
/// 4× oversubscription, fault-injected shared clients with retry — the
/// merged bag and cost must match a fault-free clone-per-identity crawl,
/// and the store must have served every identity without copies.
#[test]
fn yahoo_fleet_on_one_store_survives_faults_bit_identically() {
    let ds = hdc_data::yahoo::generate_scaled(6_000, 11);
    let k = 128;
    let cfg = ServerConfig { k, seed: 17 };

    let clean = Crawl::builder()
        .sessions(8)
        .oversubscribe(4)
        .run_sharded(|_s| HiddenDbServer::new(ds.schema.clone(), ds.tuples.clone(), cfg).unwrap())
        .unwrap();

    let shared = SharedServer::new(ds.schema.clone(), ds.tuples.clone(), cfg).unwrap();
    let got = Crawl::builder()
        .sessions(8)
        .oversubscribe(4)
        .retry(RetryPolicy::new(50).no_sleep())
        .run_sharded(|s| {
            FaultyDb::new(
                shared.client(),
                FaultConfig {
                    seed: 0xfa57 ^ (s as u64) << 3,
                    transient_rate: 0.10,
                    burst: 2,
                    fail_after: None,
                },
            )
        })
        .unwrap();

    assert!(
        bag(&got.merged.tuples).multiset_eq(&bag(&clean.merged.tuples)),
        "shared-store fleet under faults diverged from clean clone fleet"
    );
    assert_eq!(got.merged.queries, clean.merged.queries);
    assert_eq!(
        got.merged.tuples.len(),
        ds.tuples.len(),
        "complete extraction"
    );
}
