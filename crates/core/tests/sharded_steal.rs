//! Differential suite for the work-stealing sharded scheduler.
//!
//! The scheduler's determinism contract (see `hdc_core::sharded` module
//! docs) says scheduling must be invisible to everything but wall-clock:
//! an over-partitioned work-stealing crawl and a *sequential*
//! one-shard-at-a-time execution of the very same plan must produce an
//! identical merged bag, identical total query count, and identical
//! per-shard costs — across arbitrary schemas, datasets, `k`, priority
//! seeds, session counts, and oversubscription factors. A second
//! property covers the failure path: a budget-crippled identity may kill
//! its own shards, but everything the surviving identities can reach is
//! still salvaged, and nothing fabricated ever appears.

use proptest::prelude::*;

use hdc_core::{verify_complete, Crawl, CrawlError, Sharded};
use hdc_server::{Budgeted, HiddenDbServer, ServerConfig};
use hdc_types::{AttrKind, Schema, Tuple, TupleBag, Value};

/// A generated test instance: schema + tuples + k.
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

/// Schemas with 1–3 attributes, small domains so duplicates, overflows,
/// empty shards, and every sub-splitting mode (secondary categorical,
/// numeric fallback, single-value cap) all occur.
fn instance_strategy() -> impl Strategy<Value = Instance> {
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
                // xorshift64*
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Work-stealing execution ≡ sequential execution of the same plan:
    /// same merged bag (the exact database), same total cost, same
    /// per-shard costs.
    #[test]
    fn stealing_is_invisible_to_bag_and_cost(
        inst in instance_strategy(),
        sessions in 2usize..4,
        factor in 2usize..5,
    ) {
        prop_assume!(inst.solvable());

        let stolen = Crawl::builder()
            .sessions(sessions)
            .oversubscribe(factor)
            .run_sharded(|_s| inst.server(11));
        let stolen = match stolen {
            Ok(report) => report,
            Err(e) => {
                prop_assert!(false, "stealing crawl failed on solvable instance: {e}");
                unreachable!()
            }
        };
        prop_assert!(verify_complete(&inst.tuples, &stolen.merged).is_ok());

        // The same plan, crawled shard by shard on one fresh connection
        // each — no pool, no concurrency.
        let plan = Sharded::plan_oversubscribed(&inst.schema, sessions, factor);
        prop_assert_eq!(plan.len(), stolen.shards.len());
        let mut seq_total = 0u64;
        let mut seq_bag = TupleBag::new();
        for (i, spec) in plan.iter().enumerate() {
            let mut db = inst.server(11);
            let report = spec.crawl(&mut db, &inst.schema).unwrap();
            prop_assert_eq!(
                report.queries,
                stolen.shards[i].report.queries,
                "shard {} cost changed under stealing",
                i
            );
            prop_assert_eq!(report.tuples.len() as u64, stolen.shards[i].tuples);
            seq_total += report.queries;
            for t in report.tuples {
                seq_bag.insert(t);
            }
        }
        prop_assert_eq!(stolen.merged.queries, seq_total);
        let stolen_bag: TupleBag = stolen.merged.tuples.iter().collect();
        prop_assert!(stolen_bag.multiset_eq(&seq_bag));

        // Per-identity aggregates re-partition exactly the shard costs.
        prop_assert_eq!(stolen.per_session.len(), sessions);
        let identity_total: u64 = stolen.per_session.iter().map(|r| r.queries).sum();
        prop_assert_eq!(identity_total, seq_total);
    }

    /// Failure path: identity 0 has a crippling budget. Either the crawl
    /// still completes (tiny instances fit the budget) with the exact
    /// bag, or it fails with a budget error whose partial report contains
    /// no fabricated tuples and everything healthy identities salvaged.
    #[test]
    fn crippled_identity_never_fabricates_and_still_salvages(
        inst in instance_strategy(),
        budget in 1u64..25,
        factor in 2usize..5,
    ) {
        prop_assume!(inst.solvable());
        let sessions = 2usize;
        let result = Crawl::builder()
            .sessions(sessions)
            .oversubscribe(factor)
            .run_sharded(|s| {
                Budgeted::new(inst.server(13), if s == 0 { budget } else { u64::MAX })
            });
        match result {
            Ok(report) => {
                prop_assert!(verify_complete(&inst.tuples, &report.merged).is_ok());
            }
            Err(CrawlError::Db { partial, .. }) => {
                let truth: TupleBag = inst.tuples.iter().collect();
                let got: TupleBag = partial.tuples.iter().collect();
                for (t, c) in got.iter() {
                    prop_assert!(c <= truth.count(t), "fabricated tuple {}", t);
                }
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
    }
}

/// Deterministic salvage check: with 4 shards, 2 identities, and
/// identity 0 dead after 2 queries, exactly one shard can fail (the
/// crippled worker retires on its first shard; every other shard runs on
/// the healthy identity). At least 3 of the 4 shards' bags must appear
/// completely in the partial report, whichever shard the scheduler
/// happened to hand the dying worker.
#[test]
fn budget_crippled_session_salvages_healthy_shards() {
    let schema = Schema::builder()
        .categorical("c", 4)
        .numeric("x", 0, 9_999)
        .build()
        .unwrap();
    let tuples: Vec<Tuple> = (0..2_000u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
            Tuple::new(vec![
                Value::Cat((h % 4) as u32),
                Value::Int(((h >> 8) % 10_000) as i64),
            ])
        })
        .collect();
    let server = |seed: u64| {
        HiddenDbServer::new(schema.clone(), tuples.clone(), ServerConfig { k: 16, seed }).unwrap()
    };

    // Reference bags: one sequential crawl per shard of the same plan.
    let plan = Sharded::plan_oversubscribed(&schema, 2, 2);
    assert_eq!(plan.len(), 4);
    let shard_bags: Vec<TupleBag> = plan
        .iter()
        .map(|spec| {
            let mut db = server(29);
            TupleBag::from_tuples(spec.crawl(&mut db, &schema).unwrap().tuples)
        })
        .collect();
    assert!(
        shard_bags.iter().all(|b| !b.is_empty()),
        "every shard must hold data for the salvage count to mean anything"
    );

    let result = Crawl::builder()
        .sessions(2)
        .oversubscribe(2)
        .run_sharded(|s| Budgeted::new(server(29), if s == 0 { 2 } else { u64::MAX }));
    let Err(CrawlError::Db { error, partial }) = result else {
        panic!("expected the crippled identity to surface a budget failure");
    };
    assert!(matches!(error, hdc_types::DbError::BudgetExhausted { .. }));

    let got: TupleBag = partial.tuples.iter().collect();
    let salvaged = shard_bags
        .iter()
        .filter(|bag| bag.iter().all(|(t, c)| got.count(t) >= c))
        .count();
    assert!(
        salvaged >= 3,
        "only {salvaged} of 4 shard bags were salvaged by the healthy identity"
    );
}
