//! Property-based tests: for *arbitrary* schemas, datasets, and `k`,
//! every algorithm either extracts the exact bag or correctly reports the
//! instance unsolvable — and measured costs respect the Theorem 1
//! formulas.

use proptest::prelude::*;
// Explicit import: the crawl-builder prelude also exports a `Strategy`
// (the algorithm selector), and an explicit use beats the two globs.
use proptest::Strategy;

use hidden_db_crawler::core::theory;
use hidden_db_crawler::prelude::*;

/// A generated test instance: schema + tuples + k.
#[derive(Debug, Clone)]
struct Instance {
    schema: Schema,
    tuples: Vec<Tuple>,
    k: usize,
}

impl Instance {
    fn max_multiplicity(&self) -> usize {
        TupleBag::from_tuples(self.tuples.iter().cloned()).max_multiplicity()
    }

    fn solvable(&self) -> bool {
        self.max_multiplicity() <= self.k
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

/// Strategy: schemas with 1–3 attributes of the given kinds, small
/// domains so duplicates and overflows are common.
fn attr_strategy() -> impl Strategy<Value = (bool, u32, i64)> {
    // (is_categorical, domain size, numeric half-width)
    (any::<bool>(), 1u32..6, 0i64..25)
}

fn instance_strategy(
    force_kind: Option<bool>, // Some(true) = all categorical, Some(false) = all numeric
) -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec(attr_strategy(), 1..4),
        1usize..12,
        0usize..120,
        any::<u64>(),
    )
        .prop_map(move |(attrs, k, n, seed)| {
            let mut builder = Schema::builder();
            let mut kinds = Vec::new();
            for (i, &(is_cat, u, w)) in attrs.iter().enumerate() {
                let is_cat = force_kind.unwrap_or(is_cat);
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

/// Runs a crawler and checks the universal contract: exact bag when
/// solvable, `Unsolvable` otherwise, sane accounting either way.
fn check_contract(crawler: &dyn Crawler, inst: &Instance) -> Result<(), TestCaseError> {
    let mut db = inst.server(7);
    match crawler.crawl(&mut db) {
        Ok(report) => {
            prop_assert!(
                inst.solvable(),
                "{} claimed success on an unsolvable instance",
                crawler.name()
            );
            prop_assert!(verify_complete(&inst.tuples, &report).is_ok());
            prop_assert_eq!(report.resolved + report.overflowed, report.queries);
            // Progress curve is monotone.
            for w in report.progress.windows(2) {
                prop_assert!(w[0].queries <= w[1].queries);
                prop_assert!(w[0].tuples <= w[1].tuples);
            }
            Ok(())
        }
        Err(CrawlError::Unsolvable { partial, .. }) => {
            prop_assert!(
                !inst.solvable(),
                "{} reported Unsolvable on a solvable instance",
                crawler.name()
            );
            // No fabricated tuples in the partial result.
            let truth: TupleBag = inst.tuples.iter().collect();
            let got: TupleBag = partial.tuples.iter().collect();
            for (t, c) in got.iter() {
                prop_assert!(c <= truth.count(t));
            }
            Ok(())
        }
        Err(e) => {
            prop_assert!(false, "{} unexpected error: {e}", crawler.name());
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn numeric_algorithms_contract(inst in instance_strategy(Some(false))) {
        check_contract(&RankShrink::new(), &inst)?;
        check_contract(&BinaryShrink::new(), &inst)?;
        check_contract(&Hybrid::new(), &inst)?;
    }

    #[test]
    fn categorical_algorithms_contract(inst in instance_strategy(Some(true))) {
        check_contract(&Dfs::new(), &inst)?;
        check_contract(&SliceCover::eager(), &inst)?;
        check_contract(&SliceCover::lazy(), &inst)?;
        check_contract(&Hybrid::new(), &inst)?;
    }

    #[test]
    fn mixed_algorithms_contract(inst in instance_strategy(None)) {
        check_contract(&Hybrid::new(), &inst)?;
        check_contract(&Hybrid::eager(), &inst)?;
    }

    #[test]
    fn rank_shrink_respects_lemma2(inst in instance_strategy(Some(false))) {
        prop_assume!(inst.solvable());
        let mut db = inst.server(3);
        let report = RankShrink::new().crawl(&mut db).unwrap();
        let bound = theory::rank_shrink_bound(
            inst.schema.arity(), inst.tuples.len() as f64, inst.k as f64);
        prop_assert!(
            (report.queries as f64) <= bound,
            "cost {} exceeds Lemma 2 bound {bound} (d={} n={} k={})",
            report.queries, inst.schema.arity(), inst.tuples.len(), inst.k
        );
    }

    #[test]
    fn slice_cover_respects_lemma4(inst in instance_strategy(Some(true))) {
        prop_assume!(inst.solvable());
        let domains: Vec<u32> = (0..inst.schema.arity())
            .map(|a| inst.schema.kind(a).domain_size().unwrap())
            .collect();
        let bound = theory::slice_cover_bound(
            &domains, inst.tuples.len() as f64, inst.k as f64);
        for crawler in [SliceCover::eager(), SliceCover::lazy()] {
            let mut db = inst.server(3);
            let report = crawler.crawl(&mut db).unwrap();
            prop_assert!(
                (report.queries as f64) <= bound,
                "{} cost {} exceeds Lemma 4 bound {bound} (U={domains:?} n={} k={})",
                crawler.name(), report.queries, inst.tuples.len(), inst.k
            );
        }
    }

    #[test]
    fn hybrid_respects_lemma9(inst in instance_strategy(None)) {
        prop_assume!(inst.solvable());
        let mut db = inst.server(3);
        let report = Hybrid::new().crawl(&mut db).unwrap();
        let cat_domains: Vec<u32> = inst.schema.cat_indices().iter()
            .map(|&a| inst.schema.kind(a).domain_size().unwrap())
            .collect();
        let bound = theory::hybrid_bound(
            &cat_domains,
            inst.schema.num_indices().len(),
            inst.tuples.len() as f64,
            inst.k as f64,
        );
        prop_assert!(
            (report.queries as f64) <= bound,
            "hybrid cost {} exceeds Lemma 9 bound {bound} (n={} k={})",
            report.queries, inst.tuples.len(), inst.k
        );
    }

    #[test]
    fn lazy_never_beaten_by_eager(inst in instance_strategy(Some(true))) {
        prop_assume!(inst.solvable());
        let mut db_l = inst.server(3);
        let mut db_e = inst.server(3);
        let lazy = SliceCover::lazy().crawl(&mut db_l).unwrap();
        let eager = SliceCover::eager().crawl(&mut db_e).unwrap();
        prop_assert!(lazy.queries <= eager.queries);
    }

    #[test]
    fn oracle_preserves_completeness_and_cost(inst in instance_strategy(None)) {
        prop_assume!(inst.solvable());
        let oracle = DatasetOracle::new(inst.tuples.clone());
        let mut db_plain = inst.server(3);
        let plain = Hybrid::new().crawl(&mut db_plain).unwrap();
        let crawler = Hybrid::with_oracle(&oracle);
        let mut db_oracle = inst.server(3);
        let pruned = crawler.crawl(&mut db_oracle).unwrap();
        prop_assert!(verify_complete(&inst.tuples, &pruned).is_ok());
        prop_assert!(pruned.queries <= plain.queries, "§1.3: cost can only go down");
    }

    #[test]
    fn metrics_invariants(inst in instance_strategy(None)) {
        prop_assume!(inst.solvable());
        let mut db = inst.server(3);
        let report = Hybrid::new().crawl(&mut db).unwrap();
        let m = report.metrics;
        // Every split and every slice fetch is one overflowing/issued
        // query, so they are bounded by the query count.
        prop_assert!(m.slice_fetches <= report.queries);
        prop_assert!(m.slice_overflows <= m.slice_fetches);
        prop_assert!(
            m.two_way_splits + m.three_way_splits <= report.overflowed,
            "splits only happen after overflows"
        );
        // Local answers never touch the server; they are bounded by the
        // number of (node, value) pairs, loosely by fetches × arity… keep
        // the cheap invariant: pruned/local answers don't count as queries.
        prop_assert_eq!(report.resolved + report.overflowed, report.queries);
    }

    #[test]
    fn sharded_crawl_matches_single_session(inst in instance_strategy(None)) {
        prop_assume!(inst.solvable());
        for sessions in [2usize, 3] {
            let result = Crawl::builder()
                .sessions(sessions)
                .run_sharded(|_s| inst.server(3));
            match result {
                Ok(report) => {
                    prop_assert!(verify_complete(&inst.tuples, &report.merged).is_ok());
                    prop_assert_eq!(report.per_session.len(), sessions);
                }
                Err(CrawlError::Unsolvable { .. }) => {
                    // Possible only if the instance is unsolvable, which
                    // we assumed away.
                    prop_assert!(false, "sharded claimed unsolvable on solvable instance");
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    #[test]
    fn rank_shrink_ablation_params_complete(
        inst in instance_strategy(Some(false)),
        pivot in 0.05f64..0.95,
        heavy in 0.05f64..0.95,
    ) {
        prop_assume!(inst.solvable());
        let mut db = inst.server(3);
        let crawler = RankShrink::with_params(pivot, heavy);
        let report = crawler.crawl(&mut db).unwrap();
        prop_assert!(verify_complete(&inst.tuples, &report).is_ok());
    }
}
