//! Differential property test for the columnar engine: on arbitrary
//! schemas, data, `k`, and priority seeds, all three evaluation
//! strategies — columnar scan, single index probe, and multi-predicate
//! intersection — must be indistinguishable from the brute-force oracle
//! *and* from the seed's row-at-a-time evaluator: same tuples, same
//! order, same overflow bit. The paper's determinism contract (and every
//! crawl algorithm's correctness) rests on this equivalence.
//!
//! Edge cases are forced, not hoped for: each generated case also runs a
//! guaranteed-empty query (an unsatisfiable range and an out-of-data
//! point) and the all-wildcard query at `k = 1`, which overflows whenever
//! the database holds more than one tuple.
//!
//! Half the cases are **full-pin** cases: at least two categorical
//! attributes, and a query stream shaped like the §5 hybrid's leaf
//! queries, which pin every categorical attribute and so run on the
//! engine's derived cell column. Their streams mix cells present in the
//! data and absent from it, numeric ranges narrower and wider than the
//! cell, and runs of sibling queries on one cell (or one range over
//! several cells), so the batch path's grouped probes and shared range
//! lists run over the cell column too.

use proptest::prelude::*;

use hdc_server::{HiddenDbServer, ServerConfig, Strategy as EngineStrategy};
use hdc_types::{AttrKind, HiddenDatabase, Predicate, Query, Schema, Tuple, Value};

#[derive(Debug, Clone)]
struct Case {
    schema: Schema,
    tuples: Vec<Tuple>,
    queries: Vec<Query>,
    k: usize,
    seed: u64,
}

/// xorshift64* keeps case generation independent of the strategy RNG.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    // Schema: 1–4 attributes; small domains so duplicates, overflows, and
    // equal selectivities (tie-breaks) are all common.
    let attrs = proptest::collection::vec((any::<bool>(), 2u32..8, 1i64..40), 1..5);
    (
        attrs,
        1usize..15,
        0usize..150,
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(attr_specs, k, n, seed, qseed, full_pin)| {
            build_case(attr_specs, k, n, seed, qseed, full_pin)
        })
}

/// One case: `attr_specs` are `(categorical?, domain size, numeric
/// half-width)` per attribute. A `full_pin` case forces two categorical
/// attributes and a numeric one, and appends [`full_pin_queries`].
fn build_case(
    mut attr_specs: Vec<(bool, u32, i64)>,
    k: usize,
    n: usize,
    seed: u64,
    qseed: u64,
    full_pin: bool,
) -> Case {
    if full_pin {
        attr_specs[0].0 = true;
        if attr_specs.len() == 1 {
            attr_specs.push(attr_specs[0]);
        }
        attr_specs[1].0 = true;
        if attr_specs.iter().all(|&(is_cat, ..)| is_cat) {
            attr_specs.push((false, 2, attr_specs[0].2));
        }
    }
    let mut b = Schema::builder();
    for (i, &(is_cat, size, width)) in attr_specs.iter().enumerate() {
        b = if is_cat {
            b.categorical(format!("c{i}"), size)
        } else {
            b.numeric(format!("n{i}"), -width, width)
        };
    }
    let schema = b.build().unwrap();

    let mut next = stream(seed);
    let tuples: Vec<Tuple> = (0..n)
        .map(|_| {
            Tuple::new(
                (0..schema.arity())
                    .map(|a| match schema.kind(a) {
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

    let mut qnext = stream(qseed);
    let mut queries: Vec<Query> = (0..12)
        .map(|_| {
            Query::new(
                (0..schema.arity())
                    .map(|a| match schema.kind(a) {
                        AttrKind::Categorical { size } => {
                            if qnext().is_multiple_of(3) {
                                Predicate::Any
                            } else {
                                Predicate::Eq((qnext() % u64::from(size)) as u32)
                            }
                        }
                        AttrKind::Numeric { min, max } => {
                            let span = (max - min + 1) as u64;
                            match qnext() % 4 {
                                0 => Predicate::Any,
                                1 => {
                                    // Possibly empty range.
                                    let a = min + (qnext() % span) as i64;
                                    let b = min + (qnext() % span) as i64;
                                    Predicate::Range { lo: a, hi: b }
                                }
                                2 => {
                                    let x = min + (qnext() % span) as i64;
                                    Predicate::Range { lo: x, hi: x }
                                }
                                _ => {
                                    let a = min + (qnext() % span) as i64;
                                    let b = min + (qnext() % span) as i64;
                                    Predicate::Range {
                                        lo: a.min(b),
                                        hi: a.max(b),
                                    }
                                }
                            }
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    // Forced edge cases: a guaranteed-empty result on each
    // attribute kind, and the whole-space query (all-overflow
    // whenever n > k; at the separate k = 1 check below it
    // overflows for any n > 1).
    queries.push(Query::new(
        (0..schema.arity())
            .map(|a| match schema.kind(a) {
                // Out-of-data values: numeric domains are
                // generated within [min, max], so min - 1 never
                // occurs; categorical 0 may occur, hence the
                // unsatisfiable range fallback on any numeric
                // attribute, else value `size - 1` with a
                // one-in-size chance of matching (still a valid
                // empty-or-small probe).
                AttrKind::Numeric { min, .. } => Predicate::Range {
                    lo: min - 1,
                    hi: min - 1,
                },
                AttrKind::Categorical { size } => Predicate::Eq(size - 1),
            })
            .collect::<Vec<_>>(),
    ));
    queries.push(Query::new(
        (0..schema.arity())
            .map(|a| match schema.kind(a) {
                AttrKind::Numeric { .. } => Predicate::Range { lo: 1, hi: 0 },
                AttrKind::Categorical { .. } => Predicate::Any,
            })
            .collect::<Vec<_>>(),
    ));
    queries.push(Query::any(schema.arity()));
    if full_pin {
        queries.extend(full_pin_queries(&schema, &tuples, &mut qnext));
    }

    Case {
        schema,
        tuples,
        queries,
        k,
        seed,
    }
}

/// Queries that pin every categorical attribute, in sibling runs (a batch
/// keeps them adjacent): per sampled cell, the cell alone, a range wider
/// than any cell, a point range (usually narrower than the cell), the
/// first numeric domain split in three, and — with two numeric
/// attributes — two queries sharing the cell and one range; then one
/// point range over two cells, and cells absent from the data.
fn full_pin_queries(
    schema: &Schema,
    tuples: &[Tuple],
    next: &mut impl FnMut() -> u64,
) -> Vec<Query> {
    let cats: Vec<usize> = (0..schema.arity())
        .filter(|&a| matches!(schema.kind(a), AttrKind::Categorical { .. }))
        .collect();
    let nums: Vec<usize> = (0..schema.arity())
        .filter(|&a| matches!(schema.kind(a), AttrKind::Numeric { .. }))
        .collect();
    let bounds = |a: usize| match schema.kind(a) {
        AttrKind::Numeric { min, max } => (min, max),
        AttrKind::Categorical { .. } => unreachable!("numeric attribute"),
    };
    // A query pinning `cell` (one value per categorical attribute), with
    // `ranges[i]` on the i-th numeric attribute and wildcards after.
    let pin = |cell: &[u32], ranges: &[Predicate]| {
        let mut preds = vec![Predicate::Any; schema.arity()];
        for (&a, &v) in cats.iter().zip(cell) {
            preds[a] = Predicate::Eq(v);
        }
        for (&a, &p) in nums.iter().zip(ranges) {
            preds[a] = p;
        }
        Query::new(preds)
    };
    let cell_of = |t: &Tuple| -> Vec<u32> { cats.iter().map(|&a| t.get(a).expect_cat()).collect() };
    let mut random_cell = || -> Vec<u32> {
        cats.iter()
            .map(|&a| match schema.kind(a) {
                AttrKind::Categorical { size } => (next() % u64::from(size)) as u32,
                AttrKind::Numeric { .. } => unreachable!("categorical attribute"),
            })
            .collect()
    };
    let absent: Vec<Vec<u32>> = (0..8)
        .map(|_| random_cell())
        .filter(|c| !tuples.iter().any(|t| &cell_of(t) == c))
        .take(2)
        .collect();
    let rows: Vec<&Tuple> = (0..3)
        .filter(|_| !tuples.is_empty())
        .map(|_| &tuples[(next() % tuples.len() as u64) as usize])
        .collect();

    let (min, max) = bounds(nums[0]);
    let third = (max - min) / 3;
    let mut out = Vec::new();
    for t in &rows {
        let cell = cell_of(t);
        let x = t.get(nums[0]).expect_int();
        out.push(pin(&cell, &[]));
        out.push(pin(&cell, &[Predicate::Range { lo: min, hi: max }]));
        out.push(pin(&cell, &[Predicate::Range { lo: x, hi: x }]));
        for (lo, hi) in [
            (min, min + third),
            (min + third + 1, max - third),
            (max - third + 1, max),
        ] {
            out.push(pin(&cell, &[Predicate::Range { lo, hi }]));
        }
        if let Some(&second) = nums.get(1) {
            let (lo2, hi2) = bounds(second);
            let shared = Predicate::Range {
                lo: x.min(max - 1),
                hi: max,
            };
            out.push(pin(
                &cell,
                &[
                    shared,
                    Predicate::Range {
                        lo: lo2,
                        hi: lo2 + (hi2 - lo2) / 2,
                    },
                ],
            ));
            out.push(pin(
                &cell,
                &[
                    shared,
                    Predicate::Range {
                        lo: lo2 + (hi2 - lo2) / 2,
                        hi: hi2,
                    },
                ],
            ));
        }
    }
    if let [a, b, ..] = rows.as_slice() {
        let x = a.get(nums[0]).expect_int();
        let point = Predicate::Range { lo: x, hi: x };
        out.push(pin(&cell_of(a), &[point]));
        out.push(pin(&cell_of(b), &[point]));
    }
    for cell in &absent {
        out.push(pin(cell, &[]));
        out.push(pin(cell, &[Predicate::Range { lo: min, hi: max }]));
    }
    out
}

/// The oracle: filter the priority-ordered rows, truncate at `k`.
fn brute_force(ranked: &[Tuple], q: &Query, k: usize) -> (Vec<Tuple>, bool) {
    let matches: Vec<Tuple> = ranked.iter().filter(|t| q.matches(t)).cloned().collect();
    if matches.len() <= k {
        (matches, false)
    } else {
        (matches[..k].to_vec(), true)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Planned evaluation, every forced strategy, and the legacy
    /// evaluator all agree with the brute-force oracle.
    #[test]
    fn all_strategies_match_the_oracle(case in case_strategy()) {
        let mut server = HiddenDbServer::new(
            case.schema.clone(),
            case.tuples.clone(),
            ServerConfig { k: case.k, seed: case.seed },
        ).unwrap();
        let ranked: Vec<Tuple> = server.rows().to_vec();
        let legacy = server.legacy_evaluator();

        for q in &case.queries {
            let (want_tuples, want_overflow) = brute_force(&ranked, q, case.k);

            let planned = server.query(q).unwrap();
            prop_assert_eq!(&planned.tuples, &want_tuples, "planned, q={}", q);
            prop_assert_eq!(planned.overflow, want_overflow, "planned, q={}", q);

            for strategy in [EngineStrategy::Scan, EngineStrategy::Probe, EngineStrategy::Intersect] {
                let got = server.query_with_strategy(q, strategy).unwrap();
                prop_assert_eq!(
                    &got.tuples, &want_tuples,
                    "strategy {:?}, q={}", strategy, q
                );
                prop_assert_eq!(
                    got.overflow, want_overflow,
                    "strategy {:?}, q={}", strategy, q
                );
            }

            let old = legacy.evaluate(q);
            prop_assert_eq!(&old.tuples, &want_tuples, "legacy, q={}", q);
            prop_assert_eq!(old.overflow, want_overflow, "legacy, q={}", q);

            // Determinism: asking again changes nothing.
            prop_assert_eq!(server.query(q).unwrap(), planned);
        }
    }

    /// The batch path must be indistinguishable from the per-query loop
    /// and the brute-force oracle on arbitrary schemas, data, k, and
    /// seeds — including duplicate queries inside one batch, and the
    /// empty batch.
    #[test]
    fn query_batch_matches_per_query_loop(case in case_strategy()) {
        let mut batched = HiddenDbServer::new(
            case.schema.clone(),
            case.tuples.clone(),
            ServerConfig { k: case.k, seed: case.seed },
        ).unwrap();
        let mut looped = HiddenDbServer::new(
            case.schema.clone(),
            case.tuples.clone(),
            ServerConfig { k: case.k, seed: case.seed },
        ).unwrap();
        let ranked: Vec<Tuple> = batched.rows().to_vec();

        // The generated queries plus in-batch duplicates (first, middle,
        // and last positions).
        let mut batch = case.queries.clone();
        batch.push(batch[0].clone());
        batch.insert(batch.len() / 2, batch[1].clone());
        batch.push(batch[batch.len() - 1].clone());

        prop_assert!(batched.query_batch(&[]).unwrap().is_empty());

        let outs = batched.query_batch(&batch).unwrap();
        prop_assert_eq!(outs.len(), batch.len());
        for (q, got) in batch.iter().zip(&outs) {
            let (want_tuples, want_overflow) = brute_force(&ranked, q, case.k);
            prop_assert_eq!(&got.tuples, &want_tuples, "batch vs oracle, q={}", q);
            prop_assert_eq!(got.overflow, want_overflow, "batch vs oracle, q={}", q);
            let solo = looped.query(q).unwrap();
            prop_assert_eq!(got, &solo, "batch vs per-query loop, q={}", q);
        }
        // Cost accounting is per query, batched or not.
        prop_assert_eq!(batched.queries_issued(), looped.queries_issued());
        prop_assert_eq!(batched.queries_issued(), batch.len() as u64);

        // Determinism: re-issuing the same batch changes nothing.
        prop_assert_eq!(batched.query_batch(&batch).unwrap(), outs);
    }

    /// k = 1 forces overflow on every non-singleton result; strategies
    /// must still agree on which single tuple is served.
    #[test]
    fn k_equals_one_overflows_consistently(case in case_strategy()) {
        let mut server = HiddenDbServer::new(
            case.schema.clone(),
            case.tuples.clone(),
            ServerConfig { k: 1, seed: case.seed },
        ).unwrap();
        let ranked: Vec<Tuple> = server.rows().to_vec();
        let root = Query::any(case.schema.arity());
        let (want_tuples, want_overflow) = brute_force(&ranked, &root, 1);
        for strategy in [EngineStrategy::Scan, EngineStrategy::Probe, EngineStrategy::Intersect] {
            let got = server.query_with_strategy(&root, strategy).unwrap();
            prop_assert_eq!(&got.tuples, &want_tuples, "strategy {:?}", strategy);
            prop_assert_eq!(got.overflow, want_overflow, "strategy {:?}", strategy);
        }
        let planned = server.query(&root).unwrap();
        prop_assert_eq!(&planned.tuples, &want_tuples);
        prop_assert_eq!(planned.overflow, want_overflow);

        // Every generated query (the full-pin streams included) at k = 1,
        // planned, forced, and batched.
        let outs = server.query_batch(&case.queries).unwrap();
        for (q, batched) in case.queries.iter().zip(&outs) {
            let (want_tuples, want_overflow) = brute_force(&ranked, q, 1);
            let planned = server.query(q).unwrap();
            prop_assert_eq!(&planned.tuples, &want_tuples, "planned, q={}", q);
            prop_assert_eq!(planned.overflow, want_overflow, "planned, q={}", q);
            prop_assert_eq!(batched, &planned, "batched, q={}", q);
            for strategy in [EngineStrategy::Scan, EngineStrategy::Probe, EngineStrategy::Intersect] {
                prop_assert_eq!(
                    server.query_with_strategy(q, strategy).unwrap(),
                    planned.clone(),
                    "strategy {:?}, q={}", strategy, q
                );
            }
        }
    }
}

/// The full-pin streams do reach the derived cell column: over a fixed
/// family of two-categorical cases, cell-driven probes and grouped probes
/// both occur (the properties above then hold them to the oracle).
#[test]
fn full_pin_streams_reach_the_cell_paths() {
    let mut cell_probes = 0;
    let mut grouped = 0;
    for seed in 0..32u64 {
        let specs = vec![(true, 3, 20), (true, 4, 20), (false, 2, 30), (false, 2, 30)];
        let case = build_case(specs, 4, 150, seed, seed.wrapping_mul(0x9e37_79b9), true);
        let mut server = HiddenDbServer::new(
            case.schema.clone(),
            case.tuples.clone(),
            ServerConfig {
                k: case.k,
                seed: case.seed,
            },
        )
        .unwrap();
        server.query_batch(&case.queries).unwrap();
        let stats = server.stats();
        cell_probes += stats.cell_probes;
        grouped += stats.batch_grouped_probes;
    }
    assert!(cell_probes > 0, "no cell-driven probe");
    assert!(grouped > 0, "no grouped probe");
}
