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
//! several cells), so the batch path's grouped probes run over the cell
//! column too.
//!
//! A separate **cell-range** family aims at the engine's per-cell numeric
//! order. Its stores have many small cells over narrow numeric domains,
//! so a range's store-wide list is far wider than its slice of one cell,
//! ties are everywhere, and one cell always holds a single row. Its
//! queries pin a cell and carry one to three ranges: bounds on values the
//! cell holds (tied values included), `i64::MIN` / `i64::MAX` bounds,
//! ranges that hit the store but miss the cell, and rank-shrink-style
//! sibling triples sharing all ranges but one.

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

fn cell_range_case_strategy() -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(2u32..6, 2..4),
        proptest::collection::vec(1i64..8, 1..4),
        1usize..10,
        1usize..200,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(cats, widths, k, n, seed, qseed)| {
            build_cell_range_case(&cats, &widths, k, n, seed, qseed)
        })
}

/// One cell-range case (see the module docs): categorical domain sizes
/// `cats` and numeric half-widths `widths`, interleaved as `c0, n0, c1,
/// n1, …`. The last categorical attribute has one more value than
/// `cats` says, held by exactly one row, so that row's cell holds it
/// alone.
fn build_cell_range_case(
    cats: &[u32],
    widths: &[i64],
    k: usize,
    n: usize,
    seed: u64,
    qseed: u64,
) -> Case {
    let mut b = Schema::builder();
    for i in 0..cats.len().max(widths.len()) {
        if let Some(&size) = cats.get(i) {
            let size = if i + 1 == cats.len() { size + 1 } else { size };
            b = b.categorical(format!("c{i}"), size);
        }
        if let Some(&w) = widths.get(i) {
            b = b.numeric(format!("n{i}"), -w, w);
        }
    }
    let schema = b.build().unwrap();
    let arity = schema.arity();
    let cat_attrs: Vec<usize> = (0..arity)
        .filter(|&a| matches!(schema.kind(a), AttrKind::Categorical { .. }))
        .collect();
    let num_attrs: Vec<usize> = (0..arity)
        .filter(|&a| matches!(schema.kind(a), AttrKind::Numeric { .. }))
        .collect();
    let lone = *cat_attrs.last().unwrap();

    let mut next = stream(seed);
    let tuples: Vec<Tuple> = (0..n)
        .map(|i| {
            Tuple::new(
                (0..arity)
                    .map(|a| match schema.kind(a) {
                        AttrKind::Categorical { size } if a == lone && i + 1 == n => {
                            Value::Cat(size - 1)
                        }
                        AttrKind::Categorical { size } if a == lone => {
                            Value::Cat((next() % u64::from(size - 1)) as u32)
                        }
                        AttrKind::Categorical { size } => {
                            Value::Cat((next() % u64::from(size)) as u32)
                        }
                        AttrKind::Numeric { min, max } => {
                            Value::Int(min + (next() % (max - min + 1) as u64) as i64)
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    let cell_of =
        |t: &Tuple| -> Vec<u32> { cat_attrs.iter().map(|&a| t.get(a).expect_cat()).collect() };
    // A query pinning `t`'s cell, with `ranges[i]` on the i-th numeric
    // attribute (wildcards past the end of `ranges`).
    let pin = |t: &Tuple, ranges: &[Predicate]| {
        let mut preds = vec![Predicate::Any; arity];
        for &a in &cat_attrs {
            preds[a] = Predicate::Eq(t.get(a).expect_cat());
        }
        for (&a, &p) in num_attrs.iter().zip(ranges) {
            preds[a] = p;
        }
        Query::new(preds)
    };
    let range = |lo: i64, hi: i64| Predicate::Range { lo, hi };

    let mut qnext = stream(qseed);
    // The lone row, then three sampled rows.
    let picks: Vec<&Tuple> = tuples
        .last()
        .into_iter()
        .chain((0..3).map(|_| &tuples[(qnext() % n as u64) as usize]))
        .collect();
    let mut queries = Vec::new();
    for t in picks {
        let cell = cell_of(t);
        let mates: Vec<&Tuple> = tuples.iter().filter(|u| cell_of(u) == cell).collect();
        let xs: Vec<i64> = num_attrs.iter().map(|&a| t.get(a).expect_int()).collect();
        // Another of the cell's rows: its values are tied bounds.
        let mate = mates[(qnext() % mates.len() as u64) as usize];
        let ys: Vec<i64> = num_attrs
            .iter()
            .map(|&a| mate.get(a).expect_int())
            .collect();
        let between: Vec<Predicate> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| range(x.min(y), x.max(y)))
            .collect();
        let x = xs[0];
        queries.push(pin(t, &[]));
        queries.push(pin(t, &between));
        queries.push(pin(t, &between[..1]));
        queries.push(pin(t, &[range(x, x)]));
        queries.push(pin(t, &[range(i64::MIN, x)]));
        queries.push(pin(t, &[range(x, i64::MAX)]));
        queries.push(pin(
            t,
            &[range(i64::MIN, x), range(ys[ys.len() - 1], i64::MAX)],
        ));
        queries.push(pin(t, &[Predicate::FULL_RANGE, range(x, i64::MAX)]));
        // A value the store holds but this cell does not: the range hits
        // the store and misses the cell.
        let a = num_attrs[0];
        if let Some(v) = tuples
            .iter()
            .map(|u| u.get(a).expect_int())
            .find(|&v| mates.iter().all(|m| m.get(a).expect_int() != v))
        {
            queries.push(pin(t, &[range(v, v)]));
            queries.push(pin(t, &[range(v, v), range(i64::MIN, i64::MAX - 1)]));
        }
        // Rank-shrink siblings: the first range split around `x`, the
        // others shared.
        let rest = &between[1..];
        for part in [range(i64::MIN, x - 1), range(x, x), range(x + 1, i64::MAX)] {
            let mut ranges = vec![part];
            ranges.extend_from_slice(rest);
            queries.push(pin(t, &ranges));
        }
    }
    Case {
        schema,
        tuples,
        queries,
        k,
        seed,
    }
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

/// Planned evaluation, every forced strategy, and the legacy evaluator
/// all agree with the brute-force oracle on every query of `case`.
fn check_every_path(case: &Case) -> Result<(), TestCaseError> {
    let mut server = HiddenDbServer::new(
        case.schema.clone(),
        case.tuples.clone(),
        ServerConfig {
            k: case.k,
            seed: case.seed,
        },
    )
    .unwrap();
    let ranked: Vec<Tuple> = server.rows().to_vec();
    let legacy = server.legacy_evaluator();

    for q in &case.queries {
        let (want_tuples, want_overflow) = brute_force(&ranked, q, case.k);

        let planned = server.query(q).unwrap();
        prop_assert_eq!(&planned.tuples, &want_tuples, "planned, q={}", q);
        prop_assert_eq!(planned.overflow, want_overflow, "planned, q={}", q);

        for strategy in [
            EngineStrategy::Scan,
            EngineStrategy::Probe,
            EngineStrategy::Intersect,
        ] {
            let got = server.query_with_strategy(q, strategy).unwrap();
            prop_assert_eq!(
                &got.tuples,
                &want_tuples,
                "strategy {:?}, q={}",
                strategy,
                q
            );
            prop_assert_eq!(
                got.overflow,
                want_overflow,
                "strategy {:?}, q={}",
                strategy,
                q
            );
        }

        let old = legacy.evaluate(q);
        prop_assert_eq!(&old.tuples, &want_tuples, "legacy, q={}", q);
        prop_assert_eq!(old.overflow, want_overflow, "legacy, q={}", q);

        // Determinism: asking again changes nothing.
        prop_assert_eq!(server.query(q).unwrap(), planned);
    }
    Ok(())
}

/// The batch path is indistinguishable from the per-query loop and the
/// brute-force oracle on `case`'s queries — including duplicate queries
/// inside one batch, and the empty batch.
fn check_batch(case: &Case) -> Result<(), TestCaseError> {
    let mut batched = HiddenDbServer::new(
        case.schema.clone(),
        case.tuples.clone(),
        ServerConfig {
            k: case.k,
            seed: case.seed,
        },
    )
    .unwrap();
    let mut looped = HiddenDbServer::new(
        case.schema.clone(),
        case.tuples.clone(),
        ServerConfig {
            k: case.k,
            seed: case.seed,
        },
    )
    .unwrap();
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
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Planned evaluation, every forced strategy, and the legacy
    /// evaluator all agree with the brute-force oracle.
    #[test]
    fn all_strategies_match_the_oracle(case in case_strategy()) {
        check_every_path(&case)?;
    }

    /// The batch path must be indistinguishable from the per-query loop
    /// and the brute-force oracle on arbitrary schemas, data, k, and
    /// seeds — including duplicate queries inside one batch, and the
    /// empty batch.
    #[test]
    fn query_batch_matches_per_query_loop(case in case_strategy()) {
        check_batch(&case)?;
    }

    /// The cell-range family: every path, solo and batched, agrees with
    /// the oracle and the legacy evaluator where a range's store-wide
    /// list is far wider than its slice of the pinned cell.
    #[test]
    fn cell_range_probes_match_the_oracle(case in cell_range_case_strategy()) {
        check_every_path(&case)?;
        check_batch(&case)?;
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

/// The generated streams do reach the cell paths: over fixed families
/// of full-pin and cell-range cases, cell-list probes, cell-range probes
/// and grouped probes all occur (the properties above then hold them to
/// the oracle).
#[test]
fn full_pin_streams_reach_the_cell_paths() {
    let mut cell_probes = 0;
    let mut cell_range_probes = 0;
    let mut grouped = 0;
    for seed in 0..32u64 {
        let specs = vec![(true, 3, 20), (true, 4, 20), (false, 2, 30), (false, 2, 30)];
        let qseed = seed.wrapping_mul(0x9e37_79b9);
        for case in [
            build_case(specs, 4, 150, seed, qseed, true),
            build_cell_range_case(&[3, 4], &[3, 3, 3], 4, 150, seed, qseed),
        ] {
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
            cell_range_probes += stats.cell_range_probes;
            grouped += stats.batch_grouped_probes;
        }
    }
    assert!(cell_probes > 0, "no cell-driven probe");
    assert!(cell_range_probes > 0, "no cell-range probe");
    assert!(grouped > 0, "no grouped probe");
}
