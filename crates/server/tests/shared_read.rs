//! Differential concurrency suite for the shared-read serving layer.
//!
//! The claim under test: N threads hammering one [`SharedServer`]
//! produce, per client, outcomes and statistics **bit-identical** to the
//! same query streams run sequentially through private
//! [`HiddenDbServer`]s (the original `&mut` path) over the same data and
//! seed — and nothing one client does (queries, batches, exhausted
//! quotas, invalid queries) perturbs any other client.
//!
//! Interleaving is adversarial on purpose: clients run on real threads
//! with no synchronization between queries, so any hidden shared mutable
//! state in the evaluation path would show up as a cross-client diff
//! (or, under `cargo test --test-threads=N`, as outright data races in
//! the differential assertions). Run repeatedly in CI's threaded-stress
//! job.

use std::sync::Barrier;
use std::thread;

use proptest::prelude::*;

use hdc_server::{HiddenDbServer, ServerConfig, SharedServer};
use hdc_types::{DbError, HiddenDatabase, Predicate, Query, QueryOutcome, Schema, Tuple, Value};

/// xorshift64* — deterministic stream generation, one per client.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A mixed-schema fixture big enough that scans, probes, intersections,
/// and the batch sharing paths all fire.
fn fixture() -> (Schema, Vec<Tuple>) {
    let schema = Schema::builder()
        .categorical("make", 5)
        .numeric("price", 0, 5_000)
        .categorical("color", 3)
        .numeric("mileage", 0, 1_000)
        .build()
        .unwrap();
    let mut next = stream(0xf1f7);
    let tuples = (0..4_000)
        .map(|_| {
            Tuple::new(vec![
                Value::Cat((next() % 5) as u32),
                Value::Int((next() % 5_001) as i64),
                Value::Cat((next() % 3) as u32),
                Value::Int((next() % 1_001) as i64),
            ])
        })
        .collect();
    (schema, tuples)
}

/// One client's deterministic workload: solo queries mixed with batches
/// (sibling-style bursts so the grouped-probe batch path engages).
#[derive(Clone, Debug)]
enum Op {
    Solo(Query),
    Batch(Vec<Query>),
}

fn client_ops(client: usize, ops: usize) -> Vec<Op> {
    let mut next = stream(0xc11e_u64.wrapping_mul(client as u64 + 1) ^ 0x9e37);
    let mut rand_query = move || {
        let mut preds = vec![Predicate::Any; 4];
        // 1–3 constraining predicates over the four attributes.
        for _ in 0..1 + next() % 3 {
            match next() % 4 {
                0 => preds[0] = Predicate::Eq((next() % 5) as u32),
                1 => {
                    let lo = (next() % 5_001) as i64;
                    let hi = (lo + (next() % 2_000) as i64).min(5_000);
                    preds[1] = Predicate::Range { lo, hi };
                }
                2 => preds[2] = Predicate::Eq((next() % 3) as u32),
                _ => {
                    let lo = (next() % 1_001) as i64;
                    let hi = (lo + (next() % 400) as i64).min(1_000);
                    preds[3] = Predicate::Range { lo, hi };
                }
            }
        }
        Query::new(preds)
    };
    let mut sizes = stream(0xba7c_u64.wrapping_mul(client as u64 + 1));
    (0..ops)
        .map(|_| {
            if sizes().is_multiple_of(3) {
                let m = 2 + (sizes() % 5) as usize;
                let base = rand_query();
                // Sibling batches: perturb one predicate of a base query,
                // so duplicates and shared predicates are common.
                let batch = (0..m)
                    .map(|j| {
                        if j % 2 == 0 {
                            base.clone()
                        } else {
                            rand_query()
                        }
                    })
                    .collect();
                Op::Batch(batch)
            } else {
                Op::Solo(rand_query())
            }
        })
        .collect()
}

/// Runs one client's ops against any `HiddenDatabase`, collecting every
/// outcome (errors included, as `None`).
fn drive(db: &mut impl HiddenDatabase, ops: &[Op]) -> Vec<Option<Vec<QueryOutcome>>> {
    ops.iter()
        .map(|op| match op {
            Op::Solo(q) => db.query(q).ok().map(|o| vec![o]),
            Op::Batch(qs) => db.query_batch(qs).ok(),
        })
        .collect()
}

/// The headline differential: C threads on one store ≡ C sequential
/// private servers, per client, outcomes and stats bit-identical.
#[test]
fn concurrent_clients_match_sequential_private_servers() {
    let (schema, tuples) = fixture();
    let cfg = ServerConfig {
        k: 48,
        seed: 0xbeef,
    };
    let shared = SharedServer::new(schema.clone(), tuples.clone(), cfg).unwrap();

    let clients = 16;
    let ops: Vec<Vec<Op>> = (0..clients).map(|c| client_ops(c, 120)).collect();

    // Sequential oracle: each client's stream through its own private
    // `&mut`-path server over the same data and seed.
    let oracle: Vec<_> = ops
        .iter()
        .map(|stream| {
            let mut private = HiddenDbServer::new(schema.clone(), tuples.clone(), cfg).unwrap();
            let outs = drive(&mut private, stream);
            (outs, private.stats())
        })
        .collect();

    // Concurrent run: all clients on one store, unsynchronized threads.
    let got: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = ops
            .iter()
            .map(|stream| {
                let mut client = shared.client();
                s.spawn(move || {
                    let outs = drive(&mut client, stream);
                    (outs, client.stats())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (c, ((got_outs, got_stats), (want_outs, want_stats))) in got.iter().zip(&oracle).enumerate()
    {
        assert_eq!(got_outs, want_outs, "client {c}: outcomes diverged");
        assert_eq!(got_stats, want_stats, "client {c}: stats diverged");
    }
}

/// One client's full-pin stream: every query pins both categorical
/// attributes and carries a price range (and sometimes a mileage range),
/// so each runs on the per-cell numeric order. The first op is always a
/// lone query; later ones mix lone queries with rank-shrink-style sibling
/// batches that split one price range in three.
fn full_pin_ops(client: usize, ops: usize) -> Vec<Op> {
    let mut next = stream((client as u64 + 1).wrapping_mul(0xce11_5eed));
    (0..ops)
        .map(|i| {
            let make = Predicate::Eq((next() % 5) as u32);
            let color = Predicate::Eq((next() % 3) as u32);
            let lo = (next() % 5_001) as i64;
            let hi = (lo + (next() % 1_500) as i64).min(5_000);
            let mileage = if next().is_multiple_of(2) {
                Predicate::Any
            } else {
                let lo = (next() % 1_001) as i64;
                Predicate::Range {
                    lo,
                    hi: (lo + (next() % 300) as i64).min(1_000),
                }
            };
            let q = |lo, hi| Query::new(vec![make, Predicate::Range { lo, hi }, color, mileage]);
            if i == 0 || !next().is_multiple_of(3) {
                Op::Solo(q(lo, hi))
            } else {
                let mid = lo + (hi - lo) / 2;
                Op::Batch(vec![q(lo, mid - 1), q(mid, mid), q(mid + 1, hi)])
            }
        })
        .collect()
}

/// The per-cell numeric order is built lazily, by the first full-pin
/// range query a store answers. On a fresh store, 16 threads all issue
/// such a query first, released together, so they race to build it;
/// every answer and statistic must still match a sequential private
/// server's.
#[test]
fn lazy_cell_order_builds_once_under_contention() {
    let (schema, tuples) = fixture();
    let cfg = ServerConfig {
        k: 24,
        seed: 0xce11,
    };
    let clients = 16;
    let ops: Vec<Vec<Op>> = (0..clients).map(|c| full_pin_ops(c, 60)).collect();

    let oracle: Vec<_> = ops
        .iter()
        .map(|stream| {
            let mut private = HiddenDbServer::new(schema.clone(), tuples.clone(), cfg).unwrap();
            let outs = drive(&mut private, stream);
            (outs, private.stats())
        })
        .collect();

    let shared = SharedServer::new(schema, tuples, cfg).unwrap();
    let start = Barrier::new(clients);
    let got: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = ops
            .iter()
            .map(|stream| {
                let mut client = shared.client();
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let outs = drive(&mut client, stream);
                    (outs, client.stats())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (c, ((got_outs, got_stats), (want_outs, want_stats))) in got.iter().zip(&oracle).enumerate()
    {
        assert_eq!(got_outs, want_outs, "client {c}: outcomes diverged");
        assert_eq!(got_stats, want_stats, "client {c}: stats diverged");
        assert!(
            got_stats.cell_range_probes > 0,
            "client {c}: no cell-range probe"
        );
    }
}

/// Satellite: per-client budget isolation. One exhausted `Budgeted`
/// client — hammering past its quota from its own thread — must not
/// perturb any other client's quota, statistics, or results.
#[test]
fn exhausted_budget_is_invisible_to_other_clients() {
    let (schema, tuples) = fixture();
    let cfg = ServerConfig { k: 32, seed: 7 };
    let shared = SharedServer::new(schema.clone(), tuples.clone(), cfg).unwrap();

    let rich_ops: Vec<Vec<Op>> = (0..4).map(|c| client_ops(c, 80)).collect();
    // Oracle: the rich clients' streams with no poor client anywhere.
    let oracle: Vec<_> = rich_ops
        .iter()
        .map(|stream| {
            let mut private = HiddenDbServer::new(schema.clone(), tuples.clone(), cfg).unwrap();
            let outs = drive(&mut private, stream);
            (outs, private.stats())
        })
        .collect();

    let poor_ops = client_ops(99, 300);
    let got: Vec<_> = thread::scope(|s| {
        // The poor client: quota of 5, then 100+ rejected attempts
        // racing the rich clients' whole run.
        let poor = s.spawn(|| {
            let mut poor = shared.client_with_budget(5);
            let mut granted = 0u64;
            let mut rejected = 0u64;
            for op in &poor_ops {
                let err = match op {
                    Op::Solo(q) => poor.query(q).err(),
                    Op::Batch(qs) => qs.iter().find_map(|q| poor.query(q).err()),
                };
                match err {
                    None => granted += 1,
                    Some(DbError::BudgetExhausted { .. }) => rejected += 1,
                    Some(e) => panic!("unexpected error: {e}"),
                }
            }
            (granted, rejected, poor.inner().queries_issued())
        });
        let handles: Vec<_> = rich_ops
            .iter()
            .map(|stream| {
                let mut client = shared.client();
                s.spawn(move || {
                    let outs = drive(&mut client, stream);
                    (outs, client.stats())
                })
            })
            .collect();
        let rich: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let (granted, rejected, issued) = poor.join().unwrap();
        assert_eq!(issued, 5, "quota charged exactly");
        assert!(granted <= 5, "nothing granted past the quota");
        assert!(rejected > 0, "the poor client did keep hammering");
        rich
    });

    for (c, ((got_outs, got_stats), (want_outs, want_stats))) in got.iter().zip(&oracle).enumerate()
    {
        assert_eq!(got_outs, want_outs, "rich client {c}: outcomes perturbed");
        assert_eq!(got_stats, want_stats, "rich client {c}: stats perturbed");
    }
}

/// An invalid query from one client rejects only that client's call:
/// concurrent well-formed traffic is untouched, and the offender is not
/// charged.
#[test]
fn invalid_queries_stay_local_to_their_client() {
    let (schema, tuples) = fixture();
    let cfg = ServerConfig { k: 16, seed: 3 };
    let shared = SharedServer::new(schema, tuples, cfg).unwrap();
    let ops = client_ops(1, 60);

    thread::scope(|s| {
        let vandal = s.spawn(|| {
            let mut client = shared.client();
            let bad = Query::new(vec![Predicate::Eq(0); 4]); // Eq on numeric attrs
            for _ in 0..200 {
                assert!(matches!(client.query(&bad), Err(DbError::InvalidQuery(_))));
            }
            assert_eq!(client.queries_issued(), 0, "invalid queries are free");
        });
        let mut client = shared.client();
        let mut oracle_db = shared.client();
        // Interleave with the vandal; same-store sequential client is the
        // oracle here (bit-identity vs private servers is proven above).
        let got = drive(&mut client, &ops);
        let want = drive(&mut oracle_db, &ops);
        assert_eq!(got, want);
        vandal.join().unwrap();
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Property form over random small schemas/data/streams and thread
    /// counts: concurrent shared clients ≡ sequential private servers.
    #[test]
    fn shared_read_equivalence_holds_on_arbitrary_stores(
        seed in any::<u64>(),
        n in 0usize..400,
        k in 1usize..20,
        clients in 2usize..9,
    ) {
        let mut next = stream(seed | 1);
        let schema = Schema::builder()
            .categorical("c", 2 + (next() % 6) as u32)
            .numeric("x", 0, 200)
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..n)
            .map(|_| {
                Tuple::new(vec![
                    Value::Cat((next() % schema.kind(0).domain_size().unwrap() as u64) as u32),
                    Value::Int((next() % 201) as i64),
                ])
            })
            .collect();
        let cfg = ServerConfig { k, seed: next() };
        let shared = SharedServer::new(schema.clone(), tuples.clone(), cfg).unwrap();

        let streams: Vec<Vec<Op>> = (0..clients)
            .map(|c| {
                let mut q = stream(seed.wrapping_add(c as u64 * 77) | 1);
                (0..30)
                    .map(|_| {
                        let mk = |q: &mut dyn FnMut() -> u64| {
                            let mut preds = vec![Predicate::Any; 2];
                            if q().is_multiple_of(2) {
                                preds[0] = Predicate::Eq(
                                    (q() % schema.kind(0).domain_size().unwrap() as u64) as u32,
                                );
                            }
                            if q().is_multiple_of(2) {
                                let lo = (q() % 201) as i64;
                                preds[1] = Predicate::Range {
                                    lo,
                                    hi: (lo + (q() % 80) as i64).min(200),
                                };
                            }
                            Query::new(preds)
                        };
                        if q().is_multiple_of(4) {
                            Op::Batch((0..2 + q() % 4).map(|_| mk(&mut q)).collect())
                        } else {
                            Op::Solo(mk(&mut q))
                        }
                    })
                    .collect()
            })
            .collect();

        let oracle: Vec<_> = streams
            .iter()
            .map(|ops| {
                let mut private =
                    HiddenDbServer::new(schema.clone(), tuples.clone(), cfg).unwrap();
                (drive(&mut private, ops), private.stats())
            })
            .collect();

        let got: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = streams
                .iter()
                .map(|ops| {
                    let mut client = shared.client();
                    s.spawn(move || (drive(&mut client, ops), client.stats()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for ((got_c, (want_outs, want_stats)) , c) in got.iter().zip(&oracle).zip(0..) {
            prop_assert_eq!(&got_c.0, want_outs, "client {} outcomes", c);
            prop_assert_eq!(&got_c.1, want_stats, "client {} stats", c);
        }
        let _ = &oracle;
    }
}
