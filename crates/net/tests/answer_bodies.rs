//! Answers assembled from the row table are the tuple encoder's bytes.
//!
//! The serve loop never encodes a tuple: a
//! [`ConnectionClient`](hdc_server::ConnectionClient) answers with the
//! matched rows' pre-encoded fragments, and `proto::push_answer` /
//! `proto::push_batch_answers` concatenate them. The claims under test:
//!
//! 1. **Byte-identical bodies.** On random stores and batches, the
//!    assembled bodies equal `proto::outcome_body` /
//!    `proto::batch_outcome_body` of an in-process client's outcomes,
//!    byte for byte, and parse back to those outcomes. The stores carry
//!    negative numbers and values at both ends of `i64`; the batches
//!    include empty batches, empty outcomes and overflowing ones.
//! 2. **Quota parity.** A connection with a quota charges and fails
//!    exactly like `Budgeted` around a `ServerClient`, batches and
//!    invalid queries included.
//! 3. **Lazy table.** In-process crawls never build the row table;
//!    neither does starting a wire server or fetching its schema. The
//!    first wire query does.

use proptest::prelude::*;

use hdc_core::Crawl;
use hdc_net::{proto, HttpConnector, ServeOptions, WireServer};
use hdc_server::{Budgeted, ServerConfig, SharedServer};
use hdc_types::{AttrKind, DbError, HiddenDatabase, Predicate, Query, Schema, Tuple, Value};

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

/// Half-width of the window numeric values are drawn from.
const SPREAD: u64 = 40;

/// One random store plus a stream of random queries over it.
struct Case {
    shared: SharedServer,
    /// The schema's attribute kinds.
    attrs: Vec<AttrKind>,
    /// Per attribute, the lowest value of its numeric window.
    lows: Vec<i64>,
    next: Box<dyn FnMut() -> u64>,
}

/// `specs` are `(categorical?, domain size, numeric window)` per
/// attribute; window 0 is centred on zero, 1 starts at `i64::MIN`, 2
/// ends at `i64::MAX`.
fn case(specs: &[(bool, u32, u8)], n: usize, k: usize, seed: u64) -> Case {
    let mut b = Schema::builder();
    let mut lows = Vec::new();
    for (i, &(cat, size, window)) in specs.iter().enumerate() {
        b = if cat {
            b.categorical(format!("c{i}"), size)
        } else {
            b.numeric(format!("n{i}"), i64::MIN, i64::MAX)
        };
        lows.push(match window {
            0 => -(SPREAD as i64),
            1 => i64::MIN,
            _ => i64::MAX - 2 * SPREAD as i64,
        });
    }
    let schema = b.build().unwrap();
    let attrs: Vec<AttrKind> = schema.attrs().iter().map(|a| a.kind()).collect();
    let mut next = stream(seed);
    let rows = (0..n)
        .map(|_| {
            let vals: Vec<Value> = attrs
                .iter()
                .zip(&lows)
                .map(|(kind, &low)| match *kind {
                    AttrKind::Categorical { size } => Value::Cat((next() % u64::from(size)) as u32),
                    AttrKind::Numeric { .. } => {
                        Value::Int(low.wrapping_add((next() % (2 * SPREAD + 1)) as i64))
                    }
                })
                .collect();
            Tuple::new(vals)
        })
        .collect();
    let shared = SharedServer::new(schema, rows, ServerConfig { k, seed }).unwrap();
    Case {
        shared,
        attrs,
        lows,
        next: Box::new(next),
    }
}

impl Case {
    /// A random query: wildcards, equalities (sometimes on values absent
    /// from the data), ranges (sometimes empty, sometimes points).
    /// `invalid` puts a predicate of the wrong kind on one attribute.
    fn query(&mut self, invalid: bool) -> Query {
        let next = &mut self.next;
        let spoiled = invalid.then(|| next() as usize % self.attrs.len());
        let preds = self
            .attrs
            .iter()
            .zip(&self.lows)
            .enumerate()
            .map(|(a, (kind, &low))| {
                let cat = matches!(kind, AttrKind::Categorical { .. });
                let cat = cat != (spoiled == Some(a));
                if next().is_multiple_of(3) {
                    return Predicate::Any;
                }
                if cat {
                    let size = match *kind {
                        AttrKind::Categorical { size } => size,
                        AttrKind::Numeric { .. } => 1,
                    };
                    Predicate::Eq((next() % u64::from(size)) as u32)
                } else {
                    let lo = low.wrapping_add((next() % (2 * SPREAD + 1)) as i64);
                    let hi = match next() % 4 {
                        0 => lo,
                        _ => low.wrapping_add((next() % (2 * SPREAD + 1)) as i64),
                    };
                    Predicate::Range { lo, hi }
                }
            })
            .collect::<Vec<_>>();
        Query::new(preds)
    }
}

fn attr_specs() -> impl Strategy<Value = Vec<(bool, u32, u8)>> {
    proptest::collection::vec((any::<bool>(), 1u32..6, 0u8..3), 1..5)
}

proptest! {
    #[test]
    fn assembled_bodies_are_byte_identical_to_encoded_outcomes(
        specs in attr_specs(),
        n in 0usize..120,
        k in 1usize..10,
        seed in any::<u64>(),
        sizes in proptest::collection::vec(0usize..6, 1..8),
    ) {
        let mut case = case(&specs, n, k, seed);
        let mut client = case.shared.client();
        let mut conn = case.shared.connection(None);
        for size in sizes {
            let qs: Vec<Query> = (0..size).map(|_| case.query(false)).collect();
            let outs = client.query_batch(&qs).unwrap();
            let want = proto::batch_outcome_body(&outs);
            let mut got = String::new();
            proto::push_batch_answers(&mut got, conn.query_batch(&qs).unwrap());
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(proto::parse_batch_outcome_body(&got, qs.len()).unwrap(), outs);
            for q in &qs {
                let out = client.query(q).unwrap();
                let mut got = String::new();
                proto::push_answer(&mut got, conn.query(q).unwrap());
                prop_assert_eq!(&got, &proto::outcome_body(&out));
                prop_assert_eq!(proto::parse_outcome_body(&got).unwrap(), out);
            }
        }
        prop_assert_eq!(conn.queries_issued(), client.queries_issued());
        prop_assert!(case.shared.row_table_built());
    }

    #[test]
    fn a_connection_quota_charges_and_fails_like_budgeted(
        specs in attr_specs(),
        n in 0usize..60,
        seed in any::<u64>(),
        limit in 0u64..16,
        requests in proptest::collection::vec((0usize..5, any::<bool>(), 0u8..5), 1..10),
    ) {
        let mut case = case(&specs, n, 3, seed);
        let mut budgeted = Budgeted::new(case.shared.client(), limit);
        let mut conn = case.shared.connection(Some(limit));
        for (size, single, spoil) in requests {
            // Query number `spoil`, when there is one, is invalid.
            let count = if single { 1 } else { size };
            let qs: Vec<Query> = (0..count)
                .map(|i| case.query(usize::from(spoil) == i))
                .collect();
            let (want, got): (Result<String, DbError>, Result<String, DbError>) = if single {
                (
                    budgeted.query(&qs[0]).map(|o| proto::outcome_body(&o)),
                    conn.query(&qs[0]).map(|a| {
                        let mut s = String::new();
                        proto::push_answer(&mut s, a);
                        s
                    }),
                )
            } else {
                (
                    budgeted.query_batch(&qs).map(|o| proto::batch_outcome_body(&o)),
                    conn.query_batch(&qs).map(|answers| {
                        let mut s = String::new();
                        proto::push_batch_answers(&mut s, answers);
                        s
                    }),
                )
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(conn.queries_issued(), budgeted.queries_issued());
        }
    }
}

#[test]
fn only_wire_queries_build_the_row_table() {
    let ds = hdc_data::yahoo::generate_scaled(1_000, 11);
    let shared = SharedServer::new(ds.schema, ds.tuples, ServerConfig { k: 128, seed: 5 }).unwrap();
    let reference = Crawl::builder()
        .sessions(2)
        .run_sharded(|_s| shared.client())
        .unwrap();
    assert!(reference.merged.queries > 0);
    assert!(
        !shared.row_table_built(),
        "an in-process crawl built the row table"
    );

    let server = WireServer::start("127.0.0.1:0", shared.clone(), ServeOptions::default()).unwrap();
    let conn = HttpConnector::new(&server.addr().to_string()).expect("schema fetch");
    assert!(
        !shared.row_table_built(),
        "start-up or GET /schema built the row table"
    );

    let wire = Crawl::builder().sessions(2).run_sharded(conn).unwrap();
    server.shutdown().unwrap();
    assert!(shared.row_table_built());
    assert_eq!(wire.merged.queries, reference.merged.queries);
}
