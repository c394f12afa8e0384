//! Property tests for the data-model primitives: predicate/query algebra
//! soundness and multiset bookkeeping, over arbitrary inputs.

use proptest::prelude::*;

use hdc_types::tuple::int_tuple;
use hdc_types::{Predicate, Query, Tuple, TupleBag, Value};

fn pred_strategy() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        Just(Predicate::Any),
        (0u32..6).prop_map(Predicate::Eq),
        (-20i64..20, -20i64..20).prop_map(|(a, b)| Predicate::Range { lo: a, hi: b }),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-25i64..25).prop_map(Value::Int),
        (0u32..8).prop_map(Value::Cat),
    ]
}

proptest! {
    /// `intersect` is exactly logical conjunction on every value.
    #[test]
    fn predicate_intersect_soundness(
        a in pred_strategy(),
        b in pred_strategy(),
        v in value_strategy(),
    ) {
        let both = a.matches(v) && b.matches(v);
        let via = a.intersect(b).map(|p| p.matches(v)).unwrap_or(false);
        prop_assert_eq!(both, via, "a={} b={} v={}", a, b, v);
    }

    /// `intersect` is commutative up to matching behaviour.
    #[test]
    fn predicate_intersect_commutative(
        a in pred_strategy(),
        b in pred_strategy(),
        v in value_strategy(),
    ) {
        let ab = a.intersect(b).map(|p| p.matches(v)).unwrap_or(false);
        let ba = b.intersect(a).map(|p| p.matches(v)).unwrap_or(false);
        prop_assert_eq!(ab, ba);
    }

    /// A query matches a tuple iff every predicate matches its value.
    #[test]
    fn query_is_a_conjunction(
        preds in proptest::collection::vec(pred_strategy(), 1..4),
        seed in any::<u64>(),
    ) {
        let arity = preds.len();
        let q = Query::new(preds.clone());
        // Derive a tuple from the seed with mixed kinds.
        let values: Vec<Value> = (0..arity)
            .map(|i| {
                let h = seed.rotate_left((i * 13) as u32);
                if h.is_multiple_of(2) {
                    Value::Int((h % 41) as i64 - 20)
                } else {
                    Value::Cat((h % 8) as u32)
                }
            })
            .collect();
        let t = Tuple::new(values.clone());
        let expected = preds.iter().zip(values).all(|(p, v)| p.matches(v));
        prop_assert_eq!(q.matches(&t), expected);
    }

    /// Query intersection distributes over tuples; disjoint queries never
    /// share a matching tuple.
    #[test]
    fn query_intersect_and_disjoint_soundness(
        a in proptest::collection::vec(pred_strategy(), 2),
        b in proptest::collection::vec(pred_strategy(), 2),
        v0 in value_strategy(),
        v1 in value_strategy(),
    ) {
        let qa = Query::new(a);
        let qb = Query::new(b);
        let t = Tuple::new(vec![v0, v1]);
        let both = qa.matches(&t) && qb.matches(&t);
        let via = qa.intersect(&qb).map(|q| q.matches(&t)).unwrap_or(false);
        prop_assert_eq!(both, via);
        if qa.is_disjoint(&qb) {
            prop_assert!(!both, "disjoint queries matched the same tuple");
        }
    }

    /// Bag length equals the sum of multiplicities; equality is symmetric
    /// and agrees with an order-insensitive comparison.
    #[test]
    fn bag_accounting(values in proptest::collection::vec(-5i64..5, 0..40)) {
        let tuples: Vec<Tuple> = values.iter().map(|&v| int_tuple(&[v])).collect();
        let bag: TupleBag = tuples.iter().collect();
        prop_assert_eq!(bag.len(), tuples.len());
        let total: usize = bag.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, tuples.len());
        // Shuffled copy is multiset-equal.
        let mut reversed = tuples.clone();
        reversed.reverse();
        let bag2: TupleBag = reversed.iter().collect();
        prop_assert!(bag.multiset_eq(&bag2));
        prop_assert!(bag2.multiset_eq(&bag));
        prop_assert!(bag.diff(&bag2).is_empty());
        // Dropping one occurrence breaks equality (when non-empty).
        if let Some((_first, rest)) = tuples.split_first() {
            let smaller: TupleBag = rest.iter().collect();
            prop_assert!(!bag.multiset_eq(&smaller));
            let d = bag.diff(&smaller);
            let missing: usize = d.missing.iter().map(|(_, c)| c).sum();
            prop_assert_eq!(missing, 1);
            prop_assert!(d.unexpected.is_empty());
        }
    }

    /// max_multiplicity is the max over per-tuple counts.
    #[test]
    fn bag_max_multiplicity(values in proptest::collection::vec(0i64..4, 1..50)) {
        let tuples: Vec<Tuple> = values.iter().map(|&v| int_tuple(&[v])).collect();
        let bag: TupleBag = tuples.iter().collect();
        let expected = (0..4)
            .map(|v| values.iter().filter(|&&x| x == v).count())
            .max()
            .unwrap();
        prop_assert_eq!(bag.max_multiplicity(), expected);
    }
}
