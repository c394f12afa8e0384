//! The query-budget decorator.
//!
//! [`Budgeted`] lives in `hdc-types` (a quota is a property of the
//! *interface*, and the crawl orchestration layer in `hdc-core` applies
//! it without depending on this simulator crate); it is re-exported here
//! so existing imports keep working, and its tests run against this
//! crate's server. A crawl stopped by its quota resumes from a
//! checkpoint: `hdc crawl --checkpoint FILE` run again pays only for the
//! work not yet banked.

pub use hdc_types::Budgeted;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{HiddenDbServer, ServerConfig};
    use hdc_types::tuple::int_tuple;
    use hdc_types::{DbError, HiddenDatabase, Query, Schema};

    fn server() -> HiddenDbServer {
        let schema = Schema::builder().numeric("a", 0, 99).build().unwrap();
        let rows = (0..100).map(|x| int_tuple(&[x])).collect();
        HiddenDbServer::new(schema, rows, ServerConfig { k: 10, seed: 1 }).unwrap()
    }

    #[test]
    fn passes_queries_until_limit() {
        let mut db = Budgeted::new(server(), 3);
        for _ in 0..3 {
            assert!(db.query(&Query::any(1)).is_ok());
        }
        assert_eq!(db.remaining(), 0);
        let err = db.query(&Query::any(1)).unwrap_err();
        assert!(matches!(
            err,
            DbError::BudgetExhausted {
                issued: 3,
                limit: 3
            }
        ));
    }

    #[test]
    fn failed_validation_does_not_consume_budget() {
        let mut db = Budgeted::new(server(), 2);
        let bad = Query::any(2); // arity mismatch
        assert!(matches!(db.query(&bad), Err(DbError::InvalidQuery(_))));
        assert_eq!(db.remaining(), 2);
    }

    #[test]
    fn exposes_inner_properties() {
        let db = Budgeted::new(server(), 5);
        assert_eq!(db.k(), 10);
        assert_eq!(db.schema().arity(), 1);
        assert_eq!(db.limit(), 5);
        assert_eq!(db.queries_issued(), 0);
        let inner = db.into_inner();
        assert_eq!(inner.n(), 100);
    }

    #[test]
    fn zero_budget_blocks_everything() {
        let mut db = Budgeted::new(server(), 0);
        assert!(matches!(
            db.query(&Query::any(1)),
            Err(DbError::BudgetExhausted {
                issued: 0,
                limit: 0
            })
        ));
    }
}
