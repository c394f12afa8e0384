//! Deterministic fault injection over the top-k interface.
//!
//! The paper's cost model assumes a server that always answers; real
//! hidden-database deployments are flaky remote endpoints — timeouts,
//! 5xx-style transient failures, and hard bans mid-crawl. [`FaultyDb`]
//! simulates that flakiness *deterministically*: a seeded RNG decides,
//! attempt by attempt, whether to inject a [`DbError::Transient`]
//! (optionally as a burst of consecutive failures) or to let the query
//! through, and an optional success-count fuse kills the identity
//! permanently. Determinism is what makes the fault layer provable — the
//! differential suites in `hdc-core` replay the exact same fault schedule
//! against the exact same crawl and check the bags bit-identical.
//!
//! Failed attempts never reach the inner database, so they are neither
//! answered nor charged: the only cost a retried crawl pays over a
//! fault-free one is the retried attempts themselves (counted by
//! [`FaultyDb::faults_injected`]).

use crate::error::DbError;
use crate::interface::{HiddenDatabase, QueryOutcome};
use crate::query::Query;
use crate::schema::Schema;

/// Configuration for a [`FaultyDb`] fault schedule.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// Seed for the fault schedule. Same seed + same attempt sequence ⇒
    /// same injected faults.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given attempt trips a transient
    /// fault (starting a burst of [`burst`](FaultConfig::burst) failures).
    pub transient_rate: f64,
    /// Consecutive attempts that fail once a fault trips (`1` = isolated
    /// failures; higher values model a flapping endpoint whose retries
    /// keep failing for a while).
    pub burst: u32,
    /// Permanent identity death: after this many *successful* queries the
    /// connection dies and every further attempt fails with a permanent
    /// [`DbError::Backend`]. `None` = the identity never dies.
    pub fail_after: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            transient_rate: 0.0,
            burst: 1,
            fail_after: None,
        }
    }
}

/// Wraps any [`HiddenDatabase`] and injects seeded failures per the
/// [`FaultConfig`]: transient faults (singly or in bursts) at a
/// configured rate, and optional permanent identity death after a fixed
/// number of successes.
///
/// Batches go through the trait's default per-query loops, so faults are
/// drawn attempt by attempt even mid-batch — exactly the granularity the
/// session layer's suffix-retry logic is tested against.
#[derive(Debug)]
pub struct FaultyDb<D> {
    inner: D,
    config: FaultConfig,
    rng_state: u64,
    pending_burst: u32,
    successes: u64,
    injected: u64,
    dead: bool,
}

impl<D: HiddenDatabase> FaultyDb<D> {
    /// Wraps `inner` with the fault schedule drawn from `config`.
    pub fn new(inner: D, config: FaultConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.transient_rate),
            "transient_rate must be in [0, 1]"
        );
        assert!(config.burst >= 1, "burst must be ≥ 1");
        FaultyDb {
            inner,
            config,
            rng_state: config.seed,
            pending_burst: 0,
            successes: 0,
            injected: 0,
            dead: false,
        }
    }

    /// Transient faults injected so far (each one cost the caller exactly
    /// one retried attempt; none reached — or charged — the inner
    /// database).
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// True once the identity has died permanently (the
    /// [`fail_after`](FaultConfig::fail_after) fuse blew).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Shared access to the inner database.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Consumes the decorator, returning the inner database.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// One splitmix64 step — the same generator the workspace's compat
    /// `rand` uses for seeding, inlined here to keep `hdc-types`
    /// dependency-free.
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Draws the fault decision for one attempt.
    fn fault_for_attempt(&mut self) -> Option<DbError> {
        if self.dead {
            return Some(DbError::Backend("identity banned".into()));
        }
        if let Some(fuse) = self.config.fail_after {
            if self.successes >= fuse {
                self.dead = true;
                return Some(DbError::Backend("identity banned".into()));
            }
        }
        if self.pending_burst > 0 {
            self.pending_burst -= 1;
            self.injected += 1;
            return Some(DbError::Transient("injected fault (burst)".into()));
        }
        // Top 53 bits → a uniform draw in [0, 1) with exact f64 arithmetic.
        let draw = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if draw < self.config.transient_rate {
            self.pending_burst = self.config.burst - 1;
            self.injected += 1;
            return Some(DbError::Transient("injected fault".into()));
        }
        None
    }
}

impl<D: HiddenDatabase> HiddenDatabase for FaultyDb<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        if let Some(fault) = self.fault_for_attempt() {
            return Err(fault);
        }
        let out = self.inner.query(q)?;
        self.successes += 1;
        Ok(out)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::tuple::int_tuple;
    use crate::Budgeted;

    fn tiny() -> impl HiddenDatabase {
        struct TinyDb {
            schema: Schema,
            rows: Vec<crate::Tuple>,
            issued: u64,
        }
        impl HiddenDatabase for TinyDb {
            fn schema(&self) -> &Schema {
                &self.schema
            }
            fn k(&self) -> usize {
                3
            }
            fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
                q.validate(&self.schema)?;
                self.issued += 1;
                let matches: Vec<_> = self.rows.iter().filter(|t| q.matches(t)).cloned().collect();
                if matches.len() <= 3 {
                    Ok(QueryOutcome::resolved(matches))
                } else {
                    Ok(QueryOutcome::overflowed(matches[..3].to_vec()))
                }
            }
            fn queries_issued(&self) -> u64 {
                self.issued
            }
        }
        TinyDb {
            schema: Schema::builder().numeric("a", 0, 9).build().unwrap(),
            rows: (0..5).map(|x| int_tuple(&[x])).collect(),
            issued: 0,
        }
    }

    fn narrow() -> Query {
        Query::new(vec![Predicate::Range { lo: 0, hi: 1 }])
    }

    #[test]
    fn zero_rate_is_transparent() {
        let mut db = FaultyDb::new(tiny(), FaultConfig::default());
        for _ in 0..50 {
            db.query(&narrow()).unwrap();
        }
        assert_eq!(db.faults_injected(), 0);
        assert_eq!(db.queries_issued(), 50);
    }

    #[test]
    fn faults_are_deterministic_and_transient() {
        let cfg = FaultConfig {
            seed: 7,
            transient_rate: 0.3,
            ..FaultConfig::default()
        };
        let run = |cfg| {
            let mut db = FaultyDb::new(tiny(), cfg);
            let mut pattern = Vec::new();
            for _ in 0..100 {
                match db.query(&narrow()) {
                    Ok(_) => pattern.push(true),
                    Err(e) => {
                        assert!(e.is_transient());
                        pattern.push(false);
                    }
                }
            }
            (pattern, db.faults_injected(), db.queries_issued())
        };
        let (p1, f1, c1) = run(cfg);
        let (p2, f2, c2) = run(cfg);
        assert_eq!(p1, p2, "same seed ⇒ same fault schedule");
        assert_eq!(f1, f2);
        assert!(f1 > 10, "rate 0.3 over 100 attempts injects plenty");
        assert_eq!(
            c1,
            100 - f1,
            "failed attempts never reach (or charge) the inner db"
        );
        assert_eq!(c1, c2);
        let (p3, ..) = run(FaultConfig { seed: 8, ..cfg });
        assert_ne!(p1, p3, "different seed ⇒ different schedule");
    }

    #[test]
    fn bursts_fail_consecutively() {
        let cfg = FaultConfig {
            seed: 3,
            transient_rate: 0.1,
            burst: 4,
            fail_after: None,
        };
        let mut db = FaultyDb::new(tiny(), cfg);
        let mut run_len = 0u32;
        let mut saw_full_burst = false;
        for _ in 0..400 {
            match db.query(&narrow()) {
                Ok(_) => {
                    assert!(
                        run_len == 0 || run_len >= 4,
                        "a tripped fault fails at least `burst` consecutive attempts"
                    );
                    saw_full_burst |= run_len >= 4;
                    run_len = 0;
                }
                Err(_) => run_len += 1,
            }
        }
        assert!(saw_full_burst);
    }

    #[test]
    fn fuse_kills_the_identity_permanently() {
        let cfg = FaultConfig {
            fail_after: Some(5),
            ..FaultConfig::default()
        };
        let mut db = FaultyDb::new(tiny(), cfg);
        for _ in 0..5 {
            db.query(&narrow()).unwrap();
        }
        assert!(!db.is_dead());
        for _ in 0..3 {
            let e = db.query(&narrow()).unwrap_err();
            assert!(!e.is_transient(), "death is permanent");
        }
        assert!(db.is_dead());
        assert_eq!(db.queries_issued(), 5);
    }

    #[test]
    fn composes_with_budget_without_charging_faults() {
        // Budgeted outside FaultyDb: transient attempts consume no quota.
        let cfg = FaultConfig {
            seed: 11,
            transient_rate: 0.5,
            ..FaultConfig::default()
        };
        let mut db = Budgeted::new(FaultyDb::new(tiny(), cfg), 10);
        let mut ok = 0;
        for _ in 0..40 {
            if db.query(&narrow()).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, 10, "exactly the budget's worth of queries succeed");
        assert!(matches!(
            db.query(&narrow()),
            Err(DbError::BudgetExhausted { .. })
        ));
    }
}
