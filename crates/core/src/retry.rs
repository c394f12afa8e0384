//! Bounded retry with exponential backoff for transient failures.
//!
//! Real hidden-database endpoints time out and flap; the paper's
//! algorithms assume every query is answered. [`RetryPolicy`] bridges the
//! two at the session layer: any query (or batch suffix) that fails with
//! a *transient* [`DbError`](hdc_types::DbError) is re-issued up to a
//! bounded number of attempts, with exponential backoff and deterministic
//! jitter between attempts. Because the server is a deterministic adversary, a
//! retried query returns exactly what the original would have — so a
//! crawl under transient faults with retries produces a bag bit-identical
//! to the fault-free crawl, and its only extra cost is the retried
//! attempts themselves (tracked in
//! [`CrawlMetrics::transient_retries`](crate::CrawlMetrics::transient_retries)).
//!
//! The attempt bound is the one setting: every policy waits on the same
//! fixed schedule — retry `r` sleeps [`BASE_BACKOFF`]` · 2^(r−1)`, capped
//! at [`MAX_BACKOFF`], scaled by a jitter factor in `[0.5, 1.0)` drawn
//! from the retry number and the session's charged-query count. The paper
//! charges queries, not waiting, so the schedule only decides how long a
//! crawl takes, never what it returns or costs.
//!
//! The sleeper is injectable so tests (and benches) run instantly:
//! [`RetryPolicy::no_sleep`] keeps the backoff *schedule* deterministic
//! and inspectable via [`RetryPolicy::backoff_for`] without ever parking
//! the thread.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Backoff before the first retry; retry `r` waits `BASE_BACKOFF · 2^(r−1)`
/// before jitter.
pub const BASE_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling on any single backoff, before jitter.
pub const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// Seed of the deterministic jitter draw (see [`RetryPolicy::backoff_for`]).
const JITTER_SEED: u64 = 0;

/// How the session layer reacts to transient database failures.
///
/// The default ([`RetryPolicy::none`]) performs no retries at all —
/// exactly the pre-fault-tolerance behavior. [`RetryPolicy::new`] enables
/// bounded retry on one fixed schedule:
///
/// ```
/// use hdc_core::retry::{BASE_BACKOFF, MAX_BACKOFF};
/// use hdc_core::RetryPolicy;
///
/// let policy = RetryPolicy::new(5);
/// assert_eq!(policy.max_attempts(), 5);
/// // The schedule is deterministic: retry r sleeps BASE_BACKOFF·2^(r−1),
/// // capped at MAX_BACKOFF, scaled by a jitter factor in [0.5, 1.0).
/// assert_eq!(policy.backoff_for(1, 0), policy.backoff_for(1, 0));
/// assert!(policy.backoff_for(1, 0) >= BASE_BACKOFF / 2);
/// assert!(policy.backoff_for(10, 0) < MAX_BACKOFF);
/// ```
#[derive(Clone)]
pub struct RetryPolicy {
    max_attempts: u32,
    sleeper: Option<Arc<dyn Fn(Duration) + Send + Sync>>,
}

impl RetryPolicy {
    /// No retries: the first failure of any kind aborts the crawl. This
    /// is the default everywhere and preserves the exact behavior of
    /// sessions that predate fault tolerance.
    pub fn none() -> Self {
        RetryPolicy::new(1)
    }

    /// Retries transient failures until the query has been attempted
    /// `max_attempts` times in total (so `max_attempts − 1` retries).
    ///
    /// Panics if `max_attempts` is 0 — a query must be attempted at least
    /// once.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "max_attempts must be ≥ 1");
        RetryPolicy {
            max_attempts,
            sleeper: None,
        }
    }

    /// Replaces the sleeper invoked between attempts. The default parks
    /// the thread ([`std::thread::sleep`]); tests inject a recorder or a
    /// no-op so retry suites run instantly.
    pub fn sleeper(mut self, f: impl Fn(Duration) + Send + Sync + 'static) -> Self {
        self.sleeper = Some(Arc::new(f));
        self
    }

    /// A policy that computes backoffs but never sleeps — the right
    /// configuration for tests and benches over the in-process simulator,
    /// where a "retry" is a function call, not a network round trip.
    pub fn no_sleep(self) -> Self {
        self.sleeper(|_| {})
    }

    /// Total attempts allowed per query (1 = no retries).
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The deterministic backoff for retry number `retry` (1-based) at
    /// jitter salt `salt`: `BASE_BACKOFF · 2^(retry−1)`, capped at
    /// [`MAX_BACKOFF`], times a jitter factor in `[0.5, 1.0)` — full
    /// jitter halved, so waits never collapse to zero. The session layer
    /// salts with its charged-query count so concurrent identities still
    /// spread out.
    pub fn backoff_for(&self, retry: u32, salt: u64) -> Duration {
        let exp = retry.saturating_sub(1).min(32);
        let raw = BASE_BACKOFF
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(MAX_BACKOFF);
        // Deterministic jitter factor in [0.5, 1.0): splitmix64 over
        // (seed, salt, retry), top 53 bits as a uniform draw.
        let mut z = JITTER_SEED
            .wrapping_add(salt.wrapping_mul(0x9e3779b97f4a7c15))
            .wrapping_add(u64::from(retry).wrapping_mul(0xbf58476d1ce4e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        raw.mul_f64(0.5 + unit / 2.0)
    }

    /// Sleeps out the backoff for retry number `retry` (1-based) via the
    /// configured sleeper.
    pub(crate) fn pause(&self, retry: u32, salt: u64) {
        let wait = self.backoff_for(retry, salt);
        match &self.sleeper {
            Some(f) => f(wait),
            None => std::thread::sleep(wait),
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

// `Debug` can't derive past the boxed sleeper.
impl fmt::Debug for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryPolicy")
            .field("max_attempts", &self.max_attempts)
            .field("custom_sleeper", &self.sleeper.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn defaults_to_no_retries() {
        assert_eq!(RetryPolicy::default().max_attempts(), 1);
        assert_eq!(RetryPolicy::none().max_attempts(), 1);
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::new(0);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(BASE_BACKOFF, Duration::from_millis(100));
        assert_eq!(MAX_BACKOFF, Duration::from_secs(5));
        let p = RetryPolicy::new(10);
        // Jitter is in [0.5, 1.0), so bounds are raw/2 ≤ b < raw.
        for retry in 1..=40u32 {
            let raw = Duration::from_millis(100)
                .saturating_mul(1 << (retry - 1).min(20))
                .min(Duration::from_secs(5));
            let b = p.backoff_for(retry, 0);
            assert!(
                b >= raw / 2 && b < raw,
                "retry {retry}: {b:?} vs raw {raw:?}"
            );
        }
        // From retry 7 on (100 ms · 2^6 = 6.4 s) the cap binds.
        assert!(p.backoff_for(7, 0) >= Duration::from_millis(2500), "capped");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_salt() {
        assert_eq!(JITTER_SEED, 0);
        // The jitter draw depends on (retry, salt) only, never on the
        // attempt bound or the instance.
        let p = RetryPolicy::new(5);
        let q = RetryPolicy::new(9).no_sleep();
        assert_eq!(p.backoff_for(2, 3), q.backoff_for(2, 3));
        assert_ne!(p.backoff_for(2, 3), p.backoff_for(2, 4));
        // Pinned draws at seed 0: a change to the schedule shows up here.
        assert_eq!(p.backoff_for(1, 0), Duration::from_nanos(97_459_905));
        assert_eq!(p.backoff_for(2, 3), Duration::from_nanos(168_890_425));
        assert_eq!(p.backoff_for(8, 17), Duration::from_nanos(2_728_950_744));
    }

    #[test]
    fn injected_sleeper_observes_the_schedule() {
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&slept);
        let p = RetryPolicy::new(4).sleeper(move |d| log.lock().unwrap().push(d));
        p.pause(1, 0);
        p.pause(2, 0);
        let got = slept.lock().unwrap().clone();
        assert_eq!(got, vec![p.backoff_for(1, 0), p.backoff_for(2, 0)]);
    }

    #[test]
    fn debug_elides_the_sleeper() {
        let p = RetryPolicy::new(3).no_sleep();
        let s = format!("{p:?}");
        assert!(s.contains("max_attempts: 3"));
        assert!(s.contains("custom_sleeper: true"));
    }
}
