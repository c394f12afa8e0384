//! The `Crawler` trait.

use hdc_types::{HiddenDatabase, Schema};

use crate::report::{CrawlError, CrawlReport};
use crate::session::SessionConfig;

/// A hidden-database crawling algorithm.
///
/// Implementations are stateless configuration objects; all run state
/// lives in the crawl session, so one crawler value can drive many crawls
/// (the benchmark harness reuses them across sweeps).
///
/// The one required entry point is [`Crawler::crawl_with`], which takes
/// a [`SessionConfig`] — retry policy, cancellation, and the
/// [`crate::CrawlObserver`] — and threads it into the crawl session (all
/// in-workspace crawlers do so via [`crate::session::run_crawl`]).
/// [`Crawler::crawl`] is the plain-config shorthand.
pub trait Crawler {
    /// Stable algorithm name used in reports and experiment tables.
    fn name(&self) -> &'static str;

    /// Whether this algorithm can crawl databases with the given schema
    /// (e.g. [`crate::RankShrink`] requires all-numeric attributes).
    fn supports(&self, schema: &Schema) -> bool;

    /// Extracts the complete tuple bag through the top-`k` interface,
    /// under `config` (see [`crate::CrawlObserver`] for the event and
    /// early-stop semantics).
    ///
    /// On success the report holds exactly the database's bag. On failure
    /// the error carries a partial report with everything extracted before
    /// the failure (including an observer-requested stop,
    /// [`CrawlError::Stopped`]).
    fn crawl_with(
        &self,
        db: &mut dyn HiddenDatabase,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError>;

    /// [`Crawler::crawl_with`] under the default config.
    fn crawl(&self, db: &mut dyn HiddenDatabase) -> Result<CrawlReport, CrawlError> {
        self.crawl_with(db, SessionConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CrawlReport;

    struct Nop;

    impl Crawler for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }

        fn supports(&self, _schema: &Schema) -> bool {
            true
        }

        fn crawl_with(
            &self,
            _db: &mut dyn HiddenDatabase,
            _config: SessionConfig<'_>,
        ) -> Result<CrawlReport, CrawlError> {
            Ok(CrawlReport::empty(self.name()))
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let crawlers: Vec<Box<dyn Crawler>> = vec![Box::new(Nop)];
        assert_eq!(crawlers[0].name(), "nop");
    }
}
