//! The **DFS** baseline (§3.1) — depth-first traversal of the data-space
//! tree.
//!
//! Each node of the tree fixes a prefix of the categorical attributes to
//! concrete values and leaves the rest wildcarded. DFS issues every
//! visited node's query; a resolved query prunes its whole subtree. This
//! is the crawling baseline of Jin et al. (SIGMOD'11, reference \[15\] of
//! the paper) and the comparison point of Figure 11.

use hdc_types::{AttrKind, HiddenDatabase, Predicate, Query, Schema};

use crate::crawler::Crawler;
use crate::dependency::ValidityOracle;
use crate::report::{CrawlError, CrawlReport};
use crate::session::{run_crawl, Abort, Session, SessionConfig, MAX_BATCH};

/// The DFS baseline crawler for purely categorical schemas.
#[derive(Default)]
pub struct Dfs<'o> {
    oracle: Option<&'o dyn ValidityOracle>,
}

impl<'o> Dfs<'o> {
    /// A DFS crawler.
    pub fn new() -> Self {
        Dfs { oracle: None }
    }

    /// Attaches a §1.3 validity oracle (provably-empty subtrees are pruned
    /// for free).
    pub fn with_oracle(oracle: &'o dyn ValidityOracle) -> Self {
        Dfs {
            oracle: Some(oracle),
        }
    }

    fn run(&self, session: &mut Session<'_>, schema: &Schema) -> Result<(), Abort> {
        let d = schema.arity();
        let domain = |level: usize| match schema.kind(level) {
            AttrKind::Categorical { size } => size,
            AttrKind::Numeric { .. } => unreachable!("DFS requires a categorical schema"),
        };
        // The stack holds only nodes already observed to overflow; when a
        // node expands, its children are issued in sibling batches (the
        // server shares planning and per-predicate work across a batch),
        // windowed to [`MAX_BATCH`] so a mid-crawl failure forfeits at
        // most one window. Resolved children are reported at expansion;
        // the visited tree — and with it the query cost — is exactly the
        // sequential DFS's.
        let root = Query::any(d);
        let out = session.run(&root)?;
        if out.is_resolved() {
            session.report(out.tuples);
            return Ok(());
        }
        let mut stack: Vec<(Query, usize)> = vec![(root, 0)];
        while let Some((q, level)) = stack.pop() {
            debug_assert!(level < d, "only expandable nodes are stacked");
            let children: Vec<Query> = (0..domain(level))
                .map(|c| q.with_pred(level, Predicate::Eq(c)))
                .collect();
            let mut to_expand: Vec<(Query, usize)> = Vec::new();
            for window in children.chunks(MAX_BATCH) {
                let outs = session.run_batch(window)?;
                for (cq, co) in window.iter().zip(outs) {
                    if co.is_resolved() {
                        session.report(co.tuples);
                    } else if level + 1 == d {
                        // A fully fixed point overflowed: >k duplicates.
                        return Err(Abort::Unsolvable(cq.clone()));
                    } else {
                        to_expand.push((cq.clone(), level + 1));
                    }
                }
            }
            // Push in reverse so value 0's subtree is explored first.
            for task in to_expand.into_iter().rev() {
                stack.push(task);
            }
        }
        Ok(())
    }
}

impl Crawler for Dfs<'_> {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn supports(&self, schema: &Schema) -> bool {
        schema.is_categorical()
    }

    fn crawl_with(
        &self,
        db: &mut dyn HiddenDatabase,
        config: SessionConfig<'_>,
    ) -> Result<CrawlReport, CrawlError> {
        let schema = db.schema().clone();
        assert!(self.supports(&schema), "DFS requires a categorical schema");
        run_crawl(self.name(), db, self.oracle, config, |session| {
            self.run(session, &schema)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::verify_complete;
    use hdc_server::{HiddenDbServer, ServerConfig};
    use hdc_types::tuple::cat_tuple;
    use hdc_types::Tuple;

    /// The Figure 5 dataset: 2-d categorical space, 4×4 domains, k = 3.
    fn figure5_tuples() -> Vec<Tuple> {
        vec![
            cat_tuple(&[0, 0]), // t1 = (1,1)
            cat_tuple(&[0, 1]), // t2 = (1,2)
            cat_tuple(&[0, 2]), // t3 = (1,3)
            cat_tuple(&[0, 3]), // t4 = (1,4)
            cat_tuple(&[1, 3]), // t5 = (2,4)
            cat_tuple(&[2, 0]), // t6 = (3,1)
            cat_tuple(&[2, 1]), // t7 = (3,2)
            cat_tuple(&[2, 2]), // t8 = (3,3)
            cat_tuple(&[2, 2]), // t9 = (3,3) duplicate
            cat_tuple(&[3, 1]), // t10 = (4,2)
        ]
    }

    fn figure5_schema() -> Schema {
        Schema::builder()
            .categorical("A1", 4)
            .categorical("A2", 4)
            .build()
            .unwrap()
    }

    /// §3.1: "It can be verified that DFS eventually visits all of
    /// u1, ..., u13" — 13 queries on the Figure 5 input with k = 3.
    #[test]
    fn figure5_visits_13_nodes() {
        let tuples = figure5_tuples();
        let mut db = HiddenDbServer::new(
            figure5_schema(),
            tuples.clone(),
            ServerConfig { k: 3, seed: 0 },
        )
        .unwrap();
        let report = Dfs::new().crawl(&mut db).unwrap();
        verify_complete(&tuples, &report).unwrap();
        assert_eq!(report.queries, 13, "u1..u13 of Figure 5b");
        // Overflowing nodes: u1 (root), u2 (A1=1), u4 (A1=3).
        assert_eq!(report.overflowed, 3);
        assert_eq!(report.resolved, 10);
    }

    #[test]
    fn resolves_whole_database_in_one_query_when_small() {
        let tuples = vec![cat_tuple(&[0, 0]), cat_tuple(&[1, 1])];
        let mut db = HiddenDbServer::new(
            figure5_schema(),
            tuples.clone(),
            ServerConfig { k: 3, seed: 0 },
        )
        .unwrap();
        let report = Dfs::new().crawl(&mut db).unwrap();
        verify_complete(&tuples, &report).unwrap();
        assert_eq!(report.queries, 1);
    }

    #[test]
    fn detects_unsolvable_points() {
        let tuples: Vec<Tuple> = std::iter::repeat_n(cat_tuple(&[1, 1]), 5).collect();
        let mut db =
            HiddenDbServer::new(figure5_schema(), tuples, ServerConfig { k: 3, seed: 0 }).unwrap();
        let err = Dfs::new().crawl(&mut db).unwrap_err();
        assert!(matches!(err, CrawlError::Unsolvable { .. }));
    }

    #[test]
    fn three_level_tree() {
        let schema = Schema::builder()
            .categorical("a", 3)
            .categorical("b", 3)
            .categorical("c", 3)
            .build()
            .unwrap();
        let tuples: Vec<Tuple> = (0..3u32)
            .flat_map(|a| {
                (0..3u32).flat_map(move |b| (0..3u32).map(move |c| cat_tuple(&[a, b, c])))
            })
            .collect();
        let mut db =
            HiddenDbServer::new(schema, tuples.clone(), ServerConfig { k: 2, seed: 1 }).unwrap();
        let report = Dfs::new().crawl(&mut db).unwrap();
        verify_complete(&tuples, &report).unwrap();
    }

    #[test]
    fn oracle_prunes_empty_subtrees() {
        let tuples = figure5_tuples();
        let oracle = crate::DatasetOracle::new(tuples.clone());
        let baseline = {
            let mut db = HiddenDbServer::new(
                figure5_schema(),
                tuples.clone(),
                ServerConfig { k: 3, seed: 0 },
            )
            .unwrap();
            Dfs::new().crawl(&mut db).unwrap()
        };
        let pruned = {
            let mut db = HiddenDbServer::new(
                figure5_schema(),
                tuples.clone(),
                ServerConfig { k: 3, seed: 0 },
            )
            .unwrap();
            Dfs::with_oracle(&oracle).crawl(&mut db).unwrap()
        };
        verify_complete(&tuples, &pruned).unwrap();
        // (1,1)..(1,4) region has empty points (e.g. (3,4)): pruning saves.
        assert!(pruned.queries < baseline.queries);
    }

    #[test]
    fn supports_only_categorical() {
        let d = Dfs::new();
        assert!(d.supports(&figure5_schema()));
        assert!(!d.supports(&Schema::builder().numeric("x", 0, 9).build().unwrap()));
    }
}
