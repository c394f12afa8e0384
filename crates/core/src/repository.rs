//! Checkpoint/resume for crawls: durable progress at shard boundaries.
//!
//! A long crawl dies for boring reasons — the process is killed, the
//! machine reboots, a per-identity quota runs dry mid-plan. Because a
//! sharded plan is a list of *independent* shards whose query sequences
//! depend only on the shard spec and the database (the scheduler's
//! determinism contract, see [`crate::sharded`]), everything a finished
//! shard produced stays valid across a crash: re-running the remaining
//! shards and concatenating in plan order reconstructs exactly the
//! report an uninterrupted crawl would have produced.
//!
//! [`CrawlRepository`] is the persistence seam: after every completed
//! shard the crawl stores a [`CrawlCheckpoint`] — the plan's shard
//! signatures plus one [`ShardSnapshot`] per finished shard — and on
//! startup it loads the checkpoint and skips every shard already
//! snapshotted. Two implementations ship: [`MemoryRepository`] (tests,
//! and processes that resume within their own lifetime) and
//! [`JsonFileRepository`] (a JSON file written atomically via a
//! temp-file rename, so a crash mid-store never corrupts the previous
//! checkpoint).
//!
//! The checkpoint embeds the plan's [`ShardSpec`
//! signatures](crate::ShardSpec::signature): resuming against a
//! different schema, session count, or oversubscription factor is a
//! plan mismatch (the shards would not partition the same space) and
//! surfaces as a typed [`RepositoryError::PlanMismatch`] — see
//! [`CrawlCheckpoint::verify_plan`] — rather than silently merging
//! mismatched bags. Drivers turn it into a clean [`crate::CrawlError`]
//! so a worker joining a fleet with a stale plan retires gracefully
//! instead of aborting the process.
//!
//! Since the distributed-coordination work a snapshot may also be
//! **partial**: [`ShardSnapshot::frontier`] carries a crawler-specific
//! resume cursor (the number of completed roots of the shard — see
//! [`crate::ShardSpec::resume_suffix`]). Partial snapshots exist so a
//! crash mid-heavy-shard replays only the un-checkpointed suffix; the
//! single-process drivers ignore them on restore (they re-crawl the
//! whole shard, which is always correct) while the `hdc-coord` lease
//! coordinator hands them to the salvaging peer.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use hdc_json::{self as json, Json};
use hdc_types::{push_row, RowCursor, Tuple, Value};

use crate::report::CrawlMetrics;

/// Everything one finished shard contributed to the crawl: its position
/// in the plan, its full query accounting, and its extracted tuples.
///
/// A snapshot is sufficient to replay the shard's merge contribution
/// without touching the database — the determinism contract guarantees
/// re-crawling the shard would reproduce exactly these values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's position in the plan (0-based).
    pub index: usize,
    /// Queries the shard's crawl charged.
    pub queries: u64,
    /// Resolved query outcomes.
    pub resolved: u64,
    /// Overflowed query outcomes.
    pub overflowed: u64,
    /// Oracle-pruned queries (answered locally, never charged).
    pub pruned: u64,
    /// In-progress resume cursor: `None` for a *complete* shard,
    /// `Some(c)` for a partial snapshot covering the shard's first `c`
    /// roots (the boundary exposed by [`crate::ShardSpec::resume_suffix`];
    /// a one-root shard's only boundary is its end). The accounting and
    /// tuples of a partial snapshot describe exactly that prefix; a
    /// salvaging peer crawls the suffix and merges. Absent from
    /// checkpoints written before this field existed, which parse as
    /// complete.
    pub frontier: Option<u64>,
    /// Per-mechanism counters.
    pub metrics: CrawlMetrics,
    /// The tuples the shard extracted, in extraction order.
    pub tuples: Vec<Tuple>,
}

impl ShardSnapshot {
    /// Whether this snapshot describes a finished shard (no in-progress
    /// frontier).
    pub fn is_complete(&self) -> bool {
        self.frontier.is_none()
    }
}

/// A typed checkpoint-compatibility failure: the durable state cannot be
/// merged into the crawl being resumed. Distinct from I/O or parse
/// errors — the file is intact; it just describes a *different* crawl.
#[derive(Debug)]
pub enum RepositoryError {
    /// The checkpoint was taken for a different plan (schema, session
    /// count, or oversubscription changed): resuming would merge shards
    /// that do not partition the same data space.
    PlanMismatch {
        /// The plan the resuming crawl computed.
        expected: Vec<String>,
        /// The plan embedded in the checkpoint.
        found: Vec<String>,
    },
    /// A snapshot's plan index exceeds the plan it claims to belong to —
    /// an internally inconsistent checkpoint.
    SnapshotOutOfPlan {
        /// The offending snapshot's plan index.
        index: usize,
        /// The plan's shard count.
        plan_len: usize,
    },
}

impl std::fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepositoryError::PlanMismatch { expected, found } => write!(
                f,
                "checkpoint plan mismatch: the checkpoint was taken for a \
                 different plan (schema, sessions, or oversubscription \
                 changed) — expected {} shard(s), found {}; resuming would \
                 merge mismatched shards",
                expected.len(),
                found.len()
            ),
            RepositoryError::SnapshotOutOfPlan { index, plan_len } => write!(
                f,
                "checkpoint snapshot index {index} out of plan ({plan_len} shard(s))"
            ),
        }
    }
}

impl std::error::Error for RepositoryError {}

/// A resumable crawl's durable state: the plan it was cut into and the
/// shards finished so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrawlCheckpoint {
    /// One [`crate::ShardSpec::signature`] per shard, in plan order.
    /// Resume verifies this against the freshly computed plan.
    pub plan: Vec<String>,
    /// Finished shards, in completion order (not plan order).
    pub shards: Vec<ShardSnapshot>,
}

impl CrawlCheckpoint {
    /// An empty checkpoint for a plan.
    pub fn new(plan: Vec<String>) -> Self {
        CrawlCheckpoint {
            plan,
            shards: Vec::new(),
        }
    }

    /// Whether the shard at `index` has a snapshot.
    pub fn has_shard(&self, index: usize) -> bool {
        self.shards.iter().any(|s| s.index == index)
    }

    /// Verifies this checkpoint can be merged into a crawl whose plan is
    /// `plan`: the embedded signatures must match exactly and every
    /// snapshot index must lie inside the plan. The typed error lets
    /// drivers retire cleanly (print the hint, keep the fleet alive)
    /// instead of panicking on a stale checkpoint.
    pub fn verify_plan(&self, plan: &[String]) -> Result<(), RepositoryError> {
        if self.plan != plan {
            return Err(RepositoryError::PlanMismatch {
                expected: plan.to_vec(),
                found: self.plan.clone(),
            });
        }
        for s in &self.shards {
            if s.index >= plan.len() {
                return Err(RepositoryError::SnapshotOutOfPlan {
                    index: s.index,
                    plan_len: plan.len(),
                });
            }
        }
        Ok(())
    }

    /// Serializes to the `hdc-crawl-checkpoint` JSON format (version 1).
    pub fn to_json(&self) -> String {
        CrawlCheckpoint::json_for(&self.plan, &self.shards)
    }

    /// [`CrawlCheckpoint::to_json`] of the checkpoint `plan` + `shards`,
    /// written from borrowed parts: a lease verb sends one snapshot under
    /// its plan with `json_for(plan, std::slice::from_ref(snapshot))`
    /// and clones neither.
    pub fn json_for(plan: &[String], shards: &[ShardSnapshot]) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        for (i, sig) in plan.iter().enumerate() {
            debug_assert!(
                !sig.contains(['"', '\\']),
                "shard signatures never need escaping"
            );
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{sig}\"");
        }
        out.push_str("],\n \"shards\": [");
        for (i, s) in shards.iter().enumerate() {
            out.push_str(if i > 0 { ",\n  " } else { "\n  " });
            let _ = write!(
                out,
                "{{\"index\": {}, \"queries\": {}, \"resolved\": {}, \
                 \"overflowed\": {}, \"pruned\": {}, ",
                s.index, s.queries, s.resolved, s.overflowed, s.pruned,
            );
            if let Some(frontier) = s.frontier {
                // Emitted only for partial snapshots, so complete
                // checkpoints stay byte-compatible with old readers.
                let _ = write!(out, "\"frontier\": {frontier}, ");
            }
            out.push_str("\"metrics\": ");
            push_metrics(&mut out, &s.metrics);
            out.push_str(", \"tuples\": [");
            for (j, t) in s.tuples.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_row(&mut out, t);
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// Parses the `hdc-crawl-checkpoint` JSON format.
    ///
    /// Text in the exact layout [`CrawlCheckpoint::to_json`] writes is
    /// read in one pass ([`CrawlCheckpoint::from_layout`]); anything
    /// else — hand-edited, reformatted or older files — goes through the
    /// generic JSON tree ([`CrawlCheckpoint::from_tree`]), so every
    /// document parses exactly as the tree parser alone would parse it.
    pub fn from_json(text: &str) -> io::Result<Self> {
        match CrawlCheckpoint::from_layout(text) {
            Some(checkpoint) => Ok(checkpoint),
            None => CrawlCheckpoint::from_tree(text),
        }
    }

    /// The one-pass reader behind [`CrawlCheckpoint::from_json`]: walks
    /// the exact layout [`CrawlCheckpoint::to_json`] writes — header,
    /// plan, each shard's counters in order, the optional `frontier`,
    /// the ten metrics, then the tuples with the shared
    /// [`RowCursor`] — and answers `None` at the first byte that
    /// deviates. Whenever it answers `Some`, the value equals
    /// [`CrawlCheckpoint::from_tree`]'s (the `repository_fuzz`
    /// differential checks this).
    pub fn from_layout(text: &str) -> Option<Self> {
        let mut cur = RowCursor::new(text);
        if !cur.eat(HEADER.as_bytes()) {
            return None;
        }
        let mut plan = Vec::new();
        if !cur.eat(b"]") {
            loop {
                plan.push(cur.quoted()?.to_owned());
                if cur.eat(b", ") {
                    continue;
                }
                if cur.eat(b"]") {
                    break;
                }
                return None;
            }
        }
        if !cur.eat(b",\n \"shards\": [") {
            return None;
        }
        let mut shards = Vec::new();
        let mut vals = Vec::new();
        while cur.eat(if shards.is_empty() { b"\n  " } else { b",\n  " }) {
            shards.push(shard_from_layout(&mut cur, &mut vals)?);
        }
        let trailing_ws = |c: &u8| matches!(c, b' ' | b'\t' | b'\n' | b'\r');
        (cur.eat(b"]}") && cur.rest().iter().all(trailing_ws))
            .then_some(CrawlCheckpoint { plan, shards })
    }

    /// Parses the `hdc-crawl-checkpoint` JSON format through the generic
    /// JSON tree: any field order and whitespace, escapes in the plan,
    /// and files written before `frontier` existed.
    pub fn from_tree(text: &str) -> io::Result<Self> {
        let doc = json::parse(text).map_err(invalid)?;
        let obj = object(&doc, "top level")?;
        let format = get(obj, "format")?.as_str().ok_or_else(|| invalid("format"))?;
        if format != "hdc-crawl-checkpoint" {
            return Err(invalid(format!("unknown format {format:?}")));
        }
        let version = get(obj, "version")?.as_int().ok_or_else(|| invalid("version"))?;
        if version != 1 {
            return Err(invalid(format!("unsupported version {version}")));
        }
        let plan = get(obj, "plan")?
            .as_arr()
            .ok_or_else(|| invalid("plan must be an array"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| invalid("plan entries must be strings"))
            })
            .collect::<io::Result<Vec<String>>>()?;
        let mut shards = Vec::new();
        for sv in get(obj, "shards")?
            .as_arr()
            .ok_or_else(|| invalid("shards must be an array"))?
        {
            let s = object(sv, "shard")?;
            let tuples = get(s, "tuples")?
                .as_arr()
                .ok_or_else(|| invalid("tuples must be an array"))?
                .iter()
                .map(|tv| {
                    let vals = tv
                        .as_arr()
                        .ok_or_else(|| invalid("tuple must be an array"))?
                        .iter()
                        .map(|v| {
                            let token = v.as_str().ok_or_else(|| invalid("value token"))?;
                            Value::parse_token(token)
                                .ok_or_else(|| invalid(format!("bad value token {token:?}")))
                        })
                        .collect::<io::Result<Vec<Value>>>()?;
                    Ok(Tuple::new(vals))
                })
                .collect::<io::Result<Vec<Tuple>>>()?;
            shards.push(ShardSnapshot {
                index: int_field(s, "index")? as usize,
                queries: int_field(s, "queries")?,
                resolved: int_field(s, "resolved")?,
                overflowed: int_field(s, "overflowed")?,
                pruned: int_field(s, "pruned")?,
                // Absent in pre-frontier checkpoints: a complete shard.
                frontier: opt_int_field(s, "frontier")?,
                metrics: parse_metrics(get(s, "metrics")?)?,
                tuples,
            });
        }
        Ok(CrawlCheckpoint { plan, shards })
    }
}

/// Everything [`CrawlCheckpoint::to_json`] writes before the first plan
/// signature.
const HEADER: &str = "{\"format\": \"hdc-crawl-checkpoint\", \"version\": 1,\n \"plan\": [";

/// One shard object in [`CrawlCheckpoint::to_json`]'s layout, for
/// [`CrawlCheckpoint::from_layout`]. Struct fields evaluate in source
/// order, which is the order the writer emits them.
fn shard_from_layout(cur: &mut RowCursor, vals: &mut Vec<Value>) -> Option<ShardSnapshot> {
    let index = usize::try_from(field(cur, b"{\"index\": ")?).ok()?;
    let queries = field(cur, b", \"queries\": ")?;
    let resolved = field(cur, b", \"resolved\": ")?;
    let overflowed = field(cur, b", \"overflowed\": ")?;
    let pruned = field(cur, b", \"pruned\": ")?;
    let frontier = if cur.eat(b", \"frontier\": ") {
        Some(cur.uint()?)
    } else {
        None
    };
    let metrics = CrawlMetrics {
        two_way_splits: field(cur, b", \"metrics\": {\"two_way_splits\": ")?,
        three_way_splits: field(cur, b", \"three_way_splits\": ")?,
        slice_fetches: field(cur, b", \"slice_fetches\": ")?,
        slice_overflows: field(cur, b", \"slice_overflows\": ")?,
        local_answers: field(cur, b", \"local_answers\": ")?,
        leaf_subcrawls: field(cur, b", \"leaf_subcrawls\": ")?,
        slice_cache_hits: field(cur, b", \"slice_cache_hits\": ")?,
        barrier_pivots: field(cur, b", \"barrier_pivots\": ")?,
        barrier_deep_tuples: field(cur, b", \"barrier_deep_tuples\": ")?,
        transient_retries: field(cur, b", \"transient_retries\": ")?,
    };
    if !cur.eat(b"}, \"tuples\": ") {
        return None;
    }
    let mut tuples = Vec::new();
    cur.rows(b", ", vals, &mut tuples)?;
    cur.eat(b"}").then_some(ShardSnapshot {
        index,
        queries,
        resolved,
        overflowed,
        pruned,
        frontier,
        metrics,
        tuples,
    })
}

/// `key` followed by a non-negative integer.
fn field(cur: &mut RowCursor, key: &[u8]) -> Option<u64> {
    if cur.eat(key) {
        cur.uint()
    } else {
        None
    }
}

fn push_metrics(out: &mut String, m: &CrawlMetrics) {
    // Destructure so a new counter is a compile error here, not a field
    // silently dropped from every checkpoint.
    let CrawlMetrics {
        two_way_splits,
        three_way_splits,
        slice_fetches,
        slice_overflows,
        local_answers,
        leaf_subcrawls,
        slice_cache_hits,
        barrier_pivots,
        barrier_deep_tuples,
        transient_retries,
    } = m;
    let _ = write!(
        out,
        "{{\"two_way_splits\": {two_way_splits}, \"three_way_splits\": {three_way_splits}, \
         \"slice_fetches\": {slice_fetches}, \"slice_overflows\": {slice_overflows}, \
         \"local_answers\": {local_answers}, \"leaf_subcrawls\": {leaf_subcrawls}, \
         \"slice_cache_hits\": {slice_cache_hits}, \"barrier_pivots\": {barrier_pivots}, \
         \"barrier_deep_tuples\": {barrier_deep_tuples}, \"transient_retries\": {transient_retries}}}"
    );
}

fn parse_metrics(v: &Json) -> io::Result<CrawlMetrics> {
    let obj = object(v, "metrics")?;
    Ok(CrawlMetrics {
        two_way_splits: int_field(obj, "two_way_splits")?,
        three_way_splits: int_field(obj, "three_way_splits")?,
        slice_fetches: int_field(obj, "slice_fetches")?,
        slice_overflows: int_field(obj, "slice_overflows")?,
        local_answers: int_field(obj, "local_answers")?,
        leaf_subcrawls: int_field(obj, "leaf_subcrawls")?,
        slice_cache_hits: int_field(obj, "slice_cache_hits")?,
        barrier_pivots: int_field(obj, "barrier_pivots")?,
        barrier_deep_tuples: int_field(obj, "barrier_deep_tuples")?,
        transient_retries: int_field(obj, "transient_retries")?,
    })
}

fn invalid(msg: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// `v` itself when it is an object; an error naming `what` otherwise.
fn object<'a>(v: &'a Json, what: &str) -> io::Result<&'a Json> {
    match v {
        Json::Obj(_) => Ok(v),
        _ => Err(invalid(format!("{what} must be an object"))),
    }
}

fn get<'a>(obj: &'a Json, key: &str) -> io::Result<&'a Json> {
    obj.get(key)
        .ok_or_else(|| invalid(format!("missing field {key:?}")))
}

fn int_field(obj: &Json, key: &str) -> io::Result<u64> {
    get(obj, key)?
        .as_int()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| invalid(format!("field {key:?} must be a non-negative integer")))
}

/// Like [`int_field`] but tolerates a missing key (`None`); a *present*
/// key must still be a well-formed non-negative integer.
fn opt_int_field(obj: &Json, key: &str) -> io::Result<Option<u64>> {
    if obj.get(key).is_some() {
        int_field(obj, key).map(Some)
    } else {
        Ok(None)
    }
}

/// Where a resumable crawl keeps its checkpoint.
///
/// `Send` because the sharded crawl stores checkpoints from worker
/// threads (serialized through a mutex — implementations never see
/// concurrent calls). Mid-crawl store failures do not kill the crawl
/// (the crawl itself is fine; only resumability degrades) but are
/// surfaced at the end as a [`crate::CrawlError::Db`] so they cannot
/// pass silently.
pub trait CrawlRepository: Send {
    /// Loads the previously stored checkpoint, or `None` when no
    /// checkpoint exists (a fresh crawl).
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>>;

    /// Durably replaces the checkpoint. Called once per completed shard,
    /// with the complete accumulated state each time — a store is a full
    /// overwrite, never an append.
    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()>;
}

/// An in-process [`CrawlRepository`]: survives between crawls in one
/// process (tests, and drivers that retry a budget-limited crawl in a
/// loop), not across a real crash.
#[derive(Clone, Debug, Default)]
pub struct MemoryRepository {
    saved: Option<CrawlCheckpoint>,
}

impl MemoryRepository {
    /// An empty repository.
    pub fn new() -> Self {
        MemoryRepository::default()
    }

    /// The stored checkpoint, if any — handy for assertions.
    pub fn saved(&self) -> Option<&CrawlCheckpoint> {
        self.saved.as_ref()
    }
}

impl CrawlRepository for MemoryRepository {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        Ok(self.saved.clone())
    }

    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        self.saved = Some(checkpoint.clone());
        Ok(())
    }
}

/// A [`CrawlRepository`] backed by one JSON file, written **atomically
/// and durably**: the checkpoint is serialized to `<path>.tmp`, fsynced,
/// renamed over the target, and the parent directory is fsynced so the
/// rename itself survives power loss — not just a process crash. A
/// failure at any point leaves the previous checkpoint intact: the file
/// is always either absent or a complete, parseable checkpoint.
#[derive(Clone, Debug)]
pub struct JsonFileRepository {
    path: PathBuf,
}

impl JsonFileRepository {
    /// A repository at `path`. The file need not exist yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonFileRepository { path: path.into() }
    }

    /// The checkpoint file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CrawlRepository for JsonFileRepository {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        CrawlCheckpoint::from_json(&text).map(Some)
    }

    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        use std::io::Write as _;
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(checkpoint.to_json().as_bytes())?;
        // The tmp file's *contents* must be on disk before the rename
        // publishes it, or a power cut could promote an empty file.
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, &self.path)?;
        // And the rename itself must be durable: fsync the directory
        // entry, or power loss after "successful" store could resurrect
        // the previous checkpoint (silent progress rollback).
        #[cfg(unix)]
        {
            let parent = match self.path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::tuple::{cat_tuple, int_tuple};

    fn sample() -> CrawlCheckpoint {
        CrawlCheckpoint {
            plan: vec!["cat:0=[0,2]".into(), "cat:0=[1]".into()],
            shards: vec![ShardSnapshot {
                index: 1,
                queries: 42,
                resolved: 30,
                overflowed: 12,
                pruned: 3,
                frontier: None,
                metrics: CrawlMetrics {
                    two_way_splits: 1,
                    three_way_splits: 2,
                    slice_fetches: 3,
                    slice_overflows: 4,
                    local_answers: 5,
                    leaf_subcrawls: 6,
                    slice_cache_hits: 7,
                    barrier_pivots: 8,
                    barrier_deep_tuples: 9,
                    transient_retries: 10,
                },
                tuples: vec![
                    cat_tuple(&[1, 2]),
                    int_tuple(&[-7, 9_999_999_999]),
                    cat_tuple(&[1, 2]), // duplicates are part of the bag
                ],
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let checkpoint = sample();
        let parsed = CrawlCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed, checkpoint);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let checkpoint = CrawlCheckpoint::new(vec!["num:0=[0,9]".into()]);
        let parsed = CrawlCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed, checkpoint);
        assert!(!checkpoint.has_shard(0));
    }

    #[test]
    fn partial_snapshot_frontier_roundtrips() {
        let mut checkpoint = sample();
        checkpoint.shards[0].frontier = Some(3);
        assert!(!checkpoint.shards[0].is_complete());
        let text = checkpoint.to_json();
        assert!(text.contains("\"frontier\": 3"));
        let parsed = CrawlCheckpoint::from_json(&text).unwrap();
        assert_eq!(parsed, checkpoint);
        // Complete snapshots omit the key entirely, so old readers (and
        // old files) interoperate.
        let complete = sample();
        assert!(!complete.to_json().contains("frontier"));
        assert!(complete.shards[0].is_complete());
    }

    #[test]
    fn verify_plan_catches_mismatch_and_bad_indices() {
        let checkpoint = sample();
        let plan = checkpoint.plan.clone();
        assert!(checkpoint.verify_plan(&plan).is_ok());
        let err = checkpoint.verify_plan(&["num:0=[0,9]".to_owned()]).unwrap_err();
        assert!(matches!(err, RepositoryError::PlanMismatch { .. }));
        assert!(err.to_string().contains("plan mismatch"));
        let short = &plan[..1];
        let err = checkpoint.verify_plan(short).unwrap_err();
        // shards[0].index == 1, plan of 1 shard: both mismatch and
        // out-of-plan apply; the plan check fires first.
        assert!(matches!(err, RepositoryError::PlanMismatch { .. }));
        let mut inconsistent = sample();
        inconsistent.plan.truncate(1);
        inconsistent.plan[0] = "cat:0=[0,2]".to_owned();
        let err = inconsistent
            .verify_plan(&["cat:0=[0,2]".to_owned()])
            .unwrap_err();
        assert!(matches!(
            err,
            RepositoryError::SnapshotOutOfPlan { index: 1, plan_len: 1 }
        ));
    }

    #[test]
    fn garbage_and_wrong_formats_are_rejected() {
        assert!(CrawlCheckpoint::from_json("not json").is_err());
        assert!(CrawlCheckpoint::from_json("{}").is_err());
        assert!(CrawlCheckpoint::from_json(
            "{\"format\": \"something-else\", \"version\": 1, \"plan\": [], \"shards\": []}"
        )
        .is_err());
        assert!(CrawlCheckpoint::from_json(
            "{\"format\": \"hdc-crawl-checkpoint\", \"version\": 9, \"plan\": [], \"shards\": []}"
        )
        .is_err());
    }

    #[test]
    fn memory_repository_roundtrips() {
        let mut repo = MemoryRepository::new();
        assert!(repo.load().unwrap().is_none());
        let checkpoint = sample();
        repo.store(&checkpoint).unwrap();
        assert_eq!(repo.load().unwrap().unwrap(), checkpoint);
        assert!(repo.saved().unwrap().has_shard(1));
    }

    #[test]
    fn file_repository_roundtrips_and_overwrites_atomically() {
        let path = std::env::temp_dir().join(format!(
            "hdc-checkpoint-test-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut repo = JsonFileRepository::new(&path);
        assert!(repo.load().unwrap().is_none(), "missing file is a fresh crawl");

        let mut checkpoint = sample();
        repo.store(&checkpoint).unwrap();
        assert_eq!(repo.load().unwrap().unwrap(), checkpoint);

        // A second store replaces the first completely.
        checkpoint.shards[0].queries = 99;
        repo.store(&checkpoint).unwrap();
        assert_eq!(repo.load().unwrap().unwrap().shards[0].queries, 99);
        // No temp file is left behind.
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_is_an_error_not_a_fresh_crawl() {
        let path = std::env::temp_dir().join(format!(
            "hdc-checkpoint-corrupt-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, "{\"truncated").unwrap();
        let mut repo = JsonFileRepository::new(&path);
        assert!(repo.load().is_err(), "corruption must be loud");
        let _ = std::fs::remove_file(&path);
    }
}
