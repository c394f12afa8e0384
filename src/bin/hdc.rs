//! `hdc` — command-line driver for the hidden-database crawler.
//!
//! Everything the library does, runnable from a shell:
//!
//! ```text
//! hdc datasets                               # the Figure 9 table
//! hdc crawl   --dataset yahoo --algo hybrid --k 256
//! hdc crawl   --dataset nsf --algo lazy-slice-cover --k 128 --scale 40
//! hdc crawl   --dataset yahoo --algo hybrid --k 256 --sessions 4
//! hdc sweep   --dataset adult-numeric --algos rank-shrink,binary-shrink \
//!             --ks 64,128,256,512,1024
//! hdc hard    numeric --k 16 --d 4 --m 100
//! hdc hard    categorical --k 6 --u 6
//! ```
//!
//! Argument parsing is hand-rolled: the workspace has no external
//! dependencies, only the offline `crates/compat` stand-ins.

use std::fmt::Display;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use hidden_db_crawler::core::{theory, ShardSpec};
use hidden_db_crawler::data::{adult, hard, nsf, ops, yahoo, Dataset};
use hidden_db_crawler::net::Client;
use hidden_db_crawler::obs;
use hidden_db_crawler::prelude::*;

/// Live crawl feedback on stderr: a progress line repainted in place
/// (every [`PROGRESS_STRIDE`] queries), an optional tuple-coverage
/// target that stops the crawl early, and one line per merged shard of
/// a multi-session crawl. With `--live`, the plain progress line is
/// replaced by a throttled telemetry line fed from the metrics
/// registry (rates, charged cost, batch p99).
struct CliObserver {
    target: Option<u64>,
    last_paint: u64,
    dirty: bool,
    stopping: bool,
    live: Option<LiveStatus>,
}

/// State for the `--live` telemetry line: wall-clock anchors for rate
/// computation plus a repaint throttle.
struct LiveStatus {
    started: std::time::Instant,
    /// Previous repaint (instant + the point it showed), so rates are
    /// deltas over the last window, not lifetime averages. `None`
    /// until the first repaint, which fires immediately.
    last: Option<(std::time::Instant, ProgressPoint)>,
}

/// Queries between progress-line repaints (keeps stderr readable on
/// crawls issuing 10⁵+ queries).
const PROGRESS_STRIDE: u64 = 64;

/// Minimum wall time between `--live` repaints.
const LIVE_INTERVAL: Duration = Duration::from_millis(250);

impl CliObserver {
    fn new(target: Option<u64>) -> Self {
        CliObserver {
            target,
            last_paint: 0,
            dirty: false,
            stopping: false,
            live: None,
        }
    }

    /// Switches this observer to the `--live` telemetry line. Enables
    /// the process-wide metrics registry so the session layer starts
    /// recording the counters the line renders.
    fn live(mut self) -> Self {
        obs::set_enabled(true);
        self.live = Some(LiveStatus {
            started: std::time::Instant::now(),
            last: None,
        });
        self
    }

    fn paint(&mut self, point: ProgressPoint) {
        eprint!("\r  {:>8} queries  {:>8} tuples", point.queries, point.tuples);
        let _ = std::io::stderr().flush();
        self.dirty = true;
    }

    /// Repaints the `--live` telemetry line if live mode is on and the
    /// throttle window has elapsed. Returns `true` when live mode owns
    /// the progress line (so the stride-based paint should not run).
    fn live_paint(&mut self, point: ProgressPoint) -> bool {
        let Some(live) = &mut self.live else {
            return false;
        };
        let now = std::time::Instant::now();
        if let Some((at, _)) = live.last {
            if now.duration_since(at) < LIVE_INTERVAL {
                return true;
            }
        }
        // Rates are deltas over the window since the previous repaint;
        // the first repaint's window starts at crawl start.
        let (since, prev) = match live.last {
            Some((at, prev)) => (at, prev),
            None => (live.started, ProgressPoint::default()),
        };
        live.last = Some((now, point));
        let elapsed = now.duration_since(since).as_secs_f64().max(1e-9);
        let r = obs::registry();
        let charged = r
            .counter(
                "hdc_session_queries_charged_total",
                "Queries charged to crawl sessions by the hidden database",
            )
            .get();
        let p99_ms = r
            .histogram(
                "hdc_session_batch_seconds",
                "Wall time of database round trips issued by crawl sessions",
                obs::latency_bounds(),
                obs::Unit::Nanos,
            )
            .quantile(0.99)
            / 1e6;
        eprint!(
            "\r  {:>8} q ({:>6.0} q/s)  {:>8} t ({:>6.0} t/s)  charged {:>8}  batch p99 {:>7.2} ms",
            point.queries,
            point.queries.saturating_sub(prev.queries) as f64 / elapsed,
            point.tuples,
            point.tuples.saturating_sub(prev.tuples) as f64 / elapsed,
            charged,
            p99_ms,
        );
        let _ = std::io::stderr().flush();
        self.dirty = true;
        true
    }

    /// Terminates an in-place progress line so normal output continues
    /// on a fresh line.
    fn finish(&mut self) {
        if self.dirty {
            eprintln!();
            self.dirty = false;
        }
    }
}

impl CrawlObserver for CliObserver {
    fn on_progress(&mut self, point: ProgressPoint) -> Flow {
        if let Some(target) = self.target {
            if point.tuples >= target {
                // Latch: the in-flight batch still accounts (and fires
                // events) after the first Stop; repaint only once.
                if !self.stopping {
                    self.stopping = true;
                    self.paint(point);
                }
                return Flow::Stop;
            }
        }
        if self.live_paint(point) {
            return Flow::Continue;
        }
        if point.queries >= self.last_paint + PROGRESS_STRIDE {
            self.last_paint = point.queries;
            self.paint(point);
        }
        Flow::Continue
    }

    fn on_shard(&mut self, event: &ShardEvent<'_>) {
        self.finish();
        let source = match event.source {
            TaskSource::Stolen { from } => format!(", stolen from {from}"),
            TaskSource::Seeded | TaskSource::Injected => String::new(),
        };
        if event.restored {
            eprintln!(
                "  shard {:>3}/{}: {:>6} queries, {:>7} tuples  (restored from checkpoint)",
                event.index + 1,
                event.total,
                event.queries,
                event.tuples,
            );
            return;
        }
        eprintln!(
            "  shard {:>3}/{}: {:>6} queries, {:>7} tuples  (worker {}{}{})",
            event.index + 1,
            event.total,
            event.queries,
            event.tuples,
            event.worker,
            source,
            if event.failed { ", FAILED" } else { "" }
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `hdc help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print_usage();
            Ok(())
        }
        Some("datasets") => {
            parse_flags("datasets", &args[1..], &[])?;
            cmd_datasets()
        }
        Some("crawl") => cmd_crawl(&parse_flags("crawl", &args[1..], CRAWL_FLAGS)?),
        Some("barrier") => cmd_barrier(&parse_flags("barrier", &args[1..], BARRIER_FLAGS)?),
        Some("serve") => cmd_serve(&parse_flags("serve", &args[1..], SERVE_FLAGS)?),
        Some("work") => cmd_work(&parse_flags("work", &args[1..], WORK_FLAGS)?),
        Some("stop") => cmd_stop(&parse_flags("stop", &args[1..], STOP_FLAGS)?),
        Some("sweep") => cmd_sweep(&parse_flags("sweep", &args[1..], SWEEP_FLAGS)?),
        Some("hard") => cmd_hard(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn print_usage() {
    println!(
        "hdc — crawl hidden databases through their top-k interface\n\
         \n\
         USAGE:\n\
         \u{20}  hdc datasets\n\
         \u{20}      Print the evaluation datasets (the paper's Figure 9 table).\n\
         \u{20}  hdc crawl --dataset <name> [--algo <algo>] [--k N] [--seed N]\n\
         \u{20}            [--scale PCT] [--sessions N] [--oversubscribe N]\n\
         \u{20}            [--oracle] [--budget N] [--target TUPLES] [--live]\n\
         \u{20}            [--retries N] [--checkpoint FILE | --resume FILE]\n\
         \u{20}      Crawl one dataset and report cost, metrics, and progress\n\
         \u{20}      (live progress line on stderr). The shard plan comes from\n\
         \u{20}      --sessions and --oversubscribe alone: one session at\n\
         \u{20}      factor 1 is the whole space, crawled by the algorithm's\n\
         \u{20}      solo crawler, so --checkpoint never changes the cost.\n\
         \u{20}      --oracle and --target (stop early at a tuple-coverage\n\
         \u{20}      goal) work on every plan; --live upgrades the progress\n\
         \u{20}      line to a throttled telemetry line with q/s, t/s, charged\n\
         \u{20}      cost, and batch p99; --budget is a per-identity quota;\n\
         \u{20}      --retries N reissues transient query failures up to N\n\
         \u{20}      attempts; --checkpoint saves every completed shard to\n\
         \u{20}      FILE and resumes from it if present — --resume is the\n\
         \u{20}      same but requires FILE to exist. A checkpoint banks\n\
         \u{20}      whole shards, so its granularity is the plan's: add\n\
         \u{20}      --oversubscribe 8 to bank a one-session crawl in eighths.\n\
         \u{20}  hdc barrier --dataset <name> [--k N] [--seed N] [--scale PCT]\n\
         \u{20}            [--sessions N] [--oversubscribe N] [--live]\n\
         \u{20}      Top-k-barrier crawl (second paper): recover the tuples\n\
         \u{20}      below the k-visible frontier and report discovery depths.\n\
         \u{20}  hdc serve --dataset <name> [--k N] [--seed N] [--scale PCT]\n\
         \u{20}            [--addr HOST:PORT] [--budget N] [--fault-rate P]\n\
         \u{20}            [--fault-seed N] [--fault-stall-ms N] [--verbose]\n\
         \u{20}            [--metrics-log FILE [--metrics-interval-ms N]]\n\
         \u{20}      Serve the dataset over loopback HTTP/1.1 (one isolated\n\
         \u{20}      client identity per connection; --budget is a per-\n\
         \u{20}      connection quota; --fault-rate injects deterministic 503s\n\
         \u{20}      seeded by --fault-seed, stalling --fault-stall-ms first).\n\
         \u{20}      GET /metrics (Prometheus text) and GET /stats (JSON)\n\
         \u{20}      expose the live telemetry registry; --verbose logs one\n\
         \u{20}      summary line per drained connection; --metrics-log\n\
         \u{20}      appends JSONL registry snapshots to FILE.\n\
         \u{20}      Stops gracefully on `hdc stop`, draining live requests.\n\
         \u{20}      With --coordinate, also mounts a shard-lease coordinator\n\
         \u{20}      on the same listener ([--sessions N] [--oversubscribe N]\n\
         \u{20}      size the shard plan; [--lease-ttl-ms N] bounds worker\n\
         \u{20}      silence; [--checkpoint FILE] persists fleet progress and\n\
         \u{20}      resumes from it). The process exits by itself once every\n\
         \u{20}      shard completes, after verifying the merged bag against\n\
         \u{20}      the generated ground truth.\n\
         \u{20}  hdc work --join URL [--name NAME] [--retries N]\n\
         \u{20}           [--timeout-ms N] [--qps F [--burst F]]\n\
         \u{20}           [--retire-after N]\n\
         \u{20}      Join a fleet: lease shards from a `hdc serve --coordinate`\n\
         \u{20}      coordinator at URL, crawl them over the same server's data\n\
         \u{20}      plane, heartbeat per completed root, and report\n\
         \u{20}      results until the plan drains. Kill a worker mid-shard and\n\
         \u{20}      its lease lapses; a peer resumes from the last banked\n\
         \u{20}      partial snapshot, replaying only the un-checkpointed\n\
         \u{20}      suffix.\n\
         \u{20}  hdc stop --connect URL\n\
         \u{20}      Ask a running `hdc serve` to drain and exit.\n\
         \u{20}  hdc crawl --connect URL ... / hdc barrier --connect URL ...\n\
         \u{20}      Crawl a served database over the wire instead of\n\
         \u{20}      in-process, on the same plan and code path (URL =\n\
         \u{20}      [http://]host:port; the server fixes the data and k, so\n\
         \u{20}      --dataset/--k/--seed/--scale/--oracle are refused; the\n\
         \u{20}      client health knobs [--timeout-ms N] [--qps F [--burst\n\
         \u{20}      F]] [--retire-after N] are read only here).\n\
         \u{20}  hdc sweep --dataset <name> --algos a,b,c [--ks 64,128,...]\n\
         \u{20}            [--seed N] [--scale PCT]\n\
         \u{20}      Cost table across algorithms and k values.\n\
         \u{20}  hdc hard numeric --k N --d N --m N\n\
         \u{20}  hdc hard categorical --k N --u N\n\
         \u{20}      Run the §4 lower-bound constructions (numeric with\n\
         \u{20}      rank-shrink, categorical with lazy-slice-cover).\n\
         \n\
         DATASETS: yahoo | nsf | adult | adult-numeric\n\
         ALGOS:    auto | hybrid | rank-shrink | binary-shrink | dfs |\n\
         \u{20}         slice-cover | lazy-slice-cover\n\
         \u{20}         (auto picks the paper's choice for the schema)\n\
         \n\
         Costs are query counts — the paper's metric. Crawls always verify\n\
         multiset completeness against the generated ground truth.\n\
         Every command rejects a flag it does not read."
    );
}

// ---------------------------------------------------------------- flags --

/// The dataset a local command generates.
const DATASET_FLAGS: &[&str] = &["dataset", "k", "seed", "scale"];
/// The flags that read the generated dataset, refused with `--connect`.
const LOCAL_FLAGS: &[&str] = &["dataset", "k", "seed", "scale", "oracle"];
/// `--connect` plus the wire-client health knobs ([`make_connector`]).
const CONNECT_FLAGS: &[&str] = &["connect", "timeout-ms", "retire-after", "qps", "burst"];

// The flags each command reads, in groups; `parse_flags` rejects any
// other, so a misspelt flag is an error rather than a silent default.
const CRAWL_FLAGS: &[&[&str]] = &[
    DATASET_FLAGS,
    CONNECT_FLAGS,
    &[
        "algo",
        "sessions",
        "oversubscribe",
        "oracle",
        "budget",
        "target",
        "live",
        "retries",
        "checkpoint",
        "resume",
    ],
];
const BARRIER_FLAGS: &[&[&str]] = &[
    DATASET_FLAGS,
    CONNECT_FLAGS,
    &["sessions", "oversubscribe", "live"],
];
const SERVE_FLAGS: &[&[&str]] = &[
    DATASET_FLAGS,
    &[
        "addr",
        "budget",
        "fault-rate",
        "fault-seed",
        "fault-stall-ms",
        "verbose",
        "metrics-log",
        "metrics-interval-ms",
        "coordinate",
        "sessions",
        "oversubscribe",
        "lease-ttl-ms",
        "checkpoint",
    ],
];
const WORK_FLAGS: &[&[&str]] = &[&[
    "join",
    "name",
    "retries",
    "timeout-ms",
    "retire-after",
    "qps",
    "burst",
]];
const STOP_FLAGS: &[&[&str]] = &[&["connect"]];
const SWEEP_FLAGS: &[&[&str]] = &[&["dataset", "algos", "ks", "seed", "scale"]];
const HARD_NUMERIC_FLAGS: &[&[&str]] = &[&["seed", "k", "d", "m"]];
const HARD_CATEGORICAL_FLAGS: &[&[&str]] = &[&["seed", "k", "u"]];

/// Parsed `--flag value` pairs (plus boolean `--oracle`, `--live`,
/// `--verbose`, `--coordinate`).
struct Flags {
    pairs: Vec<(String, String)>,
}

/// Parses `hdc <cmd>`'s arguments, accepting only the flags in `known`.
fn parse_flags(cmd: &str, args: &[String], known: &[&[&str]]) -> Result<Flags, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected --flag, found {arg:?}"));
        };
        if !known.iter().any(|group| group.contains(&name)) {
            return Err(format!("unknown flag --{name} for hdc {cmd}"));
        }
        if matches!(name, "oracle" | "live" | "verbose" | "coordinate") {
            pairs.push((name.to_string(), "true".to_string()));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        pairs.push((name.to_string(), value.clone()));
    }
    Ok(Flags { pairs })
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name} {v:?}: {e}")),
        }
    }

    /// [`Flags::parse`] for a value that must be at least `min`, so a
    /// degenerate `--k 0` is an error here rather than a panic in the
    /// server or dataset it sizes.
    fn at_least<T>(&self, name: &str, default: T, min: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + Display,
        T::Err: Display,
    {
        let value = self.parse(name, default)?;
        if value < min {
            return Err(format!("--{name} must be ≥ {min}"));
        }
        Ok(value)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }
}

/// Whether `crawl`/`barrier` runs over `--connect`. The two transports
/// read disjoint flags: a served database fixes its own data and `k`
/// (and `--oracle` reads the generated data), and the client knobs shape
/// only the wire, so a flag of the other transport is an error rather
/// than silently ignored.
fn over_wire(flags: &Flags) -> Result<bool, String> {
    let remote = flags.get("connect").is_some();
    let (other, why) = if remote {
        (
            LOCAL_FLAGS,
            "is not read with --connect: the server fixes its data and k",
        )
    } else {
        (&CONNECT_FLAGS[1..], "is read only with --connect")
    };
    match other.iter().find(|name| flags.get(name).is_some()) {
        Some(name) => Err(format!("--{name} {why}")),
        None => Ok(remote),
    }
}

// ------------------------------------------------------------- datasets --

fn load_dataset(name: &str, scale_pct: u32, seed: u64) -> Result<Dataset, String> {
    let ds = match name {
        "yahoo" => yahoo::generate(seed),
        "nsf" => nsf::generate(seed),
        "adult" => adult::generate(seed),
        "adult-numeric" => adult::generate_numeric(seed),
        other => return Err(format!("unknown dataset {other:?}")),
    };
    if scale_pct == 100 {
        Ok(ds)
    } else if (1..100).contains(&scale_pct) {
        Ok(ops::sample_fraction(
            &ds,
            scale_pct as f64 / 100.0,
            seed ^ 0xface,
        ))
    } else {
        Err(format!("--scale must be 1..=100, got {scale_pct}"))
    }
}

fn cmd_datasets() -> Result<(), String> {
    for ds in [
        yahoo::generate(42),
        nsf::generate(42),
        adult::generate(42),
        adult::generate_numeric(42),
    ] {
        let stats = DatasetStats::compute(&ds);
        println!("\n{} — n = {}, d = {}", stats.name, stats.n, ds.d());
        let mut table = TextTable::new(&["attribute", "domain", "distinct"]);
        for a in &stats.attrs {
            table.row(&[&a.name, &a.figure9_cell(), &a.distinct]);
        }
        table.print();
        println!(
            "max duplicate multiplicity {} → crawlable for k ≥ {}",
            stats.max_multiplicity,
            stats.min_feasible_k()
        );
    }
    Ok(())
}

/// Remediation line for a checkpoint taken under a different shard
/// plan (the typed `RepositoryError::PlanMismatch`, surfaced through
/// the crawl as a backend error). The run already stopped cleanly —
/// this tells the operator how to reconcile instead of leaving them
/// with a bare error.
fn plan_mismatch_hint(error: &DbError) {
    if error.to_string().contains("plan mismatch") {
        println!(
            "hint: resume with the original --dataset/--scale/--sessions/\
             --oversubscribe flags (a one-session checkpoint written before \
             the one-shard plan resumes with --oversubscribe 8), or point \
             --checkpoint at a new file (the existing checkpoint is preserved)"
        );
    }
}

/// After an interrupted checkpointed run: point at the retained file —
/// or say plainly that nothing was written. Checkpoints are
/// shard-granular, so a stop that lands before the first shard
/// completes leaves no file to resume from.
fn checkpoint_hint(path: &str) {
    if std::fs::metadata(path).map(|m| m.len() > 0).unwrap_or(false) {
        println!("checkpoint retained — rerun with --resume {path}");
    } else {
        println!("no checkpoint written — stopped before the first shard completed");
    }
}

/// Maps a CLI algorithm name to a builder [`Strategy`].
fn strategy_for(algo: &str) -> Result<Strategy<'static>, String> {
    Ok(match algo {
        "auto" => Strategy::Auto,
        "hybrid" => Strategy::Hybrid,
        "rank-shrink" => Strategy::RankShrink,
        "binary-shrink" => Strategy::BinaryShrink,
        "dfs" => Strategy::Dfs,
        "slice-cover" => Strategy::SliceCover { lazy: false },
        "lazy-slice-cover" => Strategy::SliceCover { lazy: true },
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

/// One client identity's connection to the crawled database, whatever
/// the transport.
type Connect = dyn Fn(usize) -> Box<dyn HiddenDatabase + Send> + Sync;

/// What `crawl` and `barrier` crawl: a generated dataset served in
/// process, or a served database over `--connect`. The transport only
/// builds the connector; the crawl runs on it the same way either way.
struct Source {
    connector: Box<Connect>,
    name: String,
    schema: Schema,
    n: usize,
    k: usize,
    /// The generated bag, checked as a multiset; over the wire there is
    /// none, and the bag is checked against the server's advertised n.
    truth: Option<Vec<Tuple>>,
}

impl Source {
    /// Opens `--connect`, or generates `--dataset` and shares one store
    /// among every identity's client (bit-identical responses, one
    /// build), and prints the database's header line.
    fn open(flags: &Flags) -> Result<Source, String> {
        if over_wire(flags)? {
            let http = make_connector(flags, "connect")?;
            let info = http.info().clone();
            println!(
                "remote database at {} — n = {}, d = {}, k = {}",
                http.addr(),
                info.n,
                info.schema.arity(),
                info.k
            );
            return Ok(Source {
                connector: Box::new(move |s| Box::new(http.connect(s))),
                name: "remote".into(),
                schema: info.schema,
                n: info.n,
                k: info.k,
                truth: None,
            });
        }
        let dataset = flags.require("dataset")?;
        let k: usize = flags.at_least("k", 256, 1)?;
        let seed: u64 = flags.parse("seed", 42)?;
        let ds = load_dataset(dataset, flags.parse("scale", 100)?, seed)?;
        println!(
            "dataset {} — n = {}, d = {}, k = {k}",
            ds.name,
            ds.n(),
            ds.d()
        );
        let shared = SharedServer::new(
            ds.schema.clone(),
            ds.tuples.clone(),
            ServerConfig { k, seed },
        )
        .expect("valid dataset");
        Ok(Source {
            connector: Box::new(move |_| Box::new(shared.client())),
            n: ds.n(),
            name: ds.name,
            schema: ds.schema,
            k,
            truth: Some(ds.tuples),
        })
    }

    /// Checks a finished crawl's bag and prints the `complete:` line, or
    /// `INCOMPLETE` when a server's advertised n disagrees.
    fn check_complete(&self, merged: &CrawlReport) -> Result<(), String> {
        match &self.truth {
            Some(tuples) => {
                verify_complete(tuples, merged).map_err(|e| e.to_string())?;
                println!("complete: verified against the dataset's bag");
            }
            None if merged.tuples.len() == self.n => println!(
                "complete: tuple count matches the server's advertised n = {}",
                self.n
            ),
            None => println!(
                "INCOMPLETE: {} tuples vs server-advertised n = {}",
                merged.tuples.len(),
                self.n
            ),
        }
        Ok(())
    }

    /// Prints a crawl that ended early — what it salvaged, and how to go
    /// on from its checkpoint, if any. Each is a clean exit.
    fn report_failure(&self, error: CrawlError, checkpoint: Option<&str>) -> Result<(), String> {
        match error {
            CrawlError::Stopped { partial } => println!(
                "stopped at coverage target: {} tuples in {} queries \
                 ({:.1}% of the dataset)",
                partial.tuples.len(),
                partial.queries,
                100.0 * partial.tuples.len() as f64 / self.n.max(1) as f64
            ),
            CrawlError::Unsolvable { witness, partial } => println!(
                "UNCRAWLABLE at k = {k}: point `{witness}` holds more than {k} tuples \
                 ({} tuples salvaged in {} queries)",
                partial.tuples.len(),
                partial.queries,
                k = self.k
            ),
            CrawlError::Db { error, partial } => {
                println!(
                    "stopped: {error} — {} tuples salvaged in {} queries",
                    partial.tuples.len(),
                    partial.queries
                );
                plan_mismatch_hint(&error);
            }
        }
        if let Some(path) = checkpoint {
            checkpoint_hint(path);
        }
        Ok(())
    }
}

/// `hdc crawl`: one builder run on the shard pool, whatever the
/// transport. The plan comes from `--sessions`/`--oversubscribe` alone;
/// one session at factor 1 is the whole space, crawled by the strategy's
/// own solo crawler, checkpointed or not.
fn cmd_crawl(flags: &Flags) -> Result<(), String> {
    let sessions: usize = flags.at_least("sessions", 1, 1)?;
    let oversubscribe: usize = flags.at_least("oversubscribe", 1, 1)?;
    let budget: u64 = flags.parse("budget", u64::MAX)?;
    let target: u64 = flags.parse("target", 0)?;
    let retries: u32 = flags.at_least("retries", 1, 1)?;
    if flags.get("checkpoint").is_some() && flags.get("resume").is_some() {
        return Err("--checkpoint and --resume are the same file; pass one".into());
    }
    if let Some(path) = flags.get("resume") {
        if !std::path::Path::new(path).exists() {
            return Err(format!("--resume {path}: no checkpoint file found"));
        }
    }
    let checkpoint = flags.get("resume").or_else(|| flags.get("checkpoint"));
    let algo = flags.get("algo").unwrap_or("auto");
    let strategy = strategy_for(algo)?;
    let source = Source::open(flags)?;
    let schema = &source.schema;
    println!(
        "ideal cost n/k = {:.0}",
        theory::ideal_cost(source.n as f64, source.k as f64)
    );
    if algo == "auto" {
        println!("auto strategy: {:?}", strategy.resolve(schema));
    }
    // The builder panics on an unsupported combination; ask first.
    if sessions == 1 && oversubscribe == 1 {
        if !strategy.supports(schema) {
            return Err(format!("{algo} does not support the {} schema", source.name));
        }
    } else if !strategy.supports_sharded(schema) {
        return Err(format!(
            "{algo} has no sharded execution on the {} schema (use auto, hybrid, \
             rank-shrink on numeric, or lazy-slice-cover on categorical data)",
            source.name
        ));
    }
    let use_oracle = flags.get("oracle").is_some();
    if use_oracle && algo == "slice-cover" {
        return Err("\"slice-cover\" does not support --oracle".into());
    }

    let mut observer = CliObserver::new((target > 0).then_some(target));
    if flags.get("live").is_some() {
        observer = observer.live();
    }
    let oracle;
    let mut repository;
    let mut builder = Crawl::builder()
        .strategy(strategy)
        .sessions(sessions)
        .oversubscribe(oversubscribe)
        .observer(&mut observer);
    if budget != u64::MAX {
        builder = builder.budget(budget);
    }
    if retries > 1 {
        builder = builder.retry(RetryPolicy::new(retries));
    }
    if use_oracle {
        let truth = source.truth.clone();
        oracle = DatasetOracle::new(truth.expect("over_wire refuses --oracle"));
        builder = builder.oracle(&oracle);
    }
    if let Some(path) = checkpoint {
        repository = JsonFileRepository::new(path);
        builder = builder.repository(&mut repository);
    }
    let result = builder.run_sharded(&*source.connector);
    observer.finish();
    let report = match result {
        Ok(report) => report,
        Err(e) => return source.report_failure(e, checkpoint),
    };
    let merged = &report.merged;
    println!(
        "{}: {} tuples in {} queries ({} resolved, {} overflowed, {} pruned free)",
        merged.algorithm,
        merged.tuples.len(),
        merged.queries,
        merged.resolved,
        merged.overflowed,
        merged.pruned
    );
    let m = merged.metrics;
    println!(
        "metrics: {} 2-way / {} 3-way splits, {} slices fetched ({} overflowed), \
         {} local answers, {} leaf sub-crawls, {} slice-cache hits",
        m.two_way_splits,
        m.three_way_splits,
        m.slice_fetches,
        m.slice_overflows,
        m.local_answers,
        m.leaf_subcrawls,
        m.slice_cache_hits
    );
    // Only a one-shard plan has a crawl-wide curve: shards run
    // concurrently, so theirs do not add up to one.
    if !merged.progress.is_empty() {
        println!(
            "progressiveness: max deviation from diagonal {:.3}",
            merged.progress_deviation()
        );
    }
    println!(
        "plan: {} shard(s) over {sessions} session(s), {} stolen, busiest session {} queries",
        report.shards.len(),
        report.steals(),
        report.max_session_queries()
    );
    for (s, r) in report.per_session.iter().enumerate() {
        let (shards, tuples) = report
            .shards
            .iter()
            .filter(|run| run.worker == s && !run.restored)
            .fold((0u64, 0u64), |(n, t), run| (n + 1, t + run.tuples));
        println!(
            "  session {s}: {} queries, {tuples} tuples, {shards} shards",
            r.queries
        );
    }
    source.check_complete(merged)
}

/// `hdc barrier`: the top-k-barrier crawl on the shard pool, whatever
/// the transport; one session at factor 1 is the solo barrier crawl.
fn cmd_barrier(flags: &Flags) -> Result<(), String> {
    let sessions: usize = flags.at_least("sessions", 1, 1)?;
    let oversubscribe: usize = flags.at_least("oversubscribe", 1, 1)?;
    let source = Source::open(flags)?;
    let mut observer = CliObserver::new(None);
    if flags.get("live").is_some() {
        observer = observer.live();
    }
    let result = BarrierCrawler::new().crawl_sharded(
        &*source.connector,
        sessions,
        oversubscribe,
        Some(&mut observer),
    );
    observer.finish();
    let report = match result {
        Ok(report) => report,
        Err(e) => return source.report_failure(e, None),
    };
    let sharded = &report.sharded;
    println!(
        "sharded barrier over {} sessions ({} shards, {} stolen): \
         {} total queries, {} tuples, busiest session {}",
        sharded.per_session.len(),
        sharded.shards.len(),
        sharded.steals(),
        sharded.merged.queries,
        sharded.merged.tuples.len(),
        sharded.max_session_queries()
    );
    let m = sharded.merged.metrics;
    println!(
        "barrier metrics: {} pivots, {} tuples surfaced from below per-shard frontiers",
        m.barrier_pivots, m.barrier_deep_tuples
    );
    // The depth-aware merge: per-shard discovery-depth histograms
    // survive as an element-wise sum (depths relative to each shard's
    // own covering roots).
    println!(
        "merged depths: frontier {} / beyond {} (max depth {}, mean {:.2})",
        report.frontier(),
        report.beyond_frontier(),
        report.max_depth,
        report.mean_depth()
    );
    let mut table = TextTable::new(&["depth", "tuples discovered"]);
    for (depth, count) in report.depth_histogram.iter().enumerate() {
        table.row(&[&depth, count]);
    }
    table.print();
    source.check_complete(&sharded.merged)
}

// ----------------------------------------------------------------- wire --

/// Builds the wire-client connector from the URL in `--{url_flag}` plus
/// the client health knobs (`--timeout-ms`, `--qps`/`--burst`,
/// `--retire-after`). Every knob is checked before the first connection:
/// a knob that would be clamped or ignored is an error instead.
fn make_connector(flags: &Flags, url_flag: &str) -> Result<HttpConnector, String> {
    let url = flags.require(url_flag)?;
    let timeout_ms: u64 = flags.at_least("timeout-ms", 5_000, 1)?;
    let retire: u32 = flags.at_least("retire-after", 8, 1)?;
    let rate = match flags.get("qps") {
        Some(_) => {
            let qps: f64 = flags.parse("qps", 0.0)?;
            if !(qps > 0.0 && qps.is_finite()) {
                return Err("--qps must be a positive, finite rate".into());
            }
            Some((qps, flags.at_least("burst", qps.max(1.0), 1.0)?))
        }
        None if flags.get("burst").is_some() => {
            return Err("--burst is read only with --qps".into())
        }
        None => None,
    };
    let mut connector = HttpConnector::new(url)
        .map_err(|e| format!("--{url_flag} {url}: {e}"))?
        .timeout(Duration::from_millis(timeout_ms))
        .retire_after(retire);
    if let Some((qps, burst)) = rate {
        connector = connector.rate_limit(qps, burst);
    }
    Ok(connector)
}

/// `hdc serve`: expose a dataset over loopback HTTP/1.1 until an
/// `hdc stop` (or a client's `POST /shutdown`) drains it.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let dataset = flags.require("dataset")?.to_string();
    let k: usize = flags.at_least("k", 256, 1)?;
    let seed: u64 = flags.parse("seed", 42)?;
    let scale: u32 = flags.parse("scale", 100)?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7171");
    let budget: u64 = flags.parse("budget", 0)?;
    let fault_rate: f64 = flags.parse("fault-rate", 0.0)?;
    let fault_seed: u64 = flags.parse("fault-seed", 0)?;
    let stall_ms: u64 = flags.parse("fault-stall-ms", 0)?;
    let verbose = flags.get("verbose").is_some();
    let metrics_log = flags.get("metrics-log").map(str::to_string);
    let metrics_interval_ms: u64 = flags.parse("metrics-interval-ms", 1_000)?;
    let coordinate = flags.get("coordinate").is_some();
    let sessions: usize = flags.at_least("sessions", 2, 1)?;
    let oversubscribe: usize = flags.at_least("oversubscribe", 2, 1)?;
    let lease_ttl_ms: u64 = flags.at_least("lease-ttl-ms", 30_000, 1)?;
    let checkpoint = flags.get("checkpoint").map(str::to_string);
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err("--fault-rate must be within 0..=1".into());
    }
    if !coordinate {
        for flag in ["sessions", "oversubscribe", "lease-ttl-ms", "checkpoint"] {
            if flags.get(flag).is_some() {
                return Err(format!("--{flag} requires --coordinate"));
            }
        }
    }
    let ds = load_dataset(&dataset, scale, seed)?;
    let shared = SharedServer::new(ds.schema.clone(), ds.tuples.clone(), ServerConfig { k, seed })
        .expect("valid dataset");

    // `--coordinate`: mount the shard-lease coordinator next to the
    // data plane. The plan is the same oversubscribed partition a
    // local `--sessions/--oversubscribe` crawl would use — leases and
    // heartbeats are control traffic, so the fleet's charged query
    // total is exactly the solo crawl's.
    let coordinator = if coordinate {
        let plan: Vec<String> = Sharded::plan_oversubscribed(&ds.schema, sessions, oversubscribe)
            .iter()
            .map(ShardSpec::signature)
            .collect();
        let cfg = CoordinatorConfig {
            ttl: Duration::from_millis(lease_ttl_ms),
            checkpoint: checkpoint.as_ref().map(std::path::PathBuf::from),
            verbose,
        };
        let (coordinator, restore) = Coordinator::new(plan, cfg)
            .map_err(|e| format!("--coordinate: {e}"))?;
        if let Restore::Resumed { complete } = restore {
            println!("resumed fleet checkpoint: {complete} shard(s) already complete");
        }
        Some(std::sync::Arc::new(coordinator))
    } else {
        None
    };

    let opts = ServeOptions {
        budget: (budget > 0).then_some(budget),
        faults: (fault_rate > 0.0).then(|| FaultPlan {
            rate: fault_rate,
            seed: fault_seed,
            stall: (stall_ms > 0).then(|| Duration::from_millis(stall_ms)),
        }),
        verbose,
        extension: coordinator
            .as_ref()
            .map(|c| std::sync::Arc::clone(c) as std::sync::Arc<dyn RouteExt>),
    };
    // The served registry backs `GET /metrics` and `GET /stats`; a
    // server that never records would answer with all-zero counters.
    obs::set_enabled(true);
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving {} (n = {}, k = {k}) — listening on {local}",
        ds.name,
        ds.n()
    );
    if let Some(c) = &coordinator {
        let (done, total) = c.outcome().shards;
        println!(
            "coordinating {total} shard(s) ({done} already complete, lease \
             ttl {lease_ttl_ms} ms) — join workers with: hdc work --join http://{local}"
        );
    }
    let _ = std::io::stdout().flush();

    // `--metrics-log`: a sampler thread appends one JSONL registry
    // snapshot per interval until the listener drains.
    let log_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let logger = match &metrics_log {
        None => None,
        Some(path) => {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("--metrics-log {path}: {e}"))?;
            let stop = std::sync::Arc::clone(&log_stop);
            let interval = Duration::from_millis(metrics_interval_ms.max(50));
            let started = std::time::Instant::now();
            Some(std::thread::spawn(move || {
                loop {
                    let line = format!(
                        "{{\"elapsed_ms\":{},\"metrics\":{}}}",
                        started.elapsed().as_millis(),
                        obs::registry().render_json()
                    );
                    if writeln!(file, "{line}").is_err() {
                        return;
                    }
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        return;
                    }
                    // Sliced sleep: notice a drain quickly (and write one
                    // final snapshot) even with a long interval.
                    let mut waited = Duration::ZERO;
                    while waited < interval && !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let step = (interval - waited).min(Duration::from_millis(50));
                        std::thread::sleep(step);
                        waited += step;
                    }
                }
            }))
        }
    };

    // A coordinating server drains itself, but not the instant the last
    // shard completes: workers still need to poll `/lease` once more to
    // hear `drained` and exit cleanly, so a watcher thread lingers
    // briefly between the coordinator tripping its token and the accept
    // loop closing. `POST /shutdown` (hdc stop) still cancels
    // immediately.
    let own_cancel = std::sync::Arc::new(CancelToken::new());
    let watcher = coordinator.as_ref().map(|c| {
        let fleet_drained = c.drained_token();
        let own = std::sync::Arc::clone(&own_cancel);
        std::thread::spawn(move || {
            while !fleet_drained.is_cancelled() && !own.is_cancelled() {
                std::thread::sleep(Duration::from_millis(25));
            }
            if !own.is_cancelled() {
                // Workers poll at least every `wait_cap_ms` (200 ms
                // default); one second comfortably covers a final poll.
                std::thread::sleep(Duration::from_secs(1));
                own.cancel();
            }
        })
    });
    let result = serve(listener, shared, opts, &own_cancel);
    if let Some(handle) = watcher {
        let _ = handle.join();
    }
    log_stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some(handle) = logger {
        let _ = handle.join();
    }
    let stats = result.map_err(|e| e.to_string())?;
    println!(
        "drained: {} requests over {} connections ({} faults injected)",
        stats.requests, stats.connections, stats.faults_injected
    );
    if let Some(c) = &coordinator {
        report_fleet(c, &ds.tuples, checkpoint.as_deref())?;
    }
    Ok(())
}

/// The coordinator's exit line: on a drained plan, verify the merged
/// bag against the generated ground truth and print the totals the CI
/// fleet job greps for; on an early stop, report progress and where
/// the checkpoint (if any) lives.
fn report_fleet(
    c: &hidden_db_crawler::coord::Coordinator,
    expected: &[Tuple],
    checkpoint: Option<&str>,
) -> Result<(), String> {
    let outcome = c.outcome();
    if let Some(e) = &outcome.persist_error {
        println!("warning: fleet checkpoint persistence degraded: {e}");
    }
    if outcome.expired_leases > 0 {
        println!(
            "salvage: {} lease(s) expired and were reclaimed, {} grant(s) \
             resumed from a banked partial snapshot",
            outcome.expired_leases, outcome.salvaged_grants
        );
    }
    let (done, total) = outcome.shards;
    if !c.is_drained() {
        println!("fleet stopped early: {done}/{total} shard(s) complete");
        if let Some(path) = checkpoint {
            checkpoint_hint(path);
        }
        return Ok(());
    }
    // Merge the complete shards into one report so the fleet's result
    // gets the same multiset-completeness check a solo crawl gets.
    let merged = CrawlReport::from_snapshots("fleet", c.checkpoint().shards);
    verify_complete(expected, &merged).map_err(|e| e.to_string())?;
    println!(
        "fleet complete: verified {} tuples in {} queries ({total} shards)",
        merged.tuples.len(),
        merged.queries
    );
    Ok(())
}

/// `hdc work --join URL`: one fleet worker. Leases shards from the
/// coordinator at URL (control plane), crawls them over the same
/// server's top-k interface (data plane), heartbeats after every
/// completed root, and repeats until the plan drains.
fn cmd_work(flags: &Flags) -> Result<(), String> {
    let url = flags.require("join")?.to_string();
    let name = flags.get("name").unwrap_or("worker").to_string();
    let retries: u32 = flags.at_least("retries", 1, 1)?;
    let connector = make_connector(flags, "join")?;
    let mut lease =
        WireLeaseRepository::connect(&url).map_err(|e| format!("--join {url}: {e}"))?;
    let info = connector.info().clone();
    println!(
        "{name}: joined fleet at {} — n = {}, k = {}, lease ttl {} ms",
        connector.addr(),
        info.n,
        info.k,
        lease.ttl_ms()
    );
    let mut db = connector.db(0);
    let cfg = WorkerConfig {
        name: name.clone(),
        retry: RetryPolicy::new(retries),
        ..WorkerConfig::default()
    };
    let report = drive_worker(&mut lease, &mut db, &info.schema, &cfg).map_err(|e| {
        let msg = e.to_string();
        if msg.contains("mismatch") {
            // The coordinator re-verifies the plan fingerprint on every
            // carried snapshot; a 409 here means the plan changed under
            // this worker (server restarted with different flags).
            format!(
                "{msg}\nhint: the coordinator's shard plan changed — \
                 restart this worker so it re-fetches the plan"
            )
        } else if msg.contains("coordination:") {
            format!(
                "{msg}\nhint: the coordinator is unreachable — shards this \
                 worker already completed are safely reported; rerun \
                 `hdc work` once the coordinator is back"
            )
        } else {
            msg
        }
    })?;
    println!(
        "{name}: plan drained — {} shard(s) completed ({} resumed from a \
         peer's partial, {} lost to peers), {} queries, {} tuples, \
         {} heartbeat(s), {} wait(s)",
        report.shards_completed,
        report.shards_resumed,
        report.shards_lost,
        report.queries,
        report.tuples,
        report.heartbeats,
        report.waits
    );
    Ok(())
}

/// `hdc stop --connect URL`: graceful remote shutdown.
fn cmd_stop(flags: &Flags) -> Result<(), String> {
    let mut client = Client::new(flags.require("connect")?, Duration::from_secs(5));
    let addr = client.addr().to_string();
    let resp = client
        .request("POST", "/shutdown", b"")
        .map_err(|e| format!("POST {addr}/shutdown: {e}"))?;
    if resp.status == 200 {
        println!("server at {addr} is draining");
        Ok(())
    } else {
        Err(format!("server answered {}", resp.status))
    }
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let dataset = flags.require("dataset")?.to_string();
    let algos: Vec<String> = flags
        .get("algos")
        .unwrap_or("hybrid")
        .split(',')
        .map(str::to_string)
        .collect();
    let ks: Vec<usize> = flags
        .get("ks")
        .unwrap_or("64,128,256,512,1024")
        .split(',')
        .map(|s| match s.parse() {
            Ok(0) => Err("--ks values must be ≥ 1".to_string()),
            Ok(k) => Ok(k),
            Err(e) => Err(format!("bad k {s:?}: {e}")),
        })
        .collect::<Result<_, String>>()?;
    let seed: u64 = flags.parse("seed", 42)?;
    let scale: u32 = flags.parse("scale", 100)?;
    let ds = load_dataset(&dataset, scale, seed)?;

    println!("dataset {} — n = {}, d = {}", ds.name, ds.n(), ds.d());
    let mut header: Vec<String> = vec!["k".into(), "ideal n/k".into()];
    header.extend(algos.iter().cloned());
    let mut table = TextTable::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for &k in &ks {
        let mut cells: Vec<String> =
            vec![k.to_string(), format!("{:.0}", ds.n() as f64 / k as f64)];
        for algo in &algos {
            let strategy = strategy_for(algo)?;
            if !strategy.supports(&ds.schema) {
                cells.push("n/a".into());
                continue;
            }
            let mut db = HiddenDbServer::new(
                ds.schema.clone(),
                ds.tuples.clone(),
                ServerConfig { k, seed },
            )
            .expect("valid dataset");
            match Crawl::builder().strategy(strategy).run(&mut db) {
                Ok(report) => {
                    verify_complete(&ds.tuples, &report).map_err(|e| e.to_string())?;
                    cells.push(report.queries.to_string());
                }
                Err(CrawlError::Unsolvable { .. }) => cells.push("—".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
        let refs: Vec<&dyn Display> = cells.iter().map(|c| c as &dyn Display).collect();
        table.row(&refs);
    }
    table.print();
    Ok(())
}

fn cmd_hard(args: &[String]) -> Result<(), String> {
    let kind = args
        .first()
        .map(String::as_str)
        .ok_or("hard needs `numeric` or `categorical`")?;
    let known = match kind {
        "numeric" => HARD_NUMERIC_FLAGS,
        "categorical" => HARD_CATEGORICAL_FLAGS,
        other => return Err(format!("unknown hard instance kind {other:?}")),
    };
    let flags = parse_flags(&format!("hard {kind}"), &args[1..], known)?;
    let seed: u64 = flags.parse("seed", 42)?;
    match kind {
        "numeric" => {
            let k: usize = flags.at_least("k", 16, 1)?;
            let d: usize = flags.at_least("d", 4, 1)?;
            let m: usize = flags.at_least("m", 100, 1)?;
            let ds = hard::numeric_hard(k, d, m);
            let mut db = HiddenDbServer::new(
                ds.schema.clone(),
                ds.tuples.clone(),
                ServerConfig { k, seed },
            )
            .expect("valid dataset");
            let report = RankShrink::new()
                .crawl(&mut db)
                .map_err(|e| e.to_string())?;
            verify_complete(&ds.tuples, &report).map_err(|e| e.to_string())?;
            println!("{} — n = {}", ds.name, ds.n());
            println!(
                "lower bound d·m = {:.0} ≤ measured {} ≤ upper 20·d·n/k = {:.0}",
                theory::numeric_lower_bound(d, m),
                report.queries,
                theory::rank_shrink_bound(d, ds.n() as f64, k as f64)
            );
            Ok(())
        }
        "categorical" => {
            let k: usize = flags.at_least("k", 6, 1)?;
            // Each group's odd value (i+1) mod u must differ from i.
            let u: u32 = flags.at_least("u", 6, 2)?;
            let ds = hard::categorical_hard(k, u);
            let d = 2 * k;
            let mut db = HiddenDbServer::new(
                ds.schema.clone(),
                ds.tuples.clone(),
                ServerConfig { k, seed },
            )
            .expect("valid dataset");
            let report = SliceCover::lazy()
                .crawl(&mut db)
                .map_err(|e| e.to_string())?;
            verify_complete(&ds.tuples, &report).map_err(|e| e.to_string())?;
            println!("{} — n = {}, d = {d}", ds.name, ds.n());
            println!(
                "lower bound d·U²/8 = {:.0} ≤ measured {} ≤ upper Lemma 4 = {:.0} \
                 (side conditions {})",
                theory::categorical_lower_bound(d, u),
                report.queries,
                theory::slice_cover_bound(&vec![u; d], ds.n() as f64, k as f64),
                if hard::categorical_hard_conditions_hold(k, u) {
                    "hold"
                } else {
                    "not met"
                }
            );
            Ok(())
        }
        _ => unreachable!("kind checked above"),
    }
}

// ---------------------------------------------------------------- table --

/// Minimal aligned-column table (the bench harness has a richer one; the
/// CLI stays dependency-light).
struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ");
            println!("{line}");
        };
        print_row(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            print_row(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        parse_flags("crawl", &argv(args), CRAWL_FLAGS).unwrap()
    }

    #[test]
    fn flag_parsing() {
        let f = flags(&["--k", "256", "--dataset", "yahoo", "--oracle"]);
        assert_eq!(f.get("k"), Some("256"));
        assert_eq!(f.require("dataset").unwrap(), "yahoo");
        assert_eq!(f.get("oracle"), Some("true"));
        assert_eq!(f.parse("k", 0usize).unwrap(), 256);
        assert_eq!(f.parse("seed", 7u64).unwrap(), 7);
        assert!(f.require("missing").is_err());
    }

    #[test]
    fn flag_errors() {
        assert!(parse_flags("crawl", &argv(&["stray"]), CRAWL_FLAGS).is_err());
        assert!(parse_flags("crawl", &argv(&["--k"]), CRAWL_FLAGS).is_err());
        let f = flags(&["--k", "abc"]);
        assert!(f.parse("k", 0usize).is_err());
    }

    /// A flag the command does not read is an error, not a silent
    /// default: a typo, a flag of another command, and the removed
    /// `serve --dedup`.
    #[test]
    fn unknown_flags_are_rejected() {
        let err = run(&argv(&["crawl", "--dataset", "yahoo", "--sesions", "2"])).unwrap_err();
        assert_eq!(err, "unknown flag --sesions for hdc crawl");
        let err = run(&argv(&["serve", "--dataset", "yahoo", "--dedup", "exact"])).unwrap_err();
        assert_eq!(err, "unknown flag --dedup for hdc serve");
        // The plan flags size only a coordinator's plan.
        for flag in ["--sessions", "--oversubscribe"] {
            let err = run(&argv(&["serve", "--dataset", "yahoo", flag, "4"])).unwrap_err();
            assert_eq!(err, format!("{flag} requires --coordinate"));
        }
        let err = run(&argv(&["barrier", "--dataset", "yahoo", "--resume", "x"])).unwrap_err();
        assert_eq!(err, "unknown flag --resume for hdc barrier");
        let err = run(&argv(&["hard", "numeric", "--u", "3"])).unwrap_err();
        assert_eq!(err, "unknown flag --u for hdc hard numeric");
        assert!(run(&argv(&["datasets", "--k", "3"])).is_err());

        // A flag of the other transport: `--connect` refuses the local
        // dataset flags, and the client knobs need `--connect`. Both are
        // refused before any connection or dataset is made.
        for cmd in ["crawl", "barrier"] {
            for flag in ["dataset nsf", "k 8", "seed 9", "scale 50"] {
                let line = format!("{cmd} --connect http://127.0.0.1:9 --{flag}");
                let err = run(&argv(&line.split(' ').collect::<Vec<_>>())).unwrap_err();
                let name = flag.split(' ').next().unwrap();
                assert!(
                    err.starts_with(&format!("--{name} is not read with --connect")),
                    "{line}: {err}"
                );
            }
            for flag in ["timeout-ms 1", "retire-after 2", "qps 0.5", "burst 4"] {
                let line = format!("{cmd} --dataset yahoo --{flag}");
                let err = run(&argv(&line.split(' ').collect::<Vec<_>>())).unwrap_err();
                let name = flag.split(' ').next().unwrap();
                assert_eq!(
                    err,
                    format!("--{name} is read only with --connect"),
                    "{line}"
                );
            }
        }
        // The oracle reads the generated data, so the wire refuses it.
        let err = run(&argv(&["crawl", "--connect", "http://127.0.0.1:9", "--oracle"]));
        let err = err.unwrap_err();
        assert!(err.starts_with("--oracle is not read with --connect"), "{err}");
        // A burst paces nothing without a rate.
        for line in [
            "crawl --connect http://127.0.0.1:9 --burst 4",
            "work --join http://127.0.0.1:9 --burst 4",
        ] {
            let err = run(&argv(&line.split(' ').collect::<Vec<_>>())).unwrap_err();
            assert_eq!(err, "--burst is read only with --qps", "{line}");
        }
    }

    /// A degenerate size is an `Err` from `run`, never a panic in the
    /// server or the hard-instance generator it would size.
    #[test]
    fn degenerate_numeric_flags_are_errors() {
        for line in [
            "crawl --dataset yahoo --k 0",
            "crawl --dataset yahoo --k 0 --sessions 2",
            "barrier --dataset yahoo --k 0",
            "serve --dataset yahoo --k 0",
            "sweep --dataset yahoo --ks 0",
            "sweep --dataset yahoo --ks 64,0",
            "hard numeric --k 0",
            "hard numeric --d 0",
            "hard numeric --m 0",
            "hard categorical --k 0",
            "hard categorical --u 1",
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            let err = run(&argv(&args)).unwrap_err();
            assert!(err.contains("must be ≥"), "{line}: {err}");
        }
        // The wire client's knobs, refused before any connection: a rate
        // that limits nothing, and sizes that would be clamped to 1.
        for url in ["crawl --connect", "work --join"] {
            for (knob, err) in [
                ("--qps -3", "--qps must be a positive, finite rate"),
                ("--qps nan", "--qps must be a positive, finite rate"),
                ("--timeout-ms 0", "--timeout-ms must be ≥ 1"),
                ("--retire-after 0", "--retire-after must be ≥ 1"),
            ] {
                let line = format!("{url} http://127.0.0.1:9 {knob}");
                let got = run(&argv(&line.split(' ').collect::<Vec<_>>())).unwrap_err();
                assert_eq!(got, err, "{line}");
            }
        }
    }

    /// Every command line in the CI workflow and the README parses for
    /// its command.
    #[test]
    fn documented_command_lines_parse() {
        let lines = [
            // .github/workflows/ci.yml
            "crawl --dataset yahoo --algo auto --k 256 --oversubscribe 8 --budget 200 \
             --checkpoint c.json",
            "crawl --dataset yahoo --algo auto --k 256 --oversubscribe 8 --resume c.json",
            "serve --dataset yahoo --scale 20 --k 128 --addr 127.0.0.1:7171 --verbose",
            "crawl --connect http://127.0.0.1:7171 --sessions 4",
            "stop --connect http://127.0.0.1:7171",
            "serve --dataset yahoo --scale 10 --k 128 --addr 127.0.0.1:7172 --fault-rate 1.0",
            "crawl --connect http://127.0.0.1:7172 --retries 2",
            "serve --dataset yahoo --scale 20 --k 128 --addr 127.0.0.1:7173 --budget 100",
            "crawl --connect http://127.0.0.1:7173 --sessions 2 --oversubscribe 8 --checkpoint c",
            "crawl --connect http://127.0.0.1:7174 --sessions 2 --oversubscribe 8 --resume c",
            "serve --dataset yahoo --scale 5 --k 64 --addr 127.0.0.1:7180 --coordinate \
             --sessions 2 --oversubscribe 2 --lease-ttl-ms 1500 --checkpoint c",
            "work --join http://127.0.0.1:7180 --name victim --qps 8",
            "work --join http://127.0.0.1:7180 --name survivor",
            // README.md
            "barrier --dataset yahoo --k 256 --scale 10",
            "crawl --dataset yahoo --k 256 --sessions 4 --retries 8 --checkpoint run.json",
            "crawl --connect 127.0.0.1:7171 --sessions 4 --oversubscribe 8",
            "crawl --dataset yahoo --sessions 8 --live",
            "serve --dataset yahoo --verbose --metrics-log /tmp/metrics.jsonl",
            "serve --dataset yahoo --scale 20 --k 128 --addr 127.0.0.1:7070 --coordinate \
             --sessions 4 --oversubscribe 4 --checkpoint /tmp/fleet.json",
            "work --join URL --name NAME --retries 3 --timeout-ms 500 --qps 2 --burst 4 \
             --retire-after 8",
            // this file's module docs and usage text
            "sweep --dataset adult-numeric --algos rank-shrink,binary-shrink --ks 64,128",
            "hard numeric --k 16 --d 4 --m 100",
            "hard categorical --k 6 --u 6",
        ];
        for line in lines {
            let args: Vec<&str> = line.split_whitespace().collect();
            let (cmd, rest, known) = match args[..] {
                ["crawl", ..] => ("crawl", &args[1..], CRAWL_FLAGS),
                ["barrier", ..] => ("barrier", &args[1..], BARRIER_FLAGS),
                ["serve", ..] => ("serve", &args[1..], SERVE_FLAGS),
                ["work", ..] => ("work", &args[1..], WORK_FLAGS),
                ["stop", ..] => ("stop", &args[1..], STOP_FLAGS),
                ["sweep", ..] => ("sweep", &args[1..], SWEEP_FLAGS),
                ["hard", "numeric", ..] => ("hard numeric", &args[2..], HARD_NUMERIC_FLAGS),
                ["hard", "categorical", ..] => {
                    ("hard categorical", &args[2..], HARD_CATEGORICAL_FLAGS)
                }
                _ => panic!("no flag table for {line}"),
            };
            if let Err(e) = parse_flags(cmd, &argv(rest), known) {
                panic!("{line}: {e}");
            }
        }
    }

    #[test]
    fn last_flag_wins() {
        let f = flags(&["--k", "1", "--k", "2"]);
        assert_eq!(f.parse("k", 0usize).unwrap(), 2);
    }

    #[test]
    fn dataset_and_algo_resolution() {
        assert!(load_dataset("nope", 100, 1).is_err());
        assert!(load_dataset("yahoo", 0, 1).is_err());
        assert!(load_dataset("yahoo", 150, 1).is_err());
        assert!(matches!(strategy_for("hybrid"), Ok(Strategy::Hybrid)));
        assert!(matches!(
            strategy_for("lazy-slice-cover"),
            Ok(Strategy::SliceCover { lazy: true })
        ));
        assert!(strategy_for("nope").is_err());
        let eager_with_oracle: Vec<String> =
            "crawl --dataset nsf --scale 1 --algo slice-cover --oracle"
                .split(' ')
                .map(String::from)
                .collect();
        let err = run(&eager_with_oracle).unwrap_err();
        assert!(err.contains("does not support --oracle"), "{err}");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn in_process_crawl_defaults_to_auto() {
        run(&argv(&["crawl", "--dataset", "yahoo", "--scale", "2"])).unwrap();
    }

    /// The in-process sharded barrier path (`BarrierCrawler::crawl_sharded`
    /// on the builder's pool) checks the merged bag with
    /// `verify_complete`, so `Ok` means every tuple came back.
    #[test]
    fn in_process_sharded_barrier_is_complete() {
        run(&argv(&[
            "barrier",
            "--dataset",
            "yahoo",
            "--scale",
            "2",
            "--sessions",
            "2",
            "--oversubscribe",
            "2",
        ]))
        .unwrap();
    }

    /// A checkpointed one-session crawl on the 8-shard plan: a
    /// budget-killed run banks a prefix of it, and `--resume` completes
    /// the rest. (The default one-shard plan banks only a finished
    /// crawl.)
    #[test]
    fn checkpointed_crawl_resumes_to_completion() {
        let path = std::env::temp_dir().join(format!("hdc_cli_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let banked = || {
            JsonFileRepository::new(path)
                .load()
                .unwrap()
                .expect("checkpoint written")
                .shards
                .len()
        };
        let crawl = ["crawl", "--dataset", "yahoo", "--scale", "2", "--oversubscribe", "8"];
        run(&argv(
            &[&crawl[..], &["--budget", "60", "--checkpoint", path]].concat(),
        ))
        .unwrap();
        let first = banked();
        assert!(
            (1..8).contains(&first),
            "the budget interrupted the plan: {first}"
        );
        run(&argv(&[&crawl[..], &["--resume", path]].concat())).unwrap();
        assert_eq!(banked(), 8, "the resume completed every shard");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
    }
}
