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
        eprint!(
            "\r  {:>8} queries  {:>8} tuples",
            point.queries, point.tuples
        );
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
            "  shard {:>3}/{}: {:>6} queries, {:>7} tuples  (worker {}{})",
            event.index + 1,
            event.total,
            event.queries,
            event.tuples,
            event.worker,
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
    if matches!(
        args.first().map(String::as_str),
        None | Some("help" | "--help" | "-h")
    ) {
        print_usage();
        return Ok(());
    }
    let (cmd, rest) = command(args)?;
    (cmd.run)(&parse_flags(cmd, rest)?)
}

/// The command `args` names, and the arguments after its name.
fn command(args: &[String]) -> Result<(&'static Command, &[String]), String> {
    for cmd in COMMANDS {
        let words = cmd.name.split(' ').count();
        if args.get(..words).map(|a| a.join(" ")).as_deref() == Some(cmd.name) {
            return Ok((cmd, &args[words..]));
        }
    }
    let prefix = format!("{} ", args[0]);
    let kinds: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.name.strip_prefix(&prefix))
        .collect();
    match kinds[..] {
        [] => Err(format!("unknown command {:?}", args[0])),
        _ => Err(format!(
            "hdc {} needs one of: {}",
            args[0],
            kinds.join(" | ")
        )),
    }
}

fn print_usage() {
    println!("hdc — crawl hidden databases through their top-k interface\n\nUSAGE:");
    for cmd in COMMANDS {
        let flags = if cmd.flags.is_empty() { "" } else { " [flags]" };
        println!("  hdc {}{flags}", cmd.name);
        for line in cmd.about.lines() {
            println!("      {line}");
        }
        let wired = cmd.flags.iter().any(|f| f.side == Side::Wire);
        for flag in cmd.flags {
            let local = (flag.side == Side::Local && wired).then(|| "not with --connect".into());
            let notes: Vec<String> = (flag.default.iter().map(|d| format!("default {d}")))
                .chain(cmd.needs(flag).map(|n| format!("needs --{n}")))
                .chain(local)
                .chain(flag.refuses.iter().map(|(o, _)| format!("refuses --{o}")))
                .collect();
            let head = format!("--{} {}", flag.name, flag.value.unwrap_or(""));
            let notes = match notes.is_empty() {
                true => String::new(),
                false => format!(" [{}]", notes.join("; ")),
            };
            println!("        {head:<24}{}{notes}", flag.help);
        }
    }
    println!(
        "\nCosts are query counts — the paper's metric. Crawls always verify\n\
         multiset completeness against the generated ground truth.\n\
         Every command rejects a flag it does not read."
    );
}

// ---------------------------------------------------------------- flags --

/// One `hdc` command: its name (two words for `hard`'s kinds), what it
/// does, the flags it reads, and its body.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Flags) -> Result<(), String>,
}

impl Command {
    /// The flags `flag` is read only with here: `--connect` for a wire
    /// knob of a command that can also crawl a generated dataset, then
    /// the flag's own `needs`.
    fn needs(&self, flag: &Flag) -> impl Iterator<Item = &'static str> {
        let local = self.flags.iter().any(|f| f.side == Side::Local);
        let wire = (flag.side == Side::Wire && local).then_some("connect");
        wire.into_iter().chain(flag.needs)
    }
}

/// The transport a flag belongs to, in a command that has both.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Either,
    /// Reads the generated dataset; a served database fixes its own.
    Local,
    /// Shapes the wire client; read only with `--connect`.
    Wire,
}

/// One flag of a command, declared once. The parser's unknown-flag,
/// switch, transport, "needs" and "refuses" checks, the defaults, and
/// the usage text all derive from it.
struct Flag {
    name: &'static str,
    /// The value's placeholder (`N`, `FILE`, …); `None` for a switch.
    value: Option<&'static str>,
    /// The value read when the flag is not given.
    default: Option<&'static str>,
    /// A flag this one is read only with.
    needs: Option<&'static str>,
    side: Side,
    help: &'static str,
    /// Flags not read when this one is given, each with the reason.
    refuses: &'static [(&'static str, &'static str)],
}

/// A table row; `value`, `default` and `needs` are `""` when absent,
/// and an empty `value` makes a switch.
const fn flag(
    name: &'static str,
    value: &'static str,
    default: &'static str,
    needs: &'static str,
    side: Side,
    help: &'static str,
) -> Flag {
    const fn given(s: &'static str) -> Option<&'static str> {
        if s.is_empty() {
            None
        } else {
            Some(s)
        }
    }
    Flag {
        name,
        value: given(value),
        default: given(default),
        needs: given(needs),
        side,
        help,
        refuses: &[],
    }
}

impl Flag {
    const fn refuses(self, refuses: &'static [(&'static str, &'static str)]) -> Flag {
        Flag { refuses, ..self }
    }
}

/// Every command's flag table, one row per flag: its name, value
/// placeholder, default, the flag it needs, its transport, and its help.
#[rustfmt::skip]
mod table {
    use super::{*, Side::*};

    // Flags more than one command reads.
    const DATASET: Flag =       flag("dataset",       "NAME", "",     "",    Local,  "generate yahoo | nsf | adult | adult-numeric");
    const K: Flag =             flag("k",             "N",    "256",  "",    Local,  "the top-k interface's page size");
    const SEED: Flag =          flag("seed",          "N",    "42",   "",    Local,  "the generator's and server's seed");
    const SCALE: Flag =         flag("scale",         "PCT",  "100",  "",    Local,  "keep this percent of the dataset");
    const CONNECT: Flag =       flag("connect",       "URL",  "",     "",    Either, "crawl the database served at [http://]host:port");
    const TIMEOUT: Flag =       flag("timeout-ms",    "N",    "5000", "",    Wire,   "per-request deadline of the wire client");
    const RETIRE: Flag =        flag("retire-after",  "N",    "8",    "",    Wire,   "retire a connection after N consecutive wire failures");
    const QPS: Flag =           flag("qps",           "F",    "",     "",    Wire,   "pace each identity to F queries per second");
    const BURST: Flag =         flag("burst",         "F",    "",     "qps", Wire,   "token-bucket burst (default max(1, qps))");
    const SESSIONS: Flag =      flag("sessions",      "N",    "1",    "",    Either, "client identities crawling the plan");
    const OVERSUBSCRIBE: Flag = flag("oversubscribe", "N",    "1",    "",    Either, "plan ≈ sessions × N shards (a fresh crawl's plan)");
    const LIVE: Flag =          flag("live",          "",     "",     "",    Either, "throttled stderr telemetry: q/s, t/s, charged, batch p99");
    const RETRIES: Flag =       flag("retries",       "N",    "1",    "",    Either, "attempts per query on transient failures");

    pub const COMMANDS: &[Command] = &[
        Command { name: "datasets", run: |_| cmd_datasets(), flags: &[],
            about: "Print the evaluation datasets (the paper's Figure 9 table)." },
        Command { name: "crawl", run: cmd_crawl,
            about: "Crawl a generated dataset, or with --connect a served database, and\n\
                    report cost, metrics and progress. A fresh crawl's plan comes from\n\
                    --sessions and --oversubscribe: one session at factor 1 is the whole\n\
                    space, crawled by the algorithm's solo crawler. A checkpoint banks\n\
                    whole shards, so --oversubscribe 8 banks a one-session crawl in\n\
                    eighths. A resume crawls its checkpoint's plan, and --sessions then\n\
                    sets only how many identities crawl it.",
            flags: &[
                DATASET, K, SEED, SCALE, CONNECT, TIMEOUT, RETIRE, QPS, BURST,
                flag("oracle",     "",       "",     "", Local,  "prune queries the dataset proves empty"),
                flag("algo",       "ALGO",   "auto", "", Either, "auto | hybrid | rank-shrink | binary-shrink | dfs | \
                                                                  slice-cover | lazy-slice-cover"),
                SESSIONS, OVERSUBSCRIBE,
                flag("budget",     "N",      "",     "", Either, "per-identity query quota"),
                flag("target",     "TUPLES", "",     "", Either, "stop early at this tuple coverage"),
                LIVE, RETRIES,
                flag("checkpoint", "FILE",   "",     "", Either, "bank every completed shard in FILE; resume from it if it holds one"),
                flag("resume",     "FILE",   "",     "", Either, "resume the checkpoint in FILE, which must exist").refuses(&[
                    ("oversubscribe", "the plan comes from the checkpoint"),
                    ("checkpoint", "both name the checkpoint file; pass one"),
                ]),
            ] },
        Command { name: "barrier", run: cmd_barrier,
            about: "Top-k-barrier crawl (second paper): recover the tuples below the\n\
                    k-visible frontier and report discovery depths.",
            flags: &[DATASET, K, SEED, SCALE, CONNECT, TIMEOUT, RETIRE, QPS, BURST, SESSIONS, OVERSUBSCRIBE, LIVE] },
        Command { name: "serve", run: cmd_serve,
            about: "Serve the dataset over loopback HTTP/1.1, one isolated client identity\n\
                    per connection. GET /metrics (Prometheus text) and GET /stats (JSON)\n\
                    expose the live telemetry registry. Stops gracefully on `hdc stop`,\n\
                    draining live requests. With --coordinate, also mounts a shard-lease\n\
                    coordinator on the same listener; the process exits by itself once\n\
                    every shard completes, after verifying the merged bag.",
            flags: &[
                DATASET, K, SEED, SCALE,
                flag("addr",                "HOST:PORT", "127.0.0.1:7171", "",            Either, "the listening address"),
                flag("budget",              "N",         "",               "",            Either, "per-connection query quota"),
                flag("fault-rate",          "P",         "0",              "",            Either, "inject deterministic 503s at this rate"),
                flag("fault-seed",          "N",         "0",              "fault-rate",  Either, "the fault schedule's seed"),
                flag("fault-stall-ms",      "N",         "0",              "fault-rate",  Either, "stall each injected fault first"),
                flag("verbose",             "",          "",               "",            Either, "one summary line per drained connection"),
                flag("metrics-log",         "FILE",      "",               "",            Either, "append JSONL registry snapshots to FILE"),
                flag("metrics-interval-ms", "N",         "1000",           "metrics-log", Either, "the snapshot interval (at least 50)"),
                flag("coordinate",          "",          "",               "",            Either, "mount the shard-lease coordinator"),
                flag("sessions",            "N",         "2",              "coordinate",  Either, "the fleet plan's sessions"),
                flag("oversubscribe",       "N",         "2",              "coordinate",  Either, "the fleet plan's shards per session"),
                flag("lease-ttl-ms",        "N",         "30000",          "coordinate",  Either, "reclaim a lease after N ms of worker silence"),
                flag("checkpoint",          "FILE",      "",               "coordinate",  Either, "persist fleet progress in FILE; resume from it"),
            ] },
        Command { name: "work", run: cmd_work,
            about: "Join a fleet: lease shards from a `hdc serve --coordinate` coordinator,\n\
                    crawl them over the same server's data plane, heartbeat per completed\n\
                    root, and report results until the plan drains. Kill a worker\n\
                    mid-shard and its lease lapses; a peer resumes from the last banked\n\
                    partial snapshot, replaying only the un-checkpointed suffix.",
            flags: &[
                flag("join", "URL",  "",       "", Either, "the coordinating server"),
                flag("name", "NAME", "worker", "", Either, "this worker's name"),
                RETRIES, TIMEOUT, RETIRE, QPS, BURST,
            ] },
        Command { name: "stop", run: cmd_stop, about: "Ask a running `hdc serve` to drain and exit.",
            flags: &[flag("connect", "URL", "", "", Either, "the server to drain")] },
        Command { name: "sweep", run: cmd_sweep, about: "Cost table across algorithms and k values.",
            flags: &[
                DATASET,
                flag("algos", "A,B,…", "hybrid",              "", Either, "the algorithms to compare"),
                flag("ks",    "K,K,…", "64,128,256,512,1024", "", Either, "the page sizes"),
                SEED, SCALE,
            ] },
        Command { name: "hard numeric", run: cmd_hard_numeric,
            about: "Run the §4 numeric lower-bound construction with rank-shrink.",
            flags: &[
                SEED,
                flag("k", "N", "16",  "", Either, "page size"),
                flag("d", "N", "4",   "", Either, "dimensions"),
                flag("m", "N", "100", "", Either, "points per dimension"),
            ] },
        Command { name: "hard categorical", run: cmd_hard_categorical,
            about: "Run the §4 categorical lower-bound construction with lazy-slice-cover.",
            flags: &[
                SEED,
                flag("k", "N", "6", "", Either, "page size"),
                flag("u", "N", "6", "", Either, "domain size"),
            ] },
    ];
}
use table::COMMANDS;

/// A command's parsed flags: the ones given, and its table for the rest.
struct Flags {
    table: &'static [Flag],
    given: Vec<(&'static str, String)>,
}

/// Parses `hdc <cmd>`'s arguments against its table: a flag the command
/// does not read is an error rather than a silent default, and so is a
/// flag of the other transport, or one given without the flag it needs
/// or with a flag that refuses it.
fn parse_flags(cmd: &Command, args: &[String]) -> Result<Flags, String> {
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected --flag, found {arg:?}"));
        };
        let Some(flag) = cmd.flags.iter().find(|f| f.name == name) else {
            return Err(format!("unknown flag --{name} for hdc {}", cmd.name));
        };
        let value = match flag.value {
            None => "true".to_string(),
            Some(_) => it
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone(),
        };
        given.push((flag.name, value));
    }
    let flags = Flags {
        table: cmd.flags,
        given,
    };
    for flag in cmd.flags.iter().filter(|f| flags.given(f.name)) {
        // A served database fixes its own data and k.
        if flag.side == Side::Local && flags.given("connect") {
            let name = flag.name;
            return Err(format!(
                "--{name} is not read with --connect: the server fixes its data and k"
            ));
        }
        if let Some(need) = cmd.needs(flag).find(|need| !flags.given(need)) {
            return Err(format!("--{} is read only with --{need}", flag.name));
        }
        if let Some((other, why)) = flag.refuses.iter().find(|(o, _)| flags.given(o)) {
            return Err(format!("--{other} is not read with --{}: {why}", flag.name));
        }
    }
    Ok(flags)
}

impl Flags {
    /// The command's table entry for `--{name}`.
    fn flag(&self, name: &str) -> &'static Flag {
        let found = self.table.iter().find(|f| f.name == name);
        found.unwrap_or_else(|| panic!("--{name} is not in the command's table"))
    }

    fn given(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The flag's last given value, else its default.
    fn get(&self, name: &str) -> Option<&str> {
        match self.given.iter().rev().find(|(n, _)| *n == name) {
            Some((_, v)) => Some(v),
            None => self.flag(name).default,
        }
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// The flag's value parsed, or `None` when it has neither a value
    /// nor a default.
    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(name)
            .map(|v| v.parse().map_err(|e| format!("--{name} {v:?}: {e}")))
            .transpose()
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.opt(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// [`Flags::value`] for a value that must be at least `min`, so a
    /// degenerate `--k 0` is an error here rather than a panic in the
    /// server or dataset it sizes, and no value is silently clamped.
    fn at_least<T>(&self, name: &str, min: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + Display,
        T::Err: Display,
    {
        let value = self.value(name)?;
        if value < min {
            return Err(format!("--{name} must be ≥ {min}"));
        }
        Ok(value)
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

/// `--dataset` at `--scale`, and one store serving it at `--k` and
/// `--seed` to every client identity.
fn serve_dataset(flags: &Flags) -> Result<(Dataset, usize, SharedServer), String> {
    let k: usize = flags.at_least("k", 1)?;
    let seed: u64 = flags.value("seed")?;
    let ds = load_dataset(flags.require("dataset")?, flags.value("scale")?, seed)?;
    let config = ServerConfig { k, seed };
    let shared = SharedServer::new(ds.schema.clone(), ds.tuples.clone(), config);
    Ok((ds, k, shared.expect("valid dataset")))
}

/// After an interrupted checkpointed run: point at the retained file —
/// or say plainly that nothing was written. Checkpoints are
/// shard-granular, so a stop that lands before the first shard
/// completes leaves no file to resume from.
fn checkpoint_hint(path: &str) {
    if std::fs::metadata(path)
        .map(|m| m.len() > 0)
        .unwrap_or(false)
    {
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
        if flags.given("connect") {
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
        let (ds, k, shared) = serve_dataset(flags)?;
        println!(
            "dataset {} — n = {}, d = {}, k = {k}",
            ds.name,
            ds.n(),
            ds.d()
        );
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
            CrawlError::Db { error, partial } => println!(
                "stopped: {error} — {} tuples salvaged in {} queries",
                partial.tuples.len(),
                partial.queries
            ),
        }
        if let Some(path) = checkpoint {
            checkpoint_hint(path);
        }
        Ok(())
    }
}

/// `hdc crawl`: one builder run on the shard pool, whatever the
/// transport. A fresh crawl's plan comes from `--sessions` and
/// `--oversubscribe`; one session at factor 1 is the whole space,
/// crawled by the strategy's own solo crawler. A resume crawls its
/// checkpoint's plan.
fn cmd_crawl(flags: &Flags) -> Result<(), String> {
    let sessions: usize = flags.at_least("sessions", 1)?;
    let oversubscribe: usize = flags.at_least("oversubscribe", 1)?;
    let budget: Option<u64> = flags.opt("budget")?;
    let target = flags.opt::<u64>("target")?.filter(|&t| t > 0);
    let retries: u32 = flags.at_least("retries", 1)?;
    let checkpoint = flags.get("resume").or_else(|| flags.get("checkpoint"));
    let saved = match checkpoint {
        Some(path) => JsonFileRepository::new(path)
            .load()
            .map_err(|e| format!("checkpoint {path}: {e}"))?,
        None => None,
    };
    if let (Some(path), None) = (flags.get("resume"), &saved) {
        return Err(format!("--resume {path}: no checkpoint file found"));
    }
    if let (Some(path), Some(_)) = (flags.get("checkpoint"), &saved) {
        // A saved checkpoint is resumed, so it refuses what --resume
        // does, bar the --checkpoint that names it.
        let refused = flags.flag("resume").refuses.iter();
        let mut refused = refused.filter(|(o, _)| *o != "checkpoint" && flags.given(o));
        if let Some((other, why)) = refused.next() {
            return Err(format!(
                "--{other} is not read when --checkpoint {path} holds a checkpoint: {why} \
                 (resume it with --resume {path})"
            ));
        }
    }
    let algo = flags.require("algo")?;
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
    // The builder panics on an unsupported combination; ask first, of
    // the plan it will crawl.
    let plan = Sharded::plan_for(schema, saved.as_ref(), sessions, oversubscribe)?;
    let solo = plan == [ShardSpec::whole(schema)];
    if solo && !strategy.supports(schema) {
        return Err(format!(
            "{algo} does not support the {} schema",
            source.name
        ));
    }
    if !solo && !strategy.supports_sharded(schema) {
        return Err(format!(
            "{algo} has no sharded execution on the {} schema (use auto, hybrid, \
             rank-shrink on numeric, or lazy-slice-cover on categorical data)",
            source.name
        ));
    }
    let use_oracle = flags.given("oracle");
    if use_oracle && algo == "slice-cover" {
        return Err("\"slice-cover\" does not support --oracle".into());
    }

    let mut observer = CliObserver::new(target);
    if flags.given("live") {
        observer = observer.live();
    }
    let oracle;
    let mut repository;
    let mut builder = Crawl::builder()
        .strategy(strategy)
        .sessions(sessions)
        .oversubscribe(oversubscribe)
        .observer(&mut observer);
    if let Some(budget) = budget {
        builder = builder.budget(budget);
    }
    if retries > 1 {
        builder = builder.retry(RetryPolicy::new(retries));
    }
    if use_oracle {
        let truth = source.truth.clone();
        oracle = DatasetOracle::new(truth.expect("--connect refuses --oracle"));
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
        "plan: {} shard(s) over {sessions} session(s), busiest session {} queries",
        report.shards.len(),
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
    let sessions: usize = flags.at_least("sessions", 1)?;
    let oversubscribe: usize = flags.at_least("oversubscribe", 1)?;
    let source = Source::open(flags)?;
    let mut observer = CliObserver::new(None);
    if flags.given("live") {
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
        "sharded barrier over {} sessions ({} shards): \
         {} total queries, {} tuples, busiest session {}",
        sharded.per_session.len(),
        sharded.shards.len(),
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
    let timeout_ms: u64 = flags.at_least("timeout-ms", 1)?;
    let retire: u32 = flags.at_least("retire-after", 1)?;
    let rate = match flags.opt::<f64>("qps")? {
        Some(qps) if !(qps > 0.0 && qps.is_finite()) => {
            return Err("--qps must be a positive, finite rate".into())
        }
        Some(qps) if flags.given("burst") => Some((qps, flags.at_least("burst", 1.0)?)),
        Some(qps) => Some((qps, qps.max(1.0))),
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
    let addr = flags.require("addr")?;
    let budget = flags.opt::<u64>("budget")?.filter(|&b| b > 0);
    let fault_rate: f64 = flags.value("fault-rate")?;
    let fault_seed: u64 = flags.value("fault-seed")?;
    let stall_ms: u64 = flags.value("fault-stall-ms")?;
    let verbose = flags.given("verbose");
    let metrics_log = flags.get("metrics-log");
    let metrics_interval_ms: u64 = flags.at_least("metrics-interval-ms", 50)?;
    let coordinate = flags.given("coordinate");
    let sessions: usize = flags.at_least("sessions", 1)?;
    let oversubscribe: usize = flags.at_least("oversubscribe", 1)?;
    let lease_ttl_ms: u64 = flags.at_least("lease-ttl-ms", 1)?;
    let checkpoint = flags.get("checkpoint");
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err("--fault-rate must be within 0..=1".into());
    }
    let (ds, k, shared) = serve_dataset(flags)?;

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
            checkpoint: checkpoint.map(std::path::PathBuf::from),
            verbose,
        };
        let (coordinator, restore) =
            Coordinator::new(plan, cfg).map_err(|e| format!("--coordinate: {e}"))?;
        if let Restore::Resumed { complete } = restore {
            println!("resumed fleet checkpoint: {complete} shard(s) already complete");
        }
        Some(std::sync::Arc::new(coordinator))
    } else {
        None
    };

    let opts = ServeOptions {
        budget,
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
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
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
    let logger = match metrics_log {
        None => None,
        Some(path) => {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("--metrics-log {path}: {e}"))?;
            let stop = std::sync::Arc::clone(&log_stop);
            let interval = Duration::from_millis(metrics_interval_ms);
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
        report_fleet(c, &ds.tuples, checkpoint)?;
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
    let url = flags.require("join")?;
    let name = flags.require("name")?;
    let retries: u32 = flags.at_least("retries", 1)?;
    let connector = make_connector(flags, "join")?;
    let mut lease = WireLeaseRepository::connect(url).map_err(|e| format!("--join {url}: {e}"))?;
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
        name: name.to_string(),
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
    let algos: Vec<&str> = flags.require("algos")?.split(',').collect();
    let ks: Vec<usize> = flags
        .require("ks")?
        .split(',')
        .map(|s| match s.parse() {
            Ok(0) => Err("--ks values must be ≥ 1".to_string()),
            Ok(k) => Ok(k),
            Err(e) => Err(format!("bad k {s:?}: {e}")),
        })
        .collect::<Result<_, String>>()?;
    let seed: u64 = flags.value("seed")?;
    let ds = load_dataset(flags.require("dataset")?, flags.value("scale")?, seed)?;

    println!("dataset {} — n = {}, d = {}", ds.name, ds.n(), ds.d());
    let mut header: Vec<String> = vec!["k".into(), "ideal n/k".into()];
    header.extend(algos.iter().map(|a| a.to_string()));
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

/// `hdc hard numeric`: the §4 numeric lower-bound instance, crawled by
/// rank-shrink between its lower and upper bounds.
fn cmd_hard_numeric(flags: &Flags) -> Result<(), String> {
    let k: usize = flags.at_least("k", 1)?;
    let d: usize = flags.at_least("d", 1)?;
    let m: usize = flags.at_least("m", 1)?;
    let ds = hard::numeric_hard(k, d, m);
    let mut db = hard_server(&ds, k, flags)?;
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

/// `hdc hard categorical`: the §4 categorical lower-bound instance,
/// crawled by lazy slice-cover between its lower and upper bounds.
fn cmd_hard_categorical(flags: &Flags) -> Result<(), String> {
    let k: usize = flags.at_least("k", 1)?;
    // Each group's odd value (i+1) mod u must differ from i.
    let u: u32 = flags.at_least("u", 2)?;
    let ds = hard::categorical_hard(k, u);
    let d = 2 * k;
    let mut db = hard_server(&ds, k, flags)?;
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

/// Serves a hard instance at page size `k` and `--seed`.
fn hard_server(ds: &Dataset, k: usize, flags: &Flags) -> Result<HiddenDbServer, String> {
    let seed = flags.value("seed")?;
    Ok(HiddenDbServer::new(
        ds.schema.clone(),
        ds.tuples.clone(),
        ServerConfig { k, seed },
    )
    .expect("valid dataset"))
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

    /// `hdc crawl`'s flags, parsed from `args`.
    fn flags(args: &[&str]) -> Flags {
        let line = argv(&[&["crawl"], args].concat());
        let (cmd, rest) = command(&line).unwrap();
        parse_flags(cmd, rest).unwrap()
    }

    #[test]
    fn flag_parsing() {
        let f = flags(&["--k", "256", "--dataset", "yahoo", "--oracle"]);
        assert_eq!(f.get("k"), Some("256"));
        assert_eq!(f.require("dataset").unwrap(), "yahoo");
        assert_eq!(f.get("oracle"), Some("true"));
        assert_eq!(f.value::<usize>("k").unwrap(), 256);
        // A flag not given reads its table default, or nothing.
        assert_eq!(f.value::<u64>("seed").unwrap(), 42);
        assert_eq!(f.opt::<u64>("budget").unwrap(), None);
        assert!(f.require("budget").is_err());
    }

    #[test]
    fn flag_errors() {
        assert!(run(&argv(&["crawl", "stray"])).is_err());
        assert!(run(&argv(&["crawl", "--k"])).is_err());
        let f = flags(&["--k", "abc"]);
        assert!(f.value::<usize>("k").is_err());
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
        // A serve knob is read only with the flag it refines: the plan
        // flags size only a coordinator's plan, the fault knobs shape
        // only injected faults, and the interval only the metrics log.
        for (flag, need) in [
            ("sessions", "coordinate"),
            ("oversubscribe", "coordinate"),
            ("lease-ttl-ms", "coordinate"),
            ("checkpoint", "coordinate"),
            ("fault-seed", "fault-rate"),
            ("fault-stall-ms", "fault-rate"),
            ("metrics-interval-ms", "metrics-log"),
        ] {
            let err = run(&argv(&[
                "serve",
                "--dataset",
                "yahoo",
                &format!("--{flag}"),
                "4",
            ]));
            assert_eq!(
                err.unwrap_err(),
                format!("--{flag} is read only with --{need}")
            );
        }
        // A resume crawls its checkpoint's plan and names its file once.
        for (flag, why) in [
            ("--oversubscribe 8", "the plan comes from the checkpoint"),
            (
                "--checkpoint c.json",
                "both name the checkpoint file; pass one",
            ),
        ] {
            let line = format!("crawl --dataset yahoo --resume c.json {flag}");
            let err = run(&argv(&line.split(' ').collect::<Vec<_>>())).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert_eq!(err, format!("{name} is not read with --resume: {why}"));
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
        let err = run(&argv(&[
            "crawl",
            "--connect",
            "http://127.0.0.1:9",
            "--oracle",
        ]));
        let err = err.unwrap_err();
        assert!(
            err.starts_with("--oracle is not read with --connect"),
            "{err}"
        );
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
            "serve --dataset yahoo --metrics-log m.jsonl --metrics-interval-ms 10",
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
            "crawl --dataset yahoo --algo auto --k 256 --resume c.json",
            "serve --dataset yahoo --scale 20 --k 128 --addr 127.0.0.1:7171 --verbose",
            "crawl --connect http://127.0.0.1:7171 --sessions 4",
            "stop --connect http://127.0.0.1:7171",
            "serve --dataset yahoo --scale 10 --k 128 --addr 127.0.0.1:7172 --fault-rate 1.0",
            "crawl --connect http://127.0.0.1:7172 --retries 2",
            "serve --dataset yahoo --scale 20 --k 128 --addr 127.0.0.1:7173 --budget 100",
            "crawl --connect http://127.0.0.1:7173 --sessions 2 --oversubscribe 8 --checkpoint c",
            "crawl --connect http://127.0.0.1:7174 --sessions 2 --resume c",
            "crawl --dataset yahoo --scale 20 --k 128 --sessions 3 --resume c",
            "serve --dataset yahoo --scale 5 --k 64 --addr 127.0.0.1:7180 --coordinate \
             --sessions 2 --oversubscribe 2 --lease-ttl-ms 1500 --checkpoint c",
            "work --join http://127.0.0.1:7180 --name victim --qps 8",
            "work --join http://127.0.0.1:7180 --name survivor",
            // README.md
            "barrier --dataset yahoo --k 256 --scale 10",
            "crawl --dataset yahoo --k 256 --oversubscribe 8 --checkpoint run.json",
            "crawl --dataset yahoo --k 256 --sessions 2 --resume run.json",
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
            let args = argv(&line.split_whitespace().collect::<Vec<_>>());
            if let Err(e) = command(&args).and_then(|(cmd, rest)| parse_flags(cmd, rest)) {
                panic!("{line}: {e}");
            }
        }
    }

    #[test]
    fn last_flag_wins() {
        let f = flags(&["--k", "1", "--k", "2"]);
        assert_eq!(f.value::<usize>("k").unwrap(), 2);
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
    /// the rest on two sessions, reading the plan from the checkpoint.
    /// (The default one-shard plan banks only a finished crawl.) A plan
    /// flag is not read on a resume, and the algorithm must crawl the
    /// checkpoint's plan: each is an `Err` before any query.
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
        let crawl = |flags: &str| {
            let line = format!("crawl --dataset yahoo --scale 2 {flags}");
            run(&argv(&line.split(' ').collect::<Vec<_>>()))
        };
        crawl(&format!(
            "--oversubscribe 8 --budget 60 --checkpoint {path}"
        ))
        .unwrap();
        let first = banked();
        assert!(
            (1..8).contains(&first),
            "the budget interrupted the plan: {first}"
        );
        let err = crawl(&format!("--oversubscribe 8 --checkpoint {path}")).unwrap_err();
        assert!(
            err.starts_with("--oversubscribe is not read when --checkpoint")
                && err.ends_with(&format!("(resume it with --resume {path})")),
            "{err}"
        );
        let err = crawl(&format!("--algo dfs --resume {path}")).unwrap_err();
        assert!(err.starts_with("dfs has no sharded execution"), "{err}");
        assert_eq!(banked(), first, "the refusals crawled nothing");
        crawl(&format!("--sessions 2 --resume {path}")).unwrap();
        assert_eq!(banked(), 8, "the resume completed every shard");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
    }
}
