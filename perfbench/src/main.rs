//! The repository's end-to-end crawl benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solo_large|wire_skewed|fleet_wire> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds its workload's store from the seed (several times, to
//! time set-up), checks that the benchmark's wrappers are inert on a
//! small copy, computes the in-process reference cost, then crawls in a
//! closed loop for `--seconds`. Every timed crawl is verified: the bag
//! must equal the store's and the charged cost must equal the
//! reference. The last line of standard output is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Any failed crawl makes the run exit non-zero without
//! publishing a number. `metrics.json` beside this package maps every
//! metric to its layer and to the end-to-end metric it should move.

mod layers;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hdc_core::{verify_complete, CrawlReport};
use hdc_net::json::{self, Json};
use hdc_types::Tuple;

use crate::workloads::{Crawled, Workload};

/// Set-ups per run, `setup_s` being their median: at least `SETUPS.0`,
/// then more while they have taken under `SETUP_BUDGET`, at most
/// `SETUPS.1`.
const SETUPS: (usize, usize) = (3, 50);
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Timed crawls (untraced run) or rounds (traced run) per run, at least,
/// however short `--seconds` is.
const MIN_CRAWLS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One metric as `metrics.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub layer: String,
    pub moves: String,
    pub workload: String,
}

/// The metric map: every metric the benchmark prints, in order.
pub struct Spec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let doc = json::parse(include_str!("../metrics.json"))
            .map_err(|e| format!("metrics.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let items = doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("metrics.json: no {key} list"))?;
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    let spec = MetricSpec {
                        name: field("name"),
                        unit: field("unit"),
                        layer: field("layer"),
                        moves: field("moves"),
                        workload: field("workload"),
                    };
                    if spec.name.is_empty() || spec.unit.is_empty() {
                        return Err(format!("metrics.json: {key} entry without name or unit"));
                    }
                    Ok(spec)
                })
                .collect()
        };
        Ok(Spec {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// Crawls attempted and failed over the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Checks one crawl: it finished, its bag is the store's, and it charged
/// the reference cost. A crawl that fails any of these is counted and
/// dropped, so none of its numbers is ever used.
fn verified(
    tally: &mut Tally,
    expected: &[Tuple],
    reference: u64,
    what: &str,
    crawled: Result<Crawled, String>,
) -> Option<Crawled> {
    tally.attempted += 1;
    let problem = match &crawled {
        Err(e) => Some(e.clone()),
        Ok(c) => check(expected, reference, &c.report).err(),
    };
    match problem {
        Some(p) => {
            tally.failed += 1;
            eprintln!("perfbench: {what} crawl #{} failed: {p}", tally.attempted);
            None
        }
        None => {
            let mut c = crawled.ok()?;
            c.report.tuples = Vec::new();
            Some(c)
        }
    }
}

fn check(expected: &[Tuple], reference: u64, report: &CrawlReport) -> Result<(), String> {
    verify_complete(expected, report).map_err(|e| e.to_string())?;
    if report.queries != reference {
        return Err(format!(
            "charged {} queries, reference is {reference}",
            report.queries
        ));
    }
    Ok(())
}

/// The inertness self-test: on a small copy of the workload, a crawl
/// through the benchmark's wrappers returns the same bag at the same
/// charged cost as the same crawl without them.
fn self_test(name: &str, seed: u64) -> Result<(), String> {
    let mut w = workloads::setup_small(name, seed)?;
    let (plain_tuples, plain_cost) = w.plain()?;
    let wrapped = w.crawl(true)?;
    let same_bag = hdc_types::TupleBag::from_tuples(plain_tuples).multiset_eq(
        &hdc_types::TupleBag::from_tuples(wrapped.report.tuples.iter().cloned()),
    );
    if !same_bag || wrapped.report.queries != plain_cost {
        return Err(format!(
            "wrappers are not inert on {name}: wrapped crawl charged {} (plain {plain_cost}), \
             same bag: {same_bag}",
            wrapped.report.queries
        ));
    }
    Ok(())
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile (`q` in `[0, 1]`); 0 on no samples.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Every data-call duration of a crawl, in nanoseconds.
fn call_durations(c: &Crawled) -> impl Iterator<Item = f64> + '_ {
    c.conns
        .iter()
        .flat_map(|r| r.calls.iter().map(|call| call.dur as f64))
}

/// The untraced run: whole crawls and the crawler-facing round trip.
fn end_to_end(
    w: &mut dyn Workload,
    reference: u64,
    seconds: u64,
    setup_s: &mut [f64],
    tally: &mut Tally,
) -> Result<BTreeMap<String, Option<f64>>, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut walls = Vec::new();
    let mut rts = Vec::new();
    let mut charged = 0u64;
    while Instant::now() < deadline || (tally.attempted as usize) < MIN_CRAWLS {
        let crawled = w.crawl(false);
        if let Some(c) = verified(tally, w.expected(), reference, "timed", crawled) {
            walls.push(ms(c.wall));
            charged += c.report.queries;
            rts.extend(call_durations(&c));
        }
    }
    let wall_s: f64 = walls.iter().sum::<f64>() / 1e3;
    eprintln!(
        "perfbench: {} verified crawls, {} round trips timed ({} beyond p99)",
        walls.len(),
        rts.len(),
        rts.len() / 100
    );
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: f64| out.insert(name.to_string(), Some(v));
    put("crawl_ms_p50", median(&mut walls));
    put("charged_qps", charged as f64 / wall_s);
    put("charged_queries", reference as f64);
    put("rt_us_p50", percentile(&mut rts, 0.5) / 1e3);
    put("rt_us_p99", percentile(&mut rts, 0.99) / 1e3);
    put("setup_s", median(setup_s));
    put("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// The traced run: rounds of one untraced crawl, one traced crawl (with
/// `hdc-obs` switched on), and one crawl of the same plan in process.
fn traced(
    w: &mut dyn Workload,
    args: &Args,
    reference: u64,
    tally: &mut Tally,
) -> Result<BTreeMap<String, Option<f64>>, String> {
    hdc_obs::registry().reset();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain = Vec::new();
    let mut spans = Vec::new();
    let mut local = Vec::new();
    let mut rounds = 0;
    while Instant::now() < deadline || rounds < MIN_CRAWLS {
        rounds += 1;
        hdc_obs::set_enabled(false);
        let crawled = w.crawl(false);
        if let Some(c) = verified(tally, w.expected(), reference, "untraced", crawled) {
            plain.push(c.wall);
        }
        // Only the first traced crawl keeps its round trips, for the
        // codec timings of the wire workloads.
        hdc_obs::set_enabled(true);
        let crawled = w.crawl(w.wire() && spans.is_empty());
        if let Some(c) = verified(tally, w.expected(), reference, "traced", crawled) {
            spans.push(c);
        }
        hdc_obs::set_enabled(false);
        if let Some(crawled) = w.in_process().transpose() {
            if let Some(c) = verified(tally, w.expected(), reference, "in-process", crawled) {
                local.push(c);
            }
        }
    }
    let factor_one = w.factor_one_cost()?;
    let path = layers::write_trace(&args.workload, args.seed, w.wire(), &spans)?;
    eprintln!("perfbench: {} traced crawls, spans in {path}", spans.len());
    let input = layers::Input {
        workload: &*w,
        reference,
        factor_one,
        plain: &plain,
        traced: &spans,
        local: &local,
    };
    layers::compute(&input)
}

/// Prints the result line: every metric of the run's list, by name,
/// with its unit. A metric that does not apply to the workload reads 0.
fn result_json(
    tally: &Tally,
    specs: &[MetricSpec],
    values: &BTreeMap<String, Option<f64>>,
) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|m| {
            let v = values.get(&m.name).copied().flatten().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(&m.name),
                json::quote(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let spec = Spec::load()?;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    hdc_obs::set_enabled(false);
    self_test(&args.workload, args.seed)?;

    let mut setup_s = Vec::new();
    let mut built = None;
    let setups = Instant::now();
    while setup_s.len() < SETUPS.0 || (setup_s.len() < SETUPS.1 && setups.elapsed() < SETUP_BUDGET)
    {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(workloads::setup(&args.workload, args.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    eprintln!("perfbench: {} set-ups timed", setup_s.len());
    let mut w = built.ok_or("no set-up ran")?;
    let reference = w.reference()?;
    // One verified warm-up crawl: lazy set-up and caches, untimed.
    let warm = w.crawl(false)?;
    check(w.expected(), reference, &warm.report)?;

    let mut tally = Tally::default();
    let (values, specs) = if args.trace {
        let values = traced(&mut *w, &args, reference, &mut tally)?;
        layers::print_table(&args.workload, &spec.per_layer, &values);
        (values, &spec.per_layer)
    } else {
        let values = end_to_end(&mut *w, reference, args.seconds, &mut setup_s, &mut tally)?;
        (values, &spec.end_to_end)
    };
    for m in specs {
        if !values.contains_key(&m.name) {
            return Err(format!(
                "metric {} declared in metrics.json but not measured",
                m.name
            ));
        }
    }
    drop(w);
    if tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} crawls failed verification; no result published",
            tally.failed, tally.attempted
        );
        return Ok(ExitCode::FAILURE);
    }
    println!("{}", result_json(&tally, specs, &values));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
