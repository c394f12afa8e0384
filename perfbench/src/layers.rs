//! Per-layer attribution of the traced run.
//!
//! Every number here comes from the benchmark's own spans (the calls
//! its wrappers timed), from the crawl reports, or from the `hdc-obs`
//! histograms and counters the stack already keeps, read after the run.
//! A metric that does not apply to the workload (no wire, no pool, no
//! lease server) is `None`: printed as `n/a`, published as 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use hdc_core::theory;
use hdc_net::proto;
use hdc_obs::{latency_bounds, registry, HistogramSnapshot, Unit};
use hdc_server::ServerStats;

use crate::probe::{Call, ControlCall, RoundTrip, Verb};
use crate::workloads::{Crawled, Workload};
use crate::{percentile, MetricSpec};

/// Passes over the recorded round trips when timing the codec.
const CODEC_PASSES: usize = 7;

pub struct Input<'a> {
    pub workload: &'a dyn Workload,
    pub reference: u64,
    pub factor_one: Option<u64>,
    /// Untraced crawl walls, ns.
    pub plain: &'a [u64],
    pub traced: &'a [Crawled],
    /// The same plan in process (or memory-leased).
    pub local: &'a [Crawled],
}

type Values = BTreeMap<String, Option<f64>>;

fn histogram(name: &str, label: Option<(&str, &str)>) -> HistogramSnapshot {
    registry()
        .histogram_with(name, label, "", latency_bounds(), Unit::Nanos)
        .snapshot()
}

fn counter(name: &str) -> f64 {
    registry().counter(name, "").get() as f64
}

fn median_ns(walls: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<f64> = walls.map(|w| w as f64).collect();
    percentile(&mut v, 0.5)
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn durations<'c>(calls: impl Iterator<Item = &'c Call>) -> Vec<f64> {
    calls.map(|c| c.dur as f64).collect()
}

fn sum_stats(crawls: &[Crawled]) -> Option<ServerStats> {
    let mut total: Option<ServerStats> = None;
    for s in crawls.iter().flat_map(|c| &c.conns).filter_map(|r| r.stats) {
        let t = total.get_or_insert_with(ServerStats::default);
        t.queries += s.queries;
        t.tuples_returned += s.tuples_returned;
        t.scan_evals += s.scan_evals;
        t.probe_evals += s.probe_evals;
        t.intersect_evals += s.intersect_evals;
    }
    total
}

/// Length of the union of `spans`, clipped to `[lo, hi)`.
fn covered(mut spans: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in spans {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Each session's active window: its first to its last call, data and
/// control alike. Everything a session does between calls is the
/// crawler's own work (core).
fn windows(c: &Crawled) -> BTreeMap<usize, (u64, u64, u64)> {
    let mut w: BTreeMap<usize, (u64, u64, u64)> = BTreeMap::new();
    let calls = c
        .conns
        .iter()
        .flat_map(|r| r.calls.iter().map(move |call| (r.identity, call)))
        .chain(c.control.iter().map(|(i, cc)| (*i, &cc.call)));
    for (i, call) in calls {
        let e = w.entry(i).or_insert((u64::MAX, 0, 0));
        e.0 = e.0.min(call.start);
        e.1 = e.1.max(call.end());
        e.2 += call.dur;
    }
    w
}

/// Mean µs per round trip of the four `proto` functions, and response
/// bytes per tuple, over the recorded round trips. Each parse is checked
/// against what was sent or received.
fn codec(trips: &[&RoundTrip]) -> Result<[f64; 5], String> {
    if trips.is_empty() {
        return Err("traced crawl recorded no round trips".to_string());
    }
    let req = |t: &RoundTrip| {
        if t.batch {
            proto::batch_body(&t.queries)
        } else {
            proto::query_body(&t.queries[0])
        }
    };
    let resp = |t: &RoundTrip| {
        if t.batch {
            proto::batch_outcome_body(&t.outcomes)
        } else {
            proto::outcome_body(&t.outcomes[0])
        }
    };
    let reqs: Vec<String> = trips.iter().map(|t| req(t)).collect();
    let resps: Vec<String> = trips.iter().map(|t| resp(t)).collect();
    for ((t, rq), rs) in trips.iter().zip(&reqs).zip(&resps) {
        let (queries, outcomes) = if t.batch {
            (
                proto::parse_batch_body(rq).map_err(|e| e.to_string())?,
                proto::parse_batch_outcome_body(rs, t.outcomes.len()).map_err(|e| e.to_string())?,
            )
        } else {
            (
                vec![proto::parse_query_body(rq).map_err(|e| e.to_string())?],
                vec![proto::parse_outcome_body(rs).map_err(|e| e.to_string())?],
            )
        };
        if queries != t.queries || outcomes != t.outcomes {
            return Err("codec round trip changed a recorded query or outcome".to_string());
        }
    }
    let time = |f: &dyn Fn(usize)| {
        let mut passes: Vec<f64> = (0..CODEC_PASSES)
            .map(|_| {
                let t0 = Instant::now();
                for i in 0..trips.len() {
                    f(i);
                }
                t0.elapsed().as_secs_f64() * 1e6 / trips.len() as f64
            })
            .collect();
        percentile(&mut passes, 0.5)
    };
    let req_encode = time(&|i| {
        black_box(req(trips[i]));
    });
    let req_parse = time(&|i| {
        let t = &trips[i];
        if t.batch {
            let _ = black_box(proto::parse_batch_body(black_box(&reqs[i])));
        } else {
            let _ = black_box(proto::parse_query_body(black_box(&reqs[i])));
        }
    });
    let resp_encode = time(&|i| {
        black_box(resp(trips[i]));
    });
    let resp_parse = time(&|i| {
        let t = &trips[i];
        if t.batch {
            let _ = black_box(proto::parse_batch_outcome_body(
                black_box(&resps[i]),
                t.outcomes.len(),
            ));
        } else {
            let _ = black_box(proto::parse_outcome_body(black_box(&resps[i])));
        }
    });
    let bytes: usize = resps.iter().map(String::len).sum();
    let tuples: usize = trips
        .iter()
        .flat_map(|t| &t.outcomes)
        .map(|o| o.tuples.len())
        .sum();
    Ok([
        req_encode,
        req_parse,
        resp_encode,
        resp_parse,
        bytes as f64 / tuples.max(1) as f64,
    ])
}

pub fn compute(input: &Input<'_>) -> Result<Values, String> {
    let w = input.workload;
    let traced = input.traced;
    if traced.is_empty() {
        return Err("no traced crawl verified".to_string());
    }
    let runs = traced.len() as f64;
    let sessions = w.sessions() as f64;
    let wall_sum: f64 = traced.iter().map(|c| c.wall as f64).sum();
    let session_time = wall_sum * sessions;
    let charged: f64 = traced.iter().map(|c| c.report.queries as f64).sum();
    let data_calls: Vec<&Call> = traced
        .iter()
        .flat_map(|c| &c.conns)
        .flat_map(|r| &r.calls)
        .collect();
    let data_time: f64 = data_calls.iter().map(|c| c.dur as f64).sum();
    let controls: Vec<&ControlCall> = traced
        .iter()
        .flat_map(|c| &c.control)
        .map(|(_, cc)| cc)
        .collect();
    let engine_ns: f64 = ["scan", "probe", "intersect", "batch"]
        .iter()
        .map(|plan| histogram("hdc_engine_evaluate_seconds", Some(("plan", plan))).sum as f64)
        .sum();
    let request = histogram("hdc_wire_server_request_seconds", None);

    let mut v = Values::new();
    let mut put = |name: &str, value: Option<f64>| {
        v.insert(name.to_string(), value);
    };

    // server: in process, the time inside ServerClient calls; over the
    // wire, the engine's own evaluate histogram.
    let server_ns = if w.wire() { engine_ns } else { data_time };
    put("server.busy_share", ratio(server_ns, session_time));
    put("server.us_per_query", ratio(server_ns / 1e3, charged));
    let stats = sum_stats(traced).or_else(|| sum_stats(input.local));
    let plan = |f: fn(&ServerStats) -> u64| {
        stats.and_then(|s| {
            ratio(
                f(&s) as f64,
                (s.scan_evals + s.probe_evals + s.intersect_evals) as f64,
            )
        })
    };
    put(
        "server.tuples_per_query",
        stats.and_then(|s| ratio(s.tuples_returned as f64, s.queries as f64)),
    );
    put("server.scan_share", plan(|s| s.scan_evals));
    put("server.probe_share", plan(|s| s.probe_evals));
    put("server.intersect_share", plan(|s| s.intersect_evals));

    // net: client round trips against the server's request histogram.
    let wire = w.wire();
    let on_wire = |x: Option<f64>| if wire { x } else { None };
    let mut rts = durations(data_calls.iter().copied());
    put(
        "net.client_rt_us_p50",
        on_wire(Some(percentile(&mut rts, 0.5) / 1e3)),
    );
    put(
        "net.server_request_us_p50",
        on_wire(Some(request.quantile(0.5) / 1e3)),
    );
    put(
        "net.server_eval_share",
        on_wire(ratio(engine_ns, request.sum as f64)),
    );
    let joins: Vec<&Call> = traced
        .iter()
        .flat_map(|c| &c.joins)
        .map(|j| &j.call)
        .collect();
    let client_ns = data_time
        + controls.iter().map(|c| c.call.dur as f64).sum::<f64>()
        + joins.iter().map(|c| c.dur as f64).sum::<f64>();
    let client_rts = (data_calls.len() + controls.len() + joins.len()) as f64;
    put(
        "net.transport_us_per_rt",
        on_wire(
            ratio(client_ns, client_rts)
                .zip(ratio(request.sum as f64, request.count() as f64))
                .map(|(c, s)| (c - s) / 1e3),
        ),
    );
    let recorded: Vec<&RoundTrip> = traced
        .iter()
        .flat_map(|c| &c.conns)
        .flat_map(|r| &r.round_trips)
        .collect();
    let codec = if wire { Some(codec(&recorded)?) } else { None };
    for (i, name) in [
        "net.req_encode_us",
        "net.req_parse_us",
        "net.resp_encode_us",
        "net.resp_parse_us",
        "net.resp_bytes_per_tuple",
    ]
    .iter()
    .enumerate()
    {
        put(name, codec.map(|c| c[i]));
    }
    let connects: Vec<f64> = traced
        .iter()
        .flat_map(|c| &c.joins)
        .filter(|j| j.name == "connect")
        .map(|j| j.call.dur as f64 / 1e6)
        .collect();
    put(
        "net.connect_ms",
        on_wire(
            w.connect_ms()
                .or_else(|| ratio(connects.iter().sum(), connects.len() as f64)),
        ),
    );
    put(
        "net.wire_failures",
        on_wire(Some(counter("hdc_wire_client_wire_failures_total"))),
    );
    put(
        "net.reconnects",
        on_wire(Some(counter("hdc_wire_client_reconnects_total"))),
    );
    put(
        "net.timeouts",
        on_wire(Some(counter("hdc_wire_client_timeouts_total"))),
    );

    // core: the sessions' own time between calls, the pool, the cost.
    let (mut window_ns, mut busy_ns) = (0u64, 0u64);
    for c in traced {
        for (start, end, busy) in windows(c).into_values() {
            window_ns += end.saturating_sub(start);
            busy_ns += busy;
        }
    }
    put(
        "core.crawler_self_share",
        ratio(window_ns.saturating_sub(busy_ns) as f64, window_ns as f64),
    );
    put(
        "core.queries_per_rt",
        ratio(charged, data_calls.len() as f64),
    );
    let pools: Vec<_> = traced.iter().filter_map(|c| c.pool.as_ref()).collect();
    let idle: f64 = pools
        .iter()
        .map(|p| (0..p.workers).map(|i| p.idle(i).as_secs_f64()).sum::<f64>())
        .sum();
    let pool_time: f64 = pools
        .iter()
        .map(|p| p.wall.as_secs_f64() * p.workers as f64)
        .sum();
    put("core.pool_idle_share", ratio(idle, pool_time));
    put(
        "core.steals",
        (!pools.is_empty()).then(|| pools.iter().map(|p| p.steals() as f64).sum::<f64>() / runs),
    );
    let tails: Vec<f64> = traced
        .iter()
        .filter_map(|c| c.shard_ms.iter().copied().reduce(f64::max))
        .collect();
    put(
        "core.tail_shard_ms",
        ratio(tails.iter().sum(), tails.len() as f64),
    );
    put("core.shards", Some(w.shards() as f64));
    let schema = w.schema();
    let cats: Vec<u32> = schema
        .cat_indices()
        .into_iter()
        .filter_map(|a| schema.kind(a).domain_size())
        .collect();
    let n = w.expected().len() as f64;
    let bound = theory::hybrid_bound(
        &cats,
        schema.num_indices().len(),
        n,
        crate::workloads::K as f64,
    );
    put("core.cost_to_bound", ratio(input.reference as f64, bound));
    put(
        "core.overpartition_x",
        input
            .factor_one
            .and_then(|f| ratio(input.reference as f64, f as f64)),
    );
    put(
        "core.slice_cache_hits",
        Some(
            traced
                .iter()
                .map(|c| c.report.metrics.slice_cache_hits as f64)
                .sum::<f64>()
                / runs,
        ),
    );
    put("core.queries_per_tuple", ratio(input.reference as f64, n));

    // coord: the lease verbs, as the workers saw them.
    let leased = w.leased();
    let on_lease = |x: Option<f64>| if leased { x } else { None };
    let verb_p50 = |verb: Verb| {
        let mut d = durations(controls.iter().filter(|c| c.verb == verb).map(|c| &c.call));
        on_lease(Some(percentile(&mut d, 0.5) / 1e3))
    };
    put("coord.lease_us_p50", verb_p50(Verb::Lease));
    put("coord.heartbeat_us_p50", verb_p50(Verb::Heartbeat));
    put("coord.complete_us_p50", verb_p50(Verb::Complete));
    let control_ns: f64 = controls.iter().map(|c| c.call.dur as f64).sum();
    put(
        "coord.control_share",
        on_lease(ratio(control_ns, session_time)),
    );
    put(
        "coord.control_rts",
        on_lease(Some(controls.len() as f64 / runs)),
    );
    put(
        "coord.waits",
        on_lease(Some(
            traced.iter().map(|c| c.waits as f64).sum::<f64>() / runs,
        )),
    );
    put(
        "coord.lost_shards",
        on_lease(Some(
            traced.iter().map(|c| c.lost as f64).sum::<f64>() / runs,
        )),
    );

    // Reported-only gates, tracing overhead, and what no span covers.
    let plain_p50 = median_ns(input.plain.iter().copied());
    let local_p50 = median_ns(input.local.iter().map(|c| c.wall));
    let local_x = ratio(plain_p50, local_p50);
    put(
        "net.overhead_x",
        if wire && !leased { local_x } else { None },
    );
    put("coord.overhead_x", if leased { local_x } else { None });
    let traced_p50 = median_ns(traced.iter().map(|c| c.wall));
    put(
        "obs.tracing_overhead_pct",
        ratio(traced_p50, plain_p50).map(|x| (x - 1.0) * 100.0),
    );
    let mut uncovered = 0u64;
    for c in traced {
        let mut spans: Vec<(u64, u64)> = windows(c).into_values().map(|(s, e, _)| (s, e)).collect();
        spans.extend(c.joins.iter().map(|j| (j.call.start, j.call.end())));
        uncovered += c.wall - covered(spans, c.start, c.start + c.wall);
    }
    put(
        "bench.unattributed_share",
        ratio(uncovered as f64, wall_sum),
    );
    Ok(v)
}

/// Prints the traced run's layer table.
pub fn print_table(workload: &str, specs: &[MetricSpec], values: &Values) {
    println!("layer table: {workload}");
    println!(
        "{:<7} {:<27} {:>14} {:<8} {:<44} on",
        "layer", "metric", "value", "unit", "should move"
    );
    for m in specs {
        let value = match values.get(&m.name).copied().flatten() {
            Some(x) => format!("{x:.4}"),
            None => "n/a".to_string(),
        };
        println!(
            "{:<7} {:<27} {:>14} {:<8} {:<44} {}",
            m.layer, m.name, value, m.unit, m.moves, m.workload
        );
    }
}

/// Writes every traced crawl's spans, one JSON object a line, under
/// `out/` beside this package; returns the path.
pub fn write_trace(
    workload: &str,
    seed: u64,
    wire: bool,
    traced: &[Crawled],
) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.jsonl"));
    let written = std::fs::File::create(&path).and_then(|file| {
        let mut out = std::io::BufWriter::new(file);
        write_spans(&mut out, if wire { "net" } else { "server" }, traced)?;
        out.flush()
    });
    written.map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn write_spans(out: &mut impl Write, data_layer: &str, traced: &[Crawled]) -> std::io::Result<()> {
    let mut id = 0u64;
    let mut span = |out: &mut dyn Write,
                    parent: Option<u64>,
                    crawl: usize,
                    (layer, name): (&str, &str),
                    worker: usize,
                    call: &Call|
     -> std::io::Result<u64> {
        id += 1;
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"crawl\":{crawl},\"layer\":\"{layer}\",\
             \"name\":\"{name}\",\"worker\":{worker},\"start_ns\":{},\"dur_ns\":{},\"queries\":{}}}",
            call.start, call.dur, call.queries
        )?;
        Ok(id)
    };
    for (i, c) in traced.iter().enumerate() {
        let root = Call {
            start: c.start,
            dur: c.wall,
            queries: u32::try_from(c.report.queries).unwrap_or(u32::MAX),
        };
        let root = Some(span(out, None, i, ("bench", "crawl"), 0, &root)?);
        for (worker, (s, e, _)) in windows(c) {
            let window = Call {
                start: s,
                dur: e - s,
                queries: 0,
            };
            span(out, root, i, ("core", "session"), worker, &window)?;
        }
        for r in &c.conns {
            for call in &r.calls {
                span(out, root, i, (data_layer, "query"), r.identity, call)?;
            }
        }
        for (worker, cc) in &c.control {
            span(out, root, i, ("coord", cc.verb.name()), *worker, &cc.call)?;
        }
        for j in &c.joins {
            span(out, root, i, (j.layer, j.name), j.worker, &j.call)?;
        }
    }
    Ok(())
}
