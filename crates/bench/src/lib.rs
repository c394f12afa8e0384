//! Shared harness for the figure-regeneration benchmarks.
//!
//! Every bench target under `benches/` reproduces one artifact of the
//! paper's evaluation (§6) or lower-bound section (§4): it builds the
//! synthetic dataset, serves it through the simulator, runs the paper's
//! algorithms, prints the same rows/series the paper plots, dumps a CSV
//! under `target/figures/`, and checks the qualitative *shape* claims
//! (who wins, scaling behaviour, crossovers) that must transfer from the
//! paper to the synthetic stand-ins. Absolute query counts depend on the
//! data generator and are printed, not asserted. Under `HDC_STRICT=1` a
//! failed shape check panics; CI runs the programs whose checks all pass
//! that way.
//!
//! The repo's wall-time benchmark is `perfbench/`. The one `src/bin`
//! program here, `bench_obs`, writes the telemetry-overhead record
//! `BENCH_pr9.json` through [`BenchRun`]: it parses `--quick` and
//! `BENCH_OUT`, collects record-time claims, and writes a [`Field`]
//! record (built with [`obj!`]). Every other `BENCH_pr*.json` at the
//! repo root is a frozen record that no program writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use hdc_core::{verify_complete, CrawlError, CrawlReport, Crawler};
use hdc_data::Dataset;
use hdc_server::{HiddenDbServer, ServerConfig};

pub mod refdata;

/// Serves a dataset through the simulator.
pub fn serve(ds: &Dataset, k: usize, seed: u64) -> HiddenDbServer {
    HiddenDbServer::new(
        ds.schema.clone(),
        ds.tuples.clone(),
        ServerConfig { k, seed },
    )
    .expect("generated datasets are schema-valid")
}

/// A completed measurement: the crawl report plus wall time.
pub struct Measurement {
    /// The crawl report (queries, tuples, progress).
    pub report: CrawlReport,
    /// Wall-clock seconds for the whole crawl (simulator included).
    pub secs: f64,
}

/// Runs a crawler against a dataset and verifies completeness; panics on
/// an incomplete crawl (a bench must never silently publish wrong data).
pub fn crawl(crawler: &dyn Crawler, ds: &Dataset, k: usize, seed: u64) -> Measurement {
    let mut db = serve(ds, k, seed);
    let start = Instant::now();
    let report = crawler
        .crawl(&mut db)
        .unwrap_or_else(|e| panic!("{} failed on {} (k={k}): {e}", crawler.name(), ds.name));
    let secs = start.elapsed().as_secs_f64();
    verify_complete(&ds.tuples, &report)
        .unwrap_or_else(|e| panic!("{} incomplete on {} (k={k}): {e}", crawler.name(), ds.name));
    Measurement { report, secs }
}

/// Runs a crawler expecting the crawl to be infeasible (for the Yahoo
/// k = 64 gap of Figure 12). Returns the partial report.
pub fn crawl_expect_unsolvable(
    crawler: &dyn Crawler,
    ds: &Dataset,
    k: usize,
    seed: u64,
) -> CrawlReport {
    let mut db = serve(ds, k, seed);
    match crawler.crawl(&mut db) {
        Err(CrawlError::Unsolvable { partial, .. }) => *partial,
        Err(e) => panic!(
            "{} failed for the wrong reason on {}: {e}",
            crawler.name(),
            ds.name
        ),
        Ok(r) => panic!(
            "{} unexpectedly succeeded on {} at k={k} ({} queries)",
            crawler.name(),
            ds.name,
            r.queries
        ),
    }
}

/// A plain-text column-aligned table, printed to stdout and convertible
/// to CSV.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringifying each cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        println!("\n=== {} ===", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Writes the table as `target/figures/<name>.csv` (workspace-level
    /// `target/`), so plots can be regenerated outside Rust.
    pub fn write_csv(&self, name: &str) {
        let dir = figures_dir();
        fs::create_dir_all(&dir).expect("create target/figures");
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        fs::write(&path, out).expect("write CSV");
        println!("[csv] {}", path.display());
    }
}

/// `<workspace>/target/figures`.
pub fn figures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures")
}

/// Accumulates qualitative shape checks and prints a PASS/FAIL summary.
///
/// Checks are non-fatal by default (benches should keep producing data
/// even when a shape drifts); set `HDC_STRICT=1` to turn failures into
/// panics (CI mode).
#[derive(Default)]
pub struct ShapeChecks {
    passed: usize,
    failures: Vec<String>,
}

impl ShapeChecks {
    /// A fresh checker.
    pub fn new() -> Self {
        ShapeChecks::default()
    }

    /// Records one expectation.
    pub fn check(&mut self, label: &str, ok: bool) {
        if ok {
            self.passed += 1;
            println!("  [shape PASS] {label}");
        } else {
            self.failures.push(label.to_string());
            println!("  [shape FAIL] {label}");
        }
    }

    /// Prints the summary; panics on failures when `HDC_STRICT=1`.
    pub fn finish(self) {
        let total = self.passed + self.failures.len();
        println!("\nshape checks: {}/{} passed", self.passed, total);
        if !self.failures.is_empty() {
            println!("failed: {:?}", self.failures);
            if std::env::var("HDC_STRICT").as_deref() == Ok("1") {
                panic!("shape checks failed in strict mode");
            }
        }
    }
}

/// One value of a bench record.
#[derive(Debug)]
pub enum Field {
    /// An integer.
    Int(i128),
    /// A real printed with a fixed number of decimals (`null` if not finite).
    Fixed(f64, usize),
    /// `true` / `false`.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    List(Vec<Field>),
    /// An object, keys in insertion order.
    Obj(Vec<(&'static str, Field)>),
}

/// Builds a [`Field::Obj`]: `obj! {"k" => 128, "rows" => rows}`.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::Field::Obj(vec![$(($key, $crate::Field::from($value))),*])
    };
}

macro_rules! field_from {
    ($($t:ty => $variant:ident($conv:expr)),*) => {$(
        impl From<$t> for Field {
            fn from(v: $t) -> Self {
                Field::$variant($conv(v))
            }
        }
    )*};
}
field_from!(u32 => Int(i128::from), u64 => Int(i128::from),
    u128 => Int(|v| v as i128), usize => Int(|v| v as i128), bool => Bool(|v| v),
    &str => Str(str::to_string), String => Str(|v| v));

impl<T: Into<Field>> From<Vec<T>> for Field {
    fn from(items: Vec<T>) -> Self {
        Field::List(items.into_iter().map(Into::into).collect())
    }
}

impl Field {
    /// Compact JSON, strings escaped with [`hdc_json::quote`]:
    /// `{"a": 1, "b": [2, 3]}`.
    pub fn json(&self) -> String {
        match self {
            Field::Int(v) => v.to_string(),
            Field::Fixed(v, decimals) if v.is_finite() => format!("{v:.decimals$}"),
            Field::Fixed(..) => "null".to_string(),
            Field::Bool(v) => v.to_string(),
            Field::Str(s) => hdc_json::quote(s),
            Field::List(items) => {
                format!(
                    "[{}]",
                    items.iter().map(Field::json).collect::<Vec<_>>().join(", ")
                )
            }
            Field::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", hdc_json::quote(k), v.json()))
                    .collect();
                format!("{{{}}}", fields.join(", "))
            }
        }
    }
}

/// One `bench_obs` run: the `--quick` flag, the record path
/// (`BENCH_OUT`, else `BENCH_prN.json`) and the record-time claims.
pub struct BenchRun {
    /// `--quick`: a smoke-sized run.
    pub quick: bool,
    pr: u32,
    out: String,
    failed: Vec<String>,
}

impl BenchRun {
    /// Reads `--quick` and `BENCH_OUT` for the bench that records
    /// `BENCH_pr<pr>.json`.
    pub fn start(pr: u32) -> Self {
        BenchRun {
            quick: std::env::args().any(|a| a == "--quick"),
            pr,
            out: std::env::var("BENCH_OUT").unwrap_or_else(|_| format!("BENCH_pr{pr}.json")),
            failed: Vec::new(),
        }
    }

    /// Checks one record-time claim. A false claim is logged now and
    /// fails the process once the record is written.
    pub fn claim(&mut self, ok: bool, what: impl Display) {
        if !ok {
            eprintln!("CLAIM FAILED: {what}");
            self.failed.push(what.to_string());
        }
    }

    /// Writes `record` (an [`obj!`]) after `schema_version` and `pr`,
    /// one top-level key per line and one line per element of an array
    /// of objects; then panics if any claim failed.
    pub fn finish(self, record: Field) {
        let Field::Obj(fields) = record else {
            panic!("a bench record is a JSON object");
        };
        let head = [("schema_version", Field::Int(1)), ("pr", self.pr.into())];
        let lines: Vec<String> = head
            .into_iter()
            .chain(fields)
            .map(|(key, value)| match value {
                Field::List(rows) if matches!(rows.first(), Some(Field::Obj(_))) => {
                    let rows: Vec<String> =
                        rows.iter().map(|r| format!("    {}", r.json())).collect();
                    format!("  {}: [\n{}\n  ]", hdc_json::quote(key), rows.join(",\n"))
                }
                _ => format!("  {}: {}", hdc_json::quote(key), value.json()),
            })
            .collect();
        fs::write(&self.out, format!("{{\n{}\n}}\n", lines.join(",\n"))).expect("write BENCH json");
        eprintln!("wrote {}", self.out);
        assert!(
            self.failed.is_empty(),
            "record-time claims failed: {:?}",
            self.failed
        );
    }
}

/// Formats a ratio like `3.94×`.
pub fn ratio(a: u64, b: u64) -> String {
    if b == 0 {
        "∞".to_string()
    } else {
        format!("{:.2}×", a as f64 / b as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::RankShrink;
    use hdc_data::hard;

    #[test]
    fn crawl_helper_verifies_completeness() {
        let ds = hard::numeric_hard(4, 2, 5);
        let m = crawl(&RankShrink::new(), &ds, 4, 0);
        assert_eq!(m.report.tuples.len(), ds.n());
        assert!(m.secs >= 0.0);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yy"]);
        t.print();
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn shape_checks_count() {
        let mut c = ShapeChecks::new();
        c.check("ok", true);
        c.check("bad", false);
        assert_eq!(c.passed, 1);
        assert_eq!(c.failures.len(), 1);
    }

    fn temp_run(name: &str) -> BenchRun {
        let out =
            std::env::temp_dir().join(format!("hdc-bench-{name}-{}.json", std::process::id()));
        BenchRun {
            quick: true,
            pr: 0,
            out: out.display().to_string(),
            failed: Vec::new(),
        }
    }

    #[test]
    fn record_round_trips_through_the_json_parser() {
        let run = temp_run("roundtrip");
        let out = run.out.clone();
        run.finish(obj! {
            "description" => r#"a "quoted" \ path"#,
            "nested" => obj! {"hist" => vec![3u64, 0, 7], "k" => 128usize},
            "rows" => vec![obj! {"n" => 1u64, "ok" => true}, obj! {"n" => 2u64, "ok" => false}],
        });
        let text = fs::read_to_string(&out).unwrap();
        fs::remove_file(&out).unwrap();
        let want = r#"{"schema_version": 1, "pr": 0, "description": "a \"quoted\" \\ path",
            "nested": {"hist": [3, 0, 7], "k": 128},
            "rows": [{"n": 1, "ok": true}, {"n": 2, "ok": false}]}"#;
        let got = hdc_json::parse(&text).unwrap();
        assert_eq!(got, hdc_json::parse(want).unwrap());
        assert_eq!(
            got.get("description").unwrap().as_str(),
            Some(r#"a "quoted" \ path"#)
        );
    }

    #[test]
    fn fixed_fields_keep_their_decimals() {
        let rec = obj! {"a" => Field::Fixed(1.5, 3), "b" => Field::Fixed(f64::NAN, 1)};
        assert_eq!(rec.json(), r#"{"a": 1.500, "b": null}"#);
    }

    #[test]
    fn failed_claim_fails_the_run_after_recording() {
        let mut run = temp_run("claim");
        let out = run.out.clone();
        run.claim(true, "holds");
        run.claim(false, "does not hold");
        let finished = std::panic::catch_unwind(move || run.finish(obj! {"k" => 1u64}));
        let written = fs::remove_file(&out);
        assert!(finished.is_err(), "a failed claim must fail the run");
        assert!(
            written.is_ok(),
            "the record is written before the run fails"
        );
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(10, 4), "2.50×");
        assert_eq!(ratio(1, 0), "∞");
    }
}
