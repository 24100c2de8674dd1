//! Every bench floor of this repository, as rows of one table.
//!
//! A floor is a [`Check`] — a named number with a unit and a [`Limit`] —
//! not a program. A *suite* measures one subsystem and returns its rows;
//! numbers it reports without gating are [`Limit::ReportOnly`] rows, so
//! the table is also everything an operator reads. [`run`] is the one
//! runner: it runs the requested suites, gives a suite with a failed row
//! **one** retry from scratch (every number here is wall-clock on a shared
//! host, where one co-tenant burst can blow any limit; a regression fails
//! both attempts), prints one table with each row's value in the previous
//! run beside it, writes `results/BENCH_gates.json`, appends the run to
//! `results/history.jsonl` and names every failed row on stderr.
//!
//! ```sh
//! cargo run --release -p sgfs-bench --bin gates -- [--quick] [--contract <file>] [suite…]
//! ```
//!
//! | suite      | floors |
//! |------------|--------|
//! | `obs`      | traced emit ≤ 50 ns, counting-only emit ≤ 10 ns, tracing ≤ 10 % of pipeline throughput |
//! | `journal`  | unsynced journal tax ≤ 1 000 µs/put, compaction fires |
//! | `scale`    | ≥ 1 000 sessions on shards + 4 threads, low-load p99 ≤ 2 × baseline, client-plane ceiling and teardown |
//! | `stripe`   | width-4 read ≥ 2 ×, both replica verifiers confirmed, every block on every replica |
//! | `slo`      | per-procedure p99/p999 under a 4 × storm, storm real, all answered, backlog bounded, drained |
//! | `crypto`   | dispatched AES ≥ 5 × the scalar reference, both directions |
//! | `pipeline` | window 8 ≥ 2 × window 1 at 20 ms |
//! | `wan`      | quick PostMark at 5 and 40 ms: LOOKUP, CREATE and REMOVE never cross the WAN, MKDIR and RMDIR once per directory; the fit `runtime = fixed + n × RTT` |
//! | `contract` | floors on numbers `benchmark/` already prints ([`contract`]): AEAD ≥ 1.1 × CBC, hardware GCM ≥ 2 000 MiB/s, ≤ 10 context switches per call |

mod contract;
mod crypto;
mod journal;
mod mock;
mod obs;
mod pipeline;
mod scale;
mod slo;
mod stripe;
mod wan;

use crate::RunOpts;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which side of a number is acceptable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Limit {
    /// The value may not exceed this.
    AtMost(f64),
    /// The value may not fall below this.
    AtLeast(f64),
    /// Printed and recorded, never failed.
    ReportOnly,
}

/// One row: the `name` / `value` / `unit` keys are those of a
/// `benchmark/` metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// `<suite>.<what>`; the suite prefix is the runner's.
    pub name: String,
    /// `None` when the number could not be obtained — a failed row
    /// under any limit but `ReportOnly`.
    pub value: Option<f64>,
    /// Unit of `value` and of the limit.
    pub unit: String,
    /// The floor.
    pub limit: Limit,
}

impl Check {
    fn new(name: &str, value: f64, unit: &str, limit: Limit) -> Self {
        Self { name: name.into(), value: Some(value), unit: unit.into(), limit }
    }

    /// A row that fails above `limit`.
    pub fn at_most(name: &str, value: f64, unit: &str, limit: f64) -> Self {
        Self::new(name, value, unit, Limit::AtMost(limit))
    }

    /// A row that fails below `limit`.
    pub fn at_least(name: &str, value: f64, unit: &str, limit: f64) -> Self {
        Self::new(name, value, unit, Limit::AtLeast(limit))
    }

    /// A row that only reports.
    pub fn report(name: &str, value: f64, unit: &str) -> Self {
        Self::new(name, value, unit, Limit::ReportOnly)
    }

    /// A yes/no invariant that must hold, as 1 or 0.
    pub fn holds(name: &str, ok: bool) -> Self {
        Self::at_least(name, f64::from(u8::from(ok)), "bool", 1.0)
    }

    /// Whether the row is on the right side of its limit (a NaN is not).
    pub fn passes(&self) -> bool {
        match (&self.limit, self.value) {
            (Limit::ReportOnly, _) => true,
            (Limit::AtMost(l), Some(v)) => v <= *l,
            (Limit::AtLeast(l), Some(v)) => v >= *l,
            (_, None) => false,
        }
    }
}

/// A measurement: every call starts from scratch and yields its rows.
pub type Measure = dyn Fn(&RunOpts) -> Vec<Check>;

/// A named measurement; run again when one of its rows fails.
pub struct Suite {
    /// What the command line calls it and its rows are prefixed with.
    pub name: &'static str,
    /// The measurement.
    pub run: Box<Measure>,
}

/// One run of the gates: a line of `history.jsonl`, and (pretty-printed)
/// all of `BENCH_gates.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Run {
    /// Seconds since the Unix epoch at the end of the run.
    pub unix_time: u64,
    /// Whether the suites ran at `--quick` sizes; a run is only compared
    /// with a predecessor of the same kind.
    pub quick: bool,
    /// Every row of every suite that ran.
    pub checks: Vec<Check>,
}

const HISTORY: &str = "history.jsonl";
const LATEST: &str = "BENCH_gates.json";
const CONTRACT_FILE: &str = "benchmark/out/run-lan_smallfile-t1.json";

/// The last run recorded under `dir` with the same `quick` flag.
fn previous(dir: &Path, quick: bool) -> Option<Run> {
    let history = std::fs::read_to_string(dir.join(HISTORY)).ok()?;
    history
        .lines()
        .rev()
        .filter_map(|line| serde_json::from_str::<Run>(line).ok())
        .find(|run| run.quick == quick)
}

/// At most three decimals, none that are zero.
fn num(v: f64) -> String {
    format!("{v:.3}").trim_end_matches('0').trim_end_matches('.').into()
}

fn limit_text(limit: &Limit) -> String {
    match limit {
        Limit::AtMost(l) => format!("<= {}", num(*l)),
        Limit::AtLeast(l) => format!(">= {}", num(*l)),
        Limit::ReportOnly => "-".into(),
    }
}

fn value_text(value: Option<f64>) -> String {
    value.map_or("absent".into(), num)
}

fn print_table(run: &Run, prev: Option<&Run>) {
    println!(
        "\n{:<44} {:>14} {:<6} {:>12} {:>14} {:>8}",
        "check", "value", "unit", "limit", "previous", "delta"
    );
    for c in &run.checks {
        let before = prev
            .and_then(|p| p.checks.iter().find(|b| b.name == c.name))
            .and_then(|b| b.value);
        let delta = match (c.value, before) {
            (Some(v), Some(b)) if b != 0.0 => format!("{:+.1}%", (v - b) / b.abs() * 100.0),
            _ => "-".into(),
        };
        println!(
            "{:<44} {:>14} {:<6} {:>12} {:>14} {:>8}{}",
            c.name,
            value_text(c.value),
            c.unit,
            limit_text(&c.limit),
            before.map_or("-".into(), num),
            delta,
            if c.passes() { "" } else { "  FAIL" },
        );
    }
}

/// Run `suites`, compare with the previous run recorded under `dir`,
/// record this one there, and return it. Rows come back prefixed with
/// their suite's name.
pub fn run(suites: &[Suite], opts: &RunOpts, dir: &Path) -> Run {
    let mut checks = Vec::new();
    for suite in suites {
        println!("\n-- {} --", suite.name);
        let mut rows = (suite.run)(opts);
        if let Some(failed) = rows.iter().find(|c| !c.passes()) {
            println!(
                "{}.{} failed; running the suite once more to rule out host-load noise",
                suite.name, failed.name
            );
            rows = (suite.run)(opts);
        }
        checks.extend(rows.into_iter().map(|mut c| {
            c.name = format!("{}.{}", suite.name, c.name);
            c
        }));
    }
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let run = Run { unix_time, quick: opts.quick, checks };
    print_table(&run, previous(dir, opts.quick).as_ref());
    if let Err(e) = record(&run, dir) {
        eprintln!("cannot record the run under {}: {e}", dir.display());
    }
    run
}

fn record(run: &Run, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let json = |r: Result<String, serde_json::Error>| r.map_err(std::io::Error::other);
    std::fs::write(dir.join(LATEST), json(serde_json::to_string_pretty(run))?)?;
    let mut history =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join(HISTORY))?;
    writeln!(history, "{}", json(serde_json::to_string(run))?)
}

/// The `gates` binary: `[--quick] [--contract <file>] [suite…]`, every
/// suite when none is named. Exits non-zero naming each failed row.
pub fn main() -> ExitCode {
    let opts = RunOpts::parse();
    let mut contract_file = PathBuf::from(CONTRACT_FILE);
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--contract" => {
                contract_file = args.next().expect("--contract needs a file").into();
            }
            flag if flag.starts_with("--") => {}
            name => wanted.push(name.into()),
        }
    }
    let mut suites: Vec<Suite> = [
        ("obs", obs::suite as fn(&RunOpts) -> Vec<Check>),
        ("journal", journal::suite),
        ("scale", scale::suite),
        ("stripe", stripe::suite),
        ("slo", slo::suite),
        ("crypto", crypto::suite),
        ("pipeline", pipeline::suite),
        ("wan", wan::suite),
    ]
    .into_iter()
    .map(|(name, run)| Suite { name, run: Box::new(run) })
    .collect();
    suites.push(Suite {
        name: "contract",
        run: Box::new(move |_| contract::checks(&contract_file)),
    });
    if let Some(unknown) = wanted.iter().find(|w| !suites.iter().any(|s| s.name == *w)) {
        let names: Vec<_> = suites.iter().map(|s| s.name).collect();
        eprintln!("no suite '{unknown}'; suites: {}", names.join(" "));
        return ExitCode::from(2);
    }
    if !wanted.is_empty() {
        suites.retain(|s| wanted.iter().any(|w| w == s.name));
    }

    let run = run(&suites, &opts, Path::new("results"));
    let failed: Vec<&Check> = run.checks.iter().filter(|c| !c.passes()).collect();
    for c in &failed {
        eprintln!(
            "FAIL: {} = {} {} (limit {})",
            c.name,
            value_text(c.value),
            c.unit,
            limit_text(&c.limit)
        );
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sgfs-gate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(quick: bool) -> RunOpts {
        RunOpts { runs: 1, full: false, quick }
    }

    /// A suite returning `rows(attempt)`, counting its attempts.
    fn counted(rows: fn(usize) -> Vec<Check>) -> (Suite, Rc<Cell<usize>>) {
        let attempts = Rc::new(Cell::new(0));
        let seen = attempts.clone();
        let run = move |_: &RunOpts| {
            seen.set(seen.get() + 1);
            rows(seen.get())
        };
        (Suite { name: "fake", run: Box::new(run) }, attempts)
    }

    #[test]
    fn a_row_on_the_wrong_side_fails_and_is_named() {
        let dir = temp_dir("sides");
        let (suite, _) = counted(|_| {
            vec![
                Check::at_most("slow", 51.0, "ns", 50.0),
                Check::at_most("fast", 50.0, "ns", 50.0),
                Check::at_least("thin", 1.9, "ratio", 2.0),
                Check::at_least("wide", 2.0, "ratio", 2.0),
                Check::at_most("nan", f64::NAN, "ns", 50.0),
                Check::report("seen", 1e9, "1/s"),
                Check::holds("broken", false),
            ]
        });
        let run = run(&[suite], &opts(true), &dir);
        let failed: Vec<&str> =
            run.checks.iter().filter(|c| !c.passes()).map(|c| c.name.as_str()).collect();
        assert_eq!(failed, ["fake.slow", "fake.thin", "fake.nan", "fake.broken"]);
    }

    #[test]
    fn a_failing_suite_is_retried_exactly_once() {
        let dir = temp_dir("retry");
        let (always, attempts) = counted(|_| vec![Check::at_most("x", 2.0, "ns", 1.0)]);
        let run_always = run(&[always], &opts(true), &dir);
        assert_eq!(attempts.get(), 2, "one retry, not a loop");
        assert!(!run_always.checks[0].passes());

        let (noisy, attempts) = counted(|n| vec![Check::at_most("x", 3.0 - n as f64, "ns", 1.0)]);
        let run_noisy = run(&[noisy], &opts(true), &dir);
        assert_eq!(attempts.get(), 2);
        assert_eq!(run_noisy.checks[0].value, Some(1.0), "the retry's rows are the result");

        let (clean, attempts) = counted(|_| vec![Check::report("x", 9.0, "ns")]);
        run(&[clean], &opts(true), &dir);
        assert_eq!(attempts.get(), 1, "nothing failed, nothing is retried");
    }

    #[test]
    fn history_round_trips_and_previous_is_the_last_run_of_the_same_kind() {
        let dir = temp_dir("history");
        let (first, _) = counted(|_| vec![Check::at_most("x", 1.0, "ns", 5.0)]);
        let (full, _) = counted(|_| vec![Check::at_most("x", 2.0, "ns", 5.0)]);
        let (second, _) = counted(|_| {
            vec![Check::at_least("x", 3.0, "ns", 1.0), Check::report("y", 0.5, "ratio")]
        });
        let run_first = run(&[first], &opts(true), &dir);
        assert_eq!(previous(&dir, true), Some(run_first));
        assert_eq!(previous(&dir, false), None);
        run(&[full], &opts(false), &dir);
        let run_second = run(&[second], &opts(true), &dir);

        let history = std::fs::read_to_string(dir.join(HISTORY)).unwrap();
        let lines: Vec<Run> =
            history.lines().map(|l| serde_json::from_str(l).expect("a Run per line")).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[2], run_second);
        assert_eq!(previous(&dir, true), Some(run_second.clone()), "skips the full-size run");
        let latest = std::fs::read_to_string(dir.join(LATEST)).unwrap();
        assert_eq!(serde_json::from_str::<Run>(&latest).unwrap(), run_second);
    }

    #[test]
    fn a_contract_row_whose_metric_or_file_is_absent_fails() {
        let dir = temp_dir("contract");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("run.json");
        let metric = |name: &str, value: f64| {
            format!(r#"{{"name": "{name}", "value": {value:.1}, "unit": "MiB/s", "samples": 3}}"#)
        };
        let mut metrics: Vec<String> = ["aes256gcm", "chacha20poly1305", "aes256cbc-sha1"]
            .iter()
            .flat_map(|s| [format!("gtls.seal_mb_s.{s}"), format!("gtls.open_mb_s.{s}")])
            .map(|name| metric(&name, if name.contains("cbc") { 200.0 } else { 2500.0 }))
            .collect();
        metrics.push(metric("proc.ctx_switches_per_op", 8.0));
        metrics.push(metric("proc.threads", 4.0));
        let write = |metrics: &[String]| {
            let json = format!(r#"{{"workload": "x", "metrics": [{}]}}"#, metrics.join(","));
            std::fs::write(&file, json).unwrap();
        };
        write(&metrics);
        let rows = contract::checks(&file);
        assert!(rows.iter().all(Check::passes), "{rows:?}");
        assert!(rows.iter().any(|c| c.limit == Limit::AtLeast(1.1 * 200.0)));

        metrics.retain(|m| !m.contains("gtls.open_mb_s.chacha20poly1305"));
        write(&metrics);
        let failed: Vec<Check> =
            contract::checks(&file).into_iter().filter(|c| !c.passes()).collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!(failed[0].name, "gtls.open_mb_s.chacha20poly1305");
        assert_eq!(failed[0].value, None);

        let rows = contract::checks(&dir.join("missing.json"));
        assert!(!rows.is_empty() && rows.iter().all(|c| !c.passes()), "{rows:?}");
    }

    #[test]
    fn a_fixed_contract_ceiling_holds_at_its_limit_and_fails_above_it() {
        let dir = temp_dir("ceiling");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("run.json");
        let ceiling = |value: f64| {
            let json = format!(
                r#"{{"metrics": [{{"name": "proc.ctx_switches_per_op", "value": {value}, "unit": "count"}}]}}"#
            );
            std::fs::write(&file, json).unwrap();
            contract::checks(&file)
                .into_iter()
                .find(|c| c.name == "proc.ctx_switches_per_op")
                .expect("the ceiling is a row")
        };
        let at = ceiling(10.0);
        assert_eq!(at.limit, Limit::AtMost(10.0));
        assert_eq!(at.unit, "count");
        assert!(at.passes(), "{at:?}");
        assert!(ceiling(7.9).passes());
        let above = ceiling(15.2);
        assert!(!above.passes(), "{above:?}");
        assert_eq!(above.value, Some(15.2));
    }
}
