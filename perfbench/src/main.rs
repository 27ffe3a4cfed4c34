//! End-to-end and per-layer benchmark of the GNNUnlock campaign path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Prints a human-readable table, then, as the last line of standard
//! output, one JSON object `{"correct","attempted","failed","metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for the workloads and metrics.

mod collect;
mod daemon_mix;
mod inproc;
mod inputs;
mod probe;
mod stats;

use collect::{Collect, Metric};
use gnnunlock_engine::Json;
use probe::Probe;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static HEAP: stats::CountingAlloc = stats::CountingAlloc;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["antisat_cold", "ttlock_cold", "warm_rerun", "daemon_mix"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// How one workload run is driven.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setups: usize,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
}

impl Settings {
    /// Whether each run of cycle `i`'s input is traced: untraced only,
    /// or with tracing the same input untraced and traced, in
    /// alternating order, so the overhead compares like with like.
    pub fn variants(&self, i: u64) -> &'static [bool] {
        match (self.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        }
    }
}

/// Directory for the benchmark's scratch and output files, inside the
/// checkout the benchmark was built from.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Removes a run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct RunResult {
    collect: Collect,
    metrics: Vec<Metric>,
    spans: Vec<gnnunlock_telemetry::SpanRecord>,
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
) -> Result<RunResult, String> {
    let work = bench_dir()
        .join("work")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let _scratch = Scratch(work.clone());
    let s = Settings {
        seed,
        seconds,
        trace,
        setups,
        work,
    };
    let probe = Probe::new();
    let collect = match name {
        "antisat_cold" => inproc::cold_workload(&s, false, &probe),
        "ttlock_cold" => inproc::cold_workload(&s, true, &probe),
        "warm_rerun" => inproc::warm_workload(&s, &probe),
        "daemon_mix" => daemon_mix::daemon_workload(&s, &probe),
        other => {
            return Err(format!(
                "unknown workload '{other}' ({})",
                WORKLOADS.join("|")
            ))
        }
    };
    let metrics = if trace {
        collect.per_layer()
    } else {
        collect.end_to_end()
    };
    Ok(RunResult {
        collect,
        metrics,
        spans: probe.spans(),
    })
}

/// The result line: numbers keep all their digits; a value that could
/// not be measured is reported as 0 and marks the run incorrect.
fn result_json(r: &RunResult) -> String {
    let c = &r.collect;
    let all_finite = r.metrics.iter().all(|m| m.value.is_finite());
    let correct = c.failed == 0 && c.attempted > 0 && all_finite;
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        c.attempted.max(1),
        c.failed + u64::from(c.attempted == 0),
        metrics.join(",")
    )
}

fn print_table(name: &str, seed: u64, trace: bool, r: &RunResult) {
    let kind = if trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    println!(
        "# {name} seed={seed} {kind}; workers={} cpus={}",
        collect::WORKERS,
        cpus()
    );
    for m in &r.metrics {
        println!("{:<36} {:>16.4} {:<9} {}", m.name, m.value, m.unit, m.note);
    }
    for e in &r.collect.failures {
        println!("FAILED: {e}");
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Write the benchmark's own spans as a Chrome trace; returns its path.
fn write_trace(
    name: &str,
    seed: u64,
    spans: &[gnnunlock_telemetry::SpanRecord],
) -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{name}-seed{seed}.json"));
    std::fs::write(&path, gnnunlock_telemetry::chrome_trace_json(spans))?;
    Ok(path)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0 && s.is_finite())
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-test") {
        let path = args
            .get(1)
            .map_or_else(|| PathBuf::from("BENCHMARK.json"), PathBuf::from);
        return match self_test(&path) {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(problems) => {
                for p in problems {
                    eprintln!("self-test: {p}");
                }
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let r = match run_workload(&a.workload, a.seed, a.seconds, a.trace, SETUPS) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&a.workload, a.seed, a.trace, &r);
    if a.trace {
        match write_trace(&a.workload, a.seed, &r.spans) {
            Ok(path) => println!(
                "# benchmark spans: {} ({} spans)",
                path.display(),
                r.spans.len()
            ),
            Err(e) => println!("# benchmark spans not written: {e}"),
        }
    }
    println!("{}", result_json(&r));
    ExitCode::SUCCESS
}

/// Metric names of one `BENCHMARK.json` section.
fn names(doc: &Json, section: &str) -> Result<Vec<String>, String> {
    match doc.get(section) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{section}: entry without a name"))
            })
            .collect(),
        _ => Err(format!("BENCHMARK.json has no {section} list")),
    }
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// The tiny mode: every workload for one cycle with one set-up, traced
/// and untraced. Checks that each metric `BENCHMARK.json` names is
/// printed, that every output check passed, and that the per-layer
/// shares point the way each workload's rationale says.
fn self_test(benchmark_json: &Path) -> Result<(), Vec<String>> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| vec![format!("read {}: {e}", benchmark_json.display())])?;
    let doc =
        Json::parse(&text).map_err(|e| vec![format!("parse {}: {e}", benchmark_json.display())])?;
    let e2e = names(&doc, "end_to_end").map_err(|e| vec![e])?;
    let layers = names(&doc, "per_layer").map_err(|e| vec![e])?;
    let listed = names(&doc, "workloads").map_err(|e| vec![e])?;
    let mut problems = vec![];
    if listed != WORKLOADS {
        problems.push(format!(
            "BENCHMARK.json workloads {listed:?} differ from {WORKLOADS:?}"
        ));
    }
    for w in WORKLOADS {
        for (trace, wanted) in [(false, &e2e), (true, &layers)] {
            let r = match run_workload(w, 1, 0.0, trace, 1) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{w}: {e}"));
                    continue;
                }
            };
            print_table(w, 1, trace, &r);
            let line = result_json(&r);
            if r.collect.failed > 0 || !line.contains("\"correct\":true") {
                problems.push(format!("{w} trace={trace}: not correct: {line}"));
            }
            for name in wanted.iter() {
                if !r.metrics.iter().any(|m| &m.name == name) {
                    problems.push(format!("{w} trace={trace}: metric {name} not printed"));
                }
            }
            for m in &r.metrics {
                if !wanted.contains(&m.name) {
                    problems.push(format!(
                        "{w} trace={trace}: metric {} not in BENCHMARK.json",
                        m.name
                    ));
                }
            }
            if !trace {
                continue;
            }
            let leader = collect::STAGE_METRICS
                .iter()
                .map(|(n, _)| (*n, value(&r, n)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(n, _)| n);
            match w {
                "antisat_cold" if leader != Some("gnn.train_epoch_ms") => problems.push(format!(
                    "antisat_cold: {leader:?} leads the stage bodies, expected gnn.train_epoch_ms"
                )),
                "ttlock_cold" if leader != Some("sat.verify_ms") => problems.push(format!(
                    "ttlock_cold: {leader:?} leads the stage bodies, expected sat.verify_ms"
                )),
                "warm_rerun" if value(&r, "engine.exec.jobs_executed") != 0.0 => {
                    problems.push(format!(
                        "warm_rerun executed {} jobs per re-run, expected 0",
                        value(&r, "engine.exec.jobs_executed")
                    ))
                }
                _ => {}
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}
