//! What a workload run collects, and how it becomes metrics.

use crate::probe::Tally;
use crate::stats::{median, peak_heap_mb, quantile, reset_peak_heap, Cost};
use gnnunlock_core::AttackOutcome;
use gnnunlock_engine::{RunStats, EVENTS_FILE};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Executor threads of every in-process campaign and of the daemon.
pub const WORKERS: usize = 2;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed, for the human-readable table.
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// The CPU or wall-clock times of `costs`, scaled by `scale`.
fn times(costs: &[Cost], cpu: bool, scale: f64) -> Vec<f64> {
    costs
        .iter()
        .map(|c| scale * if cpu { c.cpu } else { c.wall })
        .collect()
}

/// What the two kinds of timed operation cost.
#[derive(Default)]
pub struct Timings {
    /// Campaigns that run their job bodies (cold in-process campaigns,
    /// fresh daemon submissions).
    pub campaign: Vec<Cost>,
    /// Campaigns answered wholly from the store (warm in-process
    /// re-runs, duplicate daemon submissions).
    pub warm: Vec<Cost>,
}

/// Paper metrics over every attacked cell.
#[derive(Default)]
pub struct Quality {
    pub cells: u64,
    pub removed: u64,
    pub gnn_acc: f64,
    pub post_acc: f64,
}

impl Quality {
    /// Fold a campaign's outcomes in; the number of cells added.
    pub fn add(&mut self, outcomes: &[AttackOutcome]) -> usize {
        let mut n = 0;
        for inst in outcomes.iter().flat_map(|o| &o.instances) {
            n += 1;
            self.cells += 1;
            self.removed += u64::from(inst.removal_success == Some(true));
            self.gnn_acc += inst.gnn.accuracy();
            self.post_acc += inst.post.accuracy();
        }
        n
    }
}

/// Per-layer totals of the traced operations.
#[derive(Default)]
pub struct Layers {
    pub tally: Tally,
    /// Traced primary operations the totals are divided by: cold cycles
    /// (one cold campaign and its warm re-runs), warm re-runs, or daemon
    /// submissions.
    pub ops: u64,
    /// Wall time of traced campaigns that ran job bodies.
    pub cold_wall_ns: u64,
    pub cold_body_ns: u64,
    pub jobs_executed: u64,
    pub disk_hits: u64,
    /// Traced warm executions and their wall time minus codec and store.
    pub warm_runs: u64,
    pub warm_other_ns: i64,
    /// Traced executions whose `events.jsonl` / trace were measured.
    pub files_measured: u64,
    pub events_bytes: u64,
    pub trace_bytes: u64,
    pub submit: (u64, Duration),
    pub status: (u64, Duration),
    pub report: (u64, Duration),
    pub fresh_submissions: u64,
    pub report_bytes: u64,
}

impl Layers {
    /// Account one traced in-process execution.
    pub fn execution(&mut self, wall_s: f64, tally: &Tally, stats: &RunStats, dir: &Path) {
        let wall_ns = (wall_s * 1e9) as u64;
        let body = tally.body_total_ns();
        if stats.executed > 0 {
            self.cold_wall_ns += wall_ns;
            self.cold_body_ns += body;
        } else {
            self.warm_runs += 1;
            self.warm_other_ns +=
                wall_ns as i64 - (tally.decode_ns + tally.encode_ns + tally.store_ns) as i64;
        }
        self.jobs_executed += stats.executed as u64;
        self.disk_hits += stats.disk_hits as u64;
        self.tally.add(tally);
        self.files(&[dir.join(EVENTS_FILE)], &[dir.join("trace.json")]);
    }

    /// Add the sizes of an execution's event logs and traces.
    pub fn files(&mut self, events: &[PathBuf], traces: &[PathBuf]) {
        let size = |p: &PathBuf| std::fs::metadata(p).map_or(0, |m| m.len());
        self.files_measured += 1;
        self.events_bytes += events.iter().map(size).sum::<u64>();
        self.trace_bytes += traces.iter().map(size).sum::<u64>();
    }
}

/// Everything one workload run collects.
#[derive(Default)]
pub struct Collect {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup: Vec<Cost>,
    /// Peak live heap of each measured cycle, MiB.
    pub heap_mb: Vec<f64>,
    /// Timings of untraced operations (all of them with `--trace 0`).
    pub plain: Timings,
    /// Timings of traced operations (`--trace 1` only).
    pub traced: Timings,
    pub quality: Quality,
    pub layers: Layers,
}

impl Collect {
    /// Count one attempted operation and whether its checks passed.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Run one measured cycle, recording the peak live heap during it.
    pub fn cycle(&mut self, f: impl FnOnce(&mut Collect)) {
        reset_peak_heap();
        f(self);
        self.heap_mb.push(peak_heap_mb());
    }

    pub fn timings(&mut self, traced: bool) -> &mut Timings {
        if traced {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }

    /// The end-to-end metrics, from the untraced operations.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let t = &self.plain;
        let n = |v: &[f64]| {
            let q = |x| quantile(v, x).unwrap_or(f64::NAN);
            format!(
                "n={}, min {:.4} q1 {:.4} q3 {:.4} max {:.4}",
                v.len(),
                q(0.0),
                q(0.25),
                q(0.75),
                q(1.0)
            )
        };
        let q = &self.quality;
        let cells = q.cells.max(1) as f64;
        let campaign = times(&t.campaign, true, 1.0);
        let warm = times(&t.warm, true, 1e3);
        let setup = times(&self.setup, true, 1.0);
        vec![
            // The mean, not the median: per-input campaign times spread
            // widely, and over a few dozen inputs their mean (total / campaigns)
            // moved less from seed to seed than the median.
            metric(
                "campaign_cpu_s",
                mean(&campaign).unwrap_or(f64::NAN),
                "s",
                format!(
                    "mean, median {:.4}, {}",
                    median(&campaign).unwrap_or(f64::NAN),
                    n(&campaign)
                ),
            ),
            metric(
                "warm_cpu_ms_p50",
                median(&warm).unwrap_or(f64::NAN),
                "ms",
                format!("median, {}", n(&warm)),
            ),
            metric(
                "warm_cpu_ms_p90",
                quantile(&warm, 0.9).unwrap_or(f64::NAN),
                "ms",
                format!("p90, {}", n(&warm)),
            ),
            metric(
                "removal_success",
                q.removed as f64 / cells,
                "fraction",
                format!("{} of {} cells", q.removed, q.cells),
            ),
            metric(
                "post_acc",
                q.post_acc / cells,
                "fraction",
                format!("mean over {} cells", q.cells),
            ),
            metric(
                "gnn_acc",
                q.gnn_acc / cells,
                "fraction",
                format!("mean over {} cells", q.cells),
            ),
            metric(
                "peak_heap_mb",
                median(&self.heap_mb).unwrap_or(f64::NAN),
                "MB",
                format!("peak live heap per cycle, median, {}", n(&self.heap_mb)),
            ),
            metric(
                "setup_s",
                median(&setup).unwrap_or(f64::NAN),
                "s",
                format!("CPU, median, {}", n(&setup)),
            ),
        ]
    }

    /// The per-layer metrics, from the traced operations.
    pub fn per_layer(&self) -> Vec<Metric> {
        let l = &self.layers;
        let t = &l.tally;
        let per = l.ops.max(1) as f64;
        let ms_per = |ns: u64| ns as f64 / 1e6 / per;
        let body = |kind: &str| ms_per(t.body_ns.get(kind).copied().unwrap_or(0));
        let note = format!("per op, {} traced ops", l.ops);
        let mean_ms = |(n, d): (u64, Duration)| d.as_secs_f64() * 1e3 / n.max(1) as f64;
        let idle = if l.cold_wall_ns > 0 {
            1.0 - l.cold_body_ns as f64 / (WORKERS as f64 * l.cold_wall_ns as f64)
        } else {
            0.0
        };
        let files = l.files_measured.max(1) as f64;
        let mut out = vec![];
        for (name, kind) in STAGE_METRICS {
            out.push(metric(name, body(kind), "ms", note.clone()));
        }
        let counts = [
            ("engine.exec.jobs_executed", l.jobs_executed as f64 / per),
            ("engine.cache.disk_hits", l.disk_hits as f64 / per),
            ("engine.codec.decode_bytes", t.decode_bytes as f64 / per),
            ("engine.codec.encode_bytes", t.encode_bytes as f64 / per),
            ("engine.store.load_calls", t.load_calls as f64 / per),
            ("engine.store.publish_calls", t.publish_calls as f64 / per),
            ("engine.store.claim_calls", t.claim_calls as f64 / per),
            ("engine.store.entomb_calls", t.entomb_calls as f64 / per),
        ];
        for (name, v) in counts {
            let unit = if name.ends_with("bytes") {
                "bytes"
            } else {
                "count"
            };
            out.push(metric(name, v, unit, note.clone()));
        }
        let layer_times = [
            ("engine.codec.decode_ms", ms_per(t.decode_ns)),
            ("engine.codec.encode_ms", ms_per(t.encode_ns)),
            ("engine.store.load_ms", ms_per(t.load_ns)),
            ("engine.store.publish_ms", ms_per(t.publish_ns)),
            ("engine.store.list_ms", ms_per(t.list_ns)),
        ];
        for (name, v) in layer_times {
            out.push(metric(name, v, "ms", note.clone()));
        }
        out.extend([
            metric(
                "engine.exec.idle_share",
                idle,
                "fraction",
                "1 - body / (workers x wall), body-running campaigns",
            ),
            metric(
                "engine.exec.other_ms",
                l.warm_other_ns as f64 / 1e6 / l.warm_runs.max(1) as f64,
                "ms",
                format!("wall - codec - store, mean of {} warm runs", l.warm_runs),
            ),
            metric(
                "engine.events.bytes",
                l.events_bytes as f64 / files,
                "bytes",
                format!("mean of {} executions", l.files_measured),
            ),
            metric(
                "engine.trace.bytes",
                l.trace_bytes as f64 / files,
                "bytes",
                format!("mean of {} executions", l.files_measured),
            ),
            metric(
                "daemon.submit_rtt_ms",
                mean_ms(l.submit),
                "ms",
                format!("mean of {}", l.submit.0),
            ),
            metric(
                "daemon.status_rtt_ms",
                mean_ms(l.status),
                "ms",
                format!("mean of {}", l.status.0),
            ),
            metric(
                "daemon.report_rtt_ms",
                mean_ms(l.report),
                "ms",
                format!("mean of {}", l.report.0),
            ),
            metric(
                "daemon.status_polls",
                l.status.0 as f64 / l.fresh_submissions.max(1) as f64,
                "count",
                format!("per fresh submission, {}", l.fresh_submissions),
            ),
            metric(
                "daemon.report_bytes",
                l.report_bytes as f64 / l.report.0.max(1) as f64,
                "bytes",
                format!("mean of {}", l.report.0),
            ),
        ]);
        // Tracing overhead: traced minus untraced, per end-to-end timing.
        let diff = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) => a - b,
            _ => 0.0,
        };
        let (p, tr) = (&self.plain, &self.traced);
        let (p_warm, tr_warm) = (times(&p.warm, true, 1e3), times(&tr.warm, true, 1e3));
        out.extend([
            metric(
                "bench.trace_overhead.campaign_cpu_ms",
                diff(
                    mean(&times(&tr.campaign, true, 1e3)),
                    mean(&times(&p.campaign, true, 1e3)),
                ),
                "ms",
                format!(
                    "mean traced (n={}) - untraced (n={})",
                    tr.campaign.len(),
                    p.campaign.len()
                ),
            ),
            metric(
                "bench.trace_overhead.warm_cpu_ms_p50",
                diff(median(&tr_warm), median(&p_warm)),
                "ms",
                format!(
                    "median traced (n={}) - untraced (n={})",
                    tr_warm.len(),
                    p_warm.len()
                ),
            ),
            metric(
                "bench.trace_overhead.warm_cpu_ms_p90",
                diff(quantile(&tr_warm, 0.9), quantile(&p_warm, 0.9)),
                "ms",
                "p90 traced - untraced",
            ),
        ]);
        // Wall-clock counterparts of the end-to-end timings (untraced
        // operations); on a shared virtual machine they carry the time
        // other guests took.
        let (campaign, warm) = (times(&p.campaign, false, 1.0), times(&p.warm, false, 1e3));
        out.extend([
            metric(
                "wall.campaign_s",
                mean(&campaign).unwrap_or(0.0),
                "s",
                format!("mean of {}", campaign.len()),
            ),
            metric(
                "wall.warm_ms_p50",
                median(&warm).unwrap_or(0.0),
                "ms",
                format!("median of {}", warm.len()),
            ),
            metric(
                "wall.warm_ms_p90",
                quantile(&warm, 0.9).unwrap_or(0.0),
                "ms",
                format!("p90 of {}", warm.len()),
            ),
        ]);
        out
    }
}

/// Stage-body metrics and the job kind each one times.
pub const STAGE_METRICS: [(&str, &str); 11] = [
    ("netlist.parse_ms", "parse"),
    ("locking.lock_ms", "lock"),
    ("synth.synth_ms", "synth"),
    ("gnn.featurize_ms", "featurize"),
    ("core.dataset_ms", "dataset"),
    ("gnn.train_epoch_ms", "train-epoch"),
    ("gnn.train_ms", "train"),
    ("gnn.classify_ms", "classify"),
    ("core.remove_ms", "remove"),
    ("sat.verify_ms", "verify"),
    ("core.aggregate_ms", "aggregate"),
];
