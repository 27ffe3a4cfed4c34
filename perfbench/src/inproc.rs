//! The in-process workloads: `antisat_cold`, `ttlock_cold` and
//! `warm_rerun`.
//!
//! Every campaign goes through the path the paper-table binaries use
//! (`executor_from_env`): `DiskStore::open_with_backend` →
//! `ResultCache::with_disk(PipelineCodec)` → `Executor::with_events` →
//! `campaign_for(..).execute(..)`, then writes the run's Chrome trace
//! beside its event log as a persistent run does. Traced operations swap
//! in the decorators of [`crate::probe`] on the same path.

use crate::collect::{Collect, WORKERS};
use crate::inputs::{antisat, ttlock, warmup, CampaignInput};
use crate::probe::{Probe, TimedBackend, TimedCodec, TimedRunner};
use crate::stats::{Cost, Meter};
use crate::Settings;
use gnnunlock_core::{
    campaign_for, campaign_scheme_tag, AttackCampaignRunner, AttackOutcome, PipelineCodec,
};
use gnnunlock_engine::{
    CampaignRun, DiskStore, EventLog, ExecConfig, Executor, LocalDirBackend, ReportOptions,
    ResultCache, StoreBackend, ValueCodec, EVENTS_FILE,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Input index of set-up campaign `k`, apart from the timed ones.
fn setup_index(k: usize) -> u64 {
    u64::MAX - k as u64
}

/// Warm re-runs after each cold campaign: enough that the warm tail has
/// more than ten samples beyond its p90 in a run.
const WARM_RERUNS: usize = 4;

/// Campaigns `warm_rerun` populates and re-runs in turn, so its figures
/// average over several inputs.
const WARM_STORES: usize = 4;

/// Execute `input` against the store in `dir`; `probe` selects the
/// decorated path.
fn execute(
    input: &CampaignInput,
    dir: &Path,
    probe: Option<&Arc<Probe>>,
) -> std::io::Result<CampaignRun> {
    let backend: Arc<dyn StoreBackend> = match probe {
        Some(p) => Arc::new(TimedBackend::new(p.clone())),
        None => Arc::new(LocalDirBackend::new()),
    };
    let codec: Arc<dyn ValueCodec> = match probe {
        Some(p) => Arc::new(TimedCodec {
            inner: Arc::new(PipelineCodec),
            probe: p.clone(),
        }),
        None => Arc::new(PipelineCodec),
    };
    let store = Arc::new(DiskStore::open_with_backend(dir, "", backend)?);
    let executor = Executor::new(ExecConfig::with_workers(WORKERS))
        .with_cache(Arc::new(ResultCache::with_disk(store, codec)))
        .with_events(Arc::new(EventLog::create(&dir.join(EVENTS_FILE))?));
    let campaign = campaign_for(&input.name, &input.dataset, &input.attack);
    let runner = AttackCampaignRunner::new(&input.dataset, &input.attack);
    let run = match probe {
        Some(p) => campaign.execute(
            &TimedRunner {
                inner: runner,
                probe: p.clone(),
            },
            &executor,
        ),
        None => campaign.execute(&runner, &executor),
    };
    std::fs::write(
        dir.join("trace.json"),
        gnnunlock_telemetry::chrome_trace_json(&run.outcome.spans),
    )?;
    Ok(run)
}

/// One timed execution and what it produced.
struct Executed {
    run: CampaignRun,
    cost: Cost,
    report: String,
}

/// Execute and time one campaign, accounting its layers when traced.
fn timed(
    input: &CampaignInput,
    dir: &Path,
    probe: Option<&Arc<Probe>>,
    c: &mut Collect,
    op: &str,
) -> Result<Executed, String> {
    let span = probe.map(|p| p.begin_op(op));
    let meter = Meter::start();
    let run = execute(input, dir, probe);
    let cost = meter.stop();
    let tally = probe.zip(span).map(|(p, s)| p.end_op(op, s));
    let run = run.map_err(|e| format!("{op} {}: {e}", input.name))?;
    if let Some(tally) = tally {
        c.layers
            .execution(cost.wall, &tally, &run.outcome.stats, dir);
    }
    if !run.outcome.all_succeeded() {
        let s = run.outcome.stats;
        return Err(format!(
            "{op} {}: {} failed, {} skipped of {} jobs",
            input.name, s.failed, s.skipped, s.total
        ));
    }
    let report = run.report(ReportOptions::default()).to_json();
    Ok(Executed { run, cost, report })
}

fn outcomes(input: &CampaignInput, run: &CampaignRun) -> Vec<AttackOutcome> {
    run.aggregate::<Vec<AttackOutcome>>(&campaign_scheme_tag(&input.dataset))
        .map(|a| a.as_ref().clone())
        .unwrap_or_default()
}

/// A cold campaign on a fresh store in `dir`: checked, its cells folded
/// into the quality metrics. Returns its default report.
fn cold(
    input: &CampaignInput,
    dir: &Path,
    probe: Option<&Arc<Probe>>,
    c: &mut Collect,
) -> Result<(String, Cost), String> {
    let _ = std::fs::remove_dir_all(dir);
    let done = timed(input, dir, probe, c, "cold-campaign")?;
    if c.quality.add(&outcomes(input, &done.run)) == 0 {
        return Err(format!("cold-campaign {}: no attacked cells", input.name));
    }
    Ok((done.report, done.cost))
}

/// A warm re-run against the store `dir` holds: its default report must
/// equal the cold one byte for byte.
fn warm(
    input: &CampaignInput,
    dir: &Path,
    cold_report: &str,
    probe: Option<&Arc<Probe>>,
    c: &mut Collect,
) -> Result<Cost, String> {
    let done = timed(input, dir, probe, c, "warm-rerun")?;
    if done.report != cold_report {
        return Err(format!(
            "warm-rerun {}: report differs from the cold report",
            input.name
        ));
    }
    Ok(done.cost)
}

/// `antisat_cold` / `ttlock_cold`: cycles of one cold campaign on a
/// fresh store followed by [`WARM_RERUNS`] re-runs against it.
pub fn cold_workload(s: &Settings, ttlock_flow: bool, probe: &Arc<Probe>) -> Collect {
    let make = if ttlock_flow { ttlock } else { antisat };
    let mut c = Collect::default();
    for j in 0..s.setups {
        // Set-up: a small warm-up campaign of the same flow, so lazy
        // initialisation is paid before timing starts.
        let meter = Meter::start();
        let dir = s.work.join(format!("setup-{j}"));
        let res = cold(
            &warmup(ttlock_flow, s.seed, setup_index(j)),
            &dir,
            None,
            &mut Collect::default(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        c.setup.push(meter.stop());
        if let Err(e) = res {
            c.op(Err(format!("set-up: {e}")));
        }
    }
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < s.seconds {
        let input = make(s.seed, i);
        c.cycle(|c| {
            for &traced in s.variants(i) {
                let p = traced.then_some(probe);
                let dir = s.work.join(format!("cycle-{i}-{traced}"));
                match cold(&input, &dir, p, c) {
                    Ok((report, cost)) => {
                        c.op(Ok(()));
                        c.timings(traced).campaign.push(cost);
                        for _ in 0..WARM_RERUNS {
                            let res = warm(&input, &dir, &report, p, c);
                            if let Ok(cost) = res {
                                c.timings(traced).warm.push(cost);
                            }
                            c.op(res.map(drop));
                        }
                    }
                    Err(e) => c.op(Err(e)),
                }
                if traced {
                    c.layers.ops += 1;
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        });
        i += 1;
    }
    c
}

/// `warm_rerun`: populate stores with `antisat_cold`-shaped campaigns
/// (set-up), then re-run those campaigns against them in turn for the
/// whole run.
pub fn warm_workload(s: &Settings, probe: &Arc<Probe>) -> Collect {
    let mut c = Collect::default();
    let mut populated = vec![];
    for j in 0..s.setups {
        let meter = Meter::start();
        for dir in populated.drain(..).map(|(_, dir, _)| dir) {
            let _ = std::fs::remove_dir_all(dir);
        }
        for k in 0..WARM_STORES {
            let input = antisat(s.seed, setup_index(j * WARM_STORES + k));
            let dir = s.work.join(format!("store-{j}-{k}"));
            // Population campaigns run their job bodies: they are this
            // workload's `campaign_cpu_s` samples. A warm-up re-run completes
            // the set-up.
            let res = cold(&input, &dir, None, &mut c).and_then(|(report, cost)| {
                warm(&input, &dir, &report, None, &mut Collect::default())?;
                Ok((report, cost))
            });
            match res {
                Ok((report, cost)) => {
                    c.plain.campaign.push(cost);
                    populated.push((input, dir, report));
                }
                Err(e) => c.op(Err(format!("set-up: {e}"))),
            }
        }
        c.setup.push(meter.stop());
    }
    if populated.is_empty() {
        return c;
    }
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < s.seconds {
        let (input, dir, report) = &populated[i as usize % populated.len()];
        c.cycle(|c| {
            for &traced in s.variants(i) {
                let res = warm(input, dir, report, traced.then_some(probe), c);
                if let Ok(cost) = res {
                    c.timings(traced).warm.push(cost);
                }
                c.op(res.map(drop));
                if traced {
                    c.layers.ops += 1;
                }
            }
        });
        i += 1;
    }
    c
}
