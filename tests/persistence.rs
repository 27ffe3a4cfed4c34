//! Persistence integration tests: the on-disk result store, the JSONL
//! event log, and resumable campaigns.
//!
//! The determinism contract under test: **the same campaign produces a
//! byte-identical default report whether it is computed cold, served
//! warm from a shared cache directory, or killed mid-run and resumed.**

use gnnunlock::engine::{
    Campaign, CampaignRunner, EventLog, Fault, FaultOp, FaultRule, Faulty, JobCtx, JobOutput,
    JobValue, LocalDirBackend, StageJob, ValueCodec, EVENTS_FILE,
};
use gnnunlock::gnn::{SaintConfig, TrainConfig};
use gnnunlock::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gnnunlock-persistence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Toy campaign: echo-style string stages with a string codec. Fast, and
// every job is persistable, so store behavior is fully observable.
// ---------------------------------------------------------------------

struct ToyCodec;

impl ValueCodec for ToyCodec {
    fn encode(&self, _kind: gnnunlock::engine::JobKind, value: &JobValue) -> Option<Vec<u8>> {
        value
            .downcast_ref::<String>()
            .map(|s| s.as_bytes().to_vec())
    }

    fn decode(&self, _kind: gnnunlock::engine::JobKind, bytes: &[u8]) -> Option<JobValue> {
        Some(Arc::new(String::from_utf8(bytes.to_vec()).ok()?) as JobValue)
    }
}

struct ToyRunner;

impl CampaignRunner for ToyRunner {
    fn config_salt(&self) -> u64 {
        42
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        Some(Arc::new(ToyCodec))
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        let inputs: Vec<String> = (0..ctx.deps.len())
            .map(|i| ctx.dep::<String>(i).as_ref().clone())
            .collect();
        Ok(Arc::new(format!("{}<-[{}]", job.label(), inputs.join(";"))) as JobValue)
    }
}

/// A runner that cancels the run after `n` completed jobs — an
/// in-process stand-in for `kill -9` mid-campaign: the store keeps what
/// finished, the event log keeps the stream, the rest never happens.
struct KillAfter {
    remaining: AtomicUsize,
    token: CancelToken,
}

impl CampaignRunner for KillAfter {
    fn config_salt(&self) -> u64 {
        ToyRunner.config_salt()
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        ToyRunner.codec()
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        let out = ToyRunner.run(job, ctx);
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.token.cancel();
        }
        out
    }
}

fn toy_campaign() -> Campaign {
    Campaign::builder("persist")
        .scheme("antisat")
        .benchmarks(["c1", "c2"])
        .key_sizes([8])
        .seeds([0, 1])
        .build()
}

#[test]
fn cold_warm_and_plain_reports_are_byte_identical() {
    let dir = tmp_dir("cold-warm");
    let campaign = toy_campaign();

    // Reference: a plain in-memory run.
    let plain = campaign.execute(&ToyRunner, &Executor::new(ExecConfig::with_workers(2)));
    // Cold persistent run.
    let cold = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(cold.outcome.stats.executed, campaign.plan().len());
    // Warm run in a "new process" (fresh executor, same directory).
    let warm = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(4), &dir)
        .unwrap();
    assert_eq!(warm.outcome.stats.disk_hits, campaign.plan().len());
    assert_eq!(warm.outcome.stats.executed, 0);

    let render =
        |run: &gnnunlock::engine::CampaignRun| run.report(ReportOptions::default()).to_json();
    assert_eq!(render(&plain), render(&cold));
    assert_eq!(render(&cold), render(&warm));

    // Provenance (opt-in) does distinguish them — that's its job.
    let prov = |run: &gnnunlock::engine::CampaignRun| {
        run.report(ReportOptions::default().with_provenance())
            .to_json()
    };
    assert_ne!(prov(&cold), prov(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_campaign_resumes_to_identical_report() {
    let uninterrupted_dir = tmp_dir("kill-ref");
    let interrupted_dir = tmp_dir("kill-resume");
    let campaign = toy_campaign();
    let total = campaign.plan().len();

    // Reference: uninterrupted persistent run.
    let reference = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(1), &uninterrupted_dir)
        .unwrap();
    let reference_report = reference.report(ReportOptions::default()).to_json();

    // "Kill" a run after 3 completed jobs (single worker: determinate).
    let kill_after = 3;
    let cfg = ExecConfig::with_workers(1);
    let killer = KillAfter {
        remaining: AtomicUsize::new(kill_after),
        token: cfg.cancel.clone(),
    };
    let partial = campaign
        .execute_persistent(&killer, cfg, &interrupted_dir)
        .unwrap();
    assert_eq!(partial.outcome.stats.executed, kill_after);
    assert_eq!(partial.outcome.stats.cancelled, total - kill_after);

    // Tear the event log's tail, as a mid-record crash would.
    let events_path = interrupted_dir.join(EVENTS_FILE);
    let mut text = std::fs::read_to_string(&events_path).unwrap();
    text.push_str("{\"ev\":\"job-finis");
    std::fs::write(&events_path, text).unwrap();

    // Resume: completed jobs come off disk, the rest recompute.
    let (resumed, info) = campaign
        .resume(&ToyRunner, ExecConfig::with_workers(2), &interrupted_dir)
        .unwrap();
    assert!(info.log_truncated, "torn tail must be detected");
    assert_eq!(info.prior_completed, kill_after);
    assert_eq!(resumed.outcome.stats.disk_hits, kill_after);
    assert_eq!(resumed.outcome.stats.executed, total - kill_after);
    assert!(resumed.outcome.all_succeeded());
    assert_eq!(
        resumed.report(ReportOptions::default()).to_json(),
        reference_report,
        "a resumed run must render the byte-identical report"
    );

    // The appended log now records both runs; the second is marked
    // resumed.
    let replay = EventLog::replay(&events_path).unwrap();
    let resumed_flags: Vec<bool> = replay
        .events
        .iter()
        .filter_map(|e| match e {
            Event::RunStarted { resumed, .. } => Some(*resumed),
            _ => None,
        })
        .collect();
    assert_eq!(resumed_flags, vec![false, true]);
    let _ = std::fs::remove_dir_all(&uninterrupted_dir);
    let _ = std::fs::remove_dir_all(&interrupted_dir);
}

#[test]
fn corrupted_cache_entries_are_evicted_and_recomputed() {
    let dir = tmp_dir("corruption");
    let campaign = toy_campaign();
    let total = campaign.plan().len();

    let cold = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    let reference = cold.report(ReportOptions::default()).to_json();

    // Corrupt one entry (flip a payload byte) and truncate another.
    let objects: Vec<PathBuf> = walk_bins(&dir.join("objects"));
    assert_eq!(objects.len(), total);
    let mut bytes = std::fs::read(&objects[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x55;
    std::fs::write(&objects[0], &bytes).unwrap();
    let bytes = std::fs::read(&objects[1]).unwrap();
    std::fs::write(&objects[1], &bytes[..bytes.len() / 2]).unwrap();

    // Warm run: the two bad entries are detected, evicted and
    // recomputed — never trusted.
    let warm = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert!(warm.outcome.all_succeeded());
    assert_eq!(warm.outcome.stats.disk_hits, total - 2);
    assert_eq!(warm.outcome.stats.executed, 2);
    assert_eq!(warm.report(ReportOptions::default()).to_json(), reference);

    // Eviction happened on disk and was recounted on recompute.
    let again = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(again.outcome.stats.disk_hits, total);
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`ToyCodec`] counting its decodes.
#[derive(Default)]
struct CountingCodec {
    decodes: AtomicUsize,
}

impl ValueCodec for CountingCodec {
    fn encode(&self, kind: JobKind, value: &JobValue) -> Option<Vec<u8>> {
        ToyCodec.encode(kind, value)
    }

    fn decode(&self, kind: JobKind, bytes: &[u8]) -> Option<JobValue> {
        self.decodes.fetch_add(1, Ordering::SeqCst);
        ToyCodec.decode(kind, bytes)
    }
}

/// [`ToyRunner`] persisting through a shared [`CountingCodec`].
struct CountingRunner(Arc<CountingCodec>);

impl CampaignRunner for CountingRunner {
    fn config_salt(&self) -> u64 {
        ToyRunner.config_salt()
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        Some(self.0.clone())
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        ToyRunner.run(job, ctx)
    }
}

/// Plan indices of the jobs no other job depends on.
fn sinks(campaign: &Campaign) -> Vec<usize> {
    let plan = campaign.plan();
    (0..plan.len())
        .filter(|i| !plan.iter().any(|(_, deps)| deps.contains(i)))
        .collect()
}

#[test]
fn fully_warm_run_decodes_only_the_sinks() {
    let dir = tmp_dir("warm-decodes");
    let campaign = toy_campaign();
    let codec = Arc::new(CountingCodec::default());
    let runner = CountingRunner(codec.clone());
    let cold = campaign
        .execute_persistent(&runner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(codec.decodes.swap(0, Ordering::SeqCst), 0);

    let warm = campaign
        .execute_persistent(&runner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(warm.outcome.stats.disk_hits, campaign.plan().len());
    let sinks = sinks(&campaign);
    assert!(sinks.len() < campaign.plan().len() / 4, "{sinks:?}");
    assert_eq!(codec.decodes.load(Ordering::SeqCst), sinks.len());
    assert_eq!(
        warm.report(ReportOptions::default()).to_json(),
        cold.report(ReportOptions::default()).to_json()
    );
    // The aggregate is a sink, so its value is there to read.
    assert_eq!(
        warm.aggregate::<String>("antisat"),
        cold.aggregate::<String>("antisat")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Plan indices of the first featurize job and of the dataset job that
/// depends on it: an interior job and a dependent of it.
fn featurize_and_dataset(campaign: &Campaign) -> (usize, usize) {
    let plan = campaign.plan();
    let feat = plan
        .iter()
        .position(|(j, _)| j.kind == JobKind::Featurize)
        .unwrap();
    let dataset = plan
        .iter()
        .position(|(j, deps)| j.kind == JobKind::Dataset && deps.contains(&feat))
        .unwrap();
    (feat, dataset)
}

#[test]
fn undecodable_interior_entry_is_re_executed_on_demand() {
    let dir = tmp_dir("declined-interior");
    let campaign = toy_campaign();
    let total = campaign.plan().len();
    let fps = campaign.job_fingerprints(&ToyRunner);
    let cold = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    let reference = cold.report(ReportOptions::default()).to_json();

    // The featurize entry keeps a valid header and checksum around a
    // payload the codec declines (invalid UTF-8); its dependent's entry
    // is gone, so the dataset job executes and demands it.
    let (feat, dataset) = featurize_and_dataset(&campaign);
    let store = DiskStore::open(&dir).unwrap();
    store
        .save(JobKind::Featurize, fps[feat], &[0xff, 0xfe, 0xfd])
        .unwrap();
    std::fs::remove_file(store.entry_path(JobKind::Dataset, fps[dataset])).unwrap();

    let warm = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert!(warm.outcome.all_succeeded());
    assert_eq!(warm.report(ReportOptions::default()).to_json(), reference);
    // The probe counted a hit; the failed demand turned it into an
    // execution, as a probe-time miss would have been.
    assert_eq!(warm.outcome.records[feat].cache, CacheSource::None);
    assert_eq!(warm.outcome.records[dataset].cache, CacheSource::None);
    assert_eq!(warm.outcome.stats.executed, 2);
    assert_eq!(warm.outcome.stats.disk_hits, total - 2);

    // The re-execution published a readable replacement.
    let bytes = store.load(JobKind::Featurize, fps[feat]).unwrap();
    assert!(ToyCodec.decode(JobKind::Featurize, &bytes).is_some());
    let again = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(again.outcome.stats.disk_hits, total);
    assert_eq!(again.report(ReportOptions::default()).to_json(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_fault_on_demand_re_executes_instead_of_failing() {
    let dir = tmp_dir("demand-fault");
    let campaign = toy_campaign();
    let total = campaign.plan().len();
    let fps = campaign.job_fingerprints(&ToyRunner);
    let reference = campaign
        .execute_persistent(&ToyRunner, ExecConfig::with_workers(2), &dir)
        .unwrap()
        .report(ReportOptions::default())
        .to_json();
    let (feat, dataset) = featurize_and_dataset(&campaign);
    let feat_hex = format!("{:016x}", fps[feat]);

    // The probe's load of the featurize entry passes; the demand-time
    // load fails: reported absent, then torn (a checksum failure that
    // evicts the entry).
    for fault in [Fault::Invisible, Fault::TornRead(9)] {
        let faulty = Arc::new(Faulty::new(LocalDirBackend::new()));
        let store = Arc::new(DiskStore::open_with_backend(&dir, "", faulty.clone()).unwrap());
        std::fs::remove_file(store.entry_path(JobKind::Dataset, fps[dataset])).unwrap();
        faulty.inject(FaultRule::on(FaultOp::Load, feat_hex.as_str(), fault).after(1));
        let executor = Executor::new(ExecConfig::with_workers(2))
            .with_cache(Arc::new(ResultCache::with_disk(store, Arc::new(ToyCodec))));
        let run = campaign.execute(&ToyRunner, &executor);
        assert_eq!(faulty.faults_fired(), 1, "{fault:?}");
        assert!(run.outcome.all_succeeded(), "{fault:?}");
        assert_eq!(run.outcome.records[feat].cache, CacheSource::None);
        assert_eq!(run.outcome.stats.executed, 2, "{fault:?}");
        assert_eq!(run.outcome.stats.disk_hits, total - 2, "{fault:?}");
        assert_eq!(run.report(ReportOptions::default()).to_json(), reference);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk_bins(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk_bins(&path));
        } else if path.extension().is_some_and(|e| e == "bin") {
            out.push(path);
        }
    }
    out.sort();
    out
}

#[test]
fn job_panics_surface_in_the_event_log_with_their_id() {
    struct PanicOn;

    impl CampaignRunner for PanicOn {
        fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
            if job.label() == "train/antisat/c1" {
                panic!("training diverged on {}", job.label());
            }
            ToyRunner.run(job, ctx)
        }
    }

    let dir = tmp_dir("panics");
    let campaign = toy_campaign();
    let run = campaign
        .execute_persistent(&PanicOn, ExecConfig::with_workers(2), &dir)
        .unwrap();
    assert_eq!(run.outcome.stats.failed, 1);
    let failed_id = run
        .outcome
        .records
        .iter()
        .position(|r| matches!(r.status, gnnunlock::engine::JobStatus::Failed(_)))
        .unwrap();

    let replay = EventLog::replay(&dir.join(EVENTS_FILE)).unwrap();
    let (id, error) = replay
        .events
        .iter()
        .find_map(|e| match e {
            Event::StageError { id, error, .. } => Some((*id, error.clone())),
            _ => None,
        })
        .expect("the panic must be a stage-error event");
    assert_eq!(id, failed_id);
    assert!(
        error.contains("job panicked") && error.contains("training diverged"),
        "{error}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The real pipeline: a small Anti-SAT campaign, persisted and resumed.
// ---------------------------------------------------------------------

fn real_cfgs() -> (DatasetConfig, AttackConfig) {
    let mut ds = DatasetConfig::antisat(Suite::Iscas85, 0.02);
    ds.key_sizes = vec![8];
    ds.locks_per_config = 1;
    let attack = AttackConfig {
        train: TrainConfig {
            epochs: 40,
            hidden: 24,
            eval_every: 10,
            patience: 0,
            saint: SaintConfig {
                roots: 200,
                walk_length: 2,
                estimation_rounds: 3,
                seed: 7,
            },
            class_weighting: false,
            ..TrainConfig::default()
        },
        ..AttackConfig::default()
    };
    (ds, attack)
}

/// One small real campaign, run cold then warm from the same directory:
/// with every stage of the DAG covered by the codec, the second run must
/// come (almost) entirely off disk. This is also the CI bench-smoke
/// assertion: ≥ 90% disk hits on the re-run.
#[test]
fn warm_real_campaign_is_mostly_disk_hits() {
    let dir = tmp_dir("warm-smoke");
    let (ds, attack) = real_cfgs();

    let cold =
        run_campaign_persistent("smoke", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    assert!(cold.run.outcome.all_succeeded());
    let reference = cold.run.report(ReportOptions::default()).to_json();

    let warm =
        run_campaign_persistent("smoke", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    let stats = warm.run.outcome.stats;
    assert!(
        stats.disk_hits * 10 >= stats.total * 9,
        "second run must be >= 90% disk hits, got {}/{}",
        stats.disk_hits,
        stats.total
    );
    assert_eq!(stats.executed, 0, "every stage artifact is persistable");
    assert_eq!(
        warm.run.report(ReportOptions::default()).to_json(),
        reference
    );
    // Stage-level reuse is visible per kind: parse, featurize, training
    // and verification all served from the store.
    for summary in warm.run.outcome.stage_summaries() {
        assert_eq!(
            summary.disk_hits, summary.total,
            "stage {} not fully disk-served",
            summary.kind
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill a real campaign mid-training (after two of the four per-target
/// epoch-checkpoint links) and resume: the resumed run restarts from the
/// last persisted checkpoint — the completed links are disk hits, not
/// recomputed — and the final report is byte-identical to an
/// uninterrupted run's.
#[test]
fn kill_mid_training_resumes_from_epoch_checkpoint() {
    let reference_dir = tmp_dir("midtrain-ref");
    let killed_dir = tmp_dir("midtrain-kill");
    let (ds, mut attack) = real_cfgs();
    // 40 epochs in blocks of 10: four train-epoch links per target.
    attack.checkpoint_epochs = 10;
    assert_eq!(gnnunlock::core::checkpoint_blocks(&attack), 4);

    let campaign = gnnunlock::core::campaign_for("midtrain", &ds, &attack);
    let total = campaign.plan().len();
    let epoch_jobs = campaign
        .plan()
        .iter()
        .filter(|(j, _)| j.kind == gnnunlock::engine::JobKind::TrainEpoch)
        .count();
    assert_eq!(epoch_jobs, 16, "4 targets x 4 links");

    // Reference: uninterrupted persistent run.
    let reference = campaign
        .execute_persistent(
            &gnnunlock::core::AttackCampaignRunner::new(&ds, &attack),
            ExecConfig::with_workers(1),
            &reference_dir,
        )
        .unwrap();
    assert!(reference.outcome.all_succeeded());
    let reference_report = reference.report(ReportOptions::default()).to_json();

    // Killed run: a single worker executes jobs in plan order — 12
    // parse/lock/featurize jobs, the dataset, then the first target's
    // epoch chain. Killing after 15 jobs stops it two links into that
    // chain: mid-training, between epoch checkpoints.
    struct KillRealAfter<'a> {
        inner: gnnunlock::core::AttackCampaignRunner<'a>,
        remaining: AtomicUsize,
        token: CancelToken,
    }
    impl CampaignRunner for KillRealAfter<'_> {
        fn config_salt(&self) -> u64 {
            self.inner.config_salt()
        }
        fn stage_salt(&self, kind: gnnunlock::engine::JobKind) -> u64 {
            self.inner.stage_salt(kind)
        }
        fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
            self.inner.codec()
        }
        fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
            let out = self.inner.run(job, ctx);
            if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.token.cancel();
            }
            out
        }
    }
    let kill_after = 15;
    let cfg = ExecConfig::with_workers(1);
    let killer = KillRealAfter {
        inner: gnnunlock::core::AttackCampaignRunner::new(&ds, &attack),
        remaining: AtomicUsize::new(kill_after),
        token: cfg.cancel.clone(),
    };
    let partial = campaign
        .execute_persistent(&killer, cfg, &killed_dir)
        .unwrap();
    assert_eq!(partial.outcome.stats.executed, kill_after);
    assert_eq!(partial.outcome.stats.cancelled, total - kill_after);
    let killed_epochs: usize = partial
        .outcome
        .stage_summaries()
        .iter()
        .find(|s| s.kind == "train-epoch")
        .map(|s| s.executed)
        .unwrap();
    assert_eq!(killed_epochs, 2, "killed two links into the first chain");

    // Resume: the persisted prefix — including both mid-chain epoch
    // checkpoints — is served from disk; training continues from the
    // second checkpoint instead of restarting.
    let (resumed, info) = campaign
        .resume(
            &gnnunlock::core::AttackCampaignRunner::new(&ds, &attack),
            ExecConfig::with_workers(2),
            &killed_dir,
        )
        .unwrap();
    assert_eq!(info.prior_completed, kill_after);
    assert_eq!(resumed.outcome.stats.disk_hits, kill_after);
    assert_eq!(resumed.outcome.stats.executed, total - kill_after);
    let resumed_epoch_summary = resumed
        .outcome
        .stage_summaries()
        .into_iter()
        .find(|s| s.kind == "train-epoch")
        .unwrap();
    assert_eq!(resumed_epoch_summary.disk_hits, 2);
    assert_eq!(resumed_epoch_summary.executed, epoch_jobs - 2);
    assert!(resumed.outcome.all_succeeded());
    assert_eq!(
        resumed.report(ReportOptions::default()).to_json(),
        reference_report,
        "mid-training resume must render the byte-identical report"
    );
    // And the numeric outcomes match the uninterrupted run exactly.
    let scheme = gnnunlock::core::campaign_scheme_tag(&ds);
    let ref_outcomes = reference
        .aggregate::<Vec<gnnunlock::core::AttackOutcome>>(&scheme)
        .unwrap();
    let res_outcomes = resumed
        .aggregate::<Vec<gnnunlock::core::AttackOutcome>>(&scheme)
        .unwrap();
    assert_eq!(ref_outcomes.len(), res_outcomes.len());
    for (a, b) in ref_outcomes.iter().zip(res_outcomes.iter()) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.avg_gnn_accuracy(), b.avg_gnn_accuracy());
        assert_eq!(a.avg_post_accuracy(), b.avg_post_accuracy());
        assert_eq!(a.removal_success_rate(), b.removal_success_rate());
        assert_eq!(a.train_report.history, b.train_report.history);
    }
    let _ = std::fs::remove_dir_all(&reference_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
}

#[test]
fn real_campaign_cold_warm_resume_byte_identical() {
    let dir = tmp_dir("real");
    let (ds, attack) = real_cfgs();

    // Cold persistent run == plain in-memory run, byte for byte.
    let plain = run_campaign_with_workers("real", &ds, &attack, 2);
    let cold =
        run_campaign_persistent("real", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    assert!(cold.run.outcome.all_succeeded());
    let reference = plain.run.report(ReportOptions::default()).to_json();
    assert_eq!(
        cold.run.report(ReportOptions::default()).to_json(),
        reference
    );

    // Trained models and outcomes hit the store; lock/dataset/attack
    // stages recompute by design.
    let warm =
        run_campaign_persistent("real", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    assert!(
        warm.run.outcome.stats.disk_hits > 0,
        "models must come off disk"
    );
    assert_eq!(
        warm.run.report(ReportOptions::default()).to_json(),
        reference
    );
    // Numeric outcomes identical to the cold run's.
    assert_eq!(cold.outcomes.len(), warm.outcomes.len());
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.avg_gnn_accuracy(), b.avg_gnn_accuracy());
        assert_eq!(a.avg_post_accuracy(), b.avg_post_accuracy());
        assert_eq!(a.removal_success_rate(), b.removal_success_rate());
    }

    // Resume over the same directory: also byte-identical, and the
    // replay sees the earlier completions.
    let (resumed, info) =
        resume_campaign("real", &ds, &attack, ExecConfig::with_workers(2), &dir).unwrap();
    assert!(info.prior_completed > 0);
    assert_eq!(
        resumed.run.report(ReportOptions::default()).to_json(),
        reference
    );
    let _ = std::fs::remove_dir_all(&dir);
}
