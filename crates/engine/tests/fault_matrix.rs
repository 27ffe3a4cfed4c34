//! The deterministic crash/takeover matrix: every crash window of the
//! claim/publish/takeover/heartbeat protocol, reproduced through the
//! [`Faulty`] fault-injection decorator with no sleeps, no SIGKILL
//! choreography and no timing dependence (`tests/sharded.rs` keeps one
//! real-process SIGKILL test as smoke). Most scenarios run on
//! `Faulty<ObjectStoreBackend>`, entirely in memory; the ones whose
//! crash residue only exists on a substrate that stages writes run on
//! `Faulty<LocalDirBackend>` over a temp directory.
//!
//! Strategy: each scenario *constructs* the genuine post-crash state
//! through the real APIs — claim a lease, [`LeaseManager::abandon`] it
//! (the deterministic stand-in for process death: files stay, heartbeat
//! stops), back-date mtimes (`BlobService::age`) instead of sleeping,
//! or fire one injected fault — then runs clean survivor
//! shards over the shared backend and asserts the invariants the
//! protocol promises: the campaign completes, the report is
//! byte-identical to a faultless reference, no job body completes more
//! than once, and no lease or tomb file is left wedged.

use gnnunlock_engine::{
    execution_counts, recoverable_schedule, shard_replays, Campaign, CampaignRunner, Claim,
    DiskStore, ExecConfig, Fault, FaultOp, FaultRule, Faulty, JobCtx, JobKind, JobOutput,
    JobStatus, JobValue, LeaseManager, LocalDirBackend, ObjectStoreBackend, ReportOptions,
    ShardConfig, StageJob, StoreBackend, ValueCodec, DEGRADED_PREFIX,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Echo runner + string codec (mirrors the shard/campaign unit tests').
struct Echo;

struct EchoCodec;

impl ValueCodec for EchoCodec {
    fn encode(&self, _kind: JobKind, value: &JobValue) -> Option<Vec<u8>> {
        value
            .downcast_ref::<String>()
            .map(|s| s.as_bytes().to_vec())
    }

    fn decode(&self, _kind: JobKind, bytes: &[u8]) -> Option<JobValue> {
        Some(Arc::new(String::from_utf8(bytes.to_vec()).ok()?) as JobValue)
    }
}

impl CampaignRunner for Echo {
    fn config_salt(&self) -> u64 {
        7
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        Some(Arc::new(EchoCodec))
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        let inputs: Vec<String> = (0..ctx.deps.len())
            .map(|i| ctx.dep::<String>(i).as_ref().clone())
            .collect();
        Ok(Arc::new(format!("{}<-[{}]", job.label(), inputs.join(";"))) as JobValue)
    }
}

fn toy() -> Campaign {
    Campaign::builder("fault-matrix")
        .scheme("antisat")
        .benchmarks(["c1", "c2"])
        .key_sizes([8])
        .build()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gnnunlock-fault-matrix-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An in-memory object store behind the fault decorator, `rules`
/// pre-scheduled.
fn faulty_object(rules: impl IntoIterator<Item = FaultRule>) -> Arc<Faulty<ObjectStoreBackend>> {
    Arc::new(Faulty::with_rules(ObjectStoreBackend::new(), rules))
}

/// Back-date `path`'s mtime by `by` on the in-memory object store —
/// the no-sleep way to make a lease stale or an orphan old.
fn age(backend: &Faulty<ObjectStoreBackend>, path: &Path, by: Duration) -> bool {
    backend.inner().service().age(path, by)
}

/// Every stored path under `dir`, in sorted order.
fn paths(backend: &dyn StoreBackend, dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = backend
        .list(dir, true)
        .unwrap()
        .into_iter()
        .map(|m| m.path)
        .collect();
    out.sort();
    out
}

fn is_protocol_file(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.ends_with(".lease") || n.contains(".tomb-"))
}

/// The faultless reference report every scenario's shards must match.
fn reference_report() -> String {
    let dir = tmp_dir("reference");
    let backend = Arc::new(ObjectStoreBackend::new());
    let run = toy()
        .execute_sharded(
            &Echo,
            ExecConfig::with_workers(2),
            &dir,
            &ShardConfig::new("ref").with_backend(backend),
        )
        .unwrap();
    assert!(run.run.outcome.all_succeeded());
    let report = run.run.report(ReportOptions::default()).to_json();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Run shards `s0..sN` sequentially over `backend`, asserting each
/// succeeds and reproduces `reference` byte-for-byte.
fn run_survivors<B: StoreBackend + 'static>(
    dir: &std::path::Path,
    backend: &Arc<B>,
    shards: usize,
    ttl: Duration,
    reference: &str,
    scenario: &str,
) {
    for i in 0..shards {
        let run = toy()
            .execute_sharded(
                &Echo,
                ExecConfig::with_workers(2),
                dir,
                &ShardConfig::new(format!("s{i}"))
                    .with_ttl(ttl)
                    .with_backend(backend.clone() as Arc<dyn gnnunlock_engine::StoreBackend>),
            )
            .unwrap_or_else(|e| panic!("{scenario}: shard s{i} failed: {e}"));
        assert!(
            run.run.outcome.all_succeeded(),
            "{scenario}: shard s{i} had failed jobs"
        );
        assert_eq!(
            run.run.report(ReportOptions::default()).to_json(),
            reference,
            "{scenario}: shard s{i} diverged from the faultless reference"
        );
    }
}

/// After a scenario: no lease still claimed, no tomb left behind under
/// `dir`.
fn assert_no_wedged_protocol_files(backend: &dyn StoreBackend, dir: &Path, scenario: &str) {
    let leftovers: Vec<_> = paths(backend, dir)
        .into_iter()
        .filter(|p| is_protocol_file(p))
        .collect();
    assert!(
        leftovers.is_empty(),
        "{scenario}: wedged protocol files: {leftovers:?}"
    );
}

/// Every job body completed exactly once across all shard logs.
fn assert_single_execution(dir: &std::path::Path, scenario: &str) {
    let replays = shard_replays(dir).unwrap();
    let counts = execution_counts(&replays);
    assert_eq!(
        counts.len(),
        toy().plan().len(),
        "{scenario}: every job must have completed somewhere"
    );
    assert!(
        counts.values().all(|&n| n == 1),
        "{scenario}: double execution: {counts:?}"
    );
}

/// The store, lease manager and (kind, fp, lease path) of the
/// campaign's first ready job, for pre-seeding crash states.
fn victim_setup<B: StoreBackend + 'static>(
    dir: &Path,
    backend: &Arc<B>,
    ttl: Duration,
) -> (Arc<DiskStore>, LeaseManager, JobKind, u64, PathBuf) {
    let store = Arc::new(
        DiskStore::open_with_backend(
            dir,
            "",
            backend.clone() as Arc<dyn gnnunlock_engine::StoreBackend>,
        )
        .unwrap(),
    );
    let victim = LeaseManager::new(store.clone(), "victim", ttl);
    let campaign = toy();
    let plan = campaign.plan();
    let fps = campaign.job_fingerprints(&Echo);
    let (job0, deps0) = &plan[0];
    assert!(deps0.is_empty(), "plan[0] must be a ready root");
    let lease = victim.lease_path(job0.kind, fps[0]);
    (store, victim, job0.kind, fps[0], lease)
}

/// Crash window: the owner dies mid-job (lease on disk, heartbeat
/// gone). Survivors must take the job over after the TTL and finish the
/// campaign with no double execution — the in-memory replica of the
/// SIGKILL smoke test, with `age` standing in for the TTL wait.
#[test]
fn dead_owner_lease_is_taken_over_without_sleeps() {
    let dir = tmp_dir("dead-owner");
    let backend = faulty_object([]);
    let ttl = Duration::from_secs(30);
    let reference = reference_report();

    let (_store, victim, kind, fp, lease) = victim_setup(&dir, &backend, ttl);
    assert!(matches!(victim.try_claim(kind, fp), Claim::Acquired { .. }));
    victim.abandon(); // process death: the lease file stays, unbeaten
    assert!(age(&backend, &lease, ttl * 2), "lease must exist to age");

    run_survivors(&dir, &backend, 3, ttl, &reference, "dead-owner");
    assert_single_execution(&dir, "dead-owner");
    assert_no_wedged_protocol_files(backend.as_ref(), &dir, "dead-owner");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash window: a challenger died *between* the tomb rename and the
/// lease re-create. Pre-fix, the orphaned tomb sat until hour-stale GC
/// and its generation was lost; now the next claimant adopts the
/// buried generation, claims immediately, and sweeps the tomb.
#[test]
fn interrupted_takeover_is_completed_by_the_next_claimant() {
    let dir = tmp_dir("interrupted-takeover");
    let backend = faulty_object([]);
    let ttl = Duration::from_secs(30);
    let reference = reference_report();

    // A stale lease at generation 3 (an owner that died mid-epoch)...
    let (store, victim, kind, fp, lease) = victim_setup(&dir, &backend, ttl);
    backend
        .inner()
        .publish(&lease, b"gnnunlock-lease owner=old pid=1 gen=3\n")
        .unwrap();
    age(&backend, &lease, ttl * 2);
    drop(victim);
    // ...whose takeover crashes right after the entomb rename.
    backend.inject(FaultRule::on(
        FaultOp::Entomb,
        ".lease",
        Fault::CrashAfterEntomb,
    ));
    let challenger = LeaseManager::new(store.clone(), "challenger", ttl);
    assert_eq!(challenger.try_claim(kind, fp), Claim::Busy);
    challenger.abandon();
    let tombs: Vec<_> = paths(backend.as_ref(), &dir)
        .into_iter()
        .filter(|p| p.to_string_lossy().contains(".tomb-"))
        .collect();
    assert_eq!(tombs.len(), 1, "the crash leaves exactly the orphan tomb");
    assert!(!backend.contains(&lease), "the lease itself is gone");

    // The next claimant needs no TTL wait: the job is free *now*, the
    // buried generation is adopted (monotonic epochs), the tomb swept.
    let next = LeaseManager::new(store.clone(), "next", ttl);
    assert_eq!(
        next.try_claim(kind, fp),
        Claim::Acquired {
            generation: 4,
            takeover: true
        },
        "orphaned takeover must be completable immediately"
    );
    assert!(
        !paths(backend.as_ref(), &dir)
            .iter()
            .any(|p| p.to_string_lossy().contains(".tomb-")),
        "successful claim must sweep the orphaned tomb"
    );
    assert!(next.release(kind, fp));
    drop(next);

    run_survivors(&dir, &backend, 3, ttl, &reference, "interrupted-takeover");
    assert_single_execution(&dir, "interrupted-takeover");
    assert_no_wedged_protocol_files(backend.as_ref(), &dir, "interrupted-takeover");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash window: a writer died after staging its entry bytes but before
/// the atomic rename. The final name must stay untouched (no torn entry
/// served to anyone), the campaign re-executes the job cleanly, and the
/// orphaned temp is invisible to byte accounting and collectable by GC.
/// Runs on a real directory: only a substrate that stages writes can
/// leave the orphan this scenario is about.
#[test]
fn crash_before_publish_rename_leaves_no_torn_entry() {
    let dir = tmp_dir("crash-publish");
    let backend = Arc::new(Faulty::new(LocalDirBackend::new()));
    let ttl = Duration::from_secs(30);
    let reference = reference_report();

    let (store, victim, _kind, _fp, lease) = victim_setup(&dir, &backend, ttl);
    let entry = lease.with_extension("bin");
    backend.inject(FaultRule::on(
        FaultOp::Publish,
        ".bin",
        Fault::CrashBeforeRename,
    ));
    assert!(backend.publish(&entry, b"half-written payload").is_err());
    assert!(
        !backend.contains(&entry),
        "final name untouched by the crash"
    );
    let orphan = paths(backend.as_ref(), &dir)
        .into_iter()
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"))
        })
        .expect("crash leaves the staged temp behind");
    victim.abandon();

    run_survivors(&dir, &backend, 3, ttl, &reference, "crash-publish");
    assert_single_execution(&dir, "crash-publish");
    assert_no_wedged_protocol_files(backend.as_ref(), &dir, "crash-publish");

    // The orphan never counts toward byte budgets, and once stale it is
    // swept by the next GC pass (any budget — orphans are not entries).
    let billed = store.usage_bytes();
    assert!(
        backend.contains(&orphan),
        "orphan survives until it goes stale"
    );
    std::fs::File::options()
        .append(true)
        .open(&orphan)
        .and_then(|f| f.set_modified(SystemTime::now() - Duration::from_secs(2 * 3600)))
        .unwrap();
    store.gc(u64::MAX);
    assert!(!backend.contains(&orphan), "stale orphan must be collected");
    assert_eq!(store.usage_bytes(), billed, "orphans were never billed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash window: a claimant won the create but died mid-write, leaving
/// a *torn* lease file under the claimed name (the legacy
/// create-new-then-write protocol; NFS partial visibility). Torn bytes
/// must never decide ownership: fresh → a live peer (conservative),
/// stale → normal takeover arbitrated by mtime, with the generation
/// parsing as 0.
#[test]
fn torn_lease_files_never_decide_ownership() {
    let dir = tmp_dir("torn-claim");
    let backend = faulty_object([]);
    let ttl = Duration::from_secs(30);
    let reference = reference_report();

    let (store, victim, kind, fp, lease) = victim_setup(&dir, &backend, ttl);
    drop(victim);
    backend.inject(FaultRule::on(FaultOp::Claim, ".lease", Fault::TornWrite(9)));
    let peer = LeaseManager::new(store.clone(), "peer", ttl);
    // The peer's claim "succeeded" at the backend then the peer died:
    // a torn lease file exists under the claimed name.
    assert_eq!(peer.try_claim(kind, fp), Claim::Busy);
    peer.abandon();
    let torn = backend
        .inner()
        .load(&lease)
        .expect("torn lease file exists");
    assert!(torn.len() < 20, "file must actually be torn: {torn:?}");

    // Fresh + torn: conservatively a live peer — no spurious takeover.
    let rival = LeaseManager::new(store.clone(), "rival", ttl);
    assert_eq!(rival.try_claim(kind, fp), Claim::Busy);
    assert!(
        rival.peer_holds(kind, fp),
        "fresh torn lease reads as held (scheduling stays conservative)"
    );
    // Stale + torn: the mtime, not the unreadable content, carries the
    // verdict — taken over at generation 0 + 1.
    age(&backend, &lease, ttl * 2);
    assert_eq!(
        rival.try_claim(kind, fp),
        Claim::Acquired {
            generation: 1,
            takeover: true
        }
    );
    assert!(rival.release(kind, fp));
    drop(rival);

    run_survivors(&dir, &backend, 3, ttl, &reference, "torn-claim");
    assert_single_execution(&dir, "torn-claim");
    assert_no_wedged_protocol_files(backend.as_ref(), &dir, "torn-claim");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash window: the *owner's own heartbeat* observes a torn read of
/// its lease (reader racing the filesystem, NFS partial page). Pre-fix
/// the owner dropped the lease as lost, stopped heartbeating, and a
/// peer took over a perfectly live owner's job; now a torn observation
/// keeps the lease and the next beat re-judges it.
#[test]
fn torn_heartbeat_read_does_not_abandon_a_live_lease() {
    let dir = tmp_dir("torn-heartbeat");
    let backend = faulty_object([]);
    let ttl = Duration::from_secs(30);

    let (store, owner, kind, fp, _lease) = victim_setup(&dir, &backend, ttl);
    assert!(matches!(owner.try_claim(kind, fp), Claim::Acquired { .. }));

    // One torn read, one transient error, then clean again.
    backend.inject(FaultRule::on(FaultOp::Load, ".lease", Fault::TornRead(7)));
    backend.inject(FaultRule::on(FaultOp::Load, ".lease", Fault::Transient).after(1));
    owner.force_heartbeat(); // torn observation
    owner.force_heartbeat(); // transient error
    assert_eq!(
        owner.held(),
        1,
        "torn/transient reads must not drop the lease"
    );
    assert_eq!(owner.stats().lost, 0);
    owner.force_heartbeat(); // clean: refreshes
    assert_eq!(owner.held(), 1);

    // A rival still sees a fresh, held lease — no spurious takeover.
    let rival = LeaseManager::new(store.clone(), "rival", ttl);
    assert_eq!(rival.try_claim(kind, fp), Claim::Busy);
    assert_eq!(rival.stats().takeovers, 0);

    // An *intact foreign* observation still means usurped: that path
    // must not have been loosened by torn-tolerance.
    backend
        .inner()
        .publish(
            &owner.lease_path(kind, fp),
            b"gnnunlock-lease owner=usurper pid=9 gen=7\n",
        )
        .unwrap();
    owner.force_heartbeat();
    assert_eq!(owner.held(), 0, "intact foreign content is a real loss");
    assert_eq!(owner.stats().lost, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded soak: N pseudo-random schedules of *recoverable* faults
/// (transient errors, delayed visibility, torn and slow reads, latency,
/// short outages) thrown at full sharded runs over a real directory.
/// Recoverable faults may cost duplicate work — a shard that
/// transiently cannot see a peer's entry legitimately re-executes the
/// job — but must never change the report or fail the campaign.
/// `GNNUNLOCK_FAULT_SOAK_SEEDS` (default 6) widens the sweep in CI; a
/// failure names its seed so the exact schedule reproduces.
#[test]
fn recoverable_fault_soak_never_diverges_the_report() {
    let reference = reference_report();
    let seeds: u64 = std::env::var("GNNUNLOCK_FAULT_SOAK_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(6);
    for seed in 1..=seeds {
        let dir = tmp_dir(&format!("soak-{seed}"));
        let backend = Arc::new(Faulty::with_rules(
            LocalDirBackend::new(),
            recoverable_schedule(seed, 10),
        ));
        for i in 0..2 {
            let run = toy()
                .execute_sharded(
                    &Echo,
                    ExecConfig::with_workers(2),
                    &dir,
                    &ShardConfig::new(format!("s{i}")).with_backend(backend.clone()),
                )
                .unwrap_or_else(|e| panic!("soak seed {seed}: shard s{i} failed: {e}"));
            assert!(
                run.run.outcome.all_succeeded(),
                "soak seed {seed}: shard s{i} had failed jobs"
            );
            assert_eq!(
                run.run.report(ReportOptions::default()).to_json(),
                reference,
                "soak seed {seed}: shard s{i} diverged from the reference"
            );
        }
        // No wedged-files assertion here: a visibility fault during
        // release legitimately strands a lease (the owner counts it
        // lost; it ages out via the normal stale path). Reports and
        // success are the soak invariants.
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Chaos acceptance: a 3-shard campaign over the object-store backend
/// under a seeded schedule of service-shaped faults — latency spikes,
/// short unavailability windows, transient errors — must stay
/// byte-identical to the faultless reference with every job body
/// executed exactly once. The resilience layer's retries absorb the
/// whole schedule, and every backoff pause lands on the decorator's
/// virtual clock, so the test is timing-free.
#[test]
fn object_backend_chaos_schedule_is_byte_identical_and_exactly_once() {
    let reference = reference_report();
    let dir = tmp_dir("object-chaos");
    let backend = faulty_object([
        FaultRule::on(FaultOp::Load, ".bin", Fault::Transient),
        FaultRule::on(FaultOp::Publish, ".bin", Fault::Latency(12)).after(1),
        FaultRule::on(FaultOp::Claim, ".lease", Fault::Unavailable(2)).after(2),
        FaultRule::on(FaultOp::Load, ".lease", Fault::Latency(3)).after(4),
        FaultRule::on(FaultOp::Publish, ".bin", Fault::Unavailable(1)).after(3),
        FaultRule::on(FaultOp::Load, ".bin", Fault::SlowRead).after(5),
        FaultRule::on(FaultOp::Load, ".bin", Fault::Transient).after(7),
    ]);

    run_survivors(
        &dir,
        &backend,
        3,
        Duration::from_secs(30),
        &reference,
        "object-chaos",
    );
    assert_single_execution(&dir, "object-chaos");
    assert!(
        backend.faults_fired() > 0,
        "the schedule must actually have fired"
    );
    assert!(
        backend.virtual_waited() > Duration::ZERO,
        "backoff must be charged to the virtual clock, not slept"
    );
    assert_no_wedged_protocol_files(backend.as_ref(), &dir, "object-chaos");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degradation acceptance: mid-campaign the object store becomes
/// unavailable *for good*. The run must fail cleanly — a
/// `store-degraded` stage error, no panic, no poll-forever — and once
/// the outage clears, a fresh shard over the same bucket (stranded
/// leases aged past the TTL, exactly as wall-clock would) converges to
/// the reference report, proving no lease was left wedged.
#[test]
fn sustained_object_outage_fails_cleanly_and_recovers() {
    let reference = reference_report();
    let dir = tmp_dir("object-outage");
    let ttl = Duration::from_millis(200);
    // After a handful of healthy operations the service disappears:
    // every subsequent gated op times out, forever.
    let backend =
        faulty_object([FaultRule::on(FaultOp::Load, "", Fault::Unavailable(usize::MAX)).after(12)]);

    let run = toy()
        .execute_sharded(
            &Echo,
            ExecConfig::with_workers(2),
            &dir,
            &ShardConfig::new("s0")
                .with_ttl(ttl)
                .with_backend(backend.clone() as Arc<dyn StoreBackend>),
        )
        .expect("the outage must fail jobs, not the run itself");
    assert!(
        !run.run.outcome.all_succeeded(),
        "the campaign cannot survive a permanent outage"
    );
    let degraded_failures: Vec<_> = run
        .run
        .outcome
        .records
        .iter()
        .filter_map(|r| match &r.status {
            JobStatus::Failed(msg) if msg.contains(DEGRADED_PREFIX) => Some(msg.clone()),
            _ => None,
        })
        .collect();
    assert!(
        !degraded_failures.is_empty(),
        "failures must carry the store-degraded marker: {:?}",
        run.run
            .outcome
            .records
            .iter()
            .map(|r| &r.status)
            .collect::<Vec<_>>()
    );

    // Recovery: the outage ends. Stranded leases (owners that could not
    // release through the dead store) age past the TTL — the virtual
    // stand-in for waiting out one TTL — and a clean shard converges.
    backend.clear_rules();
    for key in paths(backend.as_ref(), &dir) {
        if is_protocol_file(&key) {
            age(&backend, &key, ttl * 4);
        }
    }
    let recovery_dir = tmp_dir("object-outage-recovery");
    run_survivors(
        &recovery_dir,
        &backend,
        1,
        ttl,
        &reference,
        "object-outage-recovery",
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&recovery_dir);
}

/// Seeded soak over the object-store backend: the same recoverable-
/// fault schedules as the directory soak, run against the
/// conditional-put substrate. `GNNUNLOCK_FAULT_SOAK_SEEDS` widens the
/// sweep in CI; a failure names its seed.
#[test]
fn object_backend_recoverable_soak_never_diverges_the_report() {
    let reference = reference_report();
    let seeds: u64 = std::env::var("GNNUNLOCK_FAULT_SOAK_SEEDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(6);
    for seed in 1..=seeds {
        let dir = tmp_dir(&format!("object-soak-{seed}"));
        let backend = faulty_object(recoverable_schedule(seed, 10));
        for i in 0..2 {
            let run = toy()
                .execute_sharded(
                    &Echo,
                    ExecConfig::with_workers(2),
                    &dir,
                    &ShardConfig::new(format!("s{i}"))
                        .with_backend(backend.clone() as Arc<dyn StoreBackend>),
                )
                .unwrap_or_else(|e| panic!("object soak seed {seed}: shard s{i} failed: {e}"));
            assert!(
                run.run.outcome.all_succeeded(),
                "object soak seed {seed}: shard s{i} had failed jobs"
            );
            assert_eq!(
                run.run.report(ReportOptions::default()).to_json(),
                reference,
                "object soak seed {seed}: shard s{i} diverged from the reference"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
