//! Deterministic fault injection as a decorator: [`Faulty`] wraps any
//! [`StoreBackend`] and fails, tears or delays its operations on a
//! seeded, fire-once schedule of [`FaultRule`]s.
//!
//! This module is the only owner of the fault vocabulary — the faults,
//! their schedule, the operation journal, the unavailability window and
//! the virtual clock — so the same semantics apply whatever substrate
//! sits underneath: an object store, a real directory, or a test's own
//! backend. Service-shaped faults (transient errors, latency, outages,
//! slow reads) never reach the inner backend; op-specific faults are
//! *staged* through the inner backend's own trait methods, so the
//! post-crash state a test observes is exactly what that substrate would
//! leave behind:
//!
//! - [`Fault::TornRead`] — `inner.load`, then the bytes are truncated;
//! - [`Fault::Invisible`] — `NotFound` without calling the inner backend;
//! - [`Fault::TornWrite`] on claim — `inner.claim` with a prefix of the
//!   content, then an error;
//! - [`Fault::CrashAfterEntomb`] — `inner.entomb`, then an error;
//! - [`Fault::CrashBeforeRename`], or [`Fault::TornWrite`] on publish —
//!   [`StoreBackend::crash_residue`] leaves whatever a writer dying
//!   mid-publish leaves on that substrate (an orphaned `.tmp-*` sibling
//!   on a directory, nothing on an object store), then an error; the
//!   final path is never touched.
//!
//! Every backoff pause is charged to the decorator's virtual clock
//! instead of slept, which is what lets the crash, retry and breaker
//! matrices run timing-free on any substrate.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use crate::backend::{FileMeta, StoreBackend};

/// The operation an injected fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`StoreBackend::publish`].
    Publish,
    /// [`StoreBackend::claim`].
    Claim,
    /// [`StoreBackend::entomb`].
    Entomb,
    /// [`StoreBackend::load`].
    Load,
    /// [`StoreBackend::refresh`].
    Refresh,
    /// [`StoreBackend::remove`].
    Remove,
}

impl FaultOp {
    /// Stable lowercase tag (journal / diagnostics).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultOp::Publish => "publish",
            FaultOp::Claim => "claim",
            FaultOp::Entomb => "entomb",
            FaultOp::Load => "load",
            FaultOp::Refresh => "refresh",
            FaultOp::Remove => "remove",
        }
    }
}

/// The failure a matched [`FaultRule`] injects. A fault the targeted
/// operation has no staging for fails it with no effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The writer died after staging its bytes but before making them
    /// visible: the final path is untouched, the substrate keeps its
    /// crash residue, and the operation errors.
    CrashBeforeRename,
    /// The challenger died immediately after the tomb rename: the
    /// rename *is applied* (the lease is gone, the tomb exists), then
    /// the operation errors.
    CrashAfterEntomb,
    /// The writer died (or a reader raced it) mid-write, after the
    /// first `n` bytes. On `claim` the torn file *exists* under the
    /// claimed name (the legacy create-new-then-write protocol; NFS
    /// partial visibility); on `publish` the torn bytes are only crash
    /// residue, never the final name (publish is atomic).
    TornWrite(usize),
    /// The reader observed only the first `n` bytes — an NFS
    /// close-to-open cache serving a stale partial page.
    TornRead(usize),
    /// The path is reported absent for this one operation even though
    /// it exists — NFS close-to-open delayed visibility.
    Invisible,
    /// A spurious transient error ([`io::ErrorKind::WouldBlock`]); the
    /// operation has no effect and succeeds if retried.
    Transient,
    /// The service answered only after `ms` milliseconds — surfaced to
    /// the caller as [`io::ErrorKind::TimedOut`] (its patience ran out
    /// first) with the latency charged to the virtual clock, never
    /// slept. The operation has no effect and succeeds if retried.
    Latency(u64),
    /// A sustained outage: this operation fails with
    /// [`io::ErrorKind::TimedOut`] and opens a window in which the next
    /// `n` operations of any kind fail the same way — the schedule
    /// vocabulary for exercising retry exhaustion and the circuit
    /// breaker.
    Unavailable(usize),
    /// A degraded-but-correct replica: the read completes with the full
    /// bytes, but its slowness is charged to the virtual clock.
    SlowRead,
}

impl Fault {
    /// Stable lowercase tag (journal / diagnostics).
    pub fn tag(&self) -> &'static str {
        match self {
            Fault::CrashBeforeRename => "crash-before-rename",
            Fault::CrashAfterEntomb => "crash-after-entomb",
            Fault::TornWrite(_) => "torn-write",
            Fault::TornRead(_) => "torn-read",
            Fault::Invisible => "invisible",
            Fault::Transient => "transient",
            Fault::Latency(_) => "latency",
            Fault::Unavailable(_) => "unavailable",
            Fault::SlowRead => "slow-read",
        }
    }

    /// Whether a schedule of this fault can never change a campaign's
    /// outcome, only its wall-clock — the admission criterion for the
    /// seeded soak schedules. Crash and torn-write faults are excluded:
    /// they mutate durable state mid-operation, which is the crash
    /// matrix's scenario, not the soak's.
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            Fault::Transient
                | Fault::Invisible
                | Fault::TornRead(_)
                | Fault::Latency(_)
                | Fault::Unavailable(_)
                | Fault::SlowRead
        )
    }
}

/// One entry of a [`Faulty`] schedule: the `skip`-th-and-after matching
/// operation (op kind + path substring) fires `fault`, once.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The operation kind this rule matches.
    pub op: FaultOp,
    /// Substring the operation's path must contain (`""` matches all).
    pub path_contains: String,
    /// Matching operations to let through before firing.
    pub skip: usize,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultRule {
    /// A rule firing `fault` on the first `op` whose path contains
    /// `path_contains`.
    pub fn on(op: FaultOp, path_contains: impl Into<String>, fault: Fault) -> Self {
        FaultRule {
            op,
            path_contains: path_contains.into(),
            skip: 0,
            fault,
        }
    }

    /// Let `skip` matching operations through before firing.
    pub fn after(mut self, skip: usize) -> Self {
        self.skip = skip;
        self
    }
}

/// One journaled operation (for test assertions).
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Position in the journal.
    pub seq: u64,
    /// The operation kind.
    pub op: FaultOp,
    /// The path operated on.
    pub path: PathBuf,
    /// The fault injected into this operation, if any.
    pub fault: Option<Fault>,
    /// Whether the operation returned `Ok`.
    pub ok: bool,
}

#[derive(Debug)]
struct ArmedRule {
    rule: FaultRule,
    seen: usize,
    fired: bool,
}

/// A [`StoreBackend`] decorator injecting a deterministic fault schedule
/// into `B`. See the [module docs](self) for how each fault is staged.
///
/// Only the gated operations (`publish`, `claim`, `entomb`, `load`,
/// `refresh`, `remove`) consult the schedule and land in the journal;
/// the probes (`contains`, `mtime`, `list`, `ensure_dir`) pass straight
/// through. With no rules scheduled the decorator is transparent apart
/// from [`StoreBackend::backoff_wait`], which it charges to its virtual
/// clock instead of sleeping.
#[derive(Debug)]
pub struct Faulty<B> {
    inner: B,
    rules: Mutex<Vec<ArmedRule>>,
    journal: Mutex<Vec<JournalEntry>>,
    /// Remaining operations in an open [`Fault::Unavailable`] window.
    unavailable: AtomicU64,
    /// Virtual microseconds parked in backoff waits or charged by
    /// latency/slow-read faults — the timing-free stand-in for sleeping.
    waited: AtomicU64,
}

impl<B: StoreBackend> Faulty<B> {
    /// `inner` with no faults scheduled.
    pub fn new(inner: B) -> Self {
        Faulty {
            inner,
            rules: Mutex::default(),
            journal: Mutex::default(),
            unavailable: AtomicU64::new(0),
            waited: AtomicU64::new(0),
        }
    }

    /// `inner` with `rules` pre-scheduled.
    pub fn with_rules(inner: B, rules: impl IntoIterator<Item = FaultRule>) -> Self {
        let b = Faulty::new(inner);
        for r in rules {
            b.inject(r);
        }
        b
    }

    /// The wrapped backend — its operations bypass the schedule and the
    /// journal, which is how tests construct post-crash states.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Schedule one more fault rule.
    pub fn inject(&self, rule: FaultRule) {
        self.rules
            .lock()
            .expect("fault schedule poisoned")
            .push(ArmedRule {
                rule,
                seen: 0,
                fired: false,
            });
    }

    /// Drop all scheduled (fired or not) rules and close any open
    /// unavailability window.
    pub fn clear_rules(&self) {
        self.rules.lock().expect("fault schedule poisoned").clear();
        self.unavailable.store(0, Ordering::Relaxed);
    }

    /// How many scheduled rules have fired.
    pub fn faults_fired(&self) -> usize {
        let rules = self.rules.lock().expect("fault schedule poisoned");
        rules.iter().filter(|r| r.fired).count()
    }

    /// Total virtual time parked in backoff waits or charged by
    /// latency/slow-read faults — what a wall clock would have measured
    /// had the backend really slept.
    pub fn virtual_waited(&self) -> Duration {
        Duration::from_micros(self.waited.load(Ordering::Relaxed))
    }

    /// The operation journal so far.
    pub fn journal(&self) -> Vec<JournalEntry> {
        self.journal.lock().expect("fault journal poisoned").clone()
    }

    /// The first due rule matching `(op, path)`, marked fired. Every
    /// matching unfired rule's skip count advances — `.after(n)` counts
    /// matching *operations*, not operations left over by earlier rules.
    fn check(&self, op: FaultOp, path: &Path) -> Option<Fault> {
        let path_str = path.to_string_lossy();
        let mut rules = self.rules.lock().expect("fault schedule poisoned");
        let mut hit = None;
        for armed in rules.iter_mut() {
            if armed.fired || armed.rule.op != op || !path_str.contains(&armed.rule.path_contains) {
                continue;
            }
            let due = armed.seen >= armed.rule.skip;
            armed.seen += 1;
            if hit.is_none() && due {
                armed.fired = true;
                hit = Some(armed.rule.fault);
            }
        }
        hit
    }

    /// The one fault gate: an open unavailability window fails the
    /// operation outright; transient/latency/outage faults error
    /// retryably without reaching `inner`; slow reads are charged to the
    /// virtual clock and let through. Anything else is an op-specific
    /// fault handed to `stage`, which performs the operation (or its
    /// crash) through `inner`. Every gated operation is journaled once.
    fn gate<T>(
        &self,
        op: FaultOp,
        path: &Path,
        stage: impl FnOnce(Option<Fault>) -> io::Result<T>,
    ) -> io::Result<T> {
        let in_window = self
            .unavailable
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok();
        let fault = if in_window {
            Some(Fault::Unavailable(0))
        } else {
            self.check(op, path)
        };
        let out = match fault {
            Some(f @ Fault::Transient) => Err(injected(op, f, io::ErrorKind::WouldBlock)),
            Some(f @ Fault::Latency(ms)) => {
                self.charge(Duration::from_millis(ms));
                Err(injected(op, f, io::ErrorKind::TimedOut))
            }
            Some(f @ Fault::Unavailable(n)) => {
                if !in_window {
                    self.unavailable.store(n as u64, Ordering::Relaxed);
                }
                Err(injected(op, f, io::ErrorKind::TimedOut))
            }
            Some(Fault::SlowRead) => {
                // A nominal 25 ms of replica lag, charged not slept.
                self.charge(Duration::from_millis(25));
                stage(None)
            }
            other => stage(other),
        };
        let mut journal = self.journal.lock().expect("fault journal poisoned");
        let seq = journal.len() as u64;
        journal.push(JournalEntry {
            seq,
            op,
            path: path.to_path_buf(),
            fault,
            ok: out.is_ok(),
        });
        out
    }

    fn charge(&self, pause: Duration) {
        self.waited
            .fetch_add(pause.as_micros() as u64, Ordering::Relaxed);
    }
}

fn injected(op: FaultOp, fault: Fault, kind: io::ErrorKind) -> io::Error {
    io::Error::new(
        kind,
        format!("injected fault: {} on {}", fault.tag(), op.tag()),
    )
}

/// The first `n` bytes of `bytes` (all of them when shorter).
fn prefix(bytes: &[u8], n: usize) -> &[u8] {
    &bytes[..n.min(bytes.len())]
}

impl<B: StoreBackend> StoreBackend for Faulty<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn ensure_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.ensure_dir(dir)
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let op = FaultOp::Publish;
        self.gate(op, path, |fault| match fault {
            None => self.inner.publish(path, bytes),
            Some(f @ (Fault::CrashBeforeRename | Fault::TornWrite(_))) => {
                let staged = match f {
                    Fault::TornWrite(n) => prefix(bytes, n),
                    _ => bytes,
                };
                self.inner.crash_residue(path, staged)?;
                Err(injected(op, f, io::ErrorKind::Other))
            }
            Some(f) => Err(injected(op, f, io::ErrorKind::Other)),
        })
    }

    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()> {
        let op = FaultOp::Claim;
        self.gate(op, path, |fault| match fault {
            None => self.inner.claim(path, content),
            Some(f @ Fault::TornWrite(n)) => {
                // The claimant won the create but died mid-write: the
                // claimed name holds a content prefix only.
                self.inner.claim(path, prefix(content, n))?;
                Err(injected(op, f, io::ErrorKind::Other))
            }
            Some(f) => Err(injected(op, f, io::ErrorKind::Other)),
        })
    }

    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()> {
        let op = FaultOp::Entomb;
        self.gate(op, path, |fault| match fault {
            None => self.inner.entomb(path, tomb),
            Some(f @ Fault::CrashAfterEntomb) => {
                // The rename is applied — the challenger died before it
                // could read the tomb and re-create the lease.
                self.inner.entomb(path, tomb)?;
                Err(injected(op, f, io::ErrorKind::Other))
            }
            Some(f) => Err(injected(op, f, io::ErrorKind::Other)),
        })
    }

    fn load(&self, path: &Path) -> io::Result<Vec<u8>> {
        let op = FaultOp::Load;
        self.gate(op, path, |fault| match fault {
            None => self.inner.load(path),
            Some(Fault::TornRead(n)) => {
                let mut bytes = self.inner.load(path)?;
                bytes.truncate(n);
                Ok(bytes)
            }
            Some(f @ Fault::Invisible) => Err(injected(op, f, io::ErrorKind::NotFound)),
            Some(f) => Err(injected(op, f, io::ErrorKind::Other)),
        })
    }

    fn contains(&self, path: &Path) -> bool {
        self.inner.contains(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let op = FaultOp::Remove;
        self.gate(op, path, |fault| match fault {
            None => self.inner.remove(path),
            Some(f) => Err(injected(op, f, io::ErrorKind::Other)),
        })
    }

    fn refresh(&self, path: &Path) -> io::Result<()> {
        let op = FaultOp::Refresh;
        self.gate(op, path, |fault| match fault {
            None => self.inner.refresh(path),
            Some(f) => Err(injected(op, f, io::ErrorKind::Other)),
        })
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        self.inner.mtime(path)
    }

    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>> {
        self.inner.list(dir, recursive)
    }

    fn backoff_wait(&self, pause: Duration) {
        // Nothing real to wait for: charge the virtual clock so retry
        // schedules stay observable without costing wall-clock.
        self.charge(pause);
    }
}

/// A deterministic pseudo-random schedule of *recoverable* faults
/// (transient errors, delayed visibility, torn and slow reads, latency,
/// short outages) for soak testing: the same `seed` always yields the
/// same schedule, so a failing soak iteration reproduces exactly from
/// its printed seed. Crash faults are deliberately excluded — an
/// injected crash aborts the injected-into shard's operation but not its
/// process, which is a different scenario than the crash matrix
/// constructs; recoverable faults must never change a campaign's report,
/// only its wall-clock.
pub fn recoverable_schedule(seed: u64, rules: usize) -> Vec<FaultRule> {
    // xorshift must not start at 0; xor with an odd constant keeps
    // adjacent seeds distinct (a plain `| 1` would alias 2k with 2k+1).
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    if state == 0 {
        state = 0x2545_F491_4F6C_DD1D;
    }
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..rules)
        .map(|_| {
            let op = match next() % 4 {
                0 => FaultOp::Load,
                1 => FaultOp::Publish,
                2 => FaultOp::Claim,
                _ => FaultOp::Refresh,
            };
            let fault = match (next() % 6, op) {
                // Visibility, torn and slow reads only make sense on loads.
                (0, FaultOp::Load) => Fault::Invisible,
                (1, FaultOp::Load) => Fault::TornRead((next() % 24) as usize),
                (2, FaultOp::Load) => Fault::SlowRead,
                // Short windows only: the retry budget (4 attempts by
                // default) must be able to outlast an injected outage,
                // or the soak would assert on a legitimate degradation.
                (3, _) => Fault::Unavailable(1 + (next() % 2) as usize),
                (4, _) => Fault::Latency(1 + next() % 40),
                _ => Fault::Transient,
            };
            let path_contains = match next() % 3 {
                0 => ".lease",
                1 => ".bin",
                _ => "",
            };
            FaultRule::on(op, path_contains, fault).after((next() % 6) as usize)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalDirBackend;
    use crate::object::ObjectStoreBackend;

    fn object(rules: impl IntoIterator<Item = FaultRule>) -> Faulty<ObjectStoreBackend> {
        Faulty::with_rules(ObjectStoreBackend::new(), rules)
    }

    #[test]
    fn fault_rules_fire_once_in_schedule_order() {
        let b = object([
            FaultRule::on(FaultOp::Load, ".bin", Fault::Transient),
            FaultRule::on(FaultOp::Load, ".bin", Fault::Invisible).after(1),
        ]);
        let path = Path::new("/v/x.bin");
        b.publish(path, b"payload").unwrap();
        // 1st load: transient. 2nd: the second rule has skipped one
        // match, so it fires invisible. 3rd: clean.
        assert_eq!(b.load(path).unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(b.load(path).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(b.load(path).unwrap(), b"payload");
        assert_eq!(b.faults_fired(), 2);
        let journal = b.journal();
        assert_eq!(journal.len(), 4); // publish + 3 loads
        assert_eq!(journal[1].fault, Some(Fault::Transient));
        assert_eq!(journal[2].fault, Some(Fault::Invisible));
        assert!(journal[3].ok && journal[3].fault.is_none());
        assert_eq!(journal[3].seq, 3);
    }

    /// Publish `payload` at `root/objects/entry.bin` under a crash
    /// fault; returns the crash residue left beside the untouched final
    /// name, after checking that a retried publish succeeds.
    fn crashed_publish<B: StoreBackend>(b: Faulty<B>, root: &Path, fault: Fault) -> Vec<FileMeta> {
        b.inject(FaultRule::on(FaultOp::Publish, "entry.bin", fault));
        let path = root.join("objects/entry.bin");
        assert!(b.publish(&path, b"payload").is_err());
        assert!(!b.contains(&path), "final path untouched by the crash");
        let residue = b.list(root, true).unwrap();
        b.publish(&path, b"payload").unwrap();
        assert_eq!(b.load(&path).unwrap(), b"payload");
        residue
    }

    #[test]
    fn crash_before_rename_leaves_substrate_residue_never_a_torn_entry() {
        let root =
            std::env::temp_dir().join(format!("gnnunlock-fault-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (fault, staged) in [
            (Fault::CrashBeforeRename, &b"payload"[..]),
            (Fault::TornWrite(3), &b"pay"[..]),
        ] {
            // A directory stages: exactly the orphaned temp survives,
            // holding what the dead writer had written.
            let residue = crashed_publish(Faulty::new(LocalDirBackend::new()), &root, fault);
            assert_eq!(residue.len(), 1, "{fault:?}: {residue:?}");
            let orphan = &residue[0].path;
            let name = orphan.file_name().unwrap().to_string_lossy();
            assert!(name.starts_with(".tmp-"), "{fault:?}: {name}");
            assert_eq!(std::fs::read(orphan).unwrap(), staged);
            let _ = std::fs::remove_dir_all(&root);

            // An object store's PUT is atomic: a crashed upload leaves
            // nothing at all.
            let residue = crashed_publish(object([]), Path::new("/bucket"), fault);
            assert!(residue.is_empty(), "{fault:?}: {residue:?}");
        }
    }

    #[test]
    fn torn_claim_leaves_a_partial_lease_file() {
        let b = object([FaultRule::on(FaultOp::Claim, ".lease", Fault::TornWrite(7))]);
        let path = Path::new("/v/objects/x.lease");
        assert!(b.claim(path, b"gnnunlock-lease owner=a gen=0\n").is_err());
        assert_eq!(b.inner().load(path).unwrap(), b"gnnunlo");
        // The torn file *exists*: a later claimant must see AlreadyExists.
        let err = b.claim(path, b"other\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn crash_after_entomb_applies_the_rename_then_errors() {
        let b = object([FaultRule::on(
            FaultOp::Entomb,
            ".lease",
            Fault::CrashAfterEntomb,
        )]);
        let path = Path::new("/v/objects/x.lease");
        let tomb = Path::new("/v/objects/x.lease.tomb-1-0");
        b.claim(path, b"victim\n").unwrap();
        assert!(b.entomb(path, tomb).is_err());
        assert!(!b.contains(path), "lease gone: the rename was applied");
        assert_eq!(b.inner().load(tomb).unwrap(), b"victim\n");
    }

    #[test]
    fn latency_fault_errs_timed_out_and_charges_the_virtual_clock() {
        let b = object([FaultRule::on(FaultOp::Load, ".bin", Fault::Latency(7))]);
        let path = Path::new("/v/x.bin");
        b.publish(path, b"payload").unwrap();
        let err = b.load(path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(b.virtual_waited(), Duration::from_millis(7));
        // The retry succeeds and a backoff wait is charged, not slept.
        b.backoff_wait(Duration::from_millis(13));
        assert_eq!(b.load(path).unwrap(), b"payload");
        assert_eq!(b.virtual_waited(), Duration::from_millis(20));
    }

    #[test]
    fn unavailable_fault_opens_a_window_over_every_operation() {
        let b = object([FaultRule::on(FaultOp::Load, "", Fault::Unavailable(2))]);
        let path = Path::new("/v/x.bin");
        b.publish(path, b"payload").unwrap();
        // The matched load fails and opens a 2-op window: the next two
        // operations — whatever their kind or path — fail too.
        assert_eq!(b.load(path).unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(
            b.publish(Path::new("/v/y.bin"), b"z").unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(b.refresh(path).unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert!(
            !b.contains(Path::new("/v/y.bin")),
            "no effect in the window"
        );
        // Window exhausted: service back.
        assert_eq!(b.load(path).unwrap(), b"payload");
        // clear_rules also closes a half-consumed window.
        b.inject(FaultRule::on(FaultOp::Load, "", Fault::Unavailable(9)));
        assert!(b.load(path).is_err());
        b.clear_rules();
        assert_eq!(b.load(path).unwrap(), b"payload");
    }

    #[test]
    fn slow_read_succeeds_with_full_bytes_but_is_charged() {
        let b = object([FaultRule::on(FaultOp::Load, ".bin", Fault::SlowRead)]);
        let path = Path::new("/v/x.bin");
        b.publish(path, b"payload").unwrap();
        assert_eq!(b.load(path).unwrap(), b"payload");
        assert!(b.virtual_waited() > Duration::ZERO);
        assert_eq!(b.faults_fired(), 1);
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_recoverable_only() {
        let a = recoverable_schedule(42, 8);
        let b = recoverable_schedule(42, 8);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.path_contains, y.path_contains);
            assert_eq!(x.skip, y.skip);
        }
        let c = recoverable_schedule(43, 8);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.op != y.op || x.fault != y.fault || x.skip != y.skip),
            "different seeds must differ"
        );
        for r in a.iter().chain(&c) {
            assert!(
                r.fault.recoverable(),
                "soak schedules must stay recoverable: {:?}",
                r.fault
            );
            if let Fault::Unavailable(n) = r.fault {
                assert!(
                    n <= 2,
                    "soak outage windows must stay inside the default retry budget"
                );
            }
        }
    }
}
