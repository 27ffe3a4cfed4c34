//! Benchmark-side tracing: decorators around the engine's public traits
//! that time every call from outside the program.
//!
//! - [`TimedRunner`] wraps a [`CampaignRunner`] and times each stage
//!   body, keyed by its [`JobKind`];
//! - [`TimedCodec`] wraps a [`ValueCodec`] and times encode / decode,
//!   counting payload bytes;
//! - [`TimedBackend`] wraps [`LocalDirBackend`] and times every store
//!   substrate call.
//!
//! All three feed one [`Probe`]: a [`Tally`] of busy time and counts
//! (drained by the workload loop after each operation) and a bounded
//! buffer of the benchmark's own spans, rendered at the end with
//! [`gnnunlock_telemetry::chrome_trace_json`]. The untraced runs use the
//! undecorated types, so they pay none of this.

use gnnunlock_engine::{
    CampaignRunner, FileMeta, JobCtx, JobKind, JobOutput, JobValue, LocalDirBackend, StageJob,
    StoreBackend, ValueCodec,
};
use gnnunlock_telemetry::{derived_id, process_epoch, thread_index, SpanRecord};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Spans kept for the Chrome trace; later spans are dropped,
/// so a long traced run keeps bounded memory.
const MAX_SPANS: usize = 50_000;

/// Busy time and work counts of the layers below one or more
/// operations. Times are nanoseconds.
#[derive(Default)]
pub struct Tally {
    /// Stage-body time per job-kind tag.
    pub body_ns: BTreeMap<&'static str, u64>,
    pub encode_ns: u64,
    pub encode_bytes: u64,
    pub decode_ns: u64,
    pub decode_bytes: u64,
    pub load_ns: u64,
    pub load_calls: u64,
    pub publish_ns: u64,
    pub publish_calls: u64,
    pub claim_calls: u64,
    pub entomb_calls: u64,
    pub list_ns: u64,
    /// Time in every store call, listed above or not.
    pub store_ns: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        for (kind, ns) in &other.body_ns {
            *self.body_ns.entry(kind).or_default() += ns;
        }
        self.encode_ns += other.encode_ns;
        self.encode_bytes += other.encode_bytes;
        self.decode_ns += other.decode_ns;
        self.decode_bytes += other.decode_bytes;
        self.load_ns += other.load_ns;
        self.load_calls += other.load_calls;
        self.publish_ns += other.publish_ns;
        self.publish_calls += other.publish_calls;
        self.claim_calls += other.claim_calls;
        self.entomb_calls += other.entomb_calls;
        self.list_ns += other.list_ns;
        self.store_ns += other.store_ns;
    }

    pub fn body_total_ns(&self) -> u64 {
        self.body_ns.values().sum()
    }
}

/// Shared sink of the decorators.
#[derive(Default)]
pub struct Probe {
    tally: Mutex<Tally>,
    spans: Mutex<Vec<SpanRecord>>,
    /// Span id of the operation in flight: the parent of every layer
    /// span recorded until the next [`Probe::begin_op`].
    op: AtomicU64,
    seq: AtomicU64,
}

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    /// Open a root span for one operation; layer spans recorded until
    /// [`Probe::end_op`] become its children.
    pub fn begin_op(&self, name: &str) -> (u64, Instant) {
        let id = derived_id(self.seq.fetch_add(1, Ordering::Relaxed), name);
        self.op.store(id, Ordering::Relaxed);
        (id, Instant::now())
    }

    /// Close the operation opened by [`Probe::begin_op`] and drain the
    /// tally its layers accumulated.
    pub fn end_op(&self, name: &str, (id, start): (u64, Instant)) -> Tally {
        self.push_span(name, "bench-op", id, 0, start, Instant::now());
        self.op.store(0, Ordering::Relaxed);
        std::mem::take(&mut *self.tally.lock().expect("probe tally lock poisoned"))
    }

    /// The spans recorded so far, sorted by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().expect("probe span lock poisoned").clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }

    fn push_span(&self, name: &str, cat: &str, id: u64, parent: u64, start: Instant, end: Instant) {
        let mut spans = self.spans.lock().expect("probe span lock poisoned");
        if spans.len() >= MAX_SPANS {
            return;
        }
        let epoch = process_epoch();
        spans.push(SpanRecord {
            name: name.to_string(),
            cat: cat.to_string(),
            id,
            parent,
            start_us: start.saturating_duration_since(epoch).as_micros() as u64,
            dur_us: end.saturating_duration_since(start).as_micros() as u64,
            tid: thread_index(),
        });
    }

    /// Time `f` as one call of a layer: add its duration to the tally
    /// via `account` and record a span under the operation in flight.
    fn time<T>(
        &self,
        name: &str,
        cat: &str,
        f: impl FnOnce() -> T,
        account: impl FnOnce(&mut Tally, u64, &T),
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        account(
            &mut self.tally.lock().expect("probe tally lock poisoned"),
            ns,
            &out,
        );
        let parent = self.op.load(Ordering::Relaxed);
        let id = derived_id(
            parent,
            &format!("{name}#{}", self.seq.fetch_add(1, Ordering::Relaxed)),
        );
        self.push_span(name, cat, id, parent, start, end);
        out
    }
}

/// [`CampaignRunner`] decorator timing each stage body.
pub struct TimedRunner<R> {
    pub inner: R,
    pub probe: Arc<Probe>,
}

impl<R: CampaignRunner> CampaignRunner for TimedRunner<R> {
    fn config_salt(&self) -> u64 {
        self.inner.config_salt()
    }

    fn stage_salt(&self, kind: JobKind) -> u64 {
        self.inner.stage_salt(kind)
    }

    fn codec(&self) -> Option<Arc<dyn ValueCodec>> {
        self.inner.codec()
    }

    fn run(&self, job: &StageJob, ctx: &JobCtx<'_>) -> JobOutput {
        let tag = job.kind.tag();
        self.probe.time(
            &job.label(),
            tag,
            || self.inner.run(job, ctx),
            |t, ns, _| *t.body_ns.entry(tag).or_default() += ns,
        )
    }
}

/// [`ValueCodec`] decorator timing encode / decode and counting bytes.
pub struct TimedCodec {
    pub inner: Arc<dyn ValueCodec>,
    pub probe: Arc<Probe>,
}

impl ValueCodec for TimedCodec {
    fn encode(&self, kind: JobKind, value: &JobValue) -> Option<Vec<u8>> {
        self.probe.time(
            &format!("codec/encode/{}", kind.tag()),
            "codec",
            || self.inner.encode(kind, value),
            |t, ns, out| {
                t.encode_ns += ns;
                t.encode_bytes += out.as_ref().map_or(0, |b| b.len() as u64);
            },
        )
    }

    fn decode(&self, kind: JobKind, bytes: &[u8]) -> Option<JobValue> {
        self.probe.time(
            &format!("codec/decode/{}", kind.tag()),
            "codec",
            || self.inner.decode(kind, bytes),
            |t, ns, _| {
                t.decode_ns += ns;
                t.decode_bytes += bytes.len() as u64;
            },
        )
    }
}

/// [`StoreBackend`] decorator over the local-directory backend.
#[derive(Debug)]
pub struct TimedBackend {
    inner: LocalDirBackend,
    probe: Arc<Probe>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Probe")
    }
}

impl TimedBackend {
    pub fn new(probe: Arc<Probe>) -> Self {
        TimedBackend {
            inner: LocalDirBackend::new(),
            probe,
        }
    }

    fn op<T>(&self, name: &str, f: impl FnOnce() -> T, account: impl FnOnce(&mut Tally, u64)) -> T {
        self.probe.time(name, "store", f, |t, ns, _| {
            t.store_ns += ns;
            account(t, ns);
        })
    }
}

impl StoreBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn ensure_dir(&self, dir: &Path) -> io::Result<()> {
        self.op("store/ensure_dir", || self.inner.ensure_dir(dir), |_, _| {})
    }

    fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.op(
            "store/publish",
            || self.inner.publish(path, bytes),
            |t, ns| {
                t.publish_ns += ns;
                t.publish_calls += 1;
            },
        )
    }

    fn claim(&self, path: &Path, content: &[u8]) -> io::Result<()> {
        self.op(
            "store/claim",
            || self.inner.claim(path, content),
            |t, _| t.claim_calls += 1,
        )
    }

    fn entomb(&self, path: &Path, tomb: &Path) -> io::Result<()> {
        self.op(
            "store/entomb",
            || self.inner.entomb(path, tomb),
            |t, _| t.entomb_calls += 1,
        )
    }

    fn load(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.op(
            "store/load",
            || self.inner.load(path),
            |t, ns| {
                t.load_ns += ns;
                t.load_calls += 1;
            },
        )
    }

    fn contains(&self, path: &Path) -> bool {
        self.op("store/contains", || self.inner.contains(path), |_, _| {})
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.op("store/remove", || self.inner.remove(path), |_, _| {})
    }

    fn refresh(&self, path: &Path) -> io::Result<()> {
        self.op("store/refresh", || self.inner.refresh(path), |_, _| {})
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        self.op("store/mtime", || self.inner.mtime(path), |_, _| {})
    }

    fn list(&self, dir: &Path, recursive: bool) -> io::Result<Vec<FileMeta>> {
        self.op(
            "store/list",
            || self.inner.list(dir, recursive),
            |t, ns| t.list_ns += ns,
        )
    }

    fn backoff_wait(&self, pause: Duration) {
        self.inner.backoff_wait(pause)
    }
}
