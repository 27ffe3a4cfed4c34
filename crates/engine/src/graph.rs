//! Job graphs: typed units of work with explicit dependencies.

use crate::cancel::CancelToken;
use std::any::Any;
use std::sync::Arc;

/// The dynamically-typed output of a job, shared with every dependent.
pub type JobValue = Arc<dyn Any + Send + Sync>;

/// Outcome of a job body.
pub type JobOutput = Result<JobValue, String>;

/// Identifier of a job within one [`JobGraph`] (dense, in insertion
/// order — insertion order is also the deterministic result order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub(crate) usize);

impl JobId {
    /// The dense index of this job.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The pipeline stage a job belongs to. Part of the cache key, so equal
/// fingerprints in different stages never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Parse / generate a benchmark's original netlist (shared by every
    /// cell of that benchmark, whatever the key size or lock seed).
    Parse,
    /// Insert a locking scheme into a benchmark.
    Lock,
    /// Re-synthesize a locked netlist (Verilog flows).
    Synth,
    /// Extract the labelled graph / feature matrix of a locked netlist.
    Featurize,
    /// Assemble locked instances into a labelled dataset shard.
    Dataset,
    /// One checkpointed block of training epochs (resumable chain link).
    TrainEpoch,
    /// Finalize a trained classifier for one leave-one-out target.
    Train,
    /// Classify + post-process one locked instance with a trained model.
    Classify,
    /// Delete the predicted protection logic, recovering a design.
    Remove,
    /// SAT-verify a recovered design.
    Verify,
    /// Collapse stage outputs into report rows.
    Aggregate,
    /// Anything else (the tag is part of the cache key).
    Custom(&'static str),
}

impl JobKind {
    /// Stable lowercase tag (used in reports and cache keys).
    pub fn tag(&self) -> &'static str {
        match self {
            JobKind::Parse => "parse",
            JobKind::Lock => "lock",
            JobKind::Synth => "synth",
            JobKind::Featurize => "featurize",
            JobKind::Dataset => "dataset",
            JobKind::TrainEpoch => "train-epoch",
            JobKind::Train => "train",
            JobKind::Classify => "classify",
            JobKind::Remove => "remove",
            JobKind::Verify => "verify",
            JobKind::Aggregate => "aggregate",
            JobKind::Custom(tag) => tag,
        }
    }

    /// Every built-in stage kind, in pipeline order (used for per-stage
    /// report aggregation; `Custom` kinds are appended dynamically).
    pub const BUILTIN: [JobKind; 11] = [
        JobKind::Parse,
        JobKind::Lock,
        JobKind::Synth,
        JobKind::Featurize,
        JobKind::Dataset,
        JobKind::TrainEpoch,
        JobKind::Train,
        JobKind::Classify,
        JobKind::Remove,
        JobKind::Verify,
        JobKind::Aggregate,
    ];
}

/// Context handed to a running job body.
pub struct JobCtx<'a> {
    /// Outputs of the job's dependencies, in declaration order.
    pub deps: &'a [JobValue],
    /// The run's cancellation token (long jobs should poll it).
    pub cancel: &'a CancelToken,
}

impl JobCtx<'_> {
    /// Downcast dependency `i` to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the type does not match —
    /// both are graph-construction bugs, not runtime conditions.
    pub fn dep<T: Send + Sync + 'static>(&self, i: usize) -> Arc<T> {
        self.deps[i]
            .clone()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("dependency {i} has unexpected type"))
    }
}

pub(crate) type JobFn<'a> = Box<dyn FnOnce(&JobCtx<'_>) -> JobOutput + Send + 'a>;

pub(crate) struct JobNode<'a> {
    pub label: String,
    pub kind: JobKind,
    pub fingerprint: Option<u64>,
    pub deps: Vec<JobId>,
    pub run: Option<JobFn<'a>>,
}

/// A directed acyclic graph of jobs.
///
/// Acyclicity is guaranteed by construction: a job may only depend on
/// jobs that were already added. The borrow parameter `'a` lets job
/// bodies capture references to caller-owned data (datasets, configs)
/// because execution happens on scoped threads.
#[derive(Default)]
pub struct JobGraph<'a> {
    pub(crate) jobs: Vec<JobNode<'a>>,
}

impl<'a> JobGraph<'a> {
    /// An empty graph.
    pub fn new() -> Self {
        JobGraph { jobs: Vec::new() }
    }

    /// Add a job.
    ///
    /// * `label` — human-readable, stable identifier (appears in reports).
    /// * `kind` — pipeline stage.
    /// * `fingerprint` — `Some(hash)` makes the result cacheable under
    ///   `(kind, hash)`; `None` always executes.
    /// * `deps` — ids of previously added jobs whose outputs feed this one.
    /// * `run` — the body; receives dependency outputs in `deps` order.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id has not been added yet (this is what
    /// makes cycles unrepresentable).
    pub fn add(
        &mut self,
        label: impl Into<String>,
        kind: JobKind,
        fingerprint: Option<u64>,
        deps: Vec<JobId>,
        run: impl FnOnce(&JobCtx<'_>) -> JobOutput + Send + 'a,
    ) -> JobId {
        let id = JobId(self.jobs.len());
        for d in &deps {
            assert!(
                d.0 < id.0,
                "job {:?} depends on not-yet-added job {:?}",
                id,
                d
            );
        }
        self.jobs.push(JobNode {
            label: label.into(),
            kind,
            fingerprint,
            deps,
            run: Some(Box::new(run)),
        });
        id
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// FNV-1a over a byte string — the engine's canonical content hash for
/// job fingerprints. Stable across platforms and releases.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Convenience: fingerprint of several fields joined unambiguously.
pub fn fingerprint_fields(fields: &[&str]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for f in fields {
        for &b in f.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        // Field separator outside the value alphabet.
        h ^= 0x1f;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ids_are_dense_and_deps_checked() {
        let mut g = JobGraph::new();
        let a = g.add("a", JobKind::Lock, None, vec![], |_| {
            Ok(Arc::new(1u32) as JobValue)
        });
        let b = g.add("b", JobKind::Train, None, vec![a], |_| {
            Ok(Arc::new(2u32) as JobValue)
        });
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(g.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not-yet-added")]
    fn forward_deps_panic() {
        let mut g = JobGraph::new();
        g.add("bad", JobKind::Lock, None, vec![JobId(5)], |_| {
            Ok(Arc::new(()) as JobValue)
        });
    }

    #[test]
    fn fingerprints_separate_fields() {
        // ("ab","c") must differ from ("a","bc").
        assert_ne!(
            fingerprint_fields(&["ab", "c"]),
            fingerprint_fields(&["a", "bc"])
        );
        assert_eq!(fingerprint(b"x"), fingerprint(b"x"));
    }
}
