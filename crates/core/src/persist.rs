//! On-disk serialization of pipeline artifacts.
//!
//! [`PipelineCodec`] is the [`ValueCodec`] GNNUnlock campaigns hand to
//! the engine's persistence layer. Every stage of the campaign DAG is
//! covered, so a warm process serves the whole pipeline — parsed
//! netlists, locked circuits, feature graphs, per-epoch training
//! checkpoints, classification and removal artifacts — straight from
//! the store:
//!
//! | job kind | concrete value | payload tag |
//! |---|---|---|
//! | `Parse` | `Option<Netlist>` | `netlist-v1` |
//! | `Lock` / `Synth` | `Option<LockedCircuit>` | `locked-v1` |
//! | `Featurize` | `Option<LockedInstance>` | `instance-v1` |
//! | `Dataset` | `Dataset` | `dataset-v1` |
//! | `TrainEpoch` | `Option<TrainCheckpoint>` | `ckpt-v1` |
//! | `Train` | `Option<(SageModel, TrainReport)>` | `train-v1` |
//! | `Classify` | `Option<ClassifyArtifact>` | `classify-v1` |
//! | `Remove` | `Option<RemovalArtifact>` | `remove-v1` |
//! | `Verify` | `Option<InstanceOutcome>` | `verify-v1` |
//! | `Aggregate` | `Vec<AttackOutcome>` | `aggregate-v1` |
//! | `Custom("summary")` | `DatasetSummary` | `summary-v1` |
//!
//! Every payload starts with a type tag, so one cache directory can be
//! shared by different pipelines routing different value types through
//! the same `JobKind`: `decode` dispatches on the tag and treats
//! anything unrecognized as a miss. Floats are serialized as raw bits,
//! so a decoded value is bit-exact — warm runs reproduce cold-run
//! reports byte for byte, and a training checkpoint restored from disk
//! continues the exact trajectory of the run that wrote it.
//!
//! Each type crosses the wire through one `Wire` impl that both
//! writes and reads it. Sequences carry a length prefix, and their
//! reader reserves no more slots than there are unread bytes, so a
//! forged count cannot make `decode` allocate beyond the payload's size.

use crate::dataset::{
    Dataset, DatasetConfig, DatasetScheme, DatasetSummary, LockedInstance, Suite,
};
use crate::pipeline::{AttackOutcome, InstanceOutcome};
use gnnunlock_engine::{ByteReader, ByteWriter, JobKind, JobValue, ValueCodec};
use gnnunlock_gnn::{
    CircuitGraph, Csr, LabelScheme, ModelConfig, ModelOptimizer, SageModel, TrainCheckpoint,
    TrainReport,
};
use gnnunlock_locking::{Key, LockedCircuit, Scheme};
use gnnunlock_netlist::{
    CellLibrary, Driver, GateId, GateType, InputId, InputKind, Netlist, NetlistParts, NodeRole,
    ALL_GATE_TYPES,
};
use gnnunlock_neural::{AdamConfig, AdamState, Linear, Matrix, Metrics};
use std::sync::Arc;
use std::time::Duration;

/// A trained model for one leave-one-out target (`None` when the target
/// has no feasible instances or the split would be degenerate). This is
/// the campaign train stage's value type.
pub type TrainValue = Option<(SageModel, TrainReport)>;

/// The value type of the campaign's `train-epoch` checkpoint jobs
/// (`None` when the target is infeasible).
pub type CheckpointValue = Option<TrainCheckpoint>;

/// The classify stage's artifact: the (post-processed) classification
/// outcome plus the final predictions the removal stage consumes.
#[derive(Debug, Clone)]
pub struct ClassifyArtifact {
    /// Classification outcome (`removal_success` still `None`).
    pub outcome: InstanceOutcome,
    /// Final class predictions per node.
    pub preds: Vec<usize>,
}

/// The removal stage's artifact: the classification outcome carried
/// through plus the recovered design the verify stage checks.
#[derive(Debug, Clone)]
pub struct RemovalArtifact {
    /// Classification outcome (`removal_success` still `None`).
    pub outcome: InstanceOutcome,
    /// The design with the predicted protection logic removed.
    pub recovered: Netlist,
}

/// Serialization of GNNUnlock pipeline artifacts for the engine's
/// on-disk result store.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineCodec;

type Encode = fn(&JobValue, &mut ByteWriter) -> Option<()>;
type Decode = fn(&mut ByteReader<'_>) -> Option<JobValue>;

/// The payload tag and concrete value type of each job kind: the
/// codec's one kind → type → tag mapping, from which `encode` and
/// `decode` both take their halves.
fn format(kind: JobKind) -> Option<(&'static str, Encode, Decode)> {
    fn of<T: Wire + Send + Sync + 'static>(tag: &'static str) -> (&'static str, Encode, Decode) {
        (tag, enc::<T>, dec::<T>)
    }
    Some(match kind {
        JobKind::Parse => of::<Option<Netlist>>("netlist-v1"),
        JobKind::Lock | JobKind::Synth => of::<Option<LockedCircuit>>("locked-v1"),
        JobKind::Featurize => of::<Option<LockedInstance>>("instance-v1"),
        JobKind::Dataset => of::<Dataset>("dataset-v1"),
        JobKind::TrainEpoch => of::<CheckpointValue>("ckpt-v1"),
        JobKind::Train => of::<TrainValue>("train-v1"),
        JobKind::Classify => of::<Option<ClassifyArtifact>>("classify-v1"),
        JobKind::Remove => of::<Option<RemovalArtifact>>("remove-v1"),
        JobKind::Verify => of::<Option<InstanceOutcome>>("verify-v1"),
        JobKind::Aggregate => of::<Vec<AttackOutcome>>("aggregate-v1"),
        JobKind::Custom("summary") => of::<DatasetSummary>("summary-v1"),
        _ => return None,
    })
}

fn enc<T: Wire + 'static>(value: &JobValue, w: &mut ByteWriter) -> Option<()> {
    value.downcast_ref::<T>()?.put(w);
    Some(())
}

fn dec<T: Wire + Send + Sync + 'static>(r: &mut ByteReader<'_>) -> Option<JobValue> {
    Some(Arc::new(T::get(r)?))
}

impl ValueCodec for PipelineCodec {
    fn encode(&self, kind: JobKind, value: &JobValue) -> Option<Vec<u8>> {
        let (tag, encode, _) = format(kind)?;
        let mut w = ByteWriter::new();
        w.str(tag);
        encode(value, &mut w)?;
        Some(w.into_bytes())
    }

    fn decode(&self, kind: JobKind, bytes: &[u8]) -> Option<JobValue> {
        let (tag, _, decode) = format(kind)?;
        let mut r = ByteReader::new(bytes);
        // The tag is a length-prefixed string; comparing its raw bytes
        // skips a copy and a UTF-8 check.
        if r.bytes()? != tag.as_bytes() {
            return None;
        }
        let value = decode(&mut r)?;
        r.is_exhausted().then_some(value)
    }
}

// ---------------------------------------------------------------------
// The wire format
// ---------------------------------------------------------------------

/// A type with one on-disk encoding: `get` reads back exactly what
/// `put` wrote, and returns `None` on truncated or malformed input.
trait Wire: Sized {
    fn put(&self, w: &mut ByteWriter);
    fn get(r: &mut ByteReader<'_>) -> Option<Self>;
}

/// The `ByteWriter` / `ByteReader` primitives, whose methods share the
/// type's name.
macro_rules! wire_primitive {
    ($($ty:ident)+) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                w.$ty(*self);
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                r.$ty()
            }
        }
    )+};
}

wire_primitive!(u8 u32 u64 usize f32 f64 bool);

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.str(self);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        r.str()
    }
}

/// Writes a `usize` length prefix, then the items.
fn put_seq<T: Wire>(w: &mut ByteWriter, items: &[T]) {
    w.usize(items.len());
    for item in items {
        item.put(w);
    }
}

/// Reads `n` items. Every item takes at least one byte, so reserving
/// more slots than there are unread bytes could only serve a forged
/// count: the reservation is capped there, bounding it by input size.
fn get_n<T: Wire>(r: &mut ByteReader<'_>, n: usize) -> Option<Vec<T>> {
    let mut items = Vec::with_capacity(r.remaining().min(n));
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Some(items)
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        put_seq(w, self);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let n = r.usize()?;
        get_n(r, n)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut ByteWriter) {
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        get_n(r, N)?.try_into().ok()
    }
}

/// Tuples travel as their elements in order, with no framing.
macro_rules! wire_tuple {
    ($(($($t:ident),+))+) => {$(
        #[allow(non_snake_case)]
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, w: &mut ByteWriter) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                Some(($($t::get(r)?,)+))
            }
        }
    )+};
}

// Five elements: a netlist gate's `(alive, type, inputs, output, role)`.
wire_tuple!((A, B)(A, B, C)(A, B, C, D, E));

/// Structs travel as the listed fields in order, with no framing.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$field.put(w);)+
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                Some($ty { $($field: Wire::get(r)?),+ })
            }
        }
    )+};
}

wire_struct! {
    NetlistParts { name, nets, inputs, outputs, gates, const_nets, fresh_counter }
    LockedCircuit { netlist, scheme, key, protected_inputs, target }
    CircuitGraph { features, labels, adj, gate_ids, library, scheme, name }
    LockedInstance { benchmark, key_bits, copy, original, locked, graph }
    DatasetConfig {
        scheme, suite, library, key_sizes, locks_per_config, scale, synth_effort, seed
    }
    Dataset { config, instances }
    Linear { weight, bias }
    ModelConfig { feature_len, hidden, classes, dropout, seed }
    AdamConfig { lr, beta1, beta2, eps }
    TrainCheckpoint {
        model, opt, sampler_rng, inclusion, best, best_val, history, evals_since_best,
        epochs_run, done, elapsed_secs
    }
    TrainReport { best_val_accuracy, epochs_run, train_time, history }
    AttackOutcome { benchmark, instances, train_report }
    ClassifyArtifact { outcome, preds }
    RemovalArtifact { outcome, recovered }
    DatasetSummary { name, benchmarks, format, classes, feature_len, nodes, circuits }
}

/// Field-less enums travel as a `u8`: the variant's position in the
/// listed order, which fixes the code independently of declarations.
macro_rules! wire_by_position {
    ($($ty:ty => $all:expr;)+) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                let code = $all.iter().position(|v| v == self);
                w.u8(code.expect("every variant is listed") as u8);
            }
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                $all.get(usize::from(r.u8()?)).copied()
            }
        }
    )+};
}

wire_by_position! {
    GateType => ALL_GATE_TYPES;
    InputKind => [InputKind::Primary, InputKind::Key];
    NodeRole => [NodeRole::Design, NodeRole::Perturb, NodeRole::Restore, NodeRole::AntiSat];
    CellLibrary => [CellLibrary::Bench8, CellLibrary::Lpe65, CellLibrary::Nangate45];
    LabelScheme => [LabelScheme::AntiSat, LabelScheme::Sfll];
    Suite => [Suite::Iscas85, Suite::Itc99];
}

// ---------------------------------------------------------------------
// Domain types with a shape of their own
// ---------------------------------------------------------------------

impl Wire for GateId {
    fn put(&self, w: &mut ByteWriter) {
        w.usize(self.index());
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(GateId::from_index(r.usize()?))
    }
}

impl Wire for Driver {
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            Driver::Input(id) => {
                w.u8(0);
                w.usize(id.index());
            }
            Driver::Gate(id) => {
                w.u8(1);
                w.usize(id.index());
            }
            Driver::Const(v) => {
                w.u8(2);
                w.bool(v);
            }
            Driver::Undriven => w.u8(3),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => Driver::Input(InputId::from_index(r.usize()?)),
            1 => Driver::Gate(GateId::from_index(r.usize()?)),
            2 => Driver::Const(r.bool()?),
            3 => Driver::Undriven,
            _ => return None,
        })
    }
}

impl Wire for Netlist {
    fn put(&self, w: &mut ByteWriter) {
        self.to_parts().put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Netlist::from_parts(NetlistParts::get(r)?)
    }
}

impl Wire for Scheme {
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            Scheme::AntiSat => w.u8(0),
            Scheme::TtLock => w.u8(1),
            Scheme::SfllHd(h) => {
                w.u8(2);
                w.u32(h);
            }
            Scheme::CasLock => w.u8(3),
            Scheme::Rll => w.u8(4),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => Scheme::AntiSat,
            1 => Scheme::TtLock,
            2 => Scheme::SfllHd(r.u32()?),
            3 => Scheme::CasLock,
            4 => Scheme::Rll,
            _ => return None,
        })
    }
}

impl Wire for DatasetScheme {
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            DatasetScheme::AntiSat => w.u8(0),
            DatasetScheme::CasLock => w.u8(1),
            DatasetScheme::SfllHd(h) => {
                w.u8(2);
                w.u32(h);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => DatasetScheme::AntiSat,
            1 => DatasetScheme::CasLock,
            2 => DatasetScheme::SfllHd(r.u32()?),
            _ => return None,
        })
    }
}

impl Wire for Key {
    fn put(&self, w: &mut ByteWriter) {
        put_seq(w, self.bits());
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(Key::from_bits(Vec::get(r)?))
    }
}

impl Wire for Csr {
    fn put(&self, w: &mut ByteWriter) {
        let (offsets, targets) = self.parts();
        put_seq(w, offsets);
        put_seq(w, targets);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Csr::from_parts(Vec::get(r)?, Vec::get(r)?)
    }
}

/// Rows and columns, then the row-major data with no length prefix.
impl Wire for Matrix {
    fn put(&self, w: &mut ByteWriter) {
        w.usize(self.rows());
        w.usize(self.cols());
        for x in self.data() {
            x.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let (rows, cols) = (r.usize()?, r.usize()?);
        let data = get_n(r, rows.checked_mul(cols)?)?;
        Some(Matrix::from_vec(rows, cols, data))
    }
}

impl Wire for SageModel {
    fn put(&self, w: &mut ByteWriter) {
        self.config.put(w);
        for layer in self.parts() {
            layer.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let config = ModelConfig::get(r)?;
        let [encoder, layer1, layer2, head] = <[Linear; 4]>::get(r)?;
        // Shape-check before from_parts so a corrupt payload decodes to a
        // miss instead of panicking inside the assertion.
        let (h, h2) = (config.hidden, config.hidden.checked_mul(2)?);
        let shapes_ok = encoder.in_dim() == config.feature_len
            && encoder.out_dim() == h
            && layer1.in_dim() == h2
            && layer1.out_dim() == h
            && layer2.in_dim() == h2
            && layer2.out_dim() == h
            && head.in_dim() == h
            && head.out_dim() == config.classes;
        shapes_ok.then(|| SageModel::from_parts(config, encoder, layer1, layer2, head))
    }
}

impl Wire for AdamState {
    fn put(&self, w: &mut ByteWriter) {
        let (m, v, t) = self.parts();
        put_seq(w, m);
        put_seq(w, v);
        w.u64(t);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let (m, v, t) = <(Vec<f32>, Vec<f32>, u64)>::get(r)?;
        (m.len() == v.len()).then(|| AdamState::from_parts(m, v, t))
    }
}

/// The Adam config, then the model's 8 fixed per-tensor states.
impl Wire for ModelOptimizer {
    fn put(&self, w: &mut ByteWriter) {
        self.config().put(w);
        for state in self.states() {
            state.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let cfg = AdamConfig::get(r)?;
        Some(ModelOptimizer::from_states(cfg, <[AdamState; 8]>::get(r)?))
    }
}

impl Wire for Duration {
    fn put(&self, w: &mut ByteWriter) {
        w.f64(self.as_secs_f64());
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        // try_from_secs_f64 rejects NaN, infinities, negatives AND
        // over-range finite values — a malformed duration field must
        // decode to a miss, never panic.
        Duration::try_from_secs_f64(r.f64()?).ok()
    }
}

/// The class count `k`, then the `k × k` confusion counts row by row.
impl Wire for Metrics {
    fn put(&self, w: &mut ByteWriter) {
        let k = self.num_classes();
        w.usize(k);
        for l in 0..k {
            for p in 0..k {
                w.usize(self.count(l, p));
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let k = r.usize()?;
        if k > 64 {
            return None;
        }
        let rows = (0..k).map(|_| get_n(r, k)).collect::<Option<_>>()?;
        Some(Metrics::from_confusion(rows))
    }
}

/// `removal_success` travels as one byte: 0 failed, 1 succeeded, 2 not
/// attempted.
impl Wire for InstanceOutcome {
    fn put(&self, w: &mut ByteWriter) {
        self.benchmark.put(w);
        self.key_bits.put(w);
        self.gnn.put(w);
        self.post.put(w);
        w.u8(match self.removal_success {
            Some(false) => 0,
            Some(true) => 1,
            None => 2,
        });
        self.misclassifications.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(InstanceOutcome {
            benchmark: Wire::get(r)?,
            key_bits: Wire::get(r)?,
            gnn: Wire::get(r)?,
            post: Wire::get(r)?,
            removal_success: match r.u8()? {
                0 => Some(false),
                1 => Some(true),
                2 => None,
                _ => return None,
            },
            misclassifications: Wire::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_engine::fingerprint;
    use gnnunlock_gnn::{SaintConfig, TrainConfig, TrainState};
    use gnnunlock_neural::Metrics;

    /// FNV-1a of each payload tag's fixture encoding (`pinned_payloads`).
    /// These pin the on-disk format: existing cache directories stay
    /// readable only while every one of them holds, so a codec change
    /// that alters a single byte fails here, under the tag it broke.
    const PINNED_FNV: [(&str, u64); 11] = [
        ("netlist-v1", 0x773068d23339ba81),
        ("locked-v1", 0x9a60df1e8a0a74fe),
        ("instance-v1", 0xa2e52f7d1176d586),
        ("dataset-v1", 0x601728000f1b6277),
        ("ckpt-v1", 0xcbfec7383d24dac9),
        ("train-v1", 0x5a947dc5944c4cd5),
        ("classify-v1", 0xd22ec07d11b4f115),
        ("remove-v1", 0x8ce2d46b6eaf6b6f),
        ("verify-v1", 0x7dd341f83e8fe470),
        ("aggregate-v1", 0xb7f9ebf9f1d3b513),
        ("summary-v1", 0xef1eaec53225cb9d),
    ];

    fn assert_pinned(bytes: &[u8]) {
        let tag = ByteReader::new(bytes).str().expect("tagged payload");
        let (_, pinned) = PINNED_FNV
            .iter()
            .find(|(t, _)| *t == tag)
            .expect("every tag is pinned");
        let actual = fingerprint(bytes);
        assert_eq!(
            actual, *pinned,
            "{tag} payload format drifted (fingerprint {actual:#018x})"
        );
    }

    /// One encoded fixture per payload tag, in `PINNED_FNV` order.
    fn pinned_payloads() -> Vec<(JobKind, Vec<u8>)> {
        let inst = tiny_instance();
        let outcome = sample_outcome();
        let verdict = outcome.instances[0].clone();
        let summary = DatasetSummary {
            name: "Anti-SAT".into(),
            benchmarks: "ISCAS-85".into(),
            format: "Bench".into(),
            classes: 3,
            feature_len: 13,
            nodes: 1234,
            circuits: 5,
        };
        let values: Vec<(JobKind, JobValue)> = vec![
            (JobKind::Parse, Arc::new(Some(inst.original.clone()))),
            (JobKind::Lock, Arc::new(Some(inst.locked.clone()))),
            (JobKind::Featurize, Arc::new(Some(inst.clone()))),
            (
                JobKind::Dataset,
                Arc::new(Dataset {
                    config: DatasetConfig::antisat(Suite::Iscas85, 0.02),
                    instances: vec![inst.clone()],
                }),
            ),
            (JobKind::TrainEpoch, Arc::new(Some(tiny_training().2))),
            (
                JobKind::Train,
                Arc::new(Some((
                    SageModel::new(ModelConfig::new(13, 8, 3)),
                    outcome.train_report.clone(),
                ))),
            ),
            (
                JobKind::Classify,
                Arc::new(Some(ClassifyArtifact {
                    outcome: verdict.clone(),
                    preds: vec![0, 1, 1, 0],
                })),
            ),
            (
                JobKind::Remove,
                Arc::new(Some(RemovalArtifact {
                    outcome: verdict.clone(),
                    recovered: inst.original.clone(),
                })),
            ),
            (JobKind::Verify, Arc::new(Some(verdict))),
            (JobKind::Aggregate, Arc::new(vec![outcome])),
            (JobKind::Custom("summary"), Arc::new(summary)),
        ];
        values
            .into_iter()
            .map(|(kind, v)| (kind, PipelineCodec.encode(kind, &v).expect("encodable")))
            .collect()
    }

    /// A small graph, its training config and the checkpoint after five
    /// epochs (wall-clock field zeroed: it is volatile, not numeric).
    fn tiny_training() -> (CircuitGraph, TrainConfig, TrainCheckpoint) {
        let g = tiny_instance().graph;
        let cfg = TrainConfig {
            epochs: 12,
            hidden: 8,
            eval_every: 4,
            patience: 0,
            saint: SaintConfig {
                roots: 50,
                walk_length: 2,
                estimation_rounds: 2,
                seed: 3,
            },
            ..TrainConfig::default()
        };
        let mut state = TrainState::new(&g, &g, &cfg);
        for _ in 0..5 {
            state.step_epoch(&g, &g);
        }
        let mut ckpt = state.checkpoint();
        ckpt.elapsed_secs = 0.0;
        (g, cfg, ckpt)
    }

    fn sample_outcome() -> AttackOutcome {
        let gnn = Metrics::from_predictions(&[0, 1, 1, 2], &[0, 1, 2, 2], 3);
        let post = Metrics::from_predictions(&[0, 1, 2, 2], &[0, 1, 2, 2], 3);
        AttackOutcome {
            benchmark: "c7552".into(),
            instances: vec![InstanceOutcome {
                benchmark: "c7552".into(),
                key_bits: 16,
                gnn,
                post,
                removal_success: Some(true),
                misclassifications: vec!["1 DN as PN".into()],
            }],
            train_report: TrainReport {
                best_val_accuracy: 0.9875,
                epochs_run: 120,
                train_time: Duration::from_secs_f64(1.25),
                history: vec![(10, 0.5, 0.9), (20, 0.25, 0.9875)],
            },
        }
    }

    #[test]
    fn attack_outcome_round_trips() {
        let codec = PipelineCodec;
        let value: JobValue = Arc::new(vec![sample_outcome()]);
        let bytes = codec.encode(JobKind::Aggregate, &value).expect("encodable");
        let back = codec.decode(JobKind::Aggregate, &bytes).expect("decodable");
        let back = &back.downcast_ref::<Vec<AttackOutcome>>().unwrap()[0];
        let orig = sample_outcome();
        assert_eq!(back.benchmark, orig.benchmark);
        assert_eq!(back.instances.len(), 1);
        assert_eq!(back.instances[0].gnn, orig.instances[0].gnn);
        assert_eq!(back.instances[0].removal_success, Some(true));
        assert_eq!(back.train_report.history, orig.train_report.history);
        assert_eq!(back.train_report.train_time, orig.train_report.train_time);
    }

    #[test]
    fn trained_model_round_trips_bit_exact() {
        let codec = PipelineCodec;
        let model = SageModel::new(ModelConfig::new(13, 8, 3));
        let report = sample_outcome().train_report;
        let value: JobValue = Arc::new(Some((model.clone(), report)) as TrainValue);
        let bytes = codec.encode(JobKind::Train, &value).expect("encodable");
        let back = codec.decode(JobKind::Train, &bytes).expect("decodable");
        let back = back.downcast_ref::<TrainValue>().unwrap().as_ref().unwrap();
        for (a, b) in model.parts().iter().zip(back.0.parts()) {
            assert_eq!(a.weight.data(), b.weight.data());
            assert_eq!(a.bias, b.bias);
        }
        assert_eq!(back.0.config.seed, model.config.seed);
        // The infeasible-target case round-trips too.
        let none: JobValue = Arc::new(None as TrainValue);
        let bytes = codec.encode(JobKind::Train, &none).unwrap();
        let back = codec.decode(JobKind::Train, &bytes).unwrap();
        assert!(back.downcast_ref::<TrainValue>().unwrap().is_none());
    }

    fn tiny_instance() -> LockedInstance {
        use gnnunlock_locking::{lock_antisat, AntiSatConfig};
        use gnnunlock_netlist::generator::BenchmarkSpec;
        let original = BenchmarkSpec::named("c2670")
            .unwrap()
            .scaled(0.02)
            .generate();
        let locked = lock_antisat(&original, &AntiSatConfig::new(8, 7)).unwrap();
        let graph = gnnunlock_gnn::netlist_to_graph(
            &locked.netlist,
            CellLibrary::Bench8,
            LabelScheme::AntiSat,
        );
        LockedInstance {
            benchmark: "c2670".into(),
            key_bits: 8,
            copy: 0,
            original,
            locked,
            graph,
        }
    }

    #[test]
    fn stage_artifacts_round_trip_bit_exact() {
        let codec = PipelineCodec;
        // Every tag's payload bytes are pinned, and decoding then
        // re-encoding reproduces them exactly.
        let payloads = pinned_payloads();
        assert_eq!(payloads.len(), PINNED_FNV.len());
        for (kind, bytes) in &payloads {
            assert_pinned(bytes);
            let back = codec.decode(*kind, bytes).expect("decodable");
            assert_eq!(codec.encode(*kind, &back).as_ref(), Some(bytes));
        }

        let inst = tiny_instance();

        // Parse: the original netlist.
        let value: JobValue = Arc::new(Some(inst.original.clone()) as Option<Netlist>);
        let bytes = codec.encode(JobKind::Parse, &value).expect("encodable");
        let back = codec.decode(JobKind::Parse, &bytes).expect("decodable");
        let back_nl = back
            .downcast_ref::<Option<Netlist>>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_nl.to_parts(), inst.original.to_parts());

        // Lock: the locked circuit, key and ground truth included.
        let value: JobValue = Arc::new(Some(inst.locked.clone()) as Option<LockedCircuit>);
        let bytes = codec.encode(JobKind::Lock, &value).unwrap();
        let back = codec.decode(JobKind::Lock, &bytes).unwrap();
        let back_locked = back
            .downcast_ref::<Option<LockedCircuit>>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_locked.key, inst.locked.key);
        assert_eq!(back_locked.scheme, inst.locked.scheme);
        assert_eq!(
            back_locked.netlist.to_parts(),
            inst.locked.netlist.to_parts()
        );
        // The same payload decodes for the synth stage too.
        assert!(codec.decode(JobKind::Synth, &bytes).is_some());

        // Featurize: the full instance, features bit-exact.
        let value: JobValue = Arc::new(Some(inst.clone()) as Option<LockedInstance>);
        let bytes = codec.encode(JobKind::Featurize, &value).unwrap();
        let back = codec.decode(JobKind::Featurize, &bytes).unwrap();
        let back_inst = back
            .downcast_ref::<Option<LockedInstance>>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_inst.graph.features.data(), inst.graph.features.data());
        assert_eq!(back_inst.graph.labels, inst.graph.labels);
        assert_eq!(back_inst.graph.adj, inst.graph.adj);
        assert_eq!(back_inst.graph.gate_ids, inst.graph.gate_ids);

        // Dataset: config + instances.
        let ds = crate::Dataset {
            config: crate::DatasetConfig::antisat(crate::Suite::Iscas85, 0.02),
            instances: vec![inst.clone()],
        };
        let value: JobValue = Arc::new(ds.clone());
        let bytes = codec.encode(JobKind::Dataset, &value).unwrap();
        let back = codec.decode(JobKind::Dataset, &bytes).unwrap();
        let back_ds = back.downcast_ref::<crate::Dataset>().unwrap();
        assert_eq!(format!("{:?}", back_ds.config), format!("{:?}", ds.config));
        assert_eq!(back_ds.instances.len(), 1);

        // Classify / Remove artifacts.
        let outcome = sample_outcome().instances[0].clone();
        let value: JobValue = Arc::new(Some(ClassifyArtifact {
            outcome: outcome.clone(),
            preds: vec![0, 1, 1, 0],
        }));
        let bytes = codec.encode(JobKind::Classify, &value).unwrap();
        let back = codec.decode(JobKind::Classify, &bytes).unwrap();
        let back_cls = back
            .downcast_ref::<Option<ClassifyArtifact>>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_cls.preds, vec![0, 1, 1, 0]);
        assert_eq!(back_cls.outcome.gnn, outcome.gnn);

        let value: JobValue = Arc::new(Some(RemovalArtifact {
            outcome,
            recovered: inst.original.clone(),
        }));
        let bytes = codec.encode(JobKind::Remove, &value).unwrap();
        let back = codec.decode(JobKind::Remove, &bytes).unwrap();
        assert!(back
            .downcast_ref::<Option<RemovalArtifact>>()
            .unwrap()
            .is_some());

        // Infeasible (None) variants round-trip for every option stage.
        for kind in [JobKind::Parse, JobKind::Lock, JobKind::Featurize] {
            let bytes = match kind {
                JobKind::Parse => codec
                    .encode(kind, &(Arc::new(None::<Netlist>) as JobValue))
                    .unwrap(),
                JobKind::Lock => codec
                    .encode(kind, &(Arc::new(None::<LockedCircuit>) as JobValue))
                    .unwrap(),
                _ => codec
                    .encode(kind, &(Arc::new(None::<LockedInstance>) as JobValue))
                    .unwrap(),
            };
            assert!(codec.decode(kind, &bytes).is_some());
        }
    }

    #[test]
    fn training_checkpoint_round_trips_bit_exact() {
        let (g, cfg, ckpt) = tiny_training();
        let (train_g, val_g) = (&g, &g);

        let codec = PipelineCodec;
        let value: JobValue = Arc::new(Some(ckpt.clone()) as CheckpointValue);
        let bytes = codec
            .encode(JobKind::TrainEpoch, &value)
            .expect("encodable");
        assert_pinned(&bytes);
        let back = codec
            .decode(JobKind::TrainEpoch, &bytes)
            .expect("decodable");
        let back_ckpt = back
            .downcast_ref::<CheckpointValue>()
            .unwrap()
            .as_ref()
            .unwrap();
        assert_eq!(back_ckpt.sampler_rng, ckpt.sampler_rng);
        assert_eq!(back_ckpt.inclusion, ckpt.inclusion);
        assert_eq!(back_ckpt.epochs_run, ckpt.epochs_run);
        assert_eq!(back_ckpt.history, ckpt.history);
        for (a, b) in back_ckpt.model.parts().iter().zip(ckpt.model.parts()) {
            assert_eq!(a.weight.data(), b.weight.data());
        }
        for (a, b) in back_ckpt.opt.states().iter().zip(ckpt.opt.states()) {
            assert_eq!(a.parts().0, b.parts().0);
            assert_eq!(a.parts().1, b.parts().1);
            assert_eq!(a.parts().2, b.parts().2);
        }

        // Continuing from the decoded checkpoint reproduces the exact
        // trajectory of continuing in-memory.
        let mut mem = TrainState::from_checkpoint(train_g, &cfg, &ckpt);
        let mut disk = TrainState::from_checkpoint(train_g, &cfg, back_ckpt);
        while !mem.step_epoch(train_g, val_g) {}
        while !disk.step_epoch(train_g, val_g) {}
        let (m1, r1) = mem.finish();
        let (m2, r2) = disk.finish();
        assert_eq!(r1.history, r2.history);
        for (a, b) in m1.parts().iter().zip(m2.parts()) {
            assert_eq!(a.weight.data(), b.weight.data());
        }
    }

    #[test]
    fn alien_payloads_decode_to_none() {
        let codec = PipelineCodec;
        // Wrong kind for the tag.
        let value: JobValue = Arc::new(vec![sample_outcome()]);
        let bytes = codec.encode(JobKind::Aggregate, &value).unwrap();
        assert!(codec.decode(JobKind::Train, &bytes).is_none());
        // Every strict prefix of every pinned payload is truncated, and
        // one appended byte is trailing garbage: both are misses, never
        // panics.
        for (kind, bytes) in pinned_payloads() {
            for end in 0..bytes.len() {
                assert!(
                    codec.decode(kind, &bytes[..end]).is_none(),
                    "{kind:?} prefix of {end}/{} bytes decoded",
                    bytes.len()
                );
            }
            let mut extended = bytes;
            extended.push(0);
            assert!(codec.decode(kind, &extended).is_none());
        }
        // A forged hidden width whose doubled shape check would overflow.
        let mut w = ByteWriter::new();
        w.str("train-v1");
        w.bool(true);
        for config_field in [0, 1 << 63, 0] {
            w.usize(config_field); // feature_len, hidden, classes
        }
        w.f64(0.5);
        w.u64(1);
        for (rows, cols) in [(0, 1 << 63), (0, 0), (0, 0), (0, 0)] {
            w.usize(rows);
            w.usize(cols);
            w.usize(0); // bias length
        }
        assert!(codec.decode(JobKind::Train, &w.into_bytes()).is_none());
        // Values the codec does not cover are declined on encode.
        let shard: JobValue = Arc::new(42u64);
        assert!(codec.encode(JobKind::Lock, &shard).is_none());
        assert!(codec.encode(JobKind::Aggregate, &shard).is_none());
    }
}
