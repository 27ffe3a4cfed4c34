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
//! | `Attack` (whole-benchmark jobs) | `AttackOutcome` | `attack-outcome-v1` |
//! | `Custom("summary")` | `DatasetSummary` | `summary-v1` |
//!
//! Every payload starts with a type tag, so one cache directory can be
//! shared by different pipelines routing different value types through
//! the same `JobKind`: `decode` dispatches on the tag and treats
//! anything unrecognized as a miss. Floats are serialized as raw bits,
//! so a decoded value is bit-exact — warm runs reproduce cold-run
//! reports byte for byte, and a training checkpoint restored from disk
//! continues the exact trajectory of the run that wrote it.

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

const TAG_TRAIN: &str = "train-v1";
const TAG_VERIFY: &str = "verify-v1";
const TAG_AGGREGATE: &str = "aggregate-v1";
const TAG_SUMMARY: &str = "summary-v1";
const TAG_NETLIST: &str = "netlist-v1";
const TAG_LOCKED: &str = "locked-v1";
const TAG_INSTANCE: &str = "instance-v1";
const TAG_DATASET: &str = "dataset-v1";
const TAG_CKPT: &str = "ckpt-v1";
const TAG_CLASSIFY: &str = "classify-v1";
const TAG_REMOVE: &str = "remove-v1";

/// Serialization of GNNUnlock pipeline artifacts for the engine's
/// on-disk result store.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineCodec;

impl ValueCodec for PipelineCodec {
    fn encode(&self, kind: JobKind, value: &JobValue) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        match kind {
            JobKind::Parse => {
                let v = value.downcast_ref::<Option<Netlist>>()?;
                w.str(TAG_NETLIST);
                match v {
                    None => w.bool(false),
                    Some(nl) => {
                        w.bool(true);
                        write_netlist(&mut w, nl);
                    }
                }
            }
            JobKind::Lock | JobKind::Synth => {
                let v = value.downcast_ref::<Option<LockedCircuit>>()?;
                w.str(TAG_LOCKED);
                match v {
                    None => w.bool(false),
                    Some(locked) => {
                        w.bool(true);
                        write_locked(&mut w, locked);
                    }
                }
            }
            JobKind::Featurize => {
                let v = value.downcast_ref::<Option<LockedInstance>>()?;
                w.str(TAG_INSTANCE);
                match v {
                    None => w.bool(false),
                    Some(inst) => {
                        w.bool(true);
                        write_locked_instance(&mut w, inst);
                    }
                }
            }
            JobKind::Dataset => {
                let v = value.downcast_ref::<Dataset>()?;
                w.str(TAG_DATASET);
                write_dataset(&mut w, v);
            }
            JobKind::TrainEpoch => {
                let v = value.downcast_ref::<CheckpointValue>()?;
                w.str(TAG_CKPT);
                match v {
                    None => w.bool(false),
                    Some(ckpt) => {
                        w.bool(true);
                        write_checkpoint(&mut w, ckpt);
                    }
                }
            }
            JobKind::Classify => {
                let v = value.downcast_ref::<Option<ClassifyArtifact>>()?;
                w.str(TAG_CLASSIFY);
                match v {
                    None => w.bool(false),
                    Some(artifact) => {
                        w.bool(true);
                        write_instance_outcome(&mut w, &artifact.outcome);
                        w.usize(artifact.preds.len());
                        for &p in &artifact.preds {
                            w.usize(p);
                        }
                    }
                }
            }
            JobKind::Remove => {
                let v = value.downcast_ref::<Option<RemovalArtifact>>()?;
                w.str(TAG_REMOVE);
                match v {
                    None => w.bool(false),
                    Some(artifact) => {
                        w.bool(true);
                        write_instance_outcome(&mut w, &artifact.outcome);
                        write_netlist(&mut w, &artifact.recovered);
                    }
                }
            }
            JobKind::Train => {
                let v = value.downcast_ref::<TrainValue>()?;
                w.str(TAG_TRAIN);
                match v {
                    None => w.bool(false),
                    Some((model, report)) => {
                        w.bool(true);
                        write_model(&mut w, model);
                        write_train_report(&mut w, report);
                    }
                }
            }
            JobKind::Verify => {
                let v = value.downcast_ref::<Option<InstanceOutcome>>()?;
                w.str(TAG_VERIFY);
                match v {
                    None => w.bool(false),
                    Some(outcome) => {
                        w.bool(true);
                        write_instance_outcome(&mut w, outcome);
                    }
                }
            }
            JobKind::Aggregate => {
                let v = value.downcast_ref::<Vec<AttackOutcome>>()?;
                w.str(TAG_AGGREGATE);
                w.usize(v.len());
                for outcome in v {
                    write_attack_outcome(&mut w, outcome);
                }
            }
            JobKind::Custom("summary") => {
                let v = value.downcast_ref::<DatasetSummary>()?;
                w.str(TAG_SUMMARY);
                write_summary(&mut w, v);
            }
            _ => return None,
        }
        Some(w.into_bytes())
    }

    fn decode(&self, kind: JobKind, bytes: &[u8]) -> Option<JobValue> {
        let mut r = ByteReader::new(bytes);
        let tag = r.str()?;
        let value: JobValue = match (kind, tag.as_str()) {
            (JobKind::Parse, TAG_NETLIST) => {
                let v: Option<Netlist> = if r.bool()? {
                    Some(read_netlist(&mut r)?)
                } else {
                    None
                };
                Arc::new(v)
            }
            (JobKind::Lock | JobKind::Synth, TAG_LOCKED) => {
                let v: Option<LockedCircuit> = if r.bool()? {
                    Some(read_locked(&mut r)?)
                } else {
                    None
                };
                Arc::new(v)
            }
            (JobKind::Featurize, TAG_INSTANCE) => {
                let v: Option<LockedInstance> = if r.bool()? {
                    Some(read_locked_instance(&mut r)?)
                } else {
                    None
                };
                Arc::new(v)
            }
            (JobKind::Dataset, TAG_DATASET) => Arc::new(read_dataset(&mut r)?),
            (JobKind::TrainEpoch, TAG_CKPT) => {
                let v: CheckpointValue = if r.bool()? {
                    Some(read_checkpoint(&mut r)?)
                } else {
                    None
                };
                Arc::new(v)
            }
            (JobKind::Classify, TAG_CLASSIFY) => {
                let v: Option<ClassifyArtifact> = if r.bool()? {
                    let outcome = read_instance_outcome(&mut r)?;
                    let n = r.usize()?;
                    let mut preds = Vec::with_capacity(n.min(1 << 24));
                    for _ in 0..n {
                        preds.push(r.usize()?);
                    }
                    Some(ClassifyArtifact { outcome, preds })
                } else {
                    None
                };
                Arc::new(v)
            }
            (JobKind::Remove, TAG_REMOVE) => {
                let v: Option<RemovalArtifact> = if r.bool()? {
                    Some(RemovalArtifact {
                        outcome: read_instance_outcome(&mut r)?,
                        recovered: read_netlist(&mut r)?,
                    })
                } else {
                    None
                };
                Arc::new(v)
            }
            (JobKind::Train, TAG_TRAIN) => {
                let v: TrainValue = if r.bool()? {
                    Some((read_model(&mut r)?, read_train_report(&mut r)?))
                } else {
                    None
                };
                Arc::new(v)
            }
            (JobKind::Verify, TAG_VERIFY) => {
                let v: Option<InstanceOutcome> = if r.bool()? {
                    Some(read_instance_outcome(&mut r)?)
                } else {
                    None
                };
                Arc::new(v)
            }
            (JobKind::Aggregate, TAG_AGGREGATE) => {
                let n = r.usize()?;
                let mut v = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    v.push(read_attack_outcome(&mut r)?);
                }
                Arc::new(v)
            }
            (JobKind::Custom("summary"), TAG_SUMMARY) => Arc::new(read_summary(&mut r)?),
            _ => return None,
        };
        r.is_exhausted().then_some(value)
    }
}

// ---------------------------------------------------------------------
// Netlist / locked-circuit / graph payloads
// ---------------------------------------------------------------------

fn gate_type_code(ty: GateType) -> u8 {
    ALL_GATE_TYPES
        .iter()
        .position(|&t| t == ty)
        .expect("every gate type is in ALL_GATE_TYPES") as u8
}

fn gate_type_from_code(code: u8) -> Option<GateType> {
    ALL_GATE_TYPES.get(code as usize).copied()
}

fn write_driver(w: &mut ByteWriter, d: Driver) {
    match d {
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

fn read_driver(r: &mut ByteReader<'_>) -> Option<Driver> {
    Some(match r.u8()? {
        0 => Driver::Input(InputId::from_index(r.usize()?)),
        1 => Driver::Gate(GateId::from_index(r.usize()?)),
        2 => Driver::Const(r.bool()?),
        3 => Driver::Undriven,
        _ => return None,
    })
}

fn write_role(w: &mut ByteWriter, role: NodeRole) {
    w.u8(match role {
        NodeRole::Design => 0,
        NodeRole::Perturb => 1,
        NodeRole::Restore => 2,
        NodeRole::AntiSat => 3,
    });
}

fn read_role(r: &mut ByteReader<'_>) -> Option<NodeRole> {
    Some(match r.u8()? {
        0 => NodeRole::Design,
        1 => NodeRole::Perturb,
        2 => NodeRole::Restore,
        3 => NodeRole::AntiSat,
        _ => return None,
    })
}

fn write_library(w: &mut ByteWriter, lib: CellLibrary) {
    w.u8(match lib {
        CellLibrary::Bench8 => 0,
        CellLibrary::Lpe65 => 1,
        CellLibrary::Nangate45 => 2,
    });
}

fn read_library(r: &mut ByteReader<'_>) -> Option<CellLibrary> {
    Some(match r.u8()? {
        0 => CellLibrary::Bench8,
        1 => CellLibrary::Lpe65,
        2 => CellLibrary::Nangate45,
        _ => return None,
    })
}

fn write_netlist(w: &mut ByteWriter, nl: &Netlist) {
    let parts = nl.to_parts();
    w.str(&parts.name);
    w.usize(parts.nets.len());
    for (name, driver) in &parts.nets {
        w.str(name);
        write_driver(w, *driver);
    }
    w.usize(parts.inputs.len());
    for (name, kind, net) in &parts.inputs {
        w.str(name);
        w.u8(matches!(kind, InputKind::Key) as u8);
        w.u32(*net);
    }
    w.usize(parts.outputs.len());
    for (name, net) in &parts.outputs {
        w.str(name);
        w.u32(*net);
    }
    w.usize(parts.gates.len());
    for (alive, ty, inputs, output, role) in &parts.gates {
        w.bool(*alive);
        w.u8(gate_type_code(*ty));
        w.usize(inputs.len());
        for &i in inputs {
            w.u32(i);
        }
        w.u32(*output);
        write_role(w, *role);
    }
    for slot in parts.const_nets {
        match slot {
            None => w.bool(false),
            Some(net) => {
                w.bool(true);
                w.u32(net);
            }
        }
    }
    w.u64(parts.fresh_counter);
}

fn read_netlist(r: &mut ByteReader<'_>) -> Option<Netlist> {
    let name = r.str()?;
    let n_nets = r.usize()?;
    let mut nets = Vec::with_capacity(n_nets.min(1 << 24));
    for _ in 0..n_nets {
        nets.push((r.str()?, read_driver(r)?));
    }
    let n_inputs = r.usize()?;
    let mut inputs = Vec::with_capacity(n_inputs.min(1 << 20));
    for _ in 0..n_inputs {
        let name = r.str()?;
        let kind = match r.u8()? {
            0 => InputKind::Primary,
            1 => InputKind::Key,
            _ => return None,
        };
        inputs.push((name, kind, r.u32()?));
    }
    let n_outputs = r.usize()?;
    let mut outputs = Vec::with_capacity(n_outputs.min(1 << 20));
    for _ in 0..n_outputs {
        outputs.push((r.str()?, r.u32()?));
    }
    let n_gates = r.usize()?;
    let mut gates = Vec::with_capacity(n_gates.min(1 << 24));
    for _ in 0..n_gates {
        let alive = r.bool()?;
        let ty = gate_type_from_code(r.u8()?)?;
        let n_ins = r.usize()?;
        let mut ins = Vec::with_capacity(n_ins.min(1 << 12));
        for _ in 0..n_ins {
            ins.push(r.u32()?);
        }
        let output = r.u32()?;
        gates.push((alive, ty, ins, output, read_role(r)?));
    }
    let mut const_nets = [None, None];
    for slot in &mut const_nets {
        if r.bool()? {
            *slot = Some(r.u32()?);
        }
    }
    let fresh_counter = r.u64()?;
    Netlist::from_parts(NetlistParts {
        name,
        nets,
        inputs,
        outputs,
        gates,
        const_nets,
        fresh_counter,
    })
}

fn write_scheme(w: &mut ByteWriter, s: Scheme) {
    match s {
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

fn read_scheme(r: &mut ByteReader<'_>) -> Option<Scheme> {
    Some(match r.u8()? {
        0 => Scheme::AntiSat,
        1 => Scheme::TtLock,
        2 => Scheme::SfllHd(r.u32()?),
        3 => Scheme::CasLock,
        4 => Scheme::Rll,
        _ => return None,
    })
}

fn write_locked(w: &mut ByteWriter, locked: &LockedCircuit) {
    write_netlist(w, &locked.netlist);
    write_scheme(w, locked.scheme);
    let bits = locked.key.bits();
    w.usize(bits.len());
    for &b in bits {
        w.bool(b);
    }
    w.usize(locked.protected_inputs.len());
    for s in &locked.protected_inputs {
        w.str(s);
    }
    w.str(&locked.target);
}

fn read_locked(r: &mut ByteReader<'_>) -> Option<LockedCircuit> {
    let netlist = read_netlist(r)?;
    let scheme = read_scheme(r)?;
    let n = r.usize()?;
    let mut bits = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        bits.push(r.bool()?);
    }
    let n = r.usize()?;
    let mut protected_inputs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        protected_inputs.push(r.str()?);
    }
    Some(LockedCircuit {
        netlist,
        scheme,
        key: Key::from_bits(bits),
        protected_inputs,
        target: r.str()?,
    })
}

fn write_csr(w: &mut ByteWriter, csr: &Csr) {
    let (offsets, targets) = csr.parts();
    w.usize(offsets.len());
    for &o in offsets {
        w.usize(o);
    }
    w.usize(targets.len());
    for &t in targets {
        w.u32(t);
    }
}

fn read_csr(r: &mut ByteReader<'_>) -> Option<Csr> {
    let n = r.usize()?;
    let mut offsets = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        offsets.push(r.usize()?);
    }
    let n = r.usize()?;
    let mut targets = Vec::with_capacity(n.min(1 << 26));
    for _ in 0..n {
        targets.push(r.u32()?);
    }
    Csr::from_parts(offsets, targets)
}

fn write_label_scheme(w: &mut ByteWriter, s: LabelScheme) {
    w.u8(match s {
        LabelScheme::AntiSat => 0,
        LabelScheme::Sfll => 1,
    });
}

fn read_label_scheme(r: &mut ByteReader<'_>) -> Option<LabelScheme> {
    Some(match r.u8()? {
        0 => LabelScheme::AntiSat,
        1 => LabelScheme::Sfll,
        _ => return None,
    })
}

fn write_graph(w: &mut ByteWriter, g: &CircuitGraph) {
    write_matrix(w, &g.features);
    w.usize(g.labels.len());
    for &l in &g.labels {
        w.usize(l);
    }
    write_csr(w, &g.adj);
    w.usize(g.gate_ids.len());
    for &g_id in &g.gate_ids {
        w.usize(g_id.index());
    }
    write_library(w, g.library);
    write_label_scheme(w, g.scheme);
    w.str(&g.name);
}

fn read_graph(r: &mut ByteReader<'_>) -> Option<CircuitGraph> {
    let features = read_matrix(r)?;
    let n = r.usize()?;
    let mut labels = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        labels.push(r.usize()?);
    }
    let adj = read_csr(r)?;
    let n = r.usize()?;
    let mut gate_ids = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        gate_ids.push(GateId::from_index(r.usize()?));
    }
    Some(CircuitGraph {
        features,
        labels,
        adj,
        gate_ids,
        library: read_library(r)?,
        scheme: read_label_scheme(r)?,
        name: r.str()?,
    })
}

fn write_locked_instance(w: &mut ByteWriter, inst: &LockedInstance) {
    w.str(&inst.benchmark);
    w.usize(inst.key_bits);
    w.usize(inst.copy);
    write_netlist(w, &inst.original);
    write_locked(w, &inst.locked);
    write_graph(w, &inst.graph);
}

fn read_locked_instance(r: &mut ByteReader<'_>) -> Option<LockedInstance> {
    Some(LockedInstance {
        benchmark: r.str()?,
        key_bits: r.usize()?,
        copy: r.usize()?,
        original: read_netlist(r)?,
        locked: read_locked(r)?,
        graph: read_graph(r)?,
    })
}

fn write_dataset_config(w: &mut ByteWriter, cfg: &DatasetConfig) {
    match cfg.scheme {
        DatasetScheme::AntiSat => w.u8(0),
        DatasetScheme::CasLock => w.u8(1),
        DatasetScheme::SfllHd(h) => {
            w.u8(2);
            w.u32(h);
        }
    }
    w.u8(matches!(cfg.suite, Suite::Itc99) as u8);
    write_library(w, cfg.library);
    w.usize(cfg.key_sizes.len());
    for &k in &cfg.key_sizes {
        w.usize(k);
    }
    w.usize(cfg.locks_per_config);
    w.f64(cfg.scale);
    w.u8(cfg.synth_effort);
    w.u64(cfg.seed);
}

fn read_dataset_config(r: &mut ByteReader<'_>) -> Option<DatasetConfig> {
    let scheme = match r.u8()? {
        0 => DatasetScheme::AntiSat,
        1 => DatasetScheme::CasLock,
        2 => DatasetScheme::SfllHd(r.u32()?),
        _ => return None,
    };
    let suite = match r.u8()? {
        0 => Suite::Iscas85,
        1 => Suite::Itc99,
        _ => return None,
    };
    let library = read_library(r)?;
    let n = r.usize()?;
    let mut key_sizes = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        key_sizes.push(r.usize()?);
    }
    Some(DatasetConfig {
        scheme,
        suite,
        library,
        key_sizes,
        locks_per_config: r.usize()?,
        scale: r.f64()?,
        synth_effort: r.u8()?,
        seed: r.u64()?,
    })
}

fn write_dataset(w: &mut ByteWriter, ds: &Dataset) {
    write_dataset_config(w, &ds.config);
    w.usize(ds.instances.len());
    for inst in &ds.instances {
        write_locked_instance(w, inst);
    }
}

fn read_dataset(r: &mut ByteReader<'_>) -> Option<Dataset> {
    let config = read_dataset_config(r)?;
    let n = r.usize()?;
    let mut instances = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        instances.push(read_locked_instance(r)?);
    }
    Some(Dataset { config, instances })
}

// ---------------------------------------------------------------------
// Training-checkpoint payloads
// ---------------------------------------------------------------------

fn write_f32s(w: &mut ByteWriter, xs: &[f32]) {
    w.usize(xs.len());
    for &x in xs {
        w.f32(x);
    }
}

fn read_f32s(r: &mut ByteReader<'_>) -> Option<Vec<f32>> {
    let n = r.usize()?;
    let mut xs = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        xs.push(r.f32()?);
    }
    Some(xs)
}

fn write_optimizer(w: &mut ByteWriter, opt: &ModelOptimizer) {
    let cfg = opt.config();
    w.f32(cfg.lr);
    w.f32(cfg.beta1);
    w.f32(cfg.beta2);
    w.f32(cfg.eps);
    for state in opt.states() {
        let (m, v, t) = state.parts();
        write_f32s(w, m);
        write_f32s(w, v);
        w.u64(t);
    }
}

fn read_optimizer(r: &mut ByteReader<'_>) -> Option<ModelOptimizer> {
    let cfg = AdamConfig {
        lr: r.f32()?,
        beta1: r.f32()?,
        beta2: r.f32()?,
        eps: r.f32()?,
    };
    let mut states = Vec::with_capacity(8);
    for _ in 0..8 {
        let m = read_f32s(r)?;
        let v = read_f32s(r)?;
        if m.len() != v.len() {
            return None;
        }
        states.push(AdamState::from_parts(m, v, r.u64()?));
    }
    let states: [AdamState; 8] = states.try_into().ok()?;
    Some(ModelOptimizer::from_states(cfg, states))
}

fn write_checkpoint(w: &mut ByteWriter, ckpt: &TrainCheckpoint) {
    write_model(w, &ckpt.model);
    write_optimizer(w, &ckpt.opt);
    for word in ckpt.sampler_rng {
        w.u64(word);
    }
    write_f32s(w, &ckpt.inclusion);
    write_model(w, &ckpt.best);
    w.f64(ckpt.best_val);
    w.usize(ckpt.history.len());
    for &(epoch, loss, acc) in &ckpt.history {
        w.usize(epoch);
        w.f32(loss);
        w.f64(acc);
    }
    w.usize(ckpt.evals_since_best);
    w.usize(ckpt.epochs_run);
    w.bool(ckpt.done);
    w.f64(ckpt.elapsed_secs);
}

fn read_checkpoint(r: &mut ByteReader<'_>) -> Option<TrainCheckpoint> {
    let model = read_model(r)?;
    let opt = read_optimizer(r)?;
    let mut sampler_rng = [0u64; 4];
    for word in &mut sampler_rng {
        *word = r.u64()?;
    }
    let inclusion = read_f32s(r)?;
    let best = read_model(r)?;
    let best_val = r.f64()?;
    let n = r.usize()?;
    let mut history = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        history.push((r.usize()?, r.f32()?, r.f64()?));
    }
    Some(TrainCheckpoint {
        model,
        opt,
        sampler_rng,
        inclusion,
        best,
        best_val,
        history,
        evals_since_best: r.usize()?,
        epochs_run: r.usize()?,
        done: r.bool()?,
        elapsed_secs: r.f64()?,
    })
}

fn write_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.usize(m.rows());
    w.usize(m.cols());
    for &x in m.data() {
        w.f32(x);
    }
}

fn read_matrix(r: &mut ByteReader<'_>) -> Option<Matrix> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let n = rows.checked_mul(cols)?;
    let mut data = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        data.push(r.f32()?);
    }
    Some(Matrix::from_vec(rows, cols, data))
}

fn write_linear(w: &mut ByteWriter, l: &Linear) {
    write_matrix(w, &l.weight);
    w.usize(l.bias.len());
    for &b in &l.bias {
        w.f32(b);
    }
}

fn read_linear(r: &mut ByteReader<'_>) -> Option<Linear> {
    let weight = read_matrix(r)?;
    let n = r.usize()?;
    let mut bias = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        bias.push(r.f32()?);
    }
    Some(Linear { weight, bias })
}

fn write_model(w: &mut ByteWriter, m: &SageModel) {
    w.usize(m.config.feature_len);
    w.usize(m.config.hidden);
    w.usize(m.config.classes);
    w.f64(m.config.dropout);
    w.u64(m.config.seed);
    for layer in m.parts() {
        write_linear(w, layer);
    }
}

fn read_model(r: &mut ByteReader<'_>) -> Option<SageModel> {
    let config = ModelConfig {
        feature_len: r.usize()?,
        hidden: r.usize()?,
        classes: r.usize()?,
        dropout: r.f64()?,
        seed: r.u64()?,
    };
    let encoder = read_linear(r)?;
    let layer1 = read_linear(r)?;
    let layer2 = read_linear(r)?;
    let head = read_linear(r)?;
    // Shape-check before from_parts so a corrupt payload decodes to a
    // miss instead of panicking inside the assertion.
    let h = config.hidden;
    let shapes_ok = encoder.in_dim() == config.feature_len
        && encoder.out_dim() == h
        && layer1.in_dim() == 2 * h
        && layer1.out_dim() == h
        && layer2.in_dim() == 2 * h
        && layer2.out_dim() == h
        && head.in_dim() == h
        && head.out_dim() == config.classes;
    shapes_ok.then(|| SageModel::from_parts(config, encoder, layer1, layer2, head))
}

fn write_train_report(w: &mut ByteWriter, r: &TrainReport) {
    w.f64(r.best_val_accuracy);
    w.usize(r.epochs_run);
    w.f64(r.train_time.as_secs_f64());
    w.usize(r.history.len());
    for &(epoch, loss, acc) in &r.history {
        w.usize(epoch);
        w.f32(loss);
        w.f64(acc);
    }
}

fn read_train_report(r: &mut ByteReader<'_>) -> Option<TrainReport> {
    let best_val_accuracy = r.f64()?;
    let epochs_run = r.usize()?;
    // try_from_secs_f64 rejects NaN, infinities, negatives AND
    // over-range finite values — a malformed duration field must decode
    // to a miss, never panic.
    let train_time = Duration::try_from_secs_f64(r.f64()?).ok()?;
    let n = r.usize()?;
    let mut history = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        history.push((r.usize()?, r.f32()?, r.f64()?));
    }
    Some(TrainReport {
        best_val_accuracy,
        epochs_run,
        train_time,
        history,
    })
}

fn write_metrics(w: &mut ByteWriter, m: &Metrics) {
    let k = m.num_classes();
    w.usize(k);
    for l in 0..k {
        for p in 0..k {
            w.usize(m.count(l, p));
        }
    }
}

fn read_metrics(r: &mut ByteReader<'_>) -> Option<Metrics> {
    let k = r.usize()?;
    if k > 64 {
        return None;
    }
    let mut confusion = Vec::with_capacity(k);
    for _ in 0..k {
        let mut row = Vec::with_capacity(k);
        for _ in 0..k {
            row.push(r.usize()?);
        }
        confusion.push(row);
    }
    Some(Metrics::from_confusion(confusion))
}

fn write_instance_outcome(w: &mut ByteWriter, o: &InstanceOutcome) {
    w.str(&o.benchmark);
    w.usize(o.key_bits);
    write_metrics(w, &o.gnn);
    write_metrics(w, &o.post);
    match o.removal_success {
        None => w.u8(2),
        Some(false) => w.u8(0),
        Some(true) => w.u8(1),
    }
    w.usize(o.misclassifications.len());
    for s in &o.misclassifications {
        w.str(s);
    }
}

fn read_instance_outcome(r: &mut ByteReader<'_>) -> Option<InstanceOutcome> {
    let benchmark = r.str()?;
    let key_bits = r.usize()?;
    let gnn = read_metrics(r)?;
    let post = read_metrics(r)?;
    let removal_success = match r.u8()? {
        0 => Some(false),
        1 => Some(true),
        2 => None,
        _ => return None,
    };
    let n = r.usize()?;
    let mut misclassifications = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        misclassifications.push(r.str()?);
    }
    Some(InstanceOutcome {
        benchmark,
        key_bits,
        gnn,
        post,
        removal_success,
        misclassifications,
    })
}

fn write_attack_outcome(w: &mut ByteWriter, o: &AttackOutcome) {
    w.str(&o.benchmark);
    w.usize(o.instances.len());
    for inst in &o.instances {
        write_instance_outcome(w, inst);
    }
    write_train_report(w, &o.train_report);
}

fn read_attack_outcome(r: &mut ByteReader<'_>) -> Option<AttackOutcome> {
    let benchmark = r.str()?;
    let n = r.usize()?;
    let mut instances = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        instances.push(read_instance_outcome(r)?);
    }
    let train_report = read_train_report(r)?;
    Some(AttackOutcome {
        benchmark,
        instances,
        train_report,
    })
}

fn write_summary(w: &mut ByteWriter, s: &DatasetSummary) {
    w.str(&s.name);
    w.str(&s.benchmarks);
    w.str(&s.format);
    w.usize(s.classes);
    w.usize(s.feature_len);
    w.usize(s.nodes);
    w.usize(s.circuits);
}

fn read_summary(r: &mut ByteReader<'_>) -> Option<DatasetSummary> {
    Some(DatasetSummary {
        name: r.str()?,
        benchmarks: r.str()?,
        format: r.str()?,
        classes: r.usize()?,
        feature_len: r.usize()?,
        nodes: r.usize()?,
        circuits: r.usize()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnunlock_neural::Metrics;

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
        use gnnunlock_gnn::{SaintConfig, TrainConfig, TrainState};
        let inst = tiny_instance();
        let train_g = inst.graph.clone();
        let val_g = inst.graph.clone();
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
        let mut state = TrainState::new(&train_g, &val_g, &cfg);
        for _ in 0..5 {
            state.step_epoch(&train_g, &val_g);
        }
        let ckpt = state.checkpoint();

        let codec = PipelineCodec;
        let value: JobValue = Arc::new(Some(ckpt.clone()) as CheckpointValue);
        let bytes = codec
            .encode(JobKind::TrainEpoch, &value)
            .expect("encodable");
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
        let mut mem = TrainState::from_checkpoint(&train_g, &cfg, &ckpt);
        let mut disk = TrainState::from_checkpoint(&train_g, &cfg, back_ckpt);
        while !mem.step_epoch(&train_g, &val_g) {}
        while !disk.step_epoch(&train_g, &val_g) {}
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
        // Truncated payload.
        assert!(codec
            .decode(JobKind::Aggregate, &bytes[..bytes.len() - 3])
            .is_none());
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(codec.decode(JobKind::Aggregate, &extended).is_none());
        // Values the codec does not cover are declined on encode.
        let shard: JobValue = Arc::new(42u64);
        assert!(codec.encode(JobKind::Lock, &shard).is_none());
        assert!(codec.encode(JobKind::Aggregate, &shard).is_none());
    }
}
