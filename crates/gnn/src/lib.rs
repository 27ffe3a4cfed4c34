//! GraphSAGE + GraphSAINT node classification on netlist graphs — the
//! machine-learning core of the GNNUnlock reproduction.
//!
//! - [`netlist_to_graph`]: the paper's Section IV-B netlist-to-graph
//!   transformation with per-gate feature vectors (`|f̂|` = 13/34/18 for
//!   the Bench8/Lpe65/Nangate45 libraries);
//! - [`Csr`]: adjacency with fused mean aggregation and its exact
//!   adjoint for backprop;
//! - [`SageModel`]: the paper's Table II architecture (input `[|f̂|,H]`,
//!   two `[2H,H]` mean-with-concat layers, `[H,#classes]` head, ReLU,
//!   dropout);
//! - [`SaintSampler`]: GraphSAINT random-walk mini-batching with
//!   inclusion-probability loss normalization;
//! - [`train`] / [`evaluate`]: Adam training with validation-based model
//!   selection.
//!
//! # Examples
//!
//! ```
//! use gnnunlock_gnn::{netlist_to_graph, LabelScheme};
//! use gnnunlock_locking::{lock_antisat, AntiSatConfig};
//! use gnnunlock_netlist::{generator::BenchmarkSpec, CellLibrary};
//!
//! let design = BenchmarkSpec::named("c2670").unwrap().scaled(0.02).generate();
//! let locked = lock_antisat(&design, &AntiSatConfig::new(8, 1)).unwrap();
//! let graph = netlist_to_graph(&locked.netlist, CellLibrary::Bench8, LabelScheme::AntiSat);
//! assert_eq!(graph.feature_len(), 13);
//! ```

#![warn(missing_docs)]

mod features;
mod graph;
mod model;
mod saint;
mod trainer;

pub use features::{merge_graphs, netlist_to_graph, CircuitGraph, LabelScheme};
pub use graph::Csr;
pub use model::{argmax_rows, ForwardCache, ModelConfig, ModelGrads, ModelOptimizer, SageModel};
pub use saint::{SaintConfig, SaintSampler, Subgraph};
pub use trainer::{
    evaluate, evaluate_ws, predict, train, TrainCheckpoint, TrainConfig, TrainReport, TrainState,
};
