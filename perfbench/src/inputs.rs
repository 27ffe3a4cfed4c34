//! Workload inputs, generated from the workload seed.
//!
//! The seed given on the command line derives every seed the program
//! sees (`DatasetConfig.seed`, `TrainConfig.seed`, `SaintConfig.seed`);
//! the program receives only the resulting configurations. Operation
//! `i` of a run uses inputs derived from `(seed, i)`, so one run covers
//! several inputs and the same seed always yields the same sequence.

use gnnunlock_core::{AttackConfig, DatasetConfig, Submission, Suite};
use gnnunlock_gnn::{SaintConfig, TrainConfig};
use gnnunlock_netlist::CellLibrary;

/// SplitMix64 finaliser: a well-mixed 64-bit value from `x`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seed for `purpose` of operation `index`, kept below 2^48 so it
/// survives the daemon's JSON wire format (numbers are `f64` there).
pub fn derive(seed: u64, index: u64, purpose: &str) -> u64 {
    let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    mix(mix(seed ^ tag).wrapping_add(index)) & ((1 << 48) - 1)
}

/// One in-process campaign: its name and the configurations the
/// program receives.
pub struct CampaignInput {
    pub name: String,
    pub dataset: DatasetConfig,
    pub attack: AttackConfig,
}

/// Training validates once, after the last epoch: with the default
/// `eval_every` a campaign stops early when validation happens to reach
/// 100%, so its work (and time) would hinge on the input drawn rather
/// than on the program.
fn attack(seed: u64, index: u64, epochs: usize, hidden: usize) -> AttackConfig {
    AttackConfig {
        train: TrainConfig {
            epochs,
            hidden,
            eval_every: epochs,
            patience: 0,
            seed: derive(seed, index, "train"),
            saint: SaintConfig {
                roots: 200,
                seed: derive(seed, index, "saint"),
                ..SaintConfig::default()
            },
            ..TrainConfig::default()
        },
        ..AttackConfig::default()
    }
}

/// Anti-SAT on ISCAS-85, Bench8 flow (no synthesis, 2 classes).
pub fn antisat(seed: u64, index: u64) -> CampaignInput {
    CampaignInput {
        name: format!("antisat-{index}"),
        dataset: DatasetConfig {
            key_sizes: vec![8, 16],
            locks_per_config: 1,
            seed: derive(seed, index, "dataset"),
            ..DatasetConfig::antisat(Suite::Iscas85, 0.05)
        },
        attack: attack(seed, index, 100, 48),
    }
}

/// TTLock (SFLL-HD0) on ISCAS-85, Lpe65 Verilog flow with synthesis
/// (3 classes).
pub fn ttlock(seed: u64, index: u64) -> CampaignInput {
    CampaignInput {
        name: format!("ttlock-{index}"),
        dataset: DatasetConfig {
            key_sizes: vec![8, 16],
            locks_per_config: 1,
            seed: derive(seed, index, "dataset"),
            ..DatasetConfig::sfll(Suite::Iscas85, 0, CellLibrary::Lpe65, 0.07)
        },
        attack: attack(seed, index, 30, 32),
    }
}

/// A small campaign of the same flow, the warm-up of a set-up.
pub fn warmup(ttlock_flow: bool, seed: u64, index: u64) -> CampaignInput {
    let dataset = if ttlock_flow {
        DatasetConfig::sfll(Suite::Iscas85, 0, CellLibrary::Lpe65, 0.02)
    } else {
        DatasetConfig::antisat(Suite::Iscas85, 0.02)
    };
    CampaignInput {
        name: format!("warmup-{index}"),
        dataset: DatasetConfig {
            key_sizes: vec![8],
            locks_per_config: 1,
            seed: derive(seed, index, "dataset"),
            ..dataset
        },
        attack: attack(seed, index, 20, 24),
    }
}

/// A small Anti-SAT campaign submitted to the daemon.
pub fn daemon_submission(seed: u64, index: u64) -> Submission {
    Submission {
        tenant: "bench".to_string(),
        name: format!("mix-{index}"),
        dataset: DatasetConfig {
            key_sizes: vec![8],
            locks_per_config: 1,
            seed: derive(seed, index, "dataset"),
            ..DatasetConfig::antisat(Suite::Iscas85, 0.05)
        },
        attack: attack(seed, index, 60, 24),
    }
}
