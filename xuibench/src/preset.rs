//! Preset resolution and the workload seed.
//!
//! Every workload takes its parameters from the registry preset it
//! mirrors. `--seed` feeds the `difftest` base seed and the DES models'
//! `seed` fields; at [`DEFAULT_SEED`] each of them is exactly the
//! preset's own seed, so the default run replays the presets' inputs.

use xui_bench::sweep::derive_seed;
use xui_scenario::{registry, Scenario};

/// The seed at which every input equals its preset's.
pub const DEFAULT_SEED: u64 = 0;

/// The frozen `oracle_fuzz` default base seed (its preset sets none).
pub const ORACLE_FUZZ_SEED: u64 = 0x0D1F_F0A2_ACE5_EED5;

/// Looks up a registry preset.
///
/// # Panics
///
/// Panics if the registry no longer has `name`.
#[must_use]
pub fn find(name: &str) -> Scenario {
    registry::find(name).unwrap_or_else(|| panic!("registry has no preset {name}"))
}

/// The seed a model uses whose preset seed is `preset`: the preset's at
/// the default seed, otherwise a SplitMix64 mix of both.
#[must_use]
pub fn derive(preset: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        preset
    } else {
        derive_seed(preset, seed as usize)
    }
}
