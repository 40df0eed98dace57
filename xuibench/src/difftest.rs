//! `difftest`: differential checking of seeded schedules with
//! `xui-oracle`, as `oracle_fuzz` does it.
//!
//! Each pass checks the same corpus: [`FULL`] full-alphabet schedules
//! (`Schedule::generate` + `diff::check`, which replays the oracle spec,
//! `xui-core`'s `ProtocolModel`, `xui-kernel`'s `UintrKernel` and the
//! `xui-uipi-abi` byte diffs) and [`SIM`] sim-class schedules
//! (`Schedule::generate_sim` + `diff::check`, mostly a traced cycle-sim
//! replay), so the sim class takes about four fifths of the time.
//! Schedule seeds follow `oracle_fuzz`: point `i` of a class gets
//! `derive_seed(base, p) + i`, with sim points numbered after the
//! preset's full-class count, so at the default seed all [`FULL`] full
//! and [`SIM`] sim-class schedules come from the preset's own corpus.

use xui_bench::sweep::derive_seed;
use xui_oracle::{check, Schedule};
use xui_scenario::spec::Experiment;

use crate::check::Fnv;
use crate::ctx::Ctx;
use crate::preset::{self, ORACLE_FUZZ_SEED};

/// Full-alphabet schedules per pass.
pub const FULL: usize = 10_000;
/// Sim-class schedules per pass.
pub const SIM: usize = 8;

/// The corpus: every schedule's seed, per class.
pub struct Difftest {
    full: Vec<u64>,
    sim: Vec<u64>,
}

fn seeds(base: u64, first_point: usize, count: usize) -> Vec<u64> {
    (0..count)
        .map(|i| derive_seed(base, first_point + i).wrapping_add(i as u64))
        .collect()
}

/// Digest of what a schedule is, without serializing it.
fn shape(s: &Schedule) -> u64 {
    let mut h = Fnv::default();
    h.u64(s.seed).u64(u64::from(s.cores)).bytes(&s.send_vectors);
    h.u64(s.timer_vector.map_or(u64::MAX, u64::from));
    h.u64(s.forwarded.len() as u64).u64(s.events.len() as u64);
    h.finish()
}

impl Difftest {
    /// Resolves the preset and derives the corpus seeds.
    ///
    /// # Panics
    ///
    /// Panics if the preset no longer is the oracle fuzzer.
    pub fn setup(seed: u64) -> Self {
        let sc = preset::find("oracle_fuzz");
        let Experiment::OracleFuzz { full, .. } = sc.experiment else {
            panic!("oracle_fuzz is not an oracle experiment");
        };
        let base = preset::derive(sc.base_seed.unwrap_or(ORACLE_FUZZ_SEED), seed);
        let preset_full = usize::try_from(full).expect("preset size fits usize");
        Self {
            full: seeds(base, 0, FULL),
            sim: seeds(base, preset_full, SIM),
        }
    }

    /// Checks the corpus once.
    pub fn pass(&self, ctx: &mut Ctx) {
        for (class, seeds) in [("full", &self.full), ("sim", &self.sim)] {
            let mut digest = Fnv::default();
            for &seed in seeds {
                let Some(schedule) = ctx.call("oracle.generate", class, "", || {
                    if class == "sim" {
                        Schedule::generate_sim(seed)
                    } else {
                        Schedule::generate(seed)
                    }
                }) else {
                    continue;
                };
                digest.u64(shape(&schedule));
                ctx.tally
                    .add("oracle.events", class, schedule.events.len() as f64);
                let Some(verdict) = ctx.call("oracle.check", class, "", || check(&schedule)) else {
                    continue;
                };
                ctx.tally.add("oracle.schedules", class, 1.0);
                if verdict.is_some() {
                    ctx.tally.add("oracle.divergences", class, 1.0);
                }
                ctx.checker.record(verdict.is_none(), || {
                    let d = verdict
                        .as_ref()
                        .map(|d| format!("{}: {}", d.model, d.detail))
                        .unwrap_or_default();
                    format!("{class} schedule {seed:#x} diverges ({d})")
                });
            }
            ctx.checker
                .expect(&format!("difftest/{class}"), digest.finish());
        }
    }
}
