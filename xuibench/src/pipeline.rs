//! `pipeline`: the twelve `run_workload` calls of
//! `fig4_receiver_overhead` on the cycle-level simulator.
//!
//! fib, linpack and memops, each run four ways: no interrupts, a UIPI
//! software timer on `SystemConfig::uipi()` (flush), the same timer on
//! `SystemConfig::xui()` (tracked), and the KB_Timer. Period, send
//! latency and cycle budget come from the preset; the iteration counts
//! are the preset's divided by [`ITERS_DIVISOR`] so one pass takes about
//! a second. The workload has no random input, so `--seed` does not
//! change it and the reference digests apply to every seed.

use xui_scenario::spec::Experiment;
use xui_sim::config::SystemConfig;
use xui_workloads::harness::{run_workload, IrqSource, RunResult};
use xui_workloads::programs::{Instrument, Workload, WorkloadSpec};

use crate::check::Fnv;
use crate::ctx::Ctx;
use crate::preset;

/// The preset's iteration counts are divided by this.
pub const ITERS_DIVISOR: u64 = 10;

/// The interrupt arms, with the names the per-layer metrics use.
pub const MODES: [&str; 4] = ["base", "uipi_flush", "xui_tracked", "xui_kb_timer"];

/// Prepared inputs: the built programs plus the preset's constants.
pub struct Pipeline {
    kernels: Vec<(&'static str, Workload)>,
    period: u64,
    send_latency: u64,
    max_cycles: u64,
}

fn scaled(spec: &WorkloadSpec) -> WorkloadSpec {
    let mut s = *spec;
    match &mut s {
        WorkloadSpec::Fib { iters }
        | WorkloadSpec::Linpack { iters }
        | WorkloadSpec::Memops { iters } => {
            *iters = (*iters / ITERS_DIVISOR).max(1);
        }
        _ => {}
    }
    s
}

impl Pipeline {
    /// Resolves the preset and builds the three programs.
    ///
    /// # Panics
    ///
    /// Panics if the preset no longer has the Figure 4 shape.
    pub fn setup(ctx: &mut Ctx) -> Self {
        let Experiment::Fig4ReceiverOverhead {
            benchmarks,
            period,
            send_latency,
            max_cycles,
        } = preset::find("fig4_receiver_overhead").experiment
        else {
            panic!("fig4_receiver_overhead is not a Figure 4 experiment");
        };
        let mut kernels = Vec::with_capacity(benchmarks.len());
        for spec in &benchmarks {
            let spec = scaled(spec);
            let name = spec.name();
            if let Some(w) = ctx.call("workloads.build", name, name, || {
                spec.build(Instrument::None)
            }) {
                kernels.push((name, w));
            }
        }
        Self {
            kernels,
            period,
            send_latency,
            max_cycles,
        }
    }

    /// Runs the twelve calls once, checking each result.
    pub fn pass(&self, ctx: &mut Ctx) {
        let sw = IrqSource::UipiSwTimer {
            period: self.period,
            send_latency: self.send_latency,
        };
        let arms = [
            (SystemConfig::uipi(), IrqSource::None),
            (SystemConfig::uipi(), sw),
            (SystemConfig::xui(), sw),
            (
                SystemConfig::xui(),
                IrqSource::KbTimer {
                    period: self.period,
                },
            ),
        ];
        for (kernel, w) in &self.kernels {
            for (mode, (cfg, source)) in MODES.iter().zip(&arms) {
                let (cfg, source) = (cfg.clone(), *source);
                let Some(r) = ctx.call("sim.run_workload", mode, kernel, || {
                    run_workload(cfg, w, source, self.max_cycles)
                }) else {
                    continue;
                };
                ctx.tally.add("sim.cycles", kernel, r.cycles as f64);
                ctx.tally.add("sim.insts", kernel, r.insts as f64);
                ctx.tally.add("sim.delivered", kernel, r.delivered as f64);
                ctx.tally.add("sim.squashed", kernel, r.squashed as f64);
                ctx.checker
                    .expect(&format!("pipeline/{kernel}/{mode}"), digest(&r));
            }
        }
    }
}

/// Digest of a run's deterministic outputs.
#[must_use]
pub fn digest(r: &RunResult) -> u64 {
    Fnv::default()
        .u64(r.cycles)
        .u64(r.insts)
        .u64(r.delivered)
        .u64(r.handled)
        .u64(r.squashed)
        .finish()
}
