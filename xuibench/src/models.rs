//! `models`: the DES-backed presets' layer calls, with no cycle-sim
//! calibration probes.
//!
//! - `xui_net::run_l3fwd` on [`L3FWD_POINTS`] of the `fig8_l3fwd` grid
//!   in both I/O modes: two opposite corners of the grid (fewest NICs at
//!   the lower headline load, most NICs at the higher). One call costs
//!   0.25–0.45 s, most of it building the 16k-route LPM table, so the
//!   whole 48-point grid would not fit a short pass
//! - `xui_runtime::run_server` over the `fig7_rocksdb` grid
//! - `xui_runtime::tenants::run_multi_tenant` for `mt_tenants` and
//!   `mt_million_clients`
//! - `xui_runtime::worstcase::run_worst_case` over the `wc_interference`
//!   arms, with `WorstCaseConfig::paper`'s base delivery cost (the
//!   preset calibrates it with a cycle-sim probe, which is left out)
//! - `xui_accel::run_offload` over the `fig9_dsa` grid and
//!   `xui_kernel::TimerCoreSim::run` over the `fig6_timer_core` grid
//! - one `xui_des::Engine` hold model at [`HOLD_PENDING`] pending
//!
//! Every model's `seed` field is `preset::derive(<preset seed>, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xui_accel::{run_offload, CompletionMode, OffloadConfig, RequestKind};
use xui_bench::sweep::{derive_seed, DEFAULT_BASE_SEED};
use xui_des::Engine;
use xui_kernel::{PreemptMechanism, TimeSource, TimerCoreSim};
use xui_net::{run_l3fwd, IoMode, L3fwdConfig};
use xui_runtime::tenants::{run_multi_tenant, MultiTenantConfig};
use xui_runtime::worstcase::{run_worst_case, WorstCaseConfig};
use xui_runtime::{run_server, ServerConfig};
use xui_scenario::spec::{DsaMode, Experiment};
use xui_workloads::ClientPopulation;

use crate::check::{digest_json, Fnv};
use crate::ctx::Ctx;
use crate::preset;

/// (NIC count, load) points of the `fig8_l3fwd` grid a pass runs.
pub const L3FWD_POINTS: [(usize, f64); 2] = [(1, 0.4), (8, 0.8)];
/// Pending events held by the hold model.
pub const HOLD_PENDING: u64 = 1_000_000;
/// Events the hold model drains after its pre-load.
pub const HOLD_EVENTS: u64 = 1_000_000;
/// `des_capacity`'s default hold-model seed.
const HOLD_SEED: u64 = 42;
/// Mean hold-model gap in ticks (as `des_capacity`).
const HOLD_MEAN_GAP: f64 = 1_000.0;

/// Every call of one pass, fully configured.
pub struct Models {
    l3fwd: Vec<(&'static str, String, L3fwdConfig)>,
    server: Vec<(String, ServerConfig)>,
    tenants: Vec<(&'static str, String, MultiTenantConfig)>,
    worst_case: Vec<(String, WorstCaseConfig)>,
    offload: Vec<(String, OffloadConfig)>,
    timer_core: Vec<(String, TimerCoreSim, u64)>,
    hold_seed: u64,
}

fn mech(m: PreemptMechanism) -> &'static str {
    match m {
        PreemptMechanism::None => "none",
        PreemptMechanism::Signal => "signal",
        PreemptMechanism::UipiSwTimer => "uipi",
        PreemptMechanism::XuiKbTimer => "xui",
    }
}

fn io_mode(m: IoMode) -> &'static str {
    match m {
        IoMode::Polling => "polling",
        IoMode::XuiInterrupt => "xui",
    }
}

fn completion(mode: DsaMode, kind: RequestKind) -> CompletionMode {
    match mode {
        DsaMode::BusySpin => CompletionMode::BusySpin,
        DsaMode::PeriodicPoll => OffloadConfig::matched_poll_period(kind),
        DsaMode::XuiInterrupt => CompletionMode::XuiInterrupt,
    }
}

macro_rules! shape {
    ($name:literal, $pat:pat) => {
        let $pat = preset::find($name).experiment else {
            panic!(concat!($name, " changed shape"));
        };
    };
}

impl Models {
    /// Resolves the presets and configures every call.
    ///
    /// # Panics
    ///
    /// Panics if a preset changed shape.
    #[allow(clippy::too_many_lines)]
    pub fn setup(seed: u64) -> Self {
        shape!(
            "fig8_l3fwd",
            Experiment::Fig8L3fwd {
                loads,
                nic_counts,
                modes
            }
        );
        let mut l3fwd = Vec::new();
        for (nics, load) in L3FWD_POINTS {
            assert!(
                nic_counts.contains(&nics) && loads.contains(&load),
                "fig8_l3fwd grid lost ({nics}, {load})"
            );
            for &mode in &modes {
                let mut cfg = L3fwdConfig::paper(nics, load, mode);
                cfg.seed = preset::derive(cfg.seed, seed);
                l3fwd.push((
                    io_mode(mode),
                    format!("models/l3fwd/{nics}/{load}/{}", io_mode(mode)),
                    cfg,
                ));
            }
        }

        shape!(
            "fig7_rocksdb",
            Experiment::Fig7Rocksdb {
                loads_krps,
                mechanisms,
                ..
            }
        );
        let mut server = Vec::new();
        for &m in &mechanisms {
            for &krps in &loads_krps {
                let mut cfg = ServerConfig::paper(m, krps * 1_000.0);
                cfg.seed = preset::derive(cfg.seed, seed);
                server.push((format!("models/server/{}/{krps}", mech(m)), cfg));
            }
        }

        let mut tenants = Vec::new();
        for name in ["mt_tenants", "mt_million_clients"] {
            let sc = preset::find(name);
            let Experiment::MultiTenant {
                tenant_counts,
                cores,
                clients_per_tenant,
                rps_per_client,
                mechanisms,
                quantum,
                duration,
                arrival_batch,
            } = sc.experiment
            else {
                panic!("{name} changed shape");
            };
            let population = ClientPopulation {
                clients: clients_per_tenant,
                rps_per_client,
            };
            for &m in &mechanisms {
                for &n in &tenant_counts {
                    let mut cfg = MultiTenantConfig::paper(n, cores, population, m);
                    cfg.quantum = quantum;
                    cfg.duration = duration;
                    cfg.arrival_batch = arrival_batch;
                    cfg.seed = preset::derive(cfg.seed, seed);
                    tenants.push((name, format!("models/{name}/{}/{n}", mech(m)), cfg));
                }
            }
        }

        let wc = preset::find("wc_interference");
        let Experiment::WorstCase {
            kinds,
            interferer_counts,
            mixes,
            isolation,
            duration,
            deadline,
            ..
        } = wc.experiment
        else {
            panic!("wc_interference changed shape");
        };
        let arm_base = preset::derive(DEFAULT_BASE_SEED, seed);
        let mut worst_case = Vec::new();
        for &kind in &kinds {
            for &n in &interferer_counts {
                for mix in &mixes {
                    for &iso in &isolation {
                        let mut cfg = WorstCaseConfig::paper(kind, n, mix.clone(), iso);
                        cfg.seed = derive_seed(arm_base, worst_case.len());
                        cfg.duration = duration;
                        cfg.deadline = deadline;
                        cfg.plan = wc.faults.clone();
                        let id =
                            format!("models/worst_case/{}/{n}/{}/{iso}", kind.label(), mix.label);
                        worst_case.push((id, cfg));
                    }
                }
            }
        }

        shape!(
            "fig9_dsa",
            Experiment::Fig9Dsa {
                kinds,
                noise_levels_pct,
                modes
            }
        );
        let mut offload = Vec::new();
        for &kind in &kinds {
            for &noise_pct in &noise_levels_pct {
                for &mode in &modes {
                    let noise = kind.mean_cycles() * noise_pct / 100;
                    let mut cfg = OffloadConfig::paper(kind, noise, completion(mode, kind));
                    cfg.seed = preset::derive(cfg.seed, seed);
                    offload.push((
                        format!(
                            "models/offload/{}/{noise_pct}/{}",
                            kind.mean_cycles(),
                            mode.name()
                        ),
                        cfg,
                    ));
                }
            }
        }

        shape!(
            "fig6_timer_core",
            Experiment::Fig6TimerCore {
                intervals_us,
                receiver_counts,
                ticks
            }
        );
        let mut timer_core = Vec::new();
        for &us in &intervals_us {
            for &n in &receiver_counts {
                for source in [
                    TimeSource::Setitimer,
                    TimeSource::Nanosleep,
                    TimeSource::RdtscSpin,
                    TimeSource::XuiKbTimer,
                ] {
                    let sim = TimerCoreSim::new(source, (us * 2_000.0) as u64, n);
                    timer_core.push((format!("models/timer_core/{us}/{n}/{source:?}"), sim, ticks));
                }
            }
        }

        Self {
            l3fwd,
            server,
            tenants,
            worst_case,
            offload,
            timer_core,
            hold_seed: preset::derive(HOLD_SEED, seed),
        }
    }

    /// Runs every call once, checking each result.
    pub fn pass(&self, ctx: &mut Ctx) {
        for (mode, id, cfg) in &self.l3fwd {
            if let Some(r) = ctx.call("net.run_l3fwd", mode, "", || run_l3fwd(cfg)) {
                ctx.tally.add("net.forwarded", mode, r.forwarded as f64);
                ctx.tally.add("net.drops", mode, r.drops as f64);
                ctx.checker.expect(id, digest_json(&r));
            }
        }
        for (id, cfg) in &self.server {
            if let Some(r) = ctx.call("runtime.run_server", "", "", || run_server(cfg)) {
                ctx.tally.add(
                    "runtime.requests",
                    "",
                    (r.completed_gets + r.completed_scans) as f64,
                );
                ctx.checker.expect(id, digest_json(&r));
            }
        }
        for (preset, id, cfg) in &self.tenants {
            if let Some(r) = ctx.call("runtime.run_multi_tenant", preset, "", || {
                run_multi_tenant(cfg)
            }) {
                ctx.tally
                    .add("des.engine_events", preset, r.engine_events as f64);
                ctx.tally.max("des.peak_pending", "", r.peak_pending as f64);
                ctx.checker.expect(id, digest_json(&r));
            }
        }
        for (id, cfg) in &self.worst_case {
            if let Some(r) = ctx.call("runtime.run_worst_case", "", "", || run_worst_case(cfg)) {
                ctx.checker.expect(id, digest_json(&r));
            }
        }
        for (id, cfg) in &self.offload {
            if let Some(r) = ctx.call("accel.run_offload", "", "", || run_offload(cfg)) {
                ctx.checker.expect(id, digest_json(&r));
            }
        }
        for (id, sim, ticks) in &self.timer_core {
            if let Some(r) = ctx.call("kernel.timer_core", "", "", || sim.run(*ticks)) {
                ctx.checker.expect(id, digest_json(&r));
            }
        }
        let seed = self.hold_seed;
        if let Some((executed, now)) = ctx.call("des.hold_model", "", "", || hold_model(seed)) {
            ctx.tally.add("des.hold_events", "", executed as f64);
            ctx.checker.expect(
                "models/hold",
                Fnv::default().u64(executed).u64(now).finish(),
            );
        }
    }
}

struct Hold {
    rng: StdRng,
    remaining: u64,
}

fn exp_gap(rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (-u.ln() * HOLD_MEAN_GAP).ceil().max(1.0) as u64
}

fn tick(state: &mut Hold, engine: &mut Engine<Hold>) {
    if state.remaining == 0 {
        return;
    }
    state.remaining -= 1;
    let gap = exp_gap(&mut state.rng);
    engine.schedule_in(gap, tick);
}

/// The classic hold model: pre-load [`HOLD_PENDING`] events, then drain
/// while every executed event schedules one successor, so the pending
/// set stays at its pre-loaded size. Returns (executed, final time).
fn hold_model(seed: u64) -> (u64, u64) {
    let mut engine: Engine<Hold> = Engine::new();
    let mut state = Hold {
        rng: StdRng::seed_from_u64(seed),
        remaining: HOLD_EVENTS,
    };
    for _ in 0..HOLD_PENDING {
        let at = exp_gap(&mut state.rng);
        engine.schedule_at(at, tick);
    }
    while engine.step(&mut state) {}
    (engine.executed(), engine.now())
}
