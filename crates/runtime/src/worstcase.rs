//! Worst-case delivery-latency model: a mixed-criticality receiver
//! sharing its core with bulk interferer tenants, driven on the DES
//! engine and checked against a *bounded-latency-once-unblocked*
//! obligation.
//!
//! The §6.1 experiment measures worst-case latency for a single sender
//! against an idle receiver. This model stresses the other end of the
//! envelope (ROADMAP "worst-case-latency scenario band"):
//!
//! - **Mixed criticality.** One high-criticality sender posts the
//!   highest vector (63) while a configurable flood of low-criticality
//!   senders posts low vectors at the same receiver. Delivery is
//!   highest-vector-first but *non-preemptive*: a low delivery already
//!   in flight finishes first, which is exactly the priority-inversion
//!   window the report counts.
//! - **Interference.** Co-located bulk tenants inflate the delivery
//!   cost by an [`InterferenceKind`]-dependent percentage (calibrated
//!   against the cycle simulator's `InterferenceConfig` knobs by the
//!   scenario layer's probe phase) and occupy the receiver's core in
//!   short bursts. A [`FaultPlan`] adds replayable
//!   `InterferenceBurst` windows on top, so the whole interference
//!   schedule derives from `(seed, plan)` alone.
//! - **Isolation.** With [`WorstCaseConfig::isolate`] set, delivery is
//!   pinned to a dedicated core: interference multipliers and occupancy
//!   bursts vanish, replaced by a fixed cross-core steering cost.
//! - **Blocking.** Periodic `SN`-style block windows exercise the
//!   once-unblocked clock: the obligation deadline restarts at the
//!   receiver's unblock, mirroring the invariant checker.
//!
//! The run emits a checker-grade telemetry stream (`uintr_post`,
//! `uintr_deliver`, `uintr_block`, `uintr_unblock`, `idle`) and feeds
//! it to [`xui_faults::check_with_obligations`], so the deadline verdict
//! comes from the same code path the fault suites trust, not from the
//! model's own bookkeeping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use xui_des::Engine;
use xui_faults::invariants::{EV_BLOCK, EV_DELIVER, EV_IDLE, EV_POST, EV_UNBLOCK};
use xui_faults::{
    check_with_obligations, FaultInjector, FaultPlan, InvariantConfig, InvariantKind, JitterCdf,
    LatencyObligation, LatencySamples, PostAction, CDF_GRID,
};
use xui_telemetry::Event;

use crate::tenants::sub_seed;

/// The highest user vector — the high-criticality lane.
pub const HIGH_VECTOR: u64 = 63;

/// The architectural SN (suppress notification) bit of the packed
/// notification-control word, widened to the model's word size.
const SN: u64 = xui_uipi_abi::nc::SN as u64;

/// What kind of co-located interference the bulk tenants generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterferenceKind {
    /// No interference (the baseline arm).
    None,
    /// Cache-polluting tenants: delivery pays refill costs.
    Cache,
    /// Front-end-heavy tenants: microcode entry and redirects contend.
    Pipeline,
    /// Memory-bandwidth hogs: both effects, plus the worst occupancy.
    MemBw,
}

impl InterferenceKind {
    /// The cycle-simulator interference knobs `(cache_pct,
    /// pipeline_pct)` this kind maps to with `n` co-located interferer
    /// tenants. The scenario layer installs these on
    /// `xui_sim::InterferenceConfig` for the probe arm; the DES model
    /// applies their sum to its abstract delivery cost.
    #[must_use]
    pub fn knobs(self, n: u32) -> (u64, u64) {
        let n = u64::from(n);
        match self {
            Self::None => (0, 0),
            Self::Cache => (12 * n, 0),
            Self::Pipeline => (0, 8 * n),
            Self::MemBw => (10 * n, 8 * n),
        }
    }

    /// Total delivery-cost inflation percentage for the DES model.
    #[must_use]
    pub fn static_pct(self, n: u32) -> u64 {
        let (c, p) = self.knobs(n);
        c + p
    }

    /// Short label for tables and artifact rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Cache => "cache",
            Self::Pipeline => "pipeline",
            Self::MemBw => "membw",
        }
    }
}

/// The criticality mix: how many low senders flood the receiver, and
/// how often each lane posts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalityMix {
    /// Mix label for tables and artifact rows.
    pub label: String,
    /// Low-criticality senders (vectors 1, 2, … assigned round-robin).
    pub low_senders: u32,
    /// Mean inter-post gap of each low sender, in virtual ticks.
    pub low_period: u64,
    /// Mean inter-post gap of the single high sender (vector 63).
    pub high_period: u64,
}

impl CriticalityMix {
    /// The default mix: six low senders at a moderate rate.
    #[must_use]
    pub fn standard() -> Self {
        Self { label: "std-6".into(), low_senders: 6, low_period: 3_000, high_period: 40_000 }
    }

    /// A light mix: two slow low senders.
    #[must_use]
    pub fn light() -> Self {
        Self { label: "light-2".into(), low_senders: 2, low_period: 6_000, high_period: 40_000 }
    }

    /// A flood: twelve fast low senders saturating the receiver.
    #[must_use]
    pub fn flood() -> Self {
        Self { label: "flood-12".into(), low_senders: 12, low_period: 1_500, high_period: 40_000 }
    }
}

/// Configuration of one worst-case run (one sweep point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstCaseConfig {
    /// RNG seed; sender streams are derived sub-seeds.
    pub seed: u64,
    /// Horizon in virtual ticks (senders stop posting at the horizon;
    /// the run then drains).
    pub duration: u64,
    /// Interference kind generated by the co-located tenants.
    pub kind: InterferenceKind,
    /// Co-located interferer tenant count.
    pub interferers: u32,
    /// Criticality mix of the senders.
    pub mix: CriticalityMix,
    /// Pin delivery to a dedicated core: interference vanishes, a fixed
    /// steering cost is paid instead.
    pub isolate: bool,
    /// Uninterfered delivery cost in ticks (calibrated from the cycle
    /// simulator's clean probe by the scenario layer).
    pub base_delivery_cost: u64,
    /// Cross-core steering cost paid per delivery when isolated.
    pub steering_cost: u64,
    /// Period of the receiver's block windows (0 disables blocking).
    pub block_period: u64,
    /// Length of each block window.
    pub block_len: u64,
    /// Mean gap between one interferer tenant's occupancy bursts.
    pub interferer_period: u64,
    /// Receiver-core ticks one occupancy burst steals.
    pub interferer_occupancy: u64,
    /// Deadline (ticks once deliverable) for the high vector's
    /// bounded-latency obligation.
    pub deadline: u64,
    /// Replayable fault plan layered on top (interference bursts, drops,
    /// delays, duplicates).
    pub plan: Option<FaultPlan>,
}

impl WorstCaseConfig {
    /// Paper-flavoured defaults for one sweep point: base delivery cost
    /// near the simulator's uninterfered flush-path delivery, 10 k-tick
    /// deadline (the checker's default latency bound).
    #[must_use]
    pub fn paper(kind: InterferenceKind, interferers: u32, mix: CriticalityMix, isolate: bool) -> Self {
        Self {
            seed: 42,
            duration: 240_000,
            kind,
            interferers,
            mix,
            isolate,
            base_delivery_cost: 640,
            steering_cost: 120,
            block_period: 60_000,
            block_len: 2_500,
            interferer_period: 4_000,
            interferer_occupancy: 150,
            deadline: 10_000,
            plan: None,
        }
    }
}

/// Results of one worst-case run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstCaseReport {
    /// Novel posts that landed (UPID bit 0→1).
    pub posts: u64,
    /// Deliveries completed.
    pub deliveries: u64,
    /// Exact worst-case delivery latency over every vector, in ticks.
    pub worst_case: u64,
    /// Jitter CDF of the high-criticality lane (vector 63).
    pub high: JitterCdf,
    /// Jitter CDF of the low-criticality lanes.
    pub low: JitterCdf,
    /// Priority inversions: the high vector landed while a lower
    /// delivery was in flight (non-preemptive window).
    pub inversions: u64,
    /// Deadline-obligation violations found by the invariant checker.
    pub deadline_violations: u64,
    /// Detail line of the first violation, when any (names the offending
    /// event and the observed latency).
    pub first_violation: Option<String>,
    /// Interference-burst windows consulted from the fault plan.
    pub interference_hits: u64,
    /// True when every checker invariant (including the obligation)
    /// held.
    pub pass: bool,
}

/// `base` inflated by `pct` percent (integer arithmetic; identity at 0).
fn inflate(base: u64, pct: u64) -> u64 {
    base + base * pct / 100
}

/// The receiver actor id in the telemetry stream.
const RECEIVER: u32 = 0;

struct World {
    cfg: WorstCaseConfig,
    injector: FaultInjector,
    /// Pending user vectors (the UPID PIR bitmap).
    pir: u64,
    /// Landing time of each pending bit's novel post.
    pending_since: [u64; 64],
    /// Vector currently being delivered (non-preemptive).
    in_delivery: Option<u64>,
    /// Receiver core occupied (delivery microcode or interferer burst)
    /// until this tick.
    busy_until: u64,
    /// An idempotent delivery retry is armed for this tick (0 = none).
    retry_at: u64,
    /// Packed UPID notification-control low word. The receiver is
    /// blocked exactly while the architectural [`SN`] bit is set —
    /// there is no shadow flag; block windows and `FlipSn` fault
    /// windows both act on this word.
    nc: u64,
    last_unblock: u64,
    /// Static interference percentage (kind × interferer count).
    static_pct: u64,
    events: Vec<Event>,
    high_samples: LatencySamples,
    low_samples: LatencySamples,
    posts: u64,
    deliveries: u64,
    inversions: u64,
    rngs: Vec<StdRng>,
}

impl World {
    /// A matching post landed on the UPID: set the bit, count novel
    /// posts, count inversions, and kick delivery.
    fn land(&mut self, uv: u64, now: u64, eng: &mut Engine<World>) {
        let bit = 1u64 << uv;
        if self.pir & bit == 0 {
            self.pir |= bit;
            self.pending_since[uv as usize] = now;
            self.posts += 1;
            self.events.push(Event::instant(now, RECEIVER, EV_POST).with_arg("uv", uv));
            if uv == HIGH_VECTOR {
                if let Some(active) = self.in_delivery {
                    if active < HIGH_VECTOR {
                        self.inversions += 1;
                    }
                }
            }
        }
        self.try_deliver(now, eng);
    }

    /// Starts the highest pending delivery if the receiver can take it.
    fn try_deliver(&mut self, now: u64, eng: &mut Engine<World>) {
        // The fault DSL's FlipSn windows flip bit 1 of the real packed
        // word; what gates delivery is the effective SN, not who set it.
        let nc = self.injector.apply_sn(now, self.nc);
        if nc & SN != 0 {
            if self.nc & SN == 0 {
                // Forced by a fault window: the world emits no unblock
                // of its own, so arm one retry at the window end and
                // surface the window to the invariant checker.
                if let Some(end) = self.injector.sn_window_end(now) {
                    if self.retry_at != end {
                        self.retry_at = end;
                        self.events.push(Event::instant(now, RECEIVER, EV_BLOCK));
                        eng.schedule_at(end, |w: &mut World, eng: &mut Engine<World>| {
                            let t = eng.now();
                            w.retry_at = 0;
                            w.last_unblock = t;
                            w.events.push(Event::instant(t, RECEIVER, EV_UNBLOCK));
                            w.try_deliver(t, eng);
                        });
                    }
                }
            }
            return;
        }
        if self.in_delivery.is_some() || self.pir == 0 {
            return;
        }
        if now < self.busy_until {
            // Core occupied by an interferer burst: retry when it ends
            // (idempotent — one armed retry per deadline).
            if self.retry_at != self.busy_until {
                self.retry_at = self.busy_until;
                eng.schedule_at(self.busy_until, |w: &mut World, eng: &mut Engine<World>| {
                    let t = eng.now();
                    w.retry_at = 0;
                    w.try_deliver(t, eng);
                });
            }
            return;
        }
        let uv = 63 - u64::from(self.pir.leading_zeros());
        let pct = if self.cfg.isolate {
            0
        } else {
            self.static_pct + self.injector.interference_pct(now)
        };
        let steer = if self.cfg.isolate { self.cfg.steering_cost } else { 0 };
        let cost = inflate(self.cfg.base_delivery_cost, pct) + steer;
        self.in_delivery = Some(uv);
        self.busy_until = now + cost;
        eng.schedule_at(now + cost, move |w: &mut World, eng: &mut Engine<World>| {
            let t = eng.now();
            w.complete(uv, t, eng);
        });
    }

    /// Delivery microcode retired: emit the delivery, record the
    /// latency sample against the once-unblocked clock, and chain.
    fn complete(&mut self, uv: u64, now: u64, eng: &mut Engine<World>) {
        self.pir &= !(1u64 << uv);
        self.in_delivery = None;
        self.deliveries += 1;
        self.events.push(Event::instant(now, RECEIVER, EV_DELIVER).with_arg("uv", uv));
        let deliverable = self.pending_since[uv as usize].max(self.last_unblock);
        let latency = now.saturating_sub(deliverable);
        if uv == HIGH_VECTOR {
            self.high_samples.record(latency);
        } else {
            self.low_samples.record(latency);
        }
        self.try_deliver(now, eng);
    }
}

/// One sender's next inter-post gap: `period/2 + U[0, period)`, so the
/// mean is the configured period with deterministic seeded jitter.
fn next_gap(rng: &mut StdRng, period: u64) -> u64 {
    period / 2 + rng.gen_range(0..period.max(1))
}

fn arm_sender(eng: &mut Engine<World>, at: u64, idx: usize, uv: u64) {
    eng.schedule_at(at, move |w: &mut World, eng: &mut Engine<World>| {
        let now = eng.now();
        match w.injector.on_post(now) {
            PostAction::Drop => {}
            PostAction::Deliver => w.land(uv, now, eng),
            PostAction::Delay(by) => {
                eng.schedule_at(now + by, move |w: &mut World, eng: &mut Engine<World>| {
                    let t = eng.now();
                    w.land(uv, t, eng);
                });
            }
            PostAction::Duplicate => {
                w.land(uv, now, eng);
                eng.schedule_at(now + 1, move |w: &mut World, eng: &mut Engine<World>| {
                    let t = eng.now();
                    w.land(uv, t, eng);
                });
            }
        }
        let period = w.sender_period(idx);
        let gap = next_gap(&mut w.rngs[idx], period);
        let next = now + gap;
        if next < w.cfg.duration {
            arm_sender(eng, next, idx, uv);
        }
    });
}

impl World {
    fn sender_period(&self, idx: usize) -> u64 {
        if idx == 0 {
            self.cfg.mix.high_period
        } else {
            self.cfg.mix.low_period
        }
    }
}

/// Interferer tenant `k` bursts onto the receiver's core, extending its
/// occupancy; deliveries wanting to start meanwhile are deferred.
fn arm_interferer(eng: &mut Engine<World>, at: u64, rng_idx: usize) {
    eng.schedule_at(at, move |w: &mut World, eng: &mut Engine<World>| {
        let now = eng.now();
        w.busy_until = w.busy_until.max(now) + w.cfg.interferer_occupancy;
        let gap = next_gap(&mut w.rngs[rng_idx], w.cfg.interferer_period);
        let next = now + gap;
        if next < w.cfg.duration {
            arm_interferer(eng, next, rng_idx);
        }
    });
}

/// Receiver block window starting at `at` for `len` ticks; re-arms the
/// next window while inside the horizon.
fn arm_block(eng: &mut Engine<World>, at: u64) {
    eng.schedule_at(at, move |w: &mut World, eng: &mut Engine<World>| {
        let now = eng.now();
        w.nc |= SN;
        w.events.push(Event::instant(now, RECEIVER, EV_BLOCK));
        let len = w.cfg.block_len;
        eng.schedule_at(now + len, |w: &mut World, eng: &mut Engine<World>| {
            let t = eng.now();
            w.nc &= !SN;
            w.last_unblock = t;
            w.events.push(Event::instant(t, RECEIVER, EV_UNBLOCK));
            w.try_deliver(t, eng);
        });
        let next = now + w.cfg.block_period;
        if next < w.cfg.duration {
            arm_block(eng, next);
        }
    });
}

/// Runs one worst-case point: builds the DES world, drains it, then
/// verdicts the emitted telemetry through the invariant checker with
/// the high-vector deadline obligation attached.
#[must_use]
pub fn run_worst_case(cfg: &WorstCaseConfig) -> WorstCaseReport {
    let plan = cfg.plan.clone().unwrap_or_else(|| FaultPlan::named("none"));
    let senders = 1 + cfg.mix.low_senders as usize;
    let interferer_lanes = if cfg.isolate { 0 } else { cfg.interferers as usize };
    let rngs = (0..senders + interferer_lanes)
        .map(|i| StdRng::seed_from_u64(sub_seed(cfg.seed, i as u64 + 1)))
        .collect();
    let mut world = World {
        static_pct: cfg.kind.static_pct(cfg.interferers),
        cfg: cfg.clone(),
        injector: FaultInjector::new(&plan),
        pir: 0,
        pending_since: [0; 64],
        in_delivery: None,
        busy_until: 0,
        retry_at: 0,
        nc: 0,
        last_unblock: 0,
        events: Vec::new(),
        high_samples: LatencySamples::new(),
        low_samples: LatencySamples::new(),
        posts: 0,
        deliveries: 0,
        inversions: 0,
        rngs,
    };

    let mut engine: Engine<World> = Engine::new();
    // Sender 0 is the high lane (vector 63); low senders take vectors
    // 1, 2, … round-robin below the high vector.
    arm_sender(&mut engine, 1, 0, HIGH_VECTOR);
    for s in 0..cfg.mix.low_senders as usize {
        let uv = 1 + (s as u64 % (HIGH_VECTOR - 1));
        arm_sender(&mut engine, 1 + (s as u64 + 1) * 97, s + 1, uv);
    }
    for k in 0..interferer_lanes {
        arm_interferer(&mut engine, 3 + (k as u64) * 131, senders + k);
    }
    if cfg.block_period > 0 && cfg.block_len > 0 {
        arm_block(&mut engine, cfg.block_period);
    }
    engine.run(&mut world);

    let idle_at = engine.now();
    world.events.push(Event::instant(idle_at, RECEIVER, EV_IDLE));

    let obligation = LatencyObligation {
        name: "high-deliverable-deadline".into(),
        min_vector: HIGH_VECTOR,
        deadline: cfg.deadline,
    };
    // The generic latency bound is disabled: the parameterized
    // obligation is the only deadline in force.
    let checker_cfg = InvariantConfig { latency_bound: u64::MAX };
    let verdict = check_with_obligations(&world.events, &checker_cfg, &[obligation]);

    let high = world.high_samples.reduce(CDF_GRID);
    let low = world.low_samples.reduce(CDF_GRID);
    WorstCaseReport {
        posts: world.posts,
        deliveries: world.deliveries,
        worst_case: high.max.max(low.max),
        high,
        low,
        inversions: world.inversions,
        deadline_violations: verdict.count_of(InvariantKind::DeadlineMissed) as u64,
        first_violation: verdict.violations.first().map(|v| v.detail.clone()),
        interference_hits: world.injector.log().interference_hits,
        pass: verdict.pass(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorstCaseConfig {
        WorstCaseConfig::paper(InterferenceKind::Cache, 4, CriticalityMix::standard(), false)
    }

    #[test]
    fn replay_is_deterministic_from_seed_and_plan() {
        let mut cfg = base();
        cfg.plan = Some(
            FaultPlan::named("wc-bursts")
                .seed(9)
                .interference_burst(20_000, 60_000, 40)
                .delay_every(13, 5, 700)
                .drop_every(31, 7),
        );
        let a = run_worst_case(&cfg);
        let b = run_worst_case(&cfg);
        assert_eq!(a, b);
        assert!(a.deliveries > 0);
        assert!(a.interference_hits > 0);
    }

    #[test]
    fn baseline_meets_the_deadline_and_floods_invert() {
        let calm = run_worst_case(&base());
        assert!(calm.pass, "{:?}", calm.first_violation);
        assert_eq!(calm.deadline_violations, 0);
        assert_eq!(calm.high.count + calm.low.count, calm.deliveries);

        let mut flood = base();
        flood.mix = CriticalityMix::flood();
        let r = run_worst_case(&flood);
        assert!(r.inversions > 0, "non-preemptive flood must show inversions");
        assert!(r.pass, "{:?}", r.first_violation);
    }

    #[test]
    fn isolation_tightens_the_high_lane_tail() {
        let mut interfered = base();
        interfered.kind = InterferenceKind::MemBw;
        interfered.interferers = 8;
        let shared = run_worst_case(&interfered);

        let mut pinned = interfered.clone();
        pinned.isolate = true;
        let isolated = run_worst_case(&pinned);

        assert!(
            isolated.high.max < shared.high.max,
            "isolated max {} must beat shared max {}",
            isolated.high.max,
            shared.high.max
        );
        assert!(isolated.worst_case < shared.worst_case);
    }

    #[test]
    fn flip_sn_window_suppresses_delivery_and_restarts_the_clock() {
        // A fault-forced SN window 5x the deadline: posts landing inside
        // it must sit in the PIR (merging, so fewer novel posts than a
        // clean run) and still meet the deadline, because the window is
        // surfaced to the checker as a block/unblock pair that restarts
        // the once-unblocked clock.
        let mut clean = base();
        clean.block_period = 0; // isolate the fault window from real blocks
        let mut forced = clean.clone();
        forced.plan = Some(FaultPlan::named("sn-window").flip_sn(0, 50_000, true));

        let c = run_worst_case(&clean);
        let f = run_worst_case(&forced);
        assert!(f.pass, "{:?}", f.first_violation);
        assert_eq!(f.deadline_violations, 0);
        assert!(
            f.posts < c.posts,
            "posts must merge while SN is forced ({} vs clean {})",
            f.posts,
            c.posts
        );
        assert!(f.deliveries > 0, "delivery must resume at the window end");
        assert!(
            f.high.max < 50_000,
            "latency counts from the unblock, not the post: {}",
            f.high.max
        );
        assert_eq!(run_worst_case(&forced), f, "forced run must stay deterministic");
    }

    #[test]
    fn impossible_deadline_is_reported_with_event_and_latency() {
        let mut cfg = base();
        cfg.interferers = 8;
        cfg.deadline = 300; // below even the uninterfered delivery cost
        let r = run_worst_case(&cfg);
        assert!(!r.pass);
        assert!(r.deadline_violations > 0);
        let detail = r.first_violation.expect("violation detail");
        assert!(detail.contains("uintr_deliver"), "{detail}");
        assert!(detail.contains("observed latency"), "{detail}");
        assert!(detail.contains("high-deliverable-deadline"), "{detail}");
    }
}
