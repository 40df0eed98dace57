//! The closed-loop offload workload of §6.2.3: submit an offload, wait
//! for its completion (by one of the three mechanisms), process the
//! result, repeat — measuring notification latency and free cycles as
//! noise magnitude varies (Figure 9).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use xui_des::stats::{Histogram, Summary};
use xui_telemetry::NullRecorder;

use crate::completion::{CompletionMode, CompletionWaiter};
use crate::engine::{AccelEngine, RequestKind};

/// Experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadConfig {
    /// Request class (2 µs or 20 µs mean response).
    pub kind: RequestKind,
    /// Uniform noise magnitude added to response times, in cycles.
    pub noise: u64,
    /// Completion-delivery mechanism.
    pub mode: CompletionMode,
    /// Number of offloads in the closed loop.
    pub requests: u64,
    /// RNG seed.
    pub seed: u64,
    /// CPU cost of building + submitting a descriptor (doorbell write).
    pub submit_cost: u64,
    /// CPU cost of processing a completion record.
    pub process_cost: u64,
}

impl OffloadConfig {
    /// Paper-flavoured defaults.
    #[must_use]
    pub fn paper(kind: RequestKind, noise: u64, mode: CompletionMode) -> Self {
        Self {
            kind,
            noise,
            mode,
            requests: 20_000,
            seed: 7,
            submit_cost: 350,
            process_cost: 250,
        }
    }

    /// The periodic-poll mode the paper pairs with each request class:
    /// the timer period matches the mean response time (2 µs floor).
    #[must_use]
    pub fn matched_poll_period(kind: RequestKind) -> CompletionMode {
        CompletionMode::PeriodicPoll {
            period: kind.mean_cycles(),
        }
    }
}

/// Results of a closed-loop run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OffloadReport {
    /// Completion-notification latency summary (cycles).
    pub detection_delay: Summary,
    /// Mean notification latency in microseconds.
    pub mean_delay_us: f64,
    /// Fraction of CPU cycles left free across the run.
    pub free_fraction: f64,
    /// Offloads completed per second (IOPS at 2 GHz).
    pub iops: f64,
    /// Total run length in cycles.
    pub span: u64,
}

/// Runs the closed loop.
#[must_use]
pub fn run_offload(cfg: &OffloadConfig) -> OffloadReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut engine = AccelEngine::new(cfg.kind, cfg.noise);
    let waiter = CompletionWaiter::new(cfg.mode);

    let mut delays = Histogram::new();
    let mut free = 0u64;
    let mut now = 0u64;

    for _ in 0..cfg.requests {
        now += cfg.submit_cost;
        let (_desc, completion) = engine.submit(now, &mut rng);
        let outcome = waiter.wait(now, completion.completed_at, 0, &mut NullRecorder);
        delays.record(outcome.detection_delay);
        free += outcome.cpu_free;
        now = outcome.detected_at;
        now += cfg.process_cost;
    }

    let span = now.max(1);
    OffloadReport {
        mean_delay_us: delays.mean() / 2_000.0,
        detection_delay: delays.summary(),
        free_fraction: free as f64 / span as f64,
        iops: cfg.requests as f64 / (span as f64 / 2e9),
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: RequestKind, noise: u64, mode: CompletionMode) -> OffloadReport {
        let mut cfg = OffloadConfig::paper(kind, noise, mode);
        cfg.requests = 5_000;
        run_offload(&cfg)
    }

    #[test]
    fn busy_spin_minimizes_latency_and_frees_nothing() {
        let r = run(RequestKind::Short, 0, CompletionMode::BusySpin);
        assert!(r.mean_delay_us < 0.05);
        assert_eq!(r.free_fraction, 0.0);
    }

    #[test]
    fn xui_frees_most_cycles_for_short_requests() {
        // Paper: "for 2 µs requests with no unpredictability, tracked
        // interrupts free up 75% of CPU cycles".
        let r = run(RequestKind::Short, 0, CompletionMode::XuiInterrupt);
        assert!(
            (0.65..0.92).contains(&r.free_fraction),
            "free={}",
            r.free_fraction
        );
        assert!(r.mean_delay_us < 0.1, "within 0.2 µs of spinning");
    }

    #[test]
    fn xui_latency_is_noise_independent() {
        let calm = run(RequestKind::Long, 0, CompletionMode::XuiInterrupt);
        let noisy = run(RequestKind::Long, 30_000, CompletionMode::XuiInterrupt);
        assert!((calm.mean_delay_us - noisy.mean_delay_us).abs() < 0.01);
    }

    #[test]
    fn periodic_polling_latency_blows_up_with_noise_on_long_requests() {
        // §6.2.3: "with 20 µs requests, the latency of periodic polling
        // increases sharply as unpredictability rises".
        let mode = OffloadConfig::matched_poll_period(RequestKind::Long);
        let calm = run(RequestKind::Long, 0, mode);
        let noisy = run(RequestKind::Long, 30_000, mode);
        assert!(
            noisy.mean_delay_us > calm.mean_delay_us * 2.0,
            "calm={} noisy={}",
            calm.mean_delay_us,
            noisy.mean_delay_us
        );
    }

    #[test]
    fn short_requests_tolerate_noise_under_periodic_polling() {
        // §6.2.3: "we don't see the same effect for shorter requests as
        // the timer frequency is already very high (2 µs)".
        let mode = OffloadConfig::matched_poll_period(RequestKind::Short);
        let calm = run(RequestKind::Short, 0, mode);
        let noisy = run(RequestKind::Short, 3_000, mode);
        assert!(
            noisy.mean_delay_us < calm.mean_delay_us * 2.0 + 1.5,
            "calm={} noisy={}",
            calm.mean_delay_us,
            noisy.mean_delay_us
        );
    }

    #[test]
    fn long_request_iops_matches_the_intro_claim() {
        // §1: "at 50K IOPS (20 µs average request latency), xUI maintains
        // the same responsiveness as busy spinning with negligible CPU
        // overhead".
        let spin = run(RequestKind::Long, 0, CompletionMode::BusySpin);
        let xui = run(RequestKind::Long, 0, CompletionMode::XuiInterrupt);
        assert!((45_000.0..50_500.0).contains(&xui.iops), "iops={}", xui.iops);
        let delay_gap_us = (xui.mean_delay_us - spin.mean_delay_us).abs();
        assert!(delay_gap_us < 0.2, "within 0.2 µs: {delay_gap_us}");
        assert!(xui.free_fraction > 0.95);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(RequestKind::Long, 10_000, CompletionMode::XuiInterrupt);
        let b = run(RequestKind::Long, 10_000, CompletionMode::XuiInterrupt);
        assert_eq!(a.span, b.span);
        assert_eq!(a.detection_delay.p99, b.detection_delay.p99);
    }
}
