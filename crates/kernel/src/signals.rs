//! POSIX signal delivery model (§2 "Signals: high overheads, imprecise").

use serde::{Deserialize, Serialize};
use xui_telemetry::Recorder;

use crate::costs::OsCosts;

/// Models delivering signals to a thread and accounts their cost.
///
/// A signal charges `signal_kernel_path` cycles of kernel work before the
/// handler runs plus the residual microarchitectural pollution the paper
/// measured (branch mispredictions and cache misses caused by contention
/// with the kernel signal-handling code), totalling `signal_total`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SignalModel {
    costs: OsCosts,
    delivered: u64,
    cycles_charged: u64,
}

/// Timing of one signal delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalDelivery {
    /// Cycle the user handler starts running.
    pub handler_start: u64,
    /// Total cycles charged against the receiving core for this signal.
    pub total_cost: u64,
}

impl SignalModel {
    /// Creates a model with paper costs.
    #[must_use]
    pub fn new() -> Self {
        Self {
            costs: OsCosts::paper(),
            delivered: 0,
            cycles_charged: 0,
        }
    }

    /// Delivers one signal at `now`; returns when the handler starts and
    /// what the interruption costs in total. Records a `signal_delivery`
    /// span on `core` from the signal's arrival to the handler start
    /// (the kernel path), carrying the total charged cost as an
    /// argument. With [`xui_telemetry::NullRecorder`] the recording
    /// compiles away.
    pub fn deliver<R: Recorder>(&mut self, now: u64, core: u32, rec: &mut R) -> SignalDelivery {
        self.delivered += 1;
        self.cycles_charged += self.costs.signal_total;
        let delivery = SignalDelivery {
            handler_start: now + self.costs.signal_kernel_path,
            total_cost: self.costs.signal_total,
        };
        if rec.enabled() {
            rec.record(xui_telemetry::Event::begin(now, core, "signal_delivery"));
            rec.record(
                xui_telemetry::Event::end(delivery.handler_start, core, "signal_delivery")
                    .with_arg("total_cost", delivery.total_cost),
            );
        }
        delivery
    }

    /// Signals delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn cycles_charged(&self) -> u64 {
        self.cycles_charged
    }

    /// Average per-signal cost in microseconds at 2 GHz.
    #[must_use]
    pub fn mean_cost_us(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.cycles_charged as f64 / self.delivered as f64 / 2_000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use xui_telemetry::NullRecorder;

    use super::*;

    #[test]
    fn each_signal_costs_2_4_us() {
        let mut m = SignalModel::new();
        for i in 0..100 {
            let d = m.deliver(i * 10_000, 0, &mut NullRecorder);
            assert_eq!(d.total_cost, 4_800);
            assert_eq!(d.handler_start, i * 10_000 + 2_800);
        }
        assert_eq!(m.delivered(), 100);
        assert!((m.mean_cost_us() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn fresh_model_has_no_charges() {
        let m = SignalModel::new();
        assert_eq!(m.cycles_charged(), 0);
        assert_eq!(m.mean_cost_us(), 0.0);
    }

    #[test]
    fn traced_delivery_records_balanced_span() {
        let mut m = SignalModel::new();
        let mut rec = xui_telemetry::RingRecorder::new(16);
        let d = m.deliver(1_000, 3, &mut rec);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], xui_telemetry::Event::begin(1_000, 3, "signal_delivery"));
        assert_eq!(events[1].ts, d.handler_start);
        assert_eq!(events[1].arg("total_cost"), Some(d.total_cost));
        // Same result as the untraced path.
        let mut m2 = SignalModel::new();
        assert_eq!(m2.deliver(1_000, 0, &mut NullRecorder), d);
    }
}
