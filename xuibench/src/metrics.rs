//! The metric catalogue (names, units, direction) and how each value is
//! computed from a run's phases. `BENCHMARK.json` lists the same names;
//! a self-test keeps the two equal.

use std::collections::BTreeMap;

use crate::ctx::Tally;
use crate::stats::{median, timing};
use crate::trace::{Span, Tracer};

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// End-to-end metrics: (name, unit), printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// A per-call timing: reported as `<name>.p50`, `.tail`, `.tail_pct`
/// and `.n` over the spans named `span` (with key `key`, or any key
/// when empty), scaled from seconds into `unit`.
struct TimingDef {
    name: &'static str,
    unit: &'static str,
    span: &'static str,
    key: &'static str,
    scale: f64,
}

const fn t(
    name: &'static str,
    unit: &'static str,
    span: &'static str,
    key: &'static str,
    scale: f64,
) -> TimingDef {
    TimingDef {
        name,
        unit,
        span,
        key,
        scale,
    }
}

const TIMINGS: [TimingDef; 15] = [
    t("sim.run_s.base", "s", "sim.run_workload", "base", 1.0),
    t(
        "sim.run_s.uipi_flush",
        "s",
        "sim.run_workload",
        "uipi_flush",
        1.0,
    ),
    t(
        "sim.run_s.xui_tracked",
        "s",
        "sim.run_workload",
        "xui_tracked",
        1.0,
    ),
    t(
        "sim.run_s.xui_kb_timer",
        "s",
        "sim.run_workload",
        "xui_kb_timer",
        1.0,
    ),
    t(
        "oracle.generate_us.full",
        "us",
        "oracle.generate",
        "full",
        1e6,
    ),
    t(
        "oracle.generate_us.sim",
        "us",
        "oracle.generate",
        "sim",
        1e6,
    ),
    t("oracle.check_us.full", "us", "oracle.check", "full", 1e6),
    t("oracle.check_ms.sim", "ms", "oracle.check", "sim", 1e3),
    t("net.l3fwd_s.polling", "s", "net.run_l3fwd", "polling", 1.0),
    t("net.l3fwd_s.xui", "s", "net.run_l3fwd", "xui", 1.0),
    t("runtime.server_ms", "ms", "runtime.run_server", "", 1e3),
    t(
        "runtime.multi_tenant_ms",
        "ms",
        "runtime.run_multi_tenant",
        "",
        1e3,
    ),
    t(
        "runtime.worst_case_ms",
        "ms",
        "runtime.run_worst_case",
        "",
        1e3,
    ),
    t("accel.offload_ms", "ms", "accel.run_offload", "", 1e3),
    t("kernel.timer_core_ms", "ms", "kernel.timer_core", "", 1e3),
];

/// Per-layer metrics that are not call timings: (name, unit).
const LAYER_VALUES: [(&str, &str); 25] = [
    ("sim.mcycles_per_s.fib", "Mcycles/s"),
    ("sim.mcycles_per_s.linpack", "Mcycles/s"),
    ("sim.mcycles_per_s.memops", "Mcycles/s"),
    ("sim.minsts_per_s", "Minsts/s"),
    ("workloads.build_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.insts", "count"),
    ("sim.delivered", "count"),
    ("sim.squashed", "count"),
    ("sim_cycles_per_s", "cycles/s"),
    ("oracle.schedules_per_s.full", "1/s"),
    ("oracle.schedules_per_s.sim", "1/s"),
    ("oracle.events", "count"),
    ("oracle.divergences", "count"),
    ("schedules_per_s", "1/s"),
    ("net.mpkts_per_s", "Mpkts/s"),
    ("net.forwarded", "count"),
    ("net.drops", "count"),
    ("runtime.kreqs_per_s", "kreqs/s"),
    ("des.events_per_s.tenants", "1/s"),
    ("des.hold_events_per_s", "1/s"),
    ("des.peak_pending", "count"),
    ("harness.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("fail_frac", "frac"),
];

/// Every per-layer metric (name, unit), in printing order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for d in &TIMINGS {
        out.push((format!("{}.p50", d.name), d.unit));
        out.push((format!("{}.tail", d.name), d.unit));
        out.push((format!("{}.tail_pct", d.name), "%"));
        out.push((format!("{}.n", d.name), "count"));
    }
    out.extend(LAYER_VALUES.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Whether a smaller value of a metric is the better one.
#[must_use]
pub fn lower_is_better(name: &str) -> bool {
    let higher = name.contains("_per_s")
        || name.ends_with(".tail_pct")
        || name.ends_with(".n")
        || name == "net.forwarded"
        || name == "oracle.events"
        || name == "sim.delivered";
    !higher
}

/// What one phase (untraced or traced) of a run measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host seconds of each set-up.
    pub setups: Vec<f64>,
    /// Host seconds of each pass.
    pub walls: Vec<f64>,
    /// Sum of each chunk's fastest lap over the passes (see
    /// [`crate::laps`]).
    pub fastest: f64,
    /// Peak resident memory (`VmHWM`, MB) after set-up and the first
    /// pass: the footprint of running each call once. Later passes let
    /// the allocator's heap fragment, so a peak read at the end of the
    /// run grows with the pass count (67–100 MB on `models`).
    pub peak_rss_mb: f64,
    /// Counts of each pass.
    pub tallies: Vec<Tally>,
}

impl Phase {
    /// Pass seconds: the sum of each chunk's fastest lap.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.fastest
    }

    /// Median set-up seconds.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        median(&self.setups)
    }

    fn first(&self, name: &str) -> f64 {
        self.tallies.first().map_or(0.0, |t| t.sum(name))
    }

    fn total(&self, name: &str) -> f64 {
        self.tallies.iter().map(|t| t.sum(name)).sum()
    }

    fn total_of(&self, name: &'static str, sub: &'static str) -> f64 {
        self.tallies.iter().map(|t| t.get(name, sub)).sum()
    }
}

/// End-to-end metrics from the untraced phase.
#[must_use]
pub fn end_to_end(untraced: &Phase) -> Vec<Metric> {
    let values = [untraced.wall_s(), untraced.setup_s(), untraced.peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Seconds spent in spans named `span` (and `key`, `sub` when non-empty).
fn span_secs(spans: &[Span], span: &str, key: &str, sub: &str) -> f64 {
    spans
        .iter()
        .filter(|s| {
            s.name == span && (key.is_empty() || s.key == key) && (sub.is_empty() || s.sub == sub)
        })
        .map(Span::secs)
        .sum()
}

/// Self time per layer over the traced passes, as a share of their wall
/// time (set-up spans excluded), largest first.
#[must_use]
pub fn layer_shares(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let spans = tracer.spans();
    let own = tracer.self_ns();
    let root = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut wall = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if spans[root(i)].name != "harness.pass" {
            continue;
        }
        *by_layer.entry(s.layer()).or_default() += own[i];
        if s.parent.is_none() {
            wall += s.end_ns - s.start_ns;
        }
    }
    let mut shares: Vec<(&'static str, f64)> = by_layer
        .into_iter()
        .map(|(l, ns)| (l, ratio(ns as f64, wall as f64)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// Per-layer metrics: call timings and layer counts from the traced
/// phase's spans, end-to-end throughput from the untraced phase, and
/// the run's check counts.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn per_layer_values(
    untraced: &Phase,
    traced: &Phase,
    tracer: &Tracer,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for d in &TIMINGS {
        let samples: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == d.span && (d.key.is_empty() || s.key == d.key))
            .map(|s| s.secs() * d.scale)
            .collect();
        let tm = timing(&samples);
        values.insert(format!("{}.p50", d.name), tm.p50);
        values.insert(format!("{}.tail", d.name), tm.tail);
        values.insert(format!("{}.tail_pct", d.name), tm.tail_pct);
        values.insert(format!("{}.n", d.name), tm.n as f64);
    }

    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    for k in ["fib", "linpack", "memops"] {
        let secs = span_secs(spans, "sim.run_workload", "", k);
        put(
            &format!("sim.mcycles_per_s.{k}"),
            ratio(traced.total_of("sim.cycles", k), secs) / 1e6,
        );
    }
    put(
        "sim.minsts_per_s",
        ratio(
            traced.total("sim.insts"),
            span_secs(spans, "sim.run_workload", "", ""),
        ) / 1e6,
    );
    let builds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "workloads.build")
        .map(|s| s.secs() * 1e3)
        .collect();
    put("workloads.build_ms", median(&builds));
    for c in ["sim.cycles", "sim.insts", "sim.delivered", "sim.squashed"] {
        put(c, traced.first(c));
    }
    put(
        "sim_cycles_per_s",
        ratio(untraced.first("sim.cycles"), untraced.wall_s()),
    );

    for class in ["full", "sim"] {
        let secs = span_secs(spans, "oracle.generate", class, "")
            + span_secs(spans, "oracle.check", class, "");
        put(
            &format!("oracle.schedules_per_s.{class}"),
            ratio(
                traced
                    .tallies
                    .iter()
                    .map(|t| t.get("oracle.schedules", class))
                    .sum(),
                secs,
            ),
        );
    }
    put("oracle.events", traced.first("oracle.events"));
    put(
        "oracle.divergences",
        untraced.total("oracle.divergences") + traced.total("oracle.divergences"),
    );
    let rates: Vec<f64> = untraced
        .tallies
        .iter()
        .zip(&untraced.walls)
        .map(|(t, &w)| ratio(t.sum("oracle.schedules"), w))
        .collect();
    put("schedules_per_s", median(&rates));

    put(
        "net.mpkts_per_s",
        ratio(
            traced.total("net.forwarded"),
            span_secs(spans, "net.run_l3fwd", "", ""),
        ) / 1e6,
    );
    put("net.forwarded", traced.first("net.forwarded"));
    put("net.drops", traced.first("net.drops"));
    put(
        "runtime.kreqs_per_s",
        ratio(
            traced.total("runtime.requests"),
            span_secs(spans, "runtime.run_server", "", ""),
        ) / 1e3,
    );
    put(
        "des.events_per_s.tenants",
        ratio(
            traced.total("des.engine_events"),
            span_secs(spans, "runtime.run_multi_tenant", "", ""),
        ),
    );
    put(
        "des.hold_events_per_s",
        ratio(
            traced.total("des.hold_events"),
            span_secs(spans, "des.hold_model", "", ""),
        ),
    );
    put("des.peak_pending", traced.first("des.peak_pending"));

    let own = tracer.self_ns();
    let pass_self: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "harness.pass")
        .map(|(_, &ns)| ns)
        .sum();
    put(
        "harness.self_s",
        ratio(pass_self as f64 * 1e-9, traced.walls.len() as f64),
    );
    put(
        "trace.overhead_frac",
        ratio(traced.wall_s(), untraced.wall_s()) - 1.0,
    );
    put("fail_frac", ratio(failed as f64, attempted as f64));

    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric { name, unit, value }
        })
        .collect()
}
