//! # xui-bench
//!
//! The benchmark harness of the xUI reproduction: the deterministic
//! sweep executor and strict flag parser behind `xui run <preset>`, the
//! `des_capacity` tool (`src/bin/`), and Criterion micro-benchmarks of
//! the hot paths (`benches/hotpaths.rs`). This library crate also holds
//! shared reporting helpers: aligned-table printing and JSON result
//! persistence under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod sweep;
pub mod timeline;

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

pub use cli::{CliError, CliSpec, Parsed};
pub use sweep::{Sweep, SweepCtx};
pub use timeline::{reconstruct_fig2, Fig2Reconstruction};

/// Options shared by every sweep-driven experiment: parsed once from the
/// `xui run` command line or filled in programmatically by the scenario
/// runner — never sniffed from `std::env::args` mid-run.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Explicit worker-thread override (else the host's parallelism).
    pub threads: Option<usize>,
    /// Where to write a Chrome trace JSON, for experiments that support it.
    pub trace: Option<PathBuf>,
    /// Save a merged metrics snapshot under `results/`.
    pub metrics: bool,
}

impl BenchOpts {
    /// Builds options from the `--threads`, `--trace` and `--metrics`
    /// flags of an `xui run` parse.
    pub fn from_parsed(p: &Parsed) -> Result<Self, CliError> {
        Ok(Self {
            threads: p.opt_usize("--threads")?,
            trace: p.opt("--trace").map(PathBuf::from),
            metrics: p.flag("--metrics"),
        })
    }
}

/// A simple aligned table printer for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < cols {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("\n=== {id}: {title}");
    println!("    paper reference: {paper_ref}\n");
}

/// Renders a result exactly as [`save_json`] would write it (pretty JSON).
/// The scenario golden tests compare these bytes without touching
/// `results/`.
#[must_use]
pub fn render_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_default()
}

/// Saves a serializable result as `results/<id>.json` (best effort).
pub fn save_json<T: Serialize>(id: &str, value: &T) {
    let dir = PathBuf::from("results");
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{id}.json"));
    let json = render_json(value);
    if !json.is_empty() {
        let _ = fs::write(&path, json);
        println!("\n    [saved {}]", path.display());
    }
}

/// Writes a single-group Chrome trace to `path` (best effort, with a
/// console note like `save_json`).
pub fn save_trace(path: &std::path::Path, events: &[xui_telemetry::Event]) {
    if xui_telemetry::chrome::write_trace(path, events).is_ok() {
        println!("\n    [trace {} ({} events)]", path.display(), events.len());
    }
}

/// Writes a grouped Chrome trace to `path`: one `pid` per sweep point,
/// in point order, so the export is byte-identical for any worker count.
pub fn save_trace_points(path: &std::path::Path, points: &[Vec<xui_telemetry::Event>]) {
    let groups: Vec<xui_telemetry::TraceGroup> = points
        .iter()
        .enumerate()
        .map(|(i, events)| xui_telemetry::TraceGroup {
            pid: u32::try_from(i).unwrap_or(u32::MAX),
            label: format!("point-{i}"),
            events: events.clone(),
        })
        .collect();
    if xui_telemetry::chrome::write_trace_grouped(path, &groups).is_ok() {
        let n: usize = points.iter().map(Vec::len).sum();
        println!(
            "\n    [trace {} ({} events across {} points)]",
            path.display(),
            n,
            points.len()
        );
    }
}

/// Saves a merged metrics snapshot as `results/metrics_<id>.json`.
pub fn save_metrics(id: &str, snapshot: &xui_telemetry::MetricsSnapshot) {
    save_json(&format!("metrics_{id}"), snapshot);
}

/// Formats a cycle count as microseconds at the paper's 2 GHz clock.
#[must_use]
pub fn us(cycles: u64) -> String {
    format!("{:.2}µs", cycles as f64 / 2_000.0)
}

/// Formats a ratio as a percentage.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        t.print();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(2_000), "1.00µs");
        assert_eq!(pct(0.456), "45.6%");
    }
}

/// A minimal ASCII line/series chart for figure presets: one or more
/// named series over a shared numeric x-axis, rendered as rows of bars so
/// trends are visible directly in terminal output.
#[derive(Debug, Clone, Default)]
pub struct AsciiChart {
    x_label: String,
    y_label: String,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

impl AsciiChart {
    /// Creates a chart with axis labels.
    #[must_use]
    pub fn new(x_label: impl Into<String>, y_label: impl Into<String>) -> Self {
        Self {
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a named series of (x, y) points.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push((name.into(), points));
    }

    /// Renders to stdout: grouped horizontal bars per x value.
    pub fn print(&self) {
        let max_y = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|&(_, y)| y))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let name_w = self
            .series
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        let width = 46usize;
        println!("  {} vs {} (bar = {:.4} max)", self.y_label, self.x_label, max_y);
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        for x in xs {
            println!("  {} = {x}", self.x_label);
            for (name, pts) in &self.series {
                if let Some(&(_, y)) = pts.iter().find(|&&(px, _)| px == x) {
                    let bar = ((y / max_y) * width as f64).round() as usize;
                    println!(
                        "    {name:<name_w$} |{}{} {y:.3}",
                        "#".repeat(bar),
                        " ".repeat(width - bar.min(width)),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_prints_without_panic() {
        let mut c = AsciiChart::new("load", "free");
        c.series("polling", vec![(0.0, 0.0), (40.0, 0.0)]);
        c.series("xUI", vec![(0.0, 1.0), (40.0, 0.45)]);
        c.print();
    }

    #[test]
    fn empty_chart_is_safe() {
        AsciiChart::new("x", "y").print();
    }
}
