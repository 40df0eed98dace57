//! The host stamp and the result line.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::metrics::Metric;

/// Facts about the code and host a result was measured on.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub rev: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Workload seed.
    pub seed: u64,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// Collects the stamp. Git may not look above the working directory, so
/// an exported tree that is not a checkout reads `unknown`.
#[must_use]
pub fn stamp(seed: u64) -> Stamp {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(Path::new("/")).to_path_buf();
    let rev = command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", &ceiling),
    )
    .unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Stamp {
        rev,
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cpu,
        rustc: command_line(Command::new("rustc").arg("-V"))
            .unwrap_or_else(|| "unknown".to_string()),
        seed,
    }
}

/// JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON with every digit Rust's shortest round-trip
/// rendering gives; non-finite values (never expected) become 0.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Stamp {
    /// The stamp as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rev\":{},\"nproc\":{},\"cpu\":{},\"rustc\":{},\"seed\":{}}}",
            json_str(&self.rev),
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            self.seed
        )
    }
}

/// The `metrics` object of the result line.
#[must_use]
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0 && attempted > 0,
        metrics_json(metrics)
    )
}
