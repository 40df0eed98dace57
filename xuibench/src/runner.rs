//! One benchmark run: passes of the workload in a closed loop until the
//! time is up, each after a few timed set-ups; with tracing, an
//! untraced half followed by a traced half.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::check::{parse_references, Checker, REFERENCES};
use crate::ctx::Ctx;
use crate::difftest::Difftest;
use crate::laps::Laps;
use crate::metrics::{self, Metric, Phase};
use crate::models::Models;
use crate::pipeline::Pipeline;
use crate::preset::DEFAULT_SEED;
use crate::stats::median;
use crate::trace::Tracer;

/// Set-ups timed before each pass (the pass uses the last); `setup_s`
/// is the median of every set-up in the phase, so the set-ups sample
/// the host across the whole run rather than in one burst at its start.
pub const SETUPS_PER_PASS: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The Figure 4 cycle-sim calls.
    Pipeline,
    /// Oracle differential checking.
    Difftest,
    /// The DES-backed models.
    Models,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Pipeline, Kind::Difftest, Kind::Models];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pipeline => "pipeline",
            Kind::Difftest => "difftest",
            Kind::Models => "models",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload's inputs depend on the seed (`pipeline` has
    /// no random input, so its references hold for every seed).
    #[must_use]
    pub fn seeded(self) -> bool {
        self != Kind::Pipeline
    }
}

enum Prepared {
    Pipeline(Pipeline),
    Difftest(Difftest),
    Models(Models),
}

impl Prepared {
    fn setup(kind: Kind, seed: u64, ctx: &mut Ctx) -> Self {
        match kind {
            Kind::Pipeline => Self::Pipeline(Pipeline::setup(ctx)),
            Kind::Difftest => Self::Difftest(Difftest::setup(seed)),
            Kind::Models => Self::Models(Models::setup(seed)),
        }
    }

    fn pass(&self, ctx: &mut Ctx) {
        match self {
            Self::Pipeline(w) => w.pass(ctx),
            Self::Difftest(w) => w.pass(ctx),
            Self::Models(w) => w.pass(ctx),
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Run the traced half too and report per-layer metrics.
    pub trace: bool,
    /// Reference digests to enforce instead of the recorded ones.
    pub references: Option<String>,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics to print: end-to-end without tracing, per-layer with.
    pub metrics: Vec<Metric>,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Why the first few checks failed.
    pub problems: Vec<String>,
    /// Every call's digest, as reference lines.
    pub digests: String,
    /// One digest over all calls.
    pub combined_digest: u64,
    /// Traced self time per layer as a share of traced pass time.
    pub shares: Vec<(&'static str, f64)>,
    /// The span recorder of the traced half.
    pub tracer: Option<Tracer>,
    /// Untraced passes run.
    pub passes: usize,
    /// Median untraced pass seconds, for comparison with `wall_s`.
    pub median_pass_s: f64,
}

fn run_phase(
    kind: Kind,
    seed: u64,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    checker: &mut Checker,
) -> Phase {
    let mut phase = Phase::default();
    let mut laps = Laps::default();
    let start = Instant::now();
    let mut pass = 0;
    loop {
        let mut prepared = None;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let rep = phase.setups.len() as u32;
            let mut ctx = Ctx::new(tracer.as_deref_mut(), checker, rep);
            let root = ctx.open_root("harness.setup");
            let p = Prepared::setup(kind, seed, &mut ctx);
            ctx.close_root(root);
            phase.setups.push(t.elapsed().as_secs_f64());
            prepared = Some(p);
        }
        let prepared = prepared.expect("at least one set-up");
        let t = Instant::now();
        laps.start_pass();
        let mut ctx = Ctx::new(tracer.as_deref_mut(), checker, pass);
        ctx.laps = Some(&mut laps);
        let root = ctx.open_root("harness.pass");
        prepared.pass(&mut ctx);
        ctx.close_root(root);
        let tally = ctx.tally;
        laps.end_pass();
        phase.walls.push(t.elapsed().as_secs_f64());
        phase.tallies.push(tally);
        if pass == 0 {
            phase.peak_rss_mb = peak_rss_mb();
        }
        pass += 1;
        if start.elapsed() >= budget {
            phase.fastest = laps.fastest_pass();
            return phase;
        }
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), 0 if unknown.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one benchmark run.
///
/// # Panics
///
/// Panics if the reference digests do not parse.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let enforce = !opts.kind.seeded() || opts.seed == DEFAULT_SEED;
    let refs = enforce.then(|| {
        parse_references(opts.references.as_deref().unwrap_or(REFERENCES))
            .expect("reference digests parse")
    });
    let mut checker = Checker::new(refs);
    let budget = Duration::from_secs_f64(opts.seconds);
    let half = if opts.trace { budget / 2 } else { budget };

    let untraced = run_phase(opts.kind, opts.seed, half, None, &mut checker);
    let (metrics, shares, tracer) = if opts.trace {
        let mut tracer = Tracer::new();
        let traced = run_phase(opts.kind, opts.seed, half, Some(&mut tracer), &mut checker);
        let nesting = tracer.check_nesting();
        checker.record(nesting.is_ok(), || nesting.err().unwrap_or_default());
        let metrics = metrics::per_layer_values(
            &untraced,
            &traced,
            &tracer,
            checker.attempted,
            checker.failed,
        );
        (metrics, metrics::layer_shares(&tracer), Some(tracer))
    } else {
        (metrics::end_to_end(&untraced), Vec::new(), None)
    };
    Outcome {
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
        problems: checker.problems.clone(),
        digests: checker.digest_lines(),
        combined_digest: checker.combined(),
        shares,
        tracer,
        passes: untraced.walls.len(),
        median_pass_s: median(&untraced.walls),
    }
}

/// Where run reports and traces go: `out/` beside the benchmark's
/// manifest (ignored by git).
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
