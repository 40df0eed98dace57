//! The context every layer call goes through: an optional span around
//! the call, panic containment, output checks and per-pass counters.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use crate::check::Checker;
use crate::laps::Laps;
use crate::trace::Tracer;

/// Exact counts a pass produces, keyed by (counter, label).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally(BTreeMap<(&'static str, &'static str), f64>);

impl Tally {
    /// Adds `v` to a counter.
    pub fn add(&mut self, name: &'static str, sub: &'static str, v: f64) {
        *self.0.entry((name, sub)).or_default() += v;
    }

    /// Raises a counter to at least `v`.
    pub fn max(&mut self, name: &'static str, sub: &'static str, v: f64) {
        let slot = self.0.entry((name, sub)).or_default();
        *slot = slot.max(v);
    }

    /// One counter (0 if never touched).
    #[must_use]
    pub fn get(&self, name: &'static str, sub: &'static str) -> f64 {
        self.0.get(&(name, sub)).copied().unwrap_or(0.0)
    }

    /// A counter summed over every label.
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Per-pass state threaded through a workload's calls.
pub struct Ctx<'a> {
    /// Span recorder, present only in the traced phase.
    pub tracer: Option<&'a mut Tracer>,
    /// Output checks for the whole run.
    pub checker: &'a mut Checker,
    /// Counts this pass produced.
    pub tally: Tally,
    /// Pass index within the phase.
    pub pass: u32,
    /// Chunk timer of the passes, absent during set-up.
    pub laps: Option<&'a mut Laps>,
    step: u32,
}

impl<'a> Ctx<'a> {
    /// A context for pass `pass`.
    pub fn new(tracer: Option<&'a mut Tracer>, checker: &'a mut Checker, pass: u32) -> Self {
        Self {
            tracer,
            checker,
            tally: Tally::default(),
            pass,
            laps: None,
            step: 0,
        }
    }

    /// Runs one layer call inside a span named `name` (when tracing) and
    /// contains a panic, which counts as a failed check and yields `None`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        key: &'static str,
        sub: &'static str,
        f: impl FnOnce() -> T,
    ) -> Option<T> {
        let (pass, step) = (self.pass, self.step);
        let span = self
            .tracer
            .as_deref_mut()
            .map(|t| t.open(name, key, sub, pass, step));
        let out = panic::catch_unwind(AssertUnwindSafe(f));
        if let (Some(t), Some(id)) = (self.tracer.as_deref_mut(), span) {
            t.close(id);
        }
        self.step += 1;
        if let Some(laps) = self.laps.as_deref_mut() {
            laps.after_call(self.step);
        }
        match out {
            Ok(v) => Some(v),
            Err(_) => {
                self.checker
                    .record(false, || format!("{name} [{key} {sub}] panicked"));
                None
            }
        }
    }

    /// Opens a harness span (not a layer call) and returns its id.
    pub fn open_root(&mut self, name: &'static str) -> Option<usize> {
        let pass = self.pass;
        self.tracer
            .as_deref_mut()
            .map(|t| t.open(name, "", "", pass, 0))
    }

    /// Closes a span opened by [`Ctx::open_root`].
    pub fn close_root(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer.as_deref_mut(), id) {
            t.close(id);
        }
    }
}
