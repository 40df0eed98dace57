//! Host-time spans around every call into a layer.
//!
//! The benchmark's own files open a span before each layer call and
//! close it after, so the spans measure each layer from outside. Spans
//! live in memory until the run ends; then they are exported through
//! `xui-telemetry`'s Chrome-trace writer on one host-time track, and
//! each layer's self time is computed from them.

use std::io;
use std::path::Path;
use std::time::Instant;

use xui_telemetry::chrome::{self, TraceGroup};
use xui_telemetry::Event;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, `<layer>.<function>` (`sim.run_workload`).
    pub name: &'static str,
    /// Variant the per-layer metrics group by (`uipi_flush`, `full`).
    pub key: &'static str,
    /// Secondary label (the kernel of a pipeline call), or `""`.
    pub sub: &'static str,
    /// Host nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer started (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Pass of the workload the span belongs to.
    pub pass: u32,
    /// Call index within the pass.
    pub step: u32,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds (0 while open).
    #[must_use]
    pub fn secs(&self) -> f64 {
        if self.end_ns == u64::MAX {
            return 0.0;
        }
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX - 1)
    }

    /// Opens a span as a child of the innermost open span; returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        key: &'static str,
        sub: &'static str,
        pass: u32,
        step: u32,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            key,
            sub,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
            pass,
            step,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: the benchmark
    /// opened and closed its spans out of order.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Checks that every span is closed, ends no earlier than it starts,
    /// opened after its parent and lies inside its parent's interval.
    ///
    /// # Errors
    ///
    /// Describes the first span that breaks a rule.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns == u64::MAX {
                return Err(format!("span {i} ({}) never closed", s.name));
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if p >= i || s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {p} ({})",
                        s.name, parent.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// part its direct children cover (children never overlap, because
    /// one thread runs one call at a time).
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// The spans as properly nested Chrome `B`/`E` events with host
    /// nanoseconds as timestamps; each carries its pass and step.
    #[must_use]
    pub fn chrome_events(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.spans.len() * 2);
        let mut stack: Vec<usize> = Vec::new();
        let end = |events: &mut Vec<Event>, s: &Span| events.push(Event::end(s.end_ns, 0, s.name));
        for (i, s) in self.spans.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if Some(top) == s.parent {
                    break;
                }
                stack.pop();
                end(&mut events, &self.spans[top]);
            }
            events.push(
                Event::begin(s.start_ns, 0, s.name)
                    .with_arg("pass", u64::from(s.pass))
                    .with_arg("step", u64::from(s.step)),
            );
            stack.push(i);
        }
        while let Some(top) = stack.pop() {
            end(&mut events, &self.spans[top]);
        }
        events
    }

    /// Writes the spans as a Chrome trace (one host-time track).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_chrome(&self, path: &Path, label: &str) -> io::Result<()> {
        chrome::write_trace_grouped(
            path,
            &[TraceGroup {
                pid: 0,
                label: label.to_string(),
                events: self.chrome_events(),
            }],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_balanced_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("harness.pass", "", "", 0, 0);
        let a = t.open("sim.run_workload", "base", "fib", 0, 0);
        t.close(a);
        let b = t.open("oracle.check", "full", "", 0, 1);
        t.close(b);
        t.close(root);
        t.check_nesting().expect("nested");
        let own = t.self_ns();
        let covered = t.spans()[1].end_ns - t.spans()[1].start_ns + t.spans()[2].end_ns
            - t.spans()[2].start_ns;
        assert_eq!(
            own[0],
            t.spans()[0].end_ns - t.spans()[0].start_ns - covered
        );
        let doc = chrome::trace_json_grouped(&[TraceGroup {
            pid: 0,
            label: "host".into(),
            events: t.chrome_events(),
        }]);
        assert_eq!(chrome::validate(&doc).expect("valid trace").span_pairs, 3);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let outer = t.open("harness.pass", "", "", 0, 0);
        let _inner = t.open("sim.run_workload", "", "", 0, 0);
        t.close(outer);
    }
}
