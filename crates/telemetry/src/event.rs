//! The structured event model: a `Copy`, allocation-free record of one
//! thing that happened at one virtual timestamp on one actor.
//!
//! Timestamps are always *virtual* — cycle counts from the pipeline
//! simulator or DES nanos/ticks from the discrete-event experiments —
//! never wall-clock, so traces are byte-reproducible across runs, hosts
//! and worker-thread counts.

/// Maximum number of key–value arguments an event can carry inline.
pub const MAX_ARGS: usize = 2;

/// Inline key–value arguments: static keys, integer values. Fixed-size so
/// [`Event`] stays `Copy` and recording never allocates.
pub type Args = [Option<(&'static str, u64)>; MAX_ARGS];

/// The role of an event on its actor's timeline, mirroring the Chrome
/// trace-event phases it exports to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A span opens (`ph: "B"`). Must be matched by an [`Phase::End`]
    /// with the same name on the same actor.
    Begin,
    /// A span closes (`ph: "E"`).
    End,
    /// A point event with no duration (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`); the value rides in the first
    /// argument slot.
    Counter,
}

impl Phase {
    /// The Chrome trace-event `ph` letter.
    #[must_use]
    pub fn chrome_ph(self) -> &'static str {
        match self {
            Self::Begin => "B",
            Self::End => "E",
            Self::Instant => "i",
            Self::Counter => "C",
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual timestamp (cycles or DES ticks — 2000 ticks = 1 µs at the
    /// paper's 2 GHz operating point).
    pub ts: u64,
    /// Which actor produced the event: a core id, worker id, or queue id.
    /// Exported as the Chrome trace `tid`.
    pub actor: u32,
    /// Span/instant/counter role.
    pub phase: Phase,
    /// Event (or span, or counter) name. Static so recording is
    /// allocation-free; taxonomy lives in `docs/TELEMETRY.md`.
    pub name: &'static str,
    /// Inline key–value arguments.
    pub args: Args,
}

impl Event {
    /// Creates an event with no arguments.
    #[must_use]
    pub fn new(ts: u64, actor: u32, phase: Phase, name: &'static str) -> Self {
        Self {
            ts,
            actor,
            phase,
            name,
            args: [None; MAX_ARGS],
        }
    }

    /// A point event.
    #[must_use]
    pub fn instant(ts: u64, actor: u32, name: &'static str) -> Self {
        Self::new(ts, actor, Phase::Instant, name)
    }

    /// A span opening.
    #[must_use]
    pub fn begin(ts: u64, actor: u32, name: &'static str) -> Self {
        Self::new(ts, actor, Phase::Begin, name)
    }

    /// A span closing.
    #[must_use]
    pub fn end(ts: u64, actor: u32, name: &'static str) -> Self {
        Self::new(ts, actor, Phase::End, name)
    }

    /// A counter sample.
    #[must_use]
    pub fn counter(ts: u64, actor: u32, name: &'static str, value: u64) -> Self {
        Self::new(ts, actor, Phase::Counter, name).with_arg("value", value)
    }

    /// Returns the event with one more argument attached (silently
    /// dropped once all [`MAX_ARGS`] inline slots are full).
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: u64) -> Self {
        for slot in &mut self.args {
            if slot.is_none() {
                *slot = Some((key, value));
                break;
            }
        }
        self
    }

    /// Looks up an argument by key.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args
            .iter()
            .flatten()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }
}

impl serde::Serialize for Event {
    fn to_value(&self) -> serde::Value {
        let mut obj = vec![
            ("ts".to_string(), serde::Value::UInt(self.ts.into())),
            ("actor".to_string(), serde::Value::UInt(self.actor.into())),
            (
                "ph".to_string(),
                serde::Value::Str(self.phase.chrome_ph().to_string()),
            ),
            ("name".to_string(), serde::Value::Str(self.name.to_string())),
        ];
        let args: Vec<(String, serde::Value)> = self
            .args
            .iter()
            .flatten()
            .map(|(k, v)| ((*k).to_string(), serde::Value::UInt(u128::from(*v))))
            .collect();
        if !args.is_empty() {
            obj.push(("args".to_string(), serde::Value::Object(args)));
        }
        serde::Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_phase_and_args() {
        let e = Event::instant(5, 1, "x");
        assert_eq!(e.phase, Phase::Instant);
        assert_eq!(e.arg("missing"), None);

        let c = Event::counter(9, 0, "depth", 42);
        assert_eq!(c.phase, Phase::Counter);
        assert_eq!(c.arg("value"), Some(42));
    }

    #[test]
    fn args_fill_in_order_and_overflow_is_dropped() {
        let e = Event::begin(1, 0, "s")
            .with_arg("a", 1)
            .with_arg("b", 2)
            .with_arg("c", 3);
        assert_eq!(e.arg("a"), Some(1));
        assert_eq!(e.arg("b"), Some(2));
        assert_eq!(e.arg("c"), None, "third arg exceeds inline capacity");
    }

    #[test]
    fn chrome_phase_letters() {
        assert_eq!(Phase::Begin.chrome_ph(), "B");
        assert_eq!(Phase::End.chrome_ph(), "E");
        assert_eq!(Phase::Instant.chrome_ph(), "i");
        assert_eq!(Phase::Counter.chrome_ph(), "C");
    }
}
