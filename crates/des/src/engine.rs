//! A deterministic discrete-event engine.
//!
//! Events are closures scheduled at absolute times. Ties are broken by
//! scheduling order (FIFO among same-time events), which — together with
//! seeded RNG — makes every simulation run bit-reproducible.
//!
//! # Hot-path layout
//!
//! Event actions live in a slab (`Vec<Slot>` plus a free list); the
//! event queue orders small `Copy` keys only. This keeps key moves
//! cheap (24 bytes per element instead of a fat struct with a boxed
//! closure) and makes cancellation O(1): the slot is freed **eagerly** —
//! the action is dropped and the slot returned to the free list
//! immediately — while the queue entry remains as a tombstone, detected
//! by generation mismatch when it surfaces. No `HashSet` of cancelled
//! ids is consulted on the pop path.
//!
//! The queue itself is tiered (see [`crate::calendar`]): a binary heap
//! below [`DEFAULT_ACTIVATION`] pending keys — so small simulations run
//! the code path they always did — and a calendar wheel with an
//! overflow ladder above it, giving O(1) amortized enqueue/dequeue for
//! the bulk timer churn of datacenter-scale workloads. Keys are totally
//! ordered by (time, seq), so the tier in use can never change the
//! execution order: results are byte-identical across [`QueueKind`]s.

use crate::calendar::{QueueKey, TieredQueue};

pub use crate::calendar::{QueueKind, DEFAULT_ACTIVATION};

/// Simulation time in ticks. Experiments in this workspace interpret ticks
/// as CPU cycles at 2 GHz (2000 ticks = 1 µs), matching the paper's
/// operating point.
pub type SimTime = u64;

/// Handle to a scheduled event, usable for cancellation.
///
/// Encodes `(generation << 32) | slot`; the generation makes handles to
/// completed/cancelled events permanently stale even after the slot is
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        Self((u64::from(gen) << 32) | u64::from(slot))
    }

    fn slot(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A boxed event action.
type Action<S> = Box<dyn FnOnce(&mut S, &mut Engine<S>)>;

/// One slab entry. `gen` is bumped every time the slot is vacated, so
/// heap keys and `EventId`s carrying an old generation are recognized as
/// tombstones/stale in O(1).
struct Slot<S> {
    gen: u32,
    action: Option<Action<S>>,
}

/// The event engine: a clock plus a priority queue of pending events.
///
/// The engine is generic over a world state `S`; each event receives
/// `&mut S` and `&mut Engine<S>` so it can mutate the world and schedule
/// further events.
///
/// # Examples
///
/// ```
/// use xui_des::engine::Engine;
///
/// let mut engine: Engine<Vec<u64>> = Engine::new();
/// let mut log = Vec::new();
/// engine.schedule_at(10, |s, _| s.push(10));
/// engine.schedule_at(5, |s, eng| {
///     s.push(5);
///     eng.schedule_in(2, |s, _| s.push(7));
/// });
/// engine.run(&mut log);
/// assert_eq!(log, vec![5, 7, 10]);
/// ```
pub struct Engine<S> {
    now: SimTime,
    seq: u64,
    queue: TieredQueue,
    slots: Vec<Slot<S>>,
    free: Vec<u32>,
    /// Scheduled, not-yet-run, not-cancelled events.
    live: usize,
    executed: u64,
}

impl<S> Default for Engine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> std::fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("executed", &self.executed)
            .finish()
    }
}

impl<S> Engine<S> {
    /// Creates an engine at time 0 with no events, using the default
    /// tiered queue ([`QueueKind::Tiered`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_queue(QueueKind::default())
    }

    /// Creates an engine with an explicit [`QueueKind`]. Execution order
    /// — and therefore every simulation result — is identical across
    /// kinds; only the queue-maintenance cost differs. `QueueKind::Heap`
    /// exists as the baseline for capacity benchmarks.
    #[must_use]
    pub fn with_queue(kind: QueueKind) -> Self {
        Self {
            now: 0,
            seq: 0,
            queue: TieredQueue::new(kind),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            executed: 0,
        }
    }

    /// The [`QueueKind`] this engine was built with.
    #[must_use]
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// The queue tier currently ordering events: `"heap"` (below the
    /// activation threshold, or after a pathological-distribution
    /// fallback) or `"calendar"`.
    #[must_use]
    pub fn queue_tier(&self) -> &'static str {
        self.queue.tier()
    }

    /// Cumulative queue-maintenance work in key touches (pushes, sort
    /// and rebuild moves, bucket-activation scans). A diagnostic for
    /// tests and benchmarks: e.g. a far-future timer parked in the
    /// overflow ladder must not add a scan per executed event.
    #[must_use]
    pub fn queue_work(&self) -> u64 {
        self.queue.work()
    }

    /// Overrides the heap→calendar activation threshold (default
    /// [`DEFAULT_ACTIVATION`] stored keys). Mainly for tests and
    /// benchmarks: 0 engages the calendar from the first event.
    pub fn set_queue_activation(&mut self, keys: usize) {
        self.queue.set_activation(keys);
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of pending events (scheduled, not yet run, not cancelled).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Slab capacity currently allocated (diagnostics; bounded by the
    /// peak number of simultaneously pending events, not by throughput).
    #[must_use]
    pub fn slab_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Schedules `action` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — scheduling into the past is a
    /// causality bug in the caller.
    pub fn schedule_at(
        &mut self,
        time: SimTime,
        action: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) -> EventId {
        assert!(
            time >= self.now,
            "event scheduled in the past: {} < {}",
            time,
            self.now
        );
        let action: Action<S> = Box::new(action);
        let slot = match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.slots[slot as usize];
                debug_assert!(entry.action.is_none(), "free list returned an occupied slot");
                entry.action = Some(action);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX simultaneously pending events");
                self.slots.push(Slot {
                    gen: 0,
                    action: Some(action),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.queue.push(QueueKey {
            time,
            seq: self.seq,
            slot,
            gen,
        });
        self.seq += 1;
        self.live += 1;
        EventId::new(slot, gen)
    }

    /// Schedules `action` after a relative `delay`.
    pub fn schedule_in(
        &mut self,
        delay: SimTime,
        action: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) -> EventId {
        let time = self.now.saturating_add(delay);
        self.schedule_at(time, action)
    }

    /// Cancels a previously scheduled event, **eagerly** dropping its
    /// action and returning its slab slot to the free list; only a
    /// tombstone heap key remains. Cancelling an event that already ran
    /// (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let slot = id.slot() as usize;
        if let Some(entry) = self.slots.get_mut(slot) {
            if entry.gen == id.gen() && entry.action.is_some() {
                entry.action = None;
                entry.gen = entry.gen.wrapping_add(1);
                self.free.push(id.slot());
                self.live -= 1;
            }
        }
    }

    /// Takes the action for a surfaced queue key, freeing its slot;
    /// `None` if the key is a tombstone (its event was cancelled).
    fn claim(&mut self, key: QueueKey) -> Option<Action<S>> {
        let entry = &mut self.slots[key.slot as usize];
        if entry.gen != key.gen {
            return None;
        }
        let action = entry.action.take()?;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(key.slot);
        self.live -= 1;
        Some(action)
    }

    /// Runs one event; returns `false` if no live event remains.
    pub fn step(&mut self, state: &mut S) -> bool {
        while let Some(key) = self.queue.pop() {
            let Some(action) = self.claim(key) else {
                continue; // tombstone
            };
            debug_assert!(key.time >= self.now, "queue returned out-of-order event");
            self.now = key.time;
            self.executed += 1;
            action(state, self);
            return true;
        }
        false
    }

    /// Time of the next live event, discarding any tombstones on top of
    /// the queue along the way.
    fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some(key) = self.queue.peek() {
            let entry = &self.slots[key.slot as usize];
            if entry.gen == key.gen && entry.action.is_some() {
                return Some(key.time);
            }
            self.queue.pop();
        }
        None
    }

    /// Runs until the queue drains.
    pub fn run(&mut self, state: &mut S) {
        while self.step(state) {}
    }

    /// Runs until the queue drains or the clock passes `until`
    /// (events scheduled later stay pending). Returns the number of
    /// events executed by this call.
    pub fn run_until(&mut self, state: &mut S, until: SimTime) -> u64 {
        let start = self.executed;
        while self.next_event_time().is_some_and(|t| t <= until) {
            self.step(state);
        }
        self.now = self.now.max(until);
        self.executed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        engine.schedule_at(30, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| s.push(30));
        engine.schedule_at(10, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| s.push(10));
        engine.schedule_at(20, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| s.push(20));
        engine.run(&mut log);
        assert_eq!(log, vec![10, 20, 30]);
        assert_eq!(engine.executed(), 3);
        assert_eq!(engine.now(), 30);
    }

    #[test]
    fn same_time_events_run_fifo() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        for i in 0..10u64 {
            engine.schedule_at(5, move |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| {
                s.push(i);
            });
        }
        engine.run(&mut log);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut engine: Engine<u64> = Engine::new();
        let mut count = 0u64;
        fn tick(count: &mut u64, engine: &mut Engine<u64>) {
            *count += 1;
            if *count < 5 {
                engine.schedule_in(10, tick);
            }
        }
        engine.schedule_at(0, tick);
        engine.run(&mut count);
        assert_eq!(count, 5);
        assert_eq!(engine.now(), 40);
    }

    #[test]
    fn cancelled_events_do_not_run() {
        let mut engine: Engine<Vec<&'static str>> = Engine::new();
        let mut log = Vec::new();
        let keep = engine.schedule_at(1, |s: &mut Vec<&'static str>, _: &mut Engine<_>| {
            s.push("keep");
        });
        let drop_it = engine.schedule_at(2, |s: &mut Vec<&'static str>, _: &mut Engine<_>| {
            s.push("drop");
        });
        assert_eq!(engine.pending(), 2);
        engine.cancel(drop_it);
        assert_eq!(engine.pending(), 1);
        engine.cancel(drop_it); // stale: pending must not move
        assert_eq!(engine.pending(), 1);
        let _ = keep;
        engine.run(&mut log);
        assert_eq!(log, vec!["keep"]);
        assert_eq!(engine.executed(), 1);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        engine.schedule_at(10, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| s.push(10));
        engine.schedule_at(100, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| s.push(100));
        let ran = engine.run_until(&mut log, 50);
        assert_eq!(ran, 1);
        assert_eq!(log, vec![10]);
        assert_eq!(engine.now(), 50);
        assert_eq!(engine.pending(), 1);
        engine.run(&mut log);
        assert_eq!(log, vec![10, 100]);
    }

    #[test]
    fn run_until_ignores_cancelled_event_on_top() {
        // A tombstone heap entry inside the horizon must not trick
        // run_until into executing a live event beyond the horizon.
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        let inside = engine.schedule_at(10, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| {
            s.push(10);
        });
        engine.schedule_at(100, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| s.push(100));
        engine.cancel(inside);
        let ran = engine.run_until(&mut log, 50);
        assert_eq!(ran, 0);
        assert!(log.is_empty());
        assert_eq!(engine.now(), 50);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(10, |_: &mut (), _: &mut Engine<()>| {});
        engine.run(&mut ());
        engine.schedule_at(5, |_: &mut (), _: &mut Engine<()>| {});
    }

    #[test]
    fn cancel_frees_slot_eagerly_and_reschedule_reuses_it() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        let a = engine.schedule_at(10, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| s.push(1));
        assert_eq!(engine.slab_capacity(), 1);
        engine.cancel(a);
        assert_eq!(engine.pending(), 0);

        // The freed slot is reused immediately — capacity does not grow.
        let b = engine.schedule_at(20, |s: &mut Vec<u64>, _: &mut Engine<Vec<u64>>| s.push(2));
        assert_eq!(engine.slab_capacity(), 1);
        assert_ne!(a, b, "reused slot must carry a fresh generation");

        // The stale handle no longer cancels anything.
        engine.cancel(a);
        assert_eq!(engine.pending(), 1);

        let mut log = Vec::new();
        engine.run(&mut log);
        assert_eq!(log, vec![2]);
        assert_eq!(engine.executed(), 1);
    }

    #[test]
    fn heavy_cancel_reschedule_churn_keeps_slab_small() {
        // A timer wheel pattern: schedule, cancel, reschedule, repeatedly.
        // With eager freeing the slab stays at O(live), not O(churn).
        let mut engine: Engine<u64> = Engine::new();
        let mut last = None;
        for i in 0..10_000u64 {
            if let Some(id) = last.take() {
                engine.cancel(id);
            }
            last = Some(
                engine.schedule_at(i + 1, |s: &mut u64, _: &mut Engine<u64>| *s += 1),
            );
        }
        assert_eq!(engine.pending(), 1);
        assert!(
            engine.slab_capacity() <= 2,
            "slab grew to {} despite eager slot reuse",
            engine.slab_capacity()
        );
        let mut hits = 0u64;
        engine.run(&mut hits);
        assert_eq!(hits, 1, "only the last scheduled event survives");
    }

    #[test]
    fn queue_kinds_are_observably_identical_on_a_small_run() {
        let run = |kind: QueueKind| {
            let mut engine: Engine<Vec<u64>> = Engine::with_queue(kind);
            engine.set_queue_activation(0);
            let mut log = Vec::new();
            let cancel = engine.schedule_at(7, |s: &mut Vec<u64>, _: &mut Engine<_>| s.push(7));
            for t in [3u64, 9, 3, 1] {
                engine.schedule_at(t, move |s: &mut Vec<u64>, _: &mut Engine<_>| s.push(t));
            }
            engine.cancel(cancel);
            engine.run_until(&mut log, 3);
            engine.schedule_in(0, |s: &mut Vec<u64>, _: &mut Engine<_>| s.push(100));
            engine.run(&mut log);
            (log, engine.now(), engine.executed())
        };
        assert_eq!(run(QueueKind::Heap), run(QueueKind::Tiered));
    }

    #[test]
    fn calendar_engine_does_not_scan_far_future_event_per_step() {
        // The run_until horizon fast path: a timer parked ~10^12 ticks
        // out must sit untouched in the overflow ladder while thousands
        // of near events churn — not be re-examined on every step.
        let mut engine: Engine<u64> = Engine::new();
        engine.set_queue_activation(0);
        engine.schedule_at(1_000_000_000_000, |s: &mut u64, _: &mut Engine<u64>| *s += 1);
        fn tick(count: &mut u64, engine: &mut Engine<u64>) {
            *count += 1;
            if *count < 4096 {
                engine.schedule_in(100, tick);
            }
        }
        engine.schedule_at(1, tick);
        let mut count = 0u64;
        // Step through many horizons, like a polling co-simulation loop.
        for h in 1..=1024u64 {
            engine.run_until(&mut count, h * 500);
        }
        assert_eq!(count, 4096);
        assert_eq!(engine.queue_tier(), "calendar");
        assert_eq!(engine.pending(), 1, "the far-future timer survives");
        // Work is key touches: each of the ~4k events costs O(1)
        // amortized. If the far event were scanned per step or per
        // horizon, work would be ~4096 * 4096.
        let work = engine.queue_work();
        assert!(work < 4096 * 16, "queue work blew up: {work}");
    }

    #[test]
    fn stale_id_after_execution_is_inert() {
        let mut engine: Engine<u64> = Engine::new();
        let id = engine.schedule_at(1, |s: &mut u64, _: &mut Engine<u64>| *s += 1);
        let mut n = 0u64;
        engine.run(&mut n);
        assert_eq!(n, 1);
        // Slot was freed by execution; a newcomer takes it.
        let id2 = engine.schedule_at(2, |s: &mut u64, _: &mut Engine<u64>| *s += 10);
        engine.cancel(id); // stale: must not hit id2's slot
        engine.run(&mut n);
        assert_eq!(n, 11);
        let _ = id2;
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Execution order is a stable sort of (time, insertion order).
        #[test]
        fn execution_is_stable_time_sort(times in proptest::collection::vec(0u64..1000, 1..100)) {
            let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
            let mut log = Vec::new();
            for (i, t) in times.iter().copied().enumerate() {
                engine.schedule_at(t, move |s: &mut Vec<(u64, usize)>, _: &mut Engine<_>| {
                    s.push((t, i));
                });
            }
            engine.run(&mut log);
            let mut expected: Vec<(u64, usize)> =
                times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
            expected.sort_by_key(|&(t, i)| (t, i));
            prop_assert_eq!(log, expected);
        }
    }

    /// Interprets a random op tape against an engine and returns every
    /// observable: fired tags in order, clock, executed count, pending.
    ///
    /// Ops: 0 = schedule near (within ~1k ticks), 1 = schedule far
    /// (up to ~10^9 ticks out — lands in the calendar's overflow
    /// ladder), 2 = cancel a random outstanding id (tombstones inside
    /// and outside the active bucket horizon), 3 = run_until a horizon.
    fn replay_ops(
        kind: QueueKind,
        activation: usize,
        ops: &[(u8, u64)],
    ) -> (Vec<u64>, SimTime, u64, usize) {
        let mut engine: Engine<Vec<u64>> = Engine::with_queue(kind);
        engine.set_queue_activation(activation);
        let mut log = Vec::new();
        let mut tag = 0u64;
        let mut ids: Vec<EventId> = Vec::new();
        for &(op, a) in ops {
            match op % 4 {
                0 | 1 => {
                    let span = if op % 4 == 0 { 1_000 } else { 1_000_000_000 };
                    let t = engine.now().saturating_add(a % span);
                    let my_tag = tag;
                    tag += 1;
                    ids.push(engine.schedule_at(t, move |s: &mut Vec<u64>, _: &mut Engine<_>| {
                        s.push(my_tag);
                    }));
                }
                2 => {
                    if !ids.is_empty() {
                        let id = ids.remove(a as usize % ids.len());
                        engine.cancel(id); // may already be stale — same both sides
                    }
                }
                _ => {
                    let horizon = engine.now().saturating_add(a % 100_000);
                    engine.run_until(&mut log, horizon);
                }
            }
        }
        engine.run(&mut log);
        (log, engine.now(), engine.executed(), engine.pending())
    }

    proptest! {
        /// The tentpole invariant: the calendar-tier engine is
        /// observably identical to the plain binary-heap engine under
        /// arbitrary schedule/cancel/run_until interleavings.
        #[test]
        fn calendar_and_heap_engines_are_equivalent(
            ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..250),
        ) {
            let heap = replay_ops(QueueKind::Heap, 0, &ops);
            // Activation 0: pure calendar path from the first event.
            prop_assert_eq!(&replay_ops(QueueKind::Tiered, 0, &ops), &heap);
            // A mid-tape threshold: upgrade happens somewhere inside the run.
            prop_assert_eq!(&replay_ops(QueueKind::Tiered, 16, &ops), &heap);
        }
    }

    proptest! {
        /// Random interleavings of schedule/cancel: exactly the
        /// never-cancelled events run, in (time, seq) order, and the slab
        /// never exceeds the peak number of simultaneously live events.
        #[test]
        fn cancellation_churn_is_exact(
            ops in proptest::collection::vec((0u64..500, any::<bool>()), 1..200),
        ) {
            let mut engine: Engine<Vec<u64>> = Engine::new();
            let mut expected: Vec<(u64, u64)> = Vec::new(); // (time, tag)
            let mut tag = 0u64;
            let mut cancellable: Vec<(EventId, u64)> = Vec::new();
            for (t, do_cancel) in ops {
                if do_cancel && !cancellable.is_empty() {
                    let (id, victim_tag) = cancellable.remove(t as usize % cancellable.len());
                    engine.cancel(id);
                    expected.retain(|&(_, tg)| tg != victim_tag);
                } else {
                    let my_tag = tag;
                    tag += 1;
                    let id = engine.schedule_at(t, move |s: &mut Vec<u64>, _: &mut Engine<_>| {
                        s.push(my_tag);
                    });
                    cancellable.push((id, my_tag));
                    expected.push((t, my_tag));
                }
            }
            let mut log = Vec::new();
            engine.run(&mut log);
            expected.sort_by_key(|&(t, tg)| (t, tg)); // tag order == seq order
            let expected_tags: Vec<u64> = expected.iter().map(|&(_, tg)| tg).collect();
            prop_assert_eq!(log, expected_tags);
            prop_assert_eq!(engine.pending(), 0);
        }
    }
}
