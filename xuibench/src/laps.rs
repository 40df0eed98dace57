//! Pass time as the sum of each chunk's fastest lap.
//!
//! The host's other tenants slow this process down in bursts of a few
//! seconds (cache and memory contention; steal time stays flat), so a
//! whole pass is often partly slowed and a median of passes moves with
//! the bursts. Every pass runs the same calls in the same order, so the
//! first pass cuts itself into chunks of consecutive calls at least
//! [`CHUNK`] long, and every later pass is cut at the same calls. A
//! chunk's best time is its fastest lap over the passes; the pass time
//! reported is the sum of the best times. A chunk needs only one
//! unhindered lap, so the sum tracks the program's own speed.

use std::time::{Duration, Instant};

/// Shortest chunk: the first pass closes a chunk at the first call
/// boundary at least this long after the chunk opened.
pub const CHUNK: Duration = Duration::from_millis(5);

/// Chunk boundaries (learned in the first pass) and each chunk's best
/// lap over the passes so far.
#[derive(Debug, Default)]
pub struct Laps {
    /// Call count at which each chunk but the last closes.
    ends: Vec<u32>,
    /// Fastest lap of each chunk, seconds; the last entry is the chunk
    /// from the final boundary to the end of the pass.
    best: Vec<f64>,
    /// Passes completed.
    passes: u32,
    /// Chunk the current pass is in.
    chunk: usize,
    /// When the current chunk opened.
    since: Option<Instant>,
}

impl Laps {
    /// Starts a pass.
    pub fn start_pass(&mut self) {
        self.chunk = 0;
        self.since = Some(Instant::now());
    }

    /// Notes that the pass has made `calls` calls so far.
    pub fn after_call(&mut self, calls: u32) {
        let Some(since) = self.since else { return };
        if self.passes == 0 {
            if since.elapsed() >= CHUNK {
                self.ends.push(calls);
                self.close(since);
            }
        } else if self.ends.get(self.chunk) == Some(&calls) {
            self.close(since);
        }
    }

    /// Ends a pass: the time since the last boundary is the final chunk.
    /// A pass that missed a boundary (a failed call changes the call
    /// sequence) only lengthens the chunk it ran into, so it can never
    /// lower a best time.
    pub fn end_pass(&mut self) {
        if let Some(since) = self.since.take() {
            self.chunk = self.chunk.max(self.ends.len());
            self.close(since);
            self.passes += 1;
        }
    }

    fn close(&mut self, since: Instant) {
        let now = Instant::now();
        let lap = now.duration_since(since).as_secs_f64();
        match self.best.get_mut(self.chunk) {
            Some(best) => *best = best.min(lap),
            None => self.best.push(lap),
        }
        self.chunk += 1;
        self.since = Some(now);
    }

    /// Sum of every chunk's fastest lap, seconds; 0 before any pass.
    #[must_use]
    pub fn fastest_pass(&self) -> f64 {
        self.best.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_each_chunks_fastest_lap() {
        let mut laps = Laps {
            ends: vec![2, 4],
            best: vec![3.0, 1.0, 2.0],
            passes: 1,
            ..Laps::default()
        };
        laps.start_pass();
        for calls in 1..=5 {
            laps.after_call(calls);
        }
        laps.end_pass();
        assert_eq!(laps.best.len(), 3);
        // Each lap of the instant pass is far under every earlier best.
        assert!(laps.fastest_pass() < 0.01, "{}", laps.fastest_pass());
    }

    #[test]
    fn first_pass_learns_boundaries_and_covers_the_pass() {
        let mut laps = Laps::default();
        let t = Instant::now();
        laps.start_pass();
        for calls in 1..=3 {
            std::thread::sleep(CHUNK);
            laps.after_call(calls);
        }
        laps.end_pass();
        let pass = t.elapsed().as_secs_f64();
        assert_eq!(laps.ends, vec![1, 2, 3]);
        assert_eq!(laps.best.len(), 4);
        assert!(laps.fastest_pass() <= pass);
        assert!(laps.fastest_pass() >= 3.0 * CHUNK.as_secs_f64());
    }

    #[test]
    fn a_pass_that_misses_a_boundary_lowers_no_best() {
        let mut laps = Laps {
            ends: vec![2],
            best: vec![0.0, 0.0],
            passes: 1,
            ..Laps::default()
        };
        laps.start_pass();
        laps.after_call(1);
        laps.end_pass();
        assert_eq!(laps.best, vec![0.0, 0.0]);
    }
}
