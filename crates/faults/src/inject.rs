//! Deterministic interpreter for a [`FaultPlan`].
//!
//! The injector is a pure state machine over the virtual clock and a
//! post counter: given the same plan and the same sequence of queries
//! it always returns the same answers. All randomness is
//! derived from the plan seed via `splitmix64`, salted by a stable
//! index (window number), never by wall-clock or iteration order.

use crate::plan::{in_window, selects, FaultOp, FaultPlan};
use serde::{Deserialize, Serialize};

/// What to do with one interrupt post, as decided by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostAction {
    /// Deliver normally.
    Deliver,
    /// Lose the post (sender may observe a transient failure).
    Drop,
    /// Deliver, but only after this many extra virtual ticks.
    Delay(u64),
    /// Deliver twice (retransmit race).
    Duplicate,
}

/// Running counters of everything the injector actually did. Plain
/// fields (no maps) so serialized logs are deterministic byte-for-byte.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionLog {
    /// Posts consulted via [`FaultInjector::on_post`].
    pub posts_seen: u64,
    /// Posts dropped.
    pub posts_dropped: u64,
    /// Posts delayed.
    pub posts_delayed: u64,
    /// Posts duplicated.
    pub posts_duplicated: u64,
    /// Times an SN override was in force when queried.
    pub sn_overrides: u64,
    /// Times a UIF override was in force when queried.
    pub uif_overrides: u64,
    /// Timer fires that slipped past their deadline.
    pub timer_stalls: u64,
    /// Ring-capacity queries answered with a clamped value.
    pub ring_clamps: u64,
    /// Posts moved by permutation faults.
    pub reordered: u64,
    /// Queries answered with a nonzero interference-burst inflation.
    pub interference_hits: u64,
}

/// Stateful, deterministic fault injector for one run.
///
/// # Examples
///
/// ```
/// use xui_faults::{FaultInjector, FaultPlan, PostAction};
///
/// let plan = FaultPlan::named("drop-2nd").drop_every(2, 2);
/// let mut inj = FaultInjector::new(&plan);
/// assert_eq!(inj.on_post(100), PostAction::Deliver);
/// assert_eq!(inj.on_post(110), PostAction::Drop);
/// assert_eq!(inj.on_post(120), PostAction::Deliver);
/// assert_eq!(inj.log().posts_dropped, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    post_count: u64,
    log: InjectionLog,
}

impl FaultInjector {
    /// Builds an injector for `plan`. The plan is cloned; the injector
    /// owns its state so a fresh injector replays identically.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        Self {
            plan: plan.clone(),
            post_count: 0,
            log: InjectionLog::default(),
        }
    }

    /// The plan this injector interprets.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the injector has done so far.
    #[must_use]
    pub fn log(&self) -> InjectionLog {
        self.log
    }

    /// Consumes the injector, returning its log.
    #[must_use]
    pub fn into_log(self) -> InjectionLog {
        self.log
    }

    /// Consult the injector about the next interrupt post at virtual
    /// time `now`. Advances the post counter; the first matching
    /// post-fault op in plan order wins.
    pub fn on_post(&mut self, now: u64) -> PostAction {
        let _ = now;
        self.post_count += 1;
        self.log.posts_seen += 1;
        for op in &self.plan.ops {
            match *op {
                FaultOp::DropPost { every, first } if selects(self.post_count, every, first) => {
                    self.log.posts_dropped += 1;
                    return PostAction::Drop;
                }
                FaultOp::DelayPost { every, first, by }
                    if selects(self.post_count, every, first) =>
                {
                    self.log.posts_delayed += 1;
                    return PostAction::Delay(by);
                }
                FaultOp::DuplicatePost { every, first }
                    if selects(self.post_count, every, first) =>
                {
                    self.log.posts_duplicated += 1;
                    return PostAction::Duplicate;
                }
                _ => {}
            }
        }
        PostAction::Deliver
    }

    /// If the plan forces SN during `now`, the forced value.
    pub fn sn_override(&mut self, now: u64) -> Option<bool> {
        for op in &self.plan.ops {
            if let FaultOp::FlipSn { from, until, value } = *op {
                if in_window(now, from, until) {
                    self.log.sn_overrides += 1;
                    return Some(value);
                }
            }
        }
        None
    }

    /// Applies any in-force SN override to the low word of a packed
    /// UPID notification-control block, flipping the architectural SN
    /// bit ([`xui_uipi_abi::nc::SN`], bit 1) of the real word rather
    /// than a shadow flag. Outside every window the word passes
    /// through untouched.
    pub fn apply_sn(&mut self, now: u64, nc_low: u64) -> u64 {
        match self.sn_override(now) {
            Some(true) => nc_low | u64::from(xui_uipi_abi::nc::SN),
            Some(false) => nc_low & !u64::from(xui_uipi_abi::nc::SN),
            None => nc_low,
        }
    }

    /// End of the SN-override window covering `now`, if any (the
    /// furthest `until` across overlapping windows). Pure query: does
    /// not advance the log.
    #[must_use]
    pub fn sn_window_end(&self, now: u64) -> Option<u64> {
        let mut end: Option<u64> = None;
        for op in &self.plan.ops {
            if let FaultOp::FlipSn { from, until, .. } = *op {
                if in_window(now, from, until) {
                    end = Some(end.map_or(until, |e| e.max(until)));
                }
            }
        }
        end
    }

    /// If the plan forces UIF during `now`, the forced value.
    pub fn uif_override(&mut self, now: u64) -> Option<bool> {
        for op in &self.plan.ops {
            if let FaultOp::FlipUif { from, until, value } = *op {
                if in_window(now, from, until) {
                    self.log.uif_overrides += 1;
                    return Some(value);
                }
            }
        }
        None
    }

    /// Actual fire time for a timer scheduled at `scheduled`: fires
    /// falling in a stall window slip to the window end.
    pub fn timer_fire_at(&mut self, scheduled: u64) -> u64 {
        let mut fire = scheduled;
        for op in &self.plan.ops {
            if let FaultOp::StallTimer { from, until } = *op {
                if in_window(fire, from, until) {
                    self.log.timer_stalls += 1;
                    fire = until;
                }
            }
        }
        fire
    }

    /// Total delivery-path cost inflation (percent) in force at `now`:
    /// the sum of every [`FaultOp::InterferenceBurst`] window covering
    /// `now` (overlapping bursts stack). Zero outside all windows.
    pub fn interference_pct(&mut self, now: u64) -> u64 {
        let mut pct = 0u64;
        for op in &self.plan.ops {
            if let FaultOp::InterferenceBurst { from, until, pct: p } = *op {
                if in_window(now, from, until) {
                    pct = pct.saturating_add(p);
                }
            }
        }
        if pct > 0 {
            self.log.interference_hits += 1;
        }
        pct
    }

    /// Effective capacity of receive ring `queue` at time `now`, given
    /// its `nominal` capacity. Clamps never enlarge a ring.
    pub fn ring_capacity(&mut self, queue: usize, now: u64, nominal: usize) -> usize {
        let mut cap = nominal;
        for op in &self.plan.ops {
            if let FaultOp::ClampRing { queue: q, from, until, capacity } = *op {
                if (q == usize::MAX || q == queue) && in_window(now, from, until) && capacity < cap
                {
                    self.log.ring_clamps += 1;
                    cap = capacity;
                }
            }
        }
        cap
    }

    /// Deterministically permutes `items` in place according to any
    /// `ReorderPosts` op: consecutive windows of `window` items are
    /// shuffled with a Fisher–Yates pass keyed by `(plan.seed, window
    /// index)`. Returns how many items changed position.
    pub fn permute_posts<T>(&mut self, items: &mut [T]) -> u64 {
        let window = self.plan.ops.iter().find_map(|op| match *op {
            FaultOp::ReorderPosts { window } => Some(window),
            _ => None,
        });
        let Some(window) = window else { return 0 };
        let moved = permute_windows(items, window, self.plan.seed ^ 0x9E37_79B9_7F4A_7C15);
        self.log.reordered += moved;
        moved
    }
}

/// Fisher–Yates over consecutive windows, keyed by `seed` and the
/// window index. Deterministic for a given `(items.len(), window,
/// seed)`; windows shorter than 2 are left alone.
fn permute_windows<T>(items: &mut [T], window: usize, seed: u64) -> u64 {
    if window < 2 {
        return 0;
    }
    let mut moved = 0u64;
    for (w, chunk) in items.chunks_mut(window).enumerate() {
        let mut state = seed ^ (w as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        // Warm the stream so nearby seeds diverge.
        let _ = rand::splitmix64(&mut state);
        for i in (1..chunk.len()).rev() {
            #[allow(clippy::cast_possible_truncation)]
            let j = (rand::splitmix64(&mut state) % (i as u64 + 1)) as usize;
            if i != j {
                chunk.swap(i, j);
                moved += 2;
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    #[test]
    fn drop_plan_drops_selected_posts_only() {
        let plan = FaultPlan::named("t").drop_every(3, 1);
        let mut inj = FaultInjector::new(&plan);
        let actions: Vec<_> = (0..6).map(|i| inj.on_post(i * 10)).collect();
        assert_eq!(
            actions,
            vec![
                PostAction::Drop,
                PostAction::Deliver,
                PostAction::Deliver,
                PostAction::Drop,
                PostAction::Deliver,
                PostAction::Deliver,
            ]
        );
        assert_eq!(inj.log().posts_seen, 6);
        assert_eq!(inj.log().posts_dropped, 2);
    }

    #[test]
    fn first_matching_op_wins() {
        let plan = FaultPlan::named("t").drop_every(2, 1).duplicate_every(1, 1);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.on_post(0), PostAction::Drop);
        assert_eq!(inj.on_post(1), PostAction::Duplicate);
        assert_eq!(inj.on_post(2), PostAction::Drop);
    }

    #[test]
    fn overrides_respect_windows() {
        let plan = FaultPlan::named("t").flip_sn(100, 200, true).flip_uif(150, 250, false);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.sn_override(99), None);
        assert_eq!(inj.sn_override(100), Some(true));
        assert_eq!(inj.sn_override(199), Some(true));
        assert_eq!(inj.sn_override(200), None);
        assert_eq!(inj.uif_override(149), None);
        assert_eq!(inj.uif_override(160), Some(false));
        assert_eq!(inj.log().sn_overrides, 2);
        assert_eq!(inj.log().uif_overrides, 1);
    }

    #[test]
    fn apply_sn_flips_bit_one_of_the_real_word() {
        let plan = FaultPlan::named("t").flip_sn(100, 200, true).flip_sn(400, 500, false);
        let mut inj = FaultInjector::new(&plan);
        let sn = u64::from(xui_uipi_abi::nc::SN);
        assert_eq!(sn, 2, "SN is architecturally bit 1");
        // Outside every window the word is untouched.
        assert_eq!(inj.apply_sn(50, 0xDEAD_BEEF), 0xDEAD_BEEF);
        // Force-set: only bit 1 changes, neighbours survive.
        assert_eq!(inj.apply_sn(150, 0b1010_0101), 0b1010_0101 | sn);
        // Force-clear: only bit 1 changes.
        assert_eq!(inj.apply_sn(450, 0b0000_0111), 0b0000_0101);
        assert_eq!(inj.log().sn_overrides, 2);
    }

    #[test]
    fn sn_window_end_reports_furthest_cover() {
        let plan = FaultPlan::named("t").flip_sn(100, 200, true).flip_sn(150, 300, true);
        let inj = FaultInjector::new(&FaultPlan::named("empty"));
        assert_eq!(inj.sn_window_end(100), None);
        let inj = FaultInjector::new(&plan);
        assert_eq!(inj.sn_window_end(99), None);
        assert_eq!(inj.sn_window_end(120), Some(200));
        assert_eq!(inj.sn_window_end(160), Some(300), "overlap takes the furthest end");
        assert_eq!(inj.sn_window_end(250), Some(300));
        assert_eq!(inj.sn_window_end(300), None);
    }

    #[test]
    fn timer_stall_slips_to_window_end() {
        let plan = FaultPlan::named("t").stall_timer(1_000, 1_500);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.timer_fire_at(900), 900);
        assert_eq!(inj.timer_fire_at(1_000), 1_500);
        assert_eq!(inj.timer_fire_at(1_499), 1_500);
        assert_eq!(inj.timer_fire_at(1_500), 1_500);
        assert_eq!(inj.log().timer_stalls, 2);
    }

    #[test]
    fn chained_stall_windows_cascade() {
        let plan = FaultPlan::named("t").stall_timer(10, 20).stall_timer(20, 30);
        let mut inj = FaultInjector::new(&plan);
        // Slips out of the first window straight into the second.
        assert_eq!(inj.timer_fire_at(15), 30);
    }

    #[test]
    fn ring_clamp_never_enlarges() {
        let plan = FaultPlan::named("t").clamp_ring(0, 0, 100, 4).clamp_ring(usize::MAX, 50, 60, 64);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.ring_capacity(0, 10, 32), 4);
        assert_eq!(inj.ring_capacity(1, 10, 32), 32);
        assert_eq!(inj.ring_capacity(1, 55, 32), 32); // 64 > nominal, no clamp
        assert_eq!(inj.ring_capacity(0, 100, 32), 32); // window over
    }

    #[test]
    fn permutation_is_deterministic_and_a_permutation() {
        let plan = FaultPlan::named("t").seed(42).reorder_posts(4);
        let mut a: Vec<u32> = (0..10).collect();
        let mut b = a.clone();
        let moved_a = FaultInjector::new(&plan).permute_posts(&mut a);
        let moved_b = FaultInjector::new(&plan).permute_posts(&mut b);
        assert_eq!(a, b, "same plan must permute identically");
        assert_eq!(moved_a, moved_b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "must stay a permutation");
        assert!(moved_a > 0, "window 4 over 10 elements should move something");
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        let _ = FaultInjector::new(&FaultPlan::named("t").seed(1).reorder_posts(8))
            .permute_posts(&mut a);
        let _ = FaultInjector::new(&FaultPlan::named("t").seed(2).reorder_posts(8))
            .permute_posts(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn interference_bursts_stack_inside_windows() {
        let plan = FaultPlan::named("t")
            .interference_burst(100, 200, 40)
            .interference_burst(150, 300, 60);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.interference_pct(99), 0);
        assert_eq!(inj.interference_pct(100), 40);
        assert_eq!(inj.interference_pct(150), 100);
        assert_eq!(inj.interference_pct(250), 60);
        assert_eq!(inj.interference_pct(300), 0);
        assert_eq!(inj.log().interference_hits, 3);
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::named("clean");
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.on_post(0), PostAction::Deliver);
        assert_eq!(inj.sn_override(0), None);
        assert_eq!(inj.uif_override(0), None);
        assert_eq!(inj.timer_fire_at(77), 77);
        assert_eq!(inj.ring_capacity(0, 0, 16), 16);
        let mut v = vec![1, 2, 3];
        assert_eq!(inj.permute_posts(&mut v), 0);
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(inj.into_log(), InjectionLog { posts_seen: 1, ..Default::default() });
    }
}
