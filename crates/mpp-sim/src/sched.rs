//! Indexed ready-queue for the executor.
//!
//! The executor needs the ready rank with the smallest `(effective
//! time, rank)` after every processed event. A *calendar queue* keyed on
//! virtual time answers that: entries inside the active time window
//! live in a small array sorted descending, so the next wakeup — and
//! every same-tick wakeup behind it — is an O(1) pop off the back;
//! entries beyond the window wait in an unsorted overflow bucket that is
//! swept forward only when the window advances. Simulated time in one
//! experiment clusters tightly (ranks march in α-spaced phases), so
//! nearly every push lands in the active window at O(log w) for a tiny
//! `w`.
//!
//! It uses *lazy invalidation*: each rank has at most one live entry,
//! stamped with a per-rank generation counter. Pushing a new entry for
//! a rank silently invalidates its previous one, and stale entries are
//! discarded at pop time. Pop order is therefore exactly the `min (eff,
//! rank)` over each rank's last push — the linear-scan model the
//! proptest below holds it to.
//!
//! Invariants relied on by the executor (see DESIGN.md §8):
//!
//! * **One live entry per rank** — `push` bumps the rank's generation,
//!   so older entries for the same rank can never validate.
//! * **Entries only improve** — a rank's effective time is re-pushed
//!   only when a newly arrived message lowers it (blocked-recv wakeup),
//!   so a stale entry always carries an effective time ≥ the live one
//!   and lazy discarding never changes pop order.
//! * **Pop consumes** — a popped rank has no live entry until the
//!   executor settles its next queue head and pushes again.
//!
//! The queue does *not* assume monotone pops or improving re-pushes: a
//! push below the current window (or below the last popped time) is
//! binary-inserted into the active array and pops in exact `(eff, rank)`
//! order, and a later-time re-push wins like any other, so the structure
//! agrees with the linear-scan model on arbitrary input sequences.

use mpp_model::Time;

/// Default active-window width (ns of virtual time) when the caller has
/// no machine parameters at hand; `for_run` picks a width near the
/// machine's α instead.
#[cfg(test)]
const DEFAULT_WIDTH: Time = 64 * 1024;

/// Calendar queue of ready ranks keyed by `(effective time, rank)`,
/// with generation-stamped lazy invalidation.
pub(crate) struct ReadyQueue {
    /// Entries with `eff <= win_last`, sorted descending by
    /// `(eff, rank, gen)` — pop is `near.pop()`.
    near: Vec<(Time, usize, u64)>,
    /// Entries with `eff > win_last`, unsorted.
    far: Vec<(Time, usize, u64)>,
    /// Inclusive upper bound of the active window. Inclusive, so the
    /// window ending at `Time::MAX` (a deadline at the end of time) needs
    /// no bound past it.
    win_last: Time,
    /// Window width (power of two, virtual ns).
    width: Time,
    gen: Vec<u64>,
    /// Stored entries (live + stale) across both arrays.
    entries: usize,
    /// Stale-compaction trigger and the sizing bound asserted on in
    /// debug builds: ranks + retry budget + slack (see `for_run`).
    cap_bound: usize,
}

impl ReadyQueue {
    /// Queue for `p` ranks with default sizing (tests, ad-hoc use).
    #[cfg(test)]
    pub fn new(p: usize) -> Self {
        ReadyQueue::for_run(p, 0, DEFAULT_WIDTH)
    }

    /// Queue sized for a run: `p` ranks, a per-message retry budget
    /// from the fault plan (each in-flight retry can re-wake a blocked
    /// rank and strand one stale entry), and a window width hint —
    /// ideally the machine's α, the natural spacing between a rank's
    /// consecutive events.
    pub fn for_run(p: usize, retry_budget: usize, width_hint: Time) -> Self {
        let width = width_hint.max(1024).next_power_of_two();
        let cap_bound = (p * 2 + p * retry_budget / 4 + 64).next_power_of_two();
        ReadyQueue {
            near: Vec::with_capacity(cap_bound.min(p * 2 + 8)),
            far: Vec::with_capacity(p.min(64)),
            win_last: width - 1,
            width,
            gen: vec![0; p],
            entries: 0,
            cap_bound,
        }
    }

    /// Make `rank` ready at effective time `eff`, replacing any previous
    /// entry it may have had.
    pub fn push(&mut self, rank: usize, eff: Time) {
        self.gen[rank] += 1;
        let entry = (eff, rank, self.gen[rank]);
        if eff <= self.win_last {
            // Descending order: find insertion point from the back.
            let at = self.near.partition_point(|&e| e > entry);
            self.near.insert(at, entry);
        } else {
            self.far.push(entry);
        }
        self.entries += 1;
        if self.entries > self.cap_bound {
            self.compact();
            debug_assert!(
                self.entries <= self.cap_bound,
                "ready-queue grew past its sizing bound even after dropping \
                 stale entries: {} live entries for {} ranks (bound {})",
                self.entries,
                self.gen.len(),
                self.cap_bound
            );
        }
    }

    /// Pop the ready rank with the smallest `(eff, rank)`. The entry is
    /// consumed: the rank must be `push`ed again to become ready.
    pub fn pop(&mut self) -> Option<(Time, usize)> {
        loop {
            while let Some((eff, rank, gen)) = self.near.pop() {
                self.entries -= 1;
                if gen == self.gen[rank] {
                    self.gen[rank] += 1; // consume — no live entry remains
                    return Some((eff, rank));
                }
            }
            if self.far.is_empty() {
                return None;
            }
            self.advance_window();
        }
    }

    /// Jump the window to the earliest overflow entry and sweep
    /// everything inside the new window into the active array.
    fn advance_window(&mut self) {
        debug_assert!(self.near.is_empty() && !self.far.is_empty());
        let min = self
            .far
            .iter()
            .map(|&(t, _, _)| t)
            .min()
            .expect("far is non-empty");
        // Align the window so repeated advances hit stable boundaries.
        self.win_last = min | (self.width - 1);
        let mut i = 0;
        while i < self.far.len() {
            if self.far[i].0 <= self.win_last {
                self.near.push(self.far.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // Descending, so `pop()` yields ascending `(eff, rank, gen)`.
        self.near.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Drop stale (superseded-generation) entries in place.
    fn compact(&mut self) {
        let gen = &self.gen;
        self.near.retain(|&(_, rank, g)| g == gen[rank]);
        self.far.retain(|&(_, rank, g)| g == gen[rank]);
        self.entries = self.near.len() + self.far.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_eff_then_rank_order() {
        let mut q = ReadyQueue::new(4);
        q.push(2, 50);
        q.push(0, 10);
        q.push(3, 10);
        q.push(1, 30);
        assert_eq!(q.pop(), Some((10, 0)));
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), Some((30, 1)));
        assert_eq!(q.pop(), Some((50, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn repush_invalidates_previous_entry() {
        let mut q = ReadyQueue::new(2);
        q.push(0, 100);
        q.push(1, 50);
        // Rank 0's match improved: its entry moves earlier.
        q.push(0, 20);
        assert_eq!(q.pop(), Some((20, 0)));
        assert_eq!(q.pop(), Some((50, 1)));
        // The stale (100, 0) entry must have been discarded.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_consumes_the_entry() {
        let mut q = ReadyQueue::new(1);
        q.push(0, 5);
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), None);
        q.push(0, 7);
        assert_eq!(q.pop(), Some((7, 0)));
    }

    #[test]
    fn window_advance_spans_sparse_times() {
        // Times far apart force repeated window jumps, including over
        // wholly empty calendar space.
        let mut q = ReadyQueue::for_run(4, 0, 1024);
        q.push(0, 0);
        q.push(1, 10_000_000);
        q.push(2, 3);
        q.push(3, 999_999_999_999);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((3, 2)));
        assert_eq!(q.pop(), Some((10_000_000, 1)));
        assert_eq!(q.pop(), Some((999_999_999_999, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn below_window_push_still_pops_first() {
        // A push earlier than everything already queued (even after
        // pops) must still win: the queue may not assume monotone time.
        let mut q = ReadyQueue::for_run(3, 0, 1024);
        q.push(0, 500_000);
        assert_eq!(q.pop(), Some((500_000, 0)));
        q.push(1, 600_000);
        q.push(2, 7); // far below the advanced window
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((600_000, 1)));
    }

    #[test]
    fn an_entry_at_the_window_end_waits_for_its_window() {
        // (2048, 0) waits in the overflow bucket while the window is
        // [1024, 2048); a later push of (2048, 2) must wait with it, or
        // it pops ahead of the lower rank.
        let mut q = ReadyQueue::for_run(3, 0, 1024);
        q.push(0, 2048);
        q.push(1, 1500);
        assert_eq!(q.pop(), Some((1500, 1)));
        q.push(2, 2048);
        assert_eq!(q.pop(), Some((2048, 0)));
        assert_eq!(q.pop(), Some((2048, 2)));
    }

    #[test]
    fn stale_compaction_keeps_live_entries() {
        // Hammer one rank with improving re-pushes until well past the
        // sizing bound: compaction must fire (debug assertion inside
        // `push` would trip otherwise) and the final state must be
        // exactly the live entries.
        let mut q = ReadyQueue::for_run(2, 0, 1024);
        q.push(1, 1_000_000);
        for i in 0..10_000u64 {
            q.push(0, 2_000_000 - i);
        }
        assert_eq!(q.pop(), Some((1_000_000, 1)));
        assert_eq!(q.pop(), Some((2_000_000 - 9_999, 0)));
        assert_eq!(q.pop(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The calendar queue against the linear-scan model — one
        /// `Option<Time>` per rank, the last push wins, a pop takes the
        /// minimum `(eff, rank)` — on *arbitrary* interleavings:
        /// same-tick ties, re-pushes in both directions (lazy
        /// invalidation), pushes below the advanced window, both window
        /// widths, and a final drain. Pop sequences must be identical
        /// element for element.
        #[test]
        fn matches_linear_scan_model(
            width in proptest::prop_oneof![
                proptest::strategy::Just(1024u64),
                proptest::strategy::Just(1u64 << 20),
            ],
            ops in proptest::collection::vec(
                (0u8..2, 0usize..6, 0u64..5000), 1..200)
        ) {
            let p = 6;
            let mut cal = ReadyQueue::for_run(p, 2, width);
            let mut model: Vec<Option<Time>> = vec![None; p];
            let pop_model = |model: &mut [Option<Time>]| {
                let best = model
                    .iter()
                    .enumerate()
                    .filter_map(|(rank, eff)| eff.map(|e| (e, rank)))
                    .min();
                if let Some((_, rank)) = best {
                    model[rank] = None;
                }
                best
            };
            for (is_pop, rank, time) in ops {
                if is_pop == 1 {
                    proptest::prop_assert_eq!(cal.pop(), pop_model(&mut model));
                } else {
                    // Cluster times to force same-tick collisions, on
                    // window boundaries too (multiples of 1024).
                    let t = time / 64 * 64;
                    cal.push(rank, t);
                    model[rank] = Some(t);
                }
            }
            // Drain both to the end.
            loop {
                let (a, b) = (cal.pop(), pop_model(&mut model));
                proptest::prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
