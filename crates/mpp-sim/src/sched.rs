//! Indexed ready-queue for the executor.
//!
//! The executor needs the ready rank with the smallest `(effective
//! time, rank)` after every processed event. A binary heap keyed
//! `(eff, rank)` answers that in O(log p), plus a one-entry *front
//! slot*: an entry pushed below everything in the heap waits there
//! instead, and `pop` takes it without touching the heap. The executor
//! pushes that way all the time — a rank that has just popped usually
//! re-enters at the same effective time (an iteration mark and the send
//! behind it share one key), below every other waiting rank — so the
//! common push and pop are O(1).
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
//! push below everything queued takes the front slot (moving a previous
//! front into the heap), a later-time re-push wins like any other, and
//! a stale front is dropped at pop like a stale heap entry, so the
//! structure agrees with the linear-scan model on arbitrary input
//! sequences.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use mpp_model::Time;

/// A queued rank, ordered by `(eff, rank)` as one `u128`, which
/// compares in two instructions where a tuple branches field by field.
/// The generation rides along unordered: two entries of one rank at one
/// time are interchangeable, since at most one of them is live.
#[derive(Clone, Copy)]
struct Entry {
    eff: Time,
    rank: usize,
    gen: u64,
}

impl Entry {
    #[inline]
    fn key(&self) -> u128 {
        (self.eff as u128) << 64 | self.rank as u128
    }
}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

/// Min-heap of ready ranks keyed by `(effective time, rank)`, with a
/// front slot and generation-stamped lazy invalidation.
pub(crate) struct ReadyQueue {
    /// An entry pushed below every entry of `heap`. No heap entry orders
    /// below it; one of the same key is the same rank's, and one of the
    /// two is stale.
    front: Option<Entry>,
    heap: BinaryHeap<Reverse<Entry>>,
    gen: Vec<u64>,
    /// Stale-compaction trigger and the sizing bound asserted on in
    /// debug builds: ranks + retry budget + slack (see `for_run`).
    cap_bound: usize,
}

impl ReadyQueue {
    /// Queue for `p` ranks with default sizing (tests, ad-hoc use).
    #[cfg(test)]
    pub fn new(p: usize) -> Self {
        ReadyQueue::for_run(p, 0)
    }

    /// Queue sized for a run: `p` ranks and a per-message retry budget
    /// from the fault plan (each in-flight retry can re-wake a blocked
    /// rank and strand one stale entry).
    pub fn for_run(p: usize, retry_budget: usize) -> Self {
        let cap_bound = (p * 2 + p * retry_budget / 4 + 64).next_power_of_two();
        ReadyQueue {
            front: None,
            heap: BinaryHeap::with_capacity(cap_bound.min(p * 2 + 8)),
            gen: vec![0; p],
            cap_bound,
        }
    }

    /// Make `rank` ready at effective time `eff`, replacing any previous
    /// entry it may have had.
    pub fn push(&mut self, rank: usize, eff: Time) {
        self.gen[rank] += 1;
        let entry = Entry {
            eff,
            rank,
            gen: self.gen[rank],
        };
        // Keep `front` below the heap: a lower entry displaces it, and
        // an empty slot takes an entry below the heap's minimum.
        let to_heap = match self.front {
            Some(front) if entry < front => self.front.replace(entry),
            Some(_) => Some(entry),
            None if self.heap.peek().is_none_or(|&Reverse(min)| entry < min) => {
                self.front = Some(entry);
                None
            }
            None => Some(entry),
        };
        if let Some(entry) = to_heap {
            self.heap.push(Reverse(entry));
            if self.heap.len() > self.cap_bound {
                let gen = &self.gen;
                self.heap.retain(|Reverse(e)| e.gen == gen[e.rank]);
                debug_assert!(
                    self.heap.len() <= self.cap_bound,
                    "ready-queue grew past its sizing bound even after dropping \
                     stale entries: {} live entries for {} ranks (bound {})",
                    self.heap.len(),
                    self.gen.len(),
                    self.cap_bound
                );
            }
        }
    }

    /// Pop the ready rank with the smallest `(eff, rank)`. The entry is
    /// consumed: the rank must be `push`ed again to become ready.
    pub fn pop(&mut self) -> Option<(Time, usize)> {
        loop {
            let Entry { eff, rank, gen } = match self.front.take() {
                Some(front) => front,
                None => self.heap.pop()?.0,
            };
            if gen == self.gen[rank] {
                self.gen[rank] += 1; // consume — no live entry remains
                return Some((eff, rank));
            }
        }
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
        // Times twelve orders of magnitude apart, pushed out of order,
        // pop in time order: the first push takes the front slot and
        // the heap orders the rest behind it.
        let mut q = ReadyQueue::for_run(4, 0);
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
        // (2 takes the front slot from 1, which moves into the heap.)
        let mut q = ReadyQueue::for_run(3, 0);
        q.push(0, 500_000);
        assert_eq!(q.pop(), Some((500_000, 0)));
        q.push(1, 600_000);
        q.push(2, 7); // far below the advanced window
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((600_000, 1)));
    }

    #[test]
    fn an_entry_at_the_window_end_waits_for_its_window() {
        // A tie on time is broken by rank: (2048, 0) waits in the heap
        // behind the (1500, 1) front. A later push of (2048, 2) ties the
        // heap's minimum on time, so it must join the heap, not the
        // empty front slot, or it pops ahead of the lower rank.
        let mut q = ReadyQueue::for_run(3, 0);
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
        let mut q = ReadyQueue::for_run(2, 0);
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

        /// The queue against the linear-scan model — one `Option<Time>`
        /// per rank, the last push wins, a pop takes the minimum
        /// `(eff, rank)` — on *arbitrary* interleavings: same-tick ties,
        /// re-pushes in both directions (lazy invalidation), and a final
        /// drain, plus the front-slot sequences: a push below the
        /// current minimum (while the front slot is full, when the
        /// minimum sits there), a re-push of the minimum's rank lower and
        /// one higher (the latter leaves a stale front), and the pops
        /// that follow. Pop sequences must be identical element for
        /// element.
        #[test]
        fn matches_linear_scan_model(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..6, 0u64..5000), 1..200)
        ) {
            let p = 6;
            let mut queue = ReadyQueue::for_run(p, 2);
            let mut model: Vec<Option<Time>> = vec![None; p];
            let model_min = |model: &[Option<Time>]| {
                model
                    .iter()
                    .enumerate()
                    .filter_map(|(rank, eff)| eff.map(|e| (e, rank)))
                    .min()
            };
            for (kind, rank, time) in ops {
                // Cluster times to force same-tick collisions.
                let t = time / 64 * 64;
                let min = model_min(&model);
                let push = match (kind, min) {
                    (1 | 5, _) => {
                        if let Some((_, rank)) = min {
                            model[rank] = None;
                        }
                        proptest::prop_assert_eq!(queue.pop(), min);
                        None
                    }
                    (2, Some((e, _))) => Some((rank, e.saturating_sub(time % 128))),
                    (3, Some((e, r))) => Some((r, e.saturating_sub(time % 128))),
                    (4, Some((e, r))) => Some((r, e + 1 + t)),
                    _ => Some((rank, t)),
                };
                if let Some((rank, eff)) = push {
                    queue.push(rank, eff);
                    model[rank] = Some(eff);
                }
            }
            // Drain both to the end.
            loop {
                let min = model_min(&model);
                if let Some((_, rank)) = min {
                    model[rank] = None;
                }
                proptest::prop_assert_eq!(queue.pop(), min);
                if min.is_none() {
                    break;
                }
            }
        }
    }
}
