//! The `Br_Lin` recursive pairing pattern, as pure data.
//!
//! `Br_Lin` views the processors as a linear array: in the first iteration
//! position `i` pairs with `i + ⌈n/2⌉`; the algorithm then recurses on the
//! two halves, for `⌈log₂ n⌉` iterations total. Whenever a pair meets:
//!
//! * both hold messages → they exchange and combine,
//! * one holds messages → a one-way send,
//! * neither holds anything → no communication at all.
//!
//! Because every processor knows the source positions, the entire
//! schedule is a *pure function* of the initial has-flags. Computing it
//! up front (this module) lets the runtime algorithm, the analytic
//! metrics, and the tests all share one definition.
//!
//! # Odd segments
//!
//! The paper describes the pattern for `p = 2^k`. For an odd-length
//! segment `[lo, hi)` we split at `mid = lo + ⌈len/2⌉` and pair
//! `A[i] ↔ B[i]`; the unpaired last element of the first half
//! additionally pairs with the last element of the second half, which is
//! the minimal extra exchange that keeps both halves' unions complete
//! (otherwise the second half could permanently miss the unpaired
//! element's messages). This costs one extra send/receive at a few
//! positions only in non-power-of-two machines — consistent with the
//! paper's observation that odd dimensions *change* which distributions
//! are good.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One communication a position performs in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerOp {
    /// Position (index into the linear order) of the partner.
    pub peer: usize,
    /// Whether this position sends its current set to the partner.
    pub send: bool,
    /// Whether this position receives the partner's set.
    pub recv: bool,
}

/// The full `Br_Lin` schedule for an initial has-flag vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrLinSchedule {
    /// `ops[level][pos]` — the operations of `pos` in iteration `level`.
    pub ops: Vec<Vec<Vec<PeerOp>>>,
    /// `holds[level][pos]` — whether `pos` holds any messages *before*
    /// iteration `level`; `holds[levels]` is the final state.
    pub holds: Vec<Vec<bool>>,
}

impl BrLinSchedule {
    /// Number of iterations (`⌈log₂ n⌉`).
    pub fn levels(&self) -> usize {
        self.ops.len()
    }
}

/// Compute the `Br_Lin` schedule for `has` initial message flags.
///
/// Positions correspond to indices of the caller's linear processor
/// order. If no position holds a message the schedule has the right
/// number of levels but no operations.
///
/// ```
/// use stp_core::pattern::br_lin_schedule;
/// // One source at position 0 of 8: ceil(log2 8) = 3 iterations,
/// // holders double every level.
/// let mut has = vec![false; 8];
/// has[0] = true;
/// let sched = br_lin_schedule(&has);
/// assert_eq!(sched.levels(), 3);
/// let holders: Vec<usize> = sched.holds.iter()
///     .map(|h| h.iter().filter(|&&b| b).count()).collect();
/// assert_eq!(holders, vec![1, 2, 4, 8]);
/// ```
pub fn br_lin_schedule(has: &[bool]) -> BrLinSchedule {
    let n = has.len();
    let mut holds = vec![has.to_vec()];
    let mut ops = Vec::new();
    if n == 0 {
        return BrLinSchedule { ops, holds };
    }

    let mut segments: Vec<(usize, usize)> = vec![(0, n)];
    let mut cur = has.to_vec();
    while segments.iter().any(|&(lo, hi)| hi - lo > 1) {
        let mut level_ops: Vec<Vec<PeerOp>> = vec![Vec::new(); n];
        let mut next_has = cur.clone();
        let mut next_segments = Vec::with_capacity(segments.len() * 2);

        for &(lo, hi) in &segments {
            let len = hi - lo;
            if len <= 1 {
                next_segments.push((lo, hi));
                continue;
            }
            let mid = lo + len.div_ceil(2);
            let b_len = hi - mid;
            let pair =
                |x: usize, y: usize, level_ops: &mut Vec<Vec<PeerOp>>, next_has: &mut Vec<bool>| {
                    match (cur[x], cur[y]) {
                        (true, true) => {
                            level_ops[x].push(PeerOp {
                                peer: y,
                                send: true,
                                recv: true,
                            });
                            level_ops[y].push(PeerOp {
                                peer: x,
                                send: true,
                                recv: true,
                            });
                        }
                        (true, false) => {
                            level_ops[x].push(PeerOp {
                                peer: y,
                                send: true,
                                recv: false,
                            });
                            level_ops[y].push(PeerOp {
                                peer: x,
                                send: false,
                                recv: true,
                            });
                            next_has[y] = true;
                        }
                        (false, true) => {
                            level_ops[x].push(PeerOp {
                                peer: y,
                                send: false,
                                recv: true,
                            });
                            level_ops[y].push(PeerOp {
                                peer: x,
                                send: true,
                                recv: false,
                            });
                            next_has[x] = true;
                        }
                        (false, false) => {}
                    }
                };
            for i in 0..b_len {
                pair(lo + i, mid + i, &mut level_ops, &mut next_has);
            }
            if len % 2 == 1 {
                // Unpaired last element of the first half also pairs with
                // the last element of the second half (see module docs).
                pair(mid - 1, hi - 1, &mut level_ops, &mut next_has);
            }
            next_segments.push((lo, mid));
            next_segments.push((mid, hi));
        }

        ops.push(level_ops);
        cur = next_has;
        holds.push(cur.clone());
        segments = next_segments;
    }

    BrLinSchedule { ops, holds }
}

/// A bounded process-wide memo of a pure function: what every rank of
/// a run (and every run of a sweep) would otherwise recompute from the
/// source map it shares with all the others.
///
/// Entries are immutable once inserted and identical regardless of who
/// computes them, so the table is safe to share across sweep workers
/// and rank threads and cannot perturb simulated time or determinism.
pub(crate) struct Memo<K, V> {
    table: OnceLock<Mutex<HashMap<K, Arc<V>>>>,
}

impl<K: std::hash::Hash + Eq, V> Memo<K, V> {
    /// Bound on cached distinct keys (a sweep touches a few dozen;
    /// clearing on overflow keeps pathological grids bounded).
    const MAX: usize = 256;

    pub(crate) const fn new() -> Self {
        Memo {
            table: OnceLock::new(),
        }
    }

    pub(crate) fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let mut table = self
            .table
            .get_or_init(Default::default)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(value) = table.get(&key) {
            return Arc::clone(value);
        }
        // Compute under the lock: sweep workers asking for the same key
        // at once wait for one computation instead of repeating it.
        let value = Arc::new(compute());
        if table.len() >= Self::MAX {
            table.clear();
        }
        table.insert(key, Arc::clone(&value));
        value
    }
}

/// [`br_lin_schedule`] behind the process-wide memo, shared by all
/// ranks of a run.
///
/// The schedule is a pure function of `has`, and the paper's model says
/// every processor knows the source positions up front — so all `p`
/// ranks of one experiment compute byte-identical schedules. Computing
/// it once and handing out `Arc`s turns an O(p · n log n) per-run cost
/// (with ~n·log n small allocations *per rank*) into a single lookup.
/// Hot-path profile: on a 256-rank run this was the single largest
/// host-side cost of `Br_Lin`.
///
/// The table is keyed by the packed has-bits (plus length).
pub fn br_lin_schedule_shared(has: &[bool]) -> Arc<BrLinSchedule> {
    static SCHEDULES: Memo<Box<[u8]>, BrLinSchedule> = Memo::new();

    let mut key = vec![0u8; 8 + has.len().div_ceil(8)];
    key[..8].copy_from_slice(&(has.len() as u64).to_le_bytes());
    for (i, &h) in has.iter().enumerate() {
        if h {
            key[8 + i / 8] |= 1 << (i % 8);
        }
    }
    SCHEDULES.get_or_compute(key.into_boxed_slice(), || br_lin_schedule(has))
}

/// Simulate which *source positions'* messages each position holds after
/// the whole schedule — used by tests to prove full coverage.
pub fn simulate_coverage(has: &[bool]) -> Vec<std::collections::BTreeSet<usize>> {
    use std::collections::BTreeSet;
    let n = has.len();
    let mut sets: Vec<BTreeSet<usize>> = (0..n)
        .map(|i| {
            if has[i] {
                BTreeSet::from([i])
            } else {
                BTreeSet::new()
            }
        })
        .collect();
    let sched = br_lin_schedule(has);
    for level in &sched.ops {
        // Simultaneous semantics: sends use the pre-level snapshot.
        let snapshot = sets.clone();
        for (pos, ops) in level.iter().enumerate() {
            for op in ops {
                if op.recv {
                    let incoming = snapshot[op.peer].clone();
                    sets[pos].extend(incoming);
                }
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn full_set(has: &[bool]) -> BTreeSet<usize> {
        has.iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(i, _)| i)
            .collect()
    }

    fn assert_full_coverage(has: &[bool]) {
        let want = full_set(has);
        if want.is_empty() {
            return;
        }
        for (pos, got) in simulate_coverage(has).iter().enumerate() {
            assert_eq!(
                got, &want,
                "position {pos} missing messages for has={has:?}"
            );
        }
    }

    #[test]
    fn power_of_two_single_source() {
        for n in [2usize, 4, 8, 16, 32] {
            for src in 0..n {
                let mut has = vec![false; n];
                has[src] = true;
                assert_full_coverage(&has);
            }
        }
    }

    #[test]
    fn odd_sizes_single_source() {
        for n in [3usize, 5, 7, 9, 10, 11, 13, 100, 120] {
            for src in [0, n / 2, n - 1] {
                let mut has = vec![false; n];
                has[src] = true;
                assert_full_coverage(&has);
            }
        }
    }

    #[test]
    fn exhaustive_small_sizes_all_subsets() {
        for n in 1..=9usize {
            for mask in 1u32..(1 << n) {
                let has: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                assert_full_coverage(&has);
            }
        }
    }

    #[test]
    fn level_count_is_ceil_log2() {
        for (n, want) in [
            (1usize, 0usize),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (100, 7),
            (256, 8),
        ] {
            let has = vec![true; n];
            assert_eq!(br_lin_schedule(&has).levels(), want, "n={n}");
        }
    }

    #[test]
    fn all_sources_always_exchange_pairwise() {
        // With every position a source, each level is pure pairwise
        // exchange; in even-power sizes everyone does exactly one
        // exchange per level.
        let has = vec![true; 16];
        let sched = br_lin_schedule(&has);
        for level in &sched.ops {
            for ops in level {
                assert_eq!(ops.len(), 1);
                assert!(ops[0].send && ops[0].recv);
            }
        }
    }

    #[test]
    fn empty_partner_means_one_way() {
        // sources = {0}: level 0 must be a single one-way send 0 -> mid.
        let mut has = vec![false; 8];
        has[0] = true;
        let sched = br_lin_schedule(&has);
        let l0: Vec<(usize, &Vec<PeerOp>)> = sched.ops[0]
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .collect();
        assert_eq!(l0.len(), 2);
        assert_eq!(l0[0].0, 0);
        assert_eq!(l0[1].0, 4);
        assert!(l0[0].1[0].send && !l0[0].1[0].recv);
        assert!(!l0[1].1[0].send && l0[1].1[0].recv);
    }

    #[test]
    fn holdings_grow_monotonically() {
        let mut has = vec![false; 12];
        has[3] = true;
        has[9] = true;
        let sched = br_lin_schedule(&has);
        for w in sched.holds.windows(2) {
            for (before, after) in w[0].iter().zip(&w[1]) {
                assert!(!before || *after, "a holder lost its messages");
            }
        }
        assert!(sched.holds.last().unwrap().iter().all(|&h| h));
    }

    #[test]
    fn no_sources_no_ops() {
        let sched = br_lin_schedule(&[false; 8]);
        for level in &sched.ops {
            assert!(level.iter().all(|v| v.is_empty()));
        }
    }

    #[test]
    fn paper_column_distribution_stalls_on_regular_sizes() {
        // The paper: when sources are the first and the sixth row of a
        // 10-high column (positions 0 and 5), the first iteration pairs
        // them with each other and introduces no new holder.
        let mut has = vec![false; 10];
        has[0] = true;
        has[5] = true;
        let sched = br_lin_schedule(&has);
        let new_after_l0 = sched.holds[1].iter().filter(|&&h| h).count();
        assert_eq!(new_after_l0, 2, "0 and 5 pair with each other: no growth");

        // Positions 0 and 6 instead: both spread in iteration one.
        let mut has2 = vec![false; 10];
        has2[0] = true;
        has2[6] = true;
        let sched2 = br_lin_schedule(&has2);
        let new_after_l0_2 = sched2.holds[1].iter().filter(|&&h| h).count();
        assert_eq!(new_after_l0_2, 4, "0 and 6 both activate a partner");
    }

    #[test]
    fn holdings_grow_to_every_position() {
        let mut has = vec![false; 8];
        has[0] = true;
        let holds = br_lin_schedule(&has).holds;
        let count = |row: &Vec<bool>| row.iter().filter(|&&h| h).count();
        // The initial row and one per iteration, from one holder to all.
        assert_eq!(holds.len(), 4);
        assert_eq!(holds[0], has);
        assert_eq!(count(&holds[3]), 8);
        for w in holds.windows(2) {
            assert!(count(&w[1]) >= count(&w[0]), "monotone growth");
        }
    }

    #[test]
    fn congestion_at_most_two_ops_per_level() {
        // The odd-segment extra pair adds at most one extra op.
        for n in [5usize, 9, 10, 11, 15, 100, 120] {
            let has = vec![true; n];
            let sched = br_lin_schedule(&has);
            for level in &sched.ops {
                for ops in level {
                    assert!(ops.len() <= 2, "n={n}: {} ops in one level", ops.len());
                }
            }
        }
    }
}
