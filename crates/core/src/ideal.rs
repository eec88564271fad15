//! Ideal source distributions (paper §3, §5.2).
//!
//! A repositioning algorithm needs, for its base algorithm and the given
//! machine, a *target* distribution on which that algorithm is fastest:
//!
//! * for `Br_Lin` the paper identifies the **left diagonal** `Dl(s)` as
//!   an ideal distribution ("least sensitive towards the size of the
//!   machine");
//! * for `Br_xy_source` it uses a **row distribution whose rows are
//!   positioned so that the number of new sources increases as fast as
//!   possible** — and notes the positions depend on the number of rows
//!   (e.g. rows {0,5} on a 10-row mesh pair with each other in the first
//!   `Br_Lin` iteration and stall, while rows {0,6} double).
//!
//! Rather than hard-coding positions per machine size, this module
//! implements the paper's stated objective directly: a greedy placement
//! that maximizes the growth of active processors under the actual
//! `Br_Lin` pairing schedule.

use mpp_model::MeshShape;

use crate::pattern::{br_lin_schedule, Memo};

/// Growth score of an active-set on a line of `n` positions: the sum of
/// active-holder counts after every `Br_Lin` level (higher = faster
/// spread).
fn growth_score(n: usize, active: &[bool]) -> u64 {
    debug_assert_eq!(active.len(), n);
    let sched = br_lin_schedule(active);
    sched
        .holds
        .iter()
        .skip(1)
        .map(|h| h.iter().filter(|&&b| b).count() as u64)
        .sum()
}

/// Choose `k` positions on a line of `n` so that `Br_Lin` activates new
/// positions as fast as possible. Greedy by marginal growth score, ties
/// broken towards the smallest index; result is sorted.
///
/// The search costs O(k·n) `Br_Lin` schedules and depends on `(n, k)`
/// alone, while the repositioning algorithms ask for it on every rank
/// of every run — so it sits behind the same process-wide memo as
/// the `Br_Lin` schedules themselves.
pub fn ideal_line_positions(n: usize, k: usize) -> Vec<usize> {
    static POSITIONS: Memo<(usize, usize), Vec<usize>> = Memo::new();
    assert!(k <= n, "cannot place {k} actives on {n} positions");
    POSITIONS
        .get_or_compute((n, k), || greedy_line_positions(n, k))
        .to_vec()
}

fn greedy_line_positions(n: usize, k: usize) -> Vec<usize> {
    let mut active = vec![false; n];
    for _ in 0..k {
        let mut best: Option<(u64, usize)> = None;
        for pos in 0..n {
            if active[pos] {
                continue;
            }
            active[pos] = true;
            let score = growth_score(n, &active);
            active[pos] = false;
            if best.is_none_or(|(bs, bp)| score > bs || (score == bs && pos < bp)) {
                best = Some((score, pos));
            }
        }
        active[best.expect("k <= n guarantees a free position").1] = true;
    }
    (0..n).filter(|&i| active[i]).collect()
}

/// Ideal target distribution for `Br_xy_source` / `Br_xy_dim` on `shape`:
/// `⌈s/c⌉` ideally-positioned rows, all full except the last, whose
/// sources sit at ideally-spaced columns. Returns sorted row-major
/// positions.
pub fn ideal_rows(shape: MeshShape, s: usize) -> Vec<usize> {
    let (r, c) = (shape.rows, shape.cols);
    assert!(s >= 1 && s <= shape.p());
    let k = s.div_ceil(c);
    let rows = ideal_line_positions(r, k);
    let mut out = Vec::with_capacity(s);
    let full_rows = s / c; // rows that are completely filled
    let remainder = s % c;
    for (idx, &row) in rows.iter().enumerate() {
        if idx < full_rows {
            for col in 0..c {
                out.push(shape.rank(row, col));
            }
        } else if remainder > 0 {
            // Partial row: spread its sources ideally within the row.
            for col in ideal_line_positions(c, remainder) {
                out.push(shape.rank(row, col));
            }
        }
    }
    out.sort_unstable();
    debug_assert_eq!(out.len(), s);
    out
}

/// Ideal target distribution for `Br_Lin` on `shape`: the left diagonal
/// distribution `Dl(s)`.
pub fn ideal_left_diagonal(shape: MeshShape, s: usize) -> Vec<usize> {
    crate::distribution::SourceDist::DiagLeft.place(shape, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_two_rows_on_ten() {
        // 10 rows, 2 active: {0,5} stalls in iteration one, the ideal
        // placement must avoid that pairing (paper's {0,6} example).
        let pos = ideal_line_positions(10, 2);
        assert_eq!(pos.len(), 2);
        let mut has = vec![false; 10];
        for &p in &pos {
            has[p] = true;
        }
        let sched = br_lin_schedule(&has);
        let after_l0 = sched.holds[1].iter().filter(|&&b| b).count();
        assert_eq!(
            after_l0, 4,
            "ideal 2-of-10 placement must double in iteration one, got {pos:?}"
        );
    }

    #[test]
    fn ideal_positions_double_when_possible() {
        // With k actives on n = 2^m positions and k a power of two ≤ n,
        // the ideal placement should double actives every level until
        // saturation.
        let pos = ideal_line_positions(16, 2);
        let mut has = vec![false; 16];
        for &p in &pos {
            has[p] = true;
        }
        let sched = br_lin_schedule(&has);
        let counts: Vec<usize> = sched
            .holds
            .iter()
            .map(|h| h.iter().filter(|&&b| b).count())
            .collect();
        assert_eq!(counts, vec![2, 4, 8, 16, 16]);
    }

    #[test]
    fn k_equals_n_is_everything() {
        assert_eq!(ideal_line_positions(6, 6), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(ideal_line_positions(1, 1), vec![0]);
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(ideal_line_positions(8, 0).is_empty());
    }

    #[test]
    fn ideal_rows_counts_and_structure() {
        let shape = MeshShape::new(10, 10);
        let target = ideal_rows(shape, 30);
        assert_eq!(target.len(), 30);
        let rows = crate::distribution::row_counts(shape, &target);
        let full = rows.iter().filter(|&&n| n == 10).count();
        assert_eq!(
            full, 3,
            "30 sources on 10 cols = 3 full rows, rows={rows:?}"
        );
    }

    #[test]
    fn ideal_rows_partial_row() {
        let shape = MeshShape::new(8, 8);
        let target = ideal_rows(shape, 20);
        assert_eq!(target.len(), 20);
        let rows = crate::distribution::row_counts(shape, &target);
        assert_eq!(rows.iter().filter(|&&n| n == 8).count(), 2);
        assert_eq!(rows.iter().filter(|&&n| n == 4).count(), 1);
    }

    #[test]
    fn ideal_left_diagonal_matches_dl() {
        let shape = MeshShape::new(10, 10);
        assert_eq!(
            ideal_left_diagonal(shape, 10),
            crate::distribution::SourceDist::DiagLeft.place(shape, 10)
        );
    }

    #[test]
    fn memoised_positions_equal_the_search_from_two_threads_at_once() {
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    // Both threads ask for the same key at the same time,
                    // hit or miss alike.
                    barrier.wait();
                    for n in 0..=16usize {
                        for k in 0..=n {
                            assert_eq!(
                                ideal_line_positions(n, k),
                                greedy_line_positions(n, k),
                                "n={n} k={k}"
                            );
                        }
                    }
                });
            }
        });
    }
}
