//! Golden pins for [`stp_core::select::recommend`] — the function every
//! serve-daemon `"algo":"auto"` request routes through, so a silent
//! change here silently changes (and mis-caches) production plans. The
//! table walks Paragon and T3D across ports {1, 5}, source-count bands
//! (sparse / exactly-half / dense) and message-length bands (below,
//! inside, and above the paper's 1 KiB–16 KiB repositioning window).
//!
//! These values are the paper's §5.2/§5.3 conclusions; changing any of
//! them is a behaviour change that must be made deliberately, with this
//! table updated in the same commit.

use mpp_model::Machine;
use stp_core::runner::AlgoKind;
use stp_core::select::{cost_regime, recommend, CostRegime};

fn paragon(rows: usize, cols: usize, ports: usize) -> Machine {
    let mut m = Machine::paragon(rows, cols);
    if ports > 1 {
        m.params = m.params.clone().with_ports(ports);
    }
    m
}

#[test]
fn regimes_are_pinned() {
    assert_eq!(
        cost_regime(&Machine::paragon(10, 10)),
        CostRegime::NetworkBound
    );
    // Port count never changes the regime — it is a β/γ comparison.
    assert_eq!(cost_regime(&paragon(10, 10, 5)), CostRegime::NetworkBound);
    assert_eq!(
        cost_regime(&Machine::t3d(128, 0)),
        CostRegime::SoftwareBound
    );
}

#[test]
fn paragon_single_port_golden_grid() {
    use AlgoKind::{BrXySource, ReposXySource};
    // (rows, cols, s, L) -> expected. p = 100, so s bands are
    // 30 (sparse, < p/2), 50 (exactly half — NOT < p/2), 90 (dense).
    let grid = [
        // L inside the repositioning window [1024, 16384]:
        (10, 10, 30, 1024, ReposXySource),
        (10, 10, 30, 4096, ReposXySource),
        (10, 10, 30, 16384, ReposXySource),
        (10, 10, 49, 16384, ReposXySource),
        // s = p/2 exactly: the paper's condition is strict.
        (10, 10, 50, 4096, BrXySource),
        (10, 10, 90, 4096, BrXySource),
        // L outside the window:
        (10, 10, 30, 512, BrXySource),
        (10, 10, 30, 1023, BrXySource),
        (10, 10, 30, 16385, BrXySource),
        (10, 10, 30, 65536, BrXySource),
        // Machine too small (p = 16 is not > 16) — never reposition:
        (4, 4, 3, 4096, BrXySource),
        (4, 4, 7, 4096, BrXySource),
        // Just over the size threshold (p = 20 > 16):
        (4, 5, 8, 4096, ReposXySource),
    ];
    for (rows, cols, s, len, expected) in grid {
        assert_eq!(
            recommend(&paragon(rows, cols, 1), s, len),
            expected,
            "paragon {rows}x{cols} ports=1 s={s} L={len}"
        );
    }
}

#[test]
fn paragon_five_port_golden_grid() {
    // With k >= 2 ports, lane striping beats every single-port merge
    // schedule on a network-bound machine: KPort_Lin regardless of the
    // repositioning conditions.
    for (rows, cols) in [(10, 10), (4, 4), (16, 16)] {
        for s in [3, 30, 50, 90_usize] {
            for len in [128, 4096, 65536] {
                let m = paragon(rows, cols, 5);
                if s > m.p() {
                    continue;
                }
                assert_eq!(
                    recommend(&m, s, len),
                    AlgoKind::KPortLin,
                    "paragon {rows}x{cols} ports=5 s={s} L={len}"
                );
            }
        }
    }
}

#[test]
fn t3d_golden_grid() {
    // Software-bound: the wait-free direct exchange wins everywhere —
    // sources, length, and the T3D's six ports are all irrelevant.
    for p in [64, 128, 256] {
        for s in [2, 16, 64_usize] {
            for len in [128, 4096, 65536] {
                if s > p {
                    continue;
                }
                assert_eq!(
                    recommend(&Machine::t3d(p, 0), s, len),
                    AlgoKind::MpiAlltoall,
                    "t3d p={p} s={s} L={len}"
                );
            }
        }
    }
}

#[test]
fn recommendation_is_placement_independent_on_t3d() {
    // The placement seed rotates the partition but keeps the cost
    // params, so the recommendation must not depend on it.
    for seed in [0, 7, 99] {
        assert_eq!(
            recommend(&Machine::t3d(128, seed), 40, 4096),
            AlgoKind::MpiAlltoall,
            "t3d seed={seed}"
        );
    }
}
