//! Regression tests pinning the paper's *qualitative* findings on the
//! simulator — who wins, where, and by roughly what kind of margin. If
//! a model change breaks one of these, the reproduction has drifted.

use stp_broadcast::prelude::*;
use stp_broadcast::stp::runner::try_run_sources_controlled;

fn ms(machine: &Machine, kind: AlgoKind, dist: SourceDist, s: usize, len: usize) -> f64 {
    let exp = Experiment {
        machine,
        dist,
        s,
        msg_len: len,
        kind,
    };
    let out = exp.run().expect("run failed");
    assert!(out.verified);
    out.makespan_ms()
}

/// §5.1 / Figure 3: on the Paragon the merge-based algorithms beat the
/// library-style solutions clearly at moderate-to-large s.
#[test]
fn paragon_merge_algorithms_beat_library_solutions() {
    let machine = Machine::paragon(10, 10);
    for s in [30usize, 60, 100] {
        let two_step = ms(&machine, AlgoKind::TwoStep, SourceDist::Equal, s, 4096);
        let pers = ms(&machine, AlgoKind::PersAlltoAll, SourceDist::Equal, s, 4096);
        let br_lin = ms(&machine, AlgoKind::BrLin, SourceDist::Equal, s, 4096);
        let br_xy = ms(&machine, AlgoKind::BrXySource, SourceDist::Equal, s, 4096);
        assert!(
            br_lin < two_step * 0.8,
            "s={s}: Br_Lin {br_lin} vs 2-Step {two_step}"
        );
        assert!(
            br_lin < pers * 0.8,
            "s={s}: Br_Lin {br_lin} vs PersAlltoAll {pers}"
        );
        assert!(
            br_xy < two_step * 0.8,
            "s={s}: Br_xy {br_xy} vs 2-Step {two_step}"
        );
    }
}

/// §5.1: the MPI builds lose 2–5% against NX on the Paragon.
#[test]
fn paragon_mpi_overhead_in_band() {
    let machine = Machine::paragon(10, 10);
    for kind in [AlgoKind::TwoStep, AlgoKind::BrLin, AlgoKind::BrXySource] {
        let sources = SourceDist::Equal.place(machine.shape, 30);
        let run = |lib| {
            let payload_of = |src| payload_for(src, 4096);
            try_run_sources_controlled(
                &machine,
                lib,
                &sources,
                &payload_of,
                kind,
                &RunControl::default(),
            )
            .expect("run failed")
            .makespan_ns as f64
        };
        let (nx, mpi) = (run(LibraryKind::Nx), run(LibraryKind::Mpi));
        let loss = (mpi - nx) / nx * 100.0;
        assert!(
            (1.0..6.0).contains(&loss),
            "{}: MPI loss {loss:.2}% out of band",
            kind.name()
        );
    }
}

/// Figure 5: PersAlltoAll is competitive on small machines (4–16
/// processors) and the worst at 256.
#[test]
fn pers_alltoall_small_machines_ok_large_machines_poor() {
    let small = Machine::paragon(2, 2);
    let pers_small = ms(
        &small,
        AlgoKind::PersAlltoAll,
        SourceDist::DiagRight,
        2,
        1024,
    );
    let two_small = ms(&small, AlgoKind::TwoStep, SourceDist::DiagRight, 2, 1024);
    assert!(pers_small <= two_small, "PersAlltoAll should win on a 2x2");

    let large = Machine::paragon(16, 16);
    let pers_large = ms(
        &large,
        AlgoKind::PersAlltoAll,
        SourceDist::DiagRight,
        16,
        1024,
    );
    let br_large = ms(&large, AlgoKind::BrLin, SourceDist::DiagRight, 16, 1024);
    assert!(
        pers_large > 3.0 * br_large,
        "PersAlltoAll must collapse at p=256"
    );
}

/// Figure 6: Br_xy_source treats row/column/equal/diagonal the same and
/// degrades on square block and cross; Br_xy_dim spikes on the row
/// distribution (wrong dimension first).
#[test]
fn distribution_effects_on_xy_algorithms() {
    let machine = Machine::paragon(10, 10);
    let base = ms(&machine, AlgoKind::BrXySource, SourceDist::Column, 30, 2048);
    for d in [SourceDist::Row, SourceDist::Equal, SourceDist::DiagRight] {
        let t = ms(&machine, AlgoKind::BrXySource, d.clone(), 30, 2048);
        assert!(
            (t - base).abs() / base < 0.05,
            "{}: Br_xy_source should be flat across easy distributions",
            d.name()
        );
    }
    let sq = ms(
        &machine,
        AlgoKind::BrXySource,
        SourceDist::SquareBlock,
        30,
        2048,
    );
    let cr = ms(&machine, AlgoKind::BrXySource, SourceDist::Cross, 30, 2048);
    assert!(sq > base * 1.05, "square block must degrade Br_xy_source");
    assert!(cr > base * 1.10, "cross must degrade Br_xy_source");

    let dim_row = ms(&machine, AlgoKind::BrXyDim, SourceDist::Row, 30, 2048);
    let dim_col = ms(&machine, AlgoKind::BrXyDim, SourceDist::Column, 30, 2048);
    assert!(
        dim_row > dim_col * 1.2,
        "Br_xy_dim must spike on the row distribution"
    );
}

/// Figure 7: with total message volume fixed, more sources is faster.
#[test]
fn fixed_total_more_sources_faster() {
    let machine = Machine::paragon(10, 10);
    let total = 80 * 1024;
    for kind in [AlgoKind::BrLin, AlgoKind::BrXySource] {
        let few = ms(&machine, kind, SourceDist::DiagRight, 5, total / 5);
        let many = ms(&machine, kind, SourceDist::DiagRight, 80, total / 80);
        assert!(
            many < few,
            "{}: s=80 ({many}) should beat s=5 ({few})",
            kind.name()
        );
    }
}

/// §5.2 / Figure 9: repositioning pays on the cross distribution at
/// moderate s, and never catastrophically loses on near-ideal inputs.
#[test]
fn repositioning_pays_on_cross() {
    let machine = Machine::paragon(16, 16);
    let plain = ms(
        &machine,
        AlgoKind::BrXySource,
        SourceDist::Cross,
        75,
        6 * 1024,
    );
    let repos = ms(
        &machine,
        AlgoKind::ReposXySource,
        SourceDist::Cross,
        75,
        6 * 1024,
    );
    assert!(
        repos < plain,
        "repositioning must win on cross at s=75 (got {repos} vs {plain})"
    );
}

/// §5.2: partitioning hardly ever beats repositioning alone — the final
/// exchange dominates.
#[test]
fn partitioning_never_pays_on_paragon() {
    let machine = Machine::paragon(16, 16);
    for s in [50usize, 100, 192] {
        let repos = ms(
            &machine,
            AlgoKind::ReposXySource,
            SourceDist::Cross,
            s,
            6 * 1024,
        );
        let part = ms(
            &machine,
            AlgoKind::PartXySource,
            SourceDist::Cross,
            s,
            6 * 1024,
        );
        assert!(
            part > repos,
            "s={s}: partitioning ({part}) must not beat repositioning ({repos})"
        );
    }
}

/// §5.3 / Figure 13: the ranking flips on the T3D — MPI_Alltoall beats
/// both MPI_AllGather and Br_Lin at moderate-to-large s.
#[test]
fn t3d_ranking_flips() {
    let machine = Machine::t3d(128, 42);
    for s in [20usize, 40, 96, 128] {
        let alltoall = ms(&machine, AlgoKind::MpiAlltoall, SourceDist::Equal, s, 4096);
        let allgather = ms(&machine, AlgoKind::MpiAllGather, SourceDist::Equal, s, 4096);
        let br_lin = ms(&machine, AlgoKind::BrLin, SourceDist::Equal, s, 4096);
        assert!(
            alltoall < allgather,
            "s={s}: Alltoall must beat AllGather on the T3D"
        );
        assert!(
            alltoall < br_lin,
            "s={s}: Alltoall must beat Br_Lin on the T3D"
        );
    }
}

/// §5.3: spreading a fixed total volume over more sources is faster on
/// the T3D too (for the wait-free algorithm).
#[test]
fn t3d_more_sources_faster_alltoall() {
    let machine = Machine::t3d(128, 42);
    let total = 128 * 1024;
    let few = ms(
        &machine,
        AlgoKind::MpiAlltoall,
        SourceDist::Equal,
        4,
        total / 4,
    );
    let many = ms(
        &machine,
        AlgoKind::MpiAlltoall,
        SourceDist::Equal,
        64,
        total / 64,
    );
    assert!(
        many < few,
        "T3D Alltoall: s=64 ({many}) should beat s=4 ({few})"
    );
}

/// Figure 2 (measured): the key per-algorithm parameter shapes.
#[test]
fn figure2_parameter_shapes() {
    let machine = Machine::paragon(16, 16);
    let s = 24;
    let run = |kind: AlgoKind| {
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s,
            msg_len: 1024,
            kind,
        };
        exp.run().expect("run failed")
    };
    let two_step = run(AlgoKind::TwoStep);
    let pers = run(AlgoKind::PersAlltoAll);
    let br_lin = run(AlgoKind::BrLin);
    let p = machine.p() as u64;

    // 2-Step: O(s) congestion at the root.
    let c2 = two_step
        .stats
        .iter()
        .map(|st| st.congestion())
        .max()
        .unwrap();
    assert!(c2 >= s as u64 - 1, "2-Step congestion must be ~s, got {c2}");

    // PersAlltoAll: O(1) congestion, O(p) total operations.
    let cp = pers.stats.iter().map(|st| st.congestion()).max().unwrap();
    assert!(cp <= 3, "PersAlltoAll congestion must be O(1), got {cp}");
    let opsp = pers.stats.iter().map(|st| st.total_ops()).max().unwrap();
    assert!(opsp >= p / 2, "PersAlltoAll ops must be O(p), got {opsp}");

    // Br_Lin: O(log p) operations per rank.
    let opsb = br_lin.stats.iter().map(|st| st.total_ops()).max().unwrap();
    assert!(
        opsb <= 4 * (p.ilog2() as u64 + 1),
        "Br_Lin ops must be O(log p), got {opsb}"
    );
}

/// §2 (text): uncoordinated independent broadcasts perform poorly on
/// the Paragon against the merge-based algorithms.
#[test]
fn naive_independent_loses_on_paragon() {
    let machine = Machine::paragon(10, 10);
    for s in [15usize, 30, 100] {
        let naive = ms(
            &machine,
            AlgoKind::NaiveIndependent,
            SourceDist::Equal,
            s,
            4096,
        );
        let merged = ms(&machine, AlgoKind::BrXySource, SourceDist::Equal, s, 4096);
        assert!(
            naive > merged * 1.5,
            "s={s}: uncoordinated broadcasts ({naive}) must lose clearly to Br_xy_source ({merged})"
        );
    }
}
