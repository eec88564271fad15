//! Integration tests for the extensions beyond the paper: the
//! dissemination all-gather, adaptive repositioning, recursive
//! partitioning, the k-ported `KPort_Lin` and the naive independent
//! broadcasts — each exercised end-to-end through the public API on the
//! timed simulator.

use stp_broadcast::prelude::*;
use stp_broadcast::stp::algorithms::DissemAllGather;
use stp_broadcast::stp::runner::try_run_alg_controlled;

#[test]
fn dissem_zero_copy_beats_alltoall_on_t3d() {
    // The EXPERIMENTS.md extension claim, pinned: a zero-copy
    // dissemination allgather undercuts MPI_Alltoall on the Fig-13a
    // workload.
    let machine = Machine::t3d(128, 42);
    let shape = machine.shape;
    let sources = SourceDist::Equal.place(shape, 40);
    let (sources, alg) = (&sources, &DissemAllGather::zero_copy());
    let mpi = SimConfig {
        lib: LibraryKind::Mpi,
        ..SimConfig::default()
    };
    let dissem = simulate_with(&machine, &mpi, |mut comm| async move {
        let payload = sources
            .binary_search(&comm.rank())
            .is_ok()
            .then(|| source_message(comm.rank(), 4096));
        let ctx = StpCtx {
            shape,
            sources,
            payload: payload.as_ref(),
        };
        alg.run(&mut comm, &ctx).await.len()
    });
    assert!(dissem.results.iter().all(|&n| n == 40));

    let alltoall = Experiment {
        machine: &machine,
        dist: SourceDist::Equal,
        s: 40,
        msg_len: 4096,
        kind: AlgoKind::MpiAlltoall,
    }
    .run()
    .expect("run failed");
    assert!(
        dissem.makespan_ns < alltoall.makespan_ns,
        "zero-copy dissemination ({}) must beat Alltoall ({})",
        dissem.makespan_ns,
        alltoall.makespan_ns
    );
}

#[test]
fn adaptive_runs_through_algokind() {
    let machine = Machine::paragon(8, 8);
    for dist in [SourceDist::SquareBlock, SourceDist::Row] {
        let exp = Experiment {
            machine: &machine,
            dist,
            s: 16,
            msg_len: 1024,
            kind: AlgoKind::ReposAdaptiveXySource,
        };
        assert!(exp.run().expect("run failed").verified);
    }
}

/// §5.2's negative result, extended to `2^depth` groups at the cross,
/// s = 75, L = 6 KiB point of `repro partitioning` (16×16 Paragon):
/// `Part` at depth 1 is `Part_xy_source`, no deeper partitioning beats
/// depth 1, and no depth beats `Repos_xy_source`. The cost is not
/// monotone in depth, so nothing here claims it is.
#[test]
fn deeper_partitioning_never_beats_depth_one_or_repositioning() {
    let machine = Machine::paragon(16, 16);
    let (s, len) = (75, 6 * 1024);
    let sources = SourceDist::Cross.place(machine.shape, s);
    let part_ns = |depth: usize| {
        let alg = Part::new(BrXySource, depth, "Part_xy_source");
        let out = try_run_alg_controlled(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| payload_for(src, len),
            &alg,
            &RunControl::default(),
        )
        .expect("run failed");
        assert!(out.verified, "depth {depth} failed verification");
        out.makespan_ns
    };
    let kind_ns = |kind: AlgoKind| {
        let out = Experiment {
            machine: &machine,
            dist: SourceDist::Cross,
            s,
            msg_len: len,
            kind,
        }
        .run()
        .expect("run failed");
        assert!(out.verified, "{} failed verification", kind.name());
        out.makespan_ns
    };
    let depths: Vec<_> = (1..=4).map(part_ns).collect();
    let repos = kind_ns(AlgoKind::ReposXySource);
    assert_eq!(depths[0], kind_ns(AlgoKind::PartXySource), "depth 1");
    for (depth, &ns) in (2..).zip(&depths[1..]) {
        assert!(
            ns > depths[0],
            "depth {depth} ({ns} ns) must not beat depth 1 ({} ns)",
            depths[0]
        );
    }
    for (depth, &ns) in (1..).zip(&depths) {
        assert!(
            ns > repos,
            "depth {depth} ({ns} ns) must not beat Repos_xy_source ({repos} ns)"
        );
    }
}

/// DESIGN §11's acceptance, in virtual time so it is exact: on the fig-4
/// workload (DiagRight, s = 30, L = 16 KiB) `KPort_Lin` on a five-port
/// 10×10 Paragon at least halves `Br_Lin`'s makespan on the one-port
/// machine — the k-port model of arXiv 2008.12144.
#[test]
fn kport_lin_on_five_ports_halves_br_lin_on_one() {
    let one_port = Machine::paragon(10, 10);
    let mut five_port = Machine::paragon(10, 10);
    five_port.params = five_port.params.clone().with_ports(5);
    let run = |machine: &Machine, kind| {
        let out = Experiment {
            machine,
            dist: SourceDist::DiagRight,
            s: 30,
            msg_len: 16 * 1024,
            kind,
        }
        .run()
        .expect("run failed");
        assert!(out.verified, "{} failed verification", kind.name());
        out.makespan_ns
    };
    let kport = run(&five_port, AlgoKind::KPortLin);
    let br_lin = run(&one_port, AlgoKind::BrLin);
    assert_eq!(kport, 17_424_508, "KPort_Lin on five ports");
    assert_eq!(br_lin, 36_852_251, "Br_Lin on one port");
    assert!(
        br_lin >= 2 * kport,
        "KPort_Lin {kport} ns must be at least 2x faster than Br_Lin {br_lin} ns"
    );
}

/// On one port `KPort_Lin` runs a single lane: the snake order and the
/// `Br_Lin` pairing schedule. It still ships each level's sends as one
/// `send_batch` (one α_send), where `Br_Lin` pays α_send per send. On
/// power-of-two meshes no position sends twice in a level and the
/// makespans agree; on 8×3 some do, and `KPort_Lin` comes out ahead.
#[test]
fn kport_lin_on_one_port_is_br_lin_until_a_position_sends_twice() {
    for (rows, cols) in [(4, 4), (8, 4), (16, 16), (8, 3)] {
        let machine = Machine::paragon(rows, cols);
        let p = machine.p();
        for dist in [SourceDist::Row, SourceDist::Equal, SourceDist::Cross] {
            for s in [p / 4, p] {
                let run = |kind: AlgoKind| {
                    let out = Experiment {
                        machine: &machine,
                        dist: dist.clone(),
                        s,
                        msg_len: 64,
                        kind,
                    }
                    .run()
                    .expect("run failed");
                    assert!(out.verified, "{} failed verification", kind.name());
                    out.makespan_ns
                };
                let (kport, br_lin) = (run(AlgoKind::KPortLin), run(AlgoKind::BrLin));
                let at = format!("{rows}x{cols} {dist:?} s={s}: KPort_Lin {kport} Br_Lin {br_lin}");
                if (rows, cols) == (8, 3) {
                    assert!(kport < br_lin, "{at}");
                } else {
                    assert_eq!(kport, br_lin, "{at}");
                }
            }
        }
    }
}

#[test]
fn naive_independent_through_algokind_on_both_machines() {
    for machine in [Machine::paragon(6, 6), Machine::t3d(36, 2)] {
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Random { seed: 8 },
            s: 7,
            msg_len: 512,
            kind: AlgoKind::NaiveIndependent,
        };
        assert!(
            exp.run().expect("run failed").verified,
            "NaiveIndependent failed on {}",
            machine.name
        );
    }
}
