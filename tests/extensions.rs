//! Integration tests for the extensions beyond the paper: source
//! announcement, N-d `Br_dims`, the dissemination all-gather, adaptive
//! repositioning and recursive partitioning — each exercised end-to-end
//! through the public API on the timed simulator.

use stp_broadcast::prelude::*;
use stp_broadcast::stp::algorithms::{
    BrDims, DissemAllGather, GridShape, PartRecursive, StpAlgorithm,
};
use stp_broadcast::stp::announce::announce_and_broadcast;

#[test]
fn announce_then_broadcast_on_simulator() {
    let machine = Machine::paragon(4, 4);
    let shape = machine.shape;
    let sources = [3usize, 8, 12];
    let out = simulate(&machine, |mut comm| async move {
        // Each rank knows only whether *it* has a message.
        let payload = sources
            .contains(&comm.rank())
            .then(|| payload_for(comm.rank(), 256));
        announce_and_broadcast(&mut comm, shape, payload.as_deref(), &BrLin::new())
            .await
            .map(|set| set.sources().collect::<Vec<_>>())
    });
    for r in out.results {
        assert_eq!(r.unwrap(), sources.to_vec());
    }
    // The announcement costs log p rounds of p-word tables — small
    // against the broadcast itself.
    assert!(out.makespan_ns > 0);
}

#[test]
fn br_dims_on_t3d_native_3d_grid() {
    // Run Br_dims on the T3D's natural 3-D factorization and verify it
    // against Br_Lin on the same machine.
    let machine = Machine::t3d(64, 11);
    let shape = machine.shape;
    let grid = GridShape::cube_for(64);
    let sources = SourceDist::Equal.place(shape, 9);
    let (sources, alg) = (&sources, &BrDims::new(grid));
    let mpi = SimConfig {
        lib: LibraryKind::Mpi,
        ..SimConfig::default()
    };
    let dims_out = simulate_with(&machine, &mpi, |mut comm| async move {
        let payload = sources
            .binary_search(&comm.rank())
            .is_ok()
            .then(|| payload_for(comm.rank(), 512));
        let ctx = StpCtx {
            shape,
            sources,
            payload: payload.as_deref(),
        };
        let set = alg.run(&mut comm, &ctx).await;
        set.sources().collect::<Vec<_>>() == *sources
            && sources
                .iter()
                .all(|&s| *set.get(s).unwrap() == payload_for(s, 512))
    });
    assert!(dims_out.results.iter().all(|&ok| ok));
}

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
            .then(|| payload_for(comm.rank(), 4096));
        let ctx = StpCtx {
            shape,
            sources,
            payload: payload.as_deref(),
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

#[test]
fn recursive_partitioning_monotone_in_depth() {
    // Deeper partitioning must not get better on the Paragon (the
    // paper's negative result, extended): allow small noise but require
    // depth 3 ≥ depth 1.
    let machine = Machine::paragon(16, 16);
    let shape = machine.shape;
    let sources = &SourceDist::Cross.place(shape, 75);
    let ms_for = |depth: usize| {
        let alg = &PartRecursive::new(BrXySource, depth, "PartRec");
        let out = simulate(&machine, |mut comm| async move {
            let payload = sources
                .binary_search(&comm.rank())
                .is_ok()
                .then(|| payload_for(comm.rank(), 6144));
            let ctx = StpCtx {
                shape,
                sources,
                payload: payload.as_deref(),
            };
            alg.run(&mut comm, &ctx).await.len()
        });
        assert!(out.results.iter().all(|&n| n == 75));
        out.makespan_ns
    };
    let d1 = ms_for(1);
    let d3 = ms_for(3);
    assert!(
        d3 > d1,
        "depth 3 ({d3}) must not beat depth 1 ({d1}) on the Paragon"
    );
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
