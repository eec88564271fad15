//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **placement** — T3D block-rotated vs fully scattered placement;
//! * **combining cost (γ)** — the knob that flips the T3D ranking;
//! * **ports per node** — single-channel vs six-channel nodes;
//! * **linear order** — snake vs plain row-major for `Br_Lin`;
//! * **gather flavour** — direct vs binomial tree in 2-Step.

use criterion::{criterion_group, criterion_main, Criterion};
use mpp_model::{LibraryKind, Machine, MachineParams, MeshShape, Placement, Topology};
use stp_bench::{run_alg_ms, run_ms};
use stp_core::prelude::*;

fn t3d_with(gamma_ns: f64, ports: usize, scattered: bool) -> Machine {
    let params = MachineParams {
        gamma_ns_x1024: (gamma_ns * 1024.0) as u64,
        ports_per_node: ports,
        ..MachineParams::t3d_mpi()
    };
    let placement = if scattered {
        Placement::Random { seed: 42 }
    } else {
        Placement::RotatedBlock { seed: 42 }
    };
    Machine::new(
        format!("T3D-ablation g={gamma_ns} ports={ports} scattered={scattered}"),
        Topology::torus_for(128),
        params,
        placement,
        MeshShape::near_square(128),
    )
}

fn ablation_placement(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_placement");
    g.sample_size(10);
    for (label, scattered) in [("block", false), ("scattered", true)] {
        let machine = t3d_with(22.0, 6, scattered);
        g.bench_function(label, |b| {
            b.iter(|| run_ms(&machine, AlgoKind::BrLin, SourceDist::Equal, 40, 4096))
        });
    }
    g.finish();
}

fn ablation_gamma(c: &mut Criterion) {
    // At γ≈0 message combining is free and Br_Lin should recover much of
    // its Paragon advantage; at the calibrated γ it loses to Alltoall.
    let mut g = c.benchmark_group("ablation_gamma");
    g.sample_size(10);
    for gamma in [0.0f64, 5.0, 22.0, 40.0] {
        let machine = t3d_with(gamma, 6, false);
        g.bench_function(format!("BrLin/gamma{gamma}"), |b| {
            b.iter(|| run_ms(&machine, AlgoKind::BrLin, SourceDist::Equal, 40, 4096))
        });
    }
    g.finish();
}

fn ablation_ports(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_ports");
    g.sample_size(10);
    for ports in [1usize, 2, 6] {
        let machine = t3d_with(22.0, ports, false);
        g.bench_function(format!("Alltoall/ports{ports}"), |b| {
            b.iter(|| run_ms(&machine, AlgoKind::MpiAlltoall, SourceDist::Equal, 40, 4096))
        });
    }
    g.finish();
}

fn ablation_linear_order(c: &mut Criterion) {
    let machine = Machine::paragon(10, 10);
    let mut g = c.benchmark_group("ablation_linear_order");
    g.sample_size(10);
    for (label, alg) in [("snake", BrLin::new()), ("row_major", BrLin::row_major())] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let sources = SourceDist::Equal.place(machine.shape, 30);
                run_alg_ms(&machine, LibraryKind::Nx, &alg, &sources, 2048)
            })
        });
    }
    g.finish();
}

fn ablation_gather_flavour(c: &mut Criterion) {
    let machine = Machine::paragon(10, 10);
    let mut g = c.benchmark_group("ablation_gather_flavour");
    g.sample_size(10);
    for (label, kind) in [
        ("direct", AlgoKind::TwoStep),
        ("tree", AlgoKind::MpiAllGather),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| run_ms(&machine, kind, SourceDist::Equal, 30, 4096))
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablation_placement,
    ablation_gamma,
    ablation_ports,
    ablation_linear_order,
    ablation_gather_flavour,
);
criterion_main!(ablations);
