//! Figure 13: three algorithms on a 128-processor T3D, L = 4 KiB.
//!
//! (a) the number of sources varies from 5 to 128, equal distribution;
//! (b) different source distributions at s = 40.
//!
//! The paper's headline: the ranking *flips* relative to the Paragon —
//! `MPI_Alltoall` wins (no combining, minimal waiting), `Br_Lin` loses
//! to its combining and wait costs.

use mpp_model::Machine;
use stp_bench::{print_figure, run_ms, sweep_algorithms_parallel, sweep_runner};
use stp_core::prelude::*;

fn main() {
    let machine = Machine::t3d(128, 42);
    let kinds = [
        AlgoKind::MpiAllGather,
        AlgoKind::MpiAlltoall,
        AlgoKind::BrLin,
    ];

    // (a) s sweep, equal distribution.
    let ss = [5.0, 10.0, 20.0, 40.0, 64.0, 96.0, 128.0];
    let series = sweep_algorithms_parallel(&sweep_runner(), &kinds, &ss, |k, s| {
        run_ms(&machine, k, SourceDist::Equal, s as usize, 4096)
    });
    print_figure(
        "Figure 13a: T3D p=128, L=4K, equal distribution, time (ms) vs s",
        "s",
        &series,
    );

    // (b) distributions at s = 40.
    println!("# Figure 13b: T3D p=128, L=4K, s=40, time (ms) per distribution");
    print!("dist");
    for k in kinds {
        print!(",{}", k.name());
    }
    println!();
    for dist in [
        SourceDist::Row,
        SourceDist::Column,
        SourceDist::Equal,
        SourceDist::DiagRight,
        SourceDist::SquareBlock,
        SourceDist::Cross,
        SourceDist::Random { seed: 7 },
    ] {
        print!("{}", dist.name());
        for k in kinds {
            print!(",{:.4}", run_ms(&machine, k, dist.clone(), 40, 4096));
        }
        println!();
    }
}
