//! Figure 3: performance of all algorithms on a 10×10 Paragon; the
//! number of sources varies from 1 to 100, L = 4 KiB, equal
//! distribution. Includes the MPI builds of 2-Step and PersAlltoAll
//! (`MPI_AllGather`, `MPI_Alltoall`).

use mpp_model::Machine;
use stp_bench::{print_figure, run_ms, sweep_algorithms_parallel, sweep_runner};
use stp_core::prelude::*;

fn main() {
    let machine = Machine::paragon(10, 10);
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::MpiAllGather,
        AlgoKind::MpiAlltoall,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::BrXyDim,
    ];
    let ss: Vec<f64> = (0..=20)
        .map(|i| if i == 0 { 1.0 } else { (i * 5) as f64 })
        .collect();
    let series = sweep_algorithms_parallel(&sweep_runner(), &kinds, &ss, |k, s| {
        run_ms(&machine, k, SourceDist::Equal, s as usize, 4096)
    });
    print_figure(
        "Figure 3: 10x10 Paragon, L=4K, equal distribution, time (ms) vs s",
        "s",
        &series,
    );
}
