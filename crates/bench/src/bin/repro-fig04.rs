//! Figure 4: performance on a 10×10 Paragon; L varies from 32 bytes to
//! 16 KiB, s = 30, right diagonal distribution.

use mpp_model::Machine;
use stp_bench::{length_sweep, print_figure, run_ms, sweep_algorithms_parallel, sweep_runner};
use stp_core::prelude::*;

fn main() {
    let machine = Machine::paragon(10, 10);
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::BrXyDim,
    ];
    let lens: Vec<f64> = length_sweep().iter().map(|&l| l as f64).collect();
    let series = sweep_algorithms_parallel(&sweep_runner(), &kinds, &lens, |k, len| {
        run_ms(&machine, k, SourceDist::DiagRight, 30, len as usize)
    });
    print_figure(
        "Figure 4: 10x10 Paragon, s=30, right diagonal, time (ms) vs L (bytes)",
        "L",
        &series,
    );
}
