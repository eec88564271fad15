//! Figure 5: performance on Paragons of 4 to 256 processors;
//! L = 1 KiB, approximately √p sources, right diagonal distribution.

use mpp_model::Machine;
use stp_bench::{print_figure, run_ms, sweep_algorithms_parallel, sweep_runner};
use stp_core::prelude::*;

fn main() {
    let sizes = [2usize, 4, 6, 8, 10, 12, 14, 16]; // square side: p = side²
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::BrXyDim,
    ];
    let xs: Vec<f64> = sizes.iter().map(|&n| (n * n) as f64).collect();
    let series = sweep_algorithms_parallel(&sweep_runner(), &kinds, &xs, |k, p| {
        let side = (p as usize).isqrt();
        let machine = Machine::paragon(side, side);
        run_ms(&machine, k, SourceDist::DiagRight, side, 1024)
    });
    print_figure(
        "Figure 5: Paragon, L=1K, s=sqrt(p), right diagonal, time (ms) vs p",
        "p",
        &series,
    );
}
