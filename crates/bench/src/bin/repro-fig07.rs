//! Figure 7: performance of the three merge-based algorithms on a 10×10
//! Paragon with the right diagonal distribution when the *total* message
//! volume is fixed at 80 KiB and the number of sources varies — the
//! paper's demonstration that spreading the data over more sources is
//! faster.

use mpp_model::Machine;
use stp_bench::{print_figure, run_ms, sweep_algorithms_parallel, sweep_runner};
use stp_core::prelude::*;

const TOTAL: usize = 80 * 1024;

fn main() {
    let machine = Machine::paragon(10, 10);
    let kinds = [AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::BrXyDim];
    let ss = [5.0, 10.0, 20.0, 40.0, 80.0];
    let series = sweep_algorithms_parallel(&sweep_runner(), &kinds, &ss, |k, s| {
        let s = s as usize;
        run_ms(&machine, k, SourceDist::DiagRight, s, TOTAL / s)
    });
    print_figure(
        "Figure 7: 10x10 Paragon, right diagonal, total sL=80K fixed, time (ms) vs s",
        "s",
        &series,
    );
}
