//! §5.2 (text result, no figure number): the partitioning approach
//! "hardly ever gives a better performance than repositioning alone" on
//! the Paragon — the final inter-group exchange of large messages
//! dominates. Compares `Br_xy_source`, `Repos_xy_source` and
//! `Part_xy_source` on a 16×16 Paragon.

use mpp_model::{LibraryKind, Machine};
use mpp_runtime::{run_simulated, Communicator};
use stp_bench::{print_figure, run_ms, sweep_algorithms_parallel, sweep_runner};
use stp_core::algorithms::PartRecursive;
use stp_core::prelude::*;

fn main() {
    let machine = Machine::paragon(16, 16);
    let kinds = [
        AlgoKind::BrXySource,
        AlgoKind::ReposXySource,
        AlgoKind::PartXySource,
    ];

    let runner = sweep_runner();
    let ss = [16.0, 50.0, 75.0, 100.0, 150.0, 192.0];
    let series = sweep_algorithms_parallel(&runner, &kinds, &ss, |k, s| {
        run_ms(&machine, k, SourceDist::Cross, s as usize, 6 * 1024)
    });
    print_figure(
        "Partitioning: 16x16 Paragon, cross distribution, L=6K, time (ms) vs s",
        "s",
        &series,
    );

    let lens = [1024.0, 2048.0, 4096.0, 8192.0, 16384.0];
    let series = sweep_algorithms_parallel(&runner, &kinds, &lens, |k, len| {
        run_ms(&machine, k, SourceDist::SquareBlock, 75, len as usize)
    });
    print_figure(
        "Partitioning: 16x16 Paragon, square block, s=75, time (ms) vs L",
        "L",
        &series,
    );

    // Extension: does *deeper* recursive partitioning ever pay? (No —
    // the merge rounds of growing combined messages dominate harder.)
    let shape = machine.shape;
    let depth_ms = |depth: usize| {
        let alg = PartRecursive::new(BrXySource, depth, "PartRec");
        let sources = SourceDist::Cross.place(shape, 75);
        let out = run_simulated(&machine, LibraryKind::Nx, async |comm| {
            let payload = sources
                .binary_search(&comm.rank())
                .is_ok()
                .then(|| payload_for(comm.rank(), 6 * 1024));
            let ctx = StpCtx {
                shape,
                sources: &sources,
                payload: payload.as_deref(),
            };
            alg.run(comm, &ctx).await.len()
        });
        assert!(out.results.iter().all(|&n| n == 75));
        out.makespan_ns as f64 / 1e6
    };
    println!("# Extension: recursive partitioning depth sweep (cross, s=75, L=6K)");
    println!("depth,ms");
    println!(
        "0 (Repos),{:.4}",
        run_ms(
            &machine,
            AlgoKind::ReposXySource,
            SourceDist::Cross,
            75,
            6 * 1024
        )
    );
    for depth in 1..=4 {
        println!("{depth},{:.4}", depth_ms(depth));
    }
}
