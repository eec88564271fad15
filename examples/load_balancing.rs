//! Dynamic load balancing for distributed spatial data (paper §1, citing
//! Hambrusch & Khokhar's distributed data-structure work): the number of
//! overloaded processors is not known in advance, but their positions
//! tend to follow regular patterns — here, the boundary rows/columns of
//! a spatial decomposition get hot.
//!
//! Each rebalancing step, the overloaded processors broadcast their load
//! summaries (an s-to-p broadcast with a *structured* source set), and
//! every processor locally recomputes the new partition. The example
//! shows how the structured patterns favour the repositioning algorithm
//! exactly as §5.2 predicts.
//!
//! Run with: `cargo run --release --example load_balancing`

use stp_broadcast::prelude::*;

/// Load summary a hot processor publishes: (rank, items, boundary keys).
fn load_record(rank: usize, items: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(6 * 1024);
    v.extend_from_slice(&(rank as u32).to_le_bytes());
    v.extend_from_slice(&items.to_le_bytes());
    // boundary keys payload (fixed-size summary)
    v.resize(6 * 1024, (rank & 0xFF) as u8);
    v
}

fn main() {
    let machine = Machine::paragon(16, 16);

    // Rebalancing scenarios: hot boundaries form rows, columns, or a hot
    // rectangular region (square block) of the spatial decomposition.
    let scenarios = [
        ("hot rows (stripe decomposition)", SourceDist::Row, 48),
        ("hot columns (stripe decomposition)", SourceDist::Column, 48),
        (
            "hot region (block decomposition)",
            SourceDist::SquareBlock,
            49,
        ),
        ("hot cross (row+column seam)", SourceDist::Cross, 48),
    ];

    println!(
        "{:<36} {:>14} {:>18} {:>8}",
        "scenario", "Br_xy_source", "Repos_xy_source", "gain%"
    );
    for (name, dist, s) in scenarios {
        let sources = dist.place(machine.shape, s);
        let payload = |src: usize| load_record(src, 1000 + src as u32);

        let plain = stp_broadcast::stp::runner::run_sources(
            &machine,
            LibraryKind::Nx,
            &sources,
            &payload,
            AlgoKind::BrXySource,
        )
        .expect("run failed");
        let repos = stp_broadcast::stp::runner::run_sources(
            &machine,
            LibraryKind::Nx,
            &sources,
            &payload,
            AlgoKind::ReposXySource,
        )
        .expect("run failed");
        assert!(plain.verified && repos.verified);

        let gain = (plain.makespan_ms() - repos.makespan_ms()) / plain.makespan_ms() * 100.0;
        println!(
            "{name:<36} {:>11.3} ms {:>15.3} ms {gain:>7.1}",
            plain.makespan_ms(),
            repos.makespan_ms()
        );
    }

    // After the broadcast every processor can recompute the partition
    // locally — demonstrate that each rank really holds every load
    // record.
    let shape = machine.shape;
    let sources = SourceDist::Cross.place(shape, 48);
    let out = run_simulated(&machine, LibraryKind::Nx, async |comm| {
        let payload = sources
            .binary_search(&comm.rank())
            .is_ok()
            .then(|| load_record(comm.rank(), 1000));
        let ctx = StpCtx {
            shape,
            sources: &sources,
            payload: payload.as_deref(),
        };
        let set = BrXySource.run(comm, &ctx).await;
        // Recompute: total load over all published records.
        set.sources()
            .map(|s| {
                let d = set.get(s).unwrap().to_vec();
                u32::from_le_bytes(d[4..8].try_into().unwrap()) as u64
            })
            .sum::<u64>()
    });
    let expect: u64 = sources.len() as u64 * 1000;
    assert!(out.results.iter().all(|&t| t == expect));
    println!(
        "\nall {} ranks agree on the global load total ({expect})",
        machine.p()
    );
}
