//! Quickstart: broadcast from 5 sources on a simulated 8×8 Paragon,
//! compare three algorithms, and inspect the result.
//!
//! Run with: `cargo run --release --example quickstart`

use stp_broadcast::prelude::*;

fn main() {
    // A machine: 8x8 Intel Paragon (2-D mesh, NX cost parameters).
    let machine = Machine::paragon(8, 8);

    // A workload: 5 sources placed on the right diagonal, 2 KiB each.
    let dist = SourceDist::DiagRight;
    let (s, msg_len) = (5, 2048);

    println!("machine: {}  (p = {})", machine.name, machine.p());
    println!("sources: {:?}\n", dist.place(machine.shape, s));

    for kind in [AlgoKind::TwoStep, AlgoKind::BrLin, AlgoKind::BrXySource] {
        let exp = Experiment {
            machine: &machine,
            dist: dist.clone(),
            s,
            msg_len,
            kind,
        };
        let out = exp.run().expect("run failed");
        assert!(out.verified, "every rank must end with all 5 messages");
        println!(
            "{:<14} {:>8.3} ms   (contention stalls: {})",
            kind.name(),
            out.makespan_ms(),
            out.contention_events
        );
    }

    // Underneath, every algorithm is a rank program over the
    // simulator's rank handle, `RankCtx`; `simulate` drives one directly.
    let shape = machine.shape;
    let sources = &dist.place(shape, s);
    let out = simulate(&machine, |mut comm| async move {
        let payload = sources
            .binary_search(&comm.rank())
            .is_ok()
            .then(|| source_message(comm.rank(), msg_len));
        let ctx = StpCtx {
            shape,
            sources,
            payload: payload.as_ref(),
        };
        BrLin.run(&mut comm, &ctx).await.len()
    });
    assert!(out.results.iter().all(|&n| n == s));
    println!(
        "\nBr_Lin driven rank by rank: every rank holds {s} messages at {:.3} ms",
        out.makespan_ms()
    );
}
