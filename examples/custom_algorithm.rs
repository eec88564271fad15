//! Writing your own s-to-p algorithm against the simulator's rank
//! handle, `RankCtx` — a tutorial example.
//!
//! Implements a *ring pipeline* s-to-p broadcast: the sources' messages
//! travel around a ring, each rank absorbing and forwarding. `O(p)`
//! rounds of small messages — simple, wait-light, and terrible on large
//! machines — then races it against the paper's algorithms to show how
//! to evaluate a new idea in this framework.
//!
//! Run with: `cargo run --release --example custom_algorithm`

use stp_broadcast::prelude::*;
use stp_broadcast::runtime::FaultPlan;
use stp_broadcast::stp::runner::try_run_alg_controlled;

/// The custom algorithm: pipeline every source payload around a ring.
struct RingPipeline;

impl StpAlgorithm for RingPipeline {
    fn name(&self) -> &'static str {
        "RingPipeline (custom)"
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        ctx: &'a StpCtx<'a>,
    ) -> stp_broadcast::runtime::CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let p = comm.size();
            let me = comm.rank();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;

            let mut set = ctx.initial_set();
            if p == 1 {
                return set;
            }

            // p-1 rounds: forward what arrived last round (or my own payload
            // in round 0 if I am a source); receive whatever my predecessor
            // forwarded. A round's message can be empty (a 0-entry set) —
            // rounds stay in lockstep, which keeps the pipeline trivially
            // correct at the cost of empty-message overhead. Improving that
            // is the whole game — see the merge algorithms.
            let mut forward: MessageSet = set.clone();
            for round in 0..p - 1 {
                comm.send_payload(next, round as u32, forward.to_payload());
                let got = comm.recv(Some(prev), Some(round as u32)).await;
                comm.charge_memcpy(got.data.len());
                forward = MessageSet::from_payload(&got.data).expect("malformed ring message");
                set.merge(forward.clone());
                comm.next_iteration();
            }
            set
        })
    }
}

fn main() {
    let machine = Machine::paragon(8, 8);
    let shape = machine.shape;
    let sources = SourceDist::Equal.place(shape, 12);
    let len = 2048;

    // 1. Correctness first, under seeded delivery delays: each plan holds
    //    back a seeded half of all transmissions by 150 µs, so messages
    //    arrive out of their clean order. A correct algorithm relies on
    //    tags and source filters, never on arrival order — and a seed
    //    that breaks it replays exactly.
    for seed in 0..4 {
        let plan = FaultPlan::parse(&format!("seed={seed},delay=1/2:150000")).unwrap();
        let control = RunControl {
            faults: Some(plan.clone()),
            ..RunControl::default()
        };
        let out = try_run_alg_controlled(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| payload_for(src, len),
            &RingPipeline,
            &control,
        )
        .expect("run failed");
        assert!(out.verified, "RingPipeline lost a message under {plan:?}");
    }
    println!(
        "RingPipeline verified under 4 seeded delay plans ({} ranks)",
        machine.p()
    );

    // 2. Then performance, on the simulator, against the paper's field.
    let ring_ms = {
        let sources = &sources;
        let run = simulate(&machine, |mut comm| async move {
            let payload = sources
                .binary_search(&comm.rank())
                .is_ok()
                .then(|| source_message(comm.rank(), len));
            let ctx = StpCtx {
                shape,
                sources,
                payload: payload.as_ref(),
            };
            RingPipeline.run(&mut comm, &ctx).await.len()
        });
        run.makespan_ns as f64 / 1e6
    };
    println!("\n{:<22} {:>9}", "algorithm", "ms");
    println!("{:<22} {:>9.3}", "RingPipeline (custom)", ring_ms);
    for kind in [AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::TwoStep] {
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s: sources.len(),
            msg_len: len,
            kind,
        };
        let out = exp.run().expect("run failed");
        assert!(out.verified);
        println!("{:<22} {:>9.3}", kind.name(), out.makespan_ms());
    }
    println!("\np-1 rounds of startup cost bury the ring — exactly why the paper merges.");
}
