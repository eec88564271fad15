//! The schedule recorder must not allocate per recorded operation: its
//! events go into flat arrays (link windows included, addressed by
//! offset and length) that the next recording on the thread reuses.

use mpp_model::Machine;
use mpp_sim::{simulate_with, ExecMode, Payload, SimConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const ROUNDS: u32 = 200;

/// One ring exchange of `ROUNDS` rounds on a 4×4 mesh; returns the heap
/// allocations it made and the transfers it recorded.
fn ring(record: bool) -> (u64, usize) {
    let machine = Machine::paragon(4, 4);
    let config = SimConfig {
        exec: ExecMode::Cooperative,
        record,
        ..SimConfig::default()
    };
    let before = counting_alloc::allocs();
    let out = simulate_with(&machine, &config, |mut ctx| async move {
        let (me, p) = (ctx.rank(), ctx.size());
        for round in 0..ROUNDS {
            // Five ranks on: a multi-hop route, so transfers carry windows.
            ctx.send_payload((me + 5) % p, round, Payload::new());
            ctx.recv(Some((me + p - 5) % p), Some(round)).await;
        }
    });
    let allocs = counting_alloc::allocs() - before;
    assert!(out.log.windows.len() >= out.log.xfers.len());
    (allocs, out.log.xfers.len())
}

#[test]
fn recording_allocates_per_run_not_per_transfer() {
    // Warm: the first recording grows the arrays, dropping it parks them.
    ring(true);
    let (plain, _) = ring(false);
    let (recorded, transfers) = ring(true);
    assert_eq!(transfers, 16 * ROUNDS as usize);
    let extra = recorded.saturating_sub(plain);
    assert!(
        extra < 16,
        "recording {transfers} transfers cost {extra} allocations more than the \
         unrecorded run ({recorded} vs {plain})"
    );
}
