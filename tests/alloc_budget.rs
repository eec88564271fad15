//! Allocation budgets for the kernel hot path.
//!
//! The zero-copy tests pin *byte* volume; these pin *allocation counts*.
//! An accidental clone in the rope path or a dropped arena would keep
//! `bytes_copied` flat while allocation counts explode, so each
//! algorithm gets an explicit per-run ceiling on
//!
//! * `payload_allocs` — real allocations inside `Payload` (arena chunk
//!   refills, dedicated large-payload buffers), and
//! * `comm_allocs`    — comm-layer buffer allocations, which must stay
//!   at exactly zero on the `send_payload` rope path.
//!
//! Each budget is measured on a *warm* run: the first run fills the
//! thread-local arena chunks and the retired-chunk pool, so a second
//! run on the same thread recycles instead of allocating — observed
//! warm counts are 0–1 per run (an occasional chunk refill). The
//! ceilings leave an order of magnitude of headroom over that, but a
//! per-message or per-merge allocation (hundreds to thousands per run
//! — `Br_Lin` moves ~900 messages) blows through them immediately.
//!
//! Every rank runs on the calling thread, so one run draws on one
//! thread's arena.
//!
//! The copy-metrics counters are process-global and tests in one binary
//! run concurrently, so every test serialises on one lock.

use std::sync::Mutex;

use stp_broadcast::model::{MachineParams, Topology};
use stp_broadcast::prelude::*;
use stp_broadcast::runtime::{run_simulated_with, SimConfig};
use stp_broadcast::sim;

static COPY_METRICS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COPY_METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One run with `s` equally-spread sources and 4096-byte
/// messages (`s` = 24 on the 16x16 Paragon is the reference grid point).
/// Returns `(payload_allocs, comm_allocs)` for the run.
fn run_counting(machine: &Machine, kind: AlgoKind, s: usize) -> (u64, u64) {
    let sources = SourceDist::Equal.place(machine.shape, s);
    let alg = kind.build();
    let shape = machine.shape;
    let config = SimConfig {
        lib: kind.default_lib(),
        ..SimConfig::default()
    };
    let before = sim::copy_metrics();
    let out = run_simulated_with(machine, &config, async |comm| {
        let payload = sources
            .binary_search(&comm.rank())
            .is_ok()
            .then(|| payload_for(comm.rank(), 4096));
        let ctx = StpCtx {
            shape,
            sources: &sources,
            payload: payload.as_deref(),
        };
        alg.run(comm, &ctx).await.len() == sources.len()
    });
    let payload_allocs = sim::copy_metrics().since(&before).allocs;
    assert!(
        out.results.iter().all(|&ok| ok),
        "{} failed verification",
        kind.name()
    );
    let comm_allocs = out.stats.iter().map(|s| s.allocs).sum();
    (payload_allocs, comm_allocs)
}

/// Warm up, then assert the measured run stays within budget.
fn assert_budget_on(machine: &Machine, kind: AlgoKind, s: usize, payload_budget: u64) {
    let _g = lock();
    run_counting(machine, kind, s); // warmup: fill arena chunks + retired pool
    let (payload_allocs, comm_allocs) = run_counting(machine, kind, s);
    assert!(
        payload_allocs <= payload_budget,
        "{}: {payload_allocs} payload allocations in one warm run \
         (budget {payload_budget}) — arena regression?",
        kind.name()
    );
    assert_eq!(
        comm_allocs,
        0,
        "{}: comm layer allocated on the rope path",
        kind.name()
    );
}

fn assert_budget(kind: AlgoKind, payload_budget: u64) {
    assert_budget_on(&Machine::paragon(16, 16), kind, 24, payload_budget);
}

#[test]
fn br_lin_alloc_budget() {
    // Warm observed 1 (one arena chunk refill); ~900 messages of
    // combining traffic, so a per-hop allocation would cost hundreds.
    assert_budget(AlgoKind::BrLin, 16);
}

#[test]
fn two_step_alloc_budget() {
    // Warm observed 1.
    assert_budget(AlgoKind::TwoStep, 16);
}

#[test]
fn pers_alltoall_alloc_budget() {
    // Warm observed 0.
    assert_budget(AlgoKind::PersAlltoAll, 16);
}

#[test]
fn kport_lin_alloc_budget() {
    // Five ports so every level ships a real multi-member batch: the
    // batch members clone one rope snapshot per lane (header copies,
    // not buffer allocations), so the warm count must stay at arena
    // chunk-refill noise just like the single-port algorithms.
    let machine = Machine::new(
        "Paragon 16x16 (5-port)",
        Topology::Mesh2D { rows: 16, cols: 16 },
        MachineParams::paragon_nx().with_ports(5),
        Placement::Identity,
        MeshShape::new(16, 16),
    );
    assert_budget_on(&machine, AlgoKind::KPortLin, 24, 16);
}

#[test]
fn kport_alltoall_alloc_budget() {
    // 64 sources post all 255 sends before their first receive: 16 320
    // messages in flight, every mailbox past the spill, one rope
    // snapshot per source shared by all its sends. Warm observed 0.
    assert_budget_on(&Machine::paragon(16, 16), AlgoKind::KPortAlltoall, 64, 16);
}
