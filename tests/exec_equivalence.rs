//! Differential determinism: the cooperative executor must be
//! *indistinguishable* from the threaded trap/grant executor in every
//! observable output — virtual times, per-rank `CommStats`, and the
//! recorded symbolic communication schedule, event for event.
//!
//! The argument in DESIGN.md §8 is that both executors drive the same
//! `KernelCore` and only differ in how a rank program is resumed; these
//! tests are the empirical check of that argument over the analyzer's
//! full lint matrix (every algorithm × the paper's eight distributions
//! × the acceptance shapes). The quick subset runs in tier-1; the full
//! matrix is `#[ignore]`d for tier-2 (`cargo test -- --ignored`).

use stp_analyzer::{replay, Schedule};
use stp_broadcast::model::{Machine, MachineParams, MeshShape, Placement, Topology};
use stp_broadcast::runtime::{ExecMode, FaultPlan};
use stp_broadcast::stp::distribution::SourceDist;
use stp_broadcast::stp::msgset::payload_for;
use stp_broadcast::stp::runner::{
    record_sources_exec, record_sources_faulty, AlgoKind, RecordedRun,
};

/// Record one grid point on the given executor.
fn record(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    kind: AlgoKind,
    exec: ExecMode,
) -> RecordedRun {
    let sources = dist.place(machine.shape, s);
    let alg = kind.build();
    record_sources_exec(
        machine,
        kind.default_lib(),
        &sources,
        &|src| payload_for(src, 64),
        alg.as_ref(),
        exec,
    )
}

/// Compare a coop recording against a threaded recording of the same
/// grid point: schedules, virtual times, and per-rank stats must all be
/// byte-identical. Hands both recordings back.
fn assert_identical(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    kind: AlgoKind,
) -> [RecordedRun; 2] {
    let coop = record(machine, dist, s, kind, ExecMode::Cooperative);
    let thr = record(machine, dist, s, kind, ExecMode::Threaded);
    let tag = format!(
        "{} / {} on {}x{} s={s}",
        kind.name(),
        dist.name(),
        machine.shape.rows,
        machine.shape.cols
    );
    assert_eq!(coop.deadlocked, thr.deadlocked, "{tag}: deadlock verdict");
    assert_eq!(coop.events, thr.events, "{tag}: recorded schedules");
    let (a, b) = (
        coop.outcome.as_ref().expect("coop outcome"),
        thr.outcome.as_ref().expect("threaded outcome"),
    );
    assert_eq!(a.makespan_ns, b.makespan_ns, "{tag}: makespan");
    assert_eq!(a.finish_ns, b.finish_ns, "{tag}: per-rank finish times");
    assert_eq!(a.stats, b.stats, "{tag}: per-rank CommStats");
    assert_eq!(a.verified, b.verified, "{tag}: verification");
    assert_eq!(
        a.contention_events, b.contention_events,
        "{tag}: contention events"
    );
    assert_eq!(a.contention_ns, b.contention_ns, "{tag}: contention time");
    assert_eq!(a.counters, b.counters, "{tag}: kernel counters");
    assert!(a.verified, "{tag}: run must verify");
    [coop, thr]
}

/// A Paragon-parameterized mesh with five injection ports per node —
/// the shape where `send_batch` groups actually fan across port slots,
/// so the coop poll-all-at-once path and the threaded same-tick
/// arbitration path genuinely diverge in mechanism.
fn five_port_paragon(rows: usize, cols: usize) -> Machine {
    Machine::new(
        "Paragon (5-port)",
        Topology::Mesh2D { rows, cols },
        MachineParams::paragon_nx().with_ports(5),
        Placement::Identity,
        MeshShape::new(rows, cols),
    )
}

/// The k-ported algorithms plus their single-port reference.
const KPORT_KINDS: [AlgoKind; 4] = [
    AlgoKind::KPortLin,
    AlgoKind::KPortScatter,
    AlgoKind::KPortAlltoall,
    AlgoKind::BrLin,
];

/// Source counts checked per shape (mirrors the lint matrix).
fn source_counts(p: usize) -> Vec<usize> {
    let sparse = (p / 4).max(2).min(p);
    if sparse == p {
        vec![p]
    } else {
        vec![sparse, p]
    }
}

fn sweep(shapes: &[(usize, usize)], dists: &[SourceDist], kinds: &[AlgoKind]) {
    for &(rows, cols) in shapes {
        let machine = Machine::paragon(rows, cols);
        for dist in dists {
            for s in source_counts(machine.p()) {
                for &kind in kinds {
                    assert_identical(&machine, dist, s, kind);
                }
            }
        }
    }
}

/// Tier-1 subset: every algorithm on one small shape with two
/// representative distributions — fast, runs in the default suite.
#[test]
fn executors_agree_quick() {
    sweep(
        &[(4, 4)],
        &[SourceDist::Equal, SourceDist::DiagRight],
        AlgoKind::all(),
    );
}

/// Tier-1 subset: shape with a prime dimension (non-power-of-two
/// paths) on the remaining distributions, merge algorithms only.
#[test]
fn executors_agree_quick_odd_shape() {
    sweep(
        &[(8, 3)],
        &[SourceDist::Row, SourceDist::Cross],
        &[AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::TwoStep],
    );
}

/// Tier-1 past the spill: every other tier-1 case runs on p ≤ 24, where
/// no mailbox can hold more than `SPILL_AT` = 32 messages. On a 6×7
/// mesh with every rank a source, `KPort_Alltoall` (all 41 rounds posted
/// before the first receive) and `2-Step`'s gather root put 41 in one
/// mailbox, so there the deep form is what both executors run on —
/// event for event — and what the cost replay must reproduce to the
/// nanosecond. The other three move the same s·(p−1) messages paced,
/// and stay shallow: the contrast the kernel counters exist to show.
#[test]
fn executors_agree_past_the_spill() {
    let machine = Machine::paragon(6, 7);
    for (kind, deep) in [
        (AlgoKind::KPortAlltoall, true),
        (AlgoKind::TwoStep, true),
        (AlgoKind::PersAlltoAll, false),
        (AlgoKind::MpiAlltoall, false),
        (AlgoKind::NaiveIndependent, false),
    ] {
        for run in assert_identical(&machine, &SourceDist::Equal, machine.p(), kind) {
            let sched = Schedule::from_recorded(&run, machine.p());
            let report = replay(&sched, &machine, kind.default_lib(), false);
            let name = kind.name();
            assert!(report.conformant(), "{name}: {:?}", report.divergences);
            let outcome = run.outcome.expect("completed run");
            assert_eq!(report.makespan_ns, outcome.makespan_ns, "{name}");
            // The case must not quietly stop covering the deep form.
            let k = outcome.counters;
            assert_eq!(k.mailbox_spills > 0, deep, "{name}: {k:?}");
        }
    }
}

/// Record one grid point on the given executor with a fault plan.
fn record_faulted(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    kind: AlgoKind,
    exec: ExecMode,
    plan: &FaultPlan,
) -> RecordedRun {
    let sources = dist.place(machine.shape, s);
    let alg = kind.build();
    record_sources_faulty(
        machine,
        kind.default_lib(),
        &sources,
        &|src| payload_for(src, 64),
        alg.as_ref(),
        exec,
        Some(plan),
    )
}

/// The equivalence argument must survive fault injection: drop/retry
/// decisions are pure hashes of `(seed, seq, attempt)` and rerouting is
/// a deterministic function of virtual time, so an identical plan must
/// produce byte-identical recordings — including the `Dropped` events —
/// on both executors.
fn assert_identical_faulted(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    kind: AlgoKind,
    plan: &FaultPlan,
) {
    let coop = record_faulted(machine, dist, s, kind, ExecMode::Cooperative, plan);
    let thr = record_faulted(machine, dist, s, kind, ExecMode::Threaded, plan);
    let tag = format!(
        "{} / {} on {}x{} s={s} (faulted)",
        kind.name(),
        dist.name(),
        machine.shape.rows,
        machine.shape.cols
    );
    assert_eq!(coop.deadlocked, thr.deadlocked, "{tag}: deadlock verdict");
    assert_eq!(coop.events, thr.events, "{tag}: recorded schedules");
    let (a, b) = (
        coop.outcome.expect("coop outcome"),
        thr.outcome.expect("threaded outcome"),
    );
    assert_eq!(a.makespan_ns, b.makespan_ns, "{tag}: makespan");
    assert_eq!(a.finish_ns, b.finish_ns, "{tag}: per-rank finish times");
    assert_eq!(a.stats, b.stats, "{tag}: per-rank CommStats");
    assert_eq!(a.verified, b.verified, "{tag}: verification");
    assert_eq!(
        a.contention_events, b.contention_events,
        "{tag}: contention events"
    );
    assert_eq!(a.contention_ns, b.contention_ns, "{tag}: contention time");
    assert!(a.verified, "{tag}: retries must restore full delivery");
}

/// Tier-1: every algorithm under a transient-drop plan with retry on a
/// small shape — same plan, both executors, byte-identical recordings
/// and full delivery.
#[test]
fn executors_agree_under_transient_drops() {
    let machine = Machine::paragon(4, 4);
    let plan = FaultPlan::transient_drops(13, 1, 8, 6);
    for &kind in AlgoKind::all() {
        assert_identical_faulted(&machine, &SourceDist::Equal, 5, kind, &plan);
    }
}

/// Tier-1: link outages force detours; the rerouted schedule must stay
/// executor-independent too.
#[test]
fn executors_agree_under_link_outages() {
    let machine = Machine::paragon(4, 4);
    let plan = FaultPlan::parse("link=5-6@0..,link=9-10@0..200000").expect("valid spec");
    for &kind in &[AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::TwoStep] {
        assert_identical_faulted(&machine, &SourceDist::Cross, 6, kind, &plan);
    }
}

/// Tier-1: multi-port equivalence. On a five-port machine every level
/// of a k-ported algorithm issues a real multi-member `send_batch`;
/// the batch must land on the same injection slots (ascending, in
/// declared order) under both executors, making the recordings
/// byte-identical.
#[test]
fn executors_agree_multiport() {
    let machine = five_port_paragon(4, 4);
    for dist in [SourceDist::Equal, SourceDist::DiagRight] {
        for s in source_counts(machine.p()) {
            for kind in KPORT_KINDS {
                assert_identical(&machine, &dist, s, kind);
            }
        }
    }
}

/// Tier-1: multi-port equivalence on a prime-dimension shape, where
/// lane segment lengths differ and some levels batch fewer than k
/// members.
#[test]
fn executors_agree_multiport_odd_shape() {
    let machine = five_port_paragon(3, 5);
    for kind in KPORT_KINDS {
        assert_identical(&machine, &SourceDist::Cross, 6, kind);
    }
}

/// Tier-1: dropped batch members retry independently — each member of
/// a `send_batch` keeps its own `(seed, seq, attempt)` hash chain — and
/// the recovery schedule must still be executor-independent.
#[test]
fn executors_agree_multiport_under_transient_drops() {
    let machine = five_port_paragon(4, 4);
    let plan = FaultPlan::transient_drops(13, 1, 8, 6);
    for kind in KPORT_KINDS {
        assert_identical_faulted(&machine, &SourceDist::Equal, 5, kind, &plan);
    }
}

/// Tier-1: link outages under batched transmits — the detoured batch
/// members contend for the surviving links, and the rerouted schedule
/// must stay executor-independent.
#[test]
fn executors_agree_multiport_under_link_outages() {
    let machine = five_port_paragon(4, 4);
    let plan = FaultPlan::parse("link=5-6@0..,link=9-10@0..200000").expect("valid spec");
    for kind in KPORT_KINDS {
        assert_identical_faulted(&machine, &SourceDist::Cross, 6, kind, &plan);
    }
}

/// Tier-2: the full lint matrix — every algorithm × all eight paper
/// distributions × the acceptance shapes. Minutes of runtime; run with
/// `cargo test --test exec_equivalence -- --ignored`.
#[test]
#[ignore = "full matrix is tier-2; run with -- --ignored"]
fn executors_agree_full_matrix() {
    sweep(
        &[(4, 4), (8, 4), (16, 16), (8, 3)],
        &SourceDist::named(),
        AlgoKind::all(),
    );
}
