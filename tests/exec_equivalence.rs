//! The executor, checked from its recordings. Every grid point below is
//! recorded twice and must give identical `EventLog`s, outcomes and
//! kernel counters (a run is a pure function of its inputs), must
//! deliver every source's bytes, and must replay conformant through the
//! analyzer's cost engine — every timestamp recomputed, and every
//! receive's match re-derived by the mailbox rule (earliest arrival,
//! then seq) — landing on the kernel's makespan. The engine shares no
//! code with the executor, so an event-order bug in the executor shows
//! up as a divergence here. The recording's own order is checked too:
//! events were processed by `(effective time, rank)`.
//!
//! The grids: every algorithm on a small mesh, a prime-dimension shape,
//! a mesh past the mailbox spill, five-port machines where `send_batch`
//! groups fan across port slots, and transient drops and link outages on
//! one- and five-port machines. (The `executors_agree_*` names date from
//! when a second executor was the reference here.)

use stp_analyzer::{replay, Schedule};
use stp_broadcast::model::{Machine, MachineParams, MeshShape, Placement, Topology};
use stp_broadcast::runtime::{EventKind, EventLog, FaultPlan};
use stp_broadcast::stp::distribution::SourceDist;
use stp_broadcast::stp::msgset::payload_for;
use stp_broadcast::stp::runner::{record_sources_faulty, AlgoKind, RecordedRun};

/// Record one grid point, under `plan` when there is one.
fn record(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    kind: AlgoKind,
    plan: Option<&FaultPlan>,
) -> RecordedRun {
    let sources = dist.place(machine.shape, s);
    let alg = kind.build();
    record_sources_faulty(
        machine,
        kind.default_lib(),
        &sources,
        &|src| payload_for(src, 64),
        alg.as_ref(),
        plan,
    )
}

/// The executor's ordering invariant, read off a recording: sends,
/// receives and finishes were processed in non-decreasing
/// `(effective time, rank)` — a send at its issue clock, a receive at
/// `max(start, arrival)`, a finish at the rank's final clock.
fn assert_processing_order(log: &EventLog, tag: &str) {
    let (mut sends, mut recvs, mut finishes) =
        (log.sends.iter(), log.recvs.iter(), log.finishes.iter());
    let mut last = (0, 0);
    for kind in &log.order {
        let at = match kind {
            EventKind::Send => sends.next().map(|s| (s.issue_ns, s.src)),
            EventKind::Recv => recvs.next().map(|r| (r.start_ns.max(r.arrival_ns), r.rank)),
            EventKind::Finished => finishes.next().map(|f| (f.finish_ns, f.rank)),
            _ => continue,
        };
        let at = at.expect("the order tape names a recorded event");
        assert!(at >= last, "{tag}: {kind:?} at {at:?} after {last:?}");
        last = at;
    }
}

/// Record a grid point twice and hold it to the contract: identical
/// recordings, outcomes and counters; full delivery; events in
/// processing order; a conformant replay, matched-send rule included,
/// with the kernel's makespan. Hands the recording back.
fn assert_exact(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    kind: AlgoKind,
    plan: Option<&FaultPlan>,
) -> RecordedRun {
    let run = record(machine, dist, s, kind, plan);
    let again = record(machine, dist, s, kind, plan);
    let tag = format!(
        "{} / {} on {}x{} s={s}{}",
        kind.name(),
        dist.name(),
        machine.shape.rows,
        machine.shape.cols,
        if plan.is_some() { " (faulted)" } else { "" }
    );
    assert!(!run.deadlocked && !again.deadlocked, "{tag}: deadlock");
    assert_eq!(run.events, again.events, "{tag}: recorded schedules");
    let (a, b) = (
        run.outcome.as_ref().expect("outcome"),
        again.outcome.as_ref().expect("outcome"),
    );
    assert_eq!(a.makespan_ns, b.makespan_ns, "{tag}: makespan");
    assert_eq!(a.finish_ns, b.finish_ns, "{tag}: per-rank finish times");
    assert_eq!(a.stats, b.stats, "{tag}: per-rank CommStats");
    assert_eq!(
        a.contention_events, b.contention_events,
        "{tag}: contention events"
    );
    assert_eq!(a.contention_ns, b.contention_ns, "{tag}: contention time");
    assert_eq!(a.counters, b.counters, "{tag}: kernel counters");
    assert!(a.verified, "{tag}: run must verify");
    assert_processing_order(&run.events, &tag);
    let sched = Schedule::from_recorded(&run, machine.p());
    let report = replay(&sched, machine, kind.default_lib(), plan.is_some());
    assert!(report.conformant(), "{tag}: {:?}", report.divergences);
    assert_eq!(
        report.makespan_ns, a.makespan_ns,
        "{tag}: replayed makespan"
    );
    run
}

/// A Paragon-parameterized mesh with five injection ports per node —
/// the shape where `send_batch` groups actually fan across port slots.
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

fn sweep(machine: &Machine, dists: &[SourceDist], kinds: &[AlgoKind]) {
    for dist in dists {
        for s in source_counts(machine.p()) {
            for &kind in kinds {
                assert_exact(machine, dist, s, kind, None);
            }
        }
    }
}

/// Every algorithm on one small shape with two representative
/// distributions.
#[test]
fn executors_agree_quick() {
    sweep(
        &Machine::paragon(4, 4),
        &[SourceDist::Equal, SourceDist::DiagRight],
        AlgoKind::all(),
    );
}

/// A shape with a prime dimension (non-power-of-two paths) on the
/// remaining distributions, merge algorithms only.
#[test]
fn executors_agree_quick_odd_shape() {
    sweep(
        &Machine::paragon(8, 3),
        &[SourceDist::Row, SourceDist::Cross],
        &[AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::TwoStep],
    );
}

/// Past the spill: every other case runs on p ≤ 24, where no mailbox
/// can hold more than `SPILL_AT` = 32 messages. On a 6×7 mesh with every
/// rank a source, `KPort_Alltoall` (all 41 rounds posted before the
/// first receive) and `2-Step`'s gather root put 41 in one mailbox, so
/// there the deep form is what the kernel runs on — and what the cost
/// replay, the matched-send rule included, must reproduce to the
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
        let run = assert_exact(&machine, &SourceDist::Equal, machine.p(), kind, None);
        // The case must not quietly stop covering the deep form.
        let k = run.outcome.expect("completed run").counters;
        assert_eq!(k.mailbox_spills > 0, deep, "{}: {k:?}", kind.name());
    }
}

/// Every algorithm under a transient-drop plan with retry on a small
/// shape: drop decisions are pure hashes of `(seed, seq, attempt)`, so
/// the recording — `Dropped` events included — replays exactly, and
/// retries restore full delivery.
#[test]
fn executors_agree_under_transient_drops() {
    let machine = Machine::paragon(4, 4);
    let plan = FaultPlan::transient_drops(13, 1, 8, 6);
    for &kind in AlgoKind::all() {
        assert_exact(&machine, &SourceDist::Equal, 5, kind, Some(&plan));
    }
}

/// Link outages force detours; the rerouted schedule replays exactly
/// too.
#[test]
fn executors_agree_under_link_outages() {
    let machine = Machine::paragon(4, 4);
    let plan = FaultPlan::parse("link=5-6@0..,link=9-10@0..200000").expect("valid spec");
    for &kind in &[AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::TwoStep] {
        assert_exact(&machine, &SourceDist::Cross, 6, kind, Some(&plan));
    }
}

/// Multi-port: on a five-port machine every level of a k-ported
/// algorithm issues a real multi-member `send_batch`, whose members take
/// distinct injection slots (ascending, in declared order).
#[test]
fn executors_agree_multiport() {
    sweep(
        &five_port_paragon(4, 4),
        &[SourceDist::Equal, SourceDist::DiagRight],
        &KPORT_KINDS,
    );
}

/// Multi-port on a prime-dimension shape, where lane segment lengths
/// differ and some levels batch fewer than k members.
#[test]
fn executors_agree_multiport_odd_shape() {
    let machine = five_port_paragon(3, 5);
    for kind in KPORT_KINDS {
        assert_exact(&machine, &SourceDist::Cross, 6, kind, None);
    }
}

/// Dropped batch members retry independently — each member of a
/// `send_batch` keeps its own `(seed, seq, attempt)` hash chain.
#[test]
fn executors_agree_multiport_under_transient_drops() {
    let machine = five_port_paragon(4, 4);
    let plan = FaultPlan::transient_drops(13, 1, 8, 6);
    for kind in KPORT_KINDS {
        assert_exact(&machine, &SourceDist::Equal, 5, kind, Some(&plan));
    }
}

/// Link outages under batched transmits: the detoured batch members
/// contend for the surviving links.
#[test]
fn executors_agree_multiport_under_link_outages() {
    let machine = five_port_paragon(4, 4);
    let plan = FaultPlan::parse("link=5-6@0..,link=9-10@0..200000").expect("valid spec");
    for kind in KPORT_KINDS {
        assert_exact(&machine, &SourceDist::Cross, 6, kind, Some(&plan));
    }
}
