//! Seeded delivery delays: a fault plan holds back a seeded half of all
//! transmissions, which reorders arrivals at the ranks. The algorithms
//! must still deliver every payload byte for byte — they may rely on
//! tags and source filters, never on arrival order — and a seed that
//! breaks one replays exactly. Every delayed run also replays conformant
//! through the analyzer's cost engine: with arrivals out of issue order,
//! that is where the mailbox rule (earliest arrival, then seq) is
//! checked on receives that had a choice.
//!
//! Each group runs on a one-port and a five-port Paragon. One port
//! delivers into a node in the order the sends were issued, so there a
//! delay reorders arrivals only by moving later sends; with five ports a
//! delayed message is also overtaken by messages issued after it.

use std::ops::Range;

use stp_analyzer::{replay, Schedule};
use stp_broadcast::prelude::*;
use stp_broadcast::runtime::{EventLog, FaultPlan};
use stp_broadcast::stp::runner::{try_record_sources, RecordedRun};

/// Record `kind` on `machine` from `s` seeded-random sources of 64
/// bytes, under `faults` if given.
fn record(machine: &Machine, kind: AlgoKind, s: usize, faults: Option<&FaultPlan>) -> RecordedRun {
    let sources = SourceDist::Random { seed: 31 }.place(machine.shape, s);
    try_record_sources(
        machine,
        kind.default_lib(),
        &sources,
        &|src| payload_for(src, 64),
        kind.build().as_ref(),
        &RunControl::with_faults(faults),
    )
    .unwrap_or_else(|e| panic!("{} under {faults:?}: {e}", kind.name()))
}

/// Per rank, the senders of the messages it received, in arrival order.
/// Source filters fix the order of the receives themselves (all but
/// 2-Step's wildcard gather); the order in which messages reach a
/// mailbox is what a delay moves.
fn arrival_order(log: &EventLog, p: usize) -> Vec<Vec<usize>> {
    let mut arrivals = vec![Vec::new(); p];
    for r in &log.recvs {
        arrivals[r.rank].push((r.arrival_ns, r.seq, r.src));
    }
    arrivals
        .into_iter()
        .map(|mut rank| {
            rank.sort_unstable();
            rank.into_iter().map(|(_, _, src)| src).collect()
        })
        .collect()
}

/// Run every algorithm of `kinds` under `delay=1/2:<delay_ns>` at each
/// seed of `seeds`, on both machines. Every run must deliver, must
/// replay an identical event log from its seed and must replay
/// conformant through the cost engine, and on each machine at
/// least one run of the group must reorder some rank's arrivals against
/// the clean run — otherwise the delays tested nothing.
fn survive_delays(
    kinds: &[AlgoKind],
    shape: MeshShape,
    s: usize,
    delay_ns: u64,
    seeds: Range<u64>,
) {
    let one_port = Machine::paragon(shape.rows, shape.cols);
    let mut five_ports = one_port.clone();
    five_ports.params = five_ports.params.clone().with_ports(5);
    for machine in [one_port, five_ports] {
        let ports = machine.params.ports_per_node;
        let mut reordered = false;
        for &kind in kinds {
            let clean = arrival_order(&record(&machine, kind, s, None).events, shape.p());
            for seed in seeds.clone() {
                let plan = FaultPlan::parse(&format!("seed={seed},delay=1/2:{delay_ns}")).unwrap();
                let run = record(&machine, kind, s, Some(&plan));
                let verified = run.outcome.as_ref().is_some_and(|o| o.verified);
                assert!(
                    verified,
                    "{} on {ports} port(s) failed under {plan:?}",
                    kind.name()
                );
                let again = record(&machine, kind, s, Some(&plan));
                assert!(
                    again.events == run.events,
                    "{} on {ports} port(s) under {plan:?} does not replay from its seed",
                    kind.name()
                );
                let sched = Schedule::from_recorded(&run, shape.p());
                let report = replay(&sched, &machine, kind.default_lib(), true);
                assert!(
                    report.conformant(),
                    "{} on {ports} port(s) under {plan:?}: {:?}",
                    kind.name(),
                    report.divergences
                );
                reordered |= arrival_order(&run.events, shape.p()) != clean;
            }
        }
        assert!(
            reordered,
            "no seed reordered an arrival of {kinds:?} on {ports} port(s)"
        );
    }
}

#[test]
fn merge_algorithms_survive_random_delays() {
    let kinds = [AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::BrXyDim];
    survive_delays(&kinds, MeshShape::new(4, 4), 6, 150_000, 5..6);
}

#[test]
fn library_algorithms_survive_random_delays() {
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::MpiAllGather,
    ];
    survive_delays(&kinds, MeshShape::new(4, 4), 6, 150_000, 6..7);
}

#[test]
fn repositioning_and_partitioning_survive_random_delays() {
    let kinds = [
        AlgoKind::ReposLin,
        AlgoKind::ReposXySource,
        AlgoKind::PartLin,
        AlgoKind::PartXySource,
    ];
    survive_delays(&kinds, MeshShape::new(4, 4), 5, 100_000, 7..8);
}

#[test]
fn repeated_runs_with_different_fault_seeds() {
    // Many interleavings of the same broadcast — a cheap schedule fuzzer.
    survive_delays(&[AlgoKind::BrLin], MeshShape::new(3, 5), 7, 60_000, 0..10);
}

#[test]
fn odd_meshes_under_fault() {
    let kinds = [AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::PartXyDim];
    survive_delays(&kinds, MeshShape::new(5, 5), 9, 80_000, 11..12);
}
