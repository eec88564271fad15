//! End-to-end tests of the fault-injection plane: seeded transient
//! drops with retry, link outages with adaptive rerouting, node
//! crashes, and the analyzer's delivery-completeness check — all on the
//! deterministic simulator, so every scenario replays byte-identically
//! from its `FaultPlan` seed.

use stp_analyzer::{analyze, AnalyzeOpts, FindingKind, Schedule};
use stp_broadcast::model::{Machine, MachineParams, MeshShape, Placement, Topology};
use stp_broadcast::runtime::{FaultPlan, RetryPolicy};
use stp_broadcast::stp::distribution::SourceDist;
use stp_broadcast::stp::msgset::payload_for;
use stp_broadcast::stp::runner::{try_record_sources, AlgoKind, Experiment, RunControl};

fn experiment(machine: &Machine, kind: AlgoKind, s: usize) -> Experiment<'_> {
    Experiment {
        machine,
        dist: SourceDist::Equal,
        s,
        msg_len: 256,
        kind,
    }
}

/// The acceptance scenario: every algorithm variant completes with full
/// delivery under a transient-drop plan when retry is enabled, and the
/// fault counters account for the recovery.
#[test]
fn all_algorithms_deliver_under_transient_drops() {
    let machine = Machine::paragon(4, 4);
    let control = RunControl {
        faults: Some(FaultPlan::transient_drops(21, 1, 8, 6)),
        ..RunControl::default()
    };
    let mut total_retransmits = 0u64;
    for &kind in AlgoKind::all() {
        let out = experiment(&machine, kind, 5)
            .run_controlled(&control)
            .expect("run failed");
        assert!(
            out.verified,
            "{} lost payload under a recoverable plan",
            kind.name()
        );
        assert!(
            out.stats.iter().all(|st| st.dropped == 0),
            "{} exhausted its retry budget",
            kind.name()
        );
        total_retransmits += out.stats.iter().map(|st| st.retransmits).sum::<u64>();
    }
    assert!(
        total_retransmits > 0,
        "a 1/8 drop rate across 20 algorithms must force retransmits"
    );
}

/// The one 16×16 faulted point, pinned exactly: `Br_xy_source` on
/// Cross(24) with 4 KiB messages under a 1-in-8 drop plan with six
/// attempts recovers every message, and the retransmits cost a fixed
/// amount of virtual time over the clean run.
#[test]
fn faulted_overhead_on_a_16x16_cross() {
    let machine = Machine::paragon(16, 16);
    let exp = Experiment {
        machine: &machine,
        dist: SourceDist::Cross,
        s: 24,
        msg_len: 4096,
        kind: AlgoKind::BrXySource,
    };
    let clean = exp.run().expect("run failed");
    let control = RunControl {
        faults: Some(FaultPlan::parse("seed=11,drop=1/8,retry=6:2000").expect("valid spec")),
        ..RunControl::default()
    };
    let faulted = exp.run_controlled(&control).expect("run failed");
    assert!(clean.verified && faulted.verified);
    let lost: u64 = faulted.stats.iter().map(|st| st.dropped).sum();
    let retransmits: u64 = faulted.stats.iter().map(|st| st.retransmits).sum();
    assert_eq!(lost, 0, "the retry budget must recover every drop");
    assert_eq!(retransmits, 173);
    assert_eq!(clean.makespan_ns, 6_240_467);
    assert_eq!(faulted.makespan_ns, 6_712_974);
}

/// Same seed, same plan ⇒ byte-identical outcome; a different seed picks
/// a different (but equally deterministic) drop pattern.
#[test]
fn fault_plans_replay_from_their_seed() {
    let machine = Machine::paragon(4, 4);
    let exp = experiment(&machine, AlgoKind::BrXySource, 6);
    let control = RunControl {
        faults: Some(FaultPlan::transient_drops(3, 1, 4, 8)),
        ..RunControl::default()
    };
    let a = exp.run_controlled(&control).expect("run failed");
    let b = exp.run_controlled(&control).expect("run failed");
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.finish_ns, b.finish_ns);
    assert_eq!(a.stats, b.stats);
    assert!(a.verified && b.verified);
}

/// A permanent link outage makes messages detour: the run still
/// verifies, the detour cost is visible in the stats and the makespan,
/// and none of it is misattributed to contention.
#[test]
fn link_outage_reroutes_and_charges_detours() {
    let machine = Machine::paragon(4, 4);
    let exp = experiment(&machine, AlgoKind::TwoStep, 4);
    let clean = exp.run().expect("run failed");
    let control = RunControl {
        faults: Some(FaultPlan::parse("link=5-6@0..").expect("valid spec")),
        ..RunControl::default()
    };
    let faulted = exp.run_controlled(&control).expect("run failed");
    assert!(faulted.verified, "rerouting must preserve delivery");
    let rerouted: u64 = faulted.stats.iter().map(|st| st.rerouted_hops).sum();
    let detour_ns: u64 = faulted.stats.iter().map(|st| st.detour_ns).sum();
    assert!(rerouted > 0, "traffic through link 5->6 must detour");
    assert!(detour_ns > 0, "detour hops must cost virtual time");
    // The detoured transfers may sit off the critical path, so the
    // makespan need not grow — but the timing must differ somewhere and
    // replay deterministically.
    assert_ne!(
        faulted.finish_ns, clean.finish_ns,
        "detours must perturb some rank's finish time"
    );
    let again = exp.run_controlled(&control).expect("run failed");
    assert_eq!(faulted.finish_ns, again.finish_ns);
    assert_eq!(faulted.makespan_ns, again.makespan_ns);
}

/// A crashed node severs all its links: messages for it become
/// unroutable, the ranks waiting on them deadlock, and the analyzer
/// pins both the lost messages and the deadlock — with the fault
/// attribution, not as a schedule bug of the algorithm.
#[test]
fn node_crash_is_diagnosed_as_lost_messages() {
    stp_analyzer::hush_expected_panics();
    let machine = Machine::paragon(4, 4);
    let sources = SourceDist::Equal.place(machine.shape, 4);
    let payload_of = |src: usize| payload_for(src, 64);
    let control = RunControl {
        faults: Some(FaultPlan::parse("crash=15@0").expect("valid spec")),
        ..RunControl::default()
    };
    let alg = AlgoKind::BrLin.build();
    let run = try_record_sources(
        &machine,
        AlgoKind::BrLin.default_lib(),
        &sources,
        &payload_of,
        alg.as_ref(),
        &control,
    )
    .expect("recording failed");
    assert!(run.deadlocked, "rank 15's feeders must starve");
    let sched = Schedule::from_recorded(&run, machine.p());
    assert!(
        sched.lost_seqs().next().is_some(),
        "messages into the crashed node must be recorded as lost"
    );
    let opts = AnalyzeOpts {
        faulted: true,
        ..AnalyzeOpts::default()
    };
    let analysis = analyze(&sched, &machine, &sources, &payload_of, &opts);
    let kinds: Vec<FindingKind> = analysis.findings.iter().map(|f| f.kind).collect();
    assert!(kinds.contains(&FindingKind::Deadlock));
    assert!(kinds.contains(&FindingKind::LostMessage));
}

/// Under a certain-drop plan every send burns its whole retry budget
/// and is lost; the recorded schedule accounts for exactly
/// `max_attempts` drops per message, one of them exhausted.
#[test]
fn exhausted_budget_counts_losses() {
    stp_analyzer::hush_expected_panics();
    let machine = Machine::paragon(2, 2);
    let sources = vec![0usize];
    let payload_of = |src: usize| payload_for(src, 64);
    let control = RunControl {
        faults: Some(FaultPlan {
            seed: 1,
            drop_num: 1,
            drop_den: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_ns: 100,
            },
            ..FaultPlan::default()
        }),
        ..RunControl::default()
    };
    let alg = AlgoKind::BrLin.build();
    let run = try_record_sources(
        &machine,
        AlgoKind::BrLin.default_lib(),
        &sources,
        &payload_of,
        alg.as_ref(),
        &control,
    )
    .expect("recording failed");
    assert!(run.deadlocked, "total loss must starve the receivers");
    let sched = Schedule::from_recorded(&run, machine.p());
    assert!(!sched.sends.is_empty());
    assert_eq!(
        sched.lost_seqs().count(),
        sched.sends.len(),
        "every send must be recorded as lost"
    );
    assert_eq!(
        sched.drops.len(),
        3 * sched.sends.len(),
        "each message must burn exactly max_attempts attempts"
    );
}

/// Batch members are individually retried: under a certain-drop plan on
/// a five-port machine, every member of a `send_batch` burns its *own*
/// `max_attempts` budget — the drop hash chains on the member's seq,
/// not the batch — so the per-attempt accounting matches the
/// one-send-at-a-time case exactly.
#[test]
fn batch_members_burn_individual_retry_budgets() {
    stp_analyzer::hush_expected_panics();
    let machine = Machine::new(
        "Paragon 2x2 (5-port)",
        Topology::Mesh2D { rows: 2, cols: 2 },
        MachineParams::paragon_nx().with_ports(5),
        Placement::Identity,
        MeshShape::new(2, 2),
    );
    let sources = vec![0usize];
    let payload_of = |src: usize| payload_for(src, 64);
    let control = RunControl {
        faults: Some(FaultPlan {
            seed: 1,
            drop_num: 1,
            drop_den: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff_ns: 100,
            },
            ..FaultPlan::default()
        }),
        ..RunControl::default()
    };
    // KPort_Alltoall ships the source's message to all three peers in
    // one batch — three members, one α_send.
    let alg = AlgoKind::KPortAlltoall.build();
    let run = try_record_sources(
        &machine,
        AlgoKind::KPortAlltoall.default_lib(),
        &sources,
        &payload_of,
        alg.as_ref(),
        &control,
    )
    .expect("recording failed");
    assert!(run.deadlocked, "total loss must starve the receivers");
    let sched = Schedule::from_recorded(&run, machine.p());
    assert_eq!(sched.sends.len(), 3, "one batch, three members");
    assert_eq!(
        sched.lost_seqs().count(),
        sched.sends.len(),
        "every batch member must be recorded as lost"
    );
    assert_eq!(
        sched.drops.len(),
        3 * sched.sends.len(),
        "each batch member must burn exactly max_attempts attempts"
    );
}

/// A recoverable drop plan on the five-port machine: the k-ported
/// algorithms must retransmit dropped batch members and still verify,
/// with the recovery visible in the retransmit counters.
#[test]
fn kport_algorithms_deliver_under_transient_drops() {
    let machine = Machine::new(
        "Paragon 4x4 (5-port)",
        Topology::Mesh2D { rows: 4, cols: 4 },
        MachineParams::paragon_nx().with_ports(5),
        Placement::Identity,
        MeshShape::new(4, 4),
    );
    let control = RunControl {
        faults: Some(FaultPlan::transient_drops(21, 1, 8, 6)),
        ..RunControl::default()
    };
    let mut total_retransmits = 0u64;
    for kind in [
        AlgoKind::KPortLin,
        AlgoKind::KPortScatter,
        AlgoKind::KPortAlltoall,
    ] {
        let out = experiment(&machine, kind, 5)
            .run_controlled(&control)
            .expect("run failed");
        assert!(
            out.verified,
            "{} lost payload under a recoverable plan",
            kind.name()
        );
        assert!(
            out.stats.iter().all(|st| st.dropped == 0),
            "{} exhausted its retry budget",
            kind.name()
        );
        total_retransmits += out.stats.iter().map(|st| st.retransmits).sum::<u64>();
    }
    assert!(
        total_retransmits > 0,
        "a 1/8 drop rate across batched transmits must force retransmits"
    );
}
