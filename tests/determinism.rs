//! The simulator must be bit-for-bit deterministic: identical inputs →
//! identical virtual times, per-rank statistics, and results, regardless
//! of host thread scheduling.

use stp_broadcast::prelude::*;

fn run_twice(machine: &Machine, kind: AlgoKind, dist: SourceDist, s: usize, len: usize) {
    let exp = Experiment {
        machine,
        dist,
        s,
        msg_len: len,
        kind,
    };
    let a = exp.run().expect("run failed");
    let b = exp.run().expect("run failed");
    assert_eq!(
        a.makespan_ns,
        b.makespan_ns,
        "{} makespan differs",
        kind.name()
    );
    assert_eq!(
        a.finish_ns,
        b.finish_ns,
        "{} finish times differ",
        kind.name()
    );
    assert_eq!(
        a.contention_ns,
        b.contention_ns,
        "{} contention differs",
        kind.name()
    );
    for (ra, rb) in a.stats.iter().zip(&b.stats) {
        assert_eq!(ra, rb, "{} stats differ", kind.name());
    }
}

#[test]
fn all_algorithms_deterministic_on_paragon() {
    let machine = Machine::paragon(5, 6);
    for &kind in AlgoKind::all() {
        run_twice(&machine, kind, SourceDist::Cross, 9, 512);
    }
}

#[test]
fn all_algorithms_deterministic_on_t3d() {
    let machine = Machine::t3d(27, 3);
    for &kind in AlgoKind::all() {
        run_twice(&machine, kind, SourceDist::Random { seed: 1 }, 11, 256);
    }
}

#[test]
fn determinism_across_many_repeats() {
    let machine = Machine::paragon(8, 8);
    let exp = Experiment {
        machine: &machine,
        dist: SourceDist::Equal,
        s: 13,
        msg_len: 1024,
        kind: AlgoKind::BrXySource,
    };
    let reference = exp.run().expect("run failed");
    for _ in 0..5 {
        let again = exp.run().expect("run failed");
        assert_eq!(reference.makespan_ns, again.makespan_ns);
    }
}

#[test]
fn flat_and_rope_sends_cost_identical_virtual_time() {
    // Virtual send cost must depend only on the byte length, not on
    // whether the payload arrived as one flat buffer or a multi-segment
    // rope — otherwise the zero-copy conversion would shift the paper's
    // reproduced timings.
    let machine = Machine::paragon(3, 4);
    let p = machine.p();
    let ring = |payload_of: &(dyn Fn() -> Option<mpp_sim::Payload> + Sync)| {
        simulate(&machine, |mut comm| async move {
            let me = comm.rank();
            let next = (me + 1) % p;
            match payload_of() {
                Some(rope) => comm.send_payload(next, 5, rope),
                None => comm.send(next, 5, &[0x5A; 1536]),
            }
            comm.recv(Some((me + p - 1) % p), Some(5)).await.data.len()
        })
    };
    let flat = ring(&|| None);
    let rope = ring(&|| {
        // Same 1536 bytes as three shared 512-byte segments.
        let seg = mpp_sim::Payload::from_slice(&[0x5A; 512]);
        let mut rope = seg.clone();
        rope.push_payload(&seg);
        rope.push_payload(&seg);
        Some(rope)
    });
    assert!(flat.results.iter().all(|&n| n == 1536));
    assert_eq!(flat.results, rope.results);
    assert_eq!(
        flat.makespan_ns, rope.makespan_ns,
        "rope framing changed virtual time"
    );
    assert_eq!(flat.finish_ns, rope.finish_ns);
    assert_eq!(flat.contention_ns, rope.contention_ns);
}

#[test]
fn parallel_sweep_bit_identical_to_sequential() {
    // The sweep engine only reorders *which host thread* runs each
    // simulation; every virtual quantity must be unchanged.
    let machine = Machine::paragon(6, 6);
    let machine = &machine;
    let grid: Vec<Experiment> = [AlgoKind::TwoStep, AlgoKind::BrLin, AlgoKind::ReposXySource]
        .iter()
        .flat_map(|&kind| {
            [4usize, 12, 30].into_iter().map(move |s| Experiment {
                machine,
                dist: SourceDist::Cross,
                s,
                msg_len: 768,
                kind,
            })
        })
        .collect();
    let run = |runner: SweepRunner| runner.map(grid.clone(), |e| e.run().expect("run failed"));
    let seq = run(SweepRunner::sequential());
    let par = run(SweepRunner::new().with_workers(4));
    assert_eq!(seq.len(), par.len());
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert!(a.verified && b.verified);
        assert_eq!(
            a.makespan_ns, b.makespan_ns,
            "grid point {i} makespan differs"
        );
        assert_eq!(
            a.finish_ns, b.finish_ns,
            "grid point {i} finish times differ"
        );
        assert_eq!(a.contention_events, b.contention_events);
        assert_eq!(a.contention_ns, b.contention_ns);
        assert_eq!(a.stats, b.stats, "grid point {i} statistics differ");
    }
}

#[test]
fn different_seeds_change_t3d_times() {
    // The rotated-block placement must actually depend on the seed, and
    // timing must follow it.
    let a = Experiment {
        machine: &Machine::t3d(64, 1),
        dist: SourceDist::SquareBlock,
        s: 16,
        msg_len: 4096,
        kind: AlgoKind::BrLin,
    }
    .run()
    .expect("run failed");
    let mut any_differs = false;
    for seed in 2..8 {
        let b = Experiment {
            machine: &Machine::t3d(64, seed),
            dist: SourceDist::SquareBlock,
            s: 16,
            msg_len: 4096,
            kind: AlgoKind::BrLin,
        }
        .run()
        .expect("run failed");
        assert!(b.verified);
        if b.makespan_ns != a.makespan_ns {
            any_differs = true;
        }
    }
    assert!(any_differs, "placement seed has no timing effect at all?");
}

/// The schedule counts of `counters`, in `EventLog` array order.
fn schedule_counts(k: &stp_broadcast::runtime::KernelCounters) -> [u64; 6] {
    [k.sends, k.xfers, k.recvs, k.iter_ends, k.drops, k.finishes]
}

/// The lengths of the same arrays in a recording.
fn log_lengths(log: &stp_broadcast::runtime::EventLog) -> [u64; 6] {
    [
        log.sends.len(),
        log.xfers.len(),
        log.recvs.len(),
        log.iter_ends.len(),
        log.drops.len(),
        log.finishes.len(),
    ]
    .map(|n| n as u64)
}

/// Run one point recorded and plain. The recorded run's counters equal
/// its log's array lengths; the plain run, with no log, has the same
/// counts and the same outcome. Returns the counts.
fn counters_match_the_log(
    machine: &Machine,
    sources: &[usize],
    lib: LibraryKind,
    alg: &dyn stp_broadcast::stp::algorithms::StpAlgorithm,
    faults: Option<&stp_broadcast::runtime::FaultPlan>,
) -> [u64; 6] {
    use stp_broadcast::stp::runner::{try_record_sources, try_run_alg_controlled, RunControl};
    let control = RunControl {
        faults: faults.cloned(),
        ..RunControl::default()
    };
    let payload_of = |src: usize| stp_broadcast::stp::msgset::payload_for(src, 64);
    let recorded = try_record_sources(machine, lib, sources, &payload_of, alg, &control)
        .expect("recording failed");
    let q = try_run_alg_controlled(machine, lib, sources, &payload_of, alg, &control)
        .expect("run failed");
    let r = recorded.outcome.unwrap();
    let counts = schedule_counts(&r.counters);
    assert_eq!(counts, log_lengths(&recorded.events), "{}", alg.name());
    assert_eq!(r.counters.schedule_events() as usize, recorded.events.len());
    assert_eq!(schedule_counts(&q.counters), counts, "{}", alg.name());
    assert_eq!(
        (q.makespan_ns, &q.finish_ns, &q.stats, q.verified),
        (r.makespan_ns, &r.finish_ns, &r.stats, r.verified)
    );
    assert_eq!(
        (q.contention_events, q.contention_ns),
        (r.contention_events, r.contention_ns)
    );
    counts
}

/// Recording a run changes what is kept, not what happens: over the
/// quick matrix at one and five ports, on a T3D, and under a lossy fault
/// plan, a plain run's kernel counters equal the recorded log's lengths
/// and its outcome is the recorded run's.
#[test]
fn kernel_counters_equal_the_recorded_log() {
    use stp_broadcast::stp::supervise::{matrix_points, matrix_shapes};
    let mut seen = std::collections::HashSet::new();
    for ports in [1, 5] {
        for mut pt in matrix_points(&matrix_shapes(true), false) {
            if !seen.insert((ports, pt.experiment())) {
                continue;
            }
            pt.machine.params = pt.machine.params.clone().with_ports(ports);
            counters_match_the_log(
                &pt.machine,
                &pt.sources,
                pt.alg.lib(),
                pt.alg.build().as_ref(),
                None,
            );
        }
    }
    let t3d = Machine::t3d(16, 7);
    let sources = SourceDist::Random { seed: 3 }.place(t3d.shape, 6);
    for &kind in AlgoKind::all() {
        counters_match_the_log(
            &t3d,
            &sources,
            kind.default_lib(),
            kind.build().as_ref(),
            None,
        );
    }
    let mesh = Machine::paragon(4, 4);
    let sources = SourceDist::Equal.place(mesh.shape, 5);
    let plan = stp_broadcast::runtime::FaultPlan::transient_drops(9, 1, 8, 6);
    let mut drops = 0;
    for &kind in AlgoKind::all() {
        drops += counters_match_the_log(
            &mesh,
            &sources,
            kind.default_lib(),
            kind.build().as_ref(),
            Some(&plan),
        )[4];
    }
    assert!(drops > 0, "a 1/8 drop rate must lose some attempt");
}

/// A deadlocked run reports its counts in the error, and they equal the
/// partial recording's, short of its `blocked` records.
#[test]
fn a_deadlock_reports_the_counters_of_its_partial_log() {
    use stp_broadcast::runtime::SimError;
    use stp_broadcast::stp::runner::{try_record_sources, try_run_alg_controlled, RunControl};
    use stp_broadcast::stp::supervise::ChaosDeadlock;
    let machine = Machine::paragon(4, 4);
    let sources = SourceDist::Equal.place(machine.shape, 4);
    let payload_of = |src: usize| stp_broadcast::stp::msgset::payload_for(src, 64);
    let recorded = try_record_sources(
        &machine,
        LibraryKind::Nx,
        &sources,
        &payload_of,
        &ChaosDeadlock,
        &RunControl::default(),
    )
    .expect("recording failed");
    assert!(recorded.deadlocked);
    let plain = try_run_alg_controlled(
        &machine,
        LibraryKind::Nx,
        &sources,
        &payload_of,
        &ChaosDeadlock,
        &RunControl::default(),
    );
    let Err(SimError::Deadlock { info, .. }) = plain else {
        panic!("the fixture must deadlock: {plain:?}");
    };
    assert_eq!(
        schedule_counts(&info.counters),
        log_lengths(&recorded.events)
    );
    assert_eq!(schedule_counts(&info.counters), [16, 16, 0, 0, 0, 0]);
    assert_eq!(recorded.events.blocked.len(), 16);
}
