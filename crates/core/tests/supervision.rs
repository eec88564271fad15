//! End-to-end tests of the supervised execution plane: a sweep with
//! deliberately broken algorithms (one panicking, one deadlocking) must
//! finish every healthy point and quarantine the bad ones, and a failed
//! experiment fails every point that shares it under the point's own id.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use mpp_model::{LibraryKind, Machine};
use stp_core::distribution::SourceDist;
use stp_core::msgset::payload_for;
use stp_core::runner::{
    try_run_alg_controlled, try_run_sources_controlled, AlgoKind, RunControl, SweepRunner,
};
use stp_core::supervise::{
    chaos_algorithms, MatrixAlg, MatrixPoint, SupervisedRun, CHAOS_PANIC_MSG,
};

/// Silence the two expected panic flavours (this is an integration test
/// — the crate-internal test hook is not visible here).
fn hush() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("deliberate chaos panic") && !msg.contains("simulation deadlock on") {
                default_hook(info);
            }
        }));
    });
}

/// One grid point: a real algorithm or a chaos fixture, by name.
struct Point {
    name: String,
    kind: Option<AlgoKind>,
    dist: SourceDist,
    s: usize,
}

/// A small mixed grid: twelve healthy points plus the two chaos
/// fixtures, chaos in the middle so healthy points run on both sides.
fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for kind in [AlgoKind::TwoStep, AlgoKind::BrLin, AlgoKind::BrXySource] {
        for dist in [SourceDist::Equal, SourceDist::Cross] {
            for s in [4usize, 16] {
                points.push(Point {
                    name: kind.name().to_string(),
                    kind: Some(kind),
                    dist: dist.clone(),
                    s,
                });
            }
        }
    }
    for (i, (name, _)) in chaos_algorithms().into_iter().enumerate() {
        points.insert(
            4 + i,
            Point {
                name: name.to_string(),
                kind: None,
                dist: SourceDist::Equal,
                s: 2,
            },
        );
    }
    points
}

fn point_id(pt: &Point) -> String {
    format!("{}/{}/s{}", pt.name, pt.dist.name(), pt.s)
}

/// Run one grid point to its deterministic record string (virtual
/// quantities only, so records are comparable across runs).
fn run_point(pt: &Point) -> Result<String, mpp_runtime::SimError> {
    let machine = Machine::paragon(4, 4);
    let sources = pt.dist.place(machine.shape, pt.s);
    let payload_of = |src: usize| payload_for(src, 256);
    let control = RunControl::default();
    let out = match pt.kind {
        Some(kind) => try_run_sources_controlled(
            &machine,
            kind.default_lib(),
            &sources,
            &payload_of,
            kind,
            &control,
        )?,
        None => {
            let build = chaos_algorithms()
                .into_iter()
                .find(|(name, _)| *name == pt.name)
                .expect("chaos fixture by name")
                .1;
            let alg = build();
            try_run_alg_controlled(
                &machine,
                LibraryKind::Nx,
                &sources,
                &payload_of,
                alg.as_ref(),
                &control,
            )?
        }
    };
    Ok(format!(
        "{}:makespan={},verified={}",
        point_id(pt),
        out.makespan_ns,
        out.verified
    ))
}

/// Grouped supervised sweep over `points`. Returns the report lines
/// (records, then failures — each in grid order) plus how many times the
/// job actually executed (once per point, failed points included).
fn sweep(points: Vec<Point>) -> (Vec<String>, usize) {
    let ids = points.iter().map(point_id).collect();
    let executed = AtomicUsize::new(0);
    let run = SweepRunner::new().run_grouped(
        points,
        ids,
        point_id,
        |pt| {
            executed.fetch_add(1, Ordering::Relaxed);
            run_point(pt)
        },
        |_, record| record.clone(),
    );
    let failed = run
        .failures
        .iter()
        .map(|f| format!("{}:FAILED: {}", f.id, f.error));
    let report = run.done.iter().cloned().chain(failed);
    (report.collect(), executed.load(Ordering::Relaxed))
}

#[test]
fn chaos_sweep_finishes_healthy_points() {
    hush();
    let (report, ran) = sweep(grid());
    assert_eq!(report.len(), 14, "wrong point count");
    assert_eq!(ran, 14, "every point once, failed points too");
    let failed: Vec<&String> = report.iter().filter(|l| l.contains(":FAILED")).collect();
    assert_eq!(
        failed.len(),
        2,
        "exactly the two chaos points must fail: {report:?}"
    );
    let panic_line = failed
        .iter()
        .find(|l| l.starts_with("chaos:panic/"))
        .unwrap_or_else(|| panic!("no chaos:panic failure in {failed:?}"));
    assert!(
        panic_line.contains("deliberate chaos panic"),
        "{panic_line}"
    );
    let deadlock_line = failed
        .iter()
        .find(|l| l.starts_with("chaos:deadlock/"))
        .unwrap_or_else(|| panic!("no chaos:deadlock failure in {failed:?}"));
    assert!(
        deadlock_line.contains("simulation deadlock on"),
        "{deadlock_line}"
    );
    // Every healthy point completed and verified.
    let done = report
        .iter()
        .filter(|l| l.contains("verified=true"))
        .count();
    assert_eq!(done, 12, "healthy points lost: {report:?}");
}

/// A supervised sweep of acceptance-matrix points, grouped by experiment
/// the way `stp sweep` groups them. Returns the run and how many
/// simulations ran.
fn matrix_sweep(points: Vec<MatrixPoint>) -> (SupervisedRun<String>, usize) {
    let ids = points.iter().map(MatrixPoint::id).collect();
    let simulated = AtomicUsize::new(0);
    let run = SweepRunner::new().run_grouped(
        points,
        ids,
        MatrixPoint::experiment,
        |pt| {
            simulated.fetch_add(1, Ordering::Relaxed);
            let payload_of = |src: usize| payload_for(src, 64);
            try_run_alg_controlled(
                &pt.machine,
                pt.alg.lib(),
                &pt.sources,
                &payload_of,
                pt.alg.build().as_ref(),
                &RunControl::default(),
            )
        },
        |pt, out| {
            format!(
                "{}:makespan={},verified={}",
                pt.id(),
                out.makespan_ns,
                out.verified
            )
        },
    );
    (run, simulated.load(Ordering::Relaxed))
}

#[test]
fn every_member_of_a_failed_experiment_fails_under_its_own_id() {
    hush();
    // With s = p every label places both ranks: one experiment, two points.
    let (_, build) = chaos_algorithms()[0];
    let points = [SourceDist::Row, SourceDist::Column]
        .into_iter()
        .map(|dist| {
            let machine = Machine::paragon(1, 2);
            MatrixPoint {
                sources: dist.place(machine.shape, 2),
                machine,
                dist,
                alg: MatrixAlg::Chaos("chaos:panic", build),
            }
        })
        .collect();
    let (run, simulated) = matrix_sweep(points);
    assert_eq!((run.total, run.experiments), (2, 1));
    assert_eq!(simulated, 1, "one representative, run once");
    assert!(run.done.is_empty());
    let ids: Vec<&str> = run.failures.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(ids, ["chaos:panic/R/1x2/s2", "chaos:panic/C/1x2/s2"]);
    let [first, second] = &run.failures[..] else {
        unreachable!()
    };
    assert_eq!(first.error, second.error);
    assert!(first.error.contains(CHAOS_PANIC_MSG), "{}", first.error);
    // The report's failure records: each member's id, the one error.
    let record = |id: &str| format!("{{\"id\":\"{id}\",\"error\":\"{}\"}}", first.error);
    assert_eq!(
        run.summary_json(),
        format!(
            "\"points\":2,\"failures\":[{},{}],\"skipped\":[]",
            record(ids[0]),
            record(ids[1])
        )
    );
}
