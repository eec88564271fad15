//! End-to-end tests of the supervised execution plane: a sweep with
//! deliberately broken algorithms (one panicking, one deadlocking) must
//! finish every healthy point and quarantine the bad ones, and an
//! interrupted sweep must resume from its checkpoint replaying zero
//! completed points with a byte-identical report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use mpp_model::{LibraryKind, Machine};
use stp_core::checkpoint::{journal_path, CheckpointFile};
use stp_core::distribution::SourceDist;
use stp_core::msgset::payload_for;
use stp_core::runner::{
    try_run_alg_controlled, try_run_sources_controlled, AlgoKind, RunControl, SweepRunner,
};
use stp_core::supervise::{
    chaos_algorithms, matrix_points, MatrixAlg, MatrixPoint, SuperviseOpts, SupervisedRun,
    CHAOS_PANIC_MSG,
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

/// Delete a checkpoint store: its snapshot and its journal.
fn remove_store(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(journal_path(path));
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
/// quantities only, so records are comparable across runs and resumes).
fn run_point(pt: &Point, opts: &SuperviseOpts) -> Result<String, mpp_runtime::SimError> {
    let machine = Machine::paragon(4, 4);
    let sources = pt.dist.place(machine.shape, pt.s);
    let payload_of = |src: usize| payload_for(src, 256);
    let control = RunControl {
        faults: None,
        budget: opts.budget.clone(),
        cancel: Some(opts.cancel.clone()),
        exec: None,
    };
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

/// Resumable supervised sweep over `points`. Returns the report lines
/// (records, then failures, then skips — each in grid order) plus how
/// many times the job actually executed (a failed point is retried
/// once, so it counts twice).
fn sweep(points: Vec<Point>, checkpoint: Option<&CheckpointFile>) -> (Vec<String>, usize) {
    let opts = SuperviseOpts::default();
    let ids = points.iter().map(point_id).collect();
    let executed = AtomicUsize::new(0);
    let run = SweepRunner::new().run_resumable(
        points,
        ids,
        checkpoint,
        String::clone,
        |record| Ok(record.to_string()),
        point_id,
        |pt| {
            executed.fetch_add(1, Ordering::Relaxed);
            run_point(pt, &opts)
        },
        |_, record| record.clone(),
        &opts,
    );
    let failed = run
        .failures
        .iter()
        .map(|f| format!("{}:FAILED after {} attempts: {}", f.id, f.attempts, f.error));
    let skipped = run.skipped.iter().map(|id| format!("{id}:SKIPPED"));
    let report = run.done.iter().cloned().chain(failed).chain(skipped);
    (report.collect(), executed.load(Ordering::Relaxed))
}

#[test]
fn chaos_sweep_finishes_healthy_points() {
    hush();
    let (report, _) = sweep(grid(), None);
    assert_eq!(report.len(), 14, "wrong point count");
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
    assert!(!report.iter().any(|l| l.contains(":SKIPPED")));
}

#[test]
fn interrupted_sweep_resumes_without_replaying_completed_points() {
    hush();
    let path = std::env::temp_dir().join(format!("stp-supervision-{}.ckpt", std::process::id()));
    remove_store(&path);
    let sig = "supervision-test";

    // The uninterrupted reference run.
    let (reference, ran_all) = sweep(grid(), None);
    assert_eq!(ran_all, 14 + 2, "every point once, failed points twice");

    // "Interrupted" run: only the first half of the grid reaches the
    // checkpoint before the (simulated) kill.
    let cp = CheckpointFile::open(&path, sig).expect("open checkpoint");
    let half: Vec<Point> = grid().into_iter().take(7).collect();
    let _ = sweep(half, Some(&cp));
    let completed_half = cp.completed();
    assert!(completed_half >= 5, "most of the half-grid must complete");
    drop(cp);

    // Resume over the full grid: completed points replay verbatim, only
    // the remainder (and the failed chaos points) re-run.
    let cp = CheckpointFile::open(&path, sig).expect("re-open checkpoint");
    assert_eq!(cp.completed(), completed_half, "checkpoint must persist");
    let (resumed, ran_resume) = sweep(grid(), Some(&cp));
    assert_eq!(
        ran_resume,
        ran_all - completed_half,
        "resume must replay zero completed points"
    );
    assert_eq!(
        resumed, reference,
        "resumed report must be byte-identical to the uninterrupted run"
    );
    remove_store(&path);
}

/// A resumable sweep of acceptance-matrix points, grouped by experiment
/// the way `stp sweep` groups them. Returns the run, its report (as the
/// report lines of [`sweep`]) and how many simulations ran.
fn matrix_sweep(
    points: Vec<MatrixPoint>,
    checkpoint: Option<&CheckpointFile>,
) -> (SupervisedRun<String>, Vec<String>, usize) {
    let opts = SuperviseOpts::default();
    let ids = points.iter().map(MatrixPoint::id).collect();
    let simulated = AtomicUsize::new(0);
    let run = SweepRunner::new().run_resumable(
        points,
        ids,
        checkpoint,
        String::clone,
        |record| Ok(record.to_string()),
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
        &opts,
    );
    let failed = run
        .failures
        .iter()
        .map(|f| format!("{}:FAILED after {} attempts: {}", f.id, f.attempts, f.error));
    let skipped = run.skipped.iter().map(|id| format!("{id}:SKIPPED"));
    let report = run
        .done
        .iter()
        .cloned()
        .chain(failed)
        .chain(skipped)
        .collect();
    (run, report, simulated.load(Ordering::Relaxed))
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
    let (run, _, simulated) = matrix_sweep(points, None);
    assert_eq!((run.total, run.experiments), (2, 1));
    assert_eq!(simulated, 2, "one representative, retried once");
    assert!(run.done.is_empty() && run.skipped.is_empty());
    let ids: Vec<&str> = run.failures.iter().map(|f| f.id.as_str()).collect();
    assert_eq!(ids, ["chaos:panic/R/1x2/s2", "chaos:panic/C/1x2/s2"]);
    let [first, second] = &run.failures[..] else {
        unreachable!()
    };
    assert_eq!(
        (first.attempts, &first.error),
        (second.attempts, &second.error)
    );
    assert_eq!(first.attempts, 2);
    assert!(first.error.contains(CHAOS_PANIC_MSG), "{}", first.error);
}

#[test]
fn a_checkpoint_holding_part_of_an_experiment_resumes_byte_identically() {
    hush();
    // On 1x2 the matrix is all-sources only: eight labels of each of
    // the algorithms' experiments.
    let (reference, report, simulated) = matrix_sweep(matrix_points(&[(1, 2)], false), None);
    let algorithms = AlgoKind::all().len();
    assert_eq!(
        (reference.total, reference.experiments),
        (8 * algorithms, algorithms)
    );
    assert_eq!(simulated, algorithms);

    let path = std::env::temp_dir().join(format!("stp-partial-group-{}.ckpt", std::process::id()));
    remove_store(&path);
    // The interrupted run reaches the first label and half the second:
    // every experiment has members on both sides of the cut.
    let cut = algorithms + algorithms / 2;
    let cp = CheckpointFile::open(&path, "partial-group").expect("open checkpoint");
    let mut points = matrix_points(&[(1, 2)], false);
    points.truncate(cut);
    let _ = matrix_sweep(points, Some(&cp));
    assert_eq!(cp.completed(), cut);
    drop(cp);

    let cp = CheckpointFile::open(&path, "partial-group").expect("re-open checkpoint");
    let (resumed, resumed_report, simulated) =
        matrix_sweep(matrix_points(&[(1, 2)], false), Some(&cp));
    assert_eq!((resumed.resumed, resumed.experiments), (cut, algorithms));
    assert_eq!(simulated, algorithms);
    assert_eq!(resumed_report, report);
    assert_eq!(resumed.summary_json(), reference.summary_json());
    assert_eq!(cp.completed(), 8 * algorithms);
    remove_store(&path);
}
