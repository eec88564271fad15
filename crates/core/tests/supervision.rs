//! End-to-end tests of the supervised execution plane: a sweep with
//! deliberately broken algorithms (one panicking, one deadlocking) must
//! finish every healthy point and quarantine the bad ones on *both*
//! executors, and an interrupted sweep must resume from its checkpoint
//! replaying zero completed points with a byte-identical report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use mpp_model::{LibraryKind, Machine};
use mpp_runtime::ExecMode;
use stp_core::checkpoint::CheckpointFile;
use stp_core::distribution::SourceDist;
use stp_core::msgset::payload_for;
use stp_core::runner::{
    try_run_alg_controlled, try_run_sources_controlled, AlgoKind, RunControl, SweepRunner,
};
use stp_core::supervise::{chaos_algorithms, SuperviseOpts};

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
/// quantities only, so records are comparable across runs and resumes).
fn run_point(
    pt: &Point,
    exec: ExecMode,
    opts: &SuperviseOpts,
) -> Result<String, mpp_runtime::SimError> {
    let machine = Machine::paragon(4, 4);
    let sources = pt.dist.place(machine.shape, pt.s);
    let payload_of = |src: usize| payload_for(src, 256);
    let control = RunControl {
        faults: None,
        budget: opts.budget.clone(),
        cancel: Some(opts.cancel.clone()),
        exec: Some(exec),
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
fn sweep(
    points: Vec<Point>,
    exec: ExecMode,
    checkpoint: Option<&CheckpointFile>,
) -> (Vec<String>, usize) {
    let opts = SuperviseOpts::default();
    let ids = points.iter().map(point_id).collect();
    let executed = AtomicUsize::new(0);
    let run = SweepRunner::new().run_resumable(
        points,
        ids,
        checkpoint,
        String::clone,
        |record| Ok(record.to_string()),
        |pt| {
            executed.fetch_add(1, Ordering::Relaxed);
            run_point(pt, exec, &opts)
        },
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
fn chaos_sweep_finishes_healthy_points_on_both_executors() {
    hush();
    for exec in [ExecMode::Cooperative, ExecMode::Threaded] {
        let (report, _) = sweep(grid(), exec, None);
        assert_eq!(report.len(), 14, "{}: wrong point count", exec.name());
        let failed: Vec<&String> = report.iter().filter(|l| l.contains(":FAILED")).collect();
        assert_eq!(
            failed.len(),
            2,
            "{}: exactly the two chaos points must fail: {report:?}",
            exec.name()
        );
        let panic_line = failed
            .iter()
            .find(|l| l.starts_with("chaos:panic/"))
            .unwrap_or_else(|| panic!("{}: no chaos:panic failure in {failed:?}", exec.name()));
        assert!(
            panic_line.contains("deliberate chaos panic"),
            "{}: {panic_line}",
            exec.name()
        );
        let deadlock_line = failed
            .iter()
            .find(|l| l.starts_with("chaos:deadlock/"))
            .unwrap_or_else(|| panic!("{}: no chaos:deadlock failure in {failed:?}", exec.name()));
        assert!(
            deadlock_line.contains("simulation deadlock on"),
            "{}: {deadlock_line}",
            exec.name()
        );
        // Every healthy point completed and verified.
        let done = report
            .iter()
            .filter(|l| l.contains("verified=true"))
            .count();
        assert_eq!(done, 12, "{}: healthy points lost: {report:?}", exec.name());
        assert!(!report.iter().any(|l| l.contains(":SKIPPED")));
    }
}

#[test]
fn interrupted_sweep_resumes_without_replaying_completed_points() {
    hush();
    for exec in [ExecMode::Cooperative, ExecMode::Threaded] {
        let path = std::env::temp_dir().join(format!(
            "stp-supervision-{}-{}.ckpt",
            std::process::id(),
            exec.name()
        ));
        let _ = std::fs::remove_file(&path);
        let sig = format!("supervision-test:{}", exec.name());

        // The uninterrupted reference run.
        let (reference, ran_all) = sweep(grid(), exec, None);
        assert_eq!(ran_all, 14 + 2, "every point once, failed points twice");

        // "Interrupted" run: only the first half of the grid reaches the
        // checkpoint before the (simulated) kill.
        let cp = CheckpointFile::open(&path, &sig).expect("open checkpoint");
        let half: Vec<Point> = grid().into_iter().take(7).collect();
        let (_, ran_half) = sweep(half, exec, Some(&cp));
        let completed_half = cp.completed();
        assert!(completed_half >= 5, "most of the half-grid must complete");
        drop(cp);

        // Resume over the full grid: completed points replay verbatim,
        // only the remainder (and the failed chaos points) re-run.
        let cp = CheckpointFile::open(&path, &sig).expect("re-open checkpoint");
        assert_eq!(cp.completed(), completed_half, "checkpoint must persist");
        let (resumed, ran_resume) = sweep(grid(), exec, Some(&cp));
        assert_eq!(
            ran_resume,
            ran_all - completed_half,
            "{}: resume must replay zero completed points",
            exec.name()
        );
        assert_eq!(
            resumed,
            reference,
            "{}: resumed report must be byte-identical to the uninterrupted run",
            exec.name()
        );
        let _ = std::fs::remove_file(&path);
        let _ = ran_half;
    }
}
