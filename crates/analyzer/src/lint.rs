//! The lint sweep: record + analyze every algorithm over the full
//! distribution × mesh matrix, plus the seeded-bug fixture gate.

use std::sync::Once;

use mpp_model::{FaultPlan, Machine};
use stp_core::algorithms::StpAlgorithm;
use stp_core::checkpoint::CheckpointFile;
use stp_core::distribution::SourceDist;
use stp_core::msgset::payload_for;
use stp_core::runner::{
    record_sources, try_record_sources, AlgoKind, RecordedRun, RunControl, SweepRunner,
};
use stp_core::supervise::{chaos_algorithms, PointStatus, SuperviseOpts};

use crate::checks::{analyze, AnalyzeOpts, Finding, Severity};
use crate::fixtures;
use crate::report::{entry_from_json, entry_to_json};
use crate::schedule::Schedule;
use crate::FindingKind;

/// Configuration of the lint matrix.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Mesh shapes to sweep, `(rows, cols)`.
    pub shapes: Vec<(usize, usize)>,
    /// Message length at each source (bytes).
    pub msg_len: usize,
    /// Opt-in link-overload bound (see [`analyze`]).
    pub max_link_load: Option<u64>,
    /// Optional fault plan active while recording every grid point. The
    /// delivery-completeness check then verifies the algorithms survive
    /// the plan: any message lost for good surfaces as a `lost_message`
    /// finding (plus the payload leaks it causes).
    pub faults: Option<FaultPlan>,
    /// Chaos injection: append the deliberately broken
    /// [`chaos_algorithms`] (a panicking and a deadlocking fixture) to
    /// the grid; [`lint_matrix_supervised`] must finish every healthy
    /// point and quarantine these.
    pub chaos: bool,
    /// Run the performance lints on every grid point (see
    /// [`AnalyzeOpts::perf`]). Off by default: perf smells on the
    /// paper's weaker baselines are expected and belong in a committed
    /// baseline file, not in every sweep.
    pub perf: bool,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            // The acceptance matrix: two paper shapes, one tall, one with
            // a prime dimension (exercises the non-power-of-two paths).
            shapes: vec![(4, 4), (8, 4), (16, 16), (8, 3)],
            msg_len: 64,
            max_link_load: None,
            faults: None,
            chaos: false,
            perf: false,
        }
    }
}

impl LintConfig {
    /// A reduced matrix for unit tests and `stp lint --quick`.
    pub fn quick() -> Self {
        LintConfig {
            shapes: vec![(4, 4), (8, 3)],
            ..LintConfig::default()
        }
    }
}

/// One analyzed grid point of the lint matrix.
#[derive(Debug)]
pub struct LintEntry {
    /// Algorithm display name.
    pub algo: String,
    /// Distribution short name.
    pub dist: String,
    /// Mesh rows.
    pub rows: usize,
    /// Mesh cols.
    pub cols: usize,
    /// Number of sources.
    pub s: usize,
    /// Total sends in the schedule.
    pub sends: usize,
    /// Total receive matches.
    pub recvs: usize,
    /// Heaviest per-link message count.
    pub max_link_load: u64,
    /// Whether the run deadlocked.
    pub deadlocked: bool,
    /// Whether attribution hit an opaque payload (leak check skipped).
    pub opaque_payloads: bool,
    /// Transmission attempts the fault plan dropped (0 on a clean
    /// network; recovered retries count here, lost messages surface as
    /// findings too).
    pub dropped_attempts: usize,
    /// All findings.
    pub findings: Vec<Finding>,
}

/// The eight named source distributions of the paper.
fn paper_dists() -> Vec<SourceDist> {
    vec![
        SourceDist::Row,
        SourceDist::Column,
        SourceDist::Equal,
        SourceDist::DiagRight,
        SourceDist::DiagLeft,
        SourceDist::Band,
        SourceDist::Cross,
        SourceDist::SquareBlock,
    ]
}

/// Source counts checked per shape: a sparse quarter-machine case and
/// the all-sources case.
fn source_counts(p: usize) -> Vec<usize> {
    let sparse = (p / 4).max(2).min(p);
    if sparse == p {
        vec![p]
    } else {
        vec![sparse, p]
    }
}

/// Record and analyze one named algorithm instance on one grid point.
/// The shared engine behind [`lint_point`] and
/// [`lint_matrix_supervised`].
#[allow(clippy::too_many_arguments)]
fn lint_alg_point(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    msg_len: usize,
    alg: &dyn StpAlgorithm,
    lib: mpp_model::LibraryKind,
    algo_name: &str,
    max_link_load: Option<u64>,
    perf: bool,
    control: &RunControl,
) -> Result<LintEntry, mpp_runtime::SimError> {
    let sources = dist.place(machine.shape, s);
    let payload_of = move |src: usize| payload_for(src, msg_len);
    let run = try_record_sources(machine, lib, &sources, &payload_of, alg, control)?;
    let opts = AnalyzeOpts {
        max_link_load,
        lib,
        faulted: control.faults.is_some(),
        perf,
        ..AnalyzeOpts::default()
    };
    Ok(lint_recorded(
        machine, dist, &sources, msg_len, algo_name, &opts, &run,
    ))
}

/// Analyze a run that was already recorded — the second half of a lint
/// point. The caller vouches that `run` is the recording of `algo_name`
/// with `payload_for` messages at `sources`, which `dist` placed; the
/// serve daemon's lint hook passes the plan's own simulation, so a
/// `"lint":true` plan simulates once.
pub fn lint_recorded(
    machine: &Machine,
    dist: &SourceDist,
    sources: &[usize],
    msg_len: usize,
    algo_name: &str,
    opts: &AnalyzeOpts,
    run: &RecordedRun,
) -> LintEntry {
    let payload_of = move |src: usize| payload_for(src, msg_len);
    let sched = Schedule::from_recorded(run, machine.p());
    let analysis = analyze(&sched, machine, sources, &payload_of, opts);
    LintEntry {
        algo: algo_name.to_string(),
        dist: dist.name().to_string(),
        rows: machine.shape.rows,
        cols: machine.shape.cols,
        s: sources.len(),
        sends: analysis.sends,
        recvs: analysis.recvs,
        max_link_load: analysis.max_link_load,
        deadlocked: sched.deadlocked,
        opaque_payloads: analysis.opaque_payloads,
        dropped_attempts: sched.drops.len(),
        findings: analysis.findings,
    }
}

/// Record and analyze a single grid point — the cacheable unit of lint
/// work. The fault plan, executor, budget and cancel token all travel
/// in `control`; a deadlocking schedule is still an `Ok` entry (with
/// [`LintEntry::deadlocked`] and a `deadlock` finding), while rank
/// panics and watchdog trips come back as `Err` for the caller's
/// supervision layer. Pair with [`lint_point_key`] to memoize the
/// report under a content address.
#[allow(clippy::too_many_arguments)]
pub fn lint_point(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    msg_len: usize,
    kind: AlgoKind,
    max_link_load: Option<u64>,
    perf: bool,
    control: &RunControl,
) -> Result<LintEntry, mpp_runtime::SimError> {
    let alg = kind.build();
    lint_alg_point(
        machine,
        dist,
        s,
        msg_len,
        alg.as_ref(),
        kind.default_lib(),
        kind.name(),
        max_link_load,
        perf,
        control,
    )
}

/// Content key of one [`lint_point`] report: every input that can
/// change the analysis is in the string, so equal keys imply
/// byte-identical reports (the simulation and the checks are
/// deterministic). The serve daemon folds this into its plan cache key.
#[allow(clippy::too_many_arguments)]
pub fn lint_point_key(
    machine: &Machine,
    dist: &SourceDist,
    s: usize,
    msg_len: usize,
    kind: AlgoKind,
    max_link_load: Option<u64>,
    perf: bool,
    control: &RunControl,
) -> String {
    format!(
        "lint-point:v1:{}/{}/{}x{}/s{}/L{}:exec={:?}:faults={:?}:mll={:?}:perf={}",
        kind.name(),
        dist.name(),
        machine.shape.rows,
        machine.shape.cols,
        s,
        msg_len,
        control.exec.map(|e| e.name()),
        control.faults,
        max_link_load,
        perf
    )
}

// ---------------------------------------------------------------------------
// The lint sweep (supervised: checkpoint/resume, chaos containment)
// ---------------------------------------------------------------------------

/// One grid point of the sweep: a real algorithm variant or an
/// injected chaos fixture.
enum PointAlg {
    Kind(AlgoKind),
    Chaos(&'static str, fn() -> Box<dyn StpAlgorithm>),
}

impl PointAlg {
    fn name(&self) -> &str {
        match self {
            PointAlg::Kind(kind) => kind.name(),
            PointAlg::Chaos(name, _) => name,
        }
    }

    fn build(&self) -> Box<dyn StpAlgorithm> {
        match self {
            PointAlg::Kind(kind) => kind.build(),
            PointAlg::Chaos(_, build) => build(),
        }
    }

    fn lib(&self) -> mpp_model::LibraryKind {
        match self {
            PointAlg::Kind(kind) => kind.default_lib(),
            PointAlg::Chaos(..) => mpp_model::LibraryKind::Nx,
        }
    }
}

struct GridPoint {
    machine: Machine,
    dist: SourceDist,
    s: usize,
    alg: PointAlg,
}

impl GridPoint {
    /// Stable point id — the checkpoint key and the failure-report name.
    fn id(&self) -> String {
        format!(
            "{}/{}/{}x{}/s{}",
            self.alg.name(),
            self.dist.name(),
            self.machine.shape.rows,
            self.machine.shape.cols,
            self.s
        )
    }
}

/// The full grid of a lint config, chaos fixtures last.
fn grid_points(config: &LintConfig) -> Vec<GridPoint> {
    let mut points = Vec::new();
    for &(rows, cols) in &config.shapes {
        let machine = Machine::paragon(rows, cols);
        for dist in paper_dists() {
            for s in source_counts(machine.p()) {
                for &kind in AlgoKind::all() {
                    points.push(GridPoint {
                        machine: machine.clone(),
                        dist: dist.clone(),
                        s,
                        alg: PointAlg::Kind(kind),
                    });
                }
            }
        }
    }
    if config.chaos {
        let (rows, cols) = config.shapes.first().copied().unwrap_or((4, 4));
        for (name, build) in chaos_algorithms() {
            points.push(GridPoint {
                machine: Machine::paragon(rows, cols),
                dist: SourceDist::Equal,
                s: 2,
                alg: PointAlg::Chaos(name, build),
            });
        }
    }
    points
}

/// Configuration signature guarding checkpoint reuse: progress recorded
/// under one grid/fault-plan must never resume a different one. Open
/// the [`CheckpointFile`] handed to [`lint_matrix_supervised`] with this
/// signature.
pub fn lint_sig(config: &LintConfig) -> String {
    format!(
        "lint:v3:shapes={:?}:len={}:mll={:?}:faults={:?}:chaos={}:perf={}",
        config.shapes,
        config.msg_len,
        config.max_link_load,
        config.faults,
        config.chaos,
        config.perf
    )
}

/// A grid point quarantined by the supervised sweep.
#[derive(Debug)]
pub struct PointFailure {
    /// Stable point id (`algo/dist/RxC/sN`).
    pub id: String,
    /// Attempts consumed before quarantine.
    pub attempts: usize,
    /// The final attempt's error text.
    pub error: String,
}

/// Everything a supervised lint sweep produced.
#[derive(Debug)]
pub struct SupervisedLint {
    /// Completed entries (checkpointed + freshly run), in grid order.
    pub entries: Vec<LintEntry>,
    /// Quarantined points, in grid order.
    pub failures: Vec<PointFailure>,
    /// Point ids skipped by cancellation or the sweep deadline.
    pub skipped: Vec<String>,
    /// Points replayed from the checkpoint instead of re-run.
    pub resumed: usize,
    /// Total grid points.
    pub total: usize,
}

impl SupervisedLint {
    /// True when every point completed without findings.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
            && self.skipped.is_empty()
            && self.entries.iter().all(|e| e.findings.is_empty())
    }
}

/// Record and analyze every algorithm × distribution × shape × s grid
/// point, concurrently on `runner`, under full supervision: each grid
/// point runs isolated (a panicking or deadlocking algorithm is
/// quarantined into [`SupervisedLint::failures`] / a `deadlock` finding,
/// never a process abort), a shared token or wall-clock deadline skips
/// the remainder cleanly, and — when `checkpoint` is given — completed
/// points are persisted after each grid point and replayed verbatim on
/// resume, so an interrupted sweep re-runs only unfinished work. Entries
/// come back in deterministic grid order.
pub fn lint_matrix_supervised(
    config: &LintConfig,
    runner: &SweepRunner,
    opts: &SuperviseOpts,
    checkpoint: Option<&CheckpointFile>,
) -> SupervisedLint {
    hush_expected_panics();
    let points = grid_points(config);
    let total = points.len();
    let ids: Vec<String> = points.iter().map(GridPoint::id).collect();

    // Split the grid into checkpointed points (replayed, never re-run)
    // and points that still need a simulation.
    let mut slots: Vec<Option<PointStatus<LintEntry>>> = Vec::with_capacity(total);
    let mut to_run = Vec::new();
    let mut run_ids = Vec::new();
    let mut resumed = 0usize;
    for (point, id) in points.into_iter().zip(&ids) {
        let cached =
            checkpoint
                .and_then(|cp| cp.get(id))
                .and_then(|text| match entry_from_json(&text) {
                    Ok(entry) => Some(entry),
                    Err(e) => {
                        eprintln!("warning: re-running {id}: bad checkpoint entry ({e})");
                        None
                    }
                });
        match cached {
            Some(entry) => {
                resumed += 1;
                slots.push(Some(PointStatus::Done(entry)));
            }
            None => {
                slots.push(None);
                run_ids.push(id.clone());
                to_run.push(point);
            }
        }
    }

    let msg_len = config.msg_len;
    let max_link_load = config.max_link_load;
    let faults = config.faults.clone();
    let perf = config.perf;
    let run_ids = &run_ids;
    let statuses = runner.map_supervised(
        to_run,
        |pt| {
            let alg = pt.alg.build();
            let control = RunControl {
                faults: faults.clone(),
                budget: opts.budget.clone(),
                cancel: Some(opts.cancel.clone()),
                ..RunControl::default()
            };
            lint_alg_point(
                &pt.machine,
                &pt.dist,
                pt.s,
                msg_len,
                alg.as_ref(),
                pt.alg.lib(),
                pt.alg.name(),
                max_link_load,
                perf,
                &control,
            )
        },
        opts,
        |index, status| {
            if let (Some(cp), PointStatus::Done(entry)) = (checkpoint, status) {
                cp.record(&run_ids[index], &entry_to_json(entry));
            }
        },
    );

    // Splice fresh statuses back into grid order.
    let mut statuses = statuses.into_iter();
    for slot in slots.iter_mut() {
        if slot.is_none() {
            *slot = Some(statuses.next().expect("one status per un-cached point"));
        }
    }

    let mut out = SupervisedLint {
        entries: Vec::new(),
        failures: Vec::new(),
        skipped: Vec::new(),
        resumed,
        total,
    };
    for (slot, id) in slots.into_iter().zip(ids) {
        match slot.expect("every slot filled") {
            PointStatus::Done(entry) => out.entries.push(entry),
            PointStatus::Failed { attempts, error } => out.failures.push(PointFailure {
                id,
                attempts,
                error,
            }),
            PointStatus::Skipped => out.skipped.push(id),
        }
    }
    out
}

/// The "all points must finish" view of [`lint_matrix_supervised`] the
/// tests use: default supervision, no checkpoint, and a panic naming
/// the first point that failed or was skipped.
pub fn lint_matrix(config: &LintConfig, runner: &SweepRunner) -> Vec<LintEntry> {
    let sweep = lint_matrix_supervised(config, runner, &SuperviseOpts::default(), None);
    if let Some(f) = sweep.failures.first() {
        panic!(
            "{} failed after {} attempt(s): {}",
            f.id, f.attempts, f.error
        );
    }
    assert_eq!(sweep.skipped, Vec::<String>::new(), "points skipped");
    sweep.entries
}

/// Verdict for one seeded-bug fixture.
#[derive(Debug)]
pub struct FixtureVerdict {
    /// Fixture name.
    pub name: &'static str,
    /// The finding kind the fixture plants.
    pub expected: FindingKind,
    /// Distinct finding kinds the analyzer reported.
    pub detected: Vec<FindingKind>,
    /// True iff exactly the expected kind was detected.
    pub pass: bool,
}

/// Run the analyzer over every seeded-bug fixture (each on its own
/// machine, with `Equal(s)` sources) and check each bug is caught with
/// the right kind. Correctness fixtures must produce *exactly* the
/// expected kind; perf fixtures must contain it with nothing
/// error-severity (one bad schedule shape can trip several perf smells).
pub fn lint_fixtures() -> Vec<FixtureVerdict> {
    hush_expected_panics();
    let payload_of = |src: usize| payload_for(src, 64);
    fixtures::all()
        .into_iter()
        .map(|fx| {
            let machine = (fx.machine)();
            let sources = SourceDist::Equal.place(machine.shape, fx.s);
            let alg = (fx.build)();
            let run = record_sources(
                &machine,
                mpp_model::LibraryKind::Nx,
                &sources,
                &payload_of,
                alg.as_ref(),
            );
            let sched = Schedule::from_recorded(&run, machine.p());
            let opts = AnalyzeOpts {
                perf: fx.perf,
                ..AnalyzeOpts::default()
            };
            let analysis = analyze(&sched, &machine, &sources, &payload_of, &opts);
            let mut detected: Vec<FindingKind> = analysis.findings.iter().map(|f| f.kind).collect();
            detected.sort();
            detected.dedup();
            let pass = if fx.perf {
                detected.contains(&fx.expected)
                    && detected.iter().all(|k| k.severity() != Severity::Error)
            } else {
                detected == [fx.expected]
            };
            FixtureVerdict {
                name: fx.name,
                expected: fx.expected,
                detected,
                pass,
            }
        })
        .collect()
}

/// Install (once, process-wide) a panic hook that silences the panics
/// the analyzer *expects* while recording broken schedules — the
/// kernel's deadlock/strict aborts and the chaos fixtures' deliberate
/// rank panic. A p-rank deadlock otherwise prints a backtrace header
/// per fixture. All other panics keep the default hook's output.
pub fn hush_expected_panics() {
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
            let expected = msg.contains("simulation deadlock on")
                || msg.contains("ambiguous receive at rank")
                || msg.contains("undelivered message(s)")
                || msg.contains("deliberate chaos panic");
            if !expected {
                default_hook(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_clean_on_real_algorithms() {
        let entries = lint_matrix(&LintConfig::quick(), &SweepRunner::new());
        // 2 shapes × 8 dists × 2 source counts × all algorithms.
        assert_eq!(entries.len(), 2 * 8 * 2 * AlgoKind::all().len());
        for e in &entries {
            assert!(
                e.findings.is_empty(),
                "{} / {} on {}x{} s={}: {:?}",
                e.algo,
                e.dist,
                e.rows,
                e.cols,
                e.s,
                e.findings
            );
            assert!(!e.deadlocked);
            assert!(
                !e.opaque_payloads,
                "{} / {} on {}x{} s={}: attribution fell back to opaque",
                e.algo, e.dist, e.rows, e.cols, e.s
            );
            assert!(e.sends > 0 && e.recvs > 0);
        }
    }

    #[test]
    fn faulted_matrix_survives_with_retries() {
        // One small shape under a transient-drop plan with retry: every
        // algorithm must still achieve full delivery (no lost_message,
        // no payload_leak findings), and the drops must be visible.
        let config = LintConfig {
            shapes: vec![(4, 4)],
            faults: Some(FaultPlan::transient_drops(5, 1, 8, 6)),
            ..LintConfig::default()
        };
        let entries = lint_matrix(&config, &SweepRunner::new());
        assert_eq!(entries.len(), 8 * 2 * AlgoKind::all().len());
        let mut total_drops = 0usize;
        for e in &entries {
            assert!(
                e.findings.is_empty(),
                "{} / {} on {}x{} s={}: {:?}",
                e.algo,
                e.dist,
                e.rows,
                e.cols,
                e.s,
                e.findings
            );
            assert!(!e.deadlocked);
            total_drops += e.dropped_attempts;
        }
        assert!(
            total_drops > 0,
            "a 1/8 drop rate over the whole matrix must drop something"
        );
    }

    #[test]
    fn supervised_matrix_quarantines_chaos_and_finishes_everything_else() {
        let config = LintConfig {
            shapes: vec![(4, 4)],
            chaos: true,
            ..LintConfig::default()
        };
        let sweep = lint_matrix_supervised(
            &config,
            &SweepRunner::new(),
            &SuperviseOpts::default(),
            None,
        );
        let healthy = 8 * 2 * AlgoKind::all().len();
        assert_eq!(sweep.total, healthy + 2);
        assert_eq!(sweep.skipped, Vec::<String>::new());
        assert_eq!(sweep.resumed, 0);
        // The panicking fixture is quarantined with its panic message...
        assert_eq!(sweep.failures.len(), 1, "{:?}", sweep.failures);
        let fail = &sweep.failures[0];
        assert_eq!(fail.id, "chaos:panic/E/4x4/s2");
        assert_eq!(fail.attempts, 2, "failed point must be retried once");
        assert!(
            fail.error.contains("deliberate chaos panic"),
            "{}",
            fail.error
        );
        // ...while the deadlocking fixture records a partial schedule
        // whose analysis carries a deadlock finding, and every healthy
        // point completes clean.
        assert_eq!(sweep.entries.len(), healthy + 1);
        let dead = sweep
            .entries
            .iter()
            .find(|e| e.algo == "chaos:deadlock")
            .expect("deadlock fixture entry");
        assert!(dead.deadlocked);
        assert!(
            dead.findings
                .iter()
                .any(|f| f.kind == FindingKind::Deadlock),
            "{:?}",
            dead.findings
        );
        for e in sweep.entries.iter().filter(|e| e.algo != "chaos:deadlock") {
            assert!(
                e.findings.is_empty(),
                "{}/{}: {:?}",
                e.algo,
                e.dist,
                e.findings
            );
        }
    }

    #[test]
    fn checkpointed_matrix_resumes_without_replay() {
        let config = LintConfig::quick();
        let path = std::env::temp_dir().join(format!("stp-lint-ckpt-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sig = lint_sig(&config);
        let (runner, opts) = (SweepRunner::new(), SuperviseOpts::default());

        let cp = CheckpointFile::open(&path, &sig).expect("open checkpoint");
        let first = lint_matrix_supervised(&config, &runner, &opts, Some(&cp));
        assert_eq!(first.resumed, 0);
        assert_eq!(first.entries.len(), first.total);
        assert_eq!(cp.completed(), first.total);
        drop(cp);

        // Re-open: every point replays from the checkpoint, zero re-run,
        // and the report is byte-identical.
        let cp = CheckpointFile::open(&path, &sig).expect("re-open checkpoint");
        let second = lint_matrix_supervised(&config, &runner, &opts, Some(&cp));
        assert_eq!(second.resumed, second.total);
        assert_eq!(
            crate::report::supervised_report_json(&first),
            crate::report::supervised_report_json(&second),
            "resumed report must be byte-identical"
        );

        // A different signature must NOT resume.
        let cp2 = CheckpointFile::open(&path, "other-sig").expect("open with other sig");
        assert_eq!(cp2.completed(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fixtures_are_each_caught_with_the_right_kind() {
        let verdicts = lint_fixtures();
        assert_eq!(verdicts.len(), 5);
        for v in &verdicts {
            assert!(
                v.pass,
                "fixture {} expected [{}], detected {:?}",
                v.name,
                v.expected.name(),
                v.detected
            );
        }
    }
}
