//! The lint sweep: record + analyze every algorithm over the full
//! distribution × mesh matrix, plus the seeded-bug fixture gate.

use std::sync::{Mutex, Once, PoisonError};
use std::time::{Duration, Instant};

use mpp_model::{FaultPlan, Machine};
use stp_core::algorithms::StpAlgorithm;
use stp_core::distribution::SourceDist;
use stp_core::msgset::payload_for;
use stp_core::runner::{try_record_sources, AlgoKind, RecordedRun, RunControl, SweepRunner};
use stp_core::supervise::{
    matrix_points, matrix_shapes, MatrixPoint, SuperviseOpts, SupervisedRun,
};

use crate::checks::{analyze, AnalyzeOpts, Finding, Severity};
use crate::fixtures;
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
    /// [`chaos_algorithms`](stp_core::supervise::chaos_algorithms) (a
    /// panicking and a deadlocking fixture) to the grid;
    /// [`lint_matrix_supervised`] must finish every healthy point and
    /// quarantine these.
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
            shapes: matrix_shapes(false),
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
            shapes: matrix_shapes(true),
            ..LintConfig::default()
        }
    }
}

/// One analyzed grid point of the lint matrix.
#[derive(Debug, Clone)]
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

/// Busy time per lint stage, summed over every thread of this process,
/// in the order the stages first ran.
static STAGES: Mutex<Vec<(&'static str, Duration)>> = Mutex::new(Vec::new());

/// Run `f` and add the time it took to `stage`'s total.
pub fn timed<T>(stage: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let spent = t0.elapsed();
    let mut stages = STAGES.lock().unwrap_or_else(PoisonError::into_inner);
    match stages.iter_mut().find(|(name, _)| *name == stage) {
        Some((_, total)) => *total += spent,
        None => stages.push((stage, spent)),
    }
    out
}

/// What [`timed`] has accumulated so far: record · build · index · cost
/// replay · each check by [`Check::name`](crate::Check::name) · report.
/// Host time, so it belongs on stderr, never in a report.
pub fn stage_totals() -> Vec<(&'static str, Duration)> {
    STAGES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Record and analyze one named algorithm instance on the `sources`
/// that `dist` placed. The shared engine behind [`lint_point`] and
/// [`lint_matrix_supervised`].
#[allow(clippy::too_many_arguments)]
fn lint_alg_point(
    machine: &Machine,
    dist: &SourceDist,
    sources: &[usize],
    msg_len: usize,
    alg: &dyn StpAlgorithm,
    lib: mpp_model::LibraryKind,
    algo_name: &str,
    max_link_load: Option<u64>,
    perf: bool,
    control: &RunControl,
) -> Result<LintEntry, mpp_runtime::SimError> {
    let payload_of = move |src: usize| payload_for(src, msg_len);
    let run = timed("record", || {
        try_record_sources(machine, lib, sources, &payload_of, alg, control)
    })?;
    let opts = AnalyzeOpts {
        max_link_load,
        lib,
        faulted: control.faults.is_some(),
        perf,
        ..AnalyzeOpts::default()
    };
    Ok(lint_recorded(
        machine, dist, sources, msg_len, algo_name, &opts, &run,
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
    let sched = timed("build", || Schedule::from_recorded(run, machine.p()));
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
/// supervision layer.
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
        &dist.place(machine.shape, s),
        msg_len,
        alg.as_ref(),
        kind.default_lib(),
        kind.name(),
        max_link_load,
        perf,
        control,
    )
}

/// Everything a supervised lint sweep produced: the completed entries
/// (`done`) and the quarantined and skipped points.
pub type SupervisedLint = SupervisedRun<LintEntry>;

/// Record and analyze every algorithm × distribution × shape × s grid
/// point, concurrently on `runner`, under full supervision: each grid
/// point runs isolated (a panicking or deadlocking algorithm is
/// quarantined into [`SupervisedRun::failures`] / a `deadlock` finding,
/// never a process abort), and a cancelled shared token skips the
/// remainder cleanly. Each distinct experiment is recorded once. Entries
/// come back in deterministic grid order.
pub fn lint_matrix_supervised(
    config: &LintConfig,
    runner: &SweepRunner,
    opts: &SuperviseOpts,
) -> SupervisedLint {
    hush_expected_panics();
    let points = matrix_points(&config.shapes, config.chaos);
    let ids = points.iter().map(MatrixPoint::id).collect();
    runner.run_grouped(
        points,
        ids,
        MatrixPoint::experiment,
        |pt| {
            let alg = pt.alg.build();
            let control = RunControl {
                faults: config.faults.clone(),
                budget: opts.budget.clone(),
                cancel: Some(opts.cancel.clone()),
                ..RunControl::default()
            };
            lint_alg_point(
                &pt.machine,
                &pt.dist,
                &pt.sources,
                config.msg_len,
                alg.as_ref(),
                pt.alg.lib(),
                pt.alg.name(),
                config.max_link_load,
                config.perf,
                &control,
            )
        },
        // The analysis never sees the label: only `dist` differs.
        |pt, entry| LintEntry {
            dist: pt.dist.name().to_string(),
            ..entry.clone()
        },
        opts,
    )
}

/// The "all points must finish" view of [`lint_matrix_supervised`] the
/// tests use: default supervision and a panic naming
/// the first point that failed or was skipped.
pub fn lint_matrix(config: &LintConfig, runner: &SweepRunner) -> Vec<LintEntry> {
    let sweep = lint_matrix_supervised(config, runner, &SuperviseOpts::default());
    if let Some(f) = sweep.failures.first() {
        panic!("{} failed: {}", f.id, f.error);
    }
    assert_eq!(sweep.skipped, Vec::<String>::new(), "points skipped");
    sweep.done
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
    fixtures::all()
        .into_iter()
        .map(|fx| {
            let machine = (fx.machine)();
            let entry = lint_alg_point(
                &machine,
                &SourceDist::Equal,
                &SourceDist::Equal.place(machine.shape, fx.s),
                64,
                (fx.build)().as_ref(),
                mpp_model::LibraryKind::Nx,
                fx.name,
                None,
                fx.perf,
                &RunControl::default(),
            )
            .unwrap_or_else(|e| panic!("{e}"));
            let mut detected: Vec<FindingKind> = entry.findings.iter().map(|f| f.kind).collect();
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
pub(crate) mod tests {
    use super::*;
    use crate::report::entry_to_json;
    use stp_core::supervise::MatrixAlg;

    /// Record every point of the quick matrix and every seeded-bug
    /// fixture (L = 64) and hand each recording to `check` — the corpus
    /// of the differential tests.
    pub(crate) fn for_each_quick_recording(
        mut check: impl FnMut(&Machine, &[usize], &RecordedRun),
    ) {
        hush_expected_panics();
        let payload_of = |src: usize| payload_for(src, 64);
        for pt in matrix_points(&matrix_shapes(true), false) {
            let alg = pt.alg.build();
            let run = try_record_sources(
                &pt.machine,
                pt.alg.lib(),
                &pt.sources,
                &payload_of,
                alg.as_ref(),
                &RunControl::default(),
            )
            .expect("recording failed");
            check(&pt.machine, &pt.sources, &run);
        }
        for fx in fixtures::all() {
            let machine = (fx.machine)();
            let sources = SourceDist::Equal.place(machine.shape, fx.s);
            let alg = (fx.build)();
            let lib = mpp_model::LibraryKind::Nx;
            let run = try_record_sources(
                &machine,
                lib,
                &sources,
                &payload_of,
                alg.as_ref(),
                &RunControl::default(),
            )
            .expect("recording failed");
            check(&machine, &sources, &run);
        }
    }

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
    fn grouped_lint_equals_linting_every_point() {
        let faulted = FaultPlan::parse("seed=5,drop=1/8,retry=6:500").expect("fault plan");
        for faults in [None, Some(faulted)] {
            let config = LintConfig {
                faults: faults.clone(),
                perf: true,
                ..LintConfig::quick()
            };
            let sweep =
                lint_matrix_supervised(&config, &SweepRunner::new(), &SuperviseOpts::default());
            assert_eq!((sweep.total, sweep.experiments), (640, 280));
            assert!(sweep.failures.is_empty() && sweep.skipped.is_empty());
            let control = RunControl {
                faults,
                ..RunControl::default()
            };
            let points = matrix_points(&config.shapes, false);
            assert_eq!(sweep.done.len(), points.len());
            for (pt, grouped) in points.iter().zip(&sweep.done) {
                let MatrixAlg::Kind(kind) = pt.alg else {
                    unreachable!("no chaos on this matrix")
                };
                let direct = lint_point(
                    &pt.machine,
                    &pt.dist,
                    pt.sources.len(),
                    config.msg_len,
                    kind,
                    None,
                    true,
                    &control,
                )
                .unwrap_or_else(|e| panic!("{}: {e}", pt.id()));
                assert_eq!(
                    entry_to_json(grouped),
                    entry_to_json(&direct),
                    "{}",
                    pt.id()
                );
            }
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
        let sweep = lint_matrix_supervised(&config, &SweepRunner::new(), &SuperviseOpts::default());
        let healthy = 8 * 2 * AlgoKind::all().len();
        assert_eq!(sweep.total, healthy + 2);
        assert_eq!(sweep.skipped, Vec::<String>::new());
        // The panicking fixture is quarantined with its panic message...
        assert_eq!(sweep.failures.len(), 1, "{:?}", sweep.failures);
        let fail = &sweep.failures[0];
        assert_eq!(fail.id, "chaos:panic/E/4x4/s2");
        assert!(
            fail.error.contains("deliberate chaos panic"),
            "{}",
            fail.error
        );
        // ...while the deadlocking fixture records a partial schedule
        // whose analysis carries a deadlock finding, and every healthy
        // point completes clean.
        assert_eq!(sweep.done.len(), healthy + 1);
        let dead = sweep
            .done
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
        for e in sweep.done.iter().filter(|e| e.algo != "chaos:deadlock") {
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
