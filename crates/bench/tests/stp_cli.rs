//! The `stp` and `repro` binaries' argument and environment handling,
//! driven as child processes: a typo in a numeric flag, the retired
//! executor flag or an unknown figure name is a usage error (exit 2),
//! never a run at some default; the `STP_*` variables still reach the
//! subcommands that document them; `--resume` replays a checkpoint in
//! the format the previous release wrote; and the text timelines of
//! `repro trace` and `stp --trace`, read from the recorded event log,
//! match the committed figure and a pinned summary line.

use std::process::Command;

/// `binary` with the caller's `STP_*` variables removed.
fn scrubbed(binary: &str) -> Command {
    let mut cmd = Command::new(binary);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("STP_") {
            cmd.env_remove(name);
        }
    }
    cmd
}

fn stp() -> Command {
    scrubbed(env!("CARGO_BIN_EXE_stp"))
}

fn repro() -> Command {
    scrubbed(env!("CARGO_BIN_EXE_repro"))
}

/// `(exit code, stdout, stderr)` of one child.
fn run(cmd: &mut Command) -> (Option<i32>, String, String) {
    let out = cmd.output().expect("spawn stp");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// The arguments of a one-off run on a 4x4 Paragon, plus `extra`.
fn point(extra: &[&'static str]) -> Vec<&'static str> {
    let base = "--machine paragon --rows 4 --cols 4 --algo br_lin --dist equal";
    base.split(' ').chain(extra.iter().copied()).collect()
}

/// Exit 2, the offending flag and value named, the usage text printed,
/// and nothing simulated.
fn assert_usage_error(args: &[&str], flag: &str, value: &str) {
    let (code, stdout, stderr) = run(stp().args(args));
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(flag) && stderr.contains(value),
        "{args:?}: {stderr}"
    );
    assert!(stderr.contains("usage: stp"), "{args:?}: {stderr}");
    assert!(
        !stdout.contains("time ") && !stdout.contains("linted") && !stdout.contains("swept"),
        "{args:?} still ran: {stdout}"
    );
}

#[test]
fn a_malformed_number_is_a_usage_error_in_a_one_off_run() {
    for (flag, value) in [
        ("--len", "4k"),
        ("--rows", "ten"),
        ("--cols", "-4"),
        ("--seed", "0x2a"),
        ("--s", "4.5"),
        ("--ports", "five"),
    ] {
        // The flag under test goes first: the first occurrence wins.
        let args = [&[flag, value], &point(&["--s", "4"])[..]].concat();
        assert_usage_error(&args, flag, value);
    }
    let t3d = "--machine t3d --p lots --algo br_lin --dist equal --s 4";
    assert_usage_error(&t3d.split(' ').collect::<Vec<_>>(), "--p", "lots");
    let args = point(&["--s", "4", "--sweep-len", "1024,4k"]);
    assert_usage_error(&args, "--sweep-len", "4k");
}

#[test]
fn a_malformed_number_is_a_usage_error_in_lint() {
    assert_usage_error(
        &["lint", "--quick", "--max-link-load", "lots"],
        "--max-link-load",
        "lots",
    );
    assert_usage_error(
        &["lint", "--quick", "--deadline-ms", "soon"],
        "--deadline-ms",
        "soon",
    );
}

#[test]
fn a_malformed_number_is_a_usage_error_in_sweep() {
    assert_usage_error(&["sweep", "--quick", "--len", "4k"], "--len", "4k");
    assert_usage_error(
        &["sweep", "--quick", "--deadline-ms", "1s"],
        "--deadline-ms",
        "1s",
    );
}

#[test]
fn a_malformed_number_is_a_usage_error_in_serve() {
    // Each of these exits before the daemon binds anything.
    for (flag, value) in [
        ("--workers", "abc"),
        ("--cache-cap", "many"),
        ("--deadline-ms", "30s"),
    ] {
        assert_usage_error(
            &["serve", "--addr", "127.0.0.1:0", flag, value],
            flag,
            value,
        );
    }
}

/// The retired executor flag, spelled in halves so the repository guard
/// against mentioning it stays a plain grep.
fn exec_flag() -> String {
    ["--", "exec"].concat()
}

#[test]
fn the_retired_executor_flag_is_rejected_on_every_subcommand() {
    let flag = exec_flag();
    for prefix in [
        point(&[]),
        vec!["lint", "--quick"],
        vec!["sweep", "--quick"],
    ] {
        for value in ["threaded", "coop"] {
            let (code, stdout, stderr) = run(stp().args(&prefix).args([&flag, value]));
            assert_eq!(code, Some(2), "{prefix:?}: {stderr}");
            assert!(stderr.contains("executor flag was removed"), "{stderr}");
            assert!(stderr.contains("usage: stp"), "{stderr}");
            assert_eq!(stdout, "", "{prefix:?} still ran");
        }
    }
}

#[test]
fn sweep_workers_variable_still_governs_the_length_sweep() {
    let args = point(&["--s", "4", "--sweep-len", "1024,4096"]);
    let (code, stdout, stderr) = run(stp().env("STP_SWEEP_WORKERS", "1").args(&args));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("2 lengths on 1 workers"), "{stderr}");
    assert!(!stderr.contains("warning"), "{stderr}");
    assert_eq!(stdout.matches(",true").count(), 2, "{stdout}");

    // A flag-free override in the other direction, and a malformed one:
    // warned about once, then the host default.
    let (_, _, stderr) = run(stp().env("STP_SWEEP_WORKERS", "3").args(&args));
    assert!(stderr.contains("2 lengths on 3 workers"), "{stderr}");
    let (code, _, stderr) = run(stp().env("STP_SWEEP_WORKERS", "many").args(&args));
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stderr
            .matches("warning: ignoring STP_SWEEP_WORKERS")
            .count(),
        1
    );
}

#[test]
fn watchdog_variable_still_bounds_a_one_off_run() {
    let args = point(&["--s", "4", "--len", "64"]);
    let (code, _, stderr) = run(stp().env("STP_WATCHDOG_EVENTS", "1").args(&args));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("watchdog"), "{stderr}");
    let (code, stdout, stderr) = run(stp().args(&args));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("verified true"), "{stdout}");
}

#[test]
fn a_retired_variable_is_one_warning_not_an_error() {
    let name = ["STP_", "EXEC"].concat();
    let (code, stdout, stderr) = run(stp().env(&name, "threaded").arg("--list"));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("Br_Lin"), "{stdout}");
    assert_eq!(stderr.matches("warning:").count(), 1, "{stderr}");
    assert!(
        stderr.contains(&name) && stderr.contains("ignored"),
        "{stderr}"
    );
}

#[test]
fn repro_names_are_the_figure_table() {
    use stp_bench::figures::FIGURES;
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
    // Every program the figure script used to call, then the renderer.
    let scripted = "fig01 fig02 fig03 fig04 fig05 fig06 fig07 fig08 fig09 fig10 fig11 fig12 \
                    fig13 partitioning nx-vs-mpi varlen adaptive dissem hypercube trace naive \
                    contention report";
    assert_eq!(names, scripted.split_whitespace().collect::<Vec<_>>());

    let (code, stdout, stderr) = run(repro().arg("--list"));
    assert_eq!((code, stderr.as_str()), (Some(0), ""));
    assert_eq!(stdout.lines().collect::<Vec<_>>(), names);

    for args in [
        &["fig14"][..],
        &[],
        &["fig03", "fig04"],
        &["fig02", "--p", "0"],
    ] {
        let (code, stdout, stderr) = run(repro().args(args));
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?} still ran");
    }
    let (_, _, stderr) = run(repro().arg("fig14"));
    assert!(stderr.contains("unknown figure 'fig14'"), "{stderr}");

    // One figure end to end; its one argument still reaches it.
    let (code, stdout, _) = run(repro().arg("fig01"));
    assert_eq!(code, Some(0));
    assert!(
        stdout.starts_with("R(30) on 10x10 (30 sources):"),
        "{stdout}"
    );
    let (code, stdout, stderr) = run(repro().args(["fig02", "--p", "16"]));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.starts_with("== p=16 (4x4), equal"), "{stdout}");
    assert!(stderr.contains("[sweep] 6 grid points"), "{stderr}");
}

#[test]
fn timelines_are_read_from_the_recorded_run() {
    // The committed figure is what `repro all` wrote; `repro trace`
    // must print it byte for byte.
    let (code, stdout, stderr) = run(repro().arg("trace"));
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(stdout, include_str!("../../../results/trace.txt"));

    let (code, stdout, stderr) = run(stp().args(point(&["--s", "8", "--len", "1024", "--trace"])));
    assert_eq!(code, Some(0), "{stderr}");
    let summary = "time 0.498 ms   messages 48   bytes 124032   stalled 0.059 ms";
    assert_eq!(stdout.lines().nth(1), Some(summary), "{stdout}");
}

/// Resume `stp <args>` on the quick matrix from `checkpoint`, a file
/// in the format the parent commit wrote. `replayable` of its records
/// decode; its second is the first grid point's, *doctored* — it carries
/// `doctored`, a value no simulation produces, so a replay shows in the
/// report where a re-run would not. `summary(n)` is the stdout of a
/// clean run that replayed `n` points. Returns the first resume's
/// stderr.
fn assert_resumes_from_a_parent_checkpoint(
    args: &[&str],
    checkpoint: &str,
    replayable: usize,
    doctored: &str,
    summary: impl Fn(usize) -> String,
) -> String {
    let dir = std::env::temp_dir().join(format!("stp-cli-{}-{}", args[0], std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let ckpt = file("ckpt");
    std::fs::write(&ckpt, checkpoint).expect("write checkpoint");
    let resume = |report: &str| {
        let flags = ["--checkpoint", ckpt.as_str(), "--resume", "--json", report];
        let (code, stdout, stderr) = run(stp().args(args).args(flags));
        assert_eq!(code, Some(0), "{stderr}");
        let report = std::fs::read_to_string(report).expect("read report");
        (stdout, stderr, report)
    };

    // The decodable records replay verbatim and every other point runs.
    let (stdout, first_stderr, report) = resume(&file("first.json"));
    assert_eq!(stdout, summary(replayable));
    let first_point = report.lines().nth(1).expect("first record");
    assert!(first_point.contains(doctored), "{first_point}");

    // Now everything is in the file, still in the parent's format — the
    // sig line and the doctored line are untouched — and a second
    // resume replays all 640 points into a byte-identical report.
    let saved = std::fs::read_to_string(&ckpt).expect("read checkpoint");
    assert_eq!(saved.lines().next(), checkpoint.lines().next());
    let doctored_line = checkpoint.lines().nth(2).expect("second record");
    assert!(saved.lines().any(|l| l == doctored_line), "{saved}");
    let (stdout, _, again) = resume(&file("second.json"));
    assert_eq!(stdout, summary(640));
    assert_eq!(again, report);

    // Against an uninterrupted run only the doctored point differs.
    let fresh = file("fresh.json");
    let (code, stdout, stderr) = run(stp().args(args).args(["--json", &fresh]));
    assert_eq!((code, stdout), (Some(0), summary(0)), "{stderr}");
    let fresh = std::fs::read_to_string(&fresh).expect("read report");
    assert_eq!(fresh.lines().count(), report.lines().count());
    let differing: Vec<&str> = fresh
        .lines()
        .zip(report.lines())
        .filter(|(honest, resumed)| honest != resumed)
        .map(|(_, resumed)| resumed)
        .collect();
    assert_eq!(differing, [first_point]);
    let _ = std::fs::remove_dir_all(&dir);
    first_stderr
}

#[test]
fn sweep_resumes_from_a_parent_format_checkpoint() {
    let checkpoint = r#"{"sig":"sweep:v2:shapes=[(4, 4), (8, 3)]:len=64:faults=None:chaos=false","entries":{
  "2-Step/B/4x4/s16":"{\"id\":\"2-Step/B/4x4/s16\",\"makespan_ns\":801131,\"verified\":true,\"contention_ns\":100830}",
  "2-Step/R/4x4/s4":"{\"id\":\"2-Step/R/4x4/s4\",\"makespan_ns\":7,\"verified\":true,\"contention_ns\":0}",
  "Br_Lin/R/4x4/s4":"{\"id\":\"Br_Lin/R/4x4/s4\",\"makespan_ns\":300810,\"verified\":true,\"contention_ns\":10288}"
}}"#;
    let stderr = assert_resumes_from_a_parent_checkpoint(
        &["sweep", "--quick", "--len", "64"],
        checkpoint,
        3,
        "\"makespan_ns\":7,",
        |replayed| {
            format!(
                "swept 640/640 points: 0 unverified, 0 failed, 0 skipped, \
                 {replayed} replayed from checkpoint\n"
            )
        },
    );
    assert!(stderr.contains("[resume] 3 finished point(s)"), "{stderr}");
    // The sweep's host-time profile, by algorithm, closes its stderr.
    let profile = stderr.lines().last().unwrap_or_default();
    assert!(
        profile.starts_with("[sweep] stage ms, busy time summed over workers: ")
            && profile.contains(" · KPort_Alltoall "),
        "{stderr}"
    );
}

/// The `stp sweep --len 64 --json` report, built by running every point
/// of the matrix on its own through `try_run_alg_controlled`: the
/// reference the grouped sweep must equal byte for byte.
fn sweep_point_by_point(quick: bool, faults: Option<&str>) -> String {
    use stp_core::msgset::payload_for;
    use stp_core::runner::{try_run_alg_controlled, RunControl, SweepRunner};
    use stp_core::supervise::{
        matrix_points, matrix_shapes, PointFailure, SuperviseOpts, SupervisedRun,
    };

    let control = RunControl {
        faults: faults.map(|spec| mpp_model::FaultPlan::parse(spec).expect("fault plan")),
        ..RunControl::default()
    };
    let points = matrix_points(&matrix_shapes(quick), false);
    let outcomes = SweepRunner::new().map(points.iter().collect(), |pt| {
        let sources = pt.dist.place(pt.machine.shape, pt.sources.len());
        let alg = pt.alg.build();
        let payload_of = |src| payload_for(src, 64);
        try_run_alg_controlled(
            &pt.machine,
            pt.alg.lib(),
            &sources,
            &payload_of,
            alg.as_ref(),
            &control,
        )
    });
    let mut run = SupervisedRun {
        done: Vec::new(),
        failures: Vec::new(),
        skipped: Vec::new(),
        resumed: 0,
        experiments: points.len(),
        total: points.len(),
    };
    for (pt, outcome) in points.iter().zip(outcomes) {
        match outcome {
            Ok(out) => run.done.push(format!(
                "{{\"id\":\"{}\",\"makespan_ns\":{},\"verified\":{},\"contention_ns\":{}}}",
                pt.id(),
                out.makespan_ns,
                out.verified,
                out.contention_ns
            )),
            Err(e) => run.failures.push(PointFailure {
                id: pt.id(),
                attempts: SuperviseOpts::default().retries + 1,
                error: e.to_string(),
            }),
        }
    }
    format!(
        "{{{},\"records\":[\n  {}\n]}}",
        run.summary_json(),
        run.done.join(",\n  ")
    )
}

#[test]
fn grouped_sweep_equals_running_every_point() {
    let dir = std::env::temp_dir().join(format!("stp-cli-grouped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let faults = "seed=5,drop=1/8,retry=6:500";
    // The full faulted matrix is where experiments fail: four 16x16
    // all-sources experiments deadlock, and all 32 of their points
    // must inherit the failure.
    for (quick, faults, counts, failed) in [
        (true, None, "640 points, 280 experiments", 0),
        (true, Some(faults), "640 points, 280 experiments", 0),
        (false, Some(faults), "1280 points, 580 experiments", 32),
    ] {
        let report = dir.join("report.json").to_string_lossy().into_owned();
        let mut cmd = stp();
        cmd.args(["sweep", "--len", "64", "--json", &report]);
        if quick {
            cmd.arg("--quick");
        }
        if let Some(spec) = faults {
            cmd.args(["--faults", spec]);
        }
        let (code, stdout, stderr) = run(&mut cmd);
        assert_eq!(code, Some(if failed > 0 { 1 } else { 0 }), "{stderr}");
        assert!(
            stdout.contains(&format!(" 0 unverified, {failed} failed, 0 skipped")),
            "{stdout}"
        );
        assert!(
            stderr.contains(&format!("[sweep] {counts} simulated\n")),
            "{stderr}"
        );
        let grouped = std::fs::read_to_string(&report).expect("read report");
        let direct = sweep_point_by_point(quick, faults);
        let first_difference = grouped.lines().zip(direct.lines()).find(|(a, b)| a != b);
        assert_eq!(first_difference, None, "quick={quick} faults={faults:?}");
        assert_eq!(grouped, direct);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_print_the_kernel_counters() {
    // 36 ranks: with every rank a source, 2-Step's gather root holds
    // 35 messages at once, three past the mailbox's spill threshold.
    let base = "--machine paragon --rows 3 --cols 12 --algo 2_step --dist equal --len 64 --metrics";
    for (s, counters) in [
        (
            "4",
            "kernel: 112 events   15 in flight at peak   0 mailbox(es) spilled\n",
        ),
        (
            "36",
            "kernel: 176 events   35 in flight at peak   1 mailbox(es) spilled\n",
        ),
    ] {
        let (code, stdout, stderr) = run(stp().args(base.split(' ')).args(["--s", s]));
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stdout.contains(counters), "{stdout}");
    }
}

#[test]
fn lint_resumes_from_a_parent_format_checkpoint() {
    // The third record is damaged: it costs a warning and a re-run.
    let checkpoint = r#"{"sig":"lint:v3:shapes=[(4, 4), (8, 3)]:len=64:mll=None:faults=None:chaos=false:perf=false","entries":{
  "2-Step/B/8x3/s6":"{\"algo\":\"2-Step\",\"dist\":\"B\",\"rows\":8,\"cols\":3,\"s\":6,\"sends\":28,\"recvs\":28,\"max_link_load\":5,\"deadlocked\":false,\"opaque_payloads\":false,\"dropped_attempts\":0,\"findings\":[]}",
  "2-Step/R/4x4/s4":"{\"algo\":\"2-Step\",\"dist\":\"R\",\"rows\":4,\"cols\":4,\"s\":4,\"sends\":999,\"recvs\":18,\"max_link_load\":3,\"deadlocked\":false,\"opaque_payloads\":false,\"dropped_attempts\":0,\"findings\":[]}",
  "Br_Lin/R/4x4/s4":"{\"algo\":\"Br_Lin\",\"dist\":\"R\""
}}"#;
    let stderr = assert_resumes_from_a_parent_checkpoint(
        &["lint", "--quick"],
        checkpoint,
        2,
        "\"sends\":999,",
        |replayed| {
            format!(
                "linted 640/640 schedules: 0 finding(s), 0 baselined, \
                 0 with unattributable payloads, 0 failed point(s), 0 skipped, \
                 {replayed} replayed from checkpoint\n"
            )
        },
    );
    assert!(stderr.contains("[resume] 3 finished point(s)"), "{stderr}");
    assert!(
        stderr.contains("re-running Br_Lin/R/4x4/s4: bad checkpoint entry"),
        "{stderr}"
    );
}
