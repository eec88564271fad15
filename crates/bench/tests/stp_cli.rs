//! The `stp` binary's argument and environment handling, driven as a
//! child process: a typo in a numeric flag or the retired executor flag
//! is a usage error (exit 2), never a run at some default, and the
//! `STP_*` variables still reach the subcommands that document them.

use std::process::Command;

/// `stp` with the caller's `STP_*` variables removed.
fn stp() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stp"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("STP_") {
            cmd.env_remove(name);
        }
    }
    cmd
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
