//! `stp` — command-line driver for one-off experiments.
//!
//! ```text
//! stp --machine paragon --rows 10 --cols 10 --algo br_xy_source \
//!     --dist cross --s 30 --len 4096 [--lib mpi] [--metrics] [--trace]
//! stp --machine t3d --p 128 --algo mpi_alltoall --dist equal --s 40 --len 4096
//! stp --machine paragon --algo two_step --dist equal --s 30 --sweep-len 32,1024,16384
//! stp lint [--quick] [--fixtures] [--json FILE] [--max-link-load N]
//!          [--perf] [--baseline FILE] [--write-baseline FILE] [--sarif FILE]
//!          [--chaos]
//! stp sweep [--quick] [--len BYTES] [--json FILE] [--chaos]
//! stp --list
//! ```
//!
//! `stp lint` records the symbolic communication schedule of every
//! algorithm over the full distribution × mesh matrix and runs the
//! `stp-analyzer` static checks (deadlock, unmatched sends, match
//! ambiguity, payload leaks, link contention) on each; `--fixtures`
//! instead checks that the seeded-bug fixtures are all caught. Exits
//! non-zero on any finding or missed fixture — the CI gate.
//!
//! `--perf` additionally replays every schedule through the static cost
//! engine (`stp-analyzer::cost`) and runs the performance lints on top:
//! idle ports, serialization hotspots, contention-dominated critical
//! paths, redundant transmissions, and distance from the α–β lower
//! bound. Cost-model conformance (static replay == kernel virtual time,
//! exactly) is always checked when the engine runs; a divergence is an
//! Error and can never be baselined. `--baseline FILE` suppresses the
//! accepted Warn/Info findings listed in FILE; `--write-baseline FILE`
//! captures the current sweep's Warn/Info findings as the new baseline;
//! `--sarif FILE` writes the findings as a SARIF 2.1.0 log (suppressed
//! findings are marked, not dropped).
//!
//! `stp sweep` runs the experiment grid (makespans instead of schedule
//! analysis) under the supervised runner. Both sweeps accept `--chaos`
//! (inject a deliberately panicking and a deliberately deadlocking
//! algorithm — every healthy point must still finish, the bad ones are
//! quarantined into the failure report). Neither keeps a checkpoint or
//! a wall-clock deadline: the whole matrix runs in seconds, so a killed
//! sweep is simply run again.
//!
//! `--sweep-len` runs the same experiment at several message lengths;
//! the points are independent simulations and execute concurrently on a
//! [`SweepRunner`].
//!
//! The process environment is read exactly once, by [`Env::from_process`]
//! at the top of `main`; every subcommand takes the parsed values
//! (`STP_SWEEP_WORKERS`, `STP_WATCHDOG_EVENTS`) as arguments, and
//! `stp serve` is configured by its flags alone. Each mode lists the
//! flags it accepts, and any other argument is a usage error (exit 2),
//! never a run that ignores it; so is a flag given twice, and a switch
//! given with one it would ignore (`--list` with anything, two of
//! `--trace`/`--sweep-len`/`--metrics`, `lint --fixtures` with anything
//! but `--json`).

use mpp_model::{FaultPlan, LibraryKind, Machine};
use mpp_sim::{render_timeline, summarize};
use stp_core::env::Env;
use stp_core::metrics::{figure2_row, format_table};
use stp_core::prelude::*;
use stp_core::runner::{try_record_sources, try_run_sources_controlled};

fn usage() -> ! {
    eprintln!("usage: stp --machine <paragon|t3d> [--rows R --cols C | --p P]");
    eprintln!("           --algo <name> --dist <name> --s <n> --len <bytes>");
    eprintln!("           [--lib <nx|mpi>] [--seed <n>] [--metrics] [--trace] [--predict]");
    eprintln!("           [--ports K]               (ports per node; overrides the machine's");
    eprintln!("                                      default, e.g. a 5-port Paragon)");
    eprintln!("           [--sweep-len L1,L2,...]   (parallel sweep over message lengths)");
    eprintln!("           [--faults SPEC]           (inject faults, e.g.");
    eprintln!("                                      'seed=7,drop=1/64,retry=4:500' or");
    eprintln!("                                      'link=3-4@1000..,crash=5@2000')");
    eprintln!("       stp lint [--quick] [--fixtures] [--json FILE] [--max-link-load N]");
    eprintln!("                [--perf]                  (cost engine + performance lints)");
    eprintln!("                [--baseline FILE]         (suppress accepted Warn/Info findings)");
    eprintln!("                [--write-baseline FILE]   (capture current findings as baseline)");
    eprintln!("                [--sarif FILE]            (write SARIF 2.1.0 report)");
    eprintln!("                [--faults SPEC] [--chaos]");
    eprintln!("       stp sweep [--quick] [--len BYTES] [--json FILE] [--faults SPEC] [--chaos]");
    eprintln!("       stp serve [--addr HOST:PORT|unix:PATH] [--cache FILE] [--cache-cap N]");
    eprintln!("                 [--workers N] [--deadline-ms N]");
    eprintln!("                 (long-running planning daemon; newline-delimited JSON");
    eprintln!("                  requests, content-addressed plan cache — see README)");
    eprintln!("       stp --list       (show algorithm and distribution names)");
    std::process::exit(2);
}

/// The flags one mode accepts: those that take a value, then switches.
struct Flags {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

const POINT_FLAGS: Flags = Flags {
    values: &[
        "--machine",
        "--rows",
        "--cols",
        "--p",
        "--algo",
        "--dist",
        "--s",
        "--len",
        "--lib",
        "--seed",
        "--ports",
        "--sweep-len",
        "--faults",
    ],
    switches: &["--list", "--metrics", "--trace", "--predict"],
};

const LINT_FLAGS: Flags = Flags {
    values: &[
        "--json",
        "--max-link-load",
        "--baseline",
        "--write-baseline",
        "--sarif",
        "--faults",
    ],
    switches: &["--quick", "--fixtures", "--perf", "--chaos"],
};

const SWEEP_FLAGS: Flags = Flags {
    values: &["--len", "--json", "--faults"],
    switches: &["--quick", "--chaos"],
};

const SERVE_FLAGS: Flags = Flags {
    values: &[
        "--addr",
        "--cache",
        "--cache-cap",
        "--workers",
        "--deadline-ms",
    ],
    switches: &[],
};

/// Exit 2, naming it, on an argument `flags` does not list, a value
/// flag with nothing after it or a flag given twice: a typo must not run
/// with the default, nor a repeat with one of its values. Returns the
/// flags given, in order.
fn check_flags<'a>(args: &'a [String], flags: &Flags) -> Vec<&'a str> {
    let mut given: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if flags.values.contains(&arg.as_str()) {
            if rest.next().is_none() {
                eprintln!("stp: {arg} wants a value");
                usage()
            }
        } else if !flags.switches.contains(&arg.as_str()) {
            let what = match arg.starts_with('-') {
                true => "unknown flag",
                false => "unexpected argument",
            };
            eprintln!("stp: {what} '{arg}'");
            usage()
        }
        if given.contains(&arg.as_str()) {
            eprintln!("stp: {arg} given twice");
            usage()
        }
        given.push(arg);
    }
    given
}

/// Exit 2, naming both, when `flag` is given with a flag outside `with`:
/// the other would be ignored.
fn check_alone(given: &[&str], flag: &str, with: &[&str]) {
    if given.contains(&flag) {
        if let Some(other) = given.iter().find(|g| **g != flag && !with.contains(g)) {
            eprintln!("stp: {flag} and {other} cannot be combined");
            usage()
        }
    }
}

/// Exit 2, naming both, when two flags of `group` are given: each mode
/// it selects returns before the others run.
fn check_exclusive(given: &[&str], group: &[&str]) {
    let mut hits = given.iter().filter(|g| group.contains(g));
    if let (Some(a), Some(b)) = (hits.next(), hits.next()) {
        eprintln!("stp: {a} and {b} cannot be combined");
        usage()
    }
}

/// The value following `flag`, if the flag is present.
fn get(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value of a numeric flag. A value that does not parse is a usage
/// error (exit 2), never a silent fall-back to the default: `--len 4k`
/// must not become a run at L=4096.
fn flag_num<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let value = get(args, flag)?;
    match value.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("stp: {flag} wants a non-negative integer, got '{value}'");
            usage()
        }
    }
}

/// Parse the `--faults` spec (shared by `stp run` and `stp lint`).
fn parse_faults_flag(args: &[String]) -> Option<FaultPlan> {
    get(args, "--faults").map(|spec| match FaultPlan::parse(&spec) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("--faults: {e}");
            usage()
        }
    })
}

/// `stp lint`: the static schedule-analysis gate, always under the
/// supervised runner — chaos containment is a flag on the one sweep,
/// not a second path.
fn run_lint(args: &[String], env: &Env) -> ! {
    use stp_analyzer::{
        fixtures_to_json, lint_fixtures, lint_matrix_supervised, supervised_report_json, LintConfig,
    };

    let given = check_flags(args, &LINT_FLAGS);
    check_alone(&given, "--fixtures", &["--json"]);
    let json_path = get(args, "--json");
    stp_analyzer::hush_expected_panics();

    if has(args, "--fixtures") {
        let verdicts = lint_fixtures();
        let failed = verdicts.iter().filter(|v| !v.pass).count();
        for v in &verdicts {
            let detected: Vec<&str> = v.detected.iter().map(|k| k.name()).collect();
            println!(
                "fixture {:<22} expected {:<16} detected [{}]  {}",
                v.name,
                v.expected.name(),
                detected.join(", "),
                if v.pass { "ok" } else { "MISSED" }
            );
        }
        if let Some(path) = json_path {
            std::fs::write(&path, fixtures_to_json(&verdicts)).expect("write JSON report");
            eprintln!("[lint] report written to {path}");
        }
        println!("{} fixture(s), {} missed", verdicts.len(), failed);
        std::process::exit(if failed > 0 { 1 } else { 0 });
    }

    let mut config = if has(args, "--quick") {
        LintConfig::quick()
    } else {
        LintConfig::default()
    };
    config.max_link_load = flag_num(args, "--max-link-load");
    config.faults = parse_faults_flag(args);
    config.chaos = has(args, "--chaos");
    config.perf = has(args, "--perf");
    let baseline = get(args, "--baseline").map(|path| load_baseline(&path));

    let sweep = lint_matrix_supervised(&config, &env.sweep_runner(), &env.budget());

    let (findings, baselined) = print_lint_findings(&sweep.done, baseline.as_ref());
    print_failures(&sweep);
    // `0 skipped` is fixed text, like the report's `"skipped":[]`:
    // nothing skips a point, but `results/lint-report.sha256` covers the
    // report and `scripts/chaos-smoke.sh` reads it.
    println!(
        "linted {}/{} schedules: {findings} finding(s), {baselined} baselined, \
         {} with unattributable payloads, {} failed point(s), 0 skipped",
        sweep.done.len(),
        sweep.total,
        sweep.done.iter().filter(|e| e.opaque_payloads).count(),
        sweep.failures.len(),
    );
    if config.faults.is_some() {
        let drops: usize = sweep.done.iter().map(|e| e.dropped_attempts).sum();
        println!("fault plan active: {drops} transmission attempt(s) dropped across the matrix");
    }
    if let Some(path) = json_path {
        let report = stp_analyzer::timed("report", || supervised_report_json(&sweep));
        std::fs::write(&path, report).expect("write JSON report");
        eprintln!("[lint] report written to {path}");
    }
    let bad_findings = write_lint_artifacts(
        &sweep.done,
        baseline.as_ref(),
        get(args, "--sarif").as_deref(),
        get(args, "--write-baseline").as_deref(),
        findings,
    );
    print_stage_lines("lint", &sweep);
    let bad = bad_findings || !sweep.failures.is_empty();
    std::process::exit(if bad { 1 } else { 0 });
}

/// The run's two host-side stderr lines: how much was simulated (its
/// points, and the distinct experiments they came down to), then the
/// host-time profile of every [`stp_analyzer::timed`]
/// stage — lint stages for `stp lint`, algorithms for `stp sweep`.
fn print_stage_lines<T>(cmd: &str, run: &stp_core::supervise::SupervisedRun<T>) {
    eprintln!(
        "[{cmd}] {} points, {} experiments simulated",
        run.total, run.experiments
    );
    let stages: Vec<String> = stp_analyzer::stage_totals()
        .iter()
        .map(|(stage, busy)| format!("{stage} {}", busy.as_millis()))
        .collect();
    eprintln!(
        "[{cmd}] stage ms, busy time summed over workers: {}",
        stages.join(" · ")
    );
}

/// Read and parse a `--baseline` file, exiting with usage status on
/// failure — a malformed baseline must not silently un-suppress.
fn load_baseline(path: &str) -> stp_analyzer::Baseline {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("stp: cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    stp_analyzer::Baseline::parse(&text).unwrap_or_else(|e| {
        eprintln!("stp: bad baseline {path}: {e}");
        std::process::exit(2);
    })
}

/// Write the `--sarif` / `--write-baseline` artifacts and decide the
/// gate: with `--write-baseline` only Error-severity findings fail (the
/// Warn/Info set was just accepted into the new baseline); otherwise any
/// unsuppressed finding fails.
fn write_lint_artifacts(
    entries: &[stp_analyzer::LintEntry],
    baseline: Option<&stp_analyzer::Baseline>,
    sarif_path: Option<&str>,
    write_baseline: Option<&str>,
    unsuppressed: usize,
) -> bool {
    if let Some(path) = sarif_path {
        let sarif = stp_analyzer::timed("report", || stp_analyzer::sarif_report(entries, baseline));
        std::fs::write(path, sarif).expect("write SARIF report");
        eprintln!("[lint] SARIF written to {path}");
    }
    if let Some(path) = write_baseline {
        let captured = stp_analyzer::Baseline::from_entries(entries);
        std::fs::write(path, captured.to_json()).expect("write baseline");
        eprintln!(
            "[lint] baseline with {} accepted finding(s) written to {path}",
            captured.suppress.len()
        );
        let errors = entries
            .iter()
            .flat_map(|e| &e.findings)
            .filter(|f| f.severity() == stp_analyzer::Severity::Error)
            .count();
        errors > 0
    } else {
        unsuppressed > 0
    }
}

/// Print every unsuppressed finding of the lint entries; returns
/// `(unsuppressed, baselined)` counts.
fn print_lint_findings(
    entries: &[stp_analyzer::LintEntry],
    baseline: Option<&stp_analyzer::Baseline>,
) -> (usize, usize) {
    let mut findings = 0;
    let mut baselined = 0;
    for e in entries.iter().filter(|e| !e.findings.is_empty()) {
        for f in &e.findings {
            if baseline.is_some_and(|b| b.suppresses(e, f)) {
                baselined += 1;
                continue;
            }
            println!(
                "{} / {} on {}x{} s={}: [{}/{}] {}",
                e.algo,
                e.dist,
                e.rows,
                e.cols,
                e.s,
                f.kind.name(),
                f.severity().name(),
                f.detail
            );
            findings += 1;
        }
    }
    (findings, baselined)
}

/// One stdout line per quarantined point of a sweep.
fn print_failures<T>(run: &stp_core::supervise::SupervisedRun<T>) {
    for f in &run.failures {
        println!("FAILED {}: {}", f.id, f.error);
    }
}

/// `stp sweep`: the experiment grid (makespans, not schedule analysis)
/// under the supervised runner. Each finished point yields one
/// deterministic JSON record — virtual time only, no wall-clock — so a
/// re-run reproduces the report byte for byte.
fn run_sweep(args: &[String], env: &Env) -> ! {
    use stp_core::runner::try_run_alg_controlled;
    use stp_core::supervise::{matrix_points, matrix_shapes, MatrixPoint};

    check_flags(args, &SWEEP_FLAGS);
    stp_analyzer::hush_expected_panics();

    let shapes = matrix_shapes(has(args, "--quick"));
    let msg_len: usize = flag_num(args, "--len").unwrap_or(1024);
    let faults = parse_faults_flag(args);
    let chaos = has(args, "--chaos");

    let budget = env.budget();
    let points = matrix_points(&shapes, chaos);
    let ids = points.iter().map(MatrixPoint::id).collect();
    let sweep = env.sweep_runner().run_grouped(
        points,
        ids,
        MatrixPoint::experiment,
        |pt| {
            let control = RunControl {
                faults: faults.clone(),
                budget: budget.clone(),
                ..RunControl::default()
            };
            stp_analyzer::timed(pt.alg.name(), || {
                try_run_alg_controlled(
                    &pt.machine,
                    pt.alg.lib(),
                    &pt.sources,
                    &|src| payload_for(src, msg_len),
                    pt.alg.build().as_ref(),
                    &control,
                )
            })
        },
        // Virtual quantities only: the record is the same on every run.
        |pt, out| {
            format!(
                "{{\"id\":\"{}\",\"makespan_ns\":{},\"verified\":{},\"contention_ns\":{}}}",
                pt.id(),
                out.makespan_ns,
                out.verified,
                out.contention_ns
            )
        },
    );

    let unverified = sweep
        .done
        .iter()
        .filter(|r| r.contains("\"verified\":false"))
        .count();
    print_failures(&sweep);
    // `0 skipped` is fixed text, like the report's `"skipped":[]`:
    // nothing skips a point, but `results/sweep-report.sha256` covers
    // the report and the benchmark harness checks this line for
    // `0 unverified, 0 failed, 0 skipped`.
    println!(
        "swept {}/{} points: {unverified} unverified, {} failed, 0 skipped",
        sweep.done.len(),
        sweep.total,
        sweep.failures.len(),
    );
    if let Some(path) = get(args, "--json") {
        let report = format!(
            "{{{},\"records\":[\n  {}\n]}}",
            sweep.summary_json(),
            sweep.done.join(",\n  ")
        );
        std::fs::write(&path, report).expect("write JSON report");
        eprintln!("[sweep] report written to {path}");
    }
    print_stage_lines("sweep", &sweep);
    let bad = unverified > 0 || !sweep.failures.is_empty();
    std::process::exit(if bad { 1 } else { 0 });
}

/// The serve daemon's lint hook: analyze the recording of the plan's
/// own simulation and hand the report JSON back to `stp-core` (which
/// cannot depend on `stp-analyzer` itself). The recording is
/// deterministic, so equal plan-cache keys give byte-identical reports.
fn serve_lint_hook() -> Box<stp_core::serve::LintFn> {
    Box::new(|spec, run| {
        let stp_core::serve::PlanAlgo::Kind(kind) = &spec.algo else {
            return Err("lint is not available for chaos fixtures".to_string());
        };
        let Some(outcome) = &run.outcome else {
            return Err("lint needs a run that finished".to_string());
        };
        let opts = stp_analyzer::AnalyzeOpts {
            lib: kind.default_lib(),
            faulted: spec.faults.is_some(),
            ..Default::default()
        };
        let entry = stp_analyzer::lint_recorded(
            &spec.machine,
            &spec.dist,
            &outcome.sources,
            spec.msg_len,
            kind.name(),
            &opts,
            run,
        );
        Ok(stp_analyzer::entry_to_json(&entry))
    })
}

/// `stp serve`: the long-running broadcast-planning daemon.
fn run_serve(args: &[String], env: &Env) -> ! {
    use stp_core::serve::{ServeConfig, Server};

    check_flags(args, &SERVE_FLAGS);
    // Chaos requests are a supported part of the serving mix — their
    // deliberate panics must not spam the daemon's stderr.
    stp_analyzer::hush_expected_panics();

    // Flag, else default. The executor stays at its cooperative
    // default: nothing here sets it.
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: get(args, "--addr").unwrap_or(defaults.addr),
        cache_path: get(args, "--cache").map(Into::into),
        cache_cap: flag_num(args, "--cache-cap")
            .unwrap_or(defaults.cache_cap)
            .max(1),
        workers: flag_num(args, "--workers")
            .unwrap_or(defaults.workers)
            .clamp(1, 64),
        deadline: flag_num(args, "--deadline-ms").map_or(defaults.deadline, |ms: u64| {
            std::time::Duration::from_millis(ms.max(1))
        }),
        exec: defaults.exec,
        budget: env.budget(),
    };

    let server = Server::bind(&config, Some(serve_lint_hook())).unwrap_or_else(|e| {
        eprintln!("stp serve: cannot bind {}: {e}", config.addr);
        std::process::exit(1);
    });
    server.arm_signal_shutdown();
    // One parseable readiness line on stdout — the benchmark harness
    // waits for it (and reads back the real port when --addr used :0).
    println!("stp serve: listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!(
        "stp serve: {} cold plan(s) at once, cache cap {}, cache file {}, default deadline {}ms",
        config.workers,
        config.cache_cap,
        config
            .cache_path
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "(memory only)".to_string()),
        config.deadline.as_millis(),
    );
    match server.run() {
        Ok(stats) => {
            eprintln!("stp serve: clean shutdown; final stats {stats}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("stp serve: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let env = Env::from_process();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = args.as_slice();
    match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..], &env),
        Some("lint") => run_lint(&args[1..], &env),
        Some("sweep") => run_sweep(&args[1..], &env),
        _ => {}
    }
    let given = check_flags(args, &POINT_FLAGS);
    check_alone(&given, "--list", &[]);
    check_exclusive(&given, &["--trace", "--sweep-len", "--metrics"]);
    if has(args, "--list") {
        println!("algorithms:");
        for k in AlgoKind::all() {
            println!("  {}", k.name());
        }
        println!(
            "distributions: row column equal diag_right diag_left band cross square_block random"
        );
        return;
    }
    let machine_kind = get(args, "--machine").unwrap_or_else(|| usage());
    let seed: u64 = flag_num(args, "--seed").unwrap_or(42);
    let mut machine = match machine_kind.as_str() {
        "paragon" => Machine::paragon(
            flag_num(args, "--rows").unwrap_or(10),
            flag_num(args, "--cols").unwrap_or(10),
        ),
        "t3d" => Machine::t3d(flag_num(args, "--p").unwrap_or(128), seed),
        other => {
            eprintln!("unknown machine '{other}'");
            usage()
        }
    };
    if let Some(k) = flag_num::<usize>(args, "--ports") {
        if k == 0 {
            eprintln!("stp: --ports wants a positive port count");
            usage()
        }
        machine.params = machine.params.clone().with_ports(k);
    }

    let algo_name = get(args, "--algo").unwrap_or_else(|| usage());
    let Some(kind) = AlgoKind::parse(&algo_name) else {
        eprintln!("unknown algorithm '{algo_name}' (try --list)");
        usage()
    };
    let dist_name = get(args, "--dist").unwrap_or_else(|| usage());
    let Some(dist) = SourceDist::parse(&dist_name, seed) else {
        eprintln!("unknown distribution '{dist_name}' (try --list)");
        usage()
    };
    let s: usize = flag_num(args, "--s").unwrap_or_else(|| usage());
    let len: usize = flag_num(args, "--len").unwrap_or(4096);
    let lib = match get(args, "--lib").as_deref() {
        Some("mpi") => LibraryKind::Mpi,
        Some("nx") | None => kind.default_lib(),
        Some(other) => {
            eprintln!("unknown library '{other}'");
            usage()
        }
    };

    // Every simulation below runs under this block: the fault plan and
    // the `STP_WATCHDOG_EVENTS` budget.
    let control = RunControl {
        faults: parse_faults_flag(args),
        budget: env.budget(),
        ..RunControl::default()
    };
    let sources = dist.place(machine.shape, s);
    println!(
        "machine {}  p={}  algo {}  dist {}({s})  L={len}B  lib {}",
        machine.name,
        machine.p(),
        kind.name(),
        dist.name(),
        lib.name()
    );

    if has(args, "--predict") {
        match stp_core::predict::estimate_ms(&machine, kind, s, len) {
            Some(ms) => println!("analytic (contention-free) estimate: {ms:.3} ms"),
            None => println!("no closed-form estimate for this algorithm"),
        }
    }

    if let Some(spec) = get(args, "--sweep-len") {
        let lens: Vec<usize> = spec
            .split(',')
            .map(|v| {
                v.trim().parse().unwrap_or_else(|_| {
                    eprintln!("stp: --sweep-len wants byte lengths L1,L2,..., got '{v}'");
                    usage()
                })
            })
            .collect();
        let machine = &machine;
        let grid: Vec<Experiment> = lens
            .iter()
            .map(|&msg_len| Experiment {
                machine,
                dist: dist.clone(),
                s,
                msg_len,
                kind,
            })
            .collect();
        let runner = env.sweep_runner();
        let t0 = std::time::Instant::now();
        let outcomes = runner.map(grid, |e| {
            e.run_controlled(&control)
                .unwrap_or_else(|err| panic!("{err}"))
        });
        let wall = t0.elapsed();
        println!("L,ms,verified");
        for (len, out) in lens.iter().zip(&outcomes) {
            println!("{len},{:.4},{}", out.makespan_ms(), out.verified);
        }
        eprintln!(
            "[sweep] {} lengths on {} workers in {:.3}s",
            lens.len(),
            runner.workers(),
            wall.as_secs_f64()
        );
        return;
    }

    if has(args, "--trace") {
        let rec = try_record_sources(
            &machine,
            lib,
            &sources,
            &|src| payload_for(src, len),
            kind.build().as_ref(),
            &control,
        )
        .unwrap_or_else(|e| {
            eprintln!("stp: {e}");
            std::process::exit(1);
        });
        let Some(out) = rec.outcome else {
            let blocked = rec.events.blocked.len();
            eprintln!("stp: simulation deadlock, {blocked} rank(s) blocked in recv");
            std::process::exit(1);
        };
        assert!(out.verified, "verification failed");
        let sum = summarize(&rec.events);
        println!(
            "time {:.3} ms   messages {}   bytes {}   stalled {:.3} ms",
            out.makespan_ms(),
            sum.messages,
            sum.bytes,
            sum.stalled_ns as f64 / 1e6
        );
        let alpha_send = machine.params.alpha_send(lib);
        println!(
            "{}",
            render_timeline(&rec.events, alpha_send, machine.p().min(32), 72)
        );
        return;
    }

    let out = try_run_sources_controlled(
        &machine,
        lib,
        &sources,
        &|src| payload_for(src, len),
        kind,
        &control,
    )
    .unwrap_or_else(|e| {
        eprintln!("stp: {e}");
        std::process::exit(1);
    });
    println!(
        "time {:.3} ms   verified {}   contention stalls {} ({:.3} ms)",
        out.makespan_ms(),
        out.verified,
        out.contention_events,
        out.contention_ns as f64 / 1e6
    );
    if control.faults.is_some() {
        let retransmits: u64 = out.stats.iter().map(|s| s.retransmits).sum();
        let dropped: u64 = out.stats.iter().map(|s| s.dropped).sum();
        let rerouted: u64 = out.stats.iter().map(|s| s.rerouted_hops).sum();
        let detour_ns: u64 = out.stats.iter().map(|s| s.detour_ns).sum();
        println!(
            "faults: {retransmits} retransmit(s)   {dropped} message(s) lost   \
             {rerouted} detour hop(s) (+{:.3} ms)",
            detour_ns as f64 / 1e6
        );
    }
    if has(args, "--metrics") {
        let row = figure2_row(kind.name(), &out.stats);
        println!("\n{}", format_table(&[row]));
        let k = out.counters;
        println!(
            "kernel: {} events   {} in flight at peak   {} mailbox(es) spilled",
            k.events, k.peak_in_flight, k.mailbox_spills
        );
        println!(
            "schedule: {} sends  {} xfers  {} recvs  {} iter-ends  {} drops  {} finishes",
            k.sends, k.xfers, k.recvs, k.iter_ends, k.drops, k.finishes
        );
        if let Some(q) = stp_core::quality::placement_quality(machine.shape, &sources, kind) {
            println!("placement quality for {}: {q:.2}", kind.name());
        }
    }
}
