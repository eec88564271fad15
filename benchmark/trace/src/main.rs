//! `stp-benchmark-trace` — the traced run.
//!
//! Runs the named workload once through the harness (for the exact
//! counts only the product's outputs give), then links the workspace
//! crates and times calls into each layer's public functions: a replay
//! with one root span per request, and fixed probes per layer. Spans
//! stay in memory and are written when the run ends. Prints every
//! per-layer metric; the result object is the last line.

mod metrics;
mod probes;
mod replay;
mod spans;

use std::process::ExitCode;

use stp_benchmark::cli::{print_header, result_line, Args, USAGE};
use stp_benchmark::proc::{cores, sweep_workers, TempDir};
use stp_benchmark::workloads::{self, cli_startup_s, Config};

use metrics::Report;
use spans::Tracer;

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args())?;
    let Some(name) = &args.workload else {
        return Err(format!("the traced run needs --workload\n{USAGE}"));
    };
    // Hermetic: the in-process layers read STP_* too (executor,
    // watchdog, sweep workers). Nothing else runs yet, so the
    // environment can still be edited.
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("STP_") {
            std::env::remove_var(var);
        }
    }
    // One unit of the workload is enough for its counts.
    let cfg = Config {
        seconds: 0.0,
        ..args.config()?
    };
    print_header(&cfg);

    let outcome = workloads::run(name, &cfg).map_err(|e| format!("{name}: {e}"))?;
    println!(
        "\n== {name}, traced run: the workload once ({} failed of {} attempted), then the layers in process",
        outcome.failed, outcome.attempted
    );
    for failure in &outcome.failures {
        println!("   FAILED: {failure}");
    }
    let mut report = Report::default();
    for (count, value) in &outcome.counts {
        report.set(count, *value);
    }

    let tmp = TempDir::create(&cfg.tmp_root, "trace")?;
    let mut tracer = Tracer::new();
    let body = replay::replay(&mut report, &mut tracer, tmp.path());
    probes::serve_read_path(&mut report, &body, tmp.path());
    probes::checkpoint(&mut report, &body, tmp.path());
    probes::msgset(&mut report);
    let probe_specs = probes::runner_and_kernel(&mut report, tmp.path());
    probes::network_payload_topology(&mut report);
    probes::algorithms(&mut report);
    probes::analyzer(&mut report, &probe_specs);
    probes::socket_overhead(&mut report, &cfg.stp, tmp.path())?;
    report.set("cli.startup_ms", cli_startup_s(&cfg, &tmp)? * 1e3);
    report.set("harness.cores", cores() as f64);
    report.set("harness.workers", sweep_workers() as f64);
    report.set("harness.conns", 1.0);

    let spans_dir = cfg.tmp_root.with_file_name("bench-trace");
    std::fs::create_dir_all(&spans_dir).map_err(|e| e.to_string())?;
    let spans_path = spans_dir.join(format!("spans-{name}.jsonl"));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let values = report.complete();
    println!("\n   per-layer metrics");
    for (metric, value, unit) in &values {
        println!("   {metric:<40} {value:>18.4} {unit}");
    }
    println!(
        "\n   {} spans written to {}",
        tracer.spans.len(),
        spans_path.display()
    );
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &values, cfg.scale)
    );
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stp-benchmark-trace: {e}");
            ExitCode::from(2)
        }
    }
}
