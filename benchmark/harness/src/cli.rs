//! What the two binaries share: the command line, where the product
//! binary and the scratch space are, the run header and the result
//! line.

use std::path::{Path, PathBuf};

use crate::proc::{cores, fs_type, sweep_workers};
use crate::workloads::{Config, Scale};

/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is absent.
pub const DEFAULT_SECONDS: f64 = 6.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub selfcheck: bool,
    stp: Option<PathBuf>,
    tmp: Option<PathBuf>,
}

pub const USAGE: &str = "\
usage: bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                             [--smoke] [--selfcheck] [--stp PATH] [--tmp DIR]
  no --workload   run all six workloads and print every end-to-end metric
  --trace 1       traced run: the workload once, then spans around calls into
                  each layer's public functions; prints every per-layer metric
  --smoke         about 1/20 of the work, all output checks on; not a baseline
  --selfcheck     the whole set twice; fails if a metric differs by more than
                  its bound or an exact count differs at all";

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            selfcheck: false,
            stp: None,
            tmp: None,
        };
        let mut argv = argv.skip(1);
        while let Some(flag) = argv.next() {
            let mut value = || {
                argv.next()
                    .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
            };
            let bad = |what: &str| format!("{flag}: {what}\n{USAGE}");
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => args.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|_| bad("not a number"))?;
                    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                        return Err(bad("must be zero or more"));
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("wants 0 or 1")),
                    }
                }
                "--smoke" => args.smoke = true,
                "--selfcheck" => args.selfcheck = true,
                "--stp" => args.stp = Some(value()?.into()),
                "--tmp" => args.tmp = Some(value()?.into()),
                _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
            }
        }
        Ok(args)
    }

    /// Locate the product binary and the scratch root, both under the
    /// target directory (`$CARGO_TARGET_DIR`, else `./target`) of the
    /// checkout the command runs in. `run.sh` passes the binary it just
    /// built in `BENCH_STP_BIN`.
    pub fn config(&self) -> Result<Config, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let stp = self
            .stp
            .clone()
            .or_else(|| std::env::var_os("BENCH_STP_BIN").map(PathBuf::from))
            .unwrap_or_else(|| target.join("release/stp"));
        let stp = stp.canonicalize().map_err(|e| {
            format!(
                "product binary {} not found ({e}); `bash benchmark/run.sh` builds it",
                stp.display()
            )
        })?;
        // Inside the checkout and ignored by git, like the build itself.
        let tmp_root = self.tmp.clone().unwrap_or_else(|| target.join("bench-tmp"));
        std::fs::create_dir_all(&tmp_root)
            .map_err(|e| format!("cannot create {}: {e}", tmp_root.display()))?;
        Ok(Config {
            stp,
            tmp_root,
            seed: self.seed,
            seconds: self.seconds,
            scale: if self.smoke {
                Scale::Smoke
            } else {
                Scale::Full
            },
        })
    }
}

/// Commit of the checkout, read from `.git` without running git; a
/// checkout that is not a repository says so.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if id.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        id
    }
}

/// The lines that make two runs known comparable.
pub fn print_header(cfg: &Config) {
    println!(
        "# stp benchmark — host wall-clock only; simulated quantities are exact counts under sim.*"
    );
    println!("# commit      {}", commit());
    println!("# scale       {}", scale_name(cfg.scale));
    println!(
        "# cores       {} (sweep workers {}, daemon workers 1, connections 1)",
        cores(),
        sweep_workers()
    );
    println!("# seed        {}", cfg.seed);
    println!("# seconds     {}", cfg.seconds);
    println!("# stp         {}", cfg.stp.display());
    println!(
        "# cache fs    {} ({})",
        fs_type(&cfg.tmp_root),
        cfg.tmp_root.display()
    );
}

pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    }
}

/// The result object the driver reads from the last line of stdout:
/// exactly `correct`, `attempted`, `failed`, `metrics` — plus a
/// `"scale":"smoke"` stamp on smoke runs, which are never a baseline.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
    scale: Scale,
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let stamp = match scale {
        Scale::Full => "",
        Scale::Smoke => ", \"scale\": \"smoke\"",
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}{stamp}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(
            std::iter::once("stp-benchmark")
                .chain(args.iter().copied())
                .map(String::from),
        )
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(&[
            "--workload",
            "serve_warm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve_warm"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.seed, defaults.seconds), (42, DEFAULT_SECONDS));
        assert!(!defaults.trace && !defaults.smoke && defaults.workload.is_none());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_driver_keys() {
        let line = result_line(10, 0, &[("setup_s", 0.8127, "s")], Scale::Full);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let smoke = result_line(10, 1, &[], Scale::Smoke);
        assert!(smoke.starts_with("{\"correct\": false,"));
        assert!(smoke.ends_with("\"scale\": \"smoke\"}"));
    }
}
