//! The one place the process environment is read.
//!
//! Every run parameter reaches a simulation as an argument. The two
//! `STP_*` variables are the exception a deployment needs, and this
//! module is the only code in the workspace's libraries that looks at
//! them: a binary calls [`Env::from_process`] once, in `main`, and hands
//! the parsed values down. [`Env::parse`] is total — a malformed value
//! costs one warning and falls back to the default, never a panic — and
//! returns its warnings instead of printing them, so each is reported
//! exactly once by whoever called it.

use mpp_runtime::SimBudget;

use crate::runner::SweepRunner;

/// The parsed `STP_*` environment; `None` means unset (or malformed and
/// warned about), i.e. "use the default".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Env {
    /// `STP_SWEEP_WORKERS` — concurrent grid points of a sweep.
    pub sweep_workers: Option<usize>,
    /// `STP_WATCHDOG_EVENTS` — kernel event budget per simulation.
    pub watchdog_events: Option<u64>,
}

/// Store an integer variable; on failure, what was expected instead.
fn int<T: std::str::FromStr>(slot: &mut Option<T>, value: &str) -> Option<&'static str> {
    *slot = value.parse().ok();
    slot.is_none().then_some("a non-negative integer")
}

impl Env {
    /// Parse `(name, value)` pairs. Names outside `STP_*` are not ours
    /// and are skipped; an `STP_*` name this program does not read, or a
    /// value that does not parse, yields one warning naming it.
    pub fn parse<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> (Env, Vec<String>)
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut env = Env::default();
        let mut warnings = Vec::new();
        for (name, raw) in vars {
            let (name, raw) = (name.as_ref(), raw.as_ref());
            if !name.starts_with("STP_") {
                continue;
            }
            let value = raw.trim();
            let expected = match name {
                "STP_SWEEP_WORKERS" => int(&mut env.sweep_workers, value),
                "STP_WATCHDOG_EVENTS" => int(&mut env.watchdog_events, value),
                _ => {
                    warnings.push(format!(
                        "{name} is ignored: not a variable this program reads"
                    ));
                    continue;
                }
            };
            if let Some(expected) = expected {
                warnings.push(format!("ignoring {name}={raw:?}: expected {expected}"));
            }
        }
        (env, warnings)
    }

    /// Read the process environment, printing each warning to stderr.
    /// Call once, from `main`.
    pub fn from_process() -> Env {
        let vars = std::env::vars_os().filter_map(|(name, value)| {
            let name = name.into_string().ok()?;
            let ours = name.starts_with("STP_");
            ours.then(|| (name, value.to_string_lossy().into_owned()))
        });
        let (env, warnings) = Env::parse(vars);
        for warning in &warnings {
            eprintln!("warning: {warning}");
        }
        env
    }

    /// The sweep pool: `STP_SWEEP_WORKERS` workers (`0` and `1` both
    /// mean sequential), else one per core.
    pub fn sweep_runner(&self) -> SweepRunner {
        match self.sweep_workers {
            Some(n) => SweepRunner::sequential().with_workers(n),
            None => SweepRunner::new(),
        }
    }

    /// The per-simulation watchdog budget: `STP_WATCHDOG_EVENTS` kernel
    /// events, else unlimited.
    pub fn budget(&self) -> SimBudget {
        SimBudget {
            max_events: self.watchdog_events,
            ..SimBudget::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 2] = ["STP_SWEEP_WORKERS", "STP_WATCHDOG_EVENTS"];

    #[test]
    fn well_formed_values_parse_with_no_warnings() {
        let (env, warnings) = Env::parse([
            ("STP_SWEEP_WORKERS", " 8\n"),
            ("STP_WATCHDOG_EVENTS", "18446744073709551615"),
            ("PATH", "/usr/bin"),
            ("STPX", "not ours"),
        ]);
        assert_eq!(warnings, Vec::<String>::new());
        assert_eq!(
            env,
            Env {
                sweep_workers: Some(8),
                watchdog_events: Some(u64::MAX),
            }
        );
        assert_eq!(env.sweep_runner().workers(), 8);
        assert_eq!(env.budget().max_events, Some(u64::MAX));
        assert_eq!(
            Env::parse([("STP_SWEEP_WORKERS", "0")])
                .0
                .sweep_runner()
                .workers(),
            1
        );
    }

    #[test]
    fn every_malformed_value_is_one_warning_and_the_default() {
        // One past u64::MAX overflows every integer field.
        let hostile = ["", " \t", "-4", "4.5", "eight", "18446744073709551616"];
        for name in NAMES {
            for raw in hostile {
                let (env, warnings) = Env::parse([(name, raw)]);
                assert_eq!(env, Env::default(), "{name}={raw:?}");
                assert_eq!(warnings.len(), 1, "{name}={raw:?}: {warnings:?}");
                assert!(warnings[0].contains(name), "{warnings:?}");
                assert!(warnings[0].contains(&format!("{raw:?}")), "{warnings:?}");
            }
        }
        // A bad variable costs itself only.
        let (env, warnings) =
            Env::parse([("STP_SWEEP_WORKERS", "many"), ("STP_WATCHDOG_EVENTS", "2")]);
        assert_eq!((env.sweep_workers, env.watchdog_events), (None, Some(2)));
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn unknown_and_retired_names_are_ignored_with_one_warning_each() {
        // The retired names are spelled in halves so the repository
        // guard against mentioning them stays a plain grep. The daemon's
        // variables went because each only repeated a `stp serve` flag.
        let names = [
            ["STP_", "EXEC"].concat(),
            ["STP_SWEEP_", "RANK_BUDGET"].concat(),
            "STP_SWEEP_WORKER".to_string(),
            ["STP_SERVE_", "ADDR"].concat(),
            ["STP_SERVE_", "CACHE"].concat(),
            ["STP_SERVE_", "CACHE_CAP"].concat(),
            ["STP_SERVE_", "WORKERS"].concat(),
            ["STP_SERVE_", "DEADLINE_MS"].concat(),
        ];
        let (env, warnings) = Env::parse(names.iter().map(|name| (name, "4")));
        assert_eq!(env, Env::default());
        assert_eq!(warnings.len(), names.len(), "{warnings:?}");
        for (warning, name) in warnings.iter().zip(&names) {
            assert!(
                warning.contains(name.as_str()) && warning.contains("ignored"),
                "{warning}"
            );
        }
    }
}
