//! Shared infrastructure for the `repro` figure binary and the `stp`
//! CLI: experiment grids, CSV/ASCII table output.

pub mod figures;
pub mod plot;

use std::io::Write;

use mpp_model::{LibraryKind, Machine};
use stp_core::algorithms::StpAlgorithm;
use stp_core::prelude::*;
use stp_core::runner::try_run_alg_controlled;

/// Run one algorithm/distribution/size point and return milliseconds.
pub fn run_ms(
    machine: &Machine,
    kind: AlgoKind,
    dist: SourceDist,
    s: usize,
    msg_len: usize,
) -> f64 {
    let exp = Experiment {
        machine,
        dist,
        s,
        msg_len,
        kind,
    };
    let out = exp
        .run_controlled(&RunControl::default())
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(
        out.verified,
        "{} failed verification (s={s}, L={msg_len})",
        kind.name()
    );
    out.makespan_ms()
}

/// [`run_ms`] for an algorithm object that has no [`AlgoKind`] (a
/// `PartRecursive` depth, a zero-copy `DissemAllGather`): `msg_len`-byte
/// messages at explicit `sources`, verified by the runner's delivery
/// oracle.
pub fn run_alg_ms(
    machine: &Machine,
    lib: LibraryKind,
    alg: &dyn StpAlgorithm,
    sources: &[usize],
    msg_len: usize,
) -> f64 {
    let out = try_run_alg_controlled(
        machine,
        lib,
        sources,
        &|src| payload_for(src, msg_len),
        alg,
        &RunControl::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    assert!(
        out.verified,
        "{} failed verification (s={}, L={msg_len})",
        alg.name(),
        sources.len()
    );
    out.makespan_ms()
}

/// A labelled series (one curve of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (algorithm or distribution name).
    pub label: String,
    /// (x, milliseconds) points.
    pub points: Vec<(f64, f64)>,
}

/// Write a figure as a CSV-compatible table: the x column plus one
/// column per series.
pub fn print_figure(out: &mut dyn Write, title: &str, x_name: &str, series: &[Series]) {
    let mut table = format!("# {title}\n{x_name}");
    for s in series {
        table.push_str(&format!(",{}", s.label));
    }
    table.push('\n');
    let n = series.first().map_or(0, |s| s.points.len());
    for i in 0..n {
        table.push_str(&series[0].points[i].0.to_string());
        for s in series {
            table.push_str(&format!(",{:.4}", s.points[i].1));
        }
        table.push('\n');
    }
    writeln!(out, "{table}").expect("write figure table");
}

/// Percentage difference `(a - b) / b * 100` (used by Figures 9 and 10:
/// positive = `a` slower than `b`).
pub fn pct_diff(a_ms: f64, b_ms: f64) -> f64 {
    (a_ms - b_ms) / b_ms * 100.0
}

/// The sweep pool of the `repro` binary, honouring
/// `STP_SWEEP_WORKERS`. Reads (and warns about) the process environment,
/// so call it once per process.
pub fn sweep_runner() -> SweepRunner {
    stp_core::env::Env::from_process().sweep_runner()
}

/// Sweep a parameter for several algorithms, one series per algorithm:
/// `point(kind, x)` must return milliseconds. The whole (algorithm × x)
/// grid is executed concurrently on a [`SweepRunner`]; virtual-time
/// results are identical to a sequential loop — each point is an
/// independent deterministic simulation — so series come back in input
/// order with the same values, just sooner.
pub fn sweep_algorithms_parallel<F>(
    runner: &SweepRunner,
    kinds: &[AlgoKind],
    xs: &[f64],
    point: F,
) -> Vec<Series>
where
    F: Fn(AlgoKind, f64) -> f64 + Sync,
{
    let grid: Vec<(AlgoKind, f64)> = kinds
        .iter()
        .flat_map(|&k| xs.iter().map(move |&x| (k, x)))
        .collect();
    let ms = runner.map(grid, |(k, x)| point(k, x));
    kinds
        .iter()
        .enumerate()
        .map(|(ki, &k)| Series {
            label: k.name().to_string(),
            points: xs
                .iter()
                .enumerate()
                .map(|(xi, &x)| (x, ms[ki * xs.len() + xi]))
                .collect(),
        })
        .collect()
}

/// The paper's Paragon message-size sweep: 32 B to 16 KiB.
pub fn length_sweep() -> Vec<usize> {
    vec![32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
}

/// Parse an algorithm name as used by the `stp` CLI (delegates to
/// [`AlgoKind::parse`], which the serve request path shares).
pub fn parse_algo(name: &str) -> Option<AlgoKind> {
    AlgoKind::parse(name)
}

/// Parse a distribution name (long or paper-abbreviated) for the CLI
/// (delegates to [`SourceDist::parse`]).
pub fn parse_dist(name: &str, seed: u64) -> Option<SourceDist> {
    SourceDist::parse(name, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_roundtrip() {
        for &k in AlgoKind::all() {
            assert_eq!(parse_algo(k.name()), Some(k), "{}", k.name());
            // lowercase with underscores also works
            let mangled = k.name().to_lowercase().replace(['-', ' '], "_");
            assert_eq!(parse_algo(&mangled), Some(k), "{mangled}");
        }
        assert_eq!(parse_algo("no_such_algorithm"), None);
    }

    #[test]
    fn dist_names_parse() {
        assert_eq!(parse_dist("cross", 0), Some(SourceDist::Cross));
        assert_eq!(parse_dist("Sq", 0), Some(SourceDist::SquareBlock));
        assert_eq!(parse_dist("rand", 7), Some(SourceDist::Random { seed: 7 }));
        assert_eq!(parse_dist("nope", 0), None);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        use mpp_model::Machine;
        let machine = Machine::paragon(4, 4);
        let kinds = [AlgoKind::TwoStep, AlgoKind::BrLin];
        let xs = [64.0, 256.0];
        let point = |k: AlgoKind, x: f64| run_ms(&machine, k, SourceDist::Equal, 4, x as usize);
        let seq: Vec<Series> = kinds
            .iter()
            .map(|&k| Series {
                label: k.name().to_string(),
                points: xs.iter().map(|&x| (x, point(k, x))).collect(),
            })
            .collect();
        let par = sweep_algorithms_parallel(
            &SweepRunner::sequential().with_workers(4),
            &kinds,
            &xs,
            point,
        );
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.points, b.points, "{}", a.label);
        }
    }

    #[test]
    fn pct_diff_signs() {
        assert!(pct_diff(11.0, 10.0) > 0.0);
        assert!(pct_diff(9.0, 10.0) < 0.0);
        assert_eq!(pct_diff(10.0, 10.0), 0.0);
    }

    #[test]
    fn length_sweep_covers_paper_range() {
        let l = length_sweep();
        assert_eq!(*l.first().unwrap(), 32);
        assert_eq!(*l.last().unwrap(), 16384);
    }
}
