//! Shared infrastructure for the figure-regeneration binaries and the
//! Criterion benches: experiment grids, CSV/ASCII table output.

pub mod plot;

use mpp_model::Machine;
use stp_core::prelude::*;

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
    let out = exp.run().unwrap_or_else(|e| panic!("{e}"));
    assert!(
        out.verified,
        "{} failed verification (s={s}, L={msg_len})",
        kind.name()
    );
    out.makespan_ms()
}

/// [`run_ms`] with an explicit executor — the `sweep_engine` benches
/// race the cooperative kernel against the threaded trap/grant
/// reference on the same grid point.
pub fn run_ms_exec(
    machine: &Machine,
    kind: AlgoKind,
    dist: SourceDist,
    s: usize,
    msg_len: usize,
    exec: mpp_runtime::ExecMode,
) -> f64 {
    use mpp_runtime::{run_simulated_with, Communicator, SimConfig};
    let sources = dist.place(machine.shape, s);
    let alg = kind.build();
    let shape = machine.shape;
    let config = SimConfig {
        lib: kind.default_lib(),
        exec,
        ..SimConfig::default()
    };
    let out = run_simulated_with(machine, &config, async |comm| {
        let payload = sources
            .binary_search(&comm.rank())
            .is_ok()
            .then(|| payload_for(comm.rank(), msg_len));
        let ctx = StpCtx {
            shape,
            sources: &sources,
            payload: payload.as_deref(),
        };
        alg.run(comm, &ctx).await.len() == sources.len()
    });
    assert!(
        out.results.iter().all(|&ok| ok),
        "{} failed verification (s={s}, L={msg_len}, exec={})",
        kind.name(),
        exec.name()
    );
    out.makespan_ns as f64 / 1e6
}

/// A labelled series (one curve of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (algorithm or distribution name).
    pub label: String,
    /// (x, milliseconds) points.
    pub points: Vec<(f64, f64)>,
}

/// Print a figure as a CSV-compatible table: the x column plus one
/// column per series.
pub fn print_figure(title: &str, x_name: &str, series: &[Series]) {
    println!("# {title}");
    print!("{x_name}");
    for s in series {
        print!(",{}", s.label);
    }
    println!();
    let n = series.first().map_or(0, |s| s.points.len());
    for i in 0..n {
        print!("{}", series[0].points[i].0);
        for s in series {
            print!(",{:.4}", s.points[i].1);
        }
        println!();
    }
    println!();
}

/// Percentage difference `(a - b) / b * 100` (used by Figures 9 and 10:
/// positive = `a` slower than `b`).
pub fn pct_diff(a_ms: f64, b_ms: f64) -> f64 {
    (a_ms - b_ms) / b_ms * 100.0
}

/// Sweep a parameter for several algorithms, producing one series per
/// algorithm: `point(kind, x)` must return milliseconds.
pub fn sweep_algorithms<F>(kinds: &[AlgoKind], xs: &[f64], mut point: F) -> Vec<Series>
where
    F: FnMut(AlgoKind, f64) -> f64,
{
    kinds
        .iter()
        .map(|&k| Series {
            label: k.name().to_string(),
            points: xs.iter().map(|&x| (x, point(k, x))).collect(),
        })
        .collect()
}

/// The sweep pool of a `repro-*` binary or bench, honouring
/// `STP_SWEEP_WORKERS`. Reads (and warns about) the process environment,
/// so call it once per process.
pub fn sweep_runner() -> SweepRunner {
    stp_core::env::Env::from_process().sweep_runner()
}

/// Parallel counterpart of [`sweep_algorithms`]: the whole
/// (algorithm × x) grid is executed concurrently on a [`SweepRunner`].
/// Virtual-time results are identical to the sequential sweep — each
/// point is an independent deterministic simulation — so series come
/// back in the same order with the same values, just sooner.
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

/// Sweep a parameter for several distributions, one series each.
pub fn sweep_distributions<F>(dists: &[SourceDist], xs: &[f64], mut point: F) -> Vec<Series>
where
    F: FnMut(&SourceDist, f64) -> f64,
{
    dists
        .iter()
        .map(|d| Series {
            label: d.name().to_string(),
            points: xs.iter().map(|&x| (x, point(d, x))).collect(),
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
        let seq = sweep_algorithms(&kinds, &xs, point);
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
