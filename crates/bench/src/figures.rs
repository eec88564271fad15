//! Every figure, table and text result the `repro` binary regenerates:
//! one plain function per name in [`FIGURES`], each writing its CSV /
//! ASCII output to the writer it is handed. `repro <name>` runs one of
//! them onto stdout; `repro all` runs each into `results/<name>.txt` and
//! ends with [`report`], which renders those files as SVG charts.
//!
//! Grid points are independent deterministic simulations, so a figure
//! that sweeps on the [`SweepRunner`] prints the same bytes at any worker
//! count; the rest ignore the runner and loop sequentially.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use mpp_model::{
    ContentionModel, LibraryKind, Machine, MachineParams, MeshShape, Placement, Topology,
};
use mpp_runtime::{run_simulated_traced, Communicator};
use mpp_sim::{render_timeline, summarize};
use stp_core::algorithms::{DissemAllGather, PartRecursive, ReposAdaptive};
use stp_core::distribution::ascii_grid;
use stp_core::metrics::{figure2_row, format_table};
use stp_core::prelude::*;
use stp_core::runner::run_sources;

use crate::plot::{parse_csv_blocks, Chart};
use crate::{
    length_sweep, pct_diff, print_figure, run_alg_ms, run_ms, sweep_algorithms_parallel, Series,
};

/// A figure: writes its output to the writer, sweeping on the runner
/// where its grid is large enough to be worth it.
pub type Figure = fn(&SweepRunner, &mut dyn Write);

/// Every name `repro` accepts, in the order `repro all` runs them
/// (`report` last: it reads what the others wrote).
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig01", fig01),
    ("fig02", fig02),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("partitioning", partitioning),
    ("nx-vs-mpi", nx_vs_mpi),
    ("varlen", varlen),
    ("adaptive", adaptive),
    ("dissem", dissem),
    ("hypercube", hypercube),
    ("trace", trace),
    ("naive", naive),
    ("contention", contention),
    ("report", report),
];

/// `println!` onto the figure's writer. A failed write panics, as
/// `println!` did when each figure was a program printing to stdout.
macro_rules! outln {
    ($out:expr) => {
        writeln!($out).expect("write figure output")
    };
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("write figure output")
    };
}

/// `print!` onto the figure's writer.
macro_rules! out {
    ($out:expr, $($arg:tt)*) => {
        write!($out, $($arg)*).expect("write figure output")
    };
}

/// A `# title` line, a `first,<algorithm names>` header, then one CSV
/// row per key with `ms(key, kind)` in each algorithm's column.
fn print_table<K>(
    out: &mut dyn Write,
    title: &str,
    first: &str,
    kinds: &[AlgoKind],
    keys: impl IntoIterator<Item = (String, K)>,
    ms: impl Fn(&K, AlgoKind) -> f64,
) {
    outln!(out, "# {title}");
    out!(out, "{first}");
    for k in kinds {
        out!(out, ",{}", k.name());
    }
    outln!(out);
    for (label, key) in keys {
        out!(out, "{label}");
        for &k in kinds {
            out!(out, ",{:.4}", ms(&key, k));
        }
        outln!(out);
    }
}

/// Figure 1: placement of 30 sources in the row, cross, and right
/// diagonal distributions on a 10×10 mesh.
pub fn fig01(_runner: &SweepRunner, out: &mut dyn Write) {
    let shape = MeshShape::new(10, 10);
    for dist in [SourceDist::Row, SourceDist::Cross, SourceDist::DiagRight] {
        let sources = dist.place(shape, 30);
        outln!(
            out,
            "{}(30) on 10x10 ({} sources):",
            dist.name(),
            sources.len()
        );
        outln!(out, "{}", ascii_grid(shape, &sources));
    }
}

/// Squarest factorization of `p` as (rows, cols), rows ≤ cols.
fn mesh_dims(p: usize) -> (usize, usize) {
    let mut r = (p as f64).sqrt() as usize;
    while r > 1 && !p.is_multiple_of(r) {
        r -= 1;
    }
    (r.max(1), p / r.max(1))
}

/// Figure 2 at the paper's machine size, p = 256 (see [`fig02_at`]).
pub fn fig02(runner: &SweepRunner, out: &mut dyn Write) {
    fig02_at(256, runner, out);
}

/// Figure 2: algorithm- and distribution-dependent parameters
/// (congestion, wait, #send/rec, av_msg_lgth, av_act_proc) for 2-Step,
/// PersAlltoAll and Br_Lin on the equal distribution.
///
/// The paper tabulates asymptotic bounds for p = 2^k assuming message
/// length L; here the same parameters are *measured* from per-iteration
/// statistics, once with s a power of two (the paper's slow case for
/// Br_Lin) and once without.
///
/// `repro fig02 --p N` picks the machine size `p` (rows×cols is the
/// squarest factorization of N). The six (s × algorithm) grid points
/// are independent simulations and run concurrently on the
/// [`SweepRunner`]; `STP_SWEEP_WORKERS=1` forces sequential behaviour
/// for speedup measurements.
pub fn fig02_at(p: usize, runner: &SweepRunner, out: &mut dyn Write) {
    let (rows, cols) = mesh_dims(p);
    let machine = Machine::paragon(rows, cols);
    let kinds = [AlgoKind::TwoStep, AlgoKind::PersAlltoAll, AlgoKind::BrLin];
    // s chosen relative to p: the paper's table uses s=16 / s=24 at
    // p=256; scale both cases down for small --p values.
    let s_pow = (p / 16).max(2).next_power_of_two().min(p);
    let s_odd = (s_pow + s_pow / 2).min(p);
    let s_values = [s_pow, s_odd];

    // The full (s × algorithm) grid, executed concurrently.
    let machine = &machine;
    let grid: Vec<Experiment> = s_values
        .iter()
        .flat_map(|&s| {
            kinds.iter().map(move |&kind| Experiment {
                machine,
                dist: SourceDist::Equal,
                s,
                msg_len: 1024,
                kind,
            })
        })
        .collect();
    let t0 = Instant::now();
    let outcomes = runner.run_experiments(&grid);
    let wall = t0.elapsed();

    for (si, &s) in s_values.iter().enumerate() {
        let pow = if s.is_power_of_two() {
            "s = 2^l"
        } else {
            "s != 2^l"
        };
        outln!(
            out,
            "== p={p} ({rows}x{cols}), equal distribution, s={s} ({pow}), L=1K =="
        );
        let mut table_rows = Vec::new();
        for (ki, &kind) in kinds.iter().enumerate() {
            let outcome = &outcomes[si * kinds.len() + ki];
            assert!(outcome.verified);
            let mut row = figure2_row(kind.name(), &outcome.stats);
            if kind == AlgoKind::BrLin {
                row.algorithm = format!("Br_Lin, {pow}");
            }
            table_rows.push(row);
        }
        outln!(out, "{}", format_table(&table_rows));
    }

    outln!(
        out,
        "paper's asymptotic forms for comparison (equal distribution):"
    );
    outln!(out, "  2-Step        congestion O(s)  wait O(1)      #send/rec O(p)      av_msg O(sL)       av_act O(p/log p)");
    outln!(out, "  PersAlltoAll  congestion O(1)  wait O(1)      #send/rec O(p)      av_msg O(L)        av_act O(p)");
    outln!(out, "  Br_Lin s=2^l  congestion O(1)  wait O(log p)  #send/rec O(log p)  av_msg O(sL)       av_act O(p/log p + s log s/log p)");
    outln!(out, "  Br_Lin s!=2^l congestion O(1)  wait O(log p)  #send/rec O(log p)  av_msg O(sL/log p) av_act O(p log s/log p)");
    eprintln!(
        "[sweep] {} grid points on {} workers in {:.3}s",
        grid.len(),
        runner.workers(),
        wall.as_secs_f64()
    );
}

/// Figure 3: performance of all algorithms on a 10×10 Paragon; the
/// number of sources varies from 1 to 100, L = 4 KiB, equal
/// distribution. Includes the MPI builds of 2-Step and PersAlltoAll
/// (`MPI_AllGather`, `MPI_Alltoall`).
pub fn fig03(runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(10, 10);
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::MpiAllGather,
        AlgoKind::MpiAlltoall,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::BrXyDim,
    ];
    let ss: Vec<f64> = (0..=20)
        .map(|i| if i == 0 { 1.0 } else { (i * 5) as f64 })
        .collect();
    let series = sweep_algorithms_parallel(runner, &kinds, &ss, |k, s| {
        run_ms(&machine, k, SourceDist::Equal, s as usize, 4096)
    });
    print_figure(
        out,
        "Figure 3: 10x10 Paragon, L=4K, equal distribution, time (ms) vs s",
        "s",
        &series,
    );
}

/// Figure 4: performance on a 10×10 Paragon; L varies from 32 bytes to
/// 16 KiB, s = 30, right diagonal distribution.
pub fn fig04(runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(10, 10);
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::BrXyDim,
    ];
    let lens: Vec<f64> = length_sweep().iter().map(|&l| l as f64).collect();
    let series = sweep_algorithms_parallel(runner, &kinds, &lens, |k, len| {
        run_ms(&machine, k, SourceDist::DiagRight, 30, len as usize)
    });
    print_figure(
        out,
        "Figure 4: 10x10 Paragon, s=30, right diagonal, time (ms) vs L (bytes)",
        "L",
        &series,
    );
}

/// Figure 5: performance on Paragons of 4 to 256 processors;
/// L = 1 KiB, approximately √p sources, right diagonal distribution.
pub fn fig05(runner: &SweepRunner, out: &mut dyn Write) {
    let sizes = [2usize, 4, 6, 8, 10, 12, 14, 16]; // square side: p = side²
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::BrXyDim,
    ];
    let xs: Vec<f64> = sizes.iter().map(|&n| (n * n) as f64).collect();
    let series = sweep_algorithms_parallel(runner, &kinds, &xs, |k, p| {
        let side = (p as usize).isqrt();
        let machine = Machine::paragon(side, side);
        run_ms(&machine, k, SourceDist::DiagRight, side, 1024)
    });
    print_figure(
        out,
        "Figure 5: Paragon, L=1K, s=sqrt(p), right diagonal, time (ms) vs p",
        "p",
        &series,
    );
}

/// One table row per distribution, labelled with its short name.
fn dist_rows(dists: impl IntoIterator<Item = SourceDist>) -> Vec<(String, SourceDist)> {
    dists
        .into_iter()
        .map(|d| (d.name().to_string(), d))
        .collect()
}

/// One table row per source count.
fn s_rows(ss: &[usize]) -> Vec<(String, usize)> {
    ss.iter().map(|&s| (s.to_string(), s)).collect()
}

/// Figure 6: performance of the three merge-based algorithms on a 10×10
/// Paragon; L = 2 KiB, s = 30, across source distributions.
pub fn fig06(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(10, 10);
    print_table(
        out,
        "Figure 6: 10x10 Paragon, L=2K, s=30, time (ms) per distribution",
        "dist",
        &[AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::BrXyDim],
        dist_rows(SourceDist::paper_set()),
        |dist, k| run_ms(&machine, k, dist.clone(), 30, 2048),
    );
}

/// Figure 7: performance of the three merge-based algorithms on a 10×10
/// Paragon with the right diagonal distribution when the *total* message
/// volume is fixed at 80 KiB and the number of sources varies — the
/// paper's demonstration that spreading the data over more sources is
/// faster.
pub fn fig07(runner: &SweepRunner, out: &mut dyn Write) {
    const TOTAL: usize = 80 * 1024;
    let machine = Machine::paragon(10, 10);
    let kinds = [AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::BrXyDim];
    let ss = [5.0, 10.0, 20.0, 40.0, 80.0];
    let series = sweep_algorithms_parallel(runner, &kinds, &ss, |k, s| {
        let s = s as usize;
        run_ms(&machine, k, SourceDist::DiagRight, s, TOTAL / s)
    });
    print_figure(
        out,
        "Figure 7: 10x10 Paragon, right diagonal, total sL=80K fixed, time (ms) vs s",
        "s",
        &series,
    );
}

/// Figure 8: performance of `Br_Lin` on a 120-node Paragon when the
/// machine dimensions vary; equal distribution, L = 4 KiB, three source
/// counts. Demonstrates that the *same* distribution is good or bad
/// depending on the mesh dimensions (the paper's s=15-faster-than-s=8
/// anomaly comes from where the equal distribution lands on each shape).
pub fn fig08(_runner: &SweepRunner, out: &mut dyn Write) {
    let shapes = [(2usize, 60usize), (4, 30), (6, 20), (8, 15), (10, 12)];
    let series: Vec<Series> = [8usize, 15, 60]
        .iter()
        .map(|&s| Series {
            label: format!("s={s}"),
            points: shapes
                .iter()
                .enumerate()
                .map(|(i, &(r, c))| {
                    let machine = Machine::paragon(r, c);
                    let ms = run_ms(&machine, AlgoKind::BrLin, SourceDist::Equal, s, 4096);
                    (i as f64, ms)
                })
                .collect(),
        })
        .collect();
    outln!(out, "# shapes: 0=2x60 1=4x30 2=6x20 3=8x15 4=10x12");
    print_figure(
        out,
        "Figure 8: Br_Lin on 120-node Paragon, equal distribution, L=4K, time (ms) vs shape",
        "shape",
        &series,
    );
}

/// One series per distribution: `y(dist, x)` at every `x`.
fn series_per_dist(
    dists: &[SourceDist],
    xs: &[usize],
    y: impl Fn(&SourceDist, usize) -> f64,
) -> Vec<Series> {
    dists
        .iter()
        .map(|dist| Series {
            label: dist.name().to_string(),
            points: xs.iter().map(|&x| (x as f64, y(dist, x))).collect(),
        })
        .collect()
}

/// The four distributions of the repositioning comparison (Figs 9, 10).
const REPOS_DISTS: [SourceDist; 4] = [
    SourceDist::Cross,
    SourceDist::SquareBlock,
    SourceDist::Equal,
    SourceDist::Band,
];

/// Percentage by which `Repos_xy_source` differs from `Br_xy_source`
/// on one point of a 16×16 Paragon (negative = repositioning wins).
fn repos_pct(machine: &Machine, dist: &SourceDist, s: usize, len: usize) -> f64 {
    let plain = run_ms(machine, AlgoKind::BrXySource, dist.clone(), s, len);
    let repos = run_ms(machine, AlgoKind::ReposXySource, dist.clone(), s, len);
    pct_diff(repos, plain)
}

/// Figure 9: percentage difference between `Repos_xy_source` and
/// `Br_xy_source` on a 16×16 Paragon; L = 6 KiB, varying the number of
/// sources, on four input distributions (cross, square block, equal,
/// band). Negative values mean repositioning is *faster*.
pub fn fig09(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(16, 16);
    let ss = [16usize, 50, 75, 100, 128, 150, 192];
    let series = series_per_dist(&REPOS_DISTS, &ss, |dist, s| {
        repos_pct(&machine, dist, s, 6 * 1024)
    });
    print_figure(
        out,
        "Figure 9: 16x16 Paragon, L=6K: % difference Repos_xy_source vs Br_xy_source (negative = repositioning wins)",
        "s",
        &series,
    );
}

/// Figure 10: percentage difference between `Repos_xy_source` and
/// `Br_xy_source` on a 16×16 Paragon; s = 75, varying the message
/// length, on four input distributions. Negative = repositioning wins.
pub fn fig10(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(16, 16);
    let lens = [256usize, 512, 1024, 2048, 4096, 6144, 8192, 16384];
    let series = series_per_dist(&REPOS_DISTS, &lens, |dist, len| {
        repos_pct(&machine, dist, 75, len)
    });
    print_figure(
        out,
        "Figure 10: 16x16 Paragon, s=75: % difference Repos_xy_source vs Br_xy_source vs L (negative = repositioning wins)",
        "L",
        &series,
    );
}

/// The four distributions of the T3D `MPI_AllGather` studies (Figs 11,
/// 12).
const T3D_DISTS: [SourceDist; 4] = [
    SourceDist::Equal,
    SourceDist::DiagRight,
    SourceDist::SquareBlock,
    SourceDist::Cross,
];

/// Placement seed of every T3D machine the figures build.
const T3D_SEED: u64 = 42;

/// Figure 11: scalability of `MPI_AllGather` on the T3D under different
/// source distributions.
///
/// (a) machine size varies (16..256 virtual processors) with s = 32 and
///     the total message volume fixed at 128 KiB;
/// (b) problem size varies on p = 128 with L = 16 KiB.
pub fn fig11(_runner: &SweepRunner, out: &mut dyn Write) {
    // (a) varying machine size, s=32, total = 128K (L = 4K).
    let series_a = series_per_dist(&T3D_DISTS, &[64, 128, 256], |dist, p| {
        let machine = Machine::t3d(p, T3D_SEED);
        run_ms(
            &machine,
            AlgoKind::MpiAllGather,
            dist.clone(),
            32,
            128 * 1024 / 32,
        )
    });
    print_figure(
        out,
        "Figure 11a: T3D MPI_AllGather, s=32, total 128K, time (ms) vs p",
        "p",
        &series_a,
    );

    // (b) p = 128, L = 16K, varying the number of sources (problem size).
    let machine = Machine::t3d(128, T3D_SEED);
    let series_b = series_per_dist(&T3D_DISTS, &[4, 8, 16, 32, 64, 128], |dist, s| {
        run_ms(&machine, AlgoKind::MpiAllGather, dist.clone(), s, 16 * 1024)
    });
    print_figure(
        out,
        "Figure 11b: T3D p=128 MPI_AllGather, L=16K, time (ms) vs s",
        "s",
        &series_b,
    );
}

/// Figure 12: `MPI_AllGather` on a 128-processor T3D with the total
/// message volume fixed at 128 KiB while the number of sources varies,
/// under different source distributions. Reproduces two claims: more
/// sources for the same volume is faster (up to the s→p deterioration),
/// and the equal distribution tends to win for s ≤ p/4.
pub fn fig12(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::t3d(128, T3D_SEED);
    let series = series_per_dist(&T3D_DISTS, &[4, 8, 16, 32, 64, 128], |dist, s| {
        run_ms(
            &machine,
            AlgoKind::MpiAllGather,
            dist.clone(),
            s,
            128 * 1024 / s,
        )
    });
    print_figure(
        out,
        "Figure 12: T3D p=128, MPI_AllGather, total 128K fixed, time (ms) vs s",
        "s",
        &series,
    );
}

/// Figure 13: three algorithms on a 128-processor T3D, L = 4 KiB.
///
/// (a) the number of sources varies from 5 to 128, equal distribution;
/// (b) different source distributions at s = 40.
///
/// The paper's headline: the ranking *flips* relative to the Paragon —
/// `MPI_Alltoall` wins (no combining, minimal waiting), `Br_Lin` loses
/// to its combining and wait costs.
pub fn fig13(runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::t3d(128, T3D_SEED);
    let kinds = [
        AlgoKind::MpiAllGather,
        AlgoKind::MpiAlltoall,
        AlgoKind::BrLin,
    ];

    // (a) s sweep, equal distribution.
    let ss = [5.0, 10.0, 20.0, 40.0, 64.0, 96.0, 128.0];
    let series = sweep_algorithms_parallel(runner, &kinds, &ss, |k, s| {
        run_ms(&machine, k, SourceDist::Equal, s as usize, 4096)
    });
    print_figure(
        out,
        "Figure 13a: T3D p=128, L=4K, equal distribution, time (ms) vs s",
        "s",
        &series,
    );

    // (b) distributions at s = 40.
    print_table(
        out,
        "Figure 13b: T3D p=128, L=4K, s=40, time (ms) per distribution",
        "dist",
        &kinds,
        dist_rows([
            SourceDist::Row,
            SourceDist::Column,
            SourceDist::Equal,
            SourceDist::DiagRight,
            SourceDist::SquareBlock,
            SourceDist::Cross,
            SourceDist::Random { seed: 7 },
        ]),
        |dist, k| run_ms(&machine, k, dist.clone(), 40, 4096),
    );
}

/// §5.2 (text result, no figure number): the partitioning approach
/// "hardly ever gives a better performance than repositioning alone" on
/// the Paragon — the final inter-group exchange of large messages
/// dominates. Compares `Br_xy_source`, `Repos_xy_source` and
/// `Part_xy_source` on a 16×16 Paragon.
pub fn partitioning(runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(16, 16);
    let kinds = [
        AlgoKind::BrXySource,
        AlgoKind::ReposXySource,
        AlgoKind::PartXySource,
    ];

    let ss = [16.0, 50.0, 75.0, 100.0, 150.0, 192.0];
    let series = sweep_algorithms_parallel(runner, &kinds, &ss, |k, s| {
        run_ms(&machine, k, SourceDist::Cross, s as usize, 6 * 1024)
    });
    print_figure(
        out,
        "Partitioning: 16x16 Paragon, cross distribution, L=6K, time (ms) vs s",
        "s",
        &series,
    );

    let lens = [1024.0, 2048.0, 4096.0, 8192.0, 16384.0];
    let series = sweep_algorithms_parallel(runner, &kinds, &lens, |k, len| {
        run_ms(&machine, k, SourceDist::SquareBlock, 75, len as usize)
    });
    print_figure(
        out,
        "Partitioning: 16x16 Paragon, square block, s=75, time (ms) vs L",
        "L",
        &series,
    );

    // Extension: does *deeper* recursive partitioning ever pay? (No —
    // the merge rounds of growing combined messages dominate harder.)
    let sources = SourceDist::Cross.place(machine.shape, 75);
    outln!(
        out,
        "# Extension: recursive partitioning depth sweep (cross, s=75, L=6K)"
    );
    outln!(out, "depth,ms");
    outln!(
        out,
        "0 (Repos),{:.4}",
        run_ms(
            &machine,
            AlgoKind::ReposXySource,
            SourceDist::Cross,
            75,
            6 * 1024
        )
    );
    for depth in 1..=4 {
        let alg = PartRecursive::new(BrXySource, depth, "PartRec");
        outln!(
            out,
            "{depth},{:.4}",
            run_alg_ms(&machine, LibraryKind::Nx, &alg, &sources, 6 * 1024)
        );
    }
}

/// §5 (text result): "We have compiled and run all algorithms on the
/// Paragon under MPI environment. We have observed a performance loss of
/// 2 to 5% in every MPI implementation." Runs every algorithm under both
/// library flavours on the Figure-3 workload and reports the loss.
pub fn nx_vs_mpi(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(10, 10);
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::BrXyDim,
        AlgoKind::ReposXySource,
    ];
    outln!(
        out,
        "# NX vs MPI on a 10x10 Paragon, equal distribution, s=30, L=4K"
    );
    outln!(out, "algorithm,nx_ms,mpi_ms,loss_pct");
    for kind in kinds {
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s: 30,
            msg_len: 4096,
            kind,
        };
        let nx = exp.run_with_lib(LibraryKind::Nx).expect("run failed");
        let mpi = exp.run_with_lib(LibraryKind::Mpi).expect("run failed");
        assert!(nx.verified && mpi.verified);
        let loss = (mpi.makespan_ns as f64 - nx.makespan_ns as f64) / nx.makespan_ns as f64 * 100.0;
        outln!(
            out,
            "{},{:.4},{:.4},{:.2}",
            kind.name(),
            nx.makespan_ms(),
            mpi.makespan_ms(),
            loss
        );
    }
}

/// §5 (text result): "In our experiments, using different length
/// messages did not influence the performance of the algorithms
/// significantly. In particular, for a given algorithm, a good
/// distribution remains a good distribution when the length of messages
/// varies."
///
/// Compares uniform-length runs against mixed-length runs with the same
/// total volume, across distributions, and checks that the good/poor
/// ordering is preserved.
pub fn varlen(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(10, 10);
    let s = 30;
    // Mixed: alternate 2K / 4K / 6K by source index — same total as
    // the uniform 4K.
    let mixed_len = |src: usize| match src % 3 {
        0 => 2048,
        1 => 4096,
        _ => 6144,
    };

    outln!(
        out,
        "# 10x10 Paragon, s=30, Br_xy_source: uniform 4K vs mixed lengths (same total)"
    );
    outln!(out, "dist,uniform_ms,mixed_ms,delta_pct");
    let mut uniform_order = Vec::new();
    let mut mixed_order = Vec::new();
    for dist in SourceDist::paper_set() {
        let sources = dist.place(machine.shape, s);
        let run = |len_of: &(dyn Fn(usize) -> usize + Sync)| {
            let outcome = run_sources(
                &machine,
                LibraryKind::Nx,
                &sources,
                &|src| payload_for(src, len_of(src)),
                AlgoKind::BrXySource,
            )
            .expect("run failed");
            assert!(outcome.verified);
            outcome
        };
        let uniform = run(&|_| 4096);
        let mixed = run(&mixed_len);
        let delta = (mixed.makespan_ms() - uniform.makespan_ms()) / uniform.makespan_ms() * 100.0;
        outln!(
            out,
            "{},{:.4},{:.4},{:+.1}",
            dist.name(),
            uniform.makespan_ms(),
            mixed.makespan_ms(),
            delta
        );
        uniform_order.push((dist.name(), uniform.makespan_ns));
        mixed_order.push((dist.name(), mixed.makespan_ns));
    }
    uniform_order.sort_by_key(|&(_, t)| t);
    mixed_order.sort_by_key(|&(_, t)| t);
    let same_ranking = uniform_order
        .iter()
        .map(|&(n, _)| n)
        .eq(mixed_order.iter().map(|&(n, _)| n));
    outln!(
        out,
        "\ndistribution ranking preserved under mixed lengths: {}",
        if same_ranking {
            "yes"
        } else {
            "mostly (see rows above)"
        }
    );
}

/// Extension: adaptive repositioning on the Figure-9 workload.
///
/// The paper's repositioning implementation "always repositions", which
/// costs 1–2 ms on inputs that are already close to ideal (Figure 9's
/// positive bars). `ReposAdaptive_xy_source` gates the permutation on a
/// local placement-quality score; this reruns the Figure-9 grid with all
/// three policies.
pub fn adaptive(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(16, 16);
    let shape = machine.shape;
    let adaptive = ReposAdaptive::new(BrXySource, AlgoKind::BrXySource, "ReposAdaptive_xy_source");

    outln!(
        out,
        "# 16x16 Paragon, L=6K: plain vs always-reposition vs adaptive (ms)"
    );
    outln!(out, "dist,s,quality,plain,repos,adaptive,repositioned?");
    for dist in [
        SourceDist::Cross,
        SourceDist::SquareBlock,
        SourceDist::Equal,
        SourceDist::Band,
        SourceDist::Row,
    ] {
        for s in [16usize, 75, 150] {
            let sources = dist.place(shape, s);
            let quality = placement_quality(shape, &sources, AlgoKind::BrXySource)
                .expect("Br_xy_source has a placement quality");
            outln!(
                out,
                "{},{s},{quality:.2},{:.3},{:.3},{:.3},{}",
                dist.name(),
                run_ms(&machine, AlgoKind::BrXySource, dist.clone(), s, 6144),
                run_ms(&machine, AlgoKind::ReposXySource, dist.clone(), s, 6144),
                run_alg_ms(&machine, LibraryKind::Nx, &adaptive, &sources, 6144),
                adaptive.would_reposition(shape, &sources)
            );
        }
    }
}

/// Extension: where would MPI_AllGather/MPI_Alltoall convergence come
/// from? (Figure 13a discussion.)
///
/// Our `MPI_AllGather` follows the paper's own description (gather at
/// P₀ + broadcast) and therefore stays ~3x above `MPI_Alltoall` at
/// `s = p` instead of converging. This runs a *dissemination*
/// all-gather — the implementation a modern MPI library would use — on
/// the same Figure-13a workload, with and without combining charges:
/// the zero-copy variant runs below Alltoall at every point.
pub fn dissem(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::t3d(128, T3D_SEED);
    outln!(
        out,
        "# T3D p=128, L=4K, equal distribution (Fig 13a workload + extension)"
    );
    outln!(
        out,
        "s,MPI_AllGather,MPI_Alltoall,Br_Lin,Dissem,Dissem_zero_copy"
    );
    for s in [5usize, 20, 40, 64, 96, 128] {
        let sources = SourceDist::Equal.place(machine.shape, s);
        let of_kind = |kind| run_ms(&machine, kind, SourceDist::Equal, s, 4096);
        let of_alg = |alg| run_alg_ms(&machine, LibraryKind::Mpi, alg, &sources, 4096);
        outln!(
            out,
            "{s},{:.4},{:.4},{:.4},{:.4},{:.4}",
            of_kind(AlgoKind::MpiAllGather),
            of_kind(AlgoKind::MpiAlltoall),
            of_kind(AlgoKind::BrLin),
            of_alg(&DissemAllGather::new()),
            of_alg(&DissemAllGather::zero_copy())
        );
    }
}

/// Extension: s-to-p broadcasting on a hypercube MPP.
///
/// The paper's related work is largely hypercube-based (Johnsson & Ho,
/// Bokhari, Lan et al.); this runs the paper's algorithm suite on an
/// nCUBE-2-class hypercube to see which Paragon conclusions carry over
/// to a richer topology (log-diameter, one channel per dimension).
pub fn hypercube(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::hypercube(6); // 64 nodes
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::ReposXySource,
    ];
    print_table(
        out,
        "Hypercube-64 (nCUBE-2 class), L=4K, equal distribution",
        "s",
        &kinds,
        s_rows(&[1, 8, 16, 32, 64]),
        |&s, k| run_ms(&machine, k, SourceDist::Equal, s, 4096),
    );
    outln!(out);
    print_table(
        out,
        "distributions at s=16, L=4K",
        "dist",
        &kinds,
        dist_rows(SourceDist::paper_set()),
        |dist, k| run_ms(&machine, k, dist.clone(), 16, 4096),
    );
}

/// Message-level traces of two contrasting algorithms — a diagnostic
/// view of *why* the paper's results hold: 2-Step's ladder of serialized
/// arrivals at P₀ versus Br_Lin's balanced pairwise exchanges.
pub fn trace(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(4, 4);
    let shape = machine.shape;
    let sources = SourceDist::Equal.place(shape, 8);

    for kind in [AlgoKind::TwoStep, AlgoKind::BrLin] {
        let alg = kind.build();
        let run = run_simulated_traced(&machine, LibraryKind::Nx, async |comm| {
            let payload = sources
                .binary_search(&comm.rank())
                .is_ok()
                .then(|| payload_for(comm.rank(), 1024));
            let ctx = StpCtx {
                shape,
                sources: &sources,
                payload: payload.as_deref(),
            };
            alg.run(comm, &ctx).await.len()
        });
        let summary = summarize(&run.trace);
        outln!(
            out,
            "== {} on 4x4 Paragon, s=8, L=1K: {} msgs, {} KiB, {:.3} ms, stalled {:.3} ms ==",
            kind.name(),
            summary.messages,
            summary.bytes / 1024,
            run.makespan_ms(),
            summary.stalled_ns as f64 / 1e6,
        );
        outln!(out, "{}", render_timeline(&run.trace, machine.p(), 72));
    }
}

/// §2 (text result): the coordination-free approach — every source
/// running its own independent one-to-all broadcast — "leads to poor
/// performance due to arising congestion and the large number of
/// messages in the system". Measures it against the merge algorithms on
/// both machines.
pub fn naive(_runner: &SweepRunner, out: &mut dyn Write) {
    let paragon = Machine::paragon(10, 10);
    let t3d = Machine::t3d(128, T3D_SEED);
    let kinds = [
        AlgoKind::NaiveIndependent,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
    ];
    print_table(
        out,
        "10x10 Paragon, L=4K, equal distribution (ms)",
        "s",
        &kinds,
        s_rows(&[5, 15, 30, 60, 100]),
        |&s, k| run_ms(&paragon, k, SourceDist::Equal, s, 4096),
    );
    outln!(out);
    print_table(
        out,
        "T3D p=128, L=4K, equal distribution (ms)",
        "s",
        &kinds,
        s_rows(&[5, 20, 40, 96]),
        |&s, k| run_ms(&t3d, k, SourceDist::Equal, s, 4096),
    );
}

/// Ablation: how much do the distribution effects depend on the link
/// contention model?
///
/// Reruns the Figure-6 grid under the three contention models:
/// `Circuit` (severe head-of-line blocking, pessimistic), `Shared`
/// (links as bandwidth servers at the 200 MB/s hardware rate,
/// optimistic), and the default `Pipelined`. Finding: the ideal-vs-poor
/// distribution gap is *robust* to the model choice (1.19–1.25×),
/// meaning our gap-compression relative to the paper's 2× (see
/// EXPERIMENTS.md) is not a link-blocking artifact — the remaining gap
/// on the real Paragon must have come from effects outside any linear
/// link-reservation model (flit-level hot-spot trees, software-level
/// interference).
pub fn contention(_runner: &SweepRunner, out: &mut dyn Write) {
    let models = [
        ContentionModel::Shared,
        ContentionModel::Pipelined,
        ContentionModel::Circuit,
    ];
    let machines = models.map(|model| {
        Machine::new(
            format!("Paragon 10x10 ({model:?})"),
            Topology::Mesh2D { rows: 10, cols: 10 },
            MachineParams {
                contention: model,
                ..MachineParams::paragon_nx()
            },
            Placement::Identity,
            MeshShape::new(10, 10),
        )
    });
    outln!(
        out,
        "# Figure-6 grid (10x10, L=2K, s=30, Br_xy_source) under contention models (ms)"
    );
    out!(out, "dist");
    for m in models {
        out!(out, ",{m:?}");
    }
    outln!(out);
    let mut worst = [0.0f64; 3];
    let mut best = [f64::MAX; 3];
    for dist in SourceDist::paper_set() {
        out!(out, "{}", dist.name());
        for (i, machine) in machines.iter().enumerate() {
            let ms = run_ms(machine, AlgoKind::BrXySource, dist.clone(), 30, 2048);
            worst[i] = worst[i].max(ms);
            best[i] = best[i].min(ms);
            out!(out, ",{ms:.4}");
        }
        outln!(out);
    }
    out!(out, "gap(worst/best)");
    for (w, b) in worst.iter().zip(best) {
        out!(out, ",{:.2}x", w / b);
    }
    outln!(out);
}

/// Files [`report`] renders, with whether their x axis is exponential.
const REPORT_FILES: &[(&str, bool)] = &[
    ("fig03", false),
    ("fig04", true),
    ("fig05", false),
    ("fig06", false),
    ("fig07", false),
    ("fig08", false),
    ("fig09", false),
    ("fig10", true),
    ("fig11", false),
    ("fig12", false),
    ("fig13", false),
    ("partitioning", false),
    ("nx-vs-mpi", false),
    ("varlen", false),
    ("dissem", false),
    ("hypercube", false),
    ("naive", false),
    ("contention", false),
];

/// Render the regenerated figure data (`results/*.txt`, produced by
/// `repro all`) into SVG charts plus a REPORT.md index — the paper's
/// figures as figures again.
///
/// Numeric sweeps become line charts (log-x for the message-length
/// sweeps), categorical tables become grouped horizontal bars. Each
/// chart links back to its CSV (the accessible table view).
pub fn report(_runner: &SweepRunner, out: &mut dyn Write) {
    let results = Path::new("results");
    if !results.exists() {
        eprintln!("results/ not found — run `repro all` first");
        std::process::exit(1);
    }

    let mut report = String::from(
        "# Figure report\n\nRendered from the CSV outputs in this directory \
         (`repro all` regenerates both; `repro report` re-renders the charts alone).\n\
         Each SVG's underlying numbers are in the `.txt` file of the same \
         name — the table view for the charts.\n\n",
    );
    let mut rendered = 0;

    for &(name, log_x) in REPORT_FILES {
        let path = results.join(format!("{name}.txt"));
        let Ok(text) = fs::read_to_string(&path) else {
            eprintln!("skipping {name}: no {path:?}");
            continue;
        };
        let blocks = parse_csv_blocks(&text);
        if blocks.is_empty() {
            eprintln!("skipping {name}: no CSV blocks");
            continue;
        }
        for (i, block) in blocks.iter().enumerate() {
            let suffix = if blocks.len() > 1 {
                format!("-{}", i + 1)
            } else {
                String::new()
            };
            let svg_name = format!("{name}{suffix}.svg");
            let svg = if block.numeric_x() {
                let chart = Chart {
                    title: block.title.clone(),
                    x_label: block.x_name.clone(),
                    y_label: "time (ms)".into(),
                    series: block.to_series(),
                    log_x,
                };
                chart.to_svg()
            } else {
                Chart::to_svg_bars(
                    &block.row_keys,
                    &block.to_bar_series(),
                    &block.title,
                    "time (ms)",
                )
            };
            fs::write(results.join(&svg_name), svg).expect("write svg");
            report.push_str(&format!(
                "## {}\n\n![{name}]({svg_name})  \n[data]({name}.txt)\n\n",
                block.title
            ));
            rendered += 1;
        }
    }

    fs::write(results.join("REPORT.md"), report).expect("write report");
    outln!(
        out,
        "rendered {rendered} charts into results/ (+ REPORT.md)"
    );
}
