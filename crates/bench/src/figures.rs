//! Every figure, table and text result the `repro` binary regenerates,
//! by name in [`FIGURES`]. A figure that is a grid — a machine, a swept
//! axis, one column per algorithm or distribution — is data: a list of
//! [`Panel`]s whose every cell describes the run that produces its
//! number. One loop simulates all cells of such a figure in a single
//! [`SweepRunner::map`] and writes each panel as the CSV block
//! [`parse_csv_blocks`] reads back. The figures that are not grids are
//! functions writing to the writer they are handed. `repro <name>` runs
//! one onto stdout; `repro all` runs each into `results/<name>.txt` and
//! ends with `report`, which renders those files as SVG charts.
//!
//! Cells are independent deterministic simulations, so every figure
//! prints the same bytes at any worker count.

use std::fs;
use std::io::Write;
use std::iter::once;
use std::path::Path;
use std::time::Instant;

use mpp_model::{LibraryKind, Machine, MeshShape};
use mpp_sim::{render_timeline, summarize};
use stp_core::algorithms::{DissemAllGather, ReposAdaptive, StpAlgorithm};
use stp_core::distribution::ascii_grid;
use stp_core::metrics::{figure2_row, format_table};
use stp_core::prelude::*;
use stp_core::runner::{try_record_sources, try_run_alg_controlled, try_run_sources_controlled};

use crate::plot::{parse_csv_blocks, Chart};

/// How a [`FIGURES`] entry produces its output.
#[derive(Clone, Copy)]
pub enum Figure {
    /// A grid: its panels, simulated in one sweep and written as CSV.
    Panels(fn() -> Vec<Panel>),
    /// Output that is not a grid of cells, written by its own function.
    Custom(fn(&SweepRunner, &mut dyn Write)),
}

impl Figure {
    /// Write the figure to `out`, sweeping its cells on `runner`.
    pub fn write(self, runner: &SweepRunner, out: &mut dyn Write) {
        match self {
            Figure::Panels(panels) => print_panels(runner, out, &panels()),
            Figure::Custom(figure) => figure(runner, out),
        }
    }
}

use Figure::{Custom, Panels};

/// Every name `repro` accepts, in the order `repro all` runs them
/// (`report` last: it reads what the others wrote).
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig01", Custom(fig01)),
    ("fig02", Custom(fig02)),
    ("fig03", Panels(fig03)),
    ("fig04", Panels(fig04)),
    ("fig05", Panels(fig05)),
    ("fig06", Panels(fig06)),
    ("fig07", Panels(fig07)),
    ("fig08", Panels(fig08)),
    ("fig09", Panels(fig09)),
    ("fig10", Panels(fig10)),
    ("fig11", Panels(fig11)),
    ("fig12", Panels(fig12)),
    ("fig13", Panels(fig13)),
    ("partitioning", Custom(partitioning)),
    ("nx-vs-mpi", Custom(nx_vs_mpi)),
    ("varlen", Custom(varlen)),
    ("adaptive", Custom(adaptive)),
    ("dissem", Custom(dissem)),
    ("hypercube", Panels(hypercube)),
    ("trace", Custom(trace)),
    ("naive", Panels(naive)),
    ("report", Custom(report)),
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

/// The makespan in milliseconds of `alg` with `msg_len`-byte messages at
/// `sources`, verified by the runner's delivery oracle. Cells run their
/// [`AlgoKind`] through it; an algorithm object that has none (a deeper
/// `Part`, a zero-copy `DissemAllGather`) runs directly.
fn run_alg_ms(
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

/// One panel cell: the verified makespan in milliseconds of `kind` on
/// `machine` with `s` sources placed by `dist` and `len`-byte messages,
/// or, given `over`, by how many percent it exceeds the makespan of
/// `over` at the same point (negative: `kind` is faster).
struct Cell {
    machine: Machine,
    kind: AlgoKind,
    over: Option<AlgoKind>,
    dist: SourceDist,
    s: usize,
    len: usize,
}

impl Cell {
    fn ms(&self, kind: AlgoKind) -> f64 {
        let sources = self.dist.place(self.machine.shape, self.s);
        let (lib, alg) = (kind.default_lib(), kind.build());
        run_alg_ms(&self.machine, lib, alg.as_ref(), &sources, self.len)
    }

    fn value(&self) -> f64 {
        let ms = self.ms(self.kind);
        self.over.map_or(ms, |over| {
            let base = self.ms(over);
            (ms - base) / base * 100.0
        })
    }
}

/// A cell printing `kind`'s makespan on `machine`.
fn ms(machine: &Machine, kind: AlgoKind, dist: SourceDist, s: usize, len: usize) -> Cell {
    let (machine, over) = (machine.clone(), None);
    Cell {
        machine,
        kind,
        over,
        dist,
        s,
        len,
    }
}

/// A cell printing by how many percent `Repos_xy_source` differs from
/// `Br_xy_source` (Figures 9 and 10; negative = repositioning wins).
fn repos_pct(machine: &Machine, dist: &SourceDist, s: usize, len: usize) -> Cell {
    let over = Some(AlgoKind::BrXySource);
    Cell {
        over,
        ..ms(machine, AlgoKind::ReposXySource, dist.clone(), s, len)
    }
}

/// One CSV block of a figure: a row per key, a column per series, and
/// in every cell the run that produces its number.
pub struct Panel {
    title: String,
    /// Header of the key column (`s`, `L`, `p`, `dist`, ...).
    axis: &'static str,
    rows: Vec<String>,
    columns: Vec<String>,
    /// Row-major: `cells[row * columns.len() + column]`.
    cells: Vec<Cell>,
    /// A table ends its figure without a blank line.
    table: bool,
    /// A `#` line above the title (Figure 8's shape legend).
    legend: Option<&'static str>,
}

/// How a row or column key prints.
trait Key {
    fn key(&self) -> String;
}

impl Key for usize {
    fn key(&self) -> String {
        self.to_string()
    }
}

impl Key for AlgoKind {
    fn key(&self) -> String {
        self.name().to_string()
    }
}

impl Key for SourceDist {
    fn key(&self) -> String {
        self.name().to_string()
    }
}

/// A panel over `rows × columns`, `cell(row, column)` describing each
/// run.
fn grid<R: Key, C: Key>(
    title: &str,
    axis: &'static str,
    rows: &[R],
    columns: &[C],
    cell: impl Fn(&R, &C) -> Cell,
) -> Panel {
    let cell = &cell;
    Panel {
        title: title.to_string(),
        axis,
        rows: rows.iter().map(Key::key).collect(),
        columns: columns.iter().map(Key::key).collect(),
        cells: rows
            .iter()
            .flat_map(|r| columns.iter().map(move |c| cell(r, c)))
            .collect(),
        table: false,
        legend: None,
    }
}

impl Panel {
    /// The same panel written as a table.
    fn table(self) -> Panel {
        Panel {
            table: true,
            ..self
        }
    }
}

/// Every cell's number, one `Vec` per panel, from one
/// [`SweepRunner::map`] over all cells.
fn sweep(runner: &SweepRunner, panels: &[Panel]) -> Vec<Vec<f64>> {
    let cells: Vec<&Cell> = panels.iter().flat_map(|p| &p.cells).collect();
    let mut values = runner.map(cells, |cell| cell.value()).into_iter();
    panels
        .iter()
        .map(|p| values.by_ref().take(p.cells.len()).collect())
        .collect()
}

/// The one writer of the CSV block [`parse_csv_blocks`] reads back: a
/// `# title` line, a header, then one line per row.
fn write_block(
    out: &mut dyn Write,
    title: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) {
    outln!(out, "# {title}\n{header}");
    for row in rows {
        outln!(out, "{row}");
    }
}

/// `panel` with `values` in its cells, to four decimals.
fn write_panel(out: &mut dyn Write, panel: &Panel, values: &[f64]) {
    if let Some(legend) = panel.legend {
        outln!(out, "# {legend}");
    }
    let header = format!("{},{}", panel.axis, panel.columns.join(","));
    let rows = panel.rows.iter().zip(values.chunks(panel.columns.len()));
    let rows = rows.map(|(key, row)| row.iter().fold(key.clone(), |l, v| format!("{l},{v:.4}")));
    write_block(out, &panel.title, &header, rows);
}

/// Simulate every cell of `panels` in one sweep, then write them in
/// order. Panels are separated by a blank line; a figure panel (not a
/// table) also ends with one.
fn print_panels(runner: &SweepRunner, out: &mut dyn Write, panels: &[Panel]) {
    for (i, (panel, values)) in panels.iter().zip(sweep(runner, panels)).enumerate() {
        write_panel(out, panel, &values);
        if !panel.table || i + 1 < panels.len() {
            outln!(out);
        }
    }
}

/// Figure 1: placement of 30 sources in the row, cross, and right
/// diagonal distributions on a 10×10 mesh.
fn fig01(_runner: &SweepRunner, out: &mut dyn Write) {
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

/// Figure 2 at the paper's machine size, p = 256 (see [`fig02_at`]).
fn fig02(runner: &SweepRunner, out: &mut dyn Write) {
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
/// squarest factorization of N, [`MeshShape::near_square`]). The six
/// (s × algorithm) grid points are independent simulations and run
/// concurrently on the [`SweepRunner`]; `STP_SWEEP_WORKERS=1` forces
/// sequential behaviour for speedup measurements.
pub fn fig02_at(p: usize, runner: &SweepRunner, out: &mut dyn Write) {
    let MeshShape { rows, cols } = MeshShape::near_square(p);
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
    let outcomes = runner.map(grid, |e| e.run().expect("run failed"));
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
        outcomes.len(),
        runner.workers(),
        wall.as_secs_f64()
    );
}

/// The five algorithms of the Paragon scalability figures (Figs 4, 5).
const PARAGON_KINDS: [AlgoKind; 5] = [
    AlgoKind::TwoStep,
    AlgoKind::PersAlltoAll,
    AlgoKind::BrLin,
    AlgoKind::BrXySource,
    AlgoKind::BrXyDim,
];

/// The three merge-based algorithms (Figs 6, 7).
const MERGE_KINDS: [AlgoKind; 3] = [AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::BrXyDim];

/// Figure 3: performance of all algorithms on a 10×10 Paragon; the
/// number of sources varies from 1 to 100, L = 4 KiB, equal
/// distribution. Includes the MPI builds of 2-Step and PersAlltoAll
/// (`MPI_AllGather`, `MPI_Alltoall`).
fn fig03() -> Vec<Panel> {
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
    let ss: Vec<usize> = once(1).chain((5..=100).step_by(5)).collect();
    vec![grid(
        "Figure 3: 10x10 Paragon, L=4K, equal distribution, time (ms) vs s",
        "s",
        &ss,
        &kinds,
        |&s, &k| ms(&machine, k, SourceDist::Equal, s, 4096),
    )]
}

/// Figure 4: performance on a 10×10 Paragon; L varies from 32 bytes to
/// 16 KiB (the paper's Paragon message-size sweep), s = 30, right
/// diagonal distribution.
fn fig04() -> Vec<Panel> {
    let machine = Machine::paragon(10, 10);
    let lens: Vec<usize> = (5..=14).map(|k| 1 << k).collect();
    vec![grid(
        "Figure 4: 10x10 Paragon, s=30, right diagonal, time (ms) vs L (bytes)",
        "L",
        &lens,
        &PARAGON_KINDS,
        |&len, &k| ms(&machine, k, SourceDist::DiagRight, 30, len),
    )]
}

/// Figure 5: performance on Paragons of 4 to 256 processors;
/// L = 1 KiB, approximately √p sources, right diagonal distribution.
fn fig05() -> Vec<Panel> {
    let ps: Vec<usize> = (2..=16).step_by(2).map(|side| side * side).collect();
    vec![grid(
        "Figure 5: Paragon, L=1K, s=sqrt(p), right diagonal, time (ms) vs p",
        "p",
        &ps,
        &PARAGON_KINDS,
        |&p, &k| {
            let side = p.isqrt();
            let machine = Machine::paragon(side, side);
            ms(&machine, k, SourceDist::DiagRight, side, 1024)
        },
    )]
}

/// Figure 6: performance of the three merge-based algorithms on a 10×10
/// Paragon; L = 2 KiB, s = 30, across source distributions.
fn fig06() -> Vec<Panel> {
    let machine = Machine::paragon(10, 10);
    vec![grid(
        "Figure 6: 10x10 Paragon, L=2K, s=30, time (ms) per distribution",
        "dist",
        &SourceDist::paper_set(),
        &MERGE_KINDS,
        |dist, &k| ms(&machine, k, dist.clone(), 30, 2048),
    )
    .table()]
}

/// Figure 7: performance of the three merge-based algorithms on a 10×10
/// Paragon with the right diagonal distribution when the *total* message
/// volume is fixed at 80 KiB and the number of sources varies — the
/// paper's demonstration that spreading the data over more sources is
/// faster.
fn fig07() -> Vec<Panel> {
    const TOTAL: usize = 80 * 1024;
    let machine = Machine::paragon(10, 10);
    vec![grid(
        "Figure 7: 10x10 Paragon, right diagonal, total sL=80K fixed, time (ms) vs s",
        "s",
        &[5, 10, 20, 40, 80],
        &MERGE_KINDS,
        |&s, &k| ms(&machine, k, SourceDist::DiagRight, s, TOTAL / s),
    )]
}

/// Figure 8: performance of `Br_Lin` on a 120-node Paragon when the
/// machine dimensions vary; equal distribution, L = 4 KiB, three source
/// counts. Demonstrates that the *same* distribution is good or bad
/// depending on the mesh dimensions (the paper's s=15-faster-than-s=8
/// anomaly comes from where the equal distribution lands on each shape).
fn fig08() -> Vec<Panel> {
    let shapes = [(2, 60), (4, 30), (6, 20), (8, 15), (10, 12)];
    vec![Panel {
        columns: vec!["s=8".into(), "s=15".into(), "s=60".into()],
        legend: Some("shapes: 0=2x60 1=4x30 2=6x20 3=8x15 4=10x12"),
        ..grid(
            "Figure 8: Br_Lin on 120-node Paragon, equal distribution, L=4K, time (ms) vs shape",
            "shape",
            &[0usize, 1, 2, 3, 4],
            &[8usize, 15, 60],
            |&i, &s| {
                let (rows, cols) = shapes[i];
                let machine = Machine::paragon(rows, cols);
                ms(&machine, AlgoKind::BrLin, SourceDist::Equal, s, 4096)
            },
        )
    }]
}

/// The four distributions of the repositioning comparison (Figs 9, 10).
const REPOS_DISTS: [SourceDist; 4] = [
    SourceDist::Cross,
    SourceDist::SquareBlock,
    SourceDist::Equal,
    SourceDist::Band,
];

/// Figure 9: percentage difference between `Repos_xy_source` and
/// `Br_xy_source` on a 16×16 Paragon; L = 6 KiB, varying the number of
/// sources, on four input distributions (cross, square block, equal,
/// band). Negative values mean repositioning is *faster*.
fn fig09() -> Vec<Panel> {
    let machine = Machine::paragon(16, 16);
    vec![grid(
        "Figure 9: 16x16 Paragon, L=6K: % difference Repos_xy_source vs Br_xy_source (negative = repositioning wins)",
        "s",
        &[16, 50, 75, 100, 128, 150, 192],
        &REPOS_DISTS,
        |&s, dist| repos_pct(&machine, dist, s, 6 * 1024),
    )]
}

/// Figure 10: percentage difference between `Repos_xy_source` and
/// `Br_xy_source` on a 16×16 Paragon; s = 75, varying the message
/// length, on four input distributions. Negative = repositioning wins.
fn fig10() -> Vec<Panel> {
    let machine = Machine::paragon(16, 16);
    vec![grid(
        "Figure 10: 16x16 Paragon, s=75: % difference Repos_xy_source vs Br_xy_source vs L (negative = repositioning wins)",
        "L",
        &[256, 512, 1024, 2048, 4096, 6144, 8192, 16384],
        &REPOS_DISTS,
        |&len, dist| repos_pct(&machine, dist, 75, len),
    )]
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

/// Source counts of the T3D p = 128 problem-size sweeps (Figs 11b, 12).
const T3D_SS: [usize; 6] = [4, 8, 16, 32, 64, 128];

/// Figure 11: scalability of `MPI_AllGather` on the T3D under different
/// source distributions.
///
/// (a) machine size varies (16..256 virtual processors) with s = 32 and
///     the total message volume fixed at 128 KiB (L = 4 KiB);
/// (b) problem size varies on p = 128 with L = 16 KiB.
fn fig11() -> Vec<Panel> {
    let machine = Machine::t3d(128, T3D_SEED);
    vec![
        grid(
            "Figure 11a: T3D MPI_AllGather, s=32, total 128K, time (ms) vs p",
            "p",
            &[64, 128, 256],
            &T3D_DISTS,
            |&p, dist| {
                let (machine, len) = (Machine::t3d(p, T3D_SEED), 128 * 1024 / 32);
                ms(&machine, AlgoKind::MpiAllGather, dist.clone(), 32, len)
            },
        ),
        grid(
            "Figure 11b: T3D p=128 MPI_AllGather, L=16K, time (ms) vs s",
            "s",
            &T3D_SS,
            &T3D_DISTS,
            |&s, dist| ms(&machine, AlgoKind::MpiAllGather, dist.clone(), s, 16 * 1024),
        ),
    ]
}

/// Figure 12: `MPI_AllGather` on a 128-processor T3D with the total
/// message volume fixed at 128 KiB while the number of sources varies,
/// under different source distributions. Reproduces two claims: more
/// sources for the same volume is faster (up to the s→p deterioration),
/// and the equal distribution tends to win for s ≤ p/4.
fn fig12() -> Vec<Panel> {
    let machine = Machine::t3d(128, T3D_SEED);
    vec![grid(
        "Figure 12: T3D p=128, MPI_AllGather, total 128K fixed, time (ms) vs s",
        "s",
        &T3D_SS,
        &T3D_DISTS,
        |&s, dist| {
            ms(
                &machine,
                AlgoKind::MpiAllGather,
                dist.clone(),
                s,
                128 * 1024 / s,
            )
        },
    )]
}

/// Figure 13: three algorithms on a 128-processor T3D, L = 4 KiB.
///
/// (a) the number of sources varies from 5 to 128, equal distribution;
/// (b) different source distributions at s = 40.
///
/// The paper's headline: the ranking *flips* relative to the Paragon —
/// `MPI_Alltoall` wins (no combining, minimal waiting), `Br_Lin` loses
/// to its combining and wait costs.
fn fig13() -> Vec<Panel> {
    let machine = Machine::t3d(128, T3D_SEED);
    let kinds = [
        AlgoKind::MpiAllGather,
        AlgoKind::MpiAlltoall,
        AlgoKind::BrLin,
    ];
    let dists = [
        SourceDist::Row,
        SourceDist::Column,
        SourceDist::Equal,
        SourceDist::DiagRight,
        SourceDist::SquareBlock,
        SourceDist::Cross,
        SourceDist::Random { seed: 7 },
    ];
    vec![
        grid(
            "Figure 13a: T3D p=128, L=4K, equal distribution, time (ms) vs s",
            "s",
            &[5, 10, 20, 40, 64, 96, 128],
            &kinds,
            |&s, &k| ms(&machine, k, SourceDist::Equal, s, 4096),
        ),
        grid(
            "Figure 13b: T3D p=128, L=4K, s=40, time (ms) per distribution",
            "dist",
            &dists,
            &kinds,
            |dist, &k| ms(&machine, k, dist.clone(), 40, 4096),
        )
        .table(),
    ]
}

/// §5.2 (text result, no figure number): the partitioning approach
/// "hardly ever gives a better performance than repositioning alone" on
/// the Paragon — the final inter-group exchange of large messages
/// dominates. Compares `Br_xy_source`, `Repos_xy_source` and
/// `Part_xy_source` on a 16×16 Paragon.
fn partitioning(runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(16, 16);
    let kinds = [
        AlgoKind::BrXySource,
        AlgoKind::ReposXySource,
        AlgoKind::PartXySource,
    ];
    let panels = [
        grid(
            "Partitioning: 16x16 Paragon, cross distribution, L=6K, time (ms) vs s",
            "s",
            &[16, 50, 75, 100, 150, 192],
            &kinds,
            |&s, &k| ms(&machine, k, SourceDist::Cross, s, 6 * 1024),
        ),
        grid(
            "Partitioning: 16x16 Paragon, square block, s=75, time (ms) vs L",
            "L",
            &[1024, 2048, 4096, 8192, 16384],
            &kinds,
            |&len, &k| ms(&machine, k, SourceDist::SquareBlock, 75, len),
        ),
    ];
    print_panels(runner, out, &panels);

    // Extension: does *deeper* partitioning ever pay? No depth ≥ 2 beats
    // depth 1 and none beats repositioning alone: the merge rounds of
    // growing combined messages dominate. Not monotonically, though —
    // depth 3 undercuts depth 2.
    let sources = SourceDist::Cross.place(machine.shape, 75);
    let repos = ms(
        &machine,
        AlgoKind::ReposXySource,
        SourceDist::Cross,
        75,
        6 * 1024,
    )
    .value();
    let depths = (1..=4).map(|depth| {
        let alg = Part::new(BrXySource, depth, "Part_xy_source");
        let ms = run_alg_ms(&machine, LibraryKind::Nx, &alg, &sources, 6 * 1024);
        format!("{depth},{ms:.4}")
    });
    write_block(
        out,
        "Extension: recursive partitioning depth sweep (cross, s=75, L=6K)",
        "depth,ms",
        once(format!("0 (Repos),{repos:.4}")).chain(depths),
    );
}

/// §5 (text result): "We have compiled and run all algorithms on the
/// Paragon under MPI environment. We have observed a performance loss of
/// 2 to 5% in every MPI implementation." Runs every algorithm under both
/// library flavours on the Figure-3 workload and reports the loss.
fn nx_vs_mpi(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(10, 10);
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::BrXyDim,
        AlgoKind::ReposXySource,
    ];
    let sources = SourceDist::Equal.place(machine.shape, 30);
    let rows = kinds.map(|kind| {
        let run = |lib| {
            let payload_of = |src| payload_for(src, 4096);
            let control = RunControl::default();
            try_run_sources_controlled(&machine, lib, &sources, &payload_of, kind, &control)
                .expect("run failed")
        };
        let (nx, mpi) = (run(LibraryKind::Nx), run(LibraryKind::Mpi));
        assert!(nx.verified && mpi.verified);
        let loss = (mpi.makespan_ns as f64 - nx.makespan_ns as f64) / nx.makespan_ns as f64 * 100.0;
        let (nx, mpi) = (nx.makespan_ms(), mpi.makespan_ms());
        format!("{},{nx:.4},{mpi:.4},{loss:.2}", kind.name())
    });
    write_block(
        out,
        "NX vs MPI on a 10x10 Paragon, equal distribution, s=30, L=4K",
        "algorithm,nx_ms,mpi_ms,loss_pct",
        rows,
    );
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
fn varlen(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(10, 10);
    let s = 30;
    // Mixed: alternate 2K / 4K / 6K by source index — same total as
    // the uniform 4K.
    let mixed_len = |src: usize| match src % 3 {
        0 => 2048,
        1 => 4096,
        _ => 6144,
    };

    let mut uniform_order = Vec::new();
    let mut mixed_order = Vec::new();
    let rows = SourceDist::paper_set().into_iter().map(|dist| {
        let sources = dist.place(machine.shape, s);
        let run = |len_of: &(dyn Fn(usize) -> usize + Sync)| {
            let outcome = try_run_sources_controlled(
                &machine,
                LibraryKind::Nx,
                &sources,
                &|src| payload_for(src, len_of(src)),
                AlgoKind::BrXySource,
                &RunControl::default(),
            )
            .expect("run failed");
            assert!(outcome.verified);
            outcome
        };
        let uniform = run(&|_| 4096);
        let mixed = run(&mixed_len);
        let delta = (mixed.makespan_ms() - uniform.makespan_ms()) / uniform.makespan_ms() * 100.0;
        uniform_order.push((dist.name(), uniform.makespan_ns));
        mixed_order.push((dist.name(), mixed.makespan_ns));
        let (uniform, mixed) = (uniform.makespan_ms(), mixed.makespan_ms());
        format!("{},{uniform:.4},{mixed:.4},{delta:+.1}", dist.name())
    });
    write_block(
        out,
        "10x10 Paragon, s=30, Br_xy_source: uniform 4K vs mixed lengths (same total)",
        "dist,uniform_ms,mixed_ms,delta_pct",
        rows,
    );
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
fn adaptive(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(16, 16);
    let shape = machine.shape;
    let adaptive = ReposAdaptive::new(BrXySource, AlgoKind::BrXySource, "ReposAdaptive_xy_source");
    let dists = [
        SourceDist::Cross,
        SourceDist::SquareBlock,
        SourceDist::Equal,
        SourceDist::Band,
        SourceDist::Row,
    ];
    let points = dists
        .into_iter()
        .flat_map(|d| [16usize, 75, 150].map(|s| (d.clone(), s)));
    let rows = points.map(|(dist, s)| {
        let sources = dist.place(shape, s);
        let quality = placement_quality(shape, &sources, AlgoKind::BrXySource)
            .expect("Br_xy_source has a placement quality");
        format!(
            "{},{s},{quality:.2},{:.3},{:.3},{:.3},{}",
            dist.name(),
            ms(&machine, AlgoKind::BrXySource, dist.clone(), s, 6144).value(),
            ms(&machine, AlgoKind::ReposXySource, dist.clone(), s, 6144).value(),
            run_alg_ms(&machine, LibraryKind::Nx, &adaptive, &sources, 6144),
            adaptive.would_reposition(shape, &sources)
        )
    });
    write_block(
        out,
        "16x16 Paragon, L=6K: plain vs always-reposition vs adaptive (ms)",
        "dist,s,quality,plain,repos,adaptive,repositioned?",
        rows,
    );
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
fn dissem(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::t3d(128, T3D_SEED);
    let rows = [5usize, 20, 40, 64, 96, 128].map(|s| {
        let sources = SourceDist::Equal.place(machine.shape, s);
        let of_kind = |kind| ms(&machine, kind, SourceDist::Equal, s, 4096).value();
        let of_alg = |alg| run_alg_ms(&machine, LibraryKind::Mpi, alg, &sources, 4096);
        format!(
            "{s},{:.4},{:.4},{:.4},{:.4},{:.4}",
            of_kind(AlgoKind::MpiAllGather),
            of_kind(AlgoKind::MpiAlltoall),
            of_kind(AlgoKind::BrLin),
            of_alg(&DissemAllGather::new()),
            of_alg(&DissemAllGather::zero_copy())
        )
    });
    write_block(
        out,
        "T3D p=128, L=4K, equal distribution (Fig 13a workload + extension)",
        "s,MPI_AllGather,MPI_Alltoall,Br_Lin,Dissem,Dissem_zero_copy",
        rows,
    );
}

/// Extension: s-to-p broadcasting on a hypercube MPP.
///
/// The paper's related work is largely hypercube-based (Johnsson & Ho,
/// Bokhari, Lan et al.); this runs the paper's algorithm suite on an
/// nCUBE-2-class hypercube to see which Paragon conclusions carry over
/// to a richer topology (log-diameter, one channel per dimension).
fn hypercube() -> Vec<Panel> {
    let machine = Machine::hypercube(6); // 64 nodes
    let kinds = [
        AlgoKind::TwoStep,
        AlgoKind::PersAlltoAll,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
        AlgoKind::ReposXySource,
    ];
    vec![
        grid(
            "Hypercube-64 (nCUBE-2 class), L=4K, equal distribution",
            "s",
            &[1, 8, 16, 32, 64],
            &kinds,
            |&s, &k| ms(&machine, k, SourceDist::Equal, s, 4096),
        )
        .table(),
        grid(
            "distributions at s=16, L=4K",
            "dist",
            &SourceDist::paper_set(),
            &kinds,
            |dist, &k| ms(&machine, k, dist.clone(), 16, 4096),
        )
        .table(),
    ]
}

/// Message-level traces of two contrasting algorithms — a diagnostic
/// view of *why* the paper's results hold: 2-Step's ladder of serialized
/// arrivals at P₀ versus Br_Lin's balanced pairwise exchanges.
fn trace(_runner: &SweepRunner, out: &mut dyn Write) {
    let machine = Machine::paragon(4, 4);
    let sources = SourceDist::Equal.place(machine.shape, 8);

    for kind in [AlgoKind::TwoStep, AlgoKind::BrLin] {
        let run = try_record_sources(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| payload_for(src, 1024),
            kind.build().as_ref(),
            &RunControl::default(),
        )
        .expect("recording failed");
        let outcome = run.outcome.expect("trace runs complete");
        let summary = summarize(&run.events);
        outln!(
            out,
            "== {} on 4x4 Paragon, s=8, L=1K: {} msgs, {} KiB, {:.3} ms, stalled {:.3} ms ==",
            kind.name(),
            summary.messages,
            summary.bytes / 1024,
            outcome.makespan_ms(),
            summary.stalled_ns as f64 / 1e6,
        );
        let alpha_send = machine.params.alpha_send(LibraryKind::Nx);
        outln!(
            out,
            "{}",
            render_timeline(&run.events, alpha_send, machine.p(), 72)
        );
    }
}

/// §2 (text result): the coordination-free approach — every source
/// running its own independent one-to-all broadcast — "leads to poor
/// performance due to arising congestion and the large number of
/// messages in the system". Measures it against the merge algorithms on
/// both machines.
fn naive() -> Vec<Panel> {
    let paragon = Machine::paragon(10, 10);
    let t3d = Machine::t3d(128, T3D_SEED);
    let kinds = [
        AlgoKind::NaiveIndependent,
        AlgoKind::BrLin,
        AlgoKind::BrXySource,
    ];
    vec![
        grid(
            "10x10 Paragon, L=4K, equal distribution (ms)",
            "s",
            &[5, 15, 30, 60, 100],
            &kinds,
            |&s, &k| ms(&paragon, k, SourceDist::Equal, s, 4096),
        )
        .table(),
        grid(
            "T3D p=128, L=4K, equal distribution (ms)",
            "s",
            &[5, 20, 40, 96],
            &kinds,
            |&s, &k| ms(&t3d, k, SourceDist::Equal, s, 4096),
        )
        .table(),
    ]
}

/// Render the regenerated figure data (`results/*.txt`, produced by
/// `repro all`) into SVG charts plus a REPORT.md index — the paper's
/// figures as figures again.
///
/// Every figure whose output holds CSV blocks is rendered. Numeric
/// sweeps become line charts (log-x for Figures 4 and 10, the
/// message-length sweeps), categorical tables become grouped horizontal
/// bars. Each chart links back to its CSV (the accessible table view).
fn report(_runner: &SweepRunner, out: &mut dyn Write) {
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

    for &(name, _) in FIGURES.iter().filter(|&&(name, _)| name != "report") {
        let log_x = matches!(name, "fig04" | "fig10");
        let path = results.join(format!("{name}.txt"));
        let Ok(text) = fs::read_to_string(&path) else {
            eprintln!("skipping {name}: no {path:?}");
            continue;
        };
        let blocks = parse_csv_blocks(&text);
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
