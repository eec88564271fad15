//! Figure 2: algorithm- and distribution-dependent parameters
//! (congestion, wait, #send/rec, av_msg_lgth, av_act_proc) for 2-Step,
//! PersAlltoAll and Br_Lin on the equal distribution.
//!
//! The paper tabulates asymptotic bounds for p = 2^k assuming message
//! length L; here the same parameters are *measured* from per-iteration
//! statistics, once with s a power of two (the paper's slow case for
//! Br_Lin) and once without.
//!
//! ```text
//! repro-fig02 [--p N]    machine size (default 256; rows×cols chosen
//!                        as the squarest factorization of N)
//! ```
//!
//! The six (s × algorithm) grid points are independent simulations and
//! run concurrently on a [`SweepRunner`]; `STP_SWEEP_WORKERS=1` forces
//! the old sequential behaviour for speedup measurements.

use std::time::Instant;

use mpp_model::Machine;
use stp_core::metrics::{figure2_row, format_table};
use stp_core::prelude::*;

/// Squarest factorization of `p` as (rows, cols), rows ≤ cols.
fn mesh_dims(p: usize) -> (usize, usize) {
    let mut r = (p as f64).sqrt() as usize;
    while r > 1 && !p.is_multiple_of(r) {
        r -= 1;
    }
    (r.max(1), p / r.max(1))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p: usize = args
        .iter()
        .position(|a| a == "--p")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
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
    let runner = stp_bench::sweep_runner();
    let t0 = Instant::now();
    let outcomes = runner.run_experiments(&grid);
    let wall = t0.elapsed();

    for (si, &s) in s_values.iter().enumerate() {
        let pow = if s.is_power_of_two() {
            "s = 2^l"
        } else {
            "s != 2^l"
        };
        println!("== p={p} ({rows}x{cols}), equal distribution, s={s} ({pow}), L=1K ==");
        let mut table_rows = Vec::new();
        for (ki, &kind) in kinds.iter().enumerate() {
            let out = &outcomes[si * kinds.len() + ki];
            assert!(out.verified);
            let mut row = figure2_row(kind.name(), &out.stats);
            if kind == AlgoKind::BrLin {
                row.algorithm = format!("Br_Lin, {pow}");
            }
            table_rows.push(row);
        }
        println!("{}", format_table(&table_rows));
    }

    println!("paper's asymptotic forms for comparison (equal distribution):");
    println!("  2-Step        congestion O(s)  wait O(1)      #send/rec O(p)      av_msg O(sL)       av_act O(p/log p)");
    println!("  PersAlltoAll  congestion O(1)  wait O(1)      #send/rec O(p)      av_msg O(L)        av_act O(p)");
    println!("  Br_Lin s=2^l  congestion O(1)  wait O(log p)  #send/rec O(log p)  av_msg O(sL)       av_act O(p/log p + s log s/log p)");
    println!("  Br_Lin s!=2^l congestion O(1)  wait O(log p)  #send/rec O(log p)  av_msg O(sL/log p) av_act O(p log s/log p)");
    eprintln!(
        "[sweep] {} grid points on {} workers in {:.3}s",
        grid.len(),
        runner.workers(),
        wall.as_secs_f64()
    );
}
