//! `repro` — regenerate the paper's figures and the extension
//! experiments.
//!
//! ```text
//! repro <name>          one figure's CSV / ASCII output on stdout
//! repro fig02 --p N     Figure 2 on an N-processor machine (default 256)
//! repro all             every figure into results/<name>.txt, then the
//!                       SVG charts and results/REPORT.md (`repro report`)
//! repro --list          the names, one per line
//! ```
//!
//! The figures themselves are the panels and functions of
//! [`stp_bench::figures`]; `STP_SWEEP_WORKERS` sizes the pool their
//! cells run on.

use std::io::Write;

use stp_bench::figures::{fig02_at, FIGURES};

fn usage() -> ! {
    eprintln!("usage: repro <name> | repro fig02 --p N | repro all | repro --list");
    eprint!("names:");
    for (name, _) in FIGURES {
        eprint!(" {name}");
    }
    eprintln!();
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    if args == ["--list"] {
        for (name, _) in FIGURES {
            println!("{name}");
        }
        return;
    }
    let runner = stp_bench::sweep_runner();
    let stdout = &mut std::io::stdout();
    match args[..] {
        ["all"] => {
            std::fs::create_dir_all("results").expect("create results/");
            for &(name, figure) in FIGURES {
                println!("== {name} ==");
                if name == "report" {
                    figure.write(&runner, stdout);
                    continue;
                }
                let mut text = Vec::new();
                figure.write(&runner, &mut text);
                stdout.write_all(&text).expect("write figure output");
                std::fs::write(format!("results/{name}.txt"), text).expect("write results file");
            }
            println!("All outputs written to results/ (CSV + SVG + REPORT.md).");
        }
        ["fig02", "--p", p] => match p.parse() {
            Ok(p) if p > 0 => fig02_at(p, &runner, stdout),
            _ => {
                eprintln!("repro: --p wants a processor count, got '{p}'");
                usage()
            }
        },
        [name] => match FIGURES.iter().find(|(known, _)| *known == name) {
            Some((_, figure)) => figure.write(&runner, stdout),
            None => {
                eprintln!("repro: unknown figure '{name}'");
                usage()
            }
        },
        _ => usage(),
    }
}
