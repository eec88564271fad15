//! Every figure `repro all` writes is the committed
//! `results/<name>.txt`, byte for byte, whether its cells run one at a
//! time or on two workers. CI's `git diff results/` sees only the
//! `repro` binary at the host's worker count; this runs each figure
//! in-process at both.

use std::fs;

use stp_bench::figures::{fig02_at, FIGURES};
use stp_core::runner::SweepRunner;

fn figures_print_the_committed_results(runner: &SweepRunner) {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    for &(name, figure) in FIGURES {
        if name == "report" {
            continue; // renders results/ itself
        }
        let mut text = Vec::new();
        figure.write(runner, &mut text);
        let committed = fs::read(format!("{results}/{name}.txt")).expect("committed figure");
        assert!(
            text == committed,
            "{name} on {} workers is not results/{name}.txt:\n{}",
            runner.workers(),
            String::from_utf8_lossy(&text)
        );
    }
}

#[test]
fn figures_match_results_on_one_worker() {
    figures_print_the_committed_results(&SweepRunner::sequential());
}

#[test]
fn figures_match_results_on_two_workers() {
    figures_print_the_committed_results(&SweepRunner::sequential().with_workers(2));
}

#[test]
fn figure_2_at_64_processors_ignores_the_worker_count() {
    let at = |workers| {
        let mut text = Vec::new();
        fig02_at(
            64,
            &SweepRunner::sequential().with_workers(workers),
            &mut text,
        );
        text
    };
    assert_eq!(at(1), at(2));
}
