//! Cross-crate correctness matrix: every algorithm × distribution ×
//! machine shape must leave every rank holding exactly the `s` source
//! payloads.

use stp_broadcast::prelude::*;
use stp_broadcast::stp::runner::{try_run_sources_controlled, RunControl};

fn all_kinds() -> &'static [AlgoKind] {
    AlgoKind::all()
}

fn all_dists() -> Vec<SourceDist> {
    let mut dists = SourceDist::named().to_vec();
    dists.push(SourceDist::Random { seed: 77 });
    dists
}

#[test]
fn simulator_matrix_small_paragon() {
    let machine = Machine::paragon(4, 5);
    for &kind in all_kinds() {
        for dist in all_dists() {
            for s in [1usize, 3, 10, 20] {
                let exp = Experiment {
                    machine: &machine,
                    dist: dist.clone(),
                    s,
                    msg_len: 96,
                    kind,
                };
                let out = exp.run().expect("run failed");
                assert!(
                    out.verified,
                    "{} on {}({s}) failed verification",
                    kind.name(),
                    dist.name()
                );
            }
        }
    }
}

#[test]
fn simulator_matrix_odd_paragon() {
    // Odd dimensions exercise the non-power-of-two Br_Lin segments.
    let machine = Machine::paragon(3, 7);
    for &kind in all_kinds() {
        for s in [1usize, 2, 5, 13, 21] {
            let exp = Experiment {
                machine: &machine,
                dist: SourceDist::Equal,
                s,
                msg_len: 64,
                kind,
            };
            let out = exp.run().expect("run failed");
            assert!(out.verified, "{} s={s} failed on 3x7", kind.name());
        }
    }
}

#[test]
fn simulator_matrix_t3d() {
    let machine = Machine::t3d(32, 5);
    for &kind in all_kinds() {
        for s in [1usize, 8, 17, 32] {
            let exp = Experiment {
                machine: &machine,
                dist: SourceDist::Random { seed: s as u64 },
                s,
                msg_len: 128,
                kind,
            };
            let out = exp.run().expect("run failed");
            assert!(out.verified, "{} s={s} failed on T3D", kind.name());
        }
    }
}

#[test]
fn single_processor_machine() {
    let machine = Machine::paragon(1, 1);
    for kind in [AlgoKind::TwoStep, AlgoKind::BrLin, AlgoKind::PersAlltoAll] {
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s: 1,
            msg_len: 32,
            kind,
        };
        assert!(
            exp.run().expect("run failed").verified,
            "{} on 1x1",
            kind.name()
        );
    }
}

#[test]
fn one_row_machine() {
    // Degenerate mesh: 1 x 8 — column dimension has a single element.
    let machine = Machine::paragon(1, 8);
    for &kind in all_kinds() {
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s: 3,
            msg_len: 64,
            kind,
        };
        assert!(
            exp.run().expect("run failed").verified,
            "{} on 1x8",
            kind.name()
        );
    }
}

#[test]
fn empty_payloads_still_broadcast() {
    let machine = Machine::paragon(4, 4);
    for &kind in all_kinds() {
        let sources = SourceDist::DiagRight.place(machine.shape, 4);
        let out = try_run_sources_controlled(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|_| Vec::new(),
            kind,
            &RunControl::default(),
        )
        .expect("run failed");
        assert!(out.verified, "{} with zero-length messages", kind.name());
    }
}

#[test]
fn variable_length_payloads() {
    // Paper §5: different message lengths did not change the findings;
    // at minimum they must stay correct.
    let machine = Machine::paragon(4, 5);
    for &kind in all_kinds() {
        let sources = SourceDist::Cross.place(machine.shape, 7);
        let out = try_run_sources_controlled(
            &machine,
            LibraryKind::Nx,
            &sources,
            &|src| payload_for(src, 32 + (src % 5) * 100),
            kind,
            &RunControl::default(),
        )
        .expect("run failed");
        assert!(out.verified, "{} with variable lengths", kind.name());
    }
}

#[test]
fn large_machine_smoke() {
    // p = 512: the merge algorithms stay correct at scale.
    let machine = Machine::paragon(16, 32);
    for kind in [AlgoKind::BrLin, AlgoKind::BrXySource, AlgoKind::TwoStep] {
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s: 100,
            msg_len: 256,
            kind,
        };
        let out = exp.run().expect("run failed");
        assert!(out.verified, "{} failed at p=512", kind.name());
    }
}

#[test]
fn large_t3d_smoke() {
    let machine = Machine::t3d(256, 9);
    let exp = Experiment {
        machine: &machine,
        dist: SourceDist::Random { seed: 4 },
        s: 64,
        msg_len: 512,
        kind: AlgoKind::MpiAlltoall,
    };
    assert!(exp.run().expect("run failed").verified);
}
