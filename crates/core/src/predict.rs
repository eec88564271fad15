//! Analytic cost prediction — the paper's Figure-2 style analysis as
//! executable closed forms.
//!
//! For each algorithm an α–β–γ estimate of the broadcast time is
//! derived from the same machine parameters the simulator uses,
//! *ignoring network contention and skew* (which only the simulator
//! captures). The predictions serve three purposes:
//!
//! * they document each algorithm's cost structure in code,
//! * they give `O(1)`-cost estimates for algorithm selection without
//!   running a simulation (see [`crate::select`]),
//! * the `predictions_bracket_simulation` tests pin the model: the
//!   simulated time must lie between the contention-free prediction and
//!   a small constant multiple of it.

use mpp_model::{LibraryKind, Machine, Time};

use crate::runner::AlgoKind;

/// Per-entry wire overhead of a combined message (see `msgset`).
const HDR: usize = 8;
/// Fixed wire overhead of a combined message.
const BASE: usize = 4;

/// Wire size of a combined message holding `k` payloads of `len` bytes.
pub fn wire_size(k: usize, len: usize) -> usize {
    BASE + k * (HDR + len)
}

/// Contention-free analytic estimate of the broadcast makespan (ns).
///
/// `p` processors, `s` sources, `len`-byte messages, under `lib`.
/// Returns `None` for algorithm variants without a closed form
/// (the partitioning algorithms, whose final permutation cost depends
/// on the group geometry).
pub fn estimate_ns(machine: &Machine, kind: AlgoKind, s: usize, len: usize) -> Option<Time> {
    let p = machine.p();
    let params = &machine.params;
    let lib = kind.default_lib();
    let a_s = params.alpha_send(lib);
    let a_r = params.alpha_recv(lib);
    let ports = params.ports_per_node as u64;
    let log_p = log2_ceil(p);
    let log_s = log2_ceil(s.max(1));

    let wire = |k: usize| params.serialize_ns_lib(wire_size(k, len), lib);
    let copy = |k: usize| params.memcpy_ns(wire_size(k, len));

    let t = match kind {
        AlgoKind::TwoStep | AlgoKind::MpiAllGather => {
            // Gather all s payloads at the root...
            let gather = if kind == AlgoKind::TwoStep {
                // direct: root's ejection ports serialize s messages,
                // plus a receive-software cost per message.
                s as u64 * (wire(1) / ports + a_r) + a_s + copy(s)
            } else {
                // tree: the root path carries doubling message sets,
                // with combining at each of log p levels.
                let mut t = 0;
                let mut k = (s.div_ceil(p)).max(1);
                for _ in 0..log_p {
                    let k_level = k.min(s);
                    t += a_s + a_r + wire(k_level) + copy(k_level);
                    k = (k * 2).min(s);
                }
                t
            };
            // ... then log p broadcast rounds of the full combined set.
            gather + log_p as u64 * (a_s + a_r + wire(s))
        }
        AlgoKind::PersAlltoAll | AlgoKind::MpiAlltoall => {
            // p-1 permutation rounds; a source pays the send startup in
            // every round, its injection ports serialize the payloads;
            // every rank receives s messages.
            (p as u64 - 1) * a_s + (p as u64 - 1) * wire(1) / ports + s as u64 * a_r
        }
        AlgoKind::BrLin | AlgoKind::ReposLin => {
            // ceil(log p) iterations; the set at a processor roughly
            // doubles from s/p-ish to s; total bytes ≈ wire(s), plus a
            // per-level software + combining cost.
            let mut t = 0;
            let mut k = (s / p).max(1);
            for _ in 0..log_p {
                let k_level = k.min(s);
                t += a_s + a_r + wire(k_level) + copy(k_level);
                k = (k * 2).min(s);
            }
            if kind == AlgoKind::ReposLin {
                t += repositioning_ns(machine, lib, len);
            }
            t
        }
        AlgoKind::BrXySource
        | AlgoKind::BrXyDim
        | AlgoKind::ReposXySource
        | AlgoKind::ReposXyDim => {
            // Phase 1 within the first dimension (say rows, length c):
            // sets grow to ~s/r; phase 2 within columns: sets grow to s.
            let (r, c) = (machine.shape.rows, machine.shape.cols);
            let per_row = s.div_ceil(r).max(1);
            let mut t = 0;
            let mut k = 1usize;
            for _ in 0..log2_ceil(c) {
                let k_level = k.min(per_row);
                t += a_s + a_r + wire(k_level) + copy(k_level);
                k = (k * 2).min(per_row);
            }
            let mut k = per_row;
            for _ in 0..log2_ceil(r) {
                let k_level = k.min(s);
                t += a_s + a_r + wire(k_level) + copy(k_level);
                k = (k * 2).min(s);
            }
            if matches!(kind, AlgoKind::ReposXySource | AlgoKind::ReposXyDim) {
                t += repositioning_ns(machine, lib, len);
            }
            t
        }
        AlgoKind::DissemAllGather | AlgoKind::DissemZeroCopy => {
            // log p rounds; the set roughly doubles; combining only for
            // the non-zero-copy variant.
            let mut t = 0;
            let mut k = (s / p).max(1);
            for _ in 0..log_p {
                let k_level = k.min(s);
                t += a_s + a_r + wire(k_level);
                if kind == AlgoKind::DissemAllGather {
                    t += copy(k_level);
                }
                k = (k * 2).min(s);
            }
            t
        }
        AlgoKind::ReposAdaptiveXySource => {
            // Upper bound: the always-reposition estimate.
            return estimate_ns(machine, AlgoKind::ReposXySource, s, len);
        }
        AlgoKind::NaiveIndependent => {
            // s independent trees: each processor receives one message
            // per source and forwards up to log p per tree; the root
            // path of each tree carries log p sequential sends.
            s as u64 * (a_r + wire(1)) + log_p as u64 * a_s * s as u64 / 2
        }
        AlgoKind::KPortLin => {
            // k source-striped Br_Lin lanes: one batched α_send per
            // level, per-lane sets are ~1/k of the single-port set and
            // their wires overlap on distinct ports; α_recv still
            // serializes one receive per lane at the receiver.
            let lanes = (ports as usize).clamp(1, 16).min(p);
            let mut t = 0;
            let mut k = (s / p).max(1);
            for _ in 0..log_p {
                let k_level = k.min(s);
                let per_lane = k_level.div_ceil(lanes).max(1);
                t += a_s + lanes as u64 * a_r + wire(per_lane) + copy(k_level);
                k = (k * 2).min(s);
            }
            t
        }
        AlgoKind::KPortScatter => {
            // Direct gather at the root, one batched k-way scatter,
            // then a k-lane broadcast of the ~s/k-entry parts.
            let lanes = (ports as usize).clamp(1, 16).min(p);
            let per_lane = s.div_ceil(lanes).max(1);
            let gather = s as u64 * (wire(1) / ports + a_r) + a_s + copy(s);
            let scatter = a_s + wire(per_lane) + a_r;
            let bcast = log_p as u64 * (a_s + lanes as u64 * a_r + wire(per_lane) + copy(per_lane));
            gather + scatter + bcast
        }
        AlgoKind::KPortAlltoall => {
            // PersAlltoAll with the send startup amortized over batches
            // of k destinations.
            let lanes = (ports as usize)
                .clamp(1, 16)
                .min(p.saturating_sub(1).max(1)) as u64;
            (p as u64 - 1).div_ceil(lanes) * a_s + (p as u64 - 1) * wire(1) / ports + s as u64 * a_r
        }
        AlgoKind::PartLin | AlgoKind::PartXySource | AlgoKind::PartXyDim => return None,
    };
    let _ = log_s;
    Some(t)
}

/// Cost of the repositioning permutation: one message of `len` bytes per
/// moving source, overlapped — a send plus a receive.
fn repositioning_ns(machine: &Machine, lib: LibraryKind, len: usize) -> Time {
    let params = &machine.params;
    params.alpha_send(lib) + params.alpha_recv(lib) + params.serialize_ns_lib(len, lib)
}

/// Contention-free estimate in milliseconds.
pub fn estimate_ms(machine: &Machine, kind: AlgoKind, s: usize, len: usize) -> Option<f64> {
    estimate_ns(machine, kind, s, len).map(|ns| ns as f64 / 1e6)
}

/// `⌈log₂ n⌉` (0 for n ≤ 1).
fn log2_ceil(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        (n - 1).ilog2() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::Machine;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(100), 7);
        assert_eq!(log2_ceil(256), 8);
    }

    #[test]
    fn predictions_positive_and_ordered_on_paragon() {
        // On the Paragon the analytic model must already rank the
        // library algorithms above the merge algorithms at large s.
        let m = Machine::paragon(10, 10);
        let br = estimate_ns(&m, AlgoKind::BrLin, 60, 4096).unwrap();
        let two = estimate_ns(&m, AlgoKind::TwoStep, 60, 4096).unwrap();
        let pers = estimate_ns(&m, AlgoKind::PersAlltoAll, 60, 4096).unwrap();
        assert!(br > 0);
        assert!(two > br, "2-Step {two} must exceed Br_Lin {br}");
        assert!(pers > br, "PersAlltoAll {pers} must exceed Br_Lin {br}");
    }

    #[test]
    fn predictions_flip_on_t3d() {
        let m = Machine::t3d(128, 42);
        let br = estimate_ns(&m, AlgoKind::BrLin, 64, 4096).unwrap();
        let alltoall = estimate_ns(&m, AlgoKind::MpiAlltoall, 64, 4096).unwrap();
        assert!(alltoall < br, "analytic model must reproduce the T3D flip");
    }

    #[test]
    fn repositioning_estimate_adds_cost() {
        let m = Machine::paragon(16, 16);
        let plain = estimate_ns(&m, AlgoKind::BrXySource, 40, 4096).unwrap();
        let repos = estimate_ns(&m, AlgoKind::ReposXySource, 40, 4096).unwrap();
        assert!(repos > plain);
    }

    #[test]
    fn partitioning_has_no_closed_form() {
        let m = Machine::paragon(16, 16);
        assert!(estimate_ns(&m, AlgoKind::PartLin, 10, 1024).is_none());
    }

    #[test]
    fn prediction_brackets_simulation() {
        // Contention-free prediction ≤ simulated ≤ prediction × C for a
        // modest constant C; checks the formulas stay anchored to the
        // implementation.
        let m = Machine::paragon(8, 8);
        for kind in [
            AlgoKind::TwoStep,
            AlgoKind::PersAlltoAll,
            AlgoKind::BrLin,
            AlgoKind::BrXySource,
        ] {
            let predicted = estimate_ns(&m, kind, 16, 2048).unwrap() as f64;
            let simulated = crate::runner::Experiment {
                machine: &m,
                dist: crate::distribution::SourceDist::Equal,
                s: 16,
                msg_len: 2048,
                kind,
            }
            .run()
            .expect("run failed")
            .makespan_ns as f64;
            let ratio = simulated / predicted;
            assert!(
                (0.5..6.0).contains(&ratio),
                "{}: simulated/predicted = {ratio:.2} (sim {simulated}, pred {predicted})",
                kind.name()
            );
        }
    }
}
