//! Algorithm selection — the paper's conclusions as executable advice.
//!
//! Paper §5.2 gives three conditions under which repositioning pays on
//! the Paragon (moderate `s < p/2`, `p > 16`, `1 KiB ≤ L ≤ 16 KiB`), and
//! §5.3 concludes that on the T3D — where the network is fast relative
//! to software costs — the wait-free `MPI_Alltoall` wins. This module
//! turns those findings into a recommendation function, which `stp
//! serve`'s `"algo":"auto"` exercises.

use mpp_model::Machine;

use crate::runner::AlgoKind;

/// Coarse classification of a machine's cost regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostRegime {
    /// Network-dominated: per-byte network cost exceeds the local copy
    /// cost (Paragon-like). Message combining pays.
    NetworkBound,
    /// Software-dominated: the network is fast enough that per-message
    /// software costs and combining dominate (T3D-like).
    SoftwareBound,
}

/// Classify a machine by comparing its per-byte network and memcpy costs.
pub fn cost_regime(machine: &Machine) -> CostRegime {
    if machine.params.gamma_ns_x1024 >= machine.params.beta_ns_x1024 {
        CostRegime::SoftwareBound
    } else {
        CostRegime::NetworkBound
    }
}

/// Recommend an algorithm for `s` sources of `msg_len` bytes on
/// `machine`, following the paper's conclusions:
///
/// * software-bound machines (T3D): `MPI_Alltoall` — minimal wait cost,
///   no combining;
/// * network-bound machines with k ≥ 2 injection ports per node:
///   `KPort_Lin` — the port-striped lanes roughly divide the dominant
///   wire time by k (≈2× at k = 5 on the Paragon figure workloads),
///   which no single-port merge schedule can recover;
/// * network-bound single-port machines (Paragon) where all three
///   repositioning conditions hold: `Repos_xy_source`;
/// * otherwise: `Br_xy_source` (best all-round merge algorithm).
pub fn recommend(machine: &Machine, s: usize, msg_len: usize) -> AlgoKind {
    let p = machine.p();
    match cost_regime(machine) {
        CostRegime::SoftwareBound => AlgoKind::MpiAlltoall,
        CostRegime::NetworkBound => {
            if machine.params.ports_per_node >= 2 {
                return AlgoKind::KPortLin;
            }
            let moderate_sources = s < p / 2;
            let big_enough_machine = p > 16;
            let length_band = (1024..=16 * 1024).contains(&msg_len);
            if moderate_sources && big_enough_machine && length_band {
                AlgoKind::ReposXySource
            } else {
                AlgoKind::BrXySource
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragon_is_network_bound() {
        assert_eq!(
            cost_regime(&Machine::paragon(10, 10)),
            CostRegime::NetworkBound
        );
    }

    #[test]
    fn t3d_is_software_bound() {
        assert_eq!(
            cost_regime(&Machine::t3d(128, 0)),
            CostRegime::SoftwareBound
        );
    }

    #[test]
    fn t3d_gets_alltoall() {
        assert_eq!(
            recommend(&Machine::t3d(128, 0), 40, 4096),
            AlgoKind::MpiAlltoall
        );
    }

    #[test]
    fn multiport_paragon_gets_kport() {
        // A multi-ported network-bound machine should stripe its lanes
        // across the ports regardless of the repositioning conditions.
        let mut m = Machine::paragon(16, 16);
        m.params = m.params.clone().with_ports(5);
        assert_eq!(recommend(&m, 75, 6 * 1024), AlgoKind::KPortLin);
        assert_eq!(recommend(&m, 200, 128), AlgoKind::KPortLin);
        // The T3D has six ports but is software-bound: combining (and
        // thus lane-merging) loses to the wait-free direct exchange.
        assert_eq!(
            recommend(&Machine::t3d(128, 0), 40, 4096),
            AlgoKind::MpiAlltoall
        );
    }

    #[test]
    fn paragon_sweet_spot_gets_repositioning() {
        let m = Machine::paragon(16, 16);
        assert_eq!(recommend(&m, 75, 6 * 1024), AlgoKind::ReposXySource);
    }

    #[test]
    fn paragon_outside_conditions_gets_plain_xy() {
        let m = Machine::paragon(16, 16);
        // too many sources
        assert_eq!(recommend(&m, 200, 4096), AlgoKind::BrXySource);
        // tiny machine
        assert_eq!(
            recommend(&Machine::paragon(4, 4), 3, 4096),
            AlgoKind::BrXySource
        );
        // tiny messages
        assert_eq!(recommend(&m, 75, 128), AlgoKind::BrXySource);
        // huge messages
        assert_eq!(recommend(&m, 75, 64 * 1024), AlgoKind::BrXySource);
    }
}
