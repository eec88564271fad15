//! Cost parameters of a machine's communication system.
//!
//! The timing model is the classic α–β (postal/LogGP-flavoured) model
//! extended with per-hop latency and link reservation:
//!
//! ```text
//! message of m bytes, route with h hops:
//!   sender software cost        α_send
//!   network occupancy           h·τ + m·β      (reserved on every link)
//!   receiver software cost      α_recv
//!   message-combining memcpy    m·γ            (charged explicitly)
//! ```
//!
//! Calibration targets the published characteristics the paper reports:
//! Paragon channels at 200 MB/s peak (≈70 MB/s effective under NX),
//! NX startup in the tens of microseconds, T3D channels at 300 MB/s with
//! lower-latency MPI built over shmem. MPI on the Paragon is modelled as
//! NX plus a small multiplicative overhead (the paper observed 2–5%).

/// Which communication library "flavour" an algorithm runs under.
///
/// The paper compares Paragon NX against MPI implementations of the same
/// algorithms and observes a uniform 2–5% software penalty for MPI.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum LibraryKind {
    /// Intel's native NX message-passing library.
    Nx,
    /// MPI over the native transport.
    Mpi,
}

impl LibraryKind {
    /// Human-readable short name.
    pub fn name(self) -> &'static str {
        match self {
            LibraryKind::Nx => "NX",
            LibraryKind::Mpi => "MPI",
        }
    }
}

/// Per-machine timing parameters. All times in nanoseconds; `beta`/`gamma`
/// are in nanoseconds per byte (stored ×1024 as integer ratios so the
/// simulator can stay in exact integer arithmetic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineParams {
    /// Software send startup per message (ns).
    pub alpha_send_ns: u64,
    /// Software receive completion cost per message (ns).
    pub alpha_recv_ns: u64,
    /// Network serialization cost, ns per byte, scaled by 1024
    /// (i.e. `beta_ns = beta_milli / 1024`).
    pub beta_ns_x1024: u64,
    /// Per-hop router latency (ns).
    pub tau_hop_ns: u64,
    /// Local memory-copy cost for message combining, ns per byte ×1024.
    pub gamma_ns_x1024: u64,
    /// Multiplicative software overhead for MPI, in parts-per-thousand
    /// added on top of the α costs (e.g. 35 = +3.5%).
    pub mpi_overhead_permille: u64,
    /// Independent injection/ejection ports per node. The Paragon NIC
    /// drives one channel at a time; each T3D interconnect node has six
    /// outgoing channels and can overlap transfers, modelled as parallel
    /// port slots.
    pub ports_per_node: usize,
}

impl MachineParams {
    /// Intel Paragon under the native NX library.
    ///
    /// ≈72 µs startup, ≈70 MB/s effective bandwidth (β ≈ 14.3 ns/B),
    /// sub-µs per-hop latency, i860 memcpy ≈160 MB/s (γ ≈ 6.25 ns/B).
    pub fn paragon_nx() -> Self {
        MachineParams {
            alpha_send_ns: 46_000,
            alpha_recv_ns: 26_000,
            beta_ns_x1024: (14.3 * 1024.0) as u64,
            tau_hop_ns: 400,
            gamma_ns_x1024: (6.25 * 1024.0) as u64,
            mpi_overhead_permille: 35,
            ports_per_node: 1,
        }
    }

    /// Cray T3D under MPI.
    ///
    /// Lower startup (shmem-based MPI ≈22 µs split send/recv), 300 MB/s
    /// channels (β ≈ 3.3 ns/B), fast routers, but message combining costs
    /// relatively *much more* than the network (γ ≈ 22 ns/B ≈ 45 MB/s
    /// effective copy rate on the EV4), which is what flips the algorithm
    /// ranking on this machine (paper §5.3: Br_Lin loses "primarily due
    /// to the higher wait cost and the cost of combining messages").
    pub fn t3d_mpi() -> Self {
        MachineParams {
            alpha_send_ns: 14_000,
            alpha_recv_ns: 8_000,
            beta_ns_x1024: (3.33 * 1024.0) as u64,
            tau_hop_ns: 150,
            gamma_ns_x1024: (22.0 * 1024.0) as u64,
            mpi_overhead_permille: 0, // MPI is the baseline library here
            ports_per_node: 6,
        }
    }

    /// Builder: the same machine with `k` injection/ejection port slots
    /// per node. The canonical way to derive a multi-port variant of a
    /// calibrated parameter set (perf fixtures, `stp --ports`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` — a node with no ports cannot transmit, and
    /// letting zero through would force clamps back into every consumer.
    pub fn with_ports(self, k: usize) -> Self {
        assert!(k > 0, "a machine needs at least one port per node");
        MachineParams {
            ports_per_node: k,
            ..self
        }
    }

    /// Validate the parameter set; called by `Machine::new` so an
    /// invalid configuration is rejected at construction instead of
    /// being papered over with `.max(1)` clamps downstream.
    pub fn validate(&self) {
        assert!(
            self.ports_per_node > 0,
            "ports_per_node must be >= 1 (got 0); use with_ports(k)"
        );
    }

    /// Effective α_send under the given library.
    #[inline]
    pub fn alpha_send(&self, lib: LibraryKind) -> u64 {
        self.with_lib(self.alpha_send_ns, lib)
    }

    /// Effective α_recv under the given library.
    #[inline]
    pub fn alpha_recv(&self, lib: LibraryKind) -> u64 {
        self.with_lib(self.alpha_recv_ns, lib)
    }

    /// Network serialization time for `bytes` payload bytes (ns).
    #[inline]
    pub fn serialize_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.beta_ns_x1024) >> 10
    }

    /// Serialization time under a library flavour: MPI's extra buffering
    /// shows up as a slightly lower effective bandwidth, matching the
    /// paper's observed 2–5% overall MPI penalty.
    #[inline]
    pub fn serialize_ns_lib(&self, bytes: usize, lib: LibraryKind) -> u64 {
        self.with_lib(self.serialize_ns(bytes), lib)
    }

    /// Memory-copy (combining) time for `bytes` bytes (ns).
    #[inline]
    pub fn memcpy_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.gamma_ns_x1024) >> 10
    }

    /// Router latency for an `hops`-hop route (ns).
    #[inline]
    pub fn hops_ns(&self, hops: usize) -> u64 {
        hops as u64 * self.tau_hop_ns
    }

    #[inline]
    fn with_lib(&self, base: u64, lib: LibraryKind) -> u64 {
        match lib {
            LibraryKind::Nx => base,
            LibraryKind::Mpi => base + base * self.mpi_overhead_permille / 1000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpi_costs_slightly_more_than_nx() {
        let p = MachineParams::paragon_nx();
        let nx = p.alpha_send(LibraryKind::Nx);
        let mpi = p.alpha_send(LibraryKind::Mpi);
        assert!(mpi > nx);
        let pct = (mpi - nx) as f64 / nx as f64;
        assert!(
            pct > 0.02 && pct < 0.05,
            "MPI overhead {pct} outside the paper's 2-5% band"
        );
    }

    #[test]
    fn serialization_is_linear() {
        let p = MachineParams::paragon_nx();
        let one = p.serialize_ns(1024);
        assert_eq!(p.serialize_ns(2048), 2 * one);
        assert_eq!(p.serialize_ns(0), 0);
    }

    #[test]
    fn t3d_has_more_bandwidth_than_paragon() {
        let para = MachineParams::paragon_nx();
        let t3d = MachineParams::t3d_mpi();
        assert!(t3d.serialize_ns(1 << 20) < para.serialize_ns(1 << 20));
        assert!(t3d.alpha_send(LibraryKind::Mpi) < para.alpha_send(LibraryKind::Nx));
    }

    #[test]
    fn t3d_memcpy_relatively_expensive() {
        // The T3D ranking flip requires γ to exceed β there, but not on the
        // Paragon.
        let para = MachineParams::paragon_nx();
        let t3d = MachineParams::t3d_mpi();
        assert!(t3d.gamma_ns_x1024 > t3d.beta_ns_x1024);
        assert!(para.gamma_ns_x1024 < para.beta_ns_x1024);
    }

    #[test]
    fn with_ports_builds_multi_port_variants() {
        let p = MachineParams::paragon_nx().with_ports(5);
        assert_eq!(p.ports_per_node, 5);
        // Everything else stays calibrated.
        assert_eq!(p.alpha_send_ns, MachineParams::paragon_nx().alpha_send_ns);
        p.validate();
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_is_rejected_at_construction() {
        let _ = MachineParams::paragon_nx().with_ports(0);
    }

    #[test]
    #[should_panic(expected = "ports_per_node")]
    fn validate_rejects_zero_ports() {
        let p = MachineParams {
            ports_per_node: 0,
            ..MachineParams::paragon_nx()
        };
        p.validate();
    }

    #[test]
    fn integer_model_rounds_down_consistently() {
        let p = MachineParams::paragon_nx();
        // 1 byte at 14.3ns/B -> floor((1*14643)/1024) = 14ns
        assert_eq!(p.serialize_ns(1), (p.beta_ns_x1024) >> 10);
    }
}
