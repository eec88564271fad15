//! A complete machine: topology + cost parameters + placement + the
//! logical mesh shape applications see.

use crate::params::MachineParams;
use crate::placement::Placement;
use crate::shape::MeshShape;
use crate::topology::{Link, NodeId, Topology};

/// A fully-specified machine instance the simulator can execute on.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Human-readable name, e.g. `"Paragon 10x10 (NX)"`.
    pub name: String,
    /// Physical interconnect.
    pub topology: Topology,
    /// Cost parameters.
    pub params: MachineParams,
    /// Virtual-rank to physical-node mapping policy.
    pub placement: Placement,
    /// The logical grid applications index sources and dimensions with.
    pub shape: MeshShape,
    /// Materialized `rank -> node` map (placement applied).
    mapping: Vec<NodeId>,
}

impl Machine {
    /// Build a machine from parts, materializing the placement.
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        params: MachineParams,
        placement: Placement,
        shape: MeshShape,
    ) -> Self {
        let p = shape.p();
        assert!(
            p <= topology.num_nodes(),
            "logical shape needs {p} nodes but topology has {}",
            topology.num_nodes()
        );
        params.validate();
        let mapping = placement.mapping(topology.num_nodes());
        Machine {
            name: name.into(),
            topology,
            params,
            placement,
            shape,
            mapping,
        }
    }

    /// An Intel Paragon sub-mesh of `rows × cols` nodes under NX.
    ///
    /// Physical topology equals the logical shape; identity placement
    /// (Paragon applications own a contiguous sub-mesh).
    ///
    /// ```
    /// let m = mpp_model::Machine::paragon(4, 8);
    /// assert_eq!(m.p(), 32);
    /// assert_eq!(m.distance(0, 31), 3 + 7); // Manhattan on the mesh
    /// ```
    pub fn paragon(rows: usize, cols: usize) -> Self {
        Machine::new(
            format!("Paragon {rows}x{cols}"),
            Topology::Mesh2D { rows, cols },
            MachineParams::paragon_nx(),
            Placement::Identity,
            MeshShape::new(rows, cols),
        )
    }

    /// A Cray T3D partition of `p` virtual processors under MPI.
    ///
    /// Physical topology is a near-cubic 3-D torus; the partition is a
    /// contiguous block at a seed-derived rotation — the user cannot
    /// *choose* the mapping on a production T3D, but consecutive virtual
    /// processors stay physically clustered. The logical shape used by
    /// source distributions is the near-square factorization of `p`.
    pub fn t3d(p: usize, seed: u64) -> Self {
        Machine::new(
            format!("T3D p={p}"),
            Topology::torus_for(p),
            MachineParams::t3d_mpi(),
            Placement::RotatedBlock { seed },
            MeshShape::near_square(p),
        )
    }

    /// An nCUBE-2-class hypercube MPP with `2^dim` nodes — an extension
    /// machine (the paper's related work is largely hypercube-based:
    /// Johnsson & Ho, Bokhari, Lan et al.). Paragon-class software costs
    /// with one channel per dimension modelled as multiple ports.
    pub fn hypercube(dim: u32) -> Self {
        let p = 1usize << dim;
        // One DMA channel per hypercube dimension was the nCUBE-2's
        // signature feature; model as parallel port slots.
        let params = MachineParams::paragon_nx().with_ports(dim.max(1) as usize);
        Machine::new(
            format!("Hypercube-{p}"),
            Topology::Hypercube { dim },
            params,
            Placement::Identity,
            MeshShape::near_square(p),
        )
    }

    /// Number of virtual processors.
    #[inline]
    pub fn p(&self) -> usize {
        self.shape.p()
    }

    /// Physical node of a virtual rank.
    #[inline]
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.mapping[rank]
    }

    /// Physical route between two virtual ranks (dimension-ordered).
    pub fn route(&self, from_rank: usize, to_rank: usize) -> Vec<Link> {
        self.topology
            .route(self.node_of(from_rank), self.node_of(to_rank))
    }

    /// Physical hop distance between two virtual ranks.
    #[inline]
    pub fn distance(&self, from_rank: usize, to_rank: usize) -> usize {
        self.topology
            .distance(self.node_of(from_rank), self.node_of(to_rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LibraryKind;

    #[test]
    fn paragon_is_identity_mapped() {
        let m = Machine::paragon(4, 5);
        assert_eq!(m.p(), 20);
        for r in 0..20 {
            assert_eq!(m.node_of(r), r);
        }
        assert_eq!(m.shape, MeshShape::new(4, 5));
    }

    #[test]
    fn paragon_route_matches_mesh() {
        let m = Machine::paragon(4, 4);
        assert_eq!(m.distance(0, 15), 6);
        assert_eq!(m.route(0, 15).len(), 6);
    }

    #[test]
    fn t3d_rotates_ranks() {
        let m = Machine::t3d(64, 99);
        assert_eq!(m.p(), 64);
        // bijection
        let mut seen = [false; 64];
        for r in 0..64 {
            let n = m.node_of(r);
            assert!(!seen[n]);
            seen[n] = true;
        }
        // consecutive ranks stay adjacent in node-id space (mod wrap)
        assert_eq!((m.node_of(0) + 1) % 64, m.node_of(1));
    }

    #[test]
    fn t3d_shape_is_logical_grid() {
        let m = Machine::t3d(128, 1);
        assert_eq!(m.shape, MeshShape::new(8, 16));
        match m.topology {
            Topology::Torus3D { dx, dy, dz } => assert_eq!(dx * dy * dz, 128),
            _ => panic!("T3D must be a torus"),
        }
    }

    #[test]
    fn machines_expose_calibrated_params() {
        let para = Machine::paragon(10, 10);
        let t3d = Machine::t3d(100, 0);
        assert!(t3d.params.alpha_send(LibraryKind::Mpi) < para.params.alpha_send(LibraryKind::Nx));
    }

    #[test]
    fn hypercube_machine() {
        let m = Machine::hypercube(5);
        assert_eq!(m.p(), 32);
        assert_eq!(m.params.ports_per_node, 5);
    }

    #[test]
    #[should_panic]
    fn shape_larger_than_topology_panics() {
        Machine::new(
            "bad",
            Topology::Mesh2D { rows: 1, cols: 4 },
            MachineParams::paragon_nx(),
            Placement::Identity,
            MeshShape::new(2, 4),
        );
    }
}
