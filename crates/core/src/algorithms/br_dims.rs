//! Extension: `Br_dims` — the `Br_xy_*` idea on an N-dimensional
//! logical grid.
//!
//! The paper's dimension-at-a-time algorithms are defined for 2-D
//! meshes; machines like the T3D are physically 3-D, and nothing in the
//! construction is specific to two dimensions: process one grid
//! dimension at a time, invoking `Br_Lin` within each line of that
//! dimension; after dimension `d`, every processor holds the union of
//! its (d+1)-dimensional slice. Dimensions are ordered by the
//! `Br_xy_source` rule generalized: ascending maximum source count per
//! line (spread the smallest messages first).

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, Communicator, Tag};

use crate::algorithms::{br_lin_over, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// Tag base; each dimension phase gets its own range.
const TAG: Tag = 5_000;

/// An N-dimensional logical grid over ranks `0..extents.product()`,
/// row-major with the *last* dimension fastest (matches `MeshShape`
/// when `extents = [rows, cols]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridShape {
    /// Extent of each dimension (all ≥ 1).
    pub extents: Vec<usize>,
}

impl GridShape {
    /// Construct; panics on empty or zero extents.
    pub fn new(extents: Vec<usize>) -> Self {
        assert!(
            !extents.is_empty() && extents.iter().all(|&e| e > 0),
            "bad grid {extents:?}"
        );
        GridShape { extents }
    }

    /// Total ranks.
    pub fn p(&self) -> usize {
        self.extents.iter().product()
    }

    /// Coordinates of a rank.
    pub fn coords(&self, rank: usize) -> Vec<usize> {
        let mut c = vec![0; self.extents.len()];
        let mut rest = rank;
        for d in (0..self.extents.len()).rev() {
            c[d] = rest % self.extents[d];
            rest /= self.extents[d];
        }
        debug_assert_eq!(rest, 0);
        c
    }

    /// Rank of coordinates.
    pub fn rank(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.extents.len());
        coords.iter().zip(&self.extents).fold(0, |acc, (&c, &e)| {
            debug_assert!(c < e);
            acc * e + c
        })
    }

    /// The ranks of the grid line through `coords` along dimension `d`.
    pub fn line(&self, coords: &[usize], d: usize) -> Vec<usize> {
        let mut c = coords.to_vec();
        (0..self.extents[d])
            .map(|i| {
                c[d] = i;
                self.rank(&c)
            })
            .collect()
    }

    /// A natural 3-D factorization of `p` (for T3D-style grids).
    pub fn cube_for(p: usize) -> Self {
        match mpp_model::Topology::torus_for(p) {
            mpp_model::Topology::Torus3D { dx, dy, dz } => GridShape::new(vec![dz, dy, dx]),
            _ => unreachable!(),
        }
    }
}

/// `Br_dims`: dimension-at-a-time broadcasting on an N-d logical grid.
#[derive(Debug, Clone)]
pub struct BrDims {
    /// The logical grid (its `p` must equal the communicator size).
    pub grid: GridShape,
}

impl BrDims {
    /// On the given grid.
    pub fn new(grid: GridShape) -> Self {
        BrDims { grid }
    }

    /// Order dimensions by ascending maximum source count per line
    /// (the `Br_xy_source` rule generalized).
    fn dim_order(&self, sources: &[usize]) -> Vec<usize> {
        let n = self.grid.extents.len();
        let mut max_per_dim = vec![0usize; n];
        for d in 0..n {
            // Count sources per line of dimension d: key = coords with
            // dimension d removed.
            let mut counts = std::collections::HashMap::new();
            for &s in sources {
                let mut c = self.grid.coords(s);
                c[d] = 0;
                *counts.entry(c).or_insert(0usize) += 1;
            }
            max_per_dim[d] = counts.values().copied().max().unwrap_or(0);
        }
        let mut order: Vec<usize> = (0..n).collect();
        // Ascending max count; ties towards the longer dimension (more
        // parallelism early), then index for determinism.
        order.sort_by_key(|&d| (max_per_dim[d], usize::MAX - self.grid.extents[d], d));
        order
    }
}

impl StpAlgorithm for BrDims {
    fn name(&self) -> &'static str {
        "Br_dims"
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        ctx: &'a StpCtx<'a>,
    ) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            ctx.validate(comm);
            assert_eq!(
                self.grid.p(),
                comm.size(),
                "grid does not match communicator"
            );
            let me = comm.rank();
            let my_coords = self.grid.coords(me);
            let n = self.grid.extents.len();

            let mut set = match ctx.payload {
                Some(p) => MessageSet::single(me, p),
                None => MessageSet::new(),
            };

            // A rank "has" messages before phase k iff its processed-dims
            // slice contains a source; track with a slice-key set.
            let order = self.dim_order(ctx.sources);
            let mut processed: Vec<usize> = Vec::new();
            for (phase, &d) in order.iter().enumerate() {
                let line = self.grid.line(&my_coords, d);
                let has: Vec<bool> = line
                    .iter()
                    .map(|&r| {
                        // Before phase d, r holds messages iff some source
                        // matches r on every dimension not yet processed
                        // (including d itself — only the processed slices
                        // have been unioned so far).
                        let rc = self.grid.coords(r);
                        ctx.sources.iter().any(|&s| {
                            let sc = self.grid.coords(s);
                            (0..n).all(|dd| processed.contains(&dd) || sc[dd] == rc[dd])
                        })
                    })
                    .collect();
                br_lin_over(comm, &line, &has, &mut set, TAG + (phase as Tag) * 64).await;
                processed.push(d);
            }
            set
        })
    }

    fn ideal_sources(&self, _shape: MeshShape, _s: usize) -> Option<Vec<usize>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::assert_delivers;

    fn check(grid: GridShape, sources: &[usize], len: usize) {
        // The 2-D mesh only sizes the machine and the context check.
        let shape = MeshShape::near_square(grid.p());
        assert_delivers(&BrDims::new(grid), shape, sources, len);
    }

    #[test]
    fn grid_coords_roundtrip() {
        let g = GridShape::new(vec![2, 3, 4]);
        assert_eq!(g.p(), 24);
        for r in 0..24 {
            assert_eq!(g.rank(&g.coords(r)), r);
        }
        // last dimension fastest
        assert_eq!(g.coords(1), vec![0, 0, 1]);
        assert_eq!(g.coords(4), vec![0, 1, 0]);
    }

    #[test]
    fn lines_cover_dimension() {
        let g = GridShape::new(vec![2, 3]);
        assert_eq!(g.line(&[1, 0], 1), vec![3, 4, 5]);
        assert_eq!(g.line(&[0, 2], 0), vec![2, 5]);
    }

    #[test]
    fn three_d_grid_broadcast() {
        check(GridShape::new(vec![2, 3, 4]), &[0, 7, 13, 23], 32);
    }

    #[test]
    fn one_d_grid_is_br_lin() {
        check(GridShape::new(vec![8]), &[2, 5], 16);
    }

    #[test]
    fn two_d_matches_xy_semantics() {
        check(GridShape::new(vec![4, 4]), &[1, 6, 11], 16);
    }

    #[test]
    fn four_d_hypercubeish() {
        check(GridShape::new(vec![2, 2, 2, 2]), &[0, 15], 8);
    }

    #[test]
    fn cube_for_factorizes() {
        let g = GridShape::cube_for(64);
        assert_eq!(g.p(), 64);
        assert_eq!(g.extents.len(), 3);
    }

    #[test]
    fn all_sources_3d() {
        check(
            GridShape::new(vec![2, 2, 3]),
            &(0..12).collect::<Vec<_>>(),
            8,
        );
    }
}
