//! `Br_Lin` (paper §2): recursive pairing on a linear processor order.

use mpp_runtime::{CommFuture, RankCtx};

use crate::algorithms::{br_lin_over, tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// Algorithm `Br_Lin`, pairing along the snake-like (boustrophedon)
/// row-major order — the paper's choice on meshes, keeping linear
/// neighbours physically adjacent.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrLin;

impl StpAlgorithm for BrLin {
    fn name(&self) -> &'static str {
        "Br_Lin"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            ctx.validate(comm);
            let order = ctx.shape.snake_order();
            let has: Vec<bool> = order.iter().map(|&r| ctx.is_source(r)).collect();
            let mut set = match ctx.payload {
                Some(p) => MessageSet::single(comm.rank(), p),
                None => MessageSet::new(),
            };
            br_lin_over(comm, &order, &has, &mut set, tags::BR_LIN).await;
            set
        })
    }

    fn ideal_sources(&self, shape: mpp_model::MeshShape, s: usize) -> Option<Vec<usize>> {
        // Paper §4: the left diagonal is "one of the ideal distributions
        // for Br_Lin" and the least sensitive to machine size.
        Some(crate::ideal::ideal_left_diagonal(shape, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::MeshShape;

    use crate::algorithms::tests::assert_delivers;

    #[test]
    fn single_source_square() {
        assert_delivers(&BrLin, MeshShape::new(4, 4), &[5], 64);
    }

    #[test]
    fn many_sources_square() {
        assert_delivers(&BrLin, MeshShape::new(4, 4), &[0, 3, 7, 12, 15], 16);
    }

    #[test]
    fn all_sources() {
        let shape = MeshShape::new(3, 3);
        assert_delivers(&BrLin, shape, &(0..9).collect::<Vec<_>>(), 8);
    }

    #[test]
    fn odd_mesh_snake() {
        assert_delivers(&BrLin, MeshShape::new(5, 3), &[0, 8], 32);
    }

    #[test]
    fn zero_length_payloads() {
        assert_delivers(&BrLin, MeshShape::new(2, 4), &[1, 6], 0);
    }
}
