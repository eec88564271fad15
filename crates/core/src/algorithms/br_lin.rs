//! `Br_Lin` (paper §2): recursive pairing on a linear processor order.

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, RankCtx};

use crate::algorithms::part::{run_whole, MergeBase, XyPlan};
use crate::algorithms::{br_lin_over, tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// Algorithm `Br_Lin`, pairing along the snake-like (boustrophedon)
/// row-major order — the paper's choice on meshes, keeping linear
/// neighbours physically adjacent.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrLin;

/// The snake order on `shape` maps linear position `i` to row-major
/// position `snake(shape, i)`. It only mirrors the odd rows, so it is
/// its own inverse.
fn snake(shape: MeshShape, i: usize) -> usize {
    let (row, col) = shape.coords(i);
    if row % 2 == 0 {
        i
    } else {
        shape.rank(row, shape.cols - 1 - col)
    }
}

impl StpAlgorithm for BrLin {
    fn name(&self) -> &'static str {
        "Br_Lin"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        run_whole(self, comm, ctx)
    }
}

impl MergeBase for BrLin {
    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Vec<usize> {
        // Paper §4: the left diagonal is "one of the ideal distributions
        // for Br_Lin" and the least sensitive to machine size.
        crate::ideal::ideal_left_diagonal(shape, s)
    }

    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        Box::pin(async move {
            let shape = plan.shape;
            let mut has = vec![false; shape.p()];
            for &pos in sources_pos {
                has[snake(shape, pos)] = true;
            }
            let me = plan.pos_of(comm.rank()).expect("rank not in its plan");
            let order = |i| plan.rank_at(snake(shape, i));
            br_lin_over(comm, order, snake(shape, me), &has, set, tags::BR_LIN).await;
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn snake_is_the_snake_order_and_its_own_inverse() {
        for (rows, cols) in [(1, 5), (4, 4), (5, 3), (3, 8)] {
            let shape = MeshShape::new(rows, cols);
            let order: Vec<usize> = (0..shape.p()).map(|i| snake(shape, i)).collect();
            assert_eq!(order, shape.snake_order(), "{rows}x{cols}");
            assert!((0..shape.p()).all(|i| snake(shape, snake(shape, i)) == i));
        }
    }
}
