//! `Br_xy_source` and `Br_xy_dim` (paper §2): broadcast one mesh
//! dimension at a time, invoking `Br_Lin` within each row/column.
//!
//! The two algorithms differ only in how the first dimension is chosen:
//!
//! * `Br_xy_source`: the dimension with the *smaller maximum source
//!   count* goes first (`max_r < max_c` → rows first) — this grows the
//!   number of active processors as fast as possible while keeping
//!   message sizes small.
//! * `Br_xy_dim`: rows first iff `r ≥ c`, ignoring source positions.

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, RankCtx};

use crate::algorithms::part::{run_whole, MergeBase, XyPlan};
use crate::algorithms::{br_lin_over, tags, StpAlgorithm, StpCtx};
use crate::distribution::{col_counts, row_counts};
use crate::msgset::MessageSet;

/// Which dimension is processed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimOrder {
    /// `Br_Lin` within each row, then within each column.
    RowsFirst,
    /// `Br_Lin` within each column, then within each row.
    ColsFirst,
}

/// Decide the `Br_xy_source` dimension order for a source placement.
///
/// `max_r` is the maximum number of sources in any row, `max_c` in any
/// column; rows go first when `max_r < max_c` (fewer sources per row →
/// smaller messages entering the second phase).
pub fn source_dim_order(shape: MeshShape, sources_pos: &[usize]) -> DimOrder {
    let max_r = row_counts(shape, sources_pos)
        .into_iter()
        .max()
        .unwrap_or(0);
    let max_c = col_counts(shape, sources_pos)
        .into_iter()
        .max()
        .unwrap_or(0);
    if max_r < max_c {
        DimOrder::RowsFirst
    } else {
        DimOrder::ColsFirst
    }
}

/// Decide the `Br_xy_dim` dimension order from the mesh shape alone.
pub fn shape_dim_order(shape: MeshShape) -> DimOrder {
    if shape.rows >= shape.cols {
        DimOrder::RowsFirst
    } else {
        DimOrder::ColsFirst
    }
}

/// Run a two-phase xy broadcast on a plan. `sources_pos` are the
/// sorted *plan positions* of the sources; `set` is this rank's current
/// holdings (must agree with membership).
async fn run_xy_on_plan(
    comm: &mut RankCtx,
    plan: &XyPlan,
    sources_pos: &[usize],
    order: DimOrder,
    set: &mut MessageSet,
) {
    let shape = plan.shape;
    let my_pos = plan.pos_of(comm.rank()).expect("rank not in xy plan");
    let (my_row, my_col) = shape.coords(my_pos);
    // Phase-1 flags: the sources on my row (by column) and on my column
    // (by row). Phase-2 flags: a line holds messages iff it contained a
    // source, because phase 1 spread them along it.
    let (mut in_row, mut in_col) = (vec![false; shape.cols], vec![false; shape.rows]);
    let (mut rows_hit, mut cols_hit) = (vec![false; shape.rows], vec![false; shape.cols]);
    for &sp in sources_pos {
        let (row, col) = shape.coords(sp);
        in_row[col] |= row == my_row;
        in_col[row] |= col == my_col;
        rows_hit[row] = true;
        cols_hit[col] = true;
    }
    let row = |c| plan.rank_at(shape.rank(my_row, c));
    let col = |r| plan.rank_at(shape.rank(r, my_col));
    match order {
        DimOrder::RowsFirst => {
            br_lin_over(comm, row, my_col, &in_row, set, tags::BR_LIN).await;
            br_lin_over(comm, col, my_row, &rows_hit, set, tags::BR_XY_PHASE2).await;
        }
        DimOrder::ColsFirst => {
            br_lin_over(comm, col, my_row, &in_col, set, tags::BR_LIN).await;
            br_lin_over(comm, row, my_col, &cols_hit, set, tags::BR_XY_PHASE2).await;
        }
    }
}

/// Algorithm `Br_xy_source`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrXySource;

impl StpAlgorithm for BrXySource {
    fn name(&self) -> &'static str {
        "Br_xy_source"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        run_whole(self, comm, ctx)
    }
}

impl MergeBase for BrXySource {
    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Vec<usize> {
        // Paper §5.2: a row distribution with ideally positioned rows.
        crate::ideal::ideal_rows(shape, s)
    }

    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        let order = source_dim_order(plan.shape, sources_pos);
        Box::pin(run_xy_on_plan(comm, plan, sources_pos, order, set))
    }
}

/// Algorithm `Br_xy_dim`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrXyDim;

impl StpAlgorithm for BrXyDim {
    fn name(&self) -> &'static str {
        "Br_xy_dim"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        run_whole(self, comm, ctx)
    }
}

impl MergeBase for BrXyDim {
    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Vec<usize> {
        crate::ideal::ideal_rows(shape, s)
    }

    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut RankCtx,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        let order = shape_dim_order(plan.shape);
        Box::pin(run_xy_on_plan(comm, plan, sources_pos, order, set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::assert_delivers;
    use crate::distribution::SourceDist;

    #[test]
    fn xy_source_row_distribution() {
        let shape = MeshShape::new(4, 5);
        let sources = SourceDist::Row.place(shape, 10);
        assert_delivers(&BrXySource, shape, &sources, 16);
    }

    #[test]
    fn xy_source_column_distribution() {
        let shape = MeshShape::new(4, 5);
        let sources = SourceDist::Column.place(shape, 8);
        assert_delivers(&BrXySource, shape, &sources, 16);
    }

    #[test]
    fn xy_source_square_block() {
        let shape = MeshShape::new(5, 5);
        let sources = SourceDist::SquareBlock.place(shape, 9);
        assert_delivers(&BrXySource, shape, &sources, 8);
    }

    #[test]
    fn xy_dim_cross() {
        let shape = MeshShape::new(5, 6);
        let sources = SourceDist::Cross.place(shape, 12);
        assert_delivers(&BrXyDim, shape, &sources, 8);
    }

    #[test]
    fn xy_single_source_and_full() {
        let shape = MeshShape::new(3, 4);
        assert_delivers(&BrXySource, shape, &[7], 4);
        assert_delivers(&BrXyDim, shape, &(0..12).collect::<Vec<_>>(), 4);
    }

    #[test]
    fn dim_order_decision_matches_paper_rule() {
        // Sources in a few columns, each column full: rows have few
        // sources each, columns have many -> rows first.
        let shape = MeshShape::new(4, 6);
        let sources = SourceDist::Column.place(shape, 8); // 2 full columns
        assert_eq!(source_dim_order(shape, &sources), DimOrder::RowsFirst);
        // Row distribution: max_r = c = 6 > max_c = rows hit -> cols...
        let row_sources = SourceDist::Row.place(shape, 6); // one full row
        assert_eq!(source_dim_order(shape, &row_sources), DimOrder::ColsFirst);
    }

    #[test]
    fn shape_order_rule() {
        assert_eq!(shape_dim_order(MeshShape::new(6, 4)), DimOrder::RowsFirst);
        assert_eq!(shape_dim_order(MeshShape::new(4, 6)), DimOrder::ColsFirst);
        assert_eq!(shape_dim_order(MeshShape::new(5, 5)), DimOrder::RowsFirst);
    }
}
