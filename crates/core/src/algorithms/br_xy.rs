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
use mpp_runtime::{CommFuture, RankCtx, Tag};

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

/// A (sub-)mesh an xy-broadcast runs on: a logical shape plus the global
/// rank at each row-major position. The identity plan covers the whole
/// machine; the partitioning algorithms build plans for machine halves.
#[derive(Debug, Clone)]
pub struct XyPlan {
    /// Shape of this (sub-)mesh.
    pub shape: MeshShape,
    /// Global rank at each row-major position; `ranks.len() == shape.p()`.
    pub ranks: Vec<usize>,
}

impl XyPlan {
    /// The whole machine as one plan.
    pub fn identity(shape: MeshShape) -> Self {
        XyPlan {
            shape,
            ranks: (0..shape.p()).collect(),
        }
    }

    /// Plan position of a global rank.
    pub fn pos_of(&self, rank: usize) -> Option<usize> {
        self.ranks.iter().position(|&r| r == rank)
    }

    /// Global ranks of one plan row, left to right.
    pub fn row_order(&self, row: usize) -> Vec<usize> {
        (0..self.shape.cols)
            .map(|c| self.ranks[self.shape.rank(row, c)])
            .collect()
    }

    /// Global ranks of one plan column, top to bottom.
    pub fn col_order(&self, col: usize) -> Vec<usize> {
        (0..self.shape.rows)
            .map(|r| self.ranks[self.shape.rank(r, col)])
            .collect()
    }
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

/// Run a two-phase xy broadcast on a plan. `sources_pos` are *plan
/// positions* (row-major indices into `plan.ranks`) of the sources;
/// `set` is this rank's current holdings (must agree with membership).
///
/// Exposed for the partitioning algorithms, which run it on machine
/// halves.
pub(crate) async fn run_xy_on_plan(
    comm: &mut RankCtx,
    plan: &XyPlan,
    sources_pos: &[usize],
    order: DimOrder,
    set: &mut MessageSet,
    tag_phase1: Tag,
    tag_phase2: Tag,
) {
    let me = comm.rank();
    let my_pos = plan.pos_of(me).expect("rank not in xy plan");
    let (my_row, my_col) = plan.shape.coords(my_pos);
    let is_source_pos = |pos: usize| sources_pos.binary_search(&pos).is_ok();

    let rows_hit: Vec<bool> = {
        let mut v = vec![false; plan.shape.rows];
        for &sp in sources_pos {
            v[plan.shape.coords(sp).0] = true;
        }
        v
    };
    let cols_hit: Vec<bool> = {
        let mut v = vec![false; plan.shape.cols];
        for &sp in sources_pos {
            v[plan.shape.coords(sp).1] = true;
        }
        v
    };

    match order {
        DimOrder::RowsFirst => {
            // Phase 1: Br_Lin within my row.
            let row_order = plan.row_order(my_row);
            let has: Vec<bool> = (0..plan.shape.cols)
                .map(|c| is_source_pos(plan.shape.rank(my_row, c)))
                .collect();
            br_lin_over(comm, &row_order, &has, set, tag_phase1).await;
            // Phase 2: Br_Lin within my column; a position holds messages
            // iff its row contained any source.
            let col_order = plan.col_order(my_col);
            br_lin_over(comm, &col_order, &rows_hit, set, tag_phase2).await;
        }
        DimOrder::ColsFirst => {
            let col_order = plan.col_order(my_col);
            let has: Vec<bool> = (0..plan.shape.rows)
                .map(|r| is_source_pos(plan.shape.rank(r, my_col)))
                .collect();
            br_lin_over(comm, &col_order, &has, set, tag_phase1).await;
            let row_order = plan.row_order(my_row);
            br_lin_over(comm, &row_order, &cols_hit, set, tag_phase2).await;
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
        Box::pin(async move {
            ctx.validate(comm);
            let plan = XyPlan::identity(ctx.shape);
            let order = source_dim_order(ctx.shape, ctx.sources);
            let mut set = match ctx.payload {
                Some(p) => MessageSet::single(comm.rank(), p),
                None => MessageSet::new(),
            };
            run_xy_on_plan(
                comm,
                &plan,
                ctx.sources,
                order,
                &mut set,
                tags::BR_LIN,
                tags::BR_XY_PHASE2,
            )
            .await;
            set
        })
    }

    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Option<Vec<usize>> {
        // Paper §5.2: a row distribution with ideally positioned rows.
        Some(crate::ideal::ideal_rows(shape, s))
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
        Box::pin(async move {
            ctx.validate(comm);
            let plan = XyPlan::identity(ctx.shape);
            let order = shape_dim_order(ctx.shape);
            let mut set = match ctx.payload {
                Some(p) => MessageSet::single(comm.rank(), p),
                None => MessageSet::new(),
            };
            run_xy_on_plan(
                comm,
                &plan,
                ctx.sources,
                order,
                &mut set,
                tags::BR_LIN,
                tags::BR_XY_PHASE2,
            )
            .await;
            set
        })
    }

    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Option<Vec<usize>> {
        Some(crate::ideal::ideal_rows(shape, s))
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
