//! Partitioning algorithms (paper §3): `Part_Lin`, `Part_xy_source`,
//! `Part_xy_dim`.
//!
//! In addition to repositioning the sources, the machine is split into
//! two groups `G₁`, `G₂` with `p₁/p₂ ≈ s₁/s₂`; the base algorithm runs
//! *independently and simultaneously* inside each group on an ideal
//! distribution, and a final pairwise permutation between the groups
//! exchanges the two partial results. The paper finds that on the
//! Paragon "the partitioning approach hardly ever gives a better
//! performance than repositioning alone" because the final exchange of
//! large messages dominates — a result `repro partitioning` reproduces.

use mpp_model::MeshShape;
use mpp_runtime::{CommFuture, Communicator};

use crate::algorithms::br_xy::{run_xy_on_plan, shape_dim_order, source_dim_order, XyPlan};
use crate::algorithms::{
    br_lin_over, tags, BrLin, BrXyDim, BrXySource, Repos, StpAlgorithm, StpCtx,
};
use crate::msgset::MessageSet;

/// A base algorithm that can run inside a machine partition
/// (a [`XyPlan`] describing a sub-mesh).
pub trait PlanRunnable: StpAlgorithm + Copy {
    /// Run the algorithm within the plan. `sources_pos` are the sorted
    /// row-major *plan positions* that initially hold messages; `set` is
    /// this rank's holdings and must agree with membership. Only ranks in
    /// the plan call this. Boxed future for object-safety symmetry with
    /// [`StpAlgorithm::run`].
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()>;
}

impl PlanRunnable for BrLin {
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        Box::pin(async move {
            let snake = plan.shape.snake_order();
            let order: Vec<usize> = snake.iter().map(|&i| plan.ranks[i]).collect();
            let has: Vec<bool> = snake
                .iter()
                .map(|i| sources_pos.binary_search(i).is_ok())
                .collect();
            br_lin_over(comm, &order, &has, set, tags::BR_LIN).await;
        })
    }
}

impl PlanRunnable for BrXySource {
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        Box::pin(async move {
            let order = source_dim_order(plan.shape, sources_pos);
            run_xy_on_plan(
                comm,
                plan,
                sources_pos,
                order,
                set,
                tags::BR_LIN,
                tags::BR_XY_PHASE2,
            )
            .await;
        })
    }
}

impl PlanRunnable for BrXyDim {
    fn run_on_plan<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        plan: &'a XyPlan,
        sources_pos: &'a [usize],
        set: &'a mut MessageSet,
    ) -> CommFuture<'a, ()> {
        Box::pin(async move {
            let order = shape_dim_order(plan.shape);
            run_xy_on_plan(
                comm,
                plan,
                sources_pos,
                order,
                set,
                tags::BR_LIN,
                tags::BR_XY_PHASE2,
            )
            .await;
        })
    }
}

/// How the machine is split in two.
#[derive(Debug, Clone)]
pub struct Partition {
    /// First group as a sub-mesh plan.
    pub g1: XyPlan,
    /// Second group; same size as `g1`.
    pub g2: XyPlan,
}

/// Split a mesh into two equal halves: by rows when `r` is even,
/// otherwise by columns when `c` is even. Returns `None` when `p` is odd
/// (no equal split exists).
pub fn split_mesh(shape: MeshShape) -> Option<Partition> {
    let (r, c) = (shape.rows, shape.cols);
    if r % 2 == 0 {
        let half = MeshShape::new(r / 2, c);
        let g1 = XyPlan {
            shape: half,
            ranks: (0..r / 2)
                .flat_map(|row| (0..c).map(move |col| row * c + col))
                .collect(),
        };
        let g2 = XyPlan {
            shape: half,
            ranks: (r / 2..r)
                .flat_map(|row| (0..c).map(move |col| row * c + col))
                .collect(),
        };
        Some(Partition { g1, g2 })
    } else if c % 2 == 0 {
        let half = MeshShape::new(r, c / 2);
        let g1 = XyPlan {
            shape: half,
            ranks: (0..r)
                .flat_map(|row| (0..c / 2).map(move |col| row * c + col))
                .collect(),
        };
        let g2 = XyPlan {
            shape: half,
            ranks: (0..r)
                .flat_map(|row| (c / 2..c).map(move |col| row * c + col))
                .collect(),
        };
        Some(Partition { g1, g2 })
    } else {
        None
    }
}

/// The partial permutation both partitioners start with: the i-th
/// source (ascending) ships its message to `targets_all[i]`. Returns
/// what this rank holds afterwards, keyed by its own rank — the moved
/// message stays the rope it arrived as, nothing is copied out of it.
async fn permute_to_targets(
    comm: &mut dyn Communicator,
    ctx: &StpCtx<'_>,
    targets_all: &[usize],
) -> MessageSet {
    let me = comm.rank();
    if let Some(payload) = ctx.payload {
        let i = ctx.sources.binary_search(&me).unwrap();
        let to = targets_all[i];
        if to != me {
            comm.send(to, tags::PART_REPOS, payload);
        }
    }
    let mut set = MessageSet::new();
    if let Some(k) = targets_all.iter().position(|&t| t == me) {
        let from = ctx.sources[k];
        if from != me {
            let moved = comm.recv(Some(from), Some(tags::PART_REPOS)).await.data;
            set = MessageSet::single_payload(me, moved);
        } else if let Some(payload) = ctx.payload {
            set = MessageSet::single(me, payload);
        }
    }
    comm.next_iteration();
    set
}

/// `Part_<base>`: repositioning + machine partitioning.
#[derive(Debug, Clone, Copy)]
pub struct Part<A> {
    base: A,
    name: &'static str,
}

impl<A: PlanRunnable> Part<A> {
    /// Wrap a base algorithm. `name` follows the paper ("Part_Lin", …).
    pub fn new(base: A, name: &'static str) -> Self {
        Part { base, name }
    }
}

impl<A: PlanRunnable> StpAlgorithm for Part<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        ctx: &'a StpCtx<'a>,
    ) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            ctx.validate(comm);
            let Some(partition) = split_mesh(ctx.shape) else {
                // Odd machine: no equal split — fall back to repositioning
                // alone, which partitions degenerate to anyway.
                return Repos::new(self.base, self.name).run(comm, ctx).await;
            };
            let me = comm.rank();
            let s = ctx.s();
            let p = ctx.shape.p();
            let p1 = partition.g1.shape.p();

            // Proportional source split: p1/p2 = 1, so s1 = ⌈s/2⌉.
            let s1 = (s * p1 + p / 2) / p;
            let s2 = s - s1;

            // Ideal targets inside each group (plan positions → global ranks).
            let t1_pos = if s1 > 0 {
                self.base
                    .ideal_sources(partition.g1.shape, s1)
                    .expect("base must define an ideal")
            } else {
                Vec::new()
            };
            let t2_pos = if s2 > 0 {
                self.base
                    .ideal_sources(partition.g2.shape, s2)
                    .expect("base must define an ideal")
            } else {
                Vec::new()
            };
            let mut t1_global: Vec<usize> = t1_pos.iter().map(|&i| partition.g1.ranks[i]).collect();
            let mut t2_global: Vec<usize> = t2_pos.iter().map(|&i| partition.g2.ranks[i]).collect();
            t1_global.sort_unstable();
            t2_global.sort_unstable();

            // The permutation: sources (ascending) fill G1's targets then
            // G2's. origin_of[k] = original source whose message lands on
            // targets_all[k].
            let targets_all: Vec<usize> =
                t1_global.iter().chain(t2_global.iter()).copied().collect();

            // Phase 0: partial permutation.
            let mut set = permute_to_targets(comm, ctx, &targets_all).await;

            // Phase 1: base algorithm inside my group, simultaneously with
            // the other group.
            let (my_plan, my_targets_global, partner) = {
                if let Some(pos) = partition.g1.pos_of(me) {
                    (&partition.g1, &t1_global, partition.g2.ranks[pos])
                } else {
                    let pos = partition.g2.pos_of(me).expect("rank in neither group");
                    (&partition.g2, &t2_global, partition.g1.ranks[pos])
                }
            };
            let mut sources_pos: Vec<usize> = my_targets_global
                .iter()
                .map(|&g| my_plan.pos_of(g).expect("target outside its group"))
                .collect();
            sources_pos.sort_unstable();

            self.base
                .run_on_plan(comm, my_plan, &sources_pos, &mut set)
                .await;
            comm.next_iteration();

            // Phase 2: pairwise exchange between the groups (a permutation).
            comm.send_payload(partner, tags::PART_EXCHANGE, set.to_payload());
            let got = comm.recv(Some(partner), Some(tags::PART_EXCHANGE)).await;
            comm.charge_memcpy(got.data.len());
            let other = MessageSet::from_payload(&got.data).expect("malformed partition exchange");
            set.merge(other);

            // Relabel target-keyed messages back to original sources.
            let mut out = MessageSet::new();
            for (t, data) in set.into_entries() {
                let k = targets_all
                    .iter()
                    .position(|&x| x == t as usize)
                    .expect("unexpected message key after partitioned broadcast");
                out.insert_payload(ctx.sources[k], data);
            }
            out
        })
    }

    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Option<Vec<usize>> {
        self.base.ideal_sources(shape, s)
    }
}

/// Split a plan into two equal halves (nested splitting for the
/// recursive partitioner). Child ranks are mapped through the parent.
pub fn split_plan(plan: &XyPlan) -> Option<(XyPlan, XyPlan)> {
    let inner = split_mesh(plan.shape)?;
    let map = |child: &XyPlan| XyPlan {
        shape: child.shape,
        ranks: child.ranks.iter().map(|&pos| plan.ranks[pos]).collect(),
    };
    Some((map(&inner.g1), map(&inner.g2)))
}

/// Extension: recursive partitioning into `2^depth` groups.
///
/// The paper partitions into two groups and finds the final exchange
/// dominates; the natural question is whether *more* partitioning could
/// ever pay (smaller groups broadcast faster, but the merge phase needs
/// `depth` pairwise exchange rounds of growing combined messages).
/// `repro partitioning` measures the answer: on the Paragon it gets
/// monotonically worse with depth, strengthening the paper's negative
/// result.
#[derive(Debug, Clone, Copy)]
pub struct PartRecursive<A> {
    base: A,
    /// Number of recursive splits (`1` reproduces `Part_*`).
    pub depth: usize,
    name: &'static str,
}

impl<A: PlanRunnable> PartRecursive<A> {
    /// Wrap a base algorithm with `depth` recursive splits.
    pub fn new(base: A, depth: usize, name: &'static str) -> Self {
        assert!(depth >= 1);
        PartRecursive { base, depth, name }
    }
}

impl<A: PlanRunnable> StpAlgorithm for PartRecursive<A> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run<'a>(
        &'a self,
        comm: &'a mut dyn Communicator,
        ctx: &'a StpCtx<'a>,
    ) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            ctx.validate(comm);
            let me = comm.rank();
            let s = ctx.s();

            // Build the leaf groups by splitting as far as possible (up to
            // `depth`); all leaves end congruent because splits are always
            // exact halves.
            let mut groups = vec![XyPlan::identity(ctx.shape)];
            let mut achieved = 0usize;
            for _ in 0..self.depth {
                let mut next = Vec::with_capacity(groups.len() * 2);
                let mut ok = true;
                for g in &groups {
                    match split_plan(g) {
                        Some((a, b)) => {
                            next.push(a);
                            next.push(b);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    break;
                }
                groups = next;
                achieved += 1;
            }
            if achieved == 0 {
                return Repos::new(self.base, self.name).run(comm, ctx).await;
            }
            let n_groups = groups.len();

            // Proportional source allocation across groups, then ideal
            // targets inside each.
            let mut targets_all: Vec<usize> = Vec::with_capacity(s);
            let mut group_targets: Vec<Vec<usize>> = Vec::with_capacity(n_groups);
            for (g, group) in groups.iter().enumerate() {
                let lo = s * g / n_groups;
                let hi = s * (g + 1) / n_groups;
                let s_g = hi - lo;
                let mut tg: Vec<usize> = if s_g > 0 {
                    self.base
                        .ideal_sources(group.shape, s_g)
                        .expect("base must define an ideal")
                        .into_iter()
                        .map(|pos| group.ranks[pos])
                        .collect()
                } else {
                    Vec::new()
                };
                tg.sort_unstable();
                targets_all.extend(tg.iter().copied());
                group_targets.push(tg);
            }

            // Phase 0: the repositioning permutation (sorted sources fill the
            // groups in order).
            let mut set = permute_to_targets(comm, ctx, &targets_all).await;

            // Phase 1: base algorithm inside my leaf group.
            let my_group = groups
                .iter()
                .position(|g| g.pos_of(me).is_some())
                .expect("rank must belong to a leaf group");
            let my_pos = groups[my_group].pos_of(me).unwrap();
            let mut sources_pos: Vec<usize> = group_targets[my_group]
                .iter()
                .map(|&t| groups[my_group].pos_of(t).unwrap())
                .collect();
            sources_pos.sort_unstable();
            self.base
                .run_on_plan(comm, &groups[my_group], &sources_pos, &mut set)
                .await;
            comm.next_iteration();

            // Phase 2: `achieved` merge rounds — at round j my group
            // exchanges member-wise with its sibling block `my_group ^ 2^j`.
            for j in 0..achieved {
                let partner_group = my_group ^ (1usize << j);
                let partner = groups[partner_group].ranks[my_pos];
                let tag = tags::PART_EXCHANGE + j as u32;
                comm.send_payload(partner, tag, set.to_payload());
                let got = comm.recv(Some(partner), Some(tag)).await;
                comm.charge_memcpy(got.data.len());
                let other = MessageSet::from_payload(&got.data).expect("malformed merge exchange");
                set.merge(other);
                comm.next_iteration();
            }

            // Relabel back to original source ids.
            let mut out = MessageSet::new();
            for (t, data) in set.into_entries() {
                let k = targets_all
                    .iter()
                    .position(|&x| x == t as usize)
                    .expect("unexpected key after recursive partitioning");
                out.insert_payload(ctx.sources[k], data);
            }
            out
        })
    }

    fn ideal_sources(&self, shape: MeshShape, s: usize) -> Option<Vec<usize>> {
        self.base.ideal_sources(shape, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::assert_delivers;
    use crate::distribution::SourceDist;

    #[test]
    fn split_prefers_rows() {
        let p = split_mesh(MeshShape::new(4, 5)).unwrap();
        assert_eq!(p.g1.shape, MeshShape::new(2, 5));
        assert_eq!(p.g1.ranks, (0..10).collect::<Vec<_>>());
        assert_eq!(p.g2.ranks, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn split_falls_back_to_columns() {
        let p = split_mesh(MeshShape::new(5, 4)).unwrap();
        assert_eq!(p.g1.shape, MeshShape::new(5, 2));
        assert!(p.g1.ranks.contains(&0) && p.g1.ranks.contains(&17));
        assert!(p.g2.ranks.contains(&2) && p.g2.ranks.contains(&19));
    }

    #[test]
    fn split_odd_machine_none() {
        assert!(split_mesh(MeshShape::new(3, 5)).is_none());
    }

    #[test]
    fn part_lin_square_block() {
        let shape = MeshShape::new(4, 4);
        let sources = SourceDist::SquareBlock.place(shape, 6);
        assert_delivers(&Part::new(BrLin::new(), "Part_Lin"), shape, &sources, 16);
    }

    #[test]
    fn part_xy_source_cross() {
        let shape = MeshShape::new(6, 6);
        let sources = SourceDist::Cross.place(shape, 12);
        assert_delivers(&Part::new(BrXySource, "Part_xy_source"), shape, &sources, 8);
    }

    #[test]
    fn part_xy_dim_equal() {
        let shape = MeshShape::new(4, 6);
        let sources = SourceDist::Equal.place(shape, 7);
        assert_delivers(&Part::new(BrXyDim, "Part_xy_dim"), shape, &sources, 8);
    }

    #[test]
    fn part_single_source() {
        // s=1: one group gets the only source, the other relies entirely
        // on the final exchange.
        let shape = MeshShape::new(4, 4);
        assert_delivers(&Part::new(BrLin::new(), "Part_Lin"), shape, &[9], 32);
    }

    #[test]
    fn part_odd_machine_falls_back() {
        let shape = MeshShape::new(3, 3);
        assert_delivers(
            &Part::new(BrXySource, "Part_xy_source"),
            shape,
            &[0, 4, 8],
            8,
        );
    }

    #[test]
    fn part_all_sources() {
        let shape = MeshShape::new(4, 4);
        let all: Vec<usize> = (0..16).collect();
        assert_delivers(&Part::new(BrLin::new(), "Part_Lin"), shape, &all, 4);
    }

    #[test]
    fn split_plan_nests() {
        let root = XyPlan::identity(MeshShape::new(4, 4));
        let (a, b) = split_plan(&root).unwrap();
        assert_eq!(a.shape, MeshShape::new(2, 4));
        let (aa, ab) = split_plan(&a).unwrap();
        assert_eq!(aa.shape, MeshShape::new(1, 4));
        assert_eq!(aa.ranks, vec![0, 1, 2, 3]);
        assert_eq!(ab.ranks, vec![4, 5, 6, 7]);
        let _ = b;
    }

    #[test]
    fn recursive_depth_one_matches_part_semantics() {
        let shape = MeshShape::new(4, 4);
        let sources = SourceDist::Cross.place(shape, 6);
        assert_delivers(
            &PartRecursive::new(BrLin::new(), 1, "PartRec_1"),
            shape,
            &sources,
            16,
        );
    }

    #[test]
    fn recursive_depth_two_and_three() {
        let shape = MeshShape::new(4, 8);
        let sources = SourceDist::Equal.place(shape, 10);
        assert_delivers(
            &PartRecursive::new(BrXySource, 2, "PartRec_2"),
            shape,
            &sources,
            8,
        );
        assert_delivers(
            &PartRecursive::new(BrLin::new(), 3, "PartRec_3"),
            shape,
            &sources,
            8,
        );
    }

    #[test]
    fn recursive_depth_exceeding_splits_clamps() {
        // 2x2 machine: only 2 splits possible; depth 5 must still work.
        let shape = MeshShape::new(2, 2);
        assert_delivers(
            &PartRecursive::new(BrLin::new(), 5, "PartRec_5"),
            shape,
            &[1, 2],
            8,
        );
    }

    #[test]
    fn recursive_single_source() {
        let shape = MeshShape::new(4, 4);
        assert_delivers(
            &PartRecursive::new(BrLin::new(), 2, "PartRec_2"),
            shape,
            &[9],
            16,
        );
    }
}
