//! The k-ported algorithm family: saturate every injection port.
//!
//! The paper's machines are multi-ported (the T3D couples six network
//! ports per node; `MachineParams::ports_per_node` models it), yet the
//! §2 algorithms issue one send at a time and leave k−1 ports idle.
//! This module stripes the broadcast across all k ports using the
//! [`RankCtx::send_batch`] primitive: the whole batch pays a
//! single α_send and its members occupy distinct injection slots, so up
//! to k wire times overlap (cf. Träff's k-ported message combining,
//! arXiv:2008.12144, and Zhou et al.'s multi-lane collectives,
//! arXiv:1603.06809).
//!
//! Three algorithms:
//!
//! * [`KPortLin`] — sources are striped into k *lanes* by index mod k;
//!   each lane runs an independent `Br_Lin` recursive-pairing merge
//!   over its own link-class-aware mesh traversal (see `build_lane`:
//!   a two-phase row/column decomposition with alternating orientation
//!   and staggered rotation, so concurrent lanes drive complementary
//!   link classes at the bandwidth-heavy late levels). Per level a rank
//!   ships all its lanes' snapshots in one batch. With k = 1 the one
//!   lane has `Br_Lin`'s order and schedule, but not always its
//!   makespan (see `lane_order`).
//! * [`KPortScatter`] — gather at a root, stripe the bundle into k
//!   parts batch-scattered to k leaders, then a k-lane broadcast merge.
//! * [`KPortAlltoall`] — port-striped direct exchange: every source
//!   batch-sends its message to the other p−1 ranks in rotated order,
//!   k destinations per batch.

use mpp_runtime::{CommFuture, RankCtx, Tag};
use mpp_sim::Payload;

use crate::algorithms::{recv_merge, tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// Tags per level inside a lane tag block: lane index is added to
/// `tag_base + level · LANE_STRIDE`, so lane counts are capped at 16.
const LANE_STRIDE: usize = 16;

/// Largest lane count any k-ported algorithm uses (the tag encoding
/// reserves `LANE_STRIDE` tags per level).
pub const MAX_LANES: usize = LANE_STRIDE;

/// The lane count for a machine with `ports` injection slots per node:
/// one lane per port, capped by the tag encoding and the machine size.
fn lane_count(ports: usize, p: usize) -> usize {
    ports.min(MAX_LANES).min(p).max(1)
}

/// Linear order of lane `v`: a boustrophedon traversal of the mesh —
/// row-major for even `v`, column-major for odd `v` — rotated by
/// `⌊v/2⌋` positions.
///
/// The pairing schedule's distances *halve* as the merged sets double
/// (see [`crate::pattern`]), so the bandwidth-heavy late levels pair
/// positions at order-distance 1 and 2 — mesh *neighbours* under a
/// boustrophedon traversal. Lane geometry therefore decides whether
/// concurrent lanes fight for wires exactly where the messages are
/// fattest: row-major and column-major lanes drive disjoint link
/// classes (row links vs column links), and differently-rotated lanes
/// of the same class pair disjoint edges (even vs odd). A plain
/// rotation by `j·p/k` — the obvious choice — preserves adjacency and
/// puts every lane on the *same* row links at the final levels.
///
/// Lane 0 is always the plain snake order, so `KPort_Lin` at k = 1
/// runs `Br_Lin`'s order and pairing schedule. It is not always
/// `Br_Lin`'s makespan: [`kport_merge`] ships a level's sends as one
/// `send_batch`, which pays one α_send, where `br_lin_over` pays
/// α_send per send. Where a position sends twice in a level (on 8×3's
/// 24-position line, not on 4×4, 8×4 or 16×16) `KPort_Lin` is the
/// faster of the two. Degenerate 1×n / n×1 meshes have one link class;
/// there every lane is the snake rotated by `v`.
pub(crate) fn lane_order(shape: mpp_model::MeshShape, v: usize) -> Vec<usize> {
    let p = shape.p();
    let (rows, cols) = (shape.rows, shape.cols);
    let (col_major, shift) = if rows > 1 && cols > 1 {
        (v % 2 == 1, v / 2)
    } else {
        (false, v)
    };
    let base: Vec<usize> = if col_major {
        let mut o = Vec::with_capacity(p);
        for c in 0..cols {
            for r0 in 0..rows {
                let r = if c % 2 == 0 { r0 } else { rows - 1 - r0 };
                o.push(r * cols + c);
            }
        }
        o
    } else {
        shape.snake_order()
    };
    let shift = shift % p;
    (0..p).map(|i| base[(i + shift) % p]).collect()
}

/// One merge segment of a k-ported lane: a linear order over a group of
/// ranks (the whole machine, or one row/column of it) plus the initial
/// has-flags along it. Both are pure functions of globally known data
/// (source positions, root, k), so every rank derives byte-identical
/// lanes — the same property that makes the `Br_Lin` schedule
/// precomputable. A lane is a *sequence* of segments run back to back
/// (e.g. row merge then column merge).
#[derive(Debug, PartialEq)]
pub(crate) struct KportLane {
    /// `order[i]` is the rank at linear position `i`.
    pub order: Vec<usize>,
    /// Whether position `i` initially holds this lane's messages.
    pub has: Vec<bool>,
}

/// Build lane `j`'s merge segments for the initial holders `holders`
/// (any order, duplicates allowed), in O(line length + holders) on a
/// 2D mesh — no rank asks about all p ranks.
///
/// On a proper 2D mesh with k ≥ 2 a lane is the paper's two-phase xy
/// decomposition of `Br_Lin` — merge within rows, then within columns —
/// because phase locality is what keeps k lanes from fighting over
/// wires: a single 100-position linear merge ships its mid-level
/// messages across half the mesh, where every lane's routes overlap.
/// Odd lanes run the phases in the opposite orientation (columns
/// first), so at any instant half the lanes drive row links and half
/// drive column links — complementary link classes. `⌊j/2⌋` rotates the
/// in-line pairing so same-orientation lanes meet over different edges.
///
/// With k = 1 (or a degenerate 1×n mesh) the lane is a single
/// boustrophedon segment: the `Br_Lin` order and the `Br_Lin` pairing
/// schedule (see `lane_order` for why the makespans can still differ).
pub(crate) fn build_lane(
    shape: mpp_model::MeshShape,
    me: usize,
    j: usize,
    k: usize,
    holders: &[usize],
) -> Vec<KportLane> {
    let (rows, cols) = (shape.rows, shape.cols);
    if k == 1 || rows < 2 || cols < 2 {
        let order = lane_order(shape, j);
        let mut held = vec![false; shape.p()];
        for &r in holders {
            held[r] = true;
        }
        let has = order.iter().map(|&r| held[r]).collect();
        return vec![KportLane { order, has }];
    }
    let rows_first = j.is_multiple_of(2);
    let shift = j / 2;
    fn rotated<T: Copy>(v: &[T], by: usize) -> Vec<T> {
        let n = v.len();
        (0..n).map(|i| v[(i + by) % n]).collect()
    }
    let (my_row, my_col) = shape.coords(me);
    let row_ranks: Vec<usize> = (0..cols).map(|c| shape.rank(my_row, c)).collect();
    let col_ranks: Vec<usize> = (0..rows).map(|r| shape.rank(r, my_col)).collect();
    // Phase-1 has-flags: the holders on my row (by column) and on my
    // column (by row). Phase-2 has-flags: the rows and columns holding
    // anything (a line spreads internally in phase 1, so after it every
    // member of a holding line holds).
    let (mut in_row, mut in_col) = (vec![false; cols], vec![false; rows]);
    let (mut row_hit, mut col_hit) = (vec![false; rows], vec![false; cols]);
    for &r in holders {
        let (row, col) = shape.coords(r);
        in_row[col] |= row == my_row;
        in_col[row] |= col == my_col;
        row_hit[row] = true;
        col_hit[col] = true;
    }
    let (first, has1, second, has2) = if rows_first {
        (row_ranks, in_row, col_ranks, row_hit)
    } else {
        (col_ranks, in_col, row_ranks, col_hit)
    };
    vec![
        KportLane {
            order: rotated(&first, shift),
            has: rotated(&has1, shift),
        },
        KportLane {
            order: rotated(&second, shift),
            has: rotated(&has2, shift),
        },
    ]
}

/// Run `lanes.len()` segmented `Br_Lin` merge patterns concurrently,
/// one message set per lane. All lanes advance level-locked over a
/// *global* level index (a lane's segments run back to back); within a
/// level a rank collects every lane's sends into a *single*
/// [`RankCtx::send_batch`] (one α_send for up to k transmits,
/// fanned across the injection-port slots in declared order), then
/// drains the level's receives lane by lane. One `next_iteration` per
/// level, like `br_lin_over`.
pub(crate) async fn kport_merge(
    comm: &mut RankCtx,
    lanes: &[Vec<KportLane>],
    sets: &mut [MessageSet],
    tag_base: Tag,
) {
    debug_assert_eq!(lanes.len(), sets.len());
    debug_assert!(lanes.len() <= MAX_LANES, "lane tags would collide");
    struct Seg<'a> {
        seg: &'a KportLane,
        sched: std::sync::Arc<crate::pattern::BrLinSchedule>,
        my_pos: usize,
        start_level: usize,
    }
    let me = comm.rank();
    let mut segs: Vec<Vec<Seg>> = Vec::with_capacity(lanes.len());
    let mut levels = 0;
    for lane in lanes {
        let mut start = 0;
        let mut v = Vec::with_capacity(lane.len());
        for seg in lane {
            let my_pos = seg
                .order
                .iter()
                .position(|&r| r == me)
                .unwrap_or_else(|| panic!("rank {me} not in kport lane order"));
            let sched = crate::pattern::br_lin_schedule_shared(&seg.has);
            let start_level = start;
            start += sched.levels();
            v.push(Seg {
                seg,
                sched,
                my_pos,
                start_level,
            });
        }
        levels = levels.max(start);
        segs.push(v);
    }
    fn at_level<'s, 'a>(lane: &'s [Seg<'a>], level: usize) -> Option<&'s Seg<'a>> {
        lane.iter()
            .find(|s| level >= s.start_level && level < s.start_level + s.sched.levels())
    }
    for level in 0..levels {
        // Simultaneous semantics per lane: sends ship the pre-level
        // snapshot, one shared handle per lane.
        let mut batch: Vec<(usize, Tag, Payload)> = Vec::new();
        for (j, lane) in segs.iter().enumerate() {
            let Some(s) = at_level(lane, level) else {
                continue;
            };
            let ops = &s.sched.ops[level - s.start_level][s.my_pos];
            if ops.iter().any(|op| op.send) {
                let snapshot = sets[j].to_payload();
                let tag = tag_base + (level * LANE_STRIDE + j) as Tag;
                for op in ops.iter().filter(|op| op.send) {
                    batch.push((s.seg.order[op.peer], tag, snapshot.clone()));
                }
            }
        }
        if !batch.is_empty() {
            comm.send_batch(batch);
        }
        for (j, lane) in segs.iter().enumerate() {
            let Some(s) = at_level(lane, level) else {
                continue;
            };
            let tag = tag_base + (level * LANE_STRIDE + j) as Tag;
            let ops = &s.sched.ops[level - s.start_level][s.my_pos];
            for op in ops.iter().filter(|op| op.recv) {
                recv_merge(comm, Some(s.seg.order[op.peer]), tag, &mut sets[j]).await;
            }
        }
        comm.next_iteration();
    }
}

/// `KPort_Lin`: k source-striped `Br_Lin` lanes over link-disjoint mesh
/// traversals, one batched transmit per rank per level.
#[derive(Debug, Clone, Copy, Default)]
pub struct KPortLin;

impl StpAlgorithm for KPortLin {
    fn name(&self) -> &'static str {
        "KPort_Lin"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let p = ctx.shape.p();
            let me = comm.rank();
            let k = lane_count(comm.ports(), p);
            // Lane of a source = its index in the sorted source list,
            // mod k; lane j's merge segments come from [`build_lane`] so
            // concurrent lanes drive complementary link classes.
            let lanes: Vec<Vec<KportLane>> = (0..k)
                .map(|j| {
                    let holders: Vec<usize> =
                        ctx.sources.iter().skip(j).step_by(k).copied().collect();
                    build_lane(ctx.shape, me, j, k, &holders)
                })
                .collect();
            let my_lane = ctx.sources.binary_search(&me).ok().map(|i| i % k);
            let mut sets: Vec<MessageSet> = (0..k)
                .map(|j| match ctx.payload {
                    Some(pl) if my_lane == Some(j) => MessageSet::single(me, pl),
                    _ => MessageSet::new(),
                })
                .collect();
            kport_merge(comm, &lanes, &mut sets, tags::KPORT).await;
            let mut result = MessageSet::new();
            for s in sets {
                result.merge(s);
            }
            result
        })
    }
}

/// `KPort_Scatter`: gather at the first source, stripe the gathered
/// bundle into k parts, batch-scatter them to k leaders in one α_send,
/// then broadcast each part down its own lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct KPortScatter;

impl StpAlgorithm for KPortScatter {
    fn name(&self) -> &'static str {
        "KPort_Scatter"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let p = ctx.shape.p();
            let me = comm.rank();
            let s = ctx.s();
            let k = lane_count(comm.ports(), p);
            let root = ctx.sources[0];
            // Lane j holds the sources with index ≡ j (mod k); it is
            // inert when no source maps to it.
            let active = |j: usize| j < s;
            let leader = |j: usize| (root + j * p / k) % p;

            // Phase 1: direct gather at the root.
            let mut full = ctx.initial_set(me);
            if me == root {
                for &src in ctx.sources.iter().filter(|&&r| r != root) {
                    recv_merge(comm, Some(src), tags::KPORT_SCATTER, &mut full).await;
                }
            } else if ctx.payload.is_some() {
                comm.send_payload(root, tags::KPORT_SCATTER, full.to_payload());
            }
            comm.next_iteration();

            // Phase 2: the root stripes the bundle into k parts and
            // ships the non-local ones to their lane leaders in a
            // single batch — one α_send, k injection slots.
            let mut sets: Vec<MessageSet> = (0..k).map(|_| MessageSet::new()).collect();
            if me == root {
                let mut batch: Vec<(usize, Tag, Payload)> = Vec::new();
                for (j, set) in sets.iter_mut().enumerate() {
                    if !active(j) {
                        continue;
                    }
                    let mut part = MessageSet::new();
                    for (i, &src) in ctx.sources.iter().enumerate() {
                        if i % k == j {
                            let data = full.get(src).expect("gathered set is complete");
                            part.insert_payload(src, data.clone());
                        }
                    }
                    if leader(j) != root {
                        batch.push((leader(j), tags::KPORT_SCATTER + 1, part.to_payload()));
                    }
                    // The root co-holds every lane, halving lane depth.
                    *set = part;
                }
                if !batch.is_empty() {
                    comm.send_batch(batch);
                }
            } else {
                for (j, set) in sets.iter_mut().enumerate() {
                    if active(j) && leader(j) == me {
                        recv_merge(comm, Some(root), tags::KPORT_SCATTER + 1, set).await;
                    }
                }
            }
            comm.next_iteration();

            // Phase 3: k-lane broadcast merge; lane j starts at its
            // leader (and the root, which co-holds part j).
            let lanes: Vec<Vec<KportLane>> = (0..k)
                .map(|j| {
                    let holders = if active(j) {
                        vec![leader(j), root]
                    } else {
                        vec![]
                    };
                    build_lane(ctx.shape, me, j, k, &holders)
                })
                .collect();
            kport_merge(
                comm,
                &lanes,
                &mut sets,
                tags::KPORT_SCATTER + LANE_STRIDE as Tag,
            )
            .await;
            let mut result = MessageSet::new();
            for set in sets {
                result.merge(set);
            }
            result
        })
    }
}

/// `KPort_Alltoall`: every source streams its message directly to all
/// other ranks, k destinations per batched transmit (rotated so
/// concurrent sources target disjoint ranks first).
#[derive(Debug, Clone, Copy, Default)]
pub struct KPortAlltoall;

impl StpAlgorithm for KPortAlltoall {
    fn name(&self) -> &'static str {
        "KPort_Alltoall"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let p = ctx.shape.p();
            let me = comm.rank();
            let k = lane_count(comm.ports(), p);
            let own = ctx.initial_set(me);
            if !own.is_empty() {
                let snapshot = own.to_payload();
                let dsts: Vec<usize> = (1..p).map(|d| (me + d) % p).collect();
                for chunk in dsts.chunks(k) {
                    // A one-member batch is a plain send: one α_send and
                    // the same recorded events, without the batch vector.
                    if let [dst] = *chunk {
                        comm.send_payload(dst, tags::KPORT_A2A, snapshot.clone());
                        continue;
                    }
                    let batch: Vec<(usize, Tag, Payload)> = chunk
                        .iter()
                        .map(|&dst| (dst, tags::KPORT_A2A, snapshot.clone()))
                        .collect();
                    comm.send_batch(batch);
                }
            }
            comm.next_iteration();
            // One source per receive, in source order: a plain list of
            // s, made a set once at the end.
            let mut entries = Vec::with_capacity(ctx.s());
            for &src in ctx.sources {
                if src == me {
                    entries.extend(own.iter().map(|(src, data)| (src, data.clone())));
                    continue;
                }
                let msg = comm.recv(Some(src), Some(tags::KPORT_A2A)).await;
                comm.charge_memcpy(msg.data.len());
                let set = MessageSet::view(&msg.data).expect("malformed message set on the wire");
                entries.extend(set.iter().map(|(src, data)| (src, data.clone())));
            }
            comm.next_iteration();
            entries.into_iter().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::MeshShape;

    use crate::algorithms::tests::assert_delivers;

    // The test Paragon has 1 port, so these exercise the k = 1
    // degenerate path (and odd meshes / source counts); multi-port
    // behaviour is covered by the five-port tests in
    // `tests/exec_equivalence.rs` and the analyzer conformance suite.

    #[test]
    fn kport_lin_delivers() {
        assert_delivers(&KPortLin, MeshShape::new(4, 4), &[0, 3, 7, 12, 15], 32);
        assert_delivers(&KPortLin, MeshShape::new(3, 5), &[2, 7, 14], 16);
        assert_delivers(&KPortLin, MeshShape::new(2, 2), &[1], 8);
    }

    #[test]
    fn kport_scatter_delivers() {
        assert_delivers(&KPortScatter, MeshShape::new(4, 4), &[0, 3, 7, 12, 15], 32);
        assert_delivers(&KPortScatter, MeshShape::new(3, 5), &[2, 7, 14], 16);
        assert_delivers(&KPortScatter, MeshShape::new(2, 2), &[3], 8);
    }

    #[test]
    fn kport_alltoall_delivers() {
        assert_delivers(&KPortAlltoall, MeshShape::new(4, 4), &[0, 3, 7, 12, 15], 32);
        assert_delivers(&KPortAlltoall, MeshShape::new(3, 5), &[2, 7, 14], 16);
        assert_delivers(
            &KPortAlltoall,
            MeshShape::new(1, 7),
            &(0..7).collect::<Vec<_>>(),
            8,
        );
    }

    #[test]
    fn zero_length_payloads() {
        assert_delivers(&KPortLin, MeshShape::new(2, 4), &[1, 6], 0);
        assert_delivers(&KPortScatter, MeshShape::new(2, 4), &[1, 6], 0);
        assert_delivers(&KPortAlltoall, MeshShape::new(2, 4), &[1, 6], 0);
    }

    /// The lanes [`build_lane`] must produce, by asking every one of
    /// the p ranks whether it holds.
    fn brute_force_lane(
        shape: MeshShape,
        me: usize,
        j: usize,
        k: usize,
        holds: &dyn Fn(usize) -> bool,
    ) -> Vec<KportLane> {
        let (rows, cols) = (shape.rows, shape.cols);
        if k == 1 || rows < 2 || cols < 2 {
            let order = lane_order(shape, j);
            let has = order.iter().map(|&r| holds(r)).collect();
            return vec![KportLane { order, has }];
        }
        let rows_first = j.is_multiple_of(2);
        let rotate = |v: Vec<usize>| -> Vec<usize> {
            let n = v.len();
            (0..n).map(|i| v[(i + j / 2) % n]).collect()
        };
        let (my_row, my_col) = shape.coords(me);
        let row_order = rotate((0..cols).map(|c| shape.rank(my_row, c)).collect());
        let col_order = rotate((0..rows).map(|r| shape.rank(r, my_col)).collect());
        let line = |r: usize| {
            let (row, col) = shape.coords(r);
            if rows_first {
                row
            } else {
                col
            }
        };
        let hit: Vec<usize> = (0..shape.p()).filter(|&r| holds(r)).map(line).collect();
        let (first, second) = if rows_first {
            (row_order, col_order)
        } else {
            (col_order, row_order)
        };
        let has1 = first.iter().map(|&r| holds(r)).collect();
        let has2 = second.iter().map(|&r| hit.contains(&line(r))).collect();
        vec![
            KportLane {
                order: first,
                has: has1,
            },
            KportLane {
                order: second,
                has: has2,
            },
        ]
    }

    #[test]
    fn lanes_from_holder_lists_match_the_all_ranks_reference() {
        use crate::distribution::SourceDist;
        for (rows, cols) in [(4, 4), (8, 3), (16, 16)] {
            let shape = MeshShape::new(rows, cols);
            let p = shape.p();
            for k in [1, 2, 5] {
                for (dist, s) in [
                    (SourceDist::Cross, p / 3),
                    (SourceDist::Random { seed: 7 }, 5),
                    (SourceDist::Row, p),
                ] {
                    let sources = dist.place(shape, s);
                    let root = sources[0];
                    let leader = |j: usize| (root + j * p / k) % p;
                    for j in 0..k {
                        // KPort_Lin: the sources with index ≡ j (mod k).
                        let lin: Vec<usize> = sources.iter().skip(j).step_by(k).copied().collect();
                        // KPort_Scatter: the lane leader and the root.
                        let scatter = [leader(j), root];
                        for me in 0..p {
                            assert_eq!(
                                build_lane(shape, me, j, k, &lin),
                                brute_force_lane(shape, me, j, k, &|r| lin.contains(&r)),
                                "KPort_Lin {rows}x{cols} k={k} lane {j} rank {me}"
                            );
                            assert_eq!(
                                build_lane(shape, me, j, k, &scatter),
                                brute_force_lane(shape, me, j, k, &|r| scatter.contains(&r)),
                                "KPort_Scatter {rows}x{cols} k={k} lane {j} rank {me}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_count_clamps() {
        assert_eq!(lane_count(1, 16), 1);
        assert_eq!(lane_count(5, 16), 5);
        assert_eq!(lane_count(64, 16), 16);
        assert_eq!(lane_count(5, 3), 3);
        assert_eq!(lane_count(6, 100), 6);
    }
}
