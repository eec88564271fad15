//! `2-Step` (paper §2): an s-to-one gather followed by a one-to-all
//! broadcast.
//!
//! Every source's message reaches processor `P₀`, which combines the `s`
//! messages into one large message and broadcasts it to all processors
//! with the recursive-halving pattern. The paper includes this
//! library-style solution to demonstrate its bottlenecks: `O(s)`
//! congestion at `P₀` and `log p` broadcast rounds each carrying the full
//! `s·L` bytes.
//!
//! Two gather flavours are provided:
//!
//! * [`TwoStep::direct`] — every source sends straight to `P₀` (the
//!   paper's NX implementation on the Paragon);
//! * [`TwoStep::tree`] — a binomial-tree gather with combining at the
//!   intermediate nodes, the classic MPI library implementation; this is
//!   what the `MPI_AllGather` variant runs. `P₀` still receives the full
//!   `s·L` bytes (the congestion the paper attributes to it), but the
//!   gather's skew now depends on where the sources sit, which is what
//!   makes the T3D distribution effects of Figures 11 and 12 visible.

use collectives::bcast_from_first;
use mpp_runtime::{CommFuture, RankCtx, Tag};

use crate::algorithms::{recv_merge, tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// Algorithm `2-Step`.
#[derive(Debug, Clone, Copy)]
pub struct TwoStep {
    /// Use a binomial-tree gather instead of direct sends to the root.
    pub tree_gather: bool,
}

impl Default for TwoStep {
    fn default() -> Self {
        TwoStep::direct()
    }
}

/// The rank that gathers and re-broadcasts.
const ROOT: usize = 0;

impl TwoStep {
    /// The paper's NX implementation: sources send directly to `P₀`.
    pub fn direct() -> Self {
        TwoStep { tree_gather: false }
    }

    /// The MPI-library implementation: binomial-tree gather.
    pub fn tree() -> Self {
        TwoStep { tree_gather: true }
    }

    /// Gather all source payloads into a [`MessageSet`] at the root;
    /// other ranks return an empty set.
    async fn gather(&self, comm: &mut RankCtx, ctx: &StpCtx<'_>) -> MessageSet {
        let me = comm.rank();
        let mut set = if !self.tree_gather && me == ROOT {
            // The root collects the sources one message at a time: room
            // for all of them, allocated once.
            let mut room = MessageSet::with_capacity(ctx.s());
            if let Some(own) = ctx.payload {
                room.insert(me, own);
            }
            room
        } else {
            ctx.initial_set(me)
        };
        if !self.tree_gather {
            // Direct gather: sources fire at the root; the root absorbs.
            if me != ROOT {
                if ctx.payload.is_some() {
                    comm.send_payload(ROOT, tags::GATHER, set.to_payload());
                }
            } else {
                let expect = ctx.sources.iter().filter(|&&s| s != ROOT).count();
                for _ in 0..expect {
                    recv_merge(comm, None, tags::GATHER, &mut set).await;
                }
            }
            comm.next_iteration();
            return set;
        }

        // Binomial-tree gather along the recursive-halving segment tree:
        // the holder of segment [lo, hi) is `lo`; `mid` forwards the
        // accumulated second half up to `lo`. Only subtrees that contain
        // sources communicate.
        let p = comm.size();
        let subtree_has_source =
            |lo: usize, hi: usize| ctx.sources.iter().any(|&s| s >= lo && s < hi);
        gather_seg(comm, &mut set, 0, p, 0, &subtree_has_source).await;
        comm.next_iteration();
        set
    }
}

/// Where the tree gather splits segment `[lo, hi)`.
fn split(lo: usize, hi: usize) -> usize {
    lo + (hi - lo).div_ceil(2)
}

/// The tree gather's tag for a segment at recursion `depth` (the root
/// segment is depth 0). Depth is at most ⌈log₂ p⌉, so the tags stay
/// inside the gather's range; `tags::GATHER` itself is the direct
/// gather's.
fn seg_tag(depth: u32) -> Tag {
    tags::GATHER + 1 + depth
}

/// Recursive step of the tree gather on segment `[lo, hi)` at recursion
/// `depth`. Returns a boxed future because async recursion needs an
/// indirection.
fn gather_seg<'a>(
    comm: &'a mut RankCtx,
    set: &'a mut MessageSet,
    lo: usize,
    hi: usize,
    depth: u32,
    subtree_has_source: &'a dyn Fn(usize, usize) -> bool,
) -> CommFuture<'a, ()> {
    Box::pin(async move {
        if hi - lo <= 1 {
            return;
        }
        let me = comm.rank();
        let mid = split(lo, hi);
        if me < mid {
            gather_seg(comm, set, lo, mid, depth + 1, subtree_has_source).await;
            if me == lo && subtree_has_source(mid, hi) {
                recv_merge(comm, Some(mid), seg_tag(depth), set).await;
            }
        } else {
            gather_seg(comm, set, mid, hi, depth + 1, subtree_has_source).await;
            if me == mid && subtree_has_source(mid, hi) {
                comm.send_payload(lo, seg_tag(depth), set.to_payload());
            }
        }
    })
}

impl StpAlgorithm for TwoStep {
    fn name(&self) -> &'static str {
        if self.tree_gather {
            "2-Step (tree)"
        } else {
            "2-Step"
        }
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let me = comm.rank();

            // Step 1: gather the combined message at the root.
            let gathered = self.gather(comm, ctx).await;

            // Step 2: root broadcasts the combined message.
            let order: Vec<usize> = (0..comm.size()).collect();
            let combined = (me == ROOT).then(|| gathered.to_payload());
            let wire = bcast_from_first(comm, &order, combined, tags::BCAST).await;
            MessageSet::from_payload(&wire).expect("malformed combined message")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::MeshShape;

    use crate::algorithms::tests::{assert_delivers, simulate_on};
    use crate::msgset::payload_for;

    #[test]
    fn direct_basic() {
        assert_delivers(&TwoStep::direct(), MeshShape::new(2, 4), &[2, 5, 7], 32);
    }

    #[test]
    fn tree_basic() {
        assert_delivers(&TwoStep::tree(), MeshShape::new(2, 4), &[2, 5, 7], 32);
    }

    #[test]
    fn root_is_a_source_both_flavours() {
        assert_delivers(&TwoStep::direct(), MeshShape::new(2, 3), &[0, 4], 16);
        assert_delivers(&TwoStep::tree(), MeshShape::new(2, 3), &[0, 4], 16);
    }

    #[test]
    fn single_source_single_proc() {
        assert_delivers(&TwoStep::direct(), MeshShape::new(1, 1), &[0], 8);
        assert_delivers(&TwoStep::tree(), MeshShape::new(1, 1), &[0], 8);
    }

    #[test]
    fn all_sources_odd_p() {
        assert_delivers(
            &TwoStep::direct(),
            MeshShape::new(3, 3),
            &(0..9).collect::<Vec<_>>(),
            8,
        );
        assert_delivers(
            &TwoStep::tree(),
            MeshShape::new(3, 3),
            &(0..9).collect::<Vec<_>>(),
            8,
        );
    }

    /// The tree gather's tags stay inside its range, between the direct
    /// gather's tag and the broadcast's, on every machine `stp serve`
    /// accepts. The deepest segment is always the leftmost one (`split`
    /// rounds the left half up).
    #[test]
    fn tree_gather_tags_stay_in_range() {
        let in_range = |tag| tags::GATHER < tag && tag < tags::BCAST;
        for p in 1..=crate::serve::MAX_P {
            let (mut hi, mut depth) = (p, 0);
            while hi > 1 {
                assert!(in_range(seg_tag(depth)), "p={p}: depth {depth}");
                hi = split(0, hi);
                depth += 1;
            }
        }
        // The same on a recorded 10×10 run: every gather send (the
        // first iteration) carries an in-range tag.
        let machine = mpp_model::Machine::paragon(10, 10);
        let sources: Vec<usize> = (0..100).collect();
        let run = crate::runner::try_record_sources(
            &machine,
            mpp_model::LibraryKind::Mpi,
            &sources,
            &|r| payload_for(r, 8),
            &TwoStep::tree(),
            &crate::runner::RunControl::default(),
        )
        .expect("a fault-free 10×10 run records");
        let gather: Vec<_> = run.events.sends.iter().filter(|e| e.step == 0).collect();
        assert_eq!(gather.len(), 99);
        for send in gather {
            assert!(
                in_range(send.tag),
                "{} -> {}: tag {}",
                send.src,
                send.dst,
                send.tag
            );
        }
    }

    #[test]
    fn tree_skips_empty_subtrees() {
        // With a single source at the far end, only the path to the root
        // communicates in the gather: total sends ≈ O(log p), not O(p).
        let shape = MeshShape::new(4, 4);
        let sources = vec![15usize];
        let sends = simulate_on(shape, async |comm| {
            let payload = sources
                .contains(&comm.rank())
                .then(|| payload_for(comm.rank(), 8));
            let ctx = StpCtx {
                shape,
                sources: &sources,
                payload: payload.as_deref(),
            };
            let _ = TwoStep::tree().run(comm, &ctx).await;
        })
        .stats
        .iter()
        .map(|st| st.total_sends())
        .collect::<Vec<_>>();
        let gather_sends: u64 = sends.iter().sum();
        // 4 tree levels of gather + 15 bcast sends.
        assert!(gather_sends <= 4 + 15, "too many sends: {gather_sends}");
    }
}
