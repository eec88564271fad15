//! The baseline the paper rejects (§2): every source initiates its own
//! independent one-to-all broadcast "without interaction and
//! coordination", never combining messages.
//!
//! "Such a solution seems attractive for dynamic broadcasting situations
//! since it does not require synchronization before the broadcasting.
//! However, having the s broadcasting processes take place without
//! interaction and coordination leads to poor performance due to arising
//! congestion and the large number of messages in the system."
//!
//! Each source's broadcast uses the recursive-halving tree rooted at the
//! source (the tree of `bcast_from_first` over a rotated rank order, so
//! different sources load different links). Every processor therefore
//! forwards up to `⌈log₂ p⌉` messages *per source* and receives exactly
//! one message per source — `O(s·log p)` operations per processor versus
//! `O(log p)` for the merge algorithms. `repro naive` measures where the
//! coordination-free approach actually loses on each machine.

use mpp_runtime::{CommFuture, Payload, RankCtx, Tag};

use crate::algorithms::{slot_of, tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// The uncoordinated independent-broadcasts baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveIndependent;

impl StpAlgorithm for NaiveIndependent {
    fn name(&self) -> &'static str {
        "NaiveIndependent"
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let p = comm.size();
            let me = comm.rank();
            // One slot per source tree, in source order: a plain list
            // of s, made a set once at the end.
            let mut slots = Vec::with_capacity(ctx.s());

            // For each source, everyone participates in that source's
            // broadcast tree: ranks are rotated so the source sits at
            // position 0. The trees execute without any cross-source
            // coordination — a rank simply walks each tree's segment path,
            // receiving and forwarding.
            //
            // To keep the simulation honest about *lack* of coordination,
            // sends for all trees are issued as soon as the data for that
            // tree is available (recv order across trees is unconstrained at
            // a rank: it processes trees in source order, which matches a
            // single-threaded handler draining its queue).
            for (idx, &src) in ctx.sources.iter().enumerate() {
                let tag = tags::NAIVE + idx as Tag;
                let my_pos = (me + p - src) % p; // position in the rotated order
                let rank_at = |pos: usize| (pos + src) % p;

                let mut payload: Option<Payload> = if me == src {
                    Some(ctx.payload.expect("source must hold a payload").clone())
                } else {
                    None
                };
                let mut lo = 0usize;
                let mut hi = p;
                while hi - lo > 1 {
                    let mid = lo + (hi - lo).div_ceil(2);
                    if my_pos == lo {
                        // Forward the shared handle — a reference count per hop.
                        let buf = payload.clone().expect("tree holder must have data");
                        comm.send_payload(rank_at(mid), tag, buf);
                        hi = mid;
                    } else if my_pos == mid {
                        let m = comm.recv(Some(rank_at(lo)), Some(tag)).await;
                        payload = Some(m.data);
                        lo = mid;
                    } else if my_pos < mid {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                let message = payload.expect("broadcast tree did not reach this rank");
                slots.push(slot_of(&message));
            }
            comm.next_iteration();
            slots.into_iter().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::MeshShape;

    use crate::algorithms::tests::{assert_delivers, simulate_on};
    use crate::msgset::source_message;

    #[test]
    fn basic() {
        assert_delivers(&NaiveIndependent, MeshShape::new(4, 4), &[0, 5, 10], 32);
    }

    #[test]
    fn non_power_of_two() {
        assert_delivers(&NaiveIndependent, MeshShape::new(3, 5), &[2, 7, 14], 16);
    }

    #[test]
    fn single_source_is_just_a_broadcast() {
        assert_delivers(&NaiveIndependent, MeshShape::new(2, 4), &[3], 64);
    }

    #[test]
    fn all_sources() {
        assert_delivers(
            &NaiveIndependent,
            MeshShape::new(3, 3),
            &(0..9).collect::<Vec<_>>(),
            8,
        );
    }

    #[test]
    fn operation_count_scales_with_s() {
        // The defining inefficiency: per-processor operations grow with
        // s (each tree handled separately), unlike the merge algorithms.
        let shape = MeshShape::new(4, 4);
        let ops_for = |s: usize| {
            let sources: Vec<usize> = (0..s).collect();
            let ops = simulate_on(shape, async |comm| {
                let payload = sources
                    .contains(&comm.rank())
                    .then(|| source_message(comm.rank(), 16));
                let ctx = StpCtx {
                    shape,
                    sources: &sources,
                    payload: payload.as_ref(),
                };
                let _ = NaiveIndependent.run(comm, &ctx).await;
            })
            .stats
            .iter()
            .map(|st| st.total_ops())
            .collect::<Vec<_>>();
            ops.iter().max().copied().unwrap()
        };
        let few = ops_for(2);
        let many = ops_for(12);
        assert!(many > 4 * few, "ops must scale with s: {few} -> {many}");
    }
}
