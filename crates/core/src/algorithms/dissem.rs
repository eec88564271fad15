//! Extension: dissemination (Bruck-style) all-gather as an s-to-p
//! broadcast.
//!
//! `⌈log₂ p⌉` rounds on any machine size: in round `k`, rank `r` sends
//! its *entire current set* to `(r + 2^k) mod p` and receives from
//! `(r - 2^k) mod p`. After all rounds every rank holds every source's
//! message.
//!
//! This is not one of the paper's algorithms — it is the algorithm a
//! modern MPI would use for `MPI_Allgatherv`, and it is included to
//! answer the one Figure-13a claim our 2-Step-shaped `MPI_AllGather`
//! model cannot reproduce: the convergence of AllGather towards
//! Alltoall as `s → p`. Run `repro dissem` to see that a
//! dissemination-based allgather (especially with zero-copy block
//! placement, [`DissemAllGather::zero_copy`]) converges and even beats
//! Alltoall — evidence that Cray's library simply did not use it.

use mpp_runtime::{CommFuture, RankCtx};

use crate::algorithms::{tags, StpAlgorithm, StpCtx};
use crate::msgset::MessageSet;

/// Dissemination all-gather (extension algorithm).
#[derive(Debug, Clone, Copy)]
pub struct DissemAllGather {
    /// Whether receiving ranks pay the memcpy combining cost. A library
    /// writing blocks directly into a pre-allocated result buffer avoids
    /// it; a generic implementation (like `Br_Lin`'s) pays it.
    pub charge_combining: bool,
}

impl DissemAllGather {
    /// Combining cost charged (comparable to `Br_Lin`).
    pub fn new() -> Self {
        DissemAllGather {
            charge_combining: true,
        }
    }

    /// Zero-copy block placement (the MPI-library ideal).
    pub fn zero_copy() -> Self {
        DissemAllGather {
            charge_combining: false,
        }
    }
}

impl Default for DissemAllGather {
    fn default() -> Self {
        DissemAllGather::new()
    }
}

impl StpAlgorithm for DissemAllGather {
    fn name(&self) -> &'static str {
        if self.charge_combining {
            "DissemAllGather"
        } else {
            "DissemAllGather (zero-copy)"
        }
    }

    fn run<'a>(&'a self, comm: &'a mut RankCtx, ctx: &'a StpCtx<'a>) -> CommFuture<'a, MessageSet> {
        Box::pin(async move {
            let p = comm.size();
            let me = comm.rank();
            let mut set = ctx.initial_set(me);

            // Whether each rank holds anything yet — a pure function of the
            // source set, so both partners agree on whether a message flows
            // without extra synchronization.
            let mut has_any: Vec<bool> = (0..p).map(|r| ctx.is_source(r)).collect();

            let mut step = 1usize;
            let mut tag = tags::DISSEM;
            while step < p {
                let to = (me + step) % p;
                let from = (me + p - step) % p;
                if has_any[me] {
                    comm.send_payload(to, tag, set.to_payload());
                }
                if has_any[from] {
                    let msg = comm.recv(Some(from), Some(tag)).await;
                    if self.charge_combining {
                        comm.charge_memcpy(msg.data.len());
                    }
                    set.merge(&*MessageSet::view(&msg.data).expect("malformed dissemination"));
                }
                // Every rank receives from `step` below it, simultaneously.
                has_any = (0..p)
                    .map(|r| has_any[r] || has_any[(r + p - step) % p])
                    .collect();
                comm.next_iteration();
                step <<= 1;
                tag += 1;
            }
            set
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
    fn power_of_two() {
        assert_delivers(
            &DissemAllGather::new(),
            MeshShape::new(4, 4),
            &[0, 5, 10, 15],
            32,
        );
    }

    #[test]
    fn non_power_of_two() {
        assert_delivers(
            &DissemAllGather::new(),
            MeshShape::new(3, 5),
            &[2, 7, 14],
            32,
        );
        assert_delivers(&DissemAllGather::new(), MeshShape::new(3, 3), &[4], 16);
    }

    #[test]
    fn zero_copy_variant() {
        assert_delivers(
            &DissemAllGather::zero_copy(),
            MeshShape::new(2, 4),
            &[1, 6],
            64,
        );
    }

    #[test]
    fn zero_copy_charges_nothing() {
        let shape = MeshShape::new(4, 4);
        let sources = vec![0usize, 7];
        let copied = simulate_on(shape, async |comm| {
            let payload = sources
                .contains(&comm.rank())
                .then(|| payload_for(comm.rank(), 64));
            let ctx = StpCtx {
                shape,
                sources: &sources,
                payload: payload.as_deref(),
            };
            let _ = DissemAllGather::zero_copy().run(comm, &ctx).await;
        })
        .stats
        .iter()
        .map(|st| st.memcpy_bytes)
        .collect::<Vec<_>>();
        assert!(copied.iter().all(|&b| b == 0));
    }

    #[test]
    fn all_sources() {
        assert_delivers(
            &DissemAllGather::new(),
            MeshShape::new(3, 4),
            &(0..12).collect::<Vec<_>>(),
            8,
        );
    }
}
