//! Baseline collective-communication operations.
//!
//! These are the "existing communication library" routines the paper's
//! baselines are built from (§2): a one-to-all broadcast using the
//! recursive-halving pattern of `Br_Lin` (2-Step's broadcast phase;
//! `NaiveIndependent` walks the same tree), and a personalized
//! all-to-all built from `p` pairwise permutations (the XOR-schedule
//! implementation of Hambrusch/Hameed/Khokhar, reference \[8\], behind
//! `PersAlltoAll`).
//!
//! Both are written against the simulator's [`RankCtx`] and run, timed,
//! on it. The exchange returns the messages it collected as
//! [`Envelope`]s; a rank's own payload is one that arrived when the
//! operation took it.

use mpp_runtime::{Envelope, Payload, RankCtx, Tag};

/// One-to-all broadcast over an ordered participant list, root at
/// position 0.
///
/// Uses the pattern the paper describes for 2-Step's broadcast phase:
/// view the participants as a linear array; the holder sends to the node
/// `⌈n/2⌉` positions away, then both halves recurse. `⌈log₂ n⌉` rounds.
///
/// Every participant must call this; `data` must be `Some` exactly at the
/// root. Returns the broadcast payload on every participant.
///
/// The payload travels as a shared-ownership [`Payload`] rope: each hold
/// point forwards the *same* buffer it received, so an `n`-participant
/// broadcast of `m` bytes copies `m` bytes at most once (when the root
/// hands in a borrowed slice) instead of `⌈log₂ n⌉` times.
///
/// # Panics
/// Panics if the calling rank is not in `order`, or if `data` presence
/// disagrees with the caller's position.
pub async fn bcast_from_first<P: Into<Payload>>(
    comm: &mut RankCtx,
    order: &[usize],
    data: Option<P>,
    tag_base: Tag,
) -> Payload {
    let me = comm.rank();
    let my_pos = order
        .iter()
        .position(|&r| r == me)
        .expect("caller not in bcast order");
    assert_eq!(
        my_pos == 0,
        data.is_some(),
        "exactly the root provides data"
    );

    let mut payload: Option<Payload> = data.map(Into::into);
    let mut lo = 0usize;
    let mut hi = order.len();
    let mut depth: Tag = 0;
    // Walk down the recursion tree along the segment containing `my_pos`.
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        if my_pos == lo {
            // Holder of this segment forwards to the second half. Cloning
            // a rope shares the underlying buffers — no byte copies.
            let buf = payload.clone().expect("segment holder must hold data");
            comm.send_payload(order[mid], tag_base + depth, buf);
            comm.next_iteration();
            hi = mid;
        } else if my_pos == mid {
            let msg = comm.recv(Some(order[lo]), Some(tag_base + depth)).await;
            payload = Some(msg.data);
            comm.next_iteration();
            lo = mid;
        } else if my_pos < mid {
            comm.next_iteration();
            hi = mid;
        } else {
            comm.next_iteration();
            lo = mid;
        }
        depth += 1;
    }
    payload.expect("broadcast did not reach this rank")
}

/// Partner of `rank` in round `round` of the personalized-exchange
/// schedule over `p` ranks, as `(send to, receive from)`.
///
/// For power-of-two `p` this is the XOR schedule of reference \[8\]
/// (`rank ^ round`, self-inverse); otherwise a cyclic-shift schedule where
/// in round `i` rank `r` sends to `(r + i) mod p` and receives from
/// `(r - i) mod p`. Rounds run `1..p`; each round is a permutation, so
/// link load stays balanced.
pub fn exchange_partner(p: usize, round: usize, rank: usize) -> (usize, usize) {
    debug_assert!(round >= 1 && round < p && rank < p);
    if p.is_power_of_two() {
        let partner = rank ^ round;
        (partner, partner)
    } else {
        ((rank + round) % p, (rank + p - round) % p)
    }
}

/// Personalized all-to-all specialized to s-to-p broadcasting: the ranks
/// in `sources` (ascending) send their payload to every other rank over
/// `p-1` permutation rounds; everyone returns the received messages
/// (their own payload included for sources), sorted by source, in a
/// list allocated once for `sources.len()`.
///
/// Non-sources "send null messages" in the paper's phrasing; here a null
/// message is simply skipped, which is what a real implementation does.
pub async fn personalized_from_sources(
    comm: &mut RankCtx,
    sources: &[usize],
    my_payload: Option<&[u8]>,
    tag: Tag,
) -> Vec<Envelope> {
    let p = comm.size();
    let me = comm.rank();
    let is_source = |rank| sources.binary_search(&rank).is_ok();
    assert_eq!(is_source(me), my_payload.is_some());

    // Convert the payload to a shared rope once; every round's send then
    // shares the same buffer instead of re-copying it.
    let rope = my_payload.map(Payload::from_slice);
    let mut out = Vec::with_capacity(sources.len());
    if let Some(pay) = &rope {
        // The source's own payload, as an envelope that arrived now.
        out.push(Envelope {
            src: me,
            tag,
            data: pay.clone(),
            arrival: comm.clock(),
            waited_ns: 0,
        });
    }
    for round in 1..p {
        let (to, from) = exchange_partner(p, round, me);
        if let Some(pay) = &rope {
            comm.send_payload(to, tag, pay.clone());
        }
        if is_source(from) {
            out.push(comm.recv(Some(from), Some(tag)).await);
        }
        comm.next_iteration();
    }
    out.sort_by_key(|m| m.src);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::Machine;
    use mpp_runtime::simulate;

    /// Run `program` on every rank of a `1 × p` Paragon; the per-rank
    /// results.
    fn run_on<R>(p: usize, program: impl AsyncFn(&mut RankCtx) -> R) -> Vec<R> {
        let program = &program;
        simulate(&Machine::paragon(1, p), move |mut ctx| async move {
            program(&mut ctx).await
        })
        .results
    }

    #[test]
    fn bcast_reaches_everyone() {
        for p in [1usize, 2, 3, 5, 8, 13, 16] {
            let out = run_on(p, async |comm| {
                let order: Vec<usize> = (0..comm.size()).collect();
                let data = (comm.rank() == 0).then(|| b"payload".to_vec());
                bcast_from_first(comm, &order, data, 100).await
            });
            for r in out {
                assert_eq!(r, b"payload");
            }
        }
    }

    #[test]
    fn bcast_respects_arbitrary_order() {
        let out = run_on(6, async |comm| {
            let order = vec![3usize, 1, 4, 0, 5, 2];
            let data = (comm.rank() == 3).then(|| vec![9u8; 32]);
            bcast_from_first(comm, &order, data, 0).await
        });
        for r in out {
            assert_eq!(r, vec![9u8; 32]);
        }
    }

    #[test]
    fn exchange_schedule_is_permutation_every_round() {
        for p in [4usize, 7, 8, 10, 16] {
            for round in 1..p {
                let mut hit = vec![false; p];
                for rank in 0..p {
                    let (to, _) = exchange_partner(p, round, rank);
                    assert!(!hit[to], "p={p} round={round}: {to} targeted twice");
                    hit[to] = true;
                    assert_ne!(to, rank, "p={p} round={round}: self-partner");
                }
            }
        }
    }

    #[test]
    fn exchange_send_recv_partners_agree() {
        // If rank a sends to b in round i, then b must expect to receive
        // from a in round i.
        for p in [5usize, 8, 12] {
            for round in 1..p {
                for rank in 0..p {
                    let (to, _) = exchange_partner(p, round, rank);
                    let (_, from_of_to) = exchange_partner(p, round, to);
                    assert_eq!(from_of_to, rank, "p={p} round={round} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn personalized_delivers_all_source_payloads() {
        for p in [4usize, 6, 8] {
            let out = run_on(p, async |comm| {
                let sources = [0usize, 2, 3];
                let mine = sources
                    .contains(&comm.rank())
                    .then(|| vec![comm.rank() as u8; 16]);
                personalized_from_sources(comm, &sources, mine.as_deref(), 50).await
            });
            for msgs in out {
                assert_eq!(
                    msgs.iter().map(|m| m.src).collect::<Vec<_>>(),
                    vec![0, 2, 3]
                );
                for m in msgs {
                    assert_eq!(m.data, vec![m.src as u8; 16]);
                }
            }
        }
    }
}
