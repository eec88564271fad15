//! Baseline collective-communication operations.
//!
//! These are the "existing communication library" routines the paper
//! contrasts its algorithms against (§2): a direct gather, a one-to-all
//! broadcast using the recursive-halving pattern of `Br_Lin`, a
//! personalized all-to-all built from `p` pairwise permutations (the
//! XOR-schedule implementation of Hambrusch/Hameed/Khokhar, reference \[8\]),
//! plus a ring all-gather and a dissemination barrier used by extensions.
//!
//! All operations are written against [`mpp_runtime::Communicator`] and
//! run, timed, on the simulator.

use mpp_runtime::{Communicator, Message, Payload, Tag};

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
    comm: &mut dyn Communicator,
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

/// Direct gather: every rank in `senders` (except the root, if present)
/// sends its payload straight to `root`. This is the paper's 2-Step
/// gather — it deliberately concentrates `O(s)` congestion at the root.
///
/// Every rank in `senders` must pass `Some(payload)`; the root (whether or
/// not it is a sender) receives and returns all messages sorted by source
/// rank, other ranks return an empty vector.
pub async fn gather_direct(
    comm: &mut dyn Communicator,
    root: usize,
    senders: &[usize],
    my_payload: Option<&[u8]>,
    tag: Tag,
) -> Vec<Message> {
    let me = comm.rank();
    let am_sender = senders.contains(&me);
    assert_eq!(
        am_sender,
        my_payload.is_some(),
        "senders and only senders supply a payload"
    );

    if am_sender && me != root {
        comm.send(root, tag, my_payload.unwrap());
    }
    let mut out = Vec::new();
    if me == root {
        if let Some(p) = my_payload {
            out.push(Message {
                src: me,
                tag,
                data: Payload::from_slice(p),
            });
        }
        let expect = senders.iter().filter(|&&s| s != root).count();
        for _ in 0..expect {
            out.push(comm.recv(None, Some(tag)).await);
        }
        out.sort_by_key(|m| m.src);
    }
    out
}

/// Partner of `rank` in round `round` of the personalized-exchange
/// schedule over `p` ranks, as `(send_to, recv_from)`.
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

/// Personalized all-to-all specialized to s-to-p broadcasting: ranks for
/// which `is_source` holds send their payload to every other rank over
/// `p-1` permutation rounds; everyone returns the received messages
/// (their own payload included for sources), sorted by source.
///
/// Non-sources "send null messages" in the paper's phrasing; here a null
/// message is simply skipped, which is what a real implementation does.
pub async fn personalized_from_sources(
    comm: &mut dyn Communicator,
    is_source: &dyn Fn(usize) -> bool,
    my_payload: Option<&[u8]>,
    tag: Tag,
) -> Vec<Message> {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(is_source(me), my_payload.is_some());

    // Convert the payload to a shared rope once; every round's send then
    // shares the same buffer instead of re-copying it.
    let rope = my_payload.map(Payload::from_slice);
    let mut out = Vec::new();
    if let Some(pay) = &rope {
        out.push(Message {
            src: me,
            tag,
            data: pay.clone(),
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

/// Ring all-gather over an ordered participant list: after `n-1` rounds
/// every participant holds every participant's payload, sorted by rank.
/// Used by extension benchmarks as another library-style baseline.
pub async fn allgather_ring(
    comm: &mut dyn Communicator,
    order: &[usize],
    my_payload: &[u8],
    tag: Tag,
) -> Vec<Message> {
    let n = order.len();
    let me = comm.rank();
    let my_pos = order
        .iter()
        .position(|&r| r == me)
        .expect("caller not in allgather order");
    let mine = Payload::from_slice(my_payload);
    if n == 1 {
        return vec![Message {
            src: me,
            tag,
            data: mine,
        }];
    }
    let next = order[(my_pos + 1) % n];
    let prev = order[(my_pos + n - 1) % n];

    let mut out = vec![Message {
        src: me,
        tag,
        data: mine.clone(),
    }];
    // Round k delivers the payload originated by the participant k+1
    // positions behind us; `src` is rewritten from relayer to originator.
    // Each relay forwards the received rope as-is — no byte copies.
    let mut forward = mine;
    for k in 0..n - 1 {
        comm.send_payload(next, tag, forward.clone());
        let got = comm.recv(Some(prev), Some(tag)).await;
        forward = got.data.clone();
        let origin = order[(my_pos + n - 1 - k) % n];
        out.push(Message {
            src: origin,
            tag: got.tag,
            data: got.data,
        });
        comm.next_iteration();
    }
    out.sort_by_key(|m| m.src);
    out
}

/// Dissemination barrier implemented with real messages (an alternative
/// to the kernel's modelled barrier): `⌈log₂ p⌉` rounds; in round `k`
/// rank `r` signals `(r + 2^k) mod p` and waits for `(r - 2^k) mod p`.
pub async fn barrier_dissemination(comm: &mut dyn Communicator, tag: Tag) {
    let p = comm.size();
    let me = comm.rank();
    let mut step = 1usize;
    let mut round: Tag = 0;
    while step < p {
        let to = (me + step) % p;
        let from = (me + p - step) % p;
        comm.send(to, tag + round, &[]);
        comm.recv(Some(from), Some(tag + round)).await;
        step <<= 1;
        round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpp_model::{LibraryKind, Machine};
    use mpp_runtime::{run_simulated, SimComm};

    /// Run `program` on every rank of a `1 × p` Paragon; the per-rank
    /// results.
    pub(crate) fn run_on<R: Send>(
        p: usize,
        program: impl AsyncFn(&mut SimComm) -> R + Sync,
    ) -> Vec<R> {
        run_simulated(&Machine::paragon(1, p), LibraryKind::Nx, program).results
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
    fn gather_collects_sorted() {
        let out = run_on(6, async |comm| {
            let senders = vec![1usize, 4, 5];
            let mine = senders
                .contains(&comm.rank())
                .then(|| vec![comm.rank() as u8]);
            gather_direct(comm, 0, &senders, mine.as_deref(), 7).await
        });
        let at_root = &out[0];
        assert_eq!(at_root.len(), 3);
        assert_eq!(
            at_root.iter().map(|m| m.src).collect::<Vec<_>>(),
            vec![1, 4, 5]
        );
        assert!(out[1].is_empty());
    }

    #[test]
    fn gather_with_root_as_sender() {
        let out = run_on(4, async |comm| {
            let senders = vec![0usize, 2];
            let mine = senders
                .contains(&comm.rank())
                .then(|| vec![comm.rank() as u8 + 10]);
            gather_direct(comm, 0, &senders, mine.as_deref(), 1).await
        });
        let at_root = &out[0];
        assert_eq!(
            at_root.iter().map(|m| m.src).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(at_root[0].data, vec![10]);
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
                let is_src = |r: usize| sources.contains(&r);
                let mine = is_src(comm.rank()).then(|| vec![comm.rank() as u8; 16]);
                personalized_from_sources(comm, &is_src, mine.as_deref(), 50).await
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

    #[test]
    fn allgather_ring_all_payloads() {
        let out = run_on(5, async |comm| {
            let order: Vec<usize> = (0..comm.size()).collect();
            let payload = [comm.rank() as u8; 8];
            allgather_ring(comm, &order, &payload, 3).await
        });
        for msgs in out {
            assert_eq!(msgs.len(), 5);
            for (i, m) in msgs.iter().enumerate() {
                assert_eq!(m.src, i);
                assert_eq!(m.data, vec![i as u8; 8]);
            }
        }
    }

    #[test]
    fn allgather_single_rank() {
        let out = run_on(1, async |comm| allgather_ring(comm, &[0], b"solo", 1).await);
        assert_eq!(out[0][0].data, b"solo");
    }

    #[test]
    fn dissemination_barrier_completes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let out = run_on(7, async |comm| {
            count.fetch_add(1, Ordering::SeqCst);
            barrier_dissemination(comm, 900).await;
            count.load(Ordering::SeqCst)
        });
        assert!(out.iter().all(|&v| v == 7));
    }
}

/// Length-prefixed framing for a list of byte chunks (scatter payloads).
fn frame_chunks(chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + chunks.iter().map(|c| 4 + c.len()).sum::<usize>());
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for c in chunks {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(c);
    }
    out
}

fn unframe_chunks(bytes: &[u8]) -> Vec<Vec<u8>> {
    let count = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(count);
    let mut at = 4;
    for _ in 0..count {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        out.push(bytes[at..at + len].to_vec());
        at += len;
    }
    debug_assert_eq!(at, bytes.len(), "trailing bytes in chunk frame");
    out
}

/// Binomial scatter over an ordered participant list, root at position 0:
/// participant `i` ends with `chunks[i]`. The root provides one chunk per
/// participant; at each recursion step the segment holder forwards the
/// second half's chunks in one combined message, so the root sends
/// `⌈log₂ n⌉` messages instead of `n-1`.
pub async fn scatter_from_first(
    comm: &mut dyn Communicator,
    order: &[usize],
    chunks: Option<Vec<Vec<u8>>>,
    tag_base: Tag,
) -> Vec<u8> {
    let me = comm.rank();
    let my_pos = order
        .iter()
        .position(|&r| r == me)
        .expect("caller not in scatter order");
    assert_eq!(
        my_pos == 0,
        chunks.is_some(),
        "exactly the root provides chunks"
    );
    if let Some(c) = &chunks {
        assert_eq!(c.len(), order.len(), "one chunk per participant");
    }

    // Walk the same segment tree as `bcast_from_first`, but carry only
    // the chunks destined for the current segment.
    let mut mine: Option<Vec<Vec<u8>>> = chunks;
    let mut lo = 0usize;
    let mut hi = order.len();
    let mut depth: Tag = 0;
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        if my_pos == lo {
            let all = mine.as_mut().expect("segment holder must hold chunks");
            // Chunks are indexed relative to the current segment [lo, hi).
            let second_half = all.split_off(mid - lo);
            comm.send(order[mid], tag_base + depth, &frame_chunks(&second_half));
            hi = mid;
        } else if my_pos == mid {
            let msg = comm.recv(Some(order[lo]), Some(tag_base + depth)).await;
            mine = Some(unframe_chunks(&msg.data.contiguous()));
            lo = mid;
        } else if my_pos < mid {
            hi = mid;
        } else {
            lo = mid;
        }
        depth += 1;
        comm.next_iteration();
    }
    let mut v = mine.expect("scatter did not reach this rank");
    debug_assert_eq!(v.len(), 1);
    v.pop().unwrap()
}

/// An associative combining function for reductions.
pub type Combine<'a> = &'a dyn Fn(&[u8], &[u8]) -> Vec<u8>;

/// Binomial-tree reduction to the first participant: combines every
/// participant's contribution with the associative `combine` function.
/// Returns `Some(total)` at the root, `None` elsewhere.
pub async fn reduce_to_first(
    comm: &mut dyn Communicator,
    order: &[usize],
    my_contrib: &[u8],
    combine: Combine<'_>,
    tag_base: Tag,
) -> Option<Vec<u8>> {
    let me = comm.rank();
    let my_pos = order
        .iter()
        .position(|&r| r == me)
        .expect("caller not in reduce order");
    let mut acc = my_contrib.to_vec();

    // Process the segment tree bottom-up: mirror of bcast_from_first.
    // Collect the path of segments containing my_pos (root segment
    // first), then act deepest-first.
    let mut path = Vec::new();
    let (mut lo, mut hi) = (0usize, order.len());
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        path.push((lo, mid, hi));
        if my_pos < mid {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    for (depth, &(lo, mid, _hi)) in path.iter().enumerate().rev() {
        let tag = tag_base + depth as Tag;
        if my_pos == mid {
            comm.send(order[lo], tag, &acc);
            comm.next_iteration();
            return None; // contribution handed up; done
        } else if my_pos == lo {
            let msg = comm.recv(Some(order[mid]), Some(tag)).await;
            acc = combine(&acc, &msg.data.contiguous());
            comm.next_iteration();
        }
    }
    (my_pos == 0).then_some(acc)
}

/// All-reduce: binomial reduction followed by a broadcast of the result.
pub async fn allreduce(
    comm: &mut dyn Communicator,
    order: &[usize],
    my_contrib: &[u8],
    combine: Combine<'_>,
    tag_base: Tag,
) -> Vec<u8> {
    let reduced = reduce_to_first(comm, order, my_contrib, combine, tag_base).await;
    bcast_from_first(comm, order, reduced, tag_base + 64)
        .await
        .to_vec()
}

#[cfg(test)]
mod extended_tests {
    use super::*;
    use crate::tests::run_on;

    fn sum_u64(a: &[u8], b: &[u8]) -> Vec<u8> {
        let x = u64::from_le_bytes(a.try_into().unwrap());
        let y = u64::from_le_bytes(b.try_into().unwrap());
        (x + y).to_le_bytes().to_vec()
    }

    #[test]
    fn scatter_delivers_per_rank_chunks() {
        for p in [1usize, 2, 3, 5, 8, 11] {
            let out = run_on(p, async |comm| {
                let order: Vec<usize> = (0..comm.size()).collect();
                let chunks = (comm.rank() == 0).then(|| {
                    (0..comm.size())
                        .map(|i| vec![i as u8; i + 1])
                        .collect::<Vec<_>>()
                });
                scatter_from_first(comm, &order, chunks, 400).await
            });
            for (rank, chunk) in out.iter().enumerate() {
                assert_eq!(chunk, &vec![rank as u8; rank + 1], "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn scatter_respects_arbitrary_order() {
        let out = run_on(4, async |comm| {
            let order = vec![2usize, 0, 3, 1];
            let chunks = (comm.rank() == 2)
                .then(|| vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
            scatter_from_first(comm, &order, chunks, 0).await
        });
        assert_eq!(out[2], b"a");
        assert_eq!(out[0], b"b");
        assert_eq!(out[3], b"c");
        assert_eq!(out[1], b"d");
    }

    #[test]
    fn reduce_sums_everything_at_root() {
        for p in [1usize, 2, 3, 6, 9, 16] {
            let out = run_on(p, async |comm| {
                let order: Vec<usize> = (0..comm.size()).collect();
                let contrib = (comm.rank() as u64 + 1).to_le_bytes();
                reduce_to_first(comm, &order, &contrib, &sum_u64, 500).await
            });
            let want = (p as u64) * (p as u64 + 1) / 2;
            let at_root = out[0].as_ref().expect("root gets the total");
            assert_eq!(
                u64::from_le_bytes(at_root[..].try_into().unwrap()),
                want,
                "p={p}"
            );
            assert!(out[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn allreduce_agrees_everywhere() {
        let out = run_on(7, async |comm| {
            let order: Vec<usize> = (0..comm.size()).collect();
            let contrib = (comm.rank() as u64).to_le_bytes();
            allreduce(comm, &order, &contrib, &sum_u64, 600).await
        });
        for r in out {
            assert_eq!(u64::from_le_bytes(r[..].try_into().unwrap()), 21);
        }
    }

    #[test]
    fn chunk_framing_roundtrip() {
        let chunks = vec![vec![], vec![1], vec![2, 3, 4]];
        assert_eq!(unframe_chunks(&frame_chunks(&chunks)), chunks);
        assert_eq!(unframe_chunks(&frame_chunks(&[])), Vec::<Vec<u8>>::new());
    }
}
