//! The communicator interface the algorithms are written against.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use mpp_sim::Payload;

use crate::stats::CommStats;
use crate::Tag;

/// Boxed future for algorithm-level suspension points (e.g.
/// `StpAlgorithm::run`), which must stay object-safe.
///
/// The trait's own blocking operations do not return this: they return
/// the concrete [`RecvFut`]/[`RecvTimeoutFut`]/[`BarrierFut`] types
/// below, which wrap the kernel's futures without any heap allocation.
/// Futures never cross threads, so no `Send` bound is required.
pub type CommFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Future returned by [`Communicator::recv`]: the kernel's receive
/// future plus a borrow of the rank's statistics, recorded at resolution
/// (so the virtual wait time is known).
pub struct RecvFut<'a> {
    fut: mpp_sim::RecvFuture<'a>,
    stats: &'a mut CommStats,
}

/// Future returned by [`Communicator::recv_timeout`]; resolves to
/// `None` on deadline expiry.
pub struct RecvTimeoutFut<'a> {
    fut: mpp_sim::RecvTimeoutFuture<'a>,
    stats: &'a mut CommStats,
}

/// Record a delivered envelope in `stats` and turn it into a [`Message`].
fn delivered(stats: &mut CommStats, env: mpp_sim::Envelope) -> Message {
    stats.record_recv(env.data.len(), env.waited_ns);
    Message {
        src: env.src,
        tag: env.tag,
        data: env.data,
    }
}

impl<'a> RecvFut<'a> {
    pub(crate) fn new(fut: mpp_sim::RecvFuture<'a>, stats: &'a mut CommStats) -> Self {
        RecvFut { fut, stats }
    }
}

impl<'a> RecvTimeoutFut<'a> {
    pub(crate) fn new(fut: mpp_sim::RecvTimeoutFuture<'a>, stats: &'a mut CommStats) -> Self {
        RecvTimeoutFut { fut, stats }
    }
}

impl Future for RecvFut<'_> {
    type Output = Message;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Message> {
        // The kernel futures hold only references and plain data, so
        // both halves are `Unpin` and plain projection is fine.
        let this = self.get_mut();
        Pin::new(&mut this.fut)
            .poll(cx)
            .map(|env| delivered(this.stats, env))
    }
}

impl Future for RecvTimeoutFut<'_> {
    type Output = Option<Message>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<Message>> {
        let this = self.get_mut();
        Pin::new(&mut this.fut)
            .poll(cx)
            .map(|env| env.map(|env| delivered(this.stats, env)))
    }
}

/// Future returned by [`Communicator::barrier`].
pub struct BarrierFut<'a>(mpp_sim::BarrierFuture<'a>);

impl<'a> BarrierFut<'a> {
    pub(crate) fn new(fut: mpp_sim::BarrierFuture<'a>) -> Self {
        BarrierFut(fut)
    }
}

impl Future for BarrierFut<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        Pin::new(&mut self.get_mut().0).poll(cx)
    }
}

/// A received message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// Tag it was sent with.
    pub tag: Tag,
    /// Payload (shared-ownership rope; received without copying).
    pub data: Payload,
}

/// Point-to-point message passing as seen by one rank of an algorithm.
///
/// All `stp-core` algorithms and `collectives` operations are written
/// against this trait and run, timed, on the simulator's
/// [`SimComm`](crate::SimComm). It provides:
///
/// * reliable, per-(src → dst, tag) FIFO-by-arrival delivery,
/// * blocking `recv` (an `await` point) with optional source/tag filters,
/// * a barrier across all ranks (also an `await` point),
/// * a way to charge local message-combining cost
///   ([`charge_memcpy`](Communicator::charge_memcpy)),
/// * per-iteration statistics bucketing
///   ([`next_iteration`](Communicator::next_iteration)).
pub trait Communicator {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of participating ranks.
    fn size(&self) -> usize;

    /// Asynchronous send of `data` to `dst` with `tag`. Copies the
    /// bytes once into shared storage; prefer
    /// [`send_payload`](Communicator::send_payload) when the data is
    /// already a [`Payload`].
    fn send(&mut self, dst: usize, tag: Tag, data: &[u8]);

    /// Asynchronous zero-copy send of an already-shared payload: the
    /// rope's segments are moved, never its bytes. Cost models and
    /// statistics treat it exactly like [`send`](Communicator::send) of
    /// the same length.
    fn send_payload(&mut self, dst: usize, tag: Tag, data: Payload);

    /// Vectored multi-port send: issue every `(dst, tag, payload)`
    /// member as one batched transmit. The whole batch pays a *single*
    /// α_send and all members become network-ready simultaneously, so
    /// on a `k`-port machine up to `k` of them occupy distinct injection
    /// slots and their wire times overlap — the primitive the `KPort_*`
    /// algorithm family is built on. Delivery and statistics are per
    /// member.
    fn send_batch(&mut self, msgs: Vec<(usize, Tag, Payload)>);

    /// Independent injection/ejection port slots per node on the machine
    /// this communicator runs on — the `k` a k-ported algorithm stripes
    /// its [`send_batch`](Communicator::send_batch) lanes across.
    fn ports(&self) -> usize;

    /// Blocking receive; `None` filters match anything. Among matching
    /// messages the earliest-arriving is returned.
    fn recv(&mut self, src: Option<usize>, tag: Option<Tag>) -> RecvFut<'_>;

    /// Receive with a deadline: like [`recv`](Communicator::recv), but
    /// gives up and returns `None` once `timeout_ns` of virtual time
    /// elapses with no matching message.
    fn recv_timeout(
        &mut self,
        src: Option<usize>,
        tag: Option<Tag>,
        timeout_ns: u64,
    ) -> RecvTimeoutFut<'_>;

    /// Block until every rank has entered the barrier.
    fn barrier(&mut self) -> BarrierFut<'_>;

    /// Charge the local memory-copy cost of combining `bytes` bytes.
    fn charge_memcpy(&mut self, bytes: usize);

    /// Close the current statistics iteration and start the next. The
    /// merge-based algorithms call this once per communication round so
    /// the paper's per-iteration parameters (congestion, active
    /// processors) can be measured.
    fn next_iteration(&mut self);

    /// Statistics recorded so far for this rank.
    fn stats(&self) -> &CommStats;
}

/// Convenience: receive from a specific source with a specific tag.
pub async fn recv_from(comm: &mut dyn Communicator, src: usize, tag: Tag) -> Message {
    comm.recv(Some(src), Some(tag)).await
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_equality() {
        let a = Message {
            src: 1,
            tag: 2,
            data: vec![3].into(),
        };
        let b = Message {
            src: 1,
            tag: 2,
            data: Payload::from_slice(&[3]),
        };
        assert_eq!(a, b);
    }
}
