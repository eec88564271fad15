//! A recorded run, read in place as a structured communication
//! schedule, plus the two indices every check shares: sequence numbers
//! compacted to array slots and payload contents — the source slots a
//! handle carries — grouped under small ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use mpp_model::Time;
use mpp_runtime::{EventLog, Payload, SendEvent};
use stp_core::msgset::{MessageSet, Slot};
use stp_core::runner::RecordedRun;

/// "No entry" in the `u32` index tables.
pub(crate) const NONE: u32 = u32::MAX;

/// The structured form of one recorded run: the recording's arrays, read
/// in place through `Deref` (`sends`, `xfers`, `recvs`, `blocked`,
/// `drops`, `finishes`, `windows` — nothing is copied), and an index
/// from sequence numbers to array slots.
///
/// The recording decides the slot layout, not the numbers' magnitude:
/// when they fill their range about as densely as the kernel issues them
/// the slot is `seq − min`, else it is the number's rank among the
/// distinct ones (binary search) — so a hand-built schedule numbered
/// from `u64::MAX − 1` costs two slots.
#[derive(Debug)]
pub struct Schedule<'a> {
    log: &'a EventLog,
    /// Number of ranks.
    pub p: usize,
    /// The kernel's virtual makespan (`None` for deadlocked runs and
    /// hand-built schedules).
    pub makespan_ns: Option<Time>,
    /// Whether the run aborted in a deadlock.
    pub deadlocked: bool,
    seq_min: u64,
    /// Sorted distinct sequence numbers; empty in the `seq − min` layout.
    seq_ranked: Vec<u64>,
    /// Per sequence slot: the (last) send carrying that number.
    send_at: Vec<u32>,
}

impl std::ops::Deref for Schedule<'_> {
    type Target = EventLog;

    fn deref(&self) -> &EventLog {
        self.log
    }
}

impl<'a> Schedule<'a> {
    /// View a recorded run on a `p`-rank machine as a schedule.
    pub fn from_recorded(run: &'a RecordedRun, p: usize) -> Schedule<'a> {
        let makespan_ns = run.outcome.as_ref().map(|o| o.makespan_ns);
        Schedule::from_log(&run.events, p, run.deadlocked, makespan_ns)
    }

    /// View an event log (recorded or hand-built) as a schedule.
    pub fn from_log(
        log: &'a EventLog,
        p: usize,
        deadlocked: bool,
        makespan_ns: Option<Time>,
    ) -> Schedule<'a> {
        // Every send's and transfer's number gets a slot.
        let seqs = || {
            let sends = log.sends.iter().map(|s| s.seq);
            sends.chain(log.xfers.iter().map(|x| x.seq))
        };
        let (min, max) = seqs().fold((u64::MAX, 0), |(lo, hi), s| (lo.min(s), hi.max(s)));
        let count = (log.sends.len() + log.xfers.len()) as u64;
        let span = max.saturating_sub(min);
        let mut sched = Schedule {
            log,
            p,
            makespan_ns,
            deadlocked,
            seq_min: min,
            seq_ranked: Vec::new(),
            send_at: Vec::new(),
        };
        let slots = if count == 0 {
            0
        } else if span <= 2 * count + 64 {
            span as usize + 1
        } else {
            sched.seq_ranked = seqs().collect();
            sched.seq_ranked.sort_unstable();
            sched.seq_ranked.dedup();
            sched.seq_ranked.len()
        };
        sched.send_at = vec![NONE; slots];
        for (i, s) in log.sends.iter().enumerate() {
            let slot = sched.seq_slot(s.seq).expect("send seqs are indexed");
            sched.send_at[slot] = i as u32;
        }
        sched
    }

    /// Number of sequence slots.
    pub(crate) fn seq_slots(&self) -> usize {
        self.send_at.len()
    }

    /// The array slot of a sequence number (`None` when no send or
    /// transfer carries it).
    pub(crate) fn seq_slot(&self, seq: u64) -> Option<usize> {
        if !self.seq_ranked.is_empty() {
            return self.seq_ranked.binary_search(&seq).ok();
        }
        let slot = seq.checked_sub(self.seq_min)?;
        (slot < self.send_at.len() as u64).then_some(slot as usize)
    }

    /// Index into `sends` of the send with this sequence number.
    pub(crate) fn send_of(&self, seq: u64) -> Option<usize> {
        let i = self.send_at[self.seq_slot(seq)?];
        (i != NONE).then_some(i as usize)
    }

    /// One flag per sequence slot, set for the slots `seqs` names.
    pub(crate) fn seq_flags(&self, seqs: impl Iterator<Item = u64>) -> Vec<bool> {
        let mut flags = vec![false; self.seq_slots()];
        for slot in seqs.filter_map(|seq| self.seq_slot(seq)) {
            flags[slot] = true;
        }
        flags
    }

    /// Sequence numbers of sends the fault plan lost for good (every
    /// permitted transmission attempt dropped).
    pub fn lost_seqs(&self) -> impl Iterator<Item = u64> + 'a {
        let drops = self.log.drops.iter();
        drops.filter(|d| d.exhausted).map(|d| d.seq)
    }
}

/// Add `bit` to a bit set stored as `u64` words.
pub(crate) fn set_bit(set: &mut [u64], bit: usize) {
    set[bit / 64] |= 1 << (bit % 64);
}

/// Whether a bit set stored as `u64` words holds `bit`.
pub(crate) fn has_bit(set: &[u64], bit: usize) -> bool {
    set[bit / 64] >> (bit % 64) & 1 == 1
}

/// Stable counting sort of item positions by key: `(start, order)` with
/// the items of key `k` at `order[start[k]..start[k + 1]]`, in their
/// original order. Items keyed `None` are left out.
pub(crate) fn grouped(
    keys: impl Iterator<Item = Option<usize>> + Clone,
    buckets: usize,
) -> (Vec<usize>, Vec<u32>) {
    let mut start = vec![0usize; buckets + 1];
    for key in keys.clone().flatten() {
        start[key + 1] += 1;
    }
    for key in 0..buckets {
        start[key + 1] += start[key];
    }
    let mut next = start.clone();
    let mut order = vec![0u32; start[buckets]];
    for (item, key) in keys.enumerate() {
        if let Some(key) = key {
            order[next[key]] = item as u32;
            next[key] += 1;
        }
    }
    (start, order)
}

/// What a send's payload carries, read from its handle: a bare source
/// message's slot, or a message set's slot list. Anything else — bytes
/// built by hand — carries no slot and is opaque.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Carried<'a> {
    /// A [`source_message`](stp_core::msgset::source_message) handle.
    Bare(&'a Slot),
    /// A [`MessageSet::to_payload`] handle.
    Set(&'a MessageSet),
}

impl<'a> Carried<'a> {
    /// What `payload` carries; `None` when it carries no slot.
    pub(crate) fn of(payload: &'a Payload) -> Option<Carried<'a>> {
        match payload.value::<Slot>() {
            Some(slot) => Some(Carried::Bare(slot)),
            None => payload.value::<MessageSet>().map(Carried::Set),
        }
    }

    /// The slots carried, ascending by source.
    pub(crate) fn slots(self) -> &'a [Slot] {
        match self {
            Carried::Bare(slot) => std::slice::from_ref(slot),
            Carried::Set(set) => set.slots(),
        }
    }
}

/// Send payloads grouped by what they carry: two sends get the same id
/// exactly when both are bare messages of one slot or both are sets of
/// one slot list. A send of a handle met before takes its id by the
/// handle's address; sets that share a list are found by the list's
/// address next; the integers decide the rest. A send whose payload
/// carries no slot gets `u32::MAX`.
pub struct ContentIds {
    /// Id of each send's content, by send index (`u32::MAX` when
    /// opaque).
    pub of_send: Vec<u32>,
    distinct: usize,
}

impl ContentIds {
    /// Group the payloads of `sends`; ids count up in first-seen order.
    pub fn new(sends: &[SendEvent]) -> ContentIds {
        let mut by_handle: FastMap<usize, u32> = FastMap::default();
        let mut by_list: FastMap<usize, u32> = FastMap::default();
        let mut by_slots: FastMap<(bool, &[Slot]), u32> = FastMap::default();
        let mut of_send = Vec::with_capacity(sends.len());
        for send in sends {
            let Some(carried) = Carried::of(&send.data) else {
                of_send.push(NONE);
                continue;
            };
            let handle = match carried {
                Carried::Bare(slot) => slot as *const Slot as usize,
                Carried::Set(set) => set as *const MessageSet as usize,
            };
            let next = by_slots.len() as u32;
            let id = *by_handle.entry(handle).or_insert_with(|| match carried {
                Carried::Bare(_) => *by_slots.entry((true, carried.slots())).or_insert(next),
                Carried::Set(set) => *by_list
                    .entry(set.list_id())
                    .or_insert_with(|| *by_slots.entry((false, set.slots())).or_insert(next)),
            });
            of_send.push(id);
        }
        ContentIds {
            of_send,
            distinct: by_slots.len(),
        }
    }

    /// Number of distinct contents.
    pub fn distinct(&self) -> usize {
        self.distinct
    }
}

/// A hash map keyed by addresses and small integers: a multiply-fold
/// hash instead of SipHash, whose flood resistance keys made by this
/// process do not need.
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// The sources of one s-to-p instance, for attributing what a payload
/// carries to them: bit `i` stands for `sources[i]`, whose message is
/// `slots[i]`.
pub(crate) struct SourceBits<'a> {
    slots: &'a [Slot],
    /// Bit of each source rank, by rank ([`NONE`] for a non-source).
    bit_of: Vec<u32>,
}

impl<'a> SourceBits<'a> {
    /// `slots` is the oracle: one slot per source, in the order of the
    /// source list.
    pub(crate) fn new(slots: &'a [Slot]) -> SourceBits<'a> {
        let ranks = slots.iter().map(|slot| slot.src as usize + 1).max();
        let mut bit_of = vec![NONE; ranks.unwrap_or(0)];
        for (bit, slot) in slots.iter().enumerate() {
            bit_of[slot.src as usize] = bit as u32;
        }
        SourceBits { slots, bit_of }
    }

    /// Set the bit of every source whose message `payload` carries.
    /// `false` means it could not be attributed — it carries no slot,
    /// or a slot that is not a source's message (another rank, another
    /// length) — and leak checking is skipped rather than guessed at.
    pub(crate) fn attribute(&self, payload: &Payload, out: &mut [u64]) -> bool {
        let Some(carried) = Carried::of(payload) else {
            return false;
        };
        for slot in carried.slots() {
            match self.bit_of.get(slot.src as usize) {
                Some(&bit) if bit != NONE && self.slots[bit as usize] == *slot => {
                    set_bit(out, bit as usize)
                }
                _ => return false,
            }
        }
        true
    }
}

/// The oracle's slots of `sources`: each source's message, generated
/// once for its length.
pub(crate) fn source_slots(sources: &[usize], payload_of: &dyn Fn(usize) -> Vec<u8>) -> Vec<Slot> {
    let slot = |&s: &usize| Slot::new(s, payload_of(s).len());
    sources.iter().map(slot).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use stp_core::msgset::{payload_for, source_message};

    /// A send with only the fields the indices look at.
    pub(crate) fn send(
        seq: u64,
        src: usize,
        dst: usize,
        tag: u32,
        data: impl Into<Payload>,
    ) -> SendEvent {
        SendEvent {
            step: 0,
            seq,
            src,
            dst,
            tag,
            data: data.into(),
            issue_ns: 0,
        }
    }

    /// The sources `payload` attributes to among `sources`, each with a
    /// `len`-byte message; `None` when opaque.
    fn attribute(sources: &[usize], len: usize, payload: &Payload) -> Option<Vec<usize>> {
        let slots = source_slots(sources, &|src| payload_for(src, len));
        let mut bits = vec![0u64; sources.len().div_ceil(64)];
        let known = SourceBits::new(&slots).attribute(payload, &mut bits);
        let mut ranks: Vec<usize> = (0..sources.len())
            .filter(|&bit| has_bit(&bits, bit))
            .map(|bit| sources[bit])
            .collect();
        ranks.sort_unstable();
        known.then_some(ranks)
    }

    #[test]
    fn attributes_a_bare_message_by_its_slot_and_bytes_not_at_all() {
        assert_eq!(
            attribute(&[2, 5], 64, &source_message(5, 64)),
            Some(vec![5])
        );
        // Another length, a rank that is no source, the bytes themselves.
        assert_eq!(attribute(&[2, 5], 64, &source_message(5, 63)), None);
        assert_eq!(attribute(&[2, 5], 64, &source_message(4, 64)), None);
        let bytes = Payload::from_slice(&payload_for(5, 64));
        assert_eq!(attribute(&[2, 5], 64, &bytes), None);
    }

    #[test]
    fn attributes_message_set_slots() {
        let set = |slots: &[(usize, usize)]| -> Payload {
            let set: MessageSet = slots.iter().map(|&(s, len)| Slot::new(s, len)).collect();
            set.to_payload()
        };
        assert_eq!(
            attribute(&[3, 1], 32, &set(&[(1, 32), (3, 32)])),
            Some(vec![1, 3])
        );
        assert_eq!(attribute(&[3, 1], 32, &set(&[])), Some(vec![]));
        assert_eq!(attribute(&[3, 1], 32, &set(&[(1, 32), (3, 31)])), None);
        assert_eq!(attribute(&[3, 1], 32, &set(&[(1, 32), (7, 32)])), None);
        // Zero-length messages are told apart by their sources.
        assert_eq!(attribute(&[0, 1], 0, &set(&[(1, 0)])), Some(vec![1]));
        assert_eq!(attribute(&[0, 1], 0, &source_message(0, 0)), Some(vec![0]));
    }

    #[test]
    fn seq_slots_follow_the_recording_not_the_numbers() {
        let view = |seqs: &[u64]| {
            let mut log = EventLog::default();
            for &seq in seqs {
                log.sends.push(send(seq, 0, 1, 0, b"x"));
            }
            let sched = Schedule::from_log(&log, 2, false, None);
            let slots: Vec<Option<usize>> = seqs.iter().map(|&s| sched.seq_slot(s)).collect();
            let sends: Vec<Option<usize>> = seqs.iter().map(|&s| sched.send_of(s)).collect();
            (sched.seq_slots(), slots, sends, sched.seq_slot(7))
        };
        // Dense: slot = seq − min, holes included.
        let (n, slots, sends, seven) = view(&[5, 6, 8]);
        assert_eq!((n, seven), (4, Some(2)));
        assert_eq!(slots, [Some(0), Some(1), Some(3)]);
        assert_eq!(sends, [Some(0), Some(1), Some(2)]);
        // Scattered: slot = rank among the distinct numbers; the last
        // send with a number owns it.
        let (n, slots, sends, seven) = view(&[u64::MAX, 0, 1 << 40, 0]);
        assert_eq!((n, seven), (3, None));
        assert_eq!(slots, [Some(2), Some(0), Some(1), Some(0)]);
        assert_eq!(sends, [Some(0), Some(3), Some(2), Some(3)]);
        assert_eq!(view(&[]).0, 0);
    }

    /// Handles group by the slots they carry: snapshots whose sets
    /// share one list (two snapshots of one unchanged set, and one of a
    /// set that adopted it) get one id, and so does an equal set built
    /// separately, through its integers; a set one slot short gets its
    /// own id, a bare message is not the one-slot set of its slot, and
    /// bytes carry no slot.
    #[test]
    fn handles_group_by_the_slots_they_carry() {
        let build = |n: usize| -> MessageSet { (0..n).map(|src| Slot::new(src, 40)).collect() };
        let set = build(5);
        let mut adopted = MessageSet::new();
        adopted.merge(&set);
        let handles = [
            set.to_payload(),
            set.to_payload(),
            adopted.to_payload(),
            build(5).to_payload(),
            build(4).to_payload(),
            source_message(0, 40),
            build(1).to_payload(),
            source_message(0, 40),
            Payload::from_slice(&set.to_bytes()),
        ];
        let sends: Vec<SendEvent> = handles
            .into_iter()
            .enumerate()
            .map(|(seq, data)| SendEvent {
                data,
                ..send(seq as u64, 0, 1, 0, b"")
            })
            .collect();
        let ids = ContentIds::new(&sends);
        assert_eq!(ids.of_send, [0, 0, 0, 0, 1, 2, 3, 2, NONE]);
        assert_eq!(ids.distinct(), 4);
    }
}
