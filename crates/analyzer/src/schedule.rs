//! A recorded run, read in place as a structured communication
//! schedule, plus the two indices every check shares: sequence numbers
//! compacted to array slots and payload contents interned to small ids.

use mpp_model::Time;
use mpp_runtime::{EventLog, Payload, SendEvent};
use stp_core::msgset::MessageSet;
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

/// Payload contents interned to small ids: two payloads get the same id
/// exactly when they are byte-equal. A cheap fingerprint of the whole
/// content picks the table bucket; equality is always decided by the
/// bytes ([`Payload`]'s `==`, a `memcmp` per overlapping chunk run) —
/// never by the fingerprint, the length or the address of the backing
/// storage as a key, since equal bytes routinely live in different
/// arena chunks and forwarded ropes re-slice shared ones. A run whose
/// two sides start at one address is trivially byte-equal, so `==`
/// skips reading it; that decides nothing the bytes would not.
pub struct PayloadIds<'a> {
    /// Id → the first payload seen with that content.
    firsts: Vec<&'a Payload>,
    prints: Vec<u64>,
    /// Open-addressing table of ids, a power of two in size.
    table: Vec<u32>,
    /// Id of each send's payload, by send index.
    pub of_send: Vec<u32>,
    /// Ids below this belong to the reference source payloads.
    sources: usize,
    /// Two reference payloads were byte-equal: content cannot name a
    /// source.
    ambiguous: bool,
}

impl<'a> PayloadIds<'a> {
    /// Intern the reference payload of every source (ids `0..`, in
    /// order) and then every send's payload.
    pub fn new(sources: &'a [Payload], sends: &'a [SendEvent]) -> PayloadIds<'a> {
        let capacity = ((sources.len() + sends.len()) * 2).next_power_of_two();
        let mut ids = PayloadIds {
            firsts: Vec::new(),
            prints: Vec::new(),
            table: vec![NONE; capacity.max(16)],
            of_send: Vec::with_capacity(sends.len()),
            sources: sources.len(),
            ambiguous: false,
        };
        for (i, payload) in sources.iter().enumerate() {
            ids.ambiguous |= ids.intern(payload) as usize != i;
        }
        for send in sends {
            let id = ids.intern(&send.data);
            ids.of_send.push(id);
        }
        ids
    }

    /// Number of distinct contents.
    pub fn distinct(&self) -> usize {
        self.firsts.len()
    }

    /// The id of `payload`'s content, if some interned payload has it.
    pub fn find(&self, payload: &Payload) -> Option<u32> {
        let id = self.table[self.probe(payload, fingerprint(payload))];
        (id != NONE).then_some(id)
    }

    fn intern(&mut self, payload: &'a Payload) -> u32 {
        let print = fingerprint(payload);
        let at = self.probe(payload, print);
        if self.table[at] == NONE {
            self.table[at] = self.firsts.len() as u32;
            self.firsts.push(payload);
            self.prints.push(print);
        }
        self.table[at]
    }

    /// The table position holding `payload`'s id, or the empty one where
    /// it belongs (the table is at most half full, so one exists).
    fn probe(&self, payload: &Payload, print: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut at = print as usize & mask;
        loop {
            let id = self.table[at];
            if id == NONE
                || (self.prints[id as usize] == print && self.firsts[id as usize] == payload)
            {
                return at;
            }
            at = (at + 1) & mask;
        }
    }
}

/// A multiply-rotate hash of the whole content, independent of how the
/// rope is segmented (bytes straddling a chunk boundary are carried
/// into the next word).
fn fingerprint(payload: &Payload) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut h = mix(K, payload.len() as u64);
    let (mut carry, mut filled) = ([0u8; 8], 0usize);
    for mut chunk in payload.chunks() {
        if filled > 0 {
            let take = chunk.len().min(8 - filled);
            carry[filled..filled + take].copy_from_slice(&chunk[..take]);
            filled += take;
            chunk = &chunk[take..];
            if filled < 8 {
                continue;
            }
            h = mix(h, u64::from_le_bytes(carry));
        }
        let mut words = chunk.chunks_exact(8);
        for word in &mut words {
            h = mix(
                h,
                u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
            );
        }
        let rest = words.remainder();
        carry[..rest.len()].copy_from_slice(rest);
        filled = rest.len();
    }
    if filled > 0 {
        carry[filled..].fill(0);
        h = mix(h, u64::from_le_bytes(carry));
    }
    h ^ (h >> 32)
}

impl PayloadIds<'_> {
    /// Whether content can name a source at all: two sources with
    /// identical bytes (e.g. zero-length payloads) would make it a guess.
    pub fn sources_distinct(&self) -> bool {
        !self.ambiguous
    }

    /// Trace `payload` back to the sources whose messages it carries,
    /// setting bit `i` of `out` for `sources[i]` (the list whose
    /// reference payloads were interned). `false` means it could not be
    /// attributed — not a source message and not a parseable
    /// [`MessageSet`] of them — and leak checking is skipped rather than
    /// guessed at.
    ///
    /// Attribution is by *content* first: the exact bytes of a source's
    /// message identify it regardless of how `MessageSet` keys were
    /// relabelled in transit — the repositioning algorithms deliberately
    /// re-key messages to their *target* ranks while the bytes still
    /// belong to the original source. Wire-encoded sets are recursed
    /// into per entry; an empty entry (a zero-length source message)
    /// falls back to its key when that is a real source.
    pub fn attribute(&self, sources: &[usize], payload: &Payload, out: &mut [u64]) -> bool {
        let source = |content: &Payload| {
            self.find(content)
                .filter(|&id| (id as usize) < self.sources)
        };
        let mut set = |bit: usize| set_bit(out, bit);
        if self.ambiguous {
            return false;
        }
        if let Some(id) = source(payload) {
            set(id as usize);
            return true;
        }
        let Some(entries) = MessageSet::from_payload(payload) else {
            return false;
        };
        for (key, entry) in entries.into_entries() {
            let by_content = source(&entry).map(|id| id as usize);
            let by_key = || sources.iter().position(|&s| s == key as usize);
            match by_content.or_else(|| entry.is_empty().then(by_key).flatten()) {
                Some(bit) => set(bit),
                None => return false,
            }
        }
        true
    }
}

/// The reference payloads of `sources`, wrapped without touching the
/// payload arena or its copy counters.
pub(crate) fn source_payloads(
    sources: &[usize],
    payload_of: &dyn Fn(usize) -> Vec<u8>,
) -> Vec<Payload> {
    let wrap = |&s: &usize| Payload::from_arc(payload_of(s).into());
    sources.iter().map(wrap).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use stp_core::msgset::payload_for;

    /// A send with only the fields the indices look at.
    pub(crate) fn send(seq: u64, src: usize, dst: usize, tag: u32, data: &[u8]) -> SendEvent {
        SendEvent {
            step: 0,
            seq,
            src,
            dst,
            tag,
            data: Payload::from_slice(data),
            issue_ns: 0,
        }
    }

    /// The sources a payload attributes to, `None` when opaque.
    fn attribute(sources: &[usize], len: usize, data: &[u8]) -> Option<Vec<usize>> {
        let refs = source_payloads(sources, &|src| payload_for(src, len));
        let ids = PayloadIds::new(&refs, &[]);
        let mut bits = vec![0u64; sources.len().div_ceil(64)];
        let known = ids.attribute(sources, &Payload::from_slice(data), &mut bits);
        let mut ranks: Vec<usize> = (0..sources.len())
            .filter(|&bit| has_bit(&bits, bit))
            .map(|bit| sources[bit])
            .collect();
        ranks.sort_unstable();
        known.then_some(ranks)
    }

    #[test]
    fn attributes_raw_source_bytes() {
        assert_eq!(attribute(&[2, 5], 64, &payload_for(5, 64)), Some(vec![5]));
        assert_eq!(attribute(&[2, 5], 64, b"garbage"), None);
    }

    #[test]
    fn attributes_message_set_entries_by_content() {
        // Entries re-keyed to arbitrary ranks (what Repos/Part do) must
        // still attribute to the original sources by content.
        let mut set = MessageSet::new();
        set.insert(7, &payload_for(1, 32));
        set.insert(9, &payload_for(3, 32));
        assert_eq!(attribute(&[3, 1], 32, &set.to_bytes()), Some(vec![1, 3]));
    }

    #[test]
    fn unknown_entry_bytes_are_opaque() {
        let mut set = MessageSet::new();
        set.insert(1, b"not the real payload");
        assert_eq!(attribute(&[1], 32, &set.to_bytes()), None);
    }

    #[test]
    fn identical_source_payloads_disable_attribution() {
        assert_eq!(attribute(&[0, 1], 0, &[]), None);
        // One empty source message is still unambiguous, and its
        // header-only entry attributes through the source key.
        assert_eq!(attribute(&[4], 0, &[]), Some(vec![4]));
        let mut set = MessageSet::new();
        set.insert(4, &[]);
        assert_eq!(attribute(&[4], 0, &set.to_bytes()), Some(vec![4]));
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

    /// Equal ids must mean equal bytes — decided by the bytes: a
    /// fingerprint of the ends alone would merge these two.
    #[test]
    fn interning_compares_the_whole_content() {
        let a = vec![7u8; 200];
        let mut b = a.clone();
        b[100] ^= 1;
        let sends = [
            send(1, 0, 1, 0, &a),
            send(2, 0, 1, 0, &b),
            send(3, 0, 1, 0, &a),
        ];
        let ids = PayloadIds::new(&[], &sends);
        assert_eq!(ids.of_send, [0, 1, 0]);
        assert_eq!(ids.distinct(), 2);
        // The same bytes, segmented differently, are the same content.
        let mut rope = Payload::from_slice(&a[..13]);
        rope.append(Payload::from_slice(&a[13..]));
        assert_eq!(ids.find(&rope), Some(0));
        assert_eq!(ids.find(&Payload::from_slice(&a[1..])), None);
    }
}
