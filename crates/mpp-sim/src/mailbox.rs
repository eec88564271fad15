//! Hybrid per-rank mailbox.
//!
//! Every probe answers one question: among the undelivered messages
//! matching a `(src, tag)` filter, which has the smallest
//! `(arrival, seq)`? That selection rule is the seed kernel's linear
//! scan, and it fixes every virtual time downstream, so both
//! representations below keep it exactly (the proptest at the bottom
//! holds them against that scan, across the spill).
//!
//! * **Small** (almost every rank of every paper algorithm holds a
//!   handful of messages): a `Vec` kept sorted by `(arrival, seq)`. The
//!   earliest match is the *first* matching element; probes are short
//!   scans with no pointer chasing, inserts a binary search plus a
//!   memmove.
//! * **Deep** (fan-in past [`SPILL_AT`]: the roots of a gather, every
//!   rank of an all-to-all that posts all its rounds at once): one slab
//!   of records threaded into one list per source rank, each list in
//!   `(arrival, seq)` order. Spilling is one-way. A message costs one
//!   slab slot and two link writes on the way in and the same on the
//!   way out; vacated slots go on a free list through the slab, so a
//!   mailbox that has reached its working depth never allocates again.
//!   An exact-source probe walks that source's list to the first tag
//!   match — the head, in every all-to-all of the matrix, where a
//!   source has one message in flight per destination. A
//!   wildcard-source probe takes the minimum of those first matches
//!   over the sources' lists (`2-Step`'s gather: p heads). What the
//!   structure does not index is the tag: a probe costs the messages
//!   of the probed source(s) that *precede* the match, which is the
//!   seed scan's cost only when a rank hoards one source's messages
//!   under many tags and asks for the last.

use mpp_model::Time;

use crate::payload::Payload;
use crate::Tag;

/// An undelivered message held by the kernel.
pub(crate) struct MsgRec {
    pub arrival: Time,
    pub seq: u64,
    pub src: usize,
    pub tag: Tag,
    pub data: Payload,
}

impl MsgRec {
    #[inline]
    fn key(&self) -> Key {
        (self.arrival, self.seq)
    }

    #[inline]
    fn matches(&self, src: Option<usize>, tag: Option<Tag>) -> bool {
        !(src.is_some_and(|s| s != self.src) || tag.is_some_and(|t| t != self.tag))
    }
}

type Key = (Time, u64); // (arrival, seq) — the deterministic delivery order

/// Queue depth at which a mailbox spills from the sorted-`Vec` to the
/// slab form. Spilling is one-way: a rank that has proven it
/// accumulates deep backlogs keeps the deep form for the run.
const SPILL_AT: usize = 32;

pub(crate) enum Mailbox {
    Small(Vec<MsgRec>),
    Deep(Box<Deep>),
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox::Small(Vec::new())
    }
}

impl Mailbox {
    pub fn len(&self) -> usize {
        match self {
            Mailbox::Small(v) => v.len(),
            Mailbox::Deep(deep) => deep.len,
        }
    }

    /// True once the mailbox has crossed [`SPILL_AT`].
    pub fn spilled(&self) -> bool {
        matches!(self, Mailbox::Deep(_))
    }

    pub fn insert(&mut self, rec: MsgRec) {
        match self {
            Mailbox::Small(v) => {
                if v.len() == SPILL_AT {
                    let mut deep = Box::new(Deep {
                        slots: Vec::with_capacity(2 * SPILL_AT),
                        lists: Vec::new(),
                        free: NIL,
                        len: 0,
                    });
                    for r in v.drain(..) {
                        deep.insert(r);
                    }
                    deep.insert(rec);
                    *self = Mailbox::Deep(deep);
                    return;
                }
                let key = rec.key();
                let at = v.partition_point(|m| m.key() < key);
                v.insert(at, rec);
            }
            Mailbox::Deep(deep) => deep.insert(rec),
        }
    }

    /// Earliest `(arrival, seq)` among messages matching the filter,
    /// without removing it.
    pub fn peek_match(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Key> {
        match self {
            // Sorted by key, so the first match is the minimum.
            Mailbox::Small(v) => v.iter().find(|m| m.matches(src, tag)).map(MsgRec::key),
            Mailbox::Deep(deep) => deep.find(src, tag).map(|at| deep.key(at.slot)),
        }
    }

    /// Number of undelivered messages with exactly this `(src, tag)`.
    ///
    /// This is the match-ambiguity probe shared by the kernel's strict
    /// runtime checks and the `stp-analyzer` schedule checker: a count
    /// `> 1` at match time means several in-flight messages were
    /// distinguishable only by queue order.
    pub fn count_src_tag(&self, src: usize, tag: Tag) -> usize {
        match self {
            Mailbox::Small(v) => v.iter().filter(|m| m.src == src && m.tag == tag).count(),
            Mailbox::Deep(deep) => deep
                .list(src)
                .filter(|&at| deep.slots[at].rec.tag == tag)
                .count(),
        }
    }

    /// Remove and return the earliest matching message.
    pub fn take_match(&mut self, src: Option<usize>, tag: Option<Tag>) -> Option<MsgRec> {
        match self {
            Mailbox::Small(v) => {
                let at = v.iter().position(|m| m.matches(src, tag))?;
                Some(v.remove(at))
            }
            Mailbox::Deep(deep) => deep.find(src, tag).map(|at| deep.unlink(at)),
        }
    }
}

/// "No slot": the end of a list, an empty list, an exhausted free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a held message or, its payload taken, a link of the
/// free list.
struct Slot {
    rec: MsgRec,
    next: u32,
}

/// Head and tail of one source's list.
#[derive(Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

/// Where a probe found its message: enough to unlink it without a
/// second walk.
struct Found {
    prev: u32,
    slot: usize,
}

/// The slab representation (see module docs).
pub(crate) struct Deep {
    slots: Vec<Slot>,
    /// Per source rank, grown to the highest source seen.
    lists: Vec<Ends>,
    free: u32,
    len: usize,
}

impl Deep {
    fn key(&self, slot: usize) -> Key {
        self.slots[slot].rec.key()
    }

    /// Slots of `src`'s list, in `(arrival, seq)` order.
    fn list(&self, src: usize) -> impl Iterator<Item = usize> + '_ {
        let head = self.lists.get(src).map_or(NIL, |ends| ends.head);
        std::iter::successors((head != NIL).then_some(head as usize), |&at| {
            let next = self.slots[at].next;
            (next != NIL).then_some(next as usize)
        })
    }

    fn insert(&mut self, rec: MsgRec) {
        let (src, key) = (rec.src, rec.key());
        if src >= self.lists.len() {
            let empty = Ends {
                head: NIL,
                tail: NIL,
            };
            self.lists.resize(src + 1, empty);
        }
        let ends = self.lists[src];
        // Messages of one source almost always arrive in order, so the
        // predecessor is the tail; otherwise it is the last slot of the
        // list still ordered before the newcomer.
        let prev = if ends.tail != NIL && self.key(ends.tail as usize) < key {
            ends.tail
        } else {
            let before = self.list(src).take_while(|&at| self.key(at) < key);
            before.last().map_or(NIL, |at| at as u32)
        };
        let next = match prev {
            NIL => ends.head,
            prev => self.slots[prev as usize].next,
        };
        let slot = Slot { rec, next };
        let at = match self.free {
            NIL => {
                assert!(self.slots.len() < NIL as usize, "mailbox slab full");
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            at => {
                self.free = std::mem::replace(&mut self.slots[at as usize], slot).next;
                at
            }
        };
        match prev {
            NIL => self.lists[src].head = at,
            prev => self.slots[prev as usize].next = at,
        }
        if next == NIL {
            self.lists[src].tail = at;
        }
        self.len += 1;
    }

    /// First message of `src`'s list carrying `tag` — the earliest one,
    /// the list being in key order.
    fn first_from(&self, src: usize, tag: Option<Tag>) -> Option<Found> {
        let mut prev = NIL;
        for slot in self.list(src) {
            if tag.is_none_or(|t| t == self.slots[slot].rec.tag) {
                return Some(Found { prev, slot });
            }
            prev = slot as u32;
        }
        None
    }

    /// The earliest message matching the filter.
    fn find(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Found> {
        match src {
            Some(src) => self.first_from(src, tag),
            None => (0..self.lists.len())
                .filter_map(|src| self.first_from(src, tag))
                .min_by_key(|at| self.key(at.slot)),
        }
    }

    /// Take the found message off its list and put its slot on the free
    /// list.
    fn unlink(&mut self, at: Found) -> MsgRec {
        let slot = &mut self.slots[at.slot];
        let rec = MsgRec {
            data: std::mem::take(&mut slot.rec.data),
            ..slot.rec
        };
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = at.slot as u32;
        match at.prev {
            NIL => self.lists[rec.src].head = next,
            prev => self.slots[prev as usize].next = next,
        }
        if next == NIL {
            self.lists[rec.src].tail = at.prev;
        }
        self.len -= 1;
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(arrival: Time, seq: u64, src: usize, tag: Tag) -> MsgRec {
        MsgRec {
            arrival,
            seq,
            src,
            tag,
            data: Payload::new(),
        }
    }

    /// The seed kernel's mailbox: a flat list scanned linearly per probe.
    /// Kept as the reference model for the equivalence proptest below.
    #[derive(Default)]
    struct LinearScanMailbox {
        msgs: Vec<MsgRec>,
    }

    impl LinearScanMailbox {
        fn insert(&mut self, rec: MsgRec) {
            self.msgs.push(rec);
        }

        fn best(&self, src: Option<usize>, tag: Option<Tag>) -> Option<usize> {
            let mut best: Option<usize> = None;
            for (i, m) in self.msgs.iter().enumerate() {
                if src.is_some_and(|s| s != m.src) || tag.is_some_and(|t| t != m.tag) {
                    continue;
                }
                if best
                    .is_none_or(|b| (m.arrival, m.seq) < (self.msgs[b].arrival, self.msgs[b].seq))
                {
                    best = Some(i);
                }
            }
            best
        }

        fn peek_match(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Key> {
            self.best(src, tag)
                .map(|i| (self.msgs[i].arrival, self.msgs[i].seq))
        }

        fn take_match(&mut self, src: Option<usize>, tag: Option<Tag>) -> Option<MsgRec> {
            self.best(src, tag).map(|i| self.msgs.swap_remove(i))
        }
    }

    /// The hybrid mailbox and the reference, fed the same operations and
    /// compared after every take.
    #[derive(Default)]
    struct Pair {
        hybrid: Mailbox,
        reference: LinearScanMailbox,
        seq: u64,
    }

    type Case = Result<(), proptest::test_runner::TestCaseError>;

    impl Pair {
        /// `seq` stays unique and rising like the kernel's global
        /// counter; `arrival` is free, so one source's messages land out
        /// of order.
        fn insert(&mut self, arrival: Time, src: usize, tag: Tag) {
            self.seq += 1;
            self.hybrid.insert(rec(arrival, self.seq, src, tag));
            self.reference.insert(rec(arrival, self.seq, src, tag));
        }

        fn take(&mut self, src: Option<usize>, tag: Option<Tag>) -> Case {
            proptest::prop_assert_eq!(
                self.hybrid.peek_match(src, tag),
                self.reference.peek_match(src, tag)
            );
            let a = self.hybrid.take_match(src, tag);
            let b = self.reference.take_match(src, tag);
            proptest::prop_assert_eq!(
                a.as_ref().map(|m| (m.arrival, m.seq, m.src, m.tag)),
                b.as_ref().map(|m| (m.arrival, m.seq, m.src, m.tag))
            );
            proptest::prop_assert_eq!(self.hybrid.len(), self.reference.msgs.len());
            if let Some(m) = a {
                // What `process_recv` asks next: the duplicates left behind.
                let left = self.reference.msgs.iter();
                proptest::prop_assert_eq!(
                    self.hybrid.count_src_tag(m.src, m.tag),
                    left.filter(|r| r.src == m.src && r.tag == m.tag).count()
                );
            }
            Ok(())
        }

        /// Mixed inserts (five in eight) and filtered takes.
        fn run(&mut self, ops: &[Op]) -> Case {
            for &(kind, src, tag, arrival, wild) in ops {
                if kind < 5 {
                    self.insert(arrival, src, tag);
                } else {
                    self.take(
                        (wild & 1 == 0).then_some(src),
                        (wild & 2 == 0).then_some(tag),
                    )?;
                }
            }
            Ok(())
        }

        /// Empty both through the full wildcard, message by message.
        fn drain(&mut self) -> Case {
            while self.hybrid.len() > 0 {
                self.take(None, None)?;
            }
            proptest::prop_assert!(self.reference.msgs.is_empty());
            Ok(())
        }
    }

    type Op = (u8, usize, u32, u64, u8); // (kind, src, tag, arrival, wildcard bits)

    fn ops(len: std::ops::Range<usize>) -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..8, 0usize..48, 0u32..3, 0u64..12, 0u8..4), len)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The hybrid mailbox delivers in exactly the seed's linear-scan
        /// order under randomized interleavings of inserts and filtered
        /// takes — duplicate `(src, tag)` posts, duplicate arrival times
        /// (the ambiguity case the analyzer flags), 48 sources whose
        /// messages arrive out of order, in three acts: from empty
        /// through the spill; every filter shape on a mailbox filled
        /// well past it; and again after a full drain, on recycled slots.
        #[test]
        fn matches_linear_scan(
            from_empty in ops(1..120),
            fill in ops(2 * SPILL_AT..4 * SPILL_AT),
            deep in ops(1..200),
            reused in ops(1..200),
        ) {
            let mut pair = Pair::default();
            pair.run(&from_empty)?;
            for &(_, src, tag, arrival, _) in &fill {
                pair.insert(arrival, src, tag);
            }
            proptest::prop_assert!(pair.hybrid.spilled());
            pair.run(&deep)?;
            pair.drain()?;
            pair.run(&reused)?;
            pair.drain()?;
        }
    }

    /// A mailbox at its working depth runs on recycled slots: 10 000
    /// messages through a 64-deep backlog, not one heap allocation.
    #[test]
    fn warmed_deep_mailbox_allocates_nothing() {
        let mut mb = Mailbox::default();
        let post = |mb: &mut Mailbox, i: u64| mb.insert(rec(i, i, (i % 40) as usize, 7));
        for i in 0..64 {
            post(&mut mb, i);
        }
        assert!(mb.spilled());
        post(&mut mb, 64); // the high-water mark: 65 slots
        let before = crate::counting_alloc::allocs();
        for i in 65..10_065u64 {
            // By source and tag, then by wildcard: the oldest both ways.
            let filter = (i % 2 == 0).then_some(((i - 65) % 40) as usize);
            let got = mb.take_match(filter, filter.map(|_| 7)).unwrap();
            assert_eq!(got.seq, i - 65);
            post(&mut mb, i);
        }
        assert_eq!(crate::counting_alloc::allocs() - before, 0);
        assert_eq!(mb.len(), 65);
    }

    #[test]
    fn selection_matches_linear_scan_rule() {
        let mut mb = Mailbox::default();
        // Insert out of arrival order; same arrival → lower seq wins.
        mb.insert(rec(50, 3, 1, 7));
        mb.insert(rec(10, 5, 2, 7));
        mb.insert(rec(10, 4, 1, 8));
        mb.insert(rec(99, 1, 3, 9));

        assert_eq!(mb.peek_match(None, None), Some((10, 4)));
        assert_eq!(mb.peek_match(None, Some(7)), Some((10, 5)));
        assert_eq!(mb.peek_match(Some(1), None), Some((10, 4)));
        assert_eq!(mb.peek_match(Some(1), Some(7)), Some((50, 3)));
        assert_eq!(mb.peek_match(Some(9), None), None);
        assert_eq!(mb.peek_match(None, Some(42)), None);

        let first = mb.take_match(None, None).unwrap();
        assert_eq!((first.arrival, first.seq), (10, 4));
        // Wildcard now falls through to the next earliest.
        assert_eq!(mb.peek_match(None, None), Some((10, 5)));
        assert_eq!(mb.len(), 3);
    }

    #[test]
    fn count_src_tag_tracks_duplicates() {
        let mut mb = Mailbox::default();
        mb.insert(rec(10, 1, 0, 7));
        mb.insert(rec(20, 2, 0, 7));
        mb.insert(rec(30, 3, 1, 7));
        assert_eq!(mb.count_src_tag(0, 7), 2);
        assert_eq!(mb.count_src_tag(1, 7), 1);
        assert_eq!(mb.count_src_tag(2, 7), 0);
        mb.take_match(Some(0), Some(7)).unwrap();
        assert_eq!(mb.count_src_tag(0, 7), 1);
    }

    #[test]
    fn lists_stay_consistent_through_churn() {
        let mut mb = Mailbox::default();
        for i in 0..100u64 {
            mb.insert(rec(1000 - i, i, (i % 7) as usize, (i % 3) as u32));
        }
        assert!(mb.spilled(), "100 inserts must spill to the deep form");
        let mut last = 0;
        let mut taken = 0;
        while let Some(r) = mb.take_match(None, None) {
            assert!(r.arrival >= last, "wildcard drain must be arrival-ordered");
            last = r.arrival;
            taken += 1;
        }
        assert_eq!(taken, 100);
        assert_eq!(mb.len(), 0);
        assert_eq!(mb.peek_match(Some(0), Some(0)), None);
    }

    #[test]
    fn behavior_is_continuous_across_the_spill() {
        let mut mb = Mailbox::default();
        for i in 0..SPILL_AT as u64 {
            mb.insert(rec(100 + i, i, (i % 3) as usize, 7));
        }
        assert!(!mb.spilled());
        assert_eq!(mb.peek_match(Some(1), Some(7)), Some((101, 1)));
        // The insert that crosses the threshold spills...
        mb.insert(rec(10, 999, 2, 8));
        assert!(mb.spilled());
        // ...and the spilled mailbox answers exactly as before.
        assert_eq!(mb.len(), SPILL_AT + 1);
        assert_eq!(mb.peek_match(None, None), Some((10, 999)));
        assert_eq!(mb.peek_match(Some(1), Some(7)), Some((101, 1)));
        assert_eq!(mb.count_src_tag(2, 7), 10);
        let got = mb.take_match(None, Some(8)).unwrap();
        assert_eq!((got.arrival, got.seq), (10, 999));
    }
}
