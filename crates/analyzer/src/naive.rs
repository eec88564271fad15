//! The straightforward versions of the mechanisms the analyzer computes
//! with dense tables, kept as references for the differential tests:
//! contents keyed by their slot lists in a `BTreeMap`, source sets as
//! `BTreeSet`s, one attribution per receive.

use std::collections::{BTreeMap, BTreeSet};

use mpp_runtime::Payload;
use stp_core::msgset::{MessageSet, Slot};

use crate::checks::{CheckOutput, Finding, FindingKind};
use crate::schedule::{Schedule, NONE};

/// What a payload carries, owned: whether it is a bare source message,
/// and its slots; `None` when it carries no slot.
fn carried(payload: &Payload) -> Option<(bool, Vec<Slot>)> {
    if let Some(&slot) = payload.value::<Slot>() {
        return Some((true, vec![slot]));
    }
    let set = payload.value::<MessageSet>()?;
    Some((false, set.slots().to_vec()))
}

/// Content ids in first-seen order, keyed by what the payload carries
/// (`NONE` when it carries no slot).
pub(crate) fn payload_ids(sched: &Schedule) -> Vec<u32> {
    let mut ids: BTreeMap<(bool, Vec<Slot>), u32> = BTreeMap::new();
    sched
        .sends
        .iter()
        .map(|send| match carried(&send.data) {
            Some(key) => {
                let next = ids.len() as u32;
                *ids.entry(key).or_insert(next)
            }
            None => NONE,
        })
        .collect()
}

/// The sources a payload carries, `None` when it cannot be attributed.
fn attribute(oracle: &BTreeSet<Slot>, payload: &Payload) -> Option<BTreeSet<usize>> {
    let (_, slots) = carried(payload)?;
    let mut out = BTreeSet::new();
    for slot in slots {
        if !oracle.contains(&slot) {
            return None;
        }
        out.insert(slot.src as usize);
    }
    Some(out)
}

/// The payload-leak check, attributing every received payload afresh.
pub(crate) fn payload_leak(
    sched: &Schedule,
    sources: &[usize],
    payload_of: &dyn Fn(usize) -> Vec<u8>,
) -> CheckOutput {
    let mut out = CheckOutput::default();
    if sched.deadlocked {
        return out;
    }
    let oracle: BTreeSet<Slot> = sources
        .iter()
        .map(|&s| Slot::new(s, payload_of(s).len()))
        .collect();
    let send_by_seq: BTreeMap<u64, usize> = sched
        .sends
        .iter()
        .enumerate()
        .map(|(i, s)| (s.seq, i))
        .collect();
    let all: BTreeSet<usize> = sources.iter().copied().collect();
    let mut knowledge: Vec<BTreeSet<usize>> = (0..sched.p)
        .map(|r| all.iter().copied().filter(|&s| s == r).collect())
        .collect();
    for recv in &sched.recvs {
        let Some(&i) = send_by_seq.get(&recv.seq) else {
            continue;
        };
        match attribute(&oracle, &sched.sends[i].data) {
            Some(set) => knowledge[recv.rank].extend(set),
            None => {
                out.opaque_payloads = true;
                return out;
            }
        }
    }
    for (rank, known) in knowledge.iter().enumerate() {
        if !all.is_subset(known) {
            let missing: Vec<String> = all.difference(known).map(|s| s.to_string()).collect();
            out.findings.push(Finding::new(
                FindingKind::PayloadLeak,
                Some(rank),
                format!(
                    "rank {rank} never received the message(s) of source(s) {} \
                     ({} of {} sources reached it)",
                    missing.join(", "),
                    known.len(),
                    all.len()
                ),
            ));
        }
    }
    out
}
