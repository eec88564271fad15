//! The straightforward versions of the mechanisms the analyzer computes
//! with dense tables, kept as references for the differential tests:
//! payloads keyed by their bytes in a `HashMap`, source sets as
//! `BTreeSet`s, one attribution per receive.

use std::collections::{BTreeSet, HashMap};

use stp_core::msgset::MessageSet;

use crate::checks::{CheckOutput, Finding, FindingKind};
use crate::schedule::Schedule;

/// Content ids in first-seen order, keyed by the flattened bytes.
pub(crate) fn payload_ids(sched: &Schedule) -> Vec<u32> {
    let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
    sched
        .sends
        .iter()
        .map(|send| {
            let next = ids.len() as u32;
            *ids.entry(send.data.to_vec()).or_insert(next)
        })
        .collect()
}

/// The sources a payload carries, `None` when it cannot be attributed.
fn attribute(
    by_bytes: &HashMap<Vec<u8>, usize>,
    sources: &BTreeSet<usize>,
    data: &[u8],
) -> Option<BTreeSet<usize>> {
    if let Some(&src) = by_bytes.get(data) {
        return Some(BTreeSet::from([src]));
    }
    let mut out = BTreeSet::new();
    for (key, payload) in MessageSet::from_bytes(data)?.into_entries() {
        let bytes = payload.to_vec();
        if let Some(&src) = by_bytes.get(&bytes) {
            out.insert(src);
        } else if bytes.is_empty() && sources.contains(&(key as usize)) {
            out.insert(key as usize);
        } else {
            return None;
        }
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
    let mut by_bytes = HashMap::new();
    for &s in sources {
        if by_bytes.insert(payload_of(s), s).is_some() {
            out.opaque_payloads = true;
            return out;
        }
    }
    let send_by_seq: HashMap<u64, usize> = sched
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
        match attribute(&by_bytes, &all, &sched.sends[i].data.to_vec()) {
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
