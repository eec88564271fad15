//! Regression coverage for the zero-copy message path.
//!
//! Two layers of accounting guard the optimisation:
//!
//! * per-rank [`CommStats::bytes_copied`] / [`CommStats::allocs`] count
//!   host-side payload copies made by the communication layer — the
//!   legacy `send(&[u8])` path pays one per send, `send_payload` pays
//!   none;
//! * the process-global [`sim::copy_metrics`] counters count every real
//!   byte copy inside `Payload` itself, so a whole experiment can be
//!   audited against the virtual traffic it generated.
//!
//! The global counters are process-wide atomics and the tests in this
//! binary run concurrently, so every test serialises on one lock.

use std::sync::Mutex;

use stp_broadcast::prelude::*;
use stp_broadcast::sim::{self, Payload};

static COPY_METRICS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COPY_METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn legacy_flat_send_records_copies() {
    let _g = lock();
    let machine = Machine::paragon(1, 2);
    let out = simulate(&machine, |mut comm| async move {
        if comm.rank() == 0 {
            comm.send(1, 7, &[0xAB; 4096]);
        } else {
            assert_eq!(comm.recv(Some(0), Some(7)).await.data.len(), 4096);
        }
    });
    assert!(
        out.stats[0].bytes_copied >= 4096,
        "flat send must be charged a payload copy"
    );
    assert!(
        out.stats[0].allocs >= 1,
        "flat send must be charged a buffer allocation"
    );
}

#[test]
fn rope_send_records_no_copies() {
    let _g = lock();
    let machine = Machine::paragon(1, 2);
    let out = simulate(&machine, |mut comm| async move {
        if comm.rank() == 0 {
            // One upfront copy to build the rope; the eight sends then
            // share it by reference.
            let payload = Payload::from_slice(&[0xCD; 4096]);
            for tag in 0..8u32 {
                comm.send_payload(1, tag, payload.clone());
            }
        } else {
            for tag in 0..8u32 {
                assert_eq!(comm.recv(Some(0), Some(tag)).await.data.len(), 4096);
            }
        }
    });
    assert_eq!(out.stats[0].bytes_copied, 0, "send_payload must not copy");
    assert_eq!(out.stats[0].allocs, 0, "send_payload must not allocate");
}

#[test]
fn converted_algorithms_send_zero_copy() {
    let _g = lock();
    let machine = Machine::paragon(8, 8);
    for kind in [AlgoKind::TwoStep, AlgoKind::PersAlltoAll, AlgoKind::BrLin] {
        let exp = Experiment {
            machine: &machine,
            dist: SourceDist::Equal,
            s: 16,
            msg_len: 2048,
            kind,
        };
        let out = exp.run().expect("run failed");
        assert!(out.verified, "{} failed verification", kind.name());
        let copied: u64 = out.stats.iter().map(|s| s.bytes_copied).sum();
        let moved: u64 = out.stats.iter().map(|s| s.total_bytes()).sum();
        assert!(moved > 0, "{} moved no bytes?", kind.name());
        assert_eq!(
            copied,
            0,
            "{} paid {copied} comm-layer copy bytes ({moved} bytes of traffic)",
            kind.name()
        );
    }
}

#[test]
fn rope_path_copies_small_fraction_of_traffic() {
    let _g = lock();
    let machine = Machine::paragon(8, 8);
    let exp = Experiment {
        machine: &machine,
        dist: SourceDist::Equal,
        s: 16,
        msg_len: 4096,
        kind: AlgoKind::BrLin,
    };
    let before = sim::copy_metrics();
    let out = exp.run().expect("run failed");
    let delta = sim::copy_metrics().since(&before);
    assert!(out.verified);
    let moved: u64 = out.stats.iter().map(|s| s.total_bytes()).sum();
    // Combining in Br_Lin forwards snapshots of growing message sets;
    // with flat buffers every hop would re-copy the full set, so the
    // physical copy volume would be >= the virtual traffic. The rope
    // path pays only payload construction + framing headers.
    assert!(
        delta.bytes_copied < moved / 4,
        "rope path copied {} of {} traffic bytes — zero-copy regression",
        delta.bytes_copied,
        moved
    );
}

/// A message set travels by handle and a source message as its slot:
/// no send encodes either, no receive parses one, and no source message
/// is copied into payload storage, so a run copies no byte at all. A
/// send that built the wire format would copy at least its 4-byte
/// count, and a source message put in the arena its L bytes.
#[test]
fn product_sends_copy_only_the_source_messages() {
    let _g = lock();
    let one_port = Machine::paragon(4, 4);
    let mut five_ports = Machine::paragon(4, 4);
    five_ports.params = five_ports.params.clone().with_ports(5);
    let (s, len) = (4, 64);
    for (machine, kind) in [
        (&one_port, AlgoKind::BrLin),
        (&one_port, AlgoKind::BrXySource),
        (&five_ports, AlgoKind::KPortLin),
        (&one_port, AlgoKind::DissemAllGather),
        (&one_port, AlgoKind::TwoStep),
        (&one_port, AlgoKind::PartLin),
    ] {
        let exp = Experiment {
            machine,
            dist: SourceDist::Equal,
            s,
            msg_len: len,
            kind,
        };
        exp.run().expect("warm-up run failed");
        let before = sim::copy_metrics();
        let out = exp.run().expect("run failed");
        let copied = sim::copy_metrics().since(&before).bytes_copied;
        assert!(out.verified, "{} failed verification", kind.name());
        assert_eq!(copied, 0, "{} copied {copied} bytes", kind.name());
    }
}
