//! A wire encode and parse of a message set copies its header, never
//! its payload bytes.
//!
//! The payload copy counters are process-wide, and any test building a
//! payload on another thread moves them. This lives in its own
//! integration-test binary, as its only test, so nothing runs beside it
//! while it reads them.

use stp_core::msgset::{payload_for, MessageSet};

#[test]
fn rope_encode_copies_only_the_header() {
    let mut s = MessageSet::new();
    for src in 0..16usize {
        s.insert(src, &payload_for(src, 1024));
    }
    let before = mpp_sim::copy_metrics();
    let rope = s.to_payload();
    let parsed = MessageSet::from_payload(&rope).unwrap();
    let delta = mpp_sim::copy_metrics().since(&before);
    assert_eq!(parsed, s);
    // Encode writes the 4+8·16 header; parse reads it in place (or,
    // from a rope whose first chunk does not hold it, copies it out
    // once). Payload bytes (16 KiB) never move.
    assert!(
        delta.bytes_copied < 2 * (4 + 16 * 8) as u64 + 64,
        "encode+parse copied {} bytes",
        delta.bytes_copied
    );
}
