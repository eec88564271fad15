//! A message set travels by handle: taking a snapshot and reading it
//! back copies no byte, and reading the handle's bytes builds its wire
//! encoding once.
//!
//! The payload copy counters are process-wide, and any test building a
//! payload on another thread moves them. This lives in its own
//! integration-test binary, as its only test, so nothing runs beside it
//! while it reads them.

use stp_core::msgset::{payload_for, MessageSet};

#[test]
fn handle_snapshot_and_read_back_copy_nothing() {
    let mut s = MessageSet::new();
    for src in 0..16usize {
        s.insert(src, &payload_for(src, 1024));
    }
    let copied_by = |f: &dyn Fn()| {
        let before = mpp_sim::copy_metrics();
        f();
        mpp_sim::copy_metrics().since(&before).bytes_copied
    };
    let handle = s.to_payload();
    let snapshot_and_back = copied_by(&|| {
        let handle = s.to_payload();
        assert_eq!(MessageSet::from_payload(&handle).as_ref(), Some(&s));
    });
    assert_eq!(snapshot_and_back, 0, "no header, no payload byte");
    // The first read of the bytes encodes the set into payload storage
    // (one copy of the wire) and copies it out; a second read reuses the
    // encoding.
    let wire = s.wire_bytes() as u64;
    assert_eq!(
        copied_by(&|| assert_eq!(handle.to_vec(), s.to_bytes())),
        2 * wire
    );
    assert_eq!(
        copied_by(&|| assert_eq!(handle.to_vec(), s.to_bytes())),
        wire
    );
}
