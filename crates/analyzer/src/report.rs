//! Machine-readable lint reports (hand-rolled JSON — the build is
//! offline, so no serde).

use stp_core::checkpoint::json_escape;

use crate::lint::{FixtureVerdict, LintEntry};

fn finding_json(f: &crate::Finding) -> String {
    let rank = f.rank.map_or("null".to_string(), |r| r.to_string());
    let at_ns = f.at_ns.map_or("null".to_string(), |t| t.to_string());
    let seq = f.seq.map_or("null".to_string(), |q| q.to_string());
    format!(
        "{{\"kind\":\"{}\",\"severity\":\"{}\",\"rank\":{rank},\"at_ns\":{at_ns},\
         \"seq\":{seq},\"detail\":\"{}\"}}",
        f.kind.name(),
        f.kind.severity().name(),
        json_escape(&f.detail)
    )
}

/// Encode one lint entry as a JSON object — one line of the lint report
/// and the body of a serve `"lint":true` reply.
pub fn entry_to_json(e: &LintEntry) -> String {
    let findings: Vec<String> = e.findings.iter().map(finding_json).collect();
    format!(
        "{{\"algo\":\"{}\",\"dist\":\"{}\",\"rows\":{},\"cols\":{},\"s\":{},\
         \"sends\":{},\"recvs\":{},\"max_link_load\":{},\"deadlocked\":{},\
         \"opaque_payloads\":{},\"dropped_attempts\":{},\"findings\":[{}]}}",
        json_escape(&e.algo),
        json_escape(&e.dist),
        e.rows,
        e.cols,
        e.s,
        e.sends,
        e.recvs,
        e.max_link_load,
        e.deadlocked,
        e.opaque_payloads,
        e.dropped_attempts,
        findings.join(",")
    )
}

/// Encode the lint matrix results as a JSON array.
pub fn entries_to_json(entries: &[LintEntry]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&entry_to_json(e));
        out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

/// Encode a supervised lint sweep: the completed entries plus the
/// quarantined failures and skipped points. Deliberately carries **no
/// wall-clock**, so a re-run reproduces the report byte for byte (CI
/// pins its digest).
pub fn supervised_report_json(sweep: &crate::lint::SupervisedLint) -> String {
    format!(
        "{{{},\"entries\":{}}}",
        sweep.summary_json(),
        entries_to_json(&sweep.done)
    )
}

/// Encode the fixture verdicts as a JSON array.
pub fn fixtures_to_json(verdicts: &[FixtureVerdict]) -> String {
    let mut out = String::from("[\n");
    for (i, v) in verdicts.iter().enumerate() {
        let detected: Vec<String> = v
            .detected
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect();
        out.push_str(&format!(
            "  {{\"fixture\":\"{}\",\"expected\":\"{}\",\"detected\":[{}],\"pass\":{}}}",
            json_escape(v.name),
            v.expected.name(),
            detected.join(","),
            v.pass
        ));
        out.push_str(if i + 1 == verdicts.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, FindingKind};

    #[test]
    fn entries_encode_round() {
        let entries = vec![LintEntry {
            algo: "Br_Lin".into(),
            dist: "E".into(),
            rows: 4,
            cols: 4,
            s: 5,
            sends: 10,
            recvs: 10,
            max_link_load: 3,
            deadlocked: false,
            opaque_payloads: false,
            dropped_attempts: 2,
            findings: vec![Finding {
                kind: FindingKind::PayloadLeak,
                rank: Some(2),
                detail: "missing \"x\"".into(),
                at_ns: Some(1_500),
                seq: Some(7),
            }],
        }];
        let json = entries_to_json(&entries);
        assert!(json.contains("\"algo\":\"Br_Lin\""));
        assert!(json.contains("\"dropped_attempts\":2"));
        assert!(json.contains("\"kind\":\"payload_leak\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"at_ns\":1500"));
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn empty_reports_are_valid() {
        assert_eq!(entries_to_json(&[]), "[\n]");
        assert_eq!(fixtures_to_json(&[]), "[\n]");
    }
}
