//! The committed lint baseline: accepted Warn/Info findings.
//!
//! Some performance lints fire *by design* on the paper's weaker
//! baselines (`Br_Lin` really is a serialization hotspot — that is the
//! paper's thesis). The baseline file records those accepted findings so
//! `stp lint --perf` stays green until a change introduces a *new*
//! smell. Error-severity findings can never be baselined: a deadlock or
//! a cost-model divergence fails the gate regardless.
//!
//! Keys are `<kind>@<algo>/<dist>/<RxC>/s<N>` — stable across sweeps
//! and worker counts. The file format is a single sorted JSON object:
//!
//! ```json
//! { "suppress": [
//!   "serialization_hotspot@Br_Lin/E/4x4/s4",
//!   ...
//! ] }
//! ```

use std::collections::BTreeSet;

use crate::checks::{Finding, Severity};
use crate::lint::LintEntry;
use stp_core::checkpoint::json_escape;

/// A set of accepted finding keys.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Accepted `<kind>@<point>` keys.
    pub suppress: BTreeSet<String>,
}

/// The baseline key of one finding at one grid point.
pub fn finding_key(entry: &LintEntry, f: &Finding) -> String {
    format!(
        "{}@{}/{}/{}x{}/s{}",
        f.kind.name(),
        entry.algo,
        entry.dist,
        entry.rows,
        entry.cols,
        entry.s
    )
}

impl Baseline {
    /// Parse the committed file format.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        use stp_core::checkpoint::{parse_json, JsonValue};
        let v = parse_json(text)?;
        let list = v
            .get("suppress")
            .and_then(JsonValue::as_array)
            .ok_or("baseline missing \"suppress\" array")?;
        let mut suppress = BTreeSet::new();
        for item in list {
            let key = item
                .as_str()
                .ok_or("baseline \"suppress\" entries must be strings")?;
            suppress.insert(key.to_string());
        }
        Ok(Baseline { suppress })
    }

    /// Capture every suppressible (Warn/Info) finding of a sweep as the
    /// new baseline — `stp lint --write-baseline`.
    pub fn from_entries(entries: &[LintEntry]) -> Baseline {
        let mut suppress = BTreeSet::new();
        for e in entries {
            for f in &e.findings {
                if f.severity() != Severity::Error {
                    suppress.insert(finding_key(e, f));
                }
            }
        }
        Baseline { suppress }
    }

    /// True when the finding is accepted by this baseline. Errors are
    /// never suppressed, even if their key is present.
    pub fn suppresses(&self, entry: &LintEntry, f: &Finding) -> bool {
        f.severity() != Severity::Error && self.suppress.contains(&finding_key(entry, f))
    }

    /// The committed file format (sorted, one key per line).
    pub fn to_json(&self) -> String {
        if self.suppress.is_empty() {
            return "{ \"suppress\": [] }\n".to_string();
        }
        let keys: Vec<String> = self
            .suppress
            .iter()
            .map(|k| format!("  \"{}\"", json_escape(k)))
            .collect();
        format!("{{ \"suppress\": [\n{}\n] }}\n", keys.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::FindingKind;

    fn entry_with(findings: Vec<Finding>) -> LintEntry {
        LintEntry {
            algo: "Br_Lin".into(),
            dist: "E".into(),
            rows: 4,
            cols: 4,
            s: 4,
            sends: 1,
            recvs: 1,
            max_link_load: 1,
            deadlocked: false,
            opaque_payloads: false,
            dropped_attempts: 0,
            findings,
        }
    }

    #[test]
    fn round_trips_and_stays_sorted() {
        let e = entry_with(vec![
            Finding::new(FindingKind::SerializationHotspot, Some(0), "hot".into()),
            Finding::new(FindingKind::AboveLowerBound, None, "slow".into()),
        ]);
        let b = Baseline::from_entries(std::slice::from_ref(&e));
        assert_eq!(b.suppress.len(), 2);
        let text = b.to_json();
        let parsed = Baseline::parse(&text).expect("parse own output");
        assert_eq!(parsed.suppress, b.suppress);
        assert_eq!(parsed.to_json(), text, "format is a fixed point");
        assert!(parsed.suppresses(&e, &e.findings[0]));
    }

    #[test]
    fn errors_are_never_suppressed() {
        let e = entry_with(vec![Finding::new(
            FindingKind::CostModelDivergence,
            None,
            "skew".into(),
        )]);
        // Capturing a baseline ignores errors...
        assert!(Baseline::from_entries(std::slice::from_ref(&e))
            .suppress
            .is_empty());
        // ...and even a hand-written key for one does not suppress it.
        let mut b = Baseline::default();
        b.suppress.insert(finding_key(&e, &e.findings[0]));
        assert!(!b.suppresses(&e, &e.findings[0]));
    }

    #[test]
    fn empty_baseline_parses() {
        let b = Baseline::parse("{ \"suppress\": [] }").expect("empty ok");
        assert!(b.suppress.is_empty());
        assert!(Baseline::parse("{}").is_err());
    }
}
