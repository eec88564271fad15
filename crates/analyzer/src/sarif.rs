//! SARIF 2.1.0 output for `stp lint` — the interchange format CI
//! annotation tooling consumes.
//!
//! One run, one rule per [`FindingKind`], one result per finding.
//! Schedules have no files, so results carry *logical* locations: the
//! grid point id (`algo/dist/RxC/sN`) qualified with the rank the
//! finding anchors at. Findings accepted by the baseline are emitted
//! with an `external` suppression rather than dropped — SARIF viewers
//! show them greyed out. Output is byte-stable for a given entry list:
//! entries in sweep order, findings in the analyzer's canonical order,
//! no wall-clock anywhere.

use crate::baseline::{finding_key, Baseline};
use crate::checks::FindingKind;
use crate::lint::LintEntry;
use stp_core::checkpoint::json_escape;

/// Every kind, in rule-index order (the `FindingKind` declaration
/// order, which is also the canonical report order).
pub const ALL_KINDS: [FindingKind; 12] = [
    FindingKind::Deadlock,
    FindingKind::UnmatchedSend,
    FindingKind::MatchAmbiguity,
    FindingKind::PayloadLeak,
    FindingKind::LinkOverload,
    FindingKind::LostMessage,
    FindingKind::CostModelDivergence,
    FindingKind::IdlePorts,
    FindingKind::SerializationHotspot,
    FindingKind::ContentionDominated,
    FindingKind::RedundantTransmission,
    FindingKind::AboveLowerBound,
];

fn rule_index(kind: FindingKind) -> usize {
    ALL_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is registered")
}

/// Encode a lint sweep as a SARIF 2.1.0 log.
pub fn sarif_report(entries: &[LintEntry], baseline: Option<&Baseline>) -> String {
    let rules: Vec<String> = ALL_KINDS
        .iter()
        .map(|k| {
            format!(
                "        {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
                 \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
                k.name(),
                json_escape(k.describe()),
                k.severity().name()
            )
        })
        .collect();

    let mut results = Vec::new();
    for e in entries {
        let point = format!("{}/{}/{}x{}/s{}", e.algo, e.dist, e.rows, e.cols, e.s);
        for f in &e.findings {
            let fqn = match f.rank {
                Some(r) => format!("{point}/rank{r}"),
                None => point.clone(),
            };
            let suppressed = baseline.is_some_and(|b| b.suppresses(e, f));
            let suppressions = if suppressed {
                ", \"suppressions\": [{\"kind\": \"external\"}]"
            } else {
                ""
            };
            results.push(format!(
                "      {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"{}\", \
                 \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"logicalLocations\": \
                 [{{\"fullyQualifiedName\": \"{}\"}}]}}], \"properties\": {{\"point\": \"{}\", \
                 \"baselineKey\": \"{}\"}}{suppressions}}}",
                f.kind.name(),
                rule_index(f.kind),
                f.kind.severity().name(),
                json_escape(&f.detail),
                json_escape(&fqn),
                json_escape(&point),
                json_escape(&finding_key(e, f)),
            ));
        }
    }

    format!(
        "{{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {{\n      \"tool\": {{\"driver\": \
         {{\"name\": \"stp-lint\", \"informationUri\": \
         \"https://example.invalid/stp\", \"rules\": [\n{}\n      ]}}}},\n      \
         \"results\": [\n{}\n      ]\n    }}\n  ]\n}}\n",
        rules.join(",\n"),
        if results.is_empty() {
            String::new()
        } else {
            results.join(",\n")
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::Finding;
    use stp_core::checkpoint::parse_json;

    fn entry() -> LintEntry {
        LintEntry {
            algo: "Br_Lin".into(),
            dist: "E".into(),
            rows: 4,
            cols: 4,
            s: 4,
            sends: 2,
            recvs: 2,
            max_link_load: 1,
            deadlocked: false,
            opaque_payloads: false,
            dropped_attempts: 0,
            findings: vec![
                Finding::new(FindingKind::SerializationHotspot, Some(3), "hot hub".into()),
                Finding::new(FindingKind::CostModelDivergence, None, "skew".into()),
            ],
        }
    }

    #[test]
    fn sarif_is_valid_json_with_required_fields() {
        let text = sarif_report(&[entry()], None);
        let v = parse_json(&text).expect("SARIF must be parseable JSON");
        assert_eq!(v.get("version").and_then(|x| x.as_str()), Some("2.1.0"));
        let runs = v.get("runs").and_then(|x| x.as_array()).expect("runs");
        assert_eq!(runs.len(), 1);
        let results = runs[0]
            .get("results")
            .and_then(|x| x.as_array())
            .expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("ruleId").and_then(|x| x.as_str()),
            Some("serialization_hotspot")
        );
        assert_eq!(
            results[0].get("level").and_then(|x| x.as_str()),
            Some("warning")
        );
        assert_eq!(
            results[1].get("level").and_then(|x| x.as_str()),
            Some("error")
        );
        // Rule table covers every kind exactly once, in index order.
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(|x| x.as_array())
            .expect("rules");
        assert_eq!(rules.len(), ALL_KINDS.len());
        for (i, k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(rules[i].get("id").and_then(|x| x.as_str()), Some(k.name()));
        }
    }

    #[test]
    fn baseline_marks_suppressions_without_dropping() {
        let e = entry();
        let warn_key = crate::baseline::finding_key(&e, &e.findings[0]);
        let error_key = crate::baseline::finding_key(&e, &e.findings[1]);
        let mut b = Baseline::default();
        b.suppress.insert(warn_key);
        b.suppress.insert(error_key); // must be ignored: errors never suppress
        let text = sarif_report(std::slice::from_ref(&e), Some(&b));
        let v = parse_json(&text).expect("parse");
        let results = v.get("runs").and_then(|x| x.as_array()).unwrap()[0]
            .get("results")
            .and_then(|x| x.as_array())
            .unwrap();
        assert!(results[0].get("suppressions").is_some());
        assert!(results[1].get("suppressions").is_none());
    }

    #[test]
    fn output_is_byte_stable() {
        let entries = vec![entry()];
        assert_eq!(sarif_report(&entries, None), sarif_report(&entries, None));
        // Golden skeleton: the exact header bytes tooling keys on.
        let text = sarif_report(&[], None);
        assert!(text.starts_with(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": ["
        ));
        assert!(text.ends_with("}\n"));
    }

    /// Golden bytes for one result object: any encoding change must be
    /// deliberate, because CI annotation tooling and the committed
    /// artifacts key on these exact strings.
    #[test]
    fn result_encoding_matches_golden_bytes() {
        let text = sarif_report(&[entry()], None);
        let golden = "      {\"ruleId\": \"serialization_hotspot\", \"ruleIndex\": 8, \
                      \"level\": \"warning\", \"message\": {\"text\": \"hot hub\"}, \
                      \"locations\": [{\"logicalLocations\": [{\"fullyQualifiedName\": \
                      \"Br_Lin/E/4x4/s4/rank3\"}]}], \"properties\": {\"point\": \
                      \"Br_Lin/E/4x4/s4\", \"baselineKey\": \
                      \"serialization_hotspot@Br_Lin/E/4x4/s4\"}}";
        assert!(
            text.contains(golden),
            "result encoding drifted from the golden bytes:\n{text}"
        );
    }
}
