//! Field extraction from the product's own output formats (reply
//! lines, `--json` reports). These are fixed, machine-written shapes —
//! a substring scan reads them without a JSON dependency, and a field
//! that goes missing turns into a failed check, not a wrong number.

/// The number right after `key`, parsed as `T`. `key` includes the
/// quotes and the colon: `"\"wall_s\":"`. A whole-number `T` on a
/// fractional field is `None`, like a missing field.
fn number_after<T: std::str::FromStr>(text: &str, key: &str) -> Option<T> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

pub fn num_after(text: &str, key: &str) -> Option<f64> {
    number_after(text, key)
}

pub fn int_after(text: &str, key: &str) -> Option<u64> {
    number_after(text, key)
}

/// Sum of a whole-number field over every occurrence of `key`.
pub fn sum_int_fields(text: &str, key: &str) -> u64 {
    text.match_indices(key)
        .filter_map(|(at, _)| int_after(&text[at..], key))
        .sum()
}

/// The `plan` body of an ok reply: everything between `"plan":` and the
/// reply object's closing brace.
pub fn plan_body(reply: &str) -> Option<&str> {
    let (_, body) = reply.split_once(",\"plan\":")?;
    body.trim_end().strip_suffix('}')
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = "{\"id\":\"\",\"status\":\"ok\",\"cached\":false,\"key\":\"00ff\",\"plan\":{\"algo\":\"Br_Lin\",\"predicted_ms\":1.250000,\"virtual_makespan_ns\":1304711,\"schedule\":{\"events\":88,\"sends\":44,\"recvs\":44}}}\n";

    #[test]
    fn reads_reply_fields() {
        assert_eq!(
            int_after(REPLY, "\"virtual_makespan_ns\":"),
            Some(1_304_711)
        );
        assert_eq!(num_after(REPLY, "\"predicted_ms\":"), Some(1.25));
        assert_eq!(int_after(REPLY, "\"sends\":"), Some(44));
        assert_eq!(int_after(REPLY, "\"missing\":"), None);
        assert_eq!(
            num_after("{\"predicted_ms\":null}", "\"predicted_ms\":"),
            None
        );
        assert_eq!(
            plan_body(REPLY),
            Some("{\"algo\":\"Br_Lin\",\"predicted_ms\":1.250000,\"virtual_makespan_ns\":1304711,\"schedule\":{\"events\":88,\"sends\":44,\"recvs\":44}}")
        );
    }

    #[test]
    fn sums_report_fields() {
        let report = "{\"sends\":18,\"recvs\":18}\n{\"sends\":60,\"recvs\":60}\n";
        assert_eq!(sum_int_fields(report, "\"sends\":"), 78);
        assert_eq!(sum_int_fields(report, "\"absent\":"), 0);
    }
}
