//! The per-layer metrics, by name. `BENCHMARK.json` lists exactly these
//! (a unit test holds the two together), and a traced run prints every
//! one of them, whatever the workload.

use std::collections::BTreeMap;

/// Short tags of the three fixed probe points.
pub const PROBES: [&str; 3] = ["small", "large", "t3d"];

/// `(name, unit, higher_is_better)`. Timings are host time; everything
/// under `sim.` is simulated and exact. Counts have no good direction;
/// they are listed as lower-is-better and compared for equality.
pub const PER_LAYER: [(&str, &str, bool); 106] = [
    // Read off the product's outputs during the workload's own run.
    ("serve.hit_rate", "ratio", true),
    ("serve.evictions", "count", false),
    ("serve.planned", "count", false),
    ("serve.quarantined", "count", false),
    ("serve.errors", "count", false),
    ("serve.cold_lint_p50_ms", "ms", false),
    ("sim.virtual_ns_sum", "ns", false),
    ("sim.msgs", "count", false),
    ("sim.sched_events", "count", false),
    ("sim.contention_events", "count", false),
    ("sim.findings", "count", false),
    // core/serve.rs
    ("serve.parse_request_ns", "ns", false),
    ("serve.cache_id_ns", "ns", false),
    ("serve.cache_get_ns", "ns", false),
    ("serve.lookup_hit_ns", "ns", false),
    ("serve.cache_insert_mem_ns", "ns", false),
    ("serve.cache_insert_persist_ns.n64", "ns", false),
    ("serve.cache_insert_persist_ns.n256", "ns", false),
    ("serve.plan_cold_ns.small", "ns", false),
    ("serve.plan_cold_ns.large", "ns", false),
    ("serve.plan_cold_ns.t3d", "ns", false),
    ("serve.residual_share", "ratio", false),
    ("serve.socket_overhead_ns", "ns", false),
    // core/checkpoint.rs
    ("checkpoint.parse_json_ns_per_kb", "ns/KB", false),
    ("checkpoint.to_json_ns_per_entry", "ns", false),
    ("checkpoint.save_ns.n1024", "ns", false),
    // core/select.rs, core/predict.rs
    ("select.recommend_ns", "ns", false),
    ("predict.estimate_call_ns", "ns", false),
    ("predict.rel_err_p50", "ratio", false),
    ("predict.rel_err_max", "ratio", false),
    ("predict.rel_err_p50.paragon", "ratio", false),
    ("predict.rel_err_max.paragon", "ratio", false),
    ("predict.rel_err_p50.t3d", "ratio", false),
    ("predict.rel_err_max.t3d", "ratio", false),
    // core/distribution.rs, core/msgset.rs
    ("distribution.place_ns", "ns", false),
    ("msgset.roundtrip_ns_per_kb", "ns/KB", false),
    // core/runner.rs + mpp-sim/kernel.rs
    ("runner.run_ns.small", "ns", false),
    ("runner.run_ns.large", "ns", false),
    ("runner.run_ns.t3d", "ns", false),
    ("runner.record_ns.small", "ns", false),
    ("runner.record_ns.large", "ns", false),
    ("runner.record_ns.t3d", "ns", false),
    ("record.overhead_share.small", "ratio", false),
    ("record.overhead_share.large", "ratio", false),
    ("record.overhead_share.t3d", "ratio", false),
    ("runner.ns_per_msg.small", "ns", false),
    ("runner.ns_per_kb.large", "ns/KB", false),
    ("kernel.ring_ns_per_event", "ns", false),
    // mpp-sim/network.rs, mpp-sim/payload.rs, mpp-model/topology.rs
    ("network.transfer_ns", "ns", false),
    ("payload.append_slice_ns_per_kb", "ns/KB", false),
    ("payload.reader_ns_per_kb", "ns/KB", false),
    ("payload.allocs.small", "count", false),
    ("payload.allocs.large", "count", false),
    ("payload.bytes_copied.small", "count", false),
    ("payload.bytes_copied.large", "count", false),
    ("topology.route_ns.mesh", "ns", false),
    ("topology.route_ns.torus", "ns", false),
    // Simulated statistics of the three probe points.
    ("sim.virtual_ns.small", "ns", false),
    ("sim.virtual_ns.large", "ns", false),
    ("sim.virtual_ns.t3d", "ns", false),
    ("sim.msgs.small", "count", false),
    ("sim.msgs.large", "count", false),
    ("sim.msgs.t3d", "count", false),
    ("sim.bytes_sent.small", "count", false),
    ("sim.bytes_sent.large", "count", false),
    ("sim.bytes_sent.t3d", "count", false),
    ("sim.contention_events.small", "count", false),
    ("sim.contention_events.large", "count", false),
    ("sim.contention_events.t3d", "count", false),
    ("sim.sched_events.small", "count", false),
    ("sim.sched_events.large", "count", false),
    ("sim.sched_events.t3d", "count", false),
    // core/algorithms, one representative per family.
    ("algo.host_ns.two_step", "ns", false),
    ("algo.host_ns.pers_alltoall", "ns", false),
    ("algo.host_ns.br", "ns", false),
    ("algo.host_ns.repos", "ns", false),
    ("algo.host_ns.part", "ns", false),
    ("algo.host_ns.mpi", "ns", false),
    ("algo.host_ns.dissem", "ns", false),
    ("algo.host_ns.kport", "ns", false),
    // analyzer
    ("schedule.from_recorded_ns_per_event", "ns", false),
    ("cost.replay_ns_per_xfer", "ns", false),
    ("checks.analyze_ns_per_event", "ns", false),
    ("perf_checks.extra_ns_per_event", "ns", false),
    ("report.entry_to_json_ns", "ns", false),
    ("lint.lint_point_ns.small", "ns", false),
    ("lint.lint_point_ns.large", "ns", false),
    ("lint.analysis_share", "ratio", false),
    // stp CLI
    ("cli.startup_ms", "ms", false),
    // The cold-plan stage table, summed over the replayed requests; the
    // six stages add up to `total_ns`.
    ("stage.cold.total_ns", "ns", false),
    ("stage.cold.parse_ns", "ns", false),
    ("stage.cold.place_ns", "ns", false),
    ("stage.cold.simulate_ns", "ns", false),
    ("stage.cold.record_extra_ns", "ns", false),
    ("stage.cold.cache_insert_ns", "ns", false),
    ("stage.cold.residual_ns", "ns", false),
    // The lint-point stage table, summed over the same requests.
    ("stage.lint.record_ns", "ns", false),
    ("stage.lint.schedule_build_ns", "ns", false),
    ("stage.lint.cost_replay_ns", "ns", false),
    ("stage.lint.checks_ns", "ns", false),
    ("stage.lint.perf_checks_ns", "ns", false),
    ("stage.lint.report_ns", "ns", false),
    // What makes two traced runs comparable.
    ("trace.overhead_share", "ratio", false),
    ("harness.cores", "count", true),
    ("harness.workers", "count", true),
    ("harness.conns", "count", true),
];

/// The values of one traced run. Setting an unknown name or leaving a
/// known one unset is a bug in the benchmark, not a measurement.
#[derive(Default)]
pub struct Report(BTreeMap<&'static str, f64>);

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let (known, _, _) = PER_LAYER
            .iter()
            .find(|(known, _, _)| *known == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        assert!(value.is_finite(), "{name} is not a number");
        let previous = self.0.insert(known, value);
        assert!(previous.is_none(), "{name} set twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} read before it was measured"))
    }

    /// Every metric in table order.
    ///
    /// # Panics
    /// Panics if one was never set.
    pub fn complete(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, self.get(name), unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stp_benchmark::workloads::SURFACE_COUNTS;

    #[test]
    fn names_are_unique_and_cover_the_surface_counts() {
        let names: std::collections::BTreeSet<_> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for count in SURFACE_COUNTS {
            assert!(names.contains(count), "{count}");
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let (_, per_layer) = text.split_once("\"per_layer\"").expect("per_layer section");
        let listed: Vec<String> = per_layer
            .lines()
            .filter(|line| line.contains("\"name\""))
            .map(|line| line.trim().trim_end_matches(',').to_string())
            .collect();
        let expected: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, unit, higher)| {
                format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    if *higher { "higher" } else { "lower" }
                )
            })
            .collect();
        assert_eq!(listed, expected);
    }
}
