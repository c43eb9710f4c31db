//! End-of-run simulation report.

use crate::faults::FaultMetrics;
use crate::policy::PolicyStats;
use rolo_disk::DiskEnergyReport;
use rolo_metrics::{PhaseSummary, ResponseStats};
use rolo_obs::RunProfile;
use rolo_sim::Duration;
use serde::{Deserialize, Map, Serialize, Value};

/// Everything a run produces. Energy, spin counts and phase summaries are
/// snapshotted at the configured trace end (before the drain phase), so
/// runs of different schemes compare over identical wall time; response
/// statistics cover every user request of the trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Scheme name.
    pub scheme: String,
    /// Configured trace duration (energy comparison window).
    pub trace_duration: Duration,
    /// Wall time at which the run fully drained.
    pub drained_at: Duration,
    /// User requests completed.
    pub user_requests: u64,
    /// Total array energy (J) over the trace window.
    pub total_energy_j: f64,
    /// Per-disk energy/residency over the trace window.
    pub energy_by_disk: Vec<DiskEnergyReport>,
    /// Sum of the per-disk reports.
    pub aggregate_energy: DiskEnergyReport,
    /// Spin cycles (spin-ups) over the trace window, array-wide.
    pub spin_cycles: u64,
    /// Response times over all user requests.
    pub responses: ResponseStats,
    /// Response times over reads.
    pub read_responses: ResponseStats,
    /// Response times over writes.
    pub write_responses: ResponseStats,
    /// Completed logging-phase summary at trace end.
    pub logging_phase: PhaseSummary,
    /// Completed destaging-phase summary at trace end.
    pub destaging_phase: PhaseSummary,
    /// Destaging interval ratio (Fig. 2c definition).
    pub destaging_interval_ratio: f64,
    /// Destaging energy ratio (Fig. 2d definition).
    pub destaging_energy_ratio: f64,
    /// Occupied logging capacity over time: (seconds, bytes).
    pub log_capacity_timeline: Vec<(f64, f64)>,
    /// Sampled aggregate power draw over time: (seconds, watts).
    pub power_timeline: Vec<(f64, f64)>,
    /// Scheme-specific counters.
    pub policy: PolicyStats,
    /// Fault-injection accounting, taken at the end of the run (after
    /// the drain, so rebuilds finishing post-trace still count).
    pub faults: FaultMetrics,
    /// Response times over user requests completed while the array was
    /// degraded (empty when no fault was injected).
    pub degraded_responses: ResponseStats,
    /// `Ok` when the end-of-run consistency audit passed.
    pub consistency: Result<(), String>,
    /// Wall-clock profiling of the run. Non-deterministic: excluded
    /// from [`SimReport::deterministic_json`].
    pub profile: RunProfile,
}

impl SimReport {
    /// Mean response time in milliseconds (the paper's headline metric).
    pub fn mean_response_ms(&self) -> f64 {
        self.responses.mean_ms()
    }

    /// Energy of this run relative to `baseline` (1.0 = equal; Fig. 10a
    /// normalises to RAID10).
    pub fn energy_vs(&self, baseline: &SimReport) -> f64 {
        if baseline.total_energy_j == 0.0 {
            return f64::NAN;
        }
        self.total_energy_j / baseline.total_energy_j
    }

    /// Fractional energy saved over `baseline` (the paper's "energy saved
    /// over RAID10/GRAID").
    pub fn energy_saved_over(&self, baseline: &SimReport) -> f64 {
        1.0 - self.energy_vs(baseline)
    }

    /// Mean response time relative to `baseline` (Fig. 10b).
    pub fn response_vs(&self, baseline: &SimReport) -> f64 {
        let b = baseline.mean_response_ms();
        if b == 0.0 {
            return f64::NAN;
        }
        self.mean_response_ms() / b
    }

    /// "Performance gained over" `baseline` as the paper states it
    /// (positive = faster than baseline).
    pub fn performance_gained_over(&self, baseline: &SimReport) -> f64 {
        1.0 - self.response_vs(baseline)
    }

    /// Compact JSON of the report with the wall-clock [`RunProfile`]
    /// stripped: two runs of the same seed and config — traced or not,
    /// serial or parallel — must produce byte-identical output.
    pub fn deterministic_json(&self) -> String {
        let value = Serialize::to_value(self);
        let Value::Object(map) = value else {
            unreachable!("SimReport serializes to an object");
        };
        let mut out = Map::new();
        for (k, v) in map.iter() {
            if k != "profile" {
                out.insert(k.clone(), v.clone());
            }
        }
        Value::Object(out).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(energy: f64, mean_us: u64) -> SimReport {
        let mut responses = ResponseStats::new();
        responses.record(Duration::from_micros(mean_us));
        SimReport {
            scheme: "test".into(),
            trace_duration: Duration::from_secs(1),
            drained_at: Duration::from_secs(1),
            user_requests: 1,
            total_energy_j: energy,
            energy_by_disk: Vec::new(),
            aggregate_energy: DiskEnergyReport::default(),
            spin_cycles: 0,
            responses,
            read_responses: ResponseStats::new(),
            write_responses: ResponseStats::new(),
            logging_phase: PhaseSummary::default(),
            destaging_phase: PhaseSummary::default(),
            destaging_interval_ratio: 0.0,
            destaging_energy_ratio: 0.0,
            log_capacity_timeline: Vec::new(),
            power_timeline: Vec::new(),
            policy: PolicyStats::default(),
            faults: FaultMetrics::default(),
            degraded_responses: ResponseStats::new(),
            consistency: Ok(()),
            profile: RunProfile::default(),
        }
    }

    #[test]
    fn relative_metrics() {
        let base = report(1000.0, 10_000);
        let mine = report(500.0, 11_000);
        assert!((mine.energy_vs(&base) - 0.5).abs() < 1e-12);
        assert!((mine.energy_saved_over(&base) - 0.5).abs() < 1e-12);
        assert!((mine.response_vs(&base) - 1.1).abs() < 1e-9);
        assert!((mine.performance_gained_over(&base) + 0.1).abs() < 1e-9);
    }

    #[test]
    fn deterministic_json_strips_profile_only() {
        let mut r = report(1.0, 100);
        r.profile.wall_total_us = 123_456;
        r.profile.sink = "ring".into();
        let json = r.deterministic_json();
        let v = serde_json::from_str(&json).expect("valid JSON");
        assert!(v.get("profile").is_none(), "profile stripped");
        assert!(v.get("scheme").is_some());

        // Differing wall-clock profiles must not differ the output.
        let mut other = report(1.0, 100);
        other.profile.wall_total_us = 999;
        assert_eq!(json, other.deterministic_json());
    }
}
