//! Declarative SLOs with online multi-window burn-rate alerting.
//!
//! An [`SloSpec`] states an objective over one telemetry window — a
//! latency quantile target ("p95 ≤ 500 ms") or an energy budget ("mean
//! draw ≤ 600 W"). The [`SloMonitor`] consumes each closed window from
//! the [`crate::timeseries`] hub, marks it good or bad against every
//! objective, and converts the recent bad-window history into burn
//! rates over two lookbacks (SRE-style multi-window alerting): the
//! *short* lookback reacts quickly, the *long* lookback suppresses
//! one-off blips. A window whose short burn crosses the warning
//! threshold yields [`SloSignal::Warning`]; one whose short *and* long
//! burns cross the (higher) breach threshold yields
//! [`SloSignal::Breach`]. Because the breach condition strictly implies
//! the warning condition, a breach window always carries its warning
//! first — the lifecycle ordering `trace_dump --slo` checks.
//!
//! The monitor is pure bookkeeping over already-frozen rollups: it
//! never touches simulator state, so evaluating SLOs online cannot
//! perturb a run.

use rolo_metrics::SketchDigest;
use rolo_sim::Duration;
use serde::Serialize;
use std::collections::VecDeque;

/// Which rung of the digest's quantile ladder an SLO targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Quantile {
    /// Median.
    P50,
    /// 90th percentile.
    P90,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
}

impl Quantile {
    /// Short stable name (`p95`), for labels and event payloads.
    pub fn name(self) -> &'static str {
        match self {
            Quantile::P50 => "p50",
            Quantile::P90 => "p90",
            Quantile::P95 => "p95",
            Quantile::P99 => "p99",
        }
    }

    /// Reads this rung from a window digest (`None` when the window
    /// saw no observations).
    pub fn of(self, d: &SketchDigest) -> Option<f64> {
        match self {
            Quantile::P50 => d.p50,
            Quantile::P90 => d.p90,
            Quantile::P95 => d.p95,
            Quantile::P99 => d.p99,
        }
    }
}

/// What an SLO constrains, per telemetry window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SloObjective {
    /// A response-time quantile must stay at or under `target`.
    LatencyQuantile {
        /// Which quantile of the window's response distribution.
        quantile: Quantile,
        /// Upper bound for a good window.
        target: Duration,
    },
    /// Mean array power draw over the window must stay at or under the
    /// budget.
    EnergyBudget {
        /// Upper bound on mean watts for a good window.
        max_mean_watts: f64,
    },
}

/// One declarative objective with a stable name.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloSpec {
    /// Stable identifier carried in emitted events (e.g.
    /// `latency_p95`).
    pub name: String,
    /// The per-window objective.
    pub objective: SloObjective,
}

impl SloSpec {
    /// A latency-quantile objective.
    pub fn latency(name: &str, quantile: Quantile, target: Duration) -> Self {
        SloSpec {
            name: name.to_string(),
            objective: SloObjective::LatencyQuantile { quantile, target },
        }
    }

    /// An energy-budget objective.
    pub fn energy(name: &str, max_mean_watts: f64) -> Self {
        SloSpec {
            name: name.to_string(),
            objective: SloObjective::EnergyBudget { max_mean_watts },
        }
    }

    /// Validates the spec, returning a description of the first
    /// problem.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.name.is_empty() {
            return Err("SLO name must be non-empty");
        }
        match &self.objective {
            SloObjective::LatencyQuantile { target, .. } => {
                if target.is_zero() {
                    return Err("latency SLO target must be positive");
                }
            }
            SloObjective::EnergyBudget { max_mean_watts } => {
                if max_mean_watts.is_nan() || *max_mean_watts <= 0.0 {
                    return Err("energy SLO budget must be positive");
                }
            }
        }
        Ok(())
    }
}

/// Multi-window burn-rate alerting thresholds.
///
/// The burn rate over a lookback of `n` windows is
/// `bad_fraction / error_budget`: burning at exactly 1.0 consumes the
/// allowed bad-window budget, higher burns exhaust it proportionally
/// faster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BurnRatePolicy {
    /// Fast lookback length, in windows.
    pub short_windows: usize,
    /// Slow lookback length, in windows (`≥ short_windows`).
    pub long_windows: usize,
    /// Allowed bad-window fraction, in `(0, 1]`.
    pub error_budget: f64,
    /// Warning fires when the short burn reaches this.
    pub warn_burn: f64,
    /// Breach fires when *both* burns reach this (`≥ warn_burn`).
    pub breach_burn: f64,
}

impl BurnRatePolicy {
    /// Validates the policy, returning a description of the first
    /// problem.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.short_windows == 0 {
            return Err("short lookback must be at least one window");
        }
        if self.long_windows < self.short_windows {
            return Err("long lookback must be at least the short lookback");
        }
        if !(self.error_budget > 0.0 && self.error_budget <= 1.0) {
            return Err("error budget must be in (0, 1]");
        }
        if self.warn_burn.is_nan() || self.warn_burn <= 0.0 {
            return Err("warn burn threshold must be positive");
        }
        if self.breach_burn < self.warn_burn {
            return Err("breach burn threshold must be at least the warn threshold");
        }
        Ok(())
    }
}

/// Signal strength of an emitted SLO event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SloSignal {
    /// The short-lookback burn crossed the warning threshold.
    Warning,
    /// Both lookbacks crossed the breach threshold.
    Breach,
}

/// One alert produced by a window evaluation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloAlert {
    /// Name of the [`SloSpec`] that fired.
    pub slo: String,
    /// Telemetry window index that closed the evaluation.
    pub window: u64,
    /// Warning or breach.
    pub signal: SloSignal,
    /// Burn rate over the short lookback.
    pub burn_short: f64,
    /// Burn rate over the long lookback.
    pub burn_long: f64,
    /// The window's observed value (µs for latency, watts for
    /// energy); 0 when the window had no observations.
    pub observed: f64,
    /// The objective's bound, in the same unit.
    pub target: f64,
}

#[derive(Debug, Clone)]
struct SloState {
    spec: SloSpec,
    /// Recent windows' good/bad verdicts, newest last, bounded by the
    /// long lookback.
    bad: VecDeque<bool>,
    windows_seen: u64,
}

impl SloState {
    fn burn(&self, lookback: usize, budget: f64) -> f64 {
        let n = self.bad.len().min(lookback);
        if n == 0 {
            return 0.0;
        }
        let bad = self.bad.iter().rev().take(n).filter(|&&b| b).count();
        (bad as f64 / n as f64) / budget
    }
}

/// What one closed telemetry window looked like, as fed to the
/// monitor.
#[derive(Debug, Clone, Copy)]
pub struct WindowObservation<'a> {
    /// Window index.
    pub window: u64,
    /// Digest of the window's response-time quantile series.
    pub latency: &'a SketchDigest,
    /// Mean array power draw over the window, in watts.
    pub mean_watts: f64,
}

/// Online SLO evaluator: feed it every closed window, get back the
/// alerts that window raised (warnings before breaches, specs in
/// declaration order).
#[derive(Debug, Clone)]
pub struct SloMonitor {
    policy: BurnRatePolicy,
    slos: Vec<SloState>,
}

impl SloMonitor {
    /// Builds a monitor for `specs` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy or any spec fails validation — drivers
    /// validate via `SimConfig::check` first.
    pub fn new(policy: BurnRatePolicy, specs: Vec<SloSpec>) -> Self {
        policy.check().expect("valid burn-rate policy");
        let slos = specs
            .into_iter()
            .map(|spec| {
                spec.check().expect("valid SLO spec");
                SloState {
                    spec,
                    bad: VecDeque::new(),
                    windows_seen: 0,
                }
            })
            .collect();
        SloMonitor { policy, slos }
    }

    /// Number of configured SLOs.
    pub fn len(&self) -> usize {
        self.slos.len()
    }

    /// True when no SLO is configured.
    pub fn is_empty(&self) -> bool {
        self.slos.is_empty()
    }

    /// Evaluates one closed window against every SLO.
    ///
    /// A warning needs a full short lookback of history; a breach a
    /// full long lookback — so the first windows of a run can warn
    /// but never breach, and a breach always implies (and follows) a
    /// warning for the same window.
    pub fn observe_window(&mut self, obs: WindowObservation<'_>) -> Vec<SloAlert> {
        let mut alerts = Vec::new();
        let p = self.policy;
        for s in &mut self.slos {
            let (observed, target, bad) = match &s.spec.objective {
                SloObjective::LatencyQuantile { quantile, target } => {
                    let t = target.as_micros() as f64;
                    match quantile.of(obs.latency) {
                        // An idle window burns no latency budget.
                        None => (0.0, t, false),
                        Some(v) => (v, t, v > t),
                    }
                }
                SloObjective::EnergyBudget { max_mean_watts } => (
                    obs.mean_watts,
                    *max_mean_watts,
                    obs.mean_watts > *max_mean_watts,
                ),
            };
            s.bad.push_back(bad);
            while s.bad.len() > p.long_windows {
                s.bad.pop_front();
            }
            s.windows_seen += 1;
            let burn_short = s.burn(p.short_windows, p.error_budget);
            let burn_long = s.burn(p.long_windows, p.error_budget);
            let alert = |signal| SloAlert {
                slo: s.spec.name.clone(),
                window: obs.window,
                signal,
                burn_short,
                burn_long,
                observed,
                target,
            };
            if s.windows_seen >= p.short_windows as u64 && burn_short >= p.warn_burn {
                alerts.push(alert(SloSignal::Warning));
                if s.windows_seen >= p.long_windows as u64
                    && burn_short >= p.breach_burn
                    && burn_long >= p.breach_burn
                {
                    alerts.push(alert(SloSignal::Breach));
                }
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolo_metrics::QuantileSketch;

    fn policy() -> BurnRatePolicy {
        BurnRatePolicy {
            short_windows: 2,
            long_windows: 4,
            error_budget: 0.5,
            warn_burn: 1.0,
            breach_burn: 2.0,
        }
    }

    fn digest_of(vals: &[f64]) -> SketchDigest {
        let mut s = QuantileSketch::new();
        for &v in vals {
            s.record(v);
        }
        s.digest()
    }

    fn slow() -> SketchDigest {
        digest_of(&[600_000.0; 10])
    }

    fn fast() -> SketchDigest {
        digest_of(&[4_000.0; 10])
    }

    fn latency_monitor() -> SloMonitor {
        SloMonitor::new(
            policy(),
            vec![SloSpec::latency(
                "latency_p95",
                Quantile::P95,
                Duration::from_millis(500),
            )],
        )
    }

    fn feed(m: &mut SloMonitor, window: u64, d: &SketchDigest) -> Vec<SloAlert> {
        m.observe_window(WindowObservation {
            window,
            latency: d,
            mean_watts: 100.0,
        })
    }

    #[test]
    fn warning_precedes_breach_and_needs_history() {
        let mut m = latency_monitor();
        // Window 0: bad, but the short lookback isn't full yet.
        assert!(feed(&mut m, 0, &slow()).is_empty());
        // Window 1: short lookback full and 100% bad → warn (burn 2.0
        // ≥ warn 1.0); long lookback not full yet → no breach.
        let a = feed(&mut m, 1, &slow());
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].signal, SloSignal::Warning);
        assert!(a[0].burn_short >= 2.0);
        feed(&mut m, 2, &slow());
        // Window 3: long lookback full, both burns 2.0 ≥ breach 2.0 →
        // warning then breach, in that order, same window.
        let a = feed(&mut m, 3, &slow());
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].signal, SloSignal::Warning);
        assert_eq!(a[1].signal, SloSignal::Breach);
        assert_eq!(a[0].window, a[1].window);
    }

    #[test]
    fn good_windows_stay_silent_and_recover() {
        let mut m = latency_monitor();
        for w in 0..4 {
            assert!(feed(&mut m, w, &fast()).is_empty(), "window {w}");
        }
        // One bad window of four: short burn = (1/2)/0.5 = 1 → warn,
        // long burn = (1/4)/0.5 = 0.5 < 2 → no breach.
        let a = feed(&mut m, 4, &slow());
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].signal, SloSignal::Warning);
        // Recovery: the bad window still sits in the short lookback at
        // window 5 (burn exactly 1.0 → warn), then ages out.
        assert_eq!(feed(&mut m, 5, &fast()).len(), 1);
        assert!(feed(&mut m, 6, &fast()).is_empty());
    }

    #[test]
    fn idle_windows_burn_no_budget() {
        let mut m = latency_monitor();
        let idle = QuantileSketch::new().digest();
        for w in 0..6 {
            assert!(feed(&mut m, w, &idle).is_empty(), "window {w}");
        }
    }

    #[test]
    fn energy_budget_tracks_mean_watts() {
        let mut m = SloMonitor::new(policy(), vec![SloSpec::energy("power_budget", 200.0)]);
        let d = fast();
        let mut hot = |w, watts| {
            m.observe_window(WindowObservation {
                window: w,
                latency: &d,
                mean_watts: watts,
            })
        };
        assert!(hot(0, 300.0).is_empty());
        let a = hot(1, 300.0);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].observed, 300.0);
        assert_eq!(a[0].target, 200.0);
        hot(2, 300.0);
        let a = hot(3, 300.0);
        assert_eq!(a.last().unwrap().signal, SloSignal::Breach);
    }

    #[test]
    fn invalid_policy_is_rejected() {
        let mut p = policy();
        p.long_windows = 1;
        assert!(p.check().is_err());
        let mut p = policy();
        p.error_budget = 0.0;
        assert!(p.check().is_err());
        let mut p = policy();
        p.breach_burn = 0.5;
        assert!(p.check().is_err(), "breach below warn");
        assert!(SloSpec::latency("", Quantile::P95, Duration::from_secs(1))
            .check()
            .is_err());
        assert!(SloSpec::energy("e", 0.0).check().is_err());
    }
}
