//! One measuring process of the benchmark. `run.py` starts a fresh one
//! per mode, so each process's peak memory belongs to one workload:
//!
//! ```text
//! rolo-perfbench --mode e2e|ablation|layers --workload NAME --seed N --seconds S
//! ```
//!
//! - `e2e`: the workload as defined, untimed per callback: `setup_s`
//!   and `run_s` medians.
//! - `ablation`: the same with every observation hook off.
//! - `layers`: alternating untimed and timed runs, plus a standalone
//!   disk-service replay: the per-layer split.
//!
//! Prints one JSON line: `mode`, `workload`, `seed`, `digest`,
//! `attempted`, `failed`, `errors` and `metrics`. Exits 1 if any run
//! panicked, failed its audit or mechanism guard, or produced a
//! different digest from the others.

use rolo_perfbench::stats::{median, median_index, quartiles};
use rolo_perfbench::{replay_service, run_plain, run_timed, PolicyTimes, Run, Setup, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Fewest measured runs per process, however short `--seconds` is.
const MIN_RUNS: usize = 3;
/// Fewest untimed/timed pairs in a `layers` process.
const MIN_PAIRS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    E2e,
    Ablation,
    Layers,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::E2e, Mode::Ablation, Mode::Layers];

    fn name(self) -> &'static str {
        match self {
            Mode::E2e => "e2e",
            Mode::Ablation => "ablation",
            Mode::Layers => "layers",
        }
    }
}

struct Args {
    mode: Mode,
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--mode" => {
                mode = Some(
                    Mode::ALL
                        .into_iter()
                        .find(|m| m.name() == value)
                        .ok_or_else(|| format!("unknown mode {value}"))?,
                )
            }
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("--mode is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    })
}

/// Runs attempted and failed, and the digest every run must share.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: Option<String>,
}

impl Tally {
    /// Runs one simulation, catching a panic, and counts it failed unless
    /// it passes the workload's guard and matches the first digest.
    fn attempt(&mut self, w: Workload, run: impl FnOnce() -> Run) -> Option<Run> {
        self.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(run)) {
            Err(_) => Err("simulation panicked".to_owned()),
            Ok(run) => w.guard(&run.report, &run.obs).and_then(|()| {
                let digest = run.digest();
                match &self.digest {
                    Some(first) if *first != digest => {
                        Err(format!("digest {digest} differs from {first}"))
                    }
                    _ => {
                        self.digest = Some(digest);
                        Ok(run)
                    }
                }
            }),
        };
        verdict
            .map_err(|e| {
                self.failed += 1;
                self.errors.push(e);
            })
            .ok()
    }
}

/// Host times of every set-up in a process. Each measured iteration
/// sets the workload up afresh, so set-up samples spread over the whole
/// window as run samples do, and one trace is in memory at a time.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    records: usize,
}

impl SetupTimes {
    fn set_up(&mut self, args: &Args, observe: bool) -> Result<Setup, String> {
        let setup = Setup::new(args.workload, args.seed, observe)?;
        self.setup_s.push(setup.setup_s);
        self.gen_s.push(setup.gen_s);
        self.records = setup.records.len();
        Ok(setup)
    }

    fn metrics(&self, run_s: &[f64]) -> Metrics {
        vec![
            ("setup_s", median(&self.setup_s).unwrap_or(0.0)),
            ("run_s", median(run_s).unwrap_or(0.0)),
            ("runs", run_s.len() as f64),
            ("run_s.q1", quartiles(run_s).map_or(0.0, |q| q.0)),
            ("run_s.q3", quartiles(run_s).map_or(0.0, |q| q.1)),
            ("trace.records", self.records as f64),
            ("trace.gen_s", median(&self.gen_s).unwrap_or(0.0)),
        ]
    }
}

type Metrics = Vec<(&'static str, f64)>;

/// `e2e` and `ablation`: set up and run until `--seconds` have passed.
fn measure_e2e(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let observe = args.mode == Mode::E2e;
    let mut setups = SetupTimes::default();
    let mut run_s = Vec::new();
    let start = Instant::now();
    while run_s.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let mut setup = setups.set_up(args, observe)?;
        let policy = setup.policy()?;
        if let Some(run) = tally.attempt(args.workload, || run_plain(&setup, policy)) {
            run_s.push(run.run_s);
        }
        if tally.failed > 0 {
            break;
        }
    }
    Ok(setups.metrics(&run_s))
}

/// `layers`: alternating untimed and timed runs (alternating which goes
/// first), then one more timed run that records the completed disk
/// requests for the service replay, and the per-layer split of the
/// median timed run.
fn measure_layers(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut setups = SetupTimes::default();
    let mut plain_s = Vec::new();
    let mut timed: Vec<(f64, PolicyTimes)> = Vec::new();
    let start = Instant::now();
    let mut pair = 0;
    while pair < MIN_PAIRS || start.elapsed().as_secs_f64() < args.seconds {
        let mut setup = setups.set_up(args, true)?;
        for timed_turn in [pair % 2 == 1, pair % 2 == 0] {
            let policy = setup.policy()?;
            let run = tally.attempt(args.workload, || {
                if timed_turn {
                    run_timed(&setup, policy, false)
                } else {
                    run_plain(&setup, policy)
                }
            });
            match run.map(|r| (r.run_s, r.times)) {
                Some((run_s, Some(times))) => timed.push((run_s, times)),
                Some((run_s, None)) => plain_s.push(run_s),
                None => {}
            }
        }
        pair += 1;
        if tally.failed > 0 {
            break;
        }
    }
    let mut m = setups.metrics(&plain_s);
    if tally.failed > 0 {
        return Ok(m);
    }
    let mut setup = setups.set_up(args, true)?;
    let policy = setup.policy()?;
    let Some(run) = tally.attempt(args.workload, || run_timed(&setup, policy, true)) else {
        return Ok(m);
    };
    drop(setup);
    let timed_s: Vec<f64> = timed.iter().map(|(s, _)| *s).collect();
    let (traced_s, times) = timed[median_index(&timed_s).expect("a timed run")];
    let untraced_s = median(&plain_s).unwrap_or(0.0);
    let cfg = args.workload.config(true);
    let (replay_s, replayed) = replay_service(&cfg.disk, cfg.seed, &run.streams);

    let r = &run.report;
    let p = &r.policy;
    let events = r.profile.events_processed as f64;
    let records = setups.records as f64;
    let gen_s = median(&setups.gen_s).unwrap_or(0.0);
    let policy_s = times.total_secs();
    let driver_s = times.driver_self_s(traced_s);
    let gib = |b: u64| b as f64 / (1u64 << 30) as f64;
    let pct_ms = |q: f64| {
        r.responses
            .percentile(q)
            .map_or(0.0, |d| d.as_micros() as f64 / 1e3)
    };
    let spans = run
        .obs
        .spans
        .as_ref()
        .map_or(0, |s| s.requests.len() + s.background.len());
    let exemplar_windows = run.obs.exemplars.as_ref().map_or(0, |e| e.windows.len());
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    m.extend([
        ("trace.ns_per_record", per(gen_s * 1e9, records)),
        ("policy.user_request_s", times.user_request.secs()),
        ("policy.user_request_calls", times.user_request.calls as f64),
        ("policy.user_request_ns", times.user_request.ns_per_call()),
        ("policy.io_complete_s", times.io_complete.secs()),
        ("policy.io_complete_calls", times.io_complete.calls as f64),
        ("policy.io_complete_ns", times.io_complete.ns_per_call()),
        ("policy.power_s", times.power.secs()),
        ("policy.power_calls", times.power.calls as f64),
        ("policy.timer_s", times.timer.secs()),
        ("policy.timer_calls", times.timer.calls as f64),
        ("policy.drain_s", times.drain.secs()),
        ("policy.other_s", times.other.secs()),
        (
            "policy.background_s",
            times.power.secs() + times.timer.secs() + times.drain.secs() + times.other.secs(),
        ),
        ("policy.total_s", policy_s),
        ("policy.share", per(policy_s, traced_s)),
        ("driver.self_s", driver_s),
        ("driver.ns_per_event", per(driver_s * 1e9, events)),
        ("queue.events_processed", events),
        ("queue.events_scheduled", r.profile.events_scheduled as f64),
        (
            "disk.service_ns_per_io",
            per(replay_s * 1e9, replayed as f64),
        ),
        ("disk.replayed_ios", replayed as f64),
        ("disk.spin_cycles", r.spin_cycles as f64),
        ("disk.read_miss_spinups", p.read_miss_spinups as f64),
        ("disk.cache_hit_rate", p.cache_hit_rate()),
        ("journal.log_appended_gib", gib(p.log_appended_bytes)),
        ("journal.destaged_gib", gib(p.destaged_bytes)),
        ("journal.compacted_gib", gib(p.compacted_bytes)),
        ("journal.segments_sealed", p.segments_sealed as f64),
        ("journal.segments_archived", p.segments_archived as f64),
        ("policy.rotations", p.rotations as f64),
        ("policy.destage_cycles", p.destage_cycles as f64),
        ("policy.deactivations", p.deactivations as f64),
        ("policy.direct_writes", p.direct_writes as f64),
        ("obs.spans", spans as f64),
        ("obs.alert_windows", run.obs.slo_alerts.len() as f64),
        ("obs.exemplar_windows", exemplar_windows as f64),
        ("run.untraced_s", untraced_s),
        ("run.traced_s", traced_s),
        ("run.ns_per_event", per(untraced_s * 1e9, events)),
        ("array.energy_mj", r.total_energy_j / 1e6),
        ("array.mean_ms", r.responses.mean_ms()),
        ("array.p50_ms", pct_ms(50.0)),
        ("array.p95_ms", pct_ms(95.0)),
        ("array.p99_ms", pct_ms(99.0)),
        (
            "bench.timing_overhead_frac",
            per(traced_s, untraced_s) - 1.0,
        ),
    ]);
    Ok(m)
}

fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_owned()).to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rolo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let measured = match args.mode {
        Mode::E2e | Mode::Ablation => measure_e2e(&args, &mut tally),
        Mode::Layers => measure_layers(&args, &mut tally),
    };
    let metrics = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("rolo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((name, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("rolo-perfbench: metric {name} is not finite: {v}");
        return ExitCode::from(2);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| format!("{}:{v}", json_str(name)))
        .collect();
    let errors: Vec<String> = tally.errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"mode\":{},\"workload\":{},\"seed\":{},\"digest\":{},\"attempted\":{},\"failed\":{},\"errors\":[{}],\"metrics\":{{{}}}}}",
        json_str(args.mode.name()),
        json_str(args.workload.name()),
        args.seed,
        json_str(tally.digest.as_deref().unwrap_or("")),
        tally.attempted,
        tally.failed,
        errors.join(","),
        body.join(","),
    );
    if tally.failed == 0 && tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
