//! A [`Policy`] wrapper that times every callback into the controller
//! layer from outside, so host time splits into controller time and
//! driver self time without instrumenting the simulator.

use rolo_core::{Policy, PolicyStats, SimCtx};
use rolo_disk::{DiskId, DiskRequest, IoOutcome};
use rolo_trace::TraceRecord;
use std::cell::Cell;
use std::time::Instant;

/// Host time and call count of one callback kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Host nanoseconds spent inside the callbacks.
    pub ns: u64,
    /// Number of callbacks.
    pub calls: u64,
}

impl Bucket {
    fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn add_to(cell: &Cell<Bucket>, since: Instant) {
        let mut b = cell.get();
        b.add(since);
        cell.set(b);
    }

    fn merged(self, other: Bucket) -> Bucket {
        Bucket {
            ns: self.ns + other.ns,
            calls: self.calls + other.calls,
        }
    }

    /// Host seconds spent inside the callbacks.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// Mean host nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Host time of every callback the driver made into the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyTimes {
    /// `on_user_request`.
    pub user_request: Bucket,
    /// `on_io_complete` and `on_io_error`.
    pub io_complete: Bucket,
    /// `on_spin_up` and `on_spin_down`.
    pub power: Bucket,
    /// `on_timer`.
    pub timer: Bucket,
    /// `begin_drain` and `is_drained`.
    pub drain: Bucket,
    /// Everything else: `attach`, failure and rebuild callbacks, `stats`
    /// and the end-of-run consistency audit.
    pub other: Bucket,
}

impl PolicyTimes {
    /// Host seconds spent in the controller layer, all callbacks.
    pub fn total_secs(&self) -> f64 {
        [
            self.user_request,
            self.io_complete,
            self.power,
            self.timer,
            self.drain,
            self.other,
        ]
        .iter()
        .map(Bucket::secs)
        .sum()
    }

    /// Driver self time of a timed run that took `run_s`: everything
    /// outside the controller callbacks (event queue, `SimCtx`, the disk
    /// models, observation hooks and the wrapper's own clock reads).
    /// With [`PolicyTimes::total_secs`] it adds up to `run_s` exactly.
    pub fn driver_self_s(&self, run_s: f64) -> f64 {
        run_s - self.total_secs()
    }
}

/// Forwards every [`Policy`] callback to `inner`, timing each one. When
/// built with [`TimedPolicy::recording`] it also keeps the completed
/// disk-request stream, `(offset, bytes)` per disk, for a standalone
/// replay through the disk service model; the push happens outside the
/// timed interval, so it lands in driver self time.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    times: PolicyTimes,
    // The `&self` callbacks (`is_drained`, `stats`, `check_consistency`).
    drained: Cell<Bucket>,
    audit: Cell<Bucket>,
    streams: Option<Vec<Vec<(u64, u64)>>>,
}

impl<P: Policy> TimedPolicy<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            times: PolicyTimes::default(),
            drained: Cell::default(),
            audit: Cell::default(),
            streams: None,
        }
    }

    /// Wraps `inner` and records each completed disk request.
    pub fn recording(inner: P) -> Self {
        TimedPolicy {
            streams: Some(Vec::new()),
            ..Self::new(inner)
        }
    }

    /// The callback timings so far.
    pub fn times(&self) -> PolicyTimes {
        PolicyTimes {
            drain: self.times.drain.merged(self.drained.get()),
            other: self.times.other.merged(self.audit.get()),
            ..self.times
        }
    }

    /// The recorded per-disk request streams (empty unless recording).
    pub fn into_streams(self) -> Vec<Vec<(u64, u64)>> {
        self.streams.unwrap_or_default()
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_standby(&self, disk: DiskId) -> bool {
        self.inner.initial_standby(disk)
    }

    fn attach(&mut self, ctx: &mut SimCtx) {
        let t = Instant::now();
        self.inner.attach(ctx);
        self.times.other.add(t);
    }

    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord) {
        let t = Instant::now();
        self.inner.on_user_request(ctx, user_id, rec);
        self.times.user_request.add(t);
    }

    fn on_io_complete(&mut self, ctx: &mut SimCtx, disk: DiskId, req: DiskRequest) {
        let (offset, bytes) = (req.offset, req.bytes);
        let t = Instant::now();
        self.inner.on_io_complete(ctx, disk, req);
        self.times.io_complete.add(t);
        if let Some(streams) = &mut self.streams {
            if streams.len() <= disk {
                streams.resize_with(disk + 1, Vec::new);
            }
            streams[disk].push((offset, bytes));
        }
    }

    // The three callbacks below have default bodies in the trait; they
    // are forwarded explicitly so an override in `inner` is never
    // bypassed by the wrapper's own defaults.
    fn on_io_error(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        req: DiskRequest,
        outcome: IoOutcome,
    ) {
        let t = Instant::now();
        self.inner.on_io_error(ctx, disk, req, outcome);
        self.times.io_complete.add(t);
    }

    fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let t = Instant::now();
        self.inner.on_disk_failure(ctx, disk);
        self.times.other.add(t);
    }

    fn on_rebuild_complete(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let t = Instant::now();
        self.inner.on_rebuild_complete(ctx, disk);
        self.times.other.add(t);
    }

    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let t = Instant::now();
        self.inner.on_spin_up(ctx, disk);
        self.times.power.add(t);
    }

    fn on_spin_down(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let t = Instant::now();
        self.inner.on_spin_down(ctx, disk);
        self.times.power.add(t);
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.times.timer.add(t);
    }

    fn begin_drain(&mut self, ctx: &mut SimCtx) {
        let t = Instant::now();
        self.inner.begin_drain(ctx);
        self.times.drain.add(t);
    }

    fn is_drained(&self, ctx: &SimCtx) -> bool {
        let t = Instant::now();
        let drained = self.inner.is_drained(ctx);
        Bucket::add_to(&self.drained, t);
        drained
    }

    fn stats(&self) -> PolicyStats {
        let t = Instant::now();
        let stats = self.inner.stats();
        Bucket::add_to(&self.audit, t);
        stats
    }

    fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String> {
        let t = Instant::now();
        let audit = self.inner.check_consistency(ctx);
        Bucket::add_to(&self.audit, t);
        audit
    }
}
