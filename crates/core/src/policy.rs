//! The controller-policy interface and the statistics every policy
//! reports.

use crate::ctx::SimCtx;
use rolo_disk::{DiskId, DiskRequest, IoOutcome};
use rolo_trace::TraceRecord;
use serde::{Deserialize, Serialize};

/// Scheme-specific counters reported alongside the common metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyStats {
    /// Logger rotations (RoLo-P/R) or destage-cycle logger-pair advances
    /// (RoLo-E).
    pub rotations: u64,
    /// Completed centralized destage cycles (GRAID / RoLo-E) or completed
    /// per-pair destage processes (RoLo-P/R).
    pub destage_cycles: u64,
    /// Bytes written to mirrors by destaging.
    pub destaged_bytes: u64,
    /// Bytes appended to logging space.
    pub log_appended_bytes: u64,
    /// RoLo-E read-cache hits.
    pub cache_hits: u64,
    /// RoLo-E read-cache misses.
    pub cache_misses: u64,
    /// Read misses that found the target disk spun down.
    pub read_miss_spinups: u64,
    /// Times logging was deactivated for lack of free space (§III-E).
    pub deactivations: u64,
    /// Writes that bypassed the logger (deactivated/full fallback).
    pub direct_writes: u64,
    /// Log segments sealed across all journals (DESIGN.md §10).
    pub segments_sealed: u64,
    /// Fully-dead log segments folded into archive frames.
    pub segments_archived: u64,
    /// Archive frames retired after their TTL.
    pub frames_retired: u64,
    /// Live bytes relocated by the background compactor.
    pub compacted_bytes: u64,
    /// Recovery-by-replay passes run after logger failures.
    pub log_replays: u64,
    /// Torn (uncommitted or checksum-failed) records found by replay.
    pub torn_records: u64,
    /// Replays whose reconstructed dirty maps diverged from the
    /// controller's in-memory state (must stay zero).
    pub replay_divergence: u64,
}

impl PolicyStats {
    /// RoLo-E read hit rate over all cache lookups (Table V).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }
}

/// A storage-array controller driving the simulated disks.
///
/// The driver invokes these callbacks in event order; implementations
/// submit disk I/O and power transitions through the [`SimCtx`].
pub trait Policy {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Which disks begin the run spun down.
    fn initial_standby(&self, disk: DiskId) -> bool;

    /// Called once before the first event.
    fn attach(&mut self, ctx: &mut SimCtx);

    /// A user request arrives. `user_id` is pre-registered by the policy
    /// via [`SimCtx::register_user`] inside this call.
    ///
    /// When span tracing is enabled ([`SimCtx::enable_spans`]), policies
    /// additionally tag every *foreground* sub-I/O they submit on behalf
    /// of the request with [`SimCtx::tag_io`], naming the phase the leg
    /// contributes to (`Transfer` for the primary in-place copy,
    /// `MirrorCopy` for the second copy, `LogAppend` for log-region
    /// appends, `DegradedRedirect` for reads re-served by a surviving
    /// partner). `tag_io` is a no-op when spans are disabled, so the
    /// calls cost nothing on the fast path; background I/O (destage,
    /// rebuild, cache fill) stays untagged and is attributed to requests
    /// indirectly, through the interference windows the disks record.
    fn on_user_request(&mut self, ctx: &mut SimCtx, user_id: u64, rec: &TraceRecord);

    /// A sub-request completed on `disk`.
    fn on_io_complete(&mut self, ctx: &mut SimCtx, disk: DiskId, req: DiskRequest);

    /// A sub-request on `disk` finished abnormally: a latent sector
    /// error, a timed-out request whose retry budget ran out, or an I/O
    /// aborted by the disk's death.
    ///
    /// The default forwards to [`Policy::on_io_complete`], so request
    /// accounting always closes and nothing is silently dropped; policies
    /// with a degraded mode override this to redirect failed user reads
    /// to a surviving copy first.
    fn on_io_error(
        &mut self,
        ctx: &mut SimCtx,
        disk: DiskId,
        req: DiskRequest,
        outcome: IoOutcome,
    ) {
        let _ = outcome;
        self.on_io_complete(ctx, disk, req);
    }

    /// The disk in slot `disk` died and a blank hot spare was installed
    /// in its place (see [`SimCtx::fail_disk`]). Policies start their
    /// degraded mode here: compute the recovery plan, kick the rebuild,
    /// and drop any internal state that lived on the dead disk. The
    /// default does nothing — adequate only for schemes without
    /// scheme-level failure handling.
    fn on_disk_failure(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let _ = (ctx, disk);
    }

    /// The rebuild of slot `disk` completed: the replacement now holds a
    /// full copy and normal routing may resume. Default: nothing.
    fn on_rebuild_complete(&mut self, ctx: &mut SimCtx, disk: DiskId) {
        let _ = (ctx, disk);
    }

    /// `disk` finished spinning up.
    fn on_spin_up(&mut self, ctx: &mut SimCtx, disk: DiskId);

    /// `disk` finished spinning down.
    fn on_spin_down(&mut self, ctx: &mut SimCtx, disk: DiskId);

    /// A policy timer set via [`SimCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut SimCtx, token: u64);

    /// The trace is exhausted: push all remaining state to stable storage
    /// (spin up what is needed, destage everything). Idempotent — the
    /// driver may call it again if progress stalls.
    fn begin_drain(&mut self, ctx: &mut SimCtx);

    /// True once all mirrors are consistent and all logging space
    /// reclaimed.
    fn is_drained(&self, ctx: &SimCtx) -> bool;

    /// Scheme-specific statistics.
    fn stats(&self) -> PolicyStats;

    /// End-of-run internal-consistency audit; returns a description of
    /// the first violated invariant, if any.
    fn check_consistency(&self, ctx: &SimCtx) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty() {
        let s = PolicyStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        let s = PolicyStats {
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
