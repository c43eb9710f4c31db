//! Disk-failure recovery planning (§III-C).
//!
//! When a disk fails, only the disks *essential for data recovery* are
//! spun up; disks that are already active are used "silently". The sets
//! differ per scheme, and their sizes are what §IV's reliability
//! comparison turns on:
//!
//! * **RAID10** — the failed disk's partner is already active: nothing
//!   spins up.
//! * **GRAID** — a failed mirror is rebuilt from its (active) primary;
//!   a failed primary requires *all* mirrored disks to spin up (the
//!   mirror is stale and the log disk's copies span every pair's recent
//!   writes, so the paper's analysis charges the full set); a failed log
//!   disk loses no data (second copies only).
//! * **RoLo-P/R** — a failed mirror (on- or off-duty) is rebuilt from
//!   its always-active primary; a failed primary wakes its own mirror
//!   plus only the mirrors that served as on-duty loggers during the
//!   last few logging periods (they hold the primary's recent second
//!   copies).
//! * **RoLo-E** — the failed disk's pair partner holds everything needed:
//!   it spins up unless it belongs to the active logger pair.
//!
//! **Ordering with recovery-by-replay (DESIGN.md §10).** When the
//! failed disk carried a segment journal, the controller first runs
//! [`PolicyLog::replay_after_failure`](crate::journal::PolicyLog::replay_after_failure)
//! over the surviving chains to reconstruct (and cross-check) the dirty
//! maps, and only then executes this plan: the destage and rebuild the plan
//! triggers consume the *replayed* maps, so the §III-C wake set is
//! computed against state that is provably consistent with what the
//! surviving logs contain.

use crate::config::Scheme;
use rolo_disk::DiskId;
use rolo_raid::{ArrayGeometry, DiskRole};
use serde::{Deserialize, Serialize};

/// The set of disks involved in recovering from one disk failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// The failed disk.
    pub failed: DiskId,
    /// Standby disks that must spin up for the recovery.
    pub wake: Vec<DiskId>,
    /// Already-active disks used silently.
    pub silent: Vec<DiskId>,
    /// True if the failure loses no user data even before recovery
    /// (e.g. a GRAID log-disk failure: only second copies are lost).
    pub redundancy_only: bool,
}

impl RecoveryPlan {
    /// Total disks participating in the recovery.
    pub fn disks_involved(&self) -> usize {
        self.wake.len() + self.silent.len()
    }
}

/// Computes the §III-C recovery plan for `failed` under `scheme`.
///
/// `logger_pair` is the current on-duty logger pair (ignored for RAID10
/// and GRAID); `recent_loggers` lists the pairs that served as loggers
/// over the periods whose log copies have not yet been reclaimed —
/// exactly the mirrors holding a failed primary's recent second copies.
///
/// # Panics
///
/// Panics if `failed` is out of range for the scheme's disk count
/// (GRAID has `2 × pairs + 1` disks, the rest `2 × pairs`).
pub fn recovery_plan(
    scheme: Scheme,
    geometry: &ArrayGeometry,
    failed: DiskId,
    logger_pair: usize,
    recent_loggers: &[usize],
) -> RecoveryPlan {
    let pairs = geometry.pairs();
    let graid_log_disk = geometry.disks();
    let max_disk = match scheme {
        Scheme::Graid => graid_log_disk + 1,
        _ => geometry.disks(),
    };
    assert!(failed < max_disk, "disk {failed} out of range");

    // GRAID's dedicated log disk.
    if scheme == Scheme::Graid && failed == graid_log_disk {
        return RecoveryPlan {
            failed,
            wake: Vec::new(),
            silent: (0..pairs).map(|p| geometry.primary_disk(p)).collect(),
            redundancy_only: true,
        };
    }

    let (role, pair) = geometry.disk_role(failed);
    match (scheme, role) {
        (Scheme::Raid10, DiskRole::Primary) => RecoveryPlan {
            failed,
            wake: Vec::new(),
            silent: vec![geometry.mirror_disk(pair)],
            redundancy_only: false,
        },
        (Scheme::Raid10, DiskRole::Mirror) => RecoveryPlan {
            failed,
            wake: Vec::new(),
            silent: vec![geometry.primary_disk(pair)],
            redundancy_only: false,
        },
        (Scheme::Graid, DiskRole::Mirror) => RecoveryPlan {
            failed,
            wake: Vec::new(),
            silent: vec![geometry.primary_disk(pair)],
            redundancy_only: true,
        },
        (Scheme::Graid, DiskRole::Primary) => RecoveryPlan {
            failed,
            // §IV: "all the mirrored disks must be spun up for the
            // recovery of the failure of any primary disk in GRAID".
            wake: (0..pairs).map(|p| geometry.mirror_disk(p)).collect(),
            silent: vec![graid_log_disk],
            redundancy_only: false,
        },
        (Scheme::RoloP | Scheme::RoloR, DiskRole::Mirror) => {
            // On- or off-duty: the pair's primary is always active.
            RecoveryPlan {
                failed,
                wake: Vec::new(),
                silent: vec![geometry.primary_disk(pair)],
                redundancy_only: true,
            }
        }
        (Scheme::RoloP | Scheme::RoloR, DiskRole::Primary) => {
            // The pair's own mirror plus the recent on-duty loggers.
            let mut wake = vec![geometry.mirror_disk(pair)];
            for &lp in recent_loggers {
                let m = geometry.mirror_disk(lp);
                if !wake.contains(&m) {
                    wake.push(m);
                }
            }
            // For RoLo-R the logger pair's *primary* also holds log
            // copies, but primaries are active anyway — unless the
            // failed disk is that very primary, which can hardly serve
            // its own recovery.
            let mut silent = Vec::new();
            if scheme == Scheme::RoloR && geometry.primary_disk(logger_pair) != failed {
                silent.push(geometry.primary_disk(logger_pair));
            }
            // The on-duty mirror is already spinning.
            let on_duty = geometry.mirror_disk(logger_pair);
            if let Some(i) = wake.iter().position(|&d| d == on_duty) {
                wake.remove(i);
                silent.push(on_duty);
            }
            RecoveryPlan {
                failed,
                wake,
                silent,
                redundancy_only: false,
            }
        }
        (Scheme::RoloE, _) => {
            let partner = match role {
                DiskRole::Primary => geometry.mirror_disk(pair),
                DiskRole::Mirror => geometry.primary_disk(pair),
            };
            let active = pair == logger_pair;
            RecoveryPlan {
                failed,
                wake: if active { Vec::new() } else { vec![partner] },
                silent: if active { vec![partner] } else { Vec::new() },
                redundancy_only: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolo_raid::ArrayGeometry;

    fn geo() -> ArrayGeometry {
        ArrayGeometry::new(10, 64 * 1024, 1 << 30, 1 << 30).unwrap()
    }

    #[test]
    fn raid10_uses_partner_silently() {
        let g = geo();
        let p = recovery_plan(Scheme::Raid10, &g, 3, 0, &[]);
        assert!(p.wake.is_empty());
        assert_eq!(p.silent, vec![13]);
        let m = recovery_plan(Scheme::Raid10, &g, 13, 0, &[]);
        assert_eq!(m.silent, vec![3]);
    }

    #[test]
    fn graid_primary_failure_wakes_every_mirror() {
        let g = geo();
        let p = recovery_plan(Scheme::Graid, &g, 2, 0, &[]);
        assert_eq!(p.wake.len(), 10, "all mirrors spin up");
        assert!(!p.redundancy_only);
    }

    #[test]
    fn graid_log_disk_failure_loses_no_data() {
        let g = geo();
        let p = recovery_plan(Scheme::Graid, &g, 20, 0, &[]);
        assert!(p.redundancy_only);
        assert!(p.wake.is_empty());
    }

    #[test]
    fn rolo_p_mirror_failure_is_cheap() {
        let g = geo();
        // On-duty logger fails: its primary (active) takes over silently.
        let p = recovery_plan(Scheme::RoloP, &g, 10, 0, &[0]);
        assert!(p.wake.is_empty());
        assert_eq!(p.silent, vec![0]);
        assert!(p.redundancy_only);
    }

    #[test]
    fn rolo_p_primary_failure_wakes_recent_loggers_only() {
        let g = geo();
        // P3 fails; loggers over unreclaimed periods were pairs 5, 6, 7
        // (7 = current).
        let p = recovery_plan(Scheme::RoloP, &g, 3, 7, &[5, 6, 7]);
        // Wakes M3 + M5 + M6; M7 is the active logger (silent).
        assert_eq!(p.wake, vec![13, 15, 16]);
        assert_eq!(p.silent, vec![17]);
        assert!(p.disks_involved() < 10, "far fewer than GRAID's full set");
    }

    #[test]
    fn rolo_p_beats_graid_on_wake_count() {
        let g = geo();
        let rolo = recovery_plan(Scheme::RoloP, &g, 0, 2, &[1, 2]);
        let graid = recovery_plan(Scheme::Graid, &g, 0, 0, &[]);
        assert!(rolo.wake.len() < graid.wake.len());
    }

    #[test]
    fn rolo_r_logger_primary_counts_as_silent_copy_holder() {
        let g = geo();
        let p = recovery_plan(Scheme::RoloR, &g, 3, 7, &[7]);
        assert!(p.silent.contains(&7), "logger pair's primary is active");
        assert!(p.silent.contains(&17), "on-duty mirror is active");
    }

    #[test]
    fn rolo_e_partner_recovery() {
        let g = geo();
        // Off-duty pair: the partner must wake.
        let p = recovery_plan(Scheme::RoloE, &g, 4, 0, &[]);
        assert_eq!(p.wake, vec![14]);
        // Logger pair: the partner is already active.
        let q = recovery_plan(Scheme::RoloE, &g, 0, 0, &[]);
        assert!(q.wake.is_empty());
        assert_eq!(q.silent, vec![10]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_disk() {
        recovery_plan(Scheme::Raid10, &geo(), 20, 0, &[]);
    }

    #[test]
    fn duplicate_recent_loggers_deduped() {
        let g = geo();
        let p = recovery_plan(Scheme::RoloP, &g, 0, 5, &[3, 3, 4, 4]);
        assert_eq!(p.wake, vec![10, 13, 14]);
    }
}
