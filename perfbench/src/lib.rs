//! Serial end-to-end and per-layer benchmark of the RoLo simulator.
//!
//! Three workloads run one at a time, single-threaded: one where RoLo-P
//! rotates and destages through a small logger, one where RoLo-E spins
//! disks up on read misses with every observation hook on, and a bare
//! RAID10 control that bypasses logging, power management and
//! observation. Host time splits across layers from outside the
//! simulator: a timing [`Policy`](rolo_core::Policy) wrapper, timed trace
//! generation, a standalone disk-service replay and an observation-off
//! ablation. `run.py` next to this package is the entry point.

pub mod stats;
pub mod timed;
pub mod workload;

pub use timed::{Bucket, PolicyTimes, TimedPolicy};
pub use workload::{replay_service, run_plain, run_timed, Built, Run, Setup, Workload};
