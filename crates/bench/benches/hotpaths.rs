//! Criterion microbenchmarks of the simulator's hot paths, plus a
//! small end-to-end run per scheme. These guard the substrate's
//! throughput (a simulated week must stay in the seconds range).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rolo_core::ctx::WakeKind;
use rolo_core::logspace::LoggerSpace;
use rolo_core::segment::{clear_owned_journals, owner_bit, SegmentStore};
use rolo_core::{dirty::DirtyMap, Scheme, SimConfig, SimCtx};
use rolo_disk::{DiskParams, IoKind, Priority, ServiceModel};
use rolo_sim::{CalendarQueue, Duration, SimRng, SimTime};
use rolo_trace::SyntheticConfig;
use std::collections::BTreeMap;

fn bench_service_model(c: &mut Criterion) {
    c.bench_function("service_model_random_64k", |b| {
        let mut m = ServiceModel::new(DiskParams::ultrastar_36z15(), SimRng::seed_from(1));
        let mut rng = SimRng::seed_from(2);
        let cap = m.params().capacity_bytes - 64 * 1024;
        b.iter(|| {
            let off = rng.below(cap / 4096) * 4096;
            std::hint::black_box(m.service_time(off, 64 * 1024));
        });
    });
    c.bench_function("service_model_sequential_64k", |b| {
        let mut m = ServiceModel::new(DiskParams::ultrastar_36z15(), SimRng::seed_from(3));
        let mut off = 0u64;
        let cap = m.params().capacity_bytes;
        b.iter(|| {
            if off + 64 * 1024 > cap {
                off = 0;
            }
            std::hint::black_box(m.service_time(off, 64 * 1024));
            off += 64 * 1024;
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("calendar_queue_schedule_pop_1k", |b| {
        let mut rng = SimRng::seed_from(4);
        b.iter_batched(
            CalendarQueue::<u32>::new,
            |mut q| {
                for i in 0..1000u32 {
                    q.schedule(SimTime::from_micros(rng.below(1_000_000)), i);
                }
                while q.pop().is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
    // Steady-state churn: the event-loop shape — pop one, schedule a
    // near-future follow-up — where the calendar's O(1) bucket insert
    // pays off.
    c.bench_function("calendar_queue_churn_16k", |b| {
        let mut rng = SimRng::seed_from(14);
        b.iter_batched(
            || {
                let mut warm = SimRng::seed_from(15);
                let mut q = CalendarQueue::<u32>::new();
                for i in 0..64u32 {
                    q.schedule(SimTime::from_micros(warm.below(10_000)), i);
                }
                q
            },
            |mut q| {
                for i in 0..16_384u32 {
                    let ev = q.pop().expect("queue stays warm");
                    q.schedule(ev.time + Duration::from_micros(1 + rng.below(8_000)), i);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

/// The submit → wake → deliver dispatch cycle through `SimCtx`, the
/// per-I/O path under every controller: slab registration, service-time
/// sampling, wake scheduling, and completion classification.
fn bench_dispatch(c: &mut Criterion) {
    c.bench_function("ctx_dispatch_cycle_1k", |b| {
        let cfg = SimConfig::paper_default(Scheme::Raid10, 4);
        let geo = cfg.geometry().expect("valid paper default");
        let standby = vec![false; cfg.disk_count()];
        b.iter_batched(
            || SimCtx::new(&cfg, geo.clone(), &standby),
            |mut ctx| {
                let disks = ctx.disk_count();
                let mut wakes = Vec::new();
                for i in 0..1000u64 {
                    let d = (i as usize) % disks;
                    ctx.submit(
                        d,
                        IoKind::Write,
                        (i % 512) * 4096,
                        4096,
                        Priority::Foreground,
                    );
                    ctx.drain_wakes_into(&mut wakes);
                    for (disk, wake) in wakes.drain(..) {
                        ctx.now = wake.due();
                        std::hint::black_box(ctx.deliver_wake(disk, WakeKind::Io));
                    }
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_logspace(c: &mut Criterion) {
    c.bench_function("logspace_alloc_reclaim_cycle", |b| {
        b.iter_batched(
            || LoggerSpace::new(0, 64 << 20),
            |mut ls| {
                for i in 0..512 {
                    ls.alloc(64 * 1024, i % 8, (i / 64) as u64).unwrap();
                }
                for p in 0..8 {
                    ls.reclaim(|s| s.pair == p);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_dirty_map(c: &mut Criterion) {
    c.bench_function("dirty_map_mark_take", |b| {
        let mut rng = SimRng::seed_from(5);
        b.iter_batched(
            DirtyMap::new,
            |mut d| {
                for _ in 0..1000 {
                    d.mark(rng.below(1 << 30), 64 * 1024);
                }
                while d.take_next(512 * 1024).is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
}

/// The RoLo-R journal path: 20 logger journals (10 pairs, both halves
/// logging), each write committed on a pair's two journals and marked
/// in the written pair's dirty map, interleaved with destage-style
/// 64 KiB extractions whose clears visit only the tagged journals.
fn bench_journal_fanout(c: &mut Criterion) {
    const PAIRS: usize = 10;
    const CHUNK: u64 = 64 * 1024;
    c.bench_function("journal_commit_clear_fanout", |b| {
        let mut rng = SimRng::seed_from(16);
        b.iter_batched(
            || {
                let journals: BTreeMap<usize, SegmentStore> = (0..2 * PAIRS)
                    .map(|d| (d, SegmentStore::new(4 << 20)))
                    .collect();
                (journals, vec![DirtyMap::new(); PAIRS])
            },
            |(mut journals, mut dirty)| {
                let mut lsn = 0;
                for i in 0..1000usize {
                    let pair = rng.below(PAIRS as u64) as usize;
                    let lba = rng.below(1 << 14) * CHUNK;
                    // The on-duty logger pair rotates every 100 writes.
                    let logger = i / 100 % PAIRS;
                    let mut owners = 0;
                    lsn += 1;
                    for disk in [logger, PAIRS + logger] {
                        let j = journals.get_mut(&disk).expect("journal");
                        let rid = j.append(pair, 0, lba, CHUNK).rid;
                        j.commit(rid, lsn);
                        owners |= owner_bit(disk);
                    }
                    dirty[pair].mark_owned(lba, CHUNK, owners);
                    if i % 2 == 1 {
                        let p = (i / 2) % PAIRS;
                        if let Some((off, len, owners)) = dirty[p].take_next_owned(CHUNK) {
                            clear_owned_journals(&mut journals, owners, p, off, len);
                        }
                    }
                }
                std::hint::black_box(journals.len())
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end_10min_4pairs");
    g.sample_size(10);
    for scheme in Scheme::all() {
        g.bench_function(scheme.to_string(), |b| {
            b.iter(|| {
                let mut cfg = SimConfig::paper_default(scheme, 4);
                cfg.logger_region = 64 << 20;
                cfg.graid_log_capacity = 128 << 20;
                let dur = Duration::from_secs(600);
                let wl = SyntheticConfig::motivation_write_only(50.0);
                let r = rolo_core::run_scheme(&cfg, wl.generator(dur, 6), dur);
                assert!(r.consistency.is_ok());
                std::hint::black_box(r.total_energy_j)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_service_model,
    bench_event_queue,
    bench_dispatch,
    bench_logspace,
    bench_dirty_map,
    bench_journal_fanout,
    bench_end_to_end
);
criterion_main!(benches);
