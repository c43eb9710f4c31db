//! Differential harness: [`CalendarQueue`] vs an ordered-map reference
//! model of the future-event-list contract, driven in lockstep through
//! randomized schedule/pop interleavings.
//!
//! The calendar queue is the simulator's future-event list; every
//! byte-identical-determinism guarantee leans on its `(time, seq)`
//! delivery contract. The model states that contract in the plainest
//! form — a `BTreeMap` keyed by `(time, seq)` — and every case here
//! asserts the two agree on the *entire* observable surface: pop sequence
//! (time, seq, payload), clock, length, and lifetime counters — including
//! the corners where a bucketed design can diverge: same-instant ties,
//! scheduling into the bucket currently being drained, far-future
//! overflow spill and migration, and events landing exactly on
//! bucket/horizon boundaries.

use proptest::prelude::*;
use rolo_sim::{CalendarQueue, Duration, ScheduledEvent, SimTime};
use std::collections::BTreeMap;

/// Reference future-event list: pending events ordered by `(time, seq)`.
struct Model<T> {
    events: BTreeMap<(SimTime, u64), T>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<T> Model<T> {
    fn new() -> Self {
        Model {
            events: BTreeMap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    /// Past-due schedules clamp to `now` (debug builds panic, as the
    /// queue does).
    fn schedule(&mut self, time: SimTime, payload: T) -> u64 {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.insert((time.max(self.now), seq), payload);
        seq
    }

    fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        let ((time, seq), payload) = self.events.pop_first()?;
        self.now = time;
        self.popped += 1;
        Some(ScheduledEvent { time, seq, payload })
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.events.keys().next().map(|&(t, _)| t)
    }

    fn len(&self) -> usize {
        self.events.len()
    }

    /// Drops the pending events; the clock and counters are unchanged.
    fn clear(&mut self) {
        self.events.clear();
    }

    fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    fn popped_total(&self) -> u64 {
        self.popped
    }
}

/// Pops one event from both queues and asserts full observable agreement.
fn pop_both(
    model: &mut Model<u64>,
    cal: &mut CalendarQueue<u64>,
) -> Result<Option<ScheduledEvent<u64>>, TestCaseError> {
    let a = model.pop();
    let b = cal.pop();
    match (&a, &b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            prop_assert_eq!(x.time, y.time, "due times diverged");
            prop_assert_eq!(x.seq, y.seq, "sequence numbers diverged");
            prop_assert_eq!(x.payload, y.payload, "payloads diverged");
        }
        _ => prop_assert!(false, "one queue empty while the other pops"),
    }
    prop_assert_eq!(model.now(), cal.now(), "clocks diverged");
    prop_assert_eq!(model.len(), cal.len(), "lengths diverged");
    prop_assert_eq!(model.popped_total(), cal.popped_total());
    Ok(a)
}

/// Schedules the same event on both queues; sequence numbers must match.
fn schedule_both(
    model: &mut Model<u64>,
    cal: &mut CalendarQueue<u64>,
    time: SimTime,
    payload: u64,
) -> Result<(), TestCaseError> {
    let sa = model.schedule(time, payload);
    let sb = cal.schedule(time, payload);
    prop_assert_eq!(sa, sb, "schedule() returned different seqs");
    prop_assert_eq!(model.scheduled_total(), cal.scheduled_total());
    prop_assert_eq!(model.len(), cal.len());
    Ok(())
}

proptest! {
    /// Randomized interleavings of schedules (at arbitrary offsets from
    /// the advancing clock) and pops, on the production geometry. Offsets
    /// up to ~8 s straddle the default 4.2 s ring horizon, so both ring
    /// and overflow paths are exercised; offset 0 produces same-instant
    /// ties and schedule-during-drain inserts into the current bucket.
    #[test]
    fn prop_lockstep_default_geometry(
        ops in proptest::collection::vec((0u64..8_000_000, 0usize..4), 1..200)
    ) {
        let mut model = Model::new();
        let mut cal = CalendarQueue::new();
        for (idx, (delta, pops)) in ops.into_iter().enumerate() {
            let t = model.now() + Duration::from_micros(delta);
            schedule_both(&mut model, &mut cal, t, idx as u64)?;
            for _ in 0..pops {
                pop_both(&mut model, &mut cal)?;
            }
        }
        while pop_both(&mut model, &mut cal)?.is_some() {}
        prop_assert_eq!(model.scheduled_total(), cal.scheduled_total());
        prop_assert_eq!(model.popped_total(), cal.popped_total());
        prop_assert_eq!(cal.popped_total(), cal.scheduled_total());
    }

    /// Same interleavings on a pathologically tiny ring (4 buckets × 4 µs
    /// = 16 µs horizon): almost everything spills to overflow and the
    /// ring wraps thousands of times, hammering migration and the
    /// empty-ring jump.
    #[test]
    fn prop_lockstep_tiny_ring(
        ops in proptest::collection::vec((0u64..500, 0usize..4), 1..200)
    ) {
        let mut model = Model::new();
        let mut cal = CalendarQueue::with_geometry(2, 2);
        for (idx, (delta, pops)) in ops.into_iter().enumerate() {
            let t = model.now() + Duration::from_micros(delta);
            schedule_both(&mut model, &mut cal, t, idx as u64)?;
            for _ in 0..pops {
                pop_both(&mut model, &mut cal)?;
            }
        }
        while pop_both(&mut model, &mut cal)?.is_some() {}
        prop_assert_eq!(cal.popped_total(), cal.scheduled_total());
    }

    /// Bucket-boundary times: every scheduled time is a multiple (or
    /// off-by-one neighbor) of the bucket width and the ring horizon, the
    /// exact edges where a window-indexing bug would flip an event into
    /// the wrong bucket or tier.
    #[test]
    fn prop_lockstep_bucket_boundaries(
        cells in proptest::collection::vec((0u64..40, 0i64..3, 0usize..3), 1..150)
    ) {
        const WIDTH: u64 = 1 << 13; // default bucket width, µs
        const HORIZON: u64 = WIDTH << 9; // default ring horizon, µs
        let mut model = Model::new();
        let mut cal = CalendarQueue::new();
        for (idx, (windows, jitter, pops)) in cells.into_iter().enumerate() {
            // windows × width ± {0,1}, occasionally bumped past the horizon.
            let base =
                model.now().as_micros() + windows * WIDTH + if windows == 39 { HORIZON } else { 0 };
            let t = match jitter {
                0 => base,
                1 => base + 1,
                _ => base.saturating_sub(1).max(model.now().as_micros()),
            };
            schedule_both(&mut model, &mut cal, SimTime::from_micros(t), idx as u64)?;
            for _ in 0..pops {
                pop_both(&mut model, &mut cal)?;
            }
        }
        while pop_both(&mut model, &mut cal)?.is_some() {}
    }

    /// Bursts of same-instant events interleaved with pops: FIFO
    /// tie-breaking must match the model exactly even when the burst lands
    /// in the bucket currently being drained.
    #[test]
    fn prop_lockstep_same_instant_bursts(
        bursts in proptest::collection::vec((0u64..2_000, 1usize..12, 0usize..6), 1..60)
    ) {
        let mut model = Model::new();
        let mut cal = CalendarQueue::new();
        let mut idx = 0u64;
        for (delta, burst, pops) in bursts {
            let t = model.now() + Duration::from_micros(delta);
            for _ in 0..burst {
                schedule_both(&mut model, &mut cal, t, idx)?;
                idx += 1;
            }
            for _ in 0..pops {
                pop_both(&mut model, &mut cal)?;
            }
        }
        while pop_both(&mut model, &mut cal)?.is_some() {}
    }
}

/// Deterministic worst case: drain a bucket while a chain of completions
/// keeps rescheduling into it (the disk-service pattern), with a
/// far-future housekeeping tick pending the whole time.
#[test]
fn chained_reschedule_with_pending_overflow() {
    let mut model = Model::new();
    let mut cal = CalendarQueue::new();
    model.schedule(SimTime::from_secs(3600), u64::MAX);
    cal.schedule(SimTime::from_secs(3600), u64::MAX);
    model.schedule(SimTime::from_micros(10), 0);
    cal.schedule(SimTime::from_micros(10), 0);
    for i in 0..10_000u64 {
        let (a, b) = (model.pop().unwrap(), cal.pop().unwrap());
        assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
        assert_eq!(a.payload, i);
        // Each completion schedules the next, 7 µs out (crosses bucket
        // boundaries every ~146 events).
        let t = model.now() + Duration::from_micros(7);
        model.schedule(t, i + 1);
        cal.schedule(t, i + 1);
    }
    // Drain: the chain tail, then the overflow tick.
    let mut rest = 0;
    loop {
        match (model.pop(), cal.pop()) {
            (Some(a), Some(b)) => {
                assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
                rest += 1;
            }
            (None, None) => break,
            _ => panic!("queues diverged on emptiness"),
        }
    }
    assert_eq!(rest, 2);
    assert_eq!(model.popped_total(), cal.popped_total());
    assert_eq!(model.scheduled_total(), cal.scheduled_total());
}

/// `clear` drops pending events from both tiers but keeps the clock,
/// the sequence counter and the lifetime counters; scheduling resumes
/// from there.
#[test]
fn clear_keeps_clock_and_counters() {
    let mut model = Model::new();
    let mut cal = CalendarQueue::new();
    for (i, t) in [5u64, 9, 3_600_000_000, 12].into_iter().enumerate() {
        model.schedule(SimTime::from_micros(t), i as u64);
        cal.schedule(SimTime::from_micros(t), i as u64);
    }
    let (a, b) = (model.pop().unwrap(), cal.pop().unwrap());
    assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
    model.clear();
    cal.clear();
    assert_eq!(
        (model.len(), model.peek_time()),
        (cal.len(), cal.peek_time())
    );
    assert_eq!(model.now(), cal.now());
    assert_eq!(model.scheduled_total(), cal.scheduled_total());
    assert_eq!(model.popped_total(), cal.popped_total());
    let t = model.now() + Duration::from_micros(3);
    assert_eq!(model.schedule(t, 7), cal.schedule(t, 7));
    assert_eq!(model.peek_time(), cal.peek_time());
    let (a, b) = (model.pop().unwrap(), cal.pop().unwrap());
    assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
    assert!(model.pop().is_none() && cal.pop().is_none());
}

/// Release builds clamp a past-due schedule to the clock (debug builds
/// panic instead); run with `cargo test --release`.
#[cfg(not(debug_assertions))]
#[test]
fn past_schedule_clamps_to_now() {
    let mut model = Model::new();
    let mut cal = CalendarQueue::new();
    model.schedule(SimTime::from_micros(50), 0);
    cal.schedule(SimTime::from_micros(50), 0);
    model.pop();
    cal.pop();
    assert_eq!(
        model.schedule(SimTime::from_micros(10), 1),
        cal.schedule(SimTime::from_micros(10), 1)
    );
    let (a, b) = (model.pop().unwrap(), cal.pop().unwrap());
    assert_eq!((a.time, a.seq, a.payload), (b.time, b.seq, b.payload));
    assert_eq!(a.time, SimTime::from_micros(50));
}
