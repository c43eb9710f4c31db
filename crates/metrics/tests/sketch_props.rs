//! Property tests for the quantile sketch (DESIGN.md §12): merging is
//! associative and commutative, and sketch quantiles stay within the
//! 1 % relative-error bound of the exact sample percentiles across
//! latency-shaped inputs (µs-scale cache hits through multi-second
//! spin-up stalls — the bench matrix's dynamic range).

use proptest::prelude::*;
use rolo_metrics::{exact_percentile, QuantileSketch};

/// One drawn sample stream: a scale index (spreads streams across the
/// µs → multi-second latency decades) and raw values within the scale.
type StreamDraw = (usize, Vec<u64>);

fn stream_strategy() -> impl Strategy<Value = StreamDraw> {
    (0usize..6, proptest::collection::vec(1u64..100_000, 1..200))
}

/// Scales a draw into f64 samples: decade `d` multiplies by 10^d, so
/// streams cover 1 µs up to ~10^10 µs.
fn samples_of((decade, raw): &StreamDraw) -> Vec<f64> {
    let scale = 10f64.powi(*decade as i32);
    raw.iter().map(|&v| v as f64 * scale).collect()
}

fn sketch_of(samples: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in samples {
        s.record(v);
    }
    s
}

proptest! {
    /// (a ∪ b) ∪ c == a ∪ (b ∪ c): merge order cannot change any
    /// reported state.
    #[test]
    fn merge_is_associative(
        a in stream_strategy(),
        b in stream_strategy(),
        c in stream_strategy(),
    ) {
        let (sa, sb, sc) = (
            sketch_of(&samples_of(&a)),
            sketch_of(&samples_of(&b)),
            sketch_of(&samples_of(&c)),
        );
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// a ∪ b == b ∪ a.
    #[test]
    fn merge_is_commutative(a in stream_strategy(), b in stream_strategy()) {
        let (sa, sb) = (sketch_of(&samples_of(&a)), sketch_of(&samples_of(&b)));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// Every ladder quantile of a merged sketch lands within 1 % of
    /// the exact percentile over the pooled samples (the sketch and
    /// `exact_percentile` share the same rank convention).
    #[test]
    fn quantiles_within_one_percent_of_exact(
        a in stream_strategy(),
        b in stream_strategy(),
    ) {
        let mut pooled = samples_of(&a);
        pooled.extend(samples_of(&b));
        let mut merged = sketch_of(&samples_of(&a));
        merged.merge(&sketch_of(&samples_of(&b)));
        prop_assert_eq!(merged.count(), pooled.len() as u64);
        for p in [50.0, 90.0, 95.0, 99.0] {
            let exact = exact_percentile(&pooled, p).unwrap();
            let est = merged.percentile(p).unwrap();
            let err = (est / exact - 1.0).abs();
            prop_assert!(
                err < 0.01,
                "p{}: sketch {} vs exact {} (err {})", p, est, exact, err
            );
        }
    }
}
