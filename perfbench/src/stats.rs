//! Order statistics over repeated measurements, with the same
//! conventions as Python's `statistics.median` and
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so figures from this package and from `spread.py` agree digit for
//! digit.

/// Median of `values`: the middle element, or the mean of the two
/// middle elements for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the exclusive method. `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    // Python's integer arithmetic: `delta` may go negative for tiny
    // samples, extrapolating past the extremes exactly as Python does.
    const N: i64 = 4;
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / N).clamp(1, ld as i64 - 1);
        let delta = i * m - j * N;
        let j = j as usize;
        (s[j - 1] * (N - delta) as f64 + s[j] * delta as f64) / N as f64
    };
    Some((cut(1), cut(3)))
}

/// Index of the run whose value is the lower median: the run the
/// per-layer split is reported from, so its parts add up exactly.
pub fn median_index(values: &[f64]) -> Option<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    idx.get(values.len().checked_sub(1)? / 2).copied()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    // Expected values are Python's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        let odd = [9.0, 1.0, 7.0, 3.0, 5.0];
        assert_eq!(quartiles(&odd), Some((2.0, 8.0)));
    }

    #[test]
    fn median_index_picks_lower_middle() {
        assert_eq!(median_index(&[]), None);
        assert_eq!(median_index(&[3.0, 1.0, 2.0]), Some(2));
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), Some(3));
    }
}
