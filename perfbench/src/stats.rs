//! Statistics helpers shared by every workload, kept free of I/O so the
//! unit tests below pin them exactly.

/// Per-input best of passes: `passes[p][i]` is input `i`'s time in pass
/// `p`; the result holds each input's fastest pass.
///
/// The machine this benchmark was tuned on runs in speed phases that
/// flip every 0.3–5 s, so any one pass may be slowed as a whole. The
/// fastest pass of each input is the value that repeats between runs.
pub fn best_of_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    let width = passes.first().map_or(0, Vec::len);
    (0..width)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Per-input first quartile of passes: `passes[p][i]` is input `i`'s
/// time in pass `p`; the result holds each input's nearest-rank 25th
/// percentile over passes. Used on reference-normalised times, where it
/// is steadier than the single fastest pass because a ratio of two
/// timings can dip on one outlier of the divisor.
pub fn quartile_of_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    let width = passes.first().map_or(0, Vec::len);
    (0..width)
        .map(|i| percentile(&passes.iter().map(|p| p[i]).collect::<Vec<_>>(), 25.0))
        .collect()
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples: the
/// smallest sample with at least `p`% of all samples at or below it.
/// Returns 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Interquartile mean: the mean of the values left when the lowest and
/// the highest quarter (rounded down) are dropped. 0 for no values.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// that the union of its children's intervals covers. Children may
/// overlap one another and may stick out of the parent; only the covered
/// part inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// The step of the serve lane's walk over a hot set of `len` entries:
/// the first step at or above `len` / φ that is coprime to `len`. A walk
/// with it visits every entry once per `len` steps, and any short stretch
/// of it spreads over the whole hot set, where the hot set's own order
/// (paper-suite: sizes ascending) would cluster the costly entries.
pub fn miss_stride(len: usize) -> usize {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = ((len as f64 * 0.618).round() as usize).max(1);
    while gcd(stride, len) != 1 {
        stride += 1;
    }
    stride
}

/// Whether `name` is a valid metric or workload name: 1 to 64
/// characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_passes_keeps_each_inputs_fastest_pass() {
        let passes = vec![
            vec![5.0, 2.0, 9.0],
            vec![4.0, 3.0, 9.5],
            vec![6.0, 2.5, 8.0],
        ];
        assert_eq!(best_of_passes(&passes), vec![4.0, 2.0, 8.0]);
        assert!(best_of_passes(&[]).is_empty());
    }

    #[test]
    fn quartile_of_passes_keeps_each_inputs_fast_quarter() {
        let passes: Vec<Vec<f64>> = (1..=8)
            .map(|p| vec![f64::from(p), f64::from(9 - p)])
            .collect();
        assert_eq!(quartile_of_passes(&passes), vec![2.0, 2.0]);
        assert!(quartile_of_passes(&[]).is_empty());
    }

    #[test]
    fn geomean_of_known_values() {
        use oneq_bench::geomean;
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 91.0), 10.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_at_each_end() {
        // 8 values: the lowest 2 and the highest 2 are dropped.
        let values = [9.0, 1.0, 4.0, 100.0, 5.0, 3.0, 6.0, 0.0];
        assert_eq!(interquartile_mean(&values), (3.0 + 4.0 + 5.0 + 6.0) / 4.0);
        // 7 values: one dropped at each end.
        assert_eq!(
            interquartile_mean(&[7.0, 1.0, 2.0, 3.0, 4.0, 5.0, 50.0]),
            4.2
        );
        // Fewer than 4 values: nothing dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 50)]), 60);
        // A child nested in another counts once.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
        // Fully covered.
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }

    #[test]
    fn miss_stride_visits_every_entry_once_per_cycle() {
        for len in 1..=40 {
            let stride = miss_stride(len);
            let mut seen: Vec<usize> = (0..len).map(|k| k * stride % len).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len {len}");
        }
        assert_eq!(miss_stride(7), 4);
        assert_eq!(miss_stride(36), 23);
        assert_eq!(miss_stride(6), 5);
    }

    #[test]
    fn metric_name_and_unit_grammar() {
        for ok in [
            "setup_s",
            "core.shuffle_ms",
            "hit_p50_ms",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/no", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_request", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
