//! Order statistics, the tail-percentile rule and the self-time ledger.

use std::collections::BTreeMap;

/// The median of `xs` (mean of the middle pair for even counts); `0.0`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The samples every tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail reading: which percentile, its value, and how many samples it
/// was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest percentile that still has at least [`TAIL_BEYOND`]
/// samples above it: with `n` sorted samples that is the `(n - 10)`-th,
/// i.e. percentile `100 (n - 10) / n`. With `n <= 10` no percentile has
/// ten samples beyond it, and the maximum (p100) is reported instead.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Tail {
            percentile: 100.0,
            value: v.last().copied().unwrap_or(0.0),
            samples: n,
        };
    }
    let rank = n - TAIL_BEYOND;
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    }
}

/// One timed interval of a ledger row, in seconds from the pass start.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Ledger row the interval belongs to.
    pub row: String,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

/// A wall-time ledger: per-row self time and the unaccounted gap.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Self time per row, seconds. Rows sum to `wall - gap`.
    pub rows: BTreeMap<String, f64>,
    /// Wall time no interval covered, seconds.
    pub gap: f64,
    /// The pass wall time, seconds.
    pub wall: f64,
}

impl Ledger {
    /// The gap as a percentage of the wall time.
    pub fn gap_pct(&self) -> f64 {
        if self.wall > 0.0 {
            100.0 * self.gap / self.wall
        } else {
            0.0
        }
    }
}

/// Splits the wall time `[0, wall]` into non-overlapping self time per
/// row: every instant covered by `k` intervals gives `1/k` of itself to
/// each. Concurrent intervals (two campaign groups' stages, two
/// connections' requests) therefore never count twice, and the rows plus
/// the gap sum to exactly `wall`.
pub fn ledger(wall: f64, intervals: &[Interval]) -> Ledger {
    let clip = |t: f64| t.clamp(0.0, wall);
    let mut cuts: Vec<f64> = vec![0.0, wall];
    for iv in intervals {
        cuts.push(clip(iv.start));
        cuts.push(clip(iv.end));
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut rows: BTreeMap<String, f64> = BTreeMap::new();
    for iv in intervals {
        rows.entry(iv.row.clone()).or_insert(0.0);
    }
    let mut gap = 0.0;
    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let active: Vec<&Interval> = intervals
            .iter()
            .filter(|iv| clip(iv.start) <= a && clip(iv.end) >= b)
            .collect();
        if active.is_empty() {
            gap += b - a;
            continue;
        }
        let share = (b - a) / active.len() as f64;
        for iv in active {
            *rows.get_mut(&iv.row).expect("row registered above") += share;
        }
    }
    Ledger { rows, gap, wall }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(row: &str, start: f64, end: f64) -> Interval {
        Interval {
            row: row.to_owned(),
            start,
            end,
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.samples, 40);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.value, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value), (90.0, 90.0));

        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_ten_or_fewer_samples_is_the_maximum() {
        let t = tail(&[0.2, 0.9, 0.4]);
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 0.9, 3));
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 10.0);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn ledger_splits_overlap_and_reports_the_gap() {
        // [0,1) a alone, [1,2) a+b, [2,3) b alone, [3,4) nothing.
        let l = ledger(4.0, &[iv("a", 0.0, 2.0), iv("b", 1.0, 3.0)]);
        assert!((l.rows["a"] - 1.5).abs() < 1e-12);
        assert!((l.rows["b"] - 1.5).abs() < 1e-12);
        assert!((l.gap - 1.0).abs() < 1e-12);
        assert!((l.gap_pct() - 25.0).abs() < 1e-9);
        let total: f64 = l.rows.values().sum::<f64>() + l.gap;
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_clips_to_the_wall_and_merges_same_row_intervals() {
        let l = ledger(
            2.0,
            &[iv("s", -1.0, 0.5), iv("s", 0.5, 1.0), iv("t", 1.5, 9.0)],
        );
        assert!((l.rows["s"] - 1.0).abs() < 1e-12);
        assert!((l.rows["t"] - 0.5).abs() < 1e-12);
        assert!((l.gap - 0.5).abs() < 1e-12);
        assert_eq!(ledger(1.0, &[]).gap_pct(), 100.0);
    }
}
