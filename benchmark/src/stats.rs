//! Summary statistics: medians, quartiles, the tail-percentile rule, and the
//! verdict `compare` gives a metric measured on two sets of runs.

/// Median of the values (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method), so the
/// spreads printed here match the ones an external check computes.  A single
/// value is its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let ld = data.len() as i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A tail latency: the value and the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
}

/// The tail of a sample: the highest percentile, in steps of 5, that leaves at
/// least ten samples beyond it (nearest-rank).  Samples of fewer than 20 values
/// have no such percentile above the median, so their tail is the median.
pub fn tail(values: &[f64]) -> Tail {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 20 {
        return Tail {
            percentile: 50,
            value: median(values),
        };
    }
    let mut percentile = 95;
    // Nearest rank of percentile p is ceil(p·n/100); it must leave 10 beyond.
    while n - (percentile as usize * n).div_ceil(100) < 10 {
        percentile -= 5;
    }
    let rank = (percentile as usize * n).div_ceil(100);
    Tail {
        percentile,
        value: data[rank - 1],
    }
}

/// How a metric moved from side A (the parent) to side B (the change).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by more than A's own run-to-run spread (or every B run
    /// beats every A run).
    Better,
    /// Within the bound and not clearly better.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse-beyond-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The spread of a sample: interquartile distance over the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    relative(q3 - q1, med)
}

fn relative(delta: f64, base: f64) -> f64 {
    if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        delta / base.abs()
    }
}

/// Compares A and B for one metric with the given direction and bound (a
/// share of A's median), following the rule that a spread wider than the
/// bound leaves the metric unresolved unless every B run beats every A run.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    // Orient so that larger is always worse.
    let worse = |x: f64| if lower_is_better { x } else { -x };
    let a_best = a.iter().map(|&x| worse(x)).fold(f64::INFINITY, f64::min);
    let b_worst = b
        .iter()
        .map(|&x| worse(x))
        .fold(f64::NEG_INFINITY, f64::max);
    if !a.is_empty() && !b.is_empty() && b_worst < a_best {
        return Verdict::Better;
    }
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let (q1, med_a, q3) = quartiles(a);
    let med_b = median(b);
    let change = relative(worse(med_b) - worse(med_a), med_a);
    if change > bound {
        Verdict::Worse
    } else if -change > relative(q3 - q1, med_a) && change < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond_it() {
        let values = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        // n = 70: p85 has rank 60 and 10 samples beyond; p90 would leave 7.
        assert_eq!(
            tail(&values(70)),
            Tail {
                percentile: 85,
                value: 60.0
            }
        );
        // n = 150: p90 has rank 135 (15 beyond); p95 would leave 7.
        assert_eq!(tail(&values(150)).percentile, 90);
        assert_eq!(tail(&values(150)).value, 135.0);
        // n = 1000: p95 leaves 50 beyond.
        assert_eq!(tail(&values(1000)).percentile, 95);
        // n = 20: only the median leaves ten beyond.
        assert_eq!(tail(&values(20)).percentile, 50);
        assert_eq!(tail(&values(20)).value, 10.0);
        // Too few samples: the tail falls back to the median.
        assert_eq!(tail(&values(9)).value, 5.0);
        for n in 20..400 {
            let t = tail(&values(n));
            let beyond = values(n).iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= 10, "n={n}: {t:?} leaves {beyond}");
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        // Unchanged code: same.
        assert_eq!(verdict(&base, &base, true, 0.10), Verdict::Same);
        // 20% slower on a lower-is-better metric: worse beyond a 10% bound.
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &slower, true, 0.10), Verdict::Worse);
        // 5% slower stays within the bound.
        let slightly: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&base, &slightly, true, 0.10), Verdict::Same);
        // Every B run faster than every A run: better.
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&base, &faster, true, 0.10), Verdict::Better);
        // The same numbers on a higher-is-better metric flip the verdicts.
        assert_eq!(verdict(&base, &slower, false, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &faster, false, 0.10), Verdict::Worse);
        // A spread wider than the bound leaves overlapping runs unresolved.
        let noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.10), Verdict::Unresolved);
        // ...unless every B run beats every A run.
        let far: Vec<f64> = noisy.iter().map(|x| x * 0.3).collect();
        assert_eq!(verdict(&noisy, &far, true, 0.10), Verdict::Better);
        // Exact metrics: any loss is worse, equal values are the same.
        assert_eq!(verdict(&[0.8; 4], &[0.78; 4], false, 0.01), Verdict::Worse);
        assert_eq!(verdict(&[0.8; 4], &[0.8; 4], false, 0.01), Verdict::Same);
    }
}
