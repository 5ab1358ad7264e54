//! Machine-speed calibration.
//!
//! The machine the benchmark was tuned on is a 2-vCPU virtual machine whose
//! speed drifts with load from outside it: the same run took 17.6 s in one
//! quarter of an hour and 25.7 s in the next, and a fixed CPU loop varied
//! the same way.  A drift that size swamps any regression bound.  So the
//! benchmark times a small fixed piece of its own work — allocation,
//! hashing, sorting and a pointer chase, like the pipeline — after every
//! step of a set-up or a pass, and scales each step by [`REFERENCE`] over the
//! mean of the calibration points near it.  Timings then read as seconds at
//! the reference speed: equal to the raw seconds when the machine runs at
//! that speed, and steadier when it drifts.  Raw timings and the calibration
//! go into the result file.

use crate::stats::median;
use crate::util::SplitMix64;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference speed: about the kernel's time on the 2.1 GHz vCPU the
/// benchmark was tuned on, when that machine was quiet (1.0–1.1 ms).
pub const REFERENCE: Duration = Duration::from_millis(1);

/// How far around a piece of work the calibration points that scale it may
/// lie.  A point can land in a burst of load that the work around it
/// missed, so a step is scaled by the points within this window of it, not
/// by its two neighbours alone.
pub const WINDOW: Duration = Duration::from_secs(1);

/// The calibration points of a run, in time order.
#[derive(Debug)]
pub struct Timeline {
    points: Vec<(Instant, f64)>,
}

impl Timeline {
    pub fn new(mut points: Vec<(Instant, f64)>) -> Timeline {
        points.sort_by_key(|&(at, _)| at);
        Timeline { points }
    }

    /// The factor that takes the raw time of work done between `start` and
    /// `end` to the reference speed: the reference kernel time over the mean
    /// of the points within [`WINDOW`] of the work (or over the nearest
    /// point, if none is that close).
    ///
    /// The mean, not the median: the machine the benchmark was tuned on
    /// switches between a fast and a slow speed (kernel 1.3 and 2.2 ms)
    /// several times a second.  Work slows by the share of its time spent
    /// slow, which the mean follows; the median jumps to whichever speed
    /// holds most of the window.  Over ten `table2` runs the mean cut the
    /// spread of the median dataset latency from 15% to 6%.
    pub fn scale(&self, start: Instant, end: Instant) -> f64 {
        let from = start.checked_sub(WINDOW).unwrap_or(start);
        let to = end + WINDOW;
        let mut near: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(at, _)| at >= from && at <= to)
            .map(|&(_, v)| v)
            .collect();
        if near.is_empty() {
            near.extend(
                self.points
                    .iter()
                    .min_by_key(|&&(at, _)| if at < start { start - at } else { at - end })
                    .map(|&(_, v)| v),
            );
        }
        let kernel = near.iter().sum::<f64>() / near.len() as f64;
        if kernel > 0.0 {
            REFERENCE.as_secs_f64() / kernel
        } else {
            1.0
        }
    }
}

/// One calibration point: the median of three kernel runs, in seconds.
///
/// The kernel stays in cache on purpose.  One that also missed cache and
/// touched fresh pages tracked the memory-heavy workloads a little better,
/// but it left the caches cold for the step after it, and that made the
/// millisecond-scale `table1` tasks three times as noisy.
pub fn point() -> f64 {
    let samples: Vec<f64> = (0..3).map(|_| kernel().as_secs_f64()).collect();
    median(&samples)
}

/// The kernel: small-string allocation as in parsing, hashing as in
/// interning and hash joins, sorting, and a pointer chase as in tree walks.
fn kernel() -> Duration {
    let start = Instant::now();
    let mut rng = SplitMix64::new(0x5EED);
    let words: Vec<String> = (0..6_000)
        .map(|_| format!("w{:x}", rng.next_u64() % 50_000))
        .collect();
    let mut counts: HashMap<&str, u64> = HashMap::with_capacity(8_192);
    for w in &words {
        *counts.entry(w).or_default() += 1;
    }
    let mut order: Vec<usize> = (0..words.len()).collect();
    order.sort_unstable_by(|&a, &b| words[a].cmp(&words[b]));
    let (mut at, mut acc) = (0, 0u64);
    for _ in 0..words.len() {
        at = order[at];
        acc = acc.wrapping_add(counts[words[at].as_str()]);
    }
    black_box(acc);
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_scale_by_the_mean_of_the_points_near_them() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Fast and slow points alternate near the step; one far point is
        // outside the window.
        let timeline = Timeline::new(vec![
            (at(0), 1e-3),
            (at(300), 2e-3),
            (at(600), 1e-3),
            (at(900), 2e-3),
            (at(5_000), 8e-3),
        ]);
        let scale = timeline.scale(at(400), at(500));
        assert!((scale - 1.0 / 1.5).abs() < 1e-12, "{scale}");
        // With no point in the window, the nearest one scales the step.
        let scale = timeline.scale(at(7_000), at(7_100));
        assert!((scale - 1.0 / 8.0).abs() < 1e-12, "{scale}");
    }
}
