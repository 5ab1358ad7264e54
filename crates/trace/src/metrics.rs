//! The metrics registry: named counters, named histograms, and fixed per-worker
//! slots for the `mitra-pool` busy/idle statistics.
//!
//! Counters and histograms are registered lazily by name and leaked (`&'static`),
//! so hot paths hold a raw handle and pay only a relaxed atomic add behind one
//! mode check.  Names are `&'static str` dot-paths (`cache.column_nodes.hit`,
//! `synth.frontier_depth`, …) — the full taxonomy is documented in DESIGN.md §9.
//!
//! [`snapshot`] reads the whole registry into a [`MetricsSnapshot`];
//! [`MetricsSnapshot::delta`] subtracts an earlier snapshot so a caller can
//! attribute metrics to one measured region (e.g. one bench dataset) even though
//! the registry is process-global and cumulative.

use crate::enabled;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A monotonically increasing named counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`; a no-op when the trace mode is `off`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// A named histogram tracking count / sum / min / max of `u64` observations.
///
/// Full percentile sketches are overkill for the quantities we watch (frontier
/// depth, batch sizes); count+sum+extrema answer the "how deep does the heap get,
/// on average and at worst" questions the ISSUE asks for, with four relaxed
/// atomics and no locking.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation; a no-op when the trace mode is `off`.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Reads the current state.
    pub fn get(&self) -> HistogramSnapshot {
        let count = self.count.load(Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Relaxed)
            },
            max: self.max.load(Relaxed),
        }
    }
}

/// Point-in-time view of one [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Registries: name → leaked metric.  `BTreeMap` keeps snapshots deterministically
/// ordered, so the `metrics` blocks of `bench_smoke`'s ledger
/// (`BENCH_synthesis.json`) list their entries in the same order run to run.
///
/// Lock poisoning is recovered (`PoisonError::into_inner`) rather than propagated:
/// the maps are append-only and each entry is inserted with one `entry().or_insert`
/// call, so a panic elsewhere while the guard was held cannot expose a half-written
/// entry — and metrics must keep working while a caught worker panic is reported.
static COUNTERS: OnceLock<Mutex<BTreeMap<&'static str, &'static Counter>>> = OnceLock::new();
static HISTOGRAMS: OnceLock<Mutex<BTreeMap<&'static str, &'static Histogram>>> = OnceLock::new();

/// Returns (registering on first use) the counter named `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = COUNTERS
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::default())))
}

/// Returns (registering on first use) the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = HISTOGRAMS
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::default())))
}

/// Upper bound on tracked pool worker slots.  `mitra-pool` clamps thread counts
/// well below this; slots beyond the bound fold into the last slot rather than
/// being dropped.
pub const MAX_WORKER_SLOTS: usize = 64;

/// One pool worker slot: cumulative busy/idle nanoseconds and queue pulls.
#[derive(Debug)]
struct WorkerSlot {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    pulls: AtomicU64,
}

static WORKERS: [WorkerSlot; MAX_WORKER_SLOTS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const SLOT: WorkerSlot = WorkerSlot {
        busy_ns: AtomicU64::new(0),
        idle_ns: AtomicU64::new(0),
        pulls: AtomicU64::new(0),
    };
    [SLOT; MAX_WORKER_SLOTS]
};

/// Accumulates pool worker statistics into `slot` (clamped to
/// [`MAX_WORKER_SLOTS`]`- 1`).  A no-op when the trace mode is `off`.
///
/// The inline (non-spawning) `parallel_map` path reports under slot 0, so
/// single-threaded runs still show utilization.
pub fn record_worker(slot: usize, busy_ns: u64, idle_ns: u64, pulls: u64) {
    if !enabled() {
        return;
    }
    let w = &WORKERS[slot.min(MAX_WORKER_SLOTS - 1)];
    w.busy_ns.fetch_add(busy_ns, Relaxed);
    w.idle_ns.fetch_add(idle_ns, Relaxed);
    w.pulls.fetch_add(pulls, Relaxed);
}

/// Point-in-time view of one pool worker slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker slot index.
    pub slot: usize,
    /// Cumulative nanoseconds spent executing items.
    pub busy_ns: u64,
    /// Cumulative nanoseconds spent waiting between items.
    pub idle_ns: u64,
    /// Number of queue pulls (items claimed).
    pub pulls: u64,
}

/// Point-in-time view of the whole metrics registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram name → state, sorted by name.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// Pool worker slots with any activity, sorted by slot.
    pub workers: Vec<WorkerSnapshot>,
}

/// Reads every counter, histogram and worker slot.
pub fn snapshot() -> MetricsSnapshot {
    let counters = COUNTERS
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&name, c)| (name, c.get()))
        .collect();
    let histograms = HISTOGRAMS
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(&name, h)| (name, h.get()))
        .collect();
    let workers = WORKERS
        .iter()
        .enumerate()
        .map(|(slot, w)| WorkerSnapshot {
            slot,
            busy_ns: w.busy_ns.load(Relaxed),
            idle_ns: w.idle_ns.load(Relaxed),
            pulls: w.pulls.load(Relaxed),
        })
        .filter(|w| w.busy_ns > 0 || w.idle_ns > 0 || w.pulls > 0)
        .collect();
    MetricsSnapshot {
        counters,
        histograms,
        workers,
    }
}

impl MetricsSnapshot {
    /// Subtracts `earlier` from `self`, attributing cumulative metrics to the
    /// region between the two snapshots.  Histogram min/max cannot be subtracted,
    /// so the delta keeps the later extrema (they still bound the region).
    /// Entries whose delta is entirely zero are dropped.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let prior_c: BTreeMap<&'static str, u64> = earlier.counters.iter().copied().collect();
        let counters = self
            .counters
            .iter()
            .map(|&(name, v)| (name, v - prior_c.get(name).copied().unwrap_or(0)))
            .filter(|&(_, v)| v > 0)
            .collect();
        let prior_h: BTreeMap<&'static str, HistogramSnapshot> =
            earlier.histograms.iter().copied().collect();
        let histograms = self
            .histograms
            .iter()
            .map(|&(name, h)| {
                let p = prior_h.get(name).copied().unwrap_or_default();
                (
                    name,
                    HistogramSnapshot {
                        count: h.count - p.count,
                        sum: h.sum - p.sum,
                        min: h.min,
                        max: h.max,
                    },
                )
            })
            .filter(|(_, h)| h.count > 0)
            .collect();
        let prior_w: BTreeMap<usize, WorkerSnapshot> =
            earlier.workers.iter().map(|w| (w.slot, *w)).collect();
        let workers = self
            .workers
            .iter()
            .map(|w| {
                let p = prior_w.get(&w.slot).copied().unwrap_or_default();
                WorkerSnapshot {
                    slot: w.slot,
                    busy_ns: w.busy_ns - p.busy_ns,
                    idle_ns: w.idle_ns - p.idle_ns,
                    pulls: w.pulls - p.pulls,
                }
            })
            .filter(|w| w.busy_ns > 0 || w.idle_ns > 0 || w.pulls > 0)
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
            workers,
        }
    }

    /// Looks up a counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_mode, TraceMode};

    #[test]
    fn counters_register_once_and_accumulate() {
        let _guard = crate::span::tests::mode_lock();
        set_mode(TraceMode::Summary);
        let a = counter("test.metrics.counter_a");
        let b = counter("test.metrics.counter_a");
        assert!(std::ptr::eq(a, b), "same name must yield same handle");
        let before = a.get();
        a.add(3);
        b.add(2);
        assert_eq!(a.get(), before + 5);
    }

    #[test]
    fn histogram_tracks_extrema_and_mean() {
        let _guard = crate::span::tests::mode_lock();
        set_mode(TraceMode::Summary);
        let h = histogram("test.metrics.hist");
        h.observe(10);
        h.observe(2);
        h.observe(6);
        let snap = h.get();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 18);
        assert_eq!(snap.min, 2);
        assert_eq!(snap.max, 10);
        assert!((snap.mean() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn off_mode_records_nothing() {
        let _guard = crate::span::tests::mode_lock();
        set_mode(TraceMode::Off);
        let c = counter("test.metrics.off_counter");
        let before = c.get();
        c.add(100);
        assert_eq!(c.get(), before);
        let h = histogram("test.metrics.off_hist");
        let count_before = h.get().count;
        h.observe(7);
        assert_eq!(h.get().count, count_before);
        set_mode(TraceMode::Summary);
    }

    #[test]
    fn worker_slots_clamp_and_accumulate() {
        let _guard = crate::span::tests::mode_lock();
        set_mode(TraceMode::Summary);
        let before = snapshot();
        record_worker(1, 500, 100, 2);
        record_worker(1, 500, 100, 1);
        record_worker(MAX_WORKER_SLOTS + 10, 1, 1, 1); // folds into last slot
        let delta = snapshot().delta(&before);
        let w1 = delta.workers.iter().find(|w| w.slot == 1).unwrap();
        assert_eq!(w1.busy_ns, 1000);
        assert_eq!(w1.idle_ns, 200);
        assert_eq!(w1.pulls, 3);
        assert!(delta.workers.iter().any(|w| w.slot == MAX_WORKER_SLOTS - 1));
    }

    #[test]
    fn delta_isolates_a_region() {
        let _guard = crate::span::tests::mode_lock();
        set_mode(TraceMode::Summary);
        let c = counter("test.metrics.delta_counter");
        c.add(5);
        let earlier = snapshot();
        c.add(7);
        let delta = snapshot().delta(&earlier);
        assert_eq!(delta.counter("test.metrics.delta_counter"), 7);
    }

    #[test]
    fn macros_cache_handles() {
        let _guard = crate::span::tests::mode_lock();
        set_mode(TraceMode::Summary);
        let before = snapshot();
        for _ in 0..4 {
            crate::counter_add!("test.metrics.macro_counter", 2);
            crate::hist_observe!("test.metrics.macro_hist", 3);
        }
        let delta = snapshot().delta(&before);
        assert_eq!(delta.counter("test.metrics.macro_counter"), 8);
        assert_eq!(delta.histogram("test.metrics.macro_hist").unwrap().count, 4);
    }
}
