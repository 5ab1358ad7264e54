//! # mitra-trace — structured spans, metrics and trace export for the Mitra pipeline
//!
//! A dependency-free observability layer (the build environment is offline, so this
//! is hand-rolled in the spirit of `shims/`, not a wrapper over the `tracing` or
//! `metrics` crates).  Three pieces:
//!
//! * **Spans** ([`span`], [`span_acc`], [`span_detail`]) — RAII guards with
//!   thread-aware hierarchical ids.  Every guard measures its elapsed time
//!   unconditionally (the synthesis profile is a functional output built from these
//!   durations); in [`TraceMode::Full`] it additionally records begin/end events
//!   into a lock-sharded per-thread buffer for the exporters.
//! * **Metrics** ([`counter`], [`histogram`], [`record_worker`]) — a process-global
//!   registry of named counters and histograms plus fixed per-worker slots for the
//!   `mitra-pool` busy/idle/pull statistics.  Increments are relaxed atomics behind
//!   a single mode check, cheap enough to leave on; [`snapshot`] reads everything,
//!   and [`MetricsSnapshot::delta`] isolates one measured region.
//! * **Exporters** ([`export::chrome_trace`], [`export::folded_stacks`]) — Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing`, and folded stacks
//!   for flamegraph tooling.
//!
//! The runtime switch is [`TraceMode`], resolved from the `MITRA_TRACE` environment
//! variable (`off` | `summary` | `full`, default `summary`) on first use and
//! overridable with [`set_mode`].  `off` disables metric recording and event
//! collection; `summary` records metrics only; `full` additionally buffers span
//! events.  Tracing never influences results — only the `off`/`summary`/`full`
//! distinction of *what gets recorded* changes.

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::time::{Duration, Instant};

pub mod export;
pub mod fault;
mod metrics;
mod span;

pub use metrics::{
    counter, histogram, record_worker, snapshot, Counter, Histogram, HistogramSnapshot,
    MetricsSnapshot, WorkerSnapshot, MAX_WORKER_SLOTS,
};
pub use span::{
    clear_events, events_snapshot, span, span_acc, span_detail, take_events, Event, Phase,
    SpanGuard,
};

/// How much the tracing layer records at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing: metrics do not count, spans do not buffer events.
    Off,
    /// Record metrics (counters, histograms, pool worker stats) but no span events.
    Summary,
    /// Record metrics *and* buffer span begin/end events for the exporters.
    Full,
}

impl TraceMode {
    /// Parses a `MITRA_TRACE` value (case-insensitive); `None` on anything else.
    pub fn parse(text: &str) -> Option<TraceMode> {
        match text.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(TraceMode::Off),
            "summary" | "1" | "on" => Some(TraceMode::Summary),
            "full" | "2" => Some(TraceMode::Full),
            _ => None,
        }
    }
}

/// Mode cell: 255 = uninitialized (resolve from the environment on first read).
static MODE: AtomicU8 = AtomicU8::new(255);

fn mode_to_u8(m: TraceMode) -> u8 {
    match m {
        TraceMode::Off => 0,
        TraceMode::Summary => 1,
        TraceMode::Full => 2,
    }
}

/// The current trace mode, resolving `MITRA_TRACE` (default [`TraceMode::Summary`])
/// on first use.
pub fn mode() -> TraceMode {
    match MODE.load(Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Summary,
        2 => TraceMode::Full,
        _ => {
            let resolved = std::env::var("MITRA_TRACE")
                .ok()
                .and_then(|v| TraceMode::parse(&v))
                .unwrap_or(TraceMode::Summary);
            MODE.store(mode_to_u8(resolved), Relaxed);
            resolved
        }
    }
}

/// Overrides the trace mode for the whole process (e.g. from `--trace-out`, or from
/// tests that must not depend on the environment).
pub fn set_mode(m: TraceMode) {
    MODE.store(mode_to_u8(m), Relaxed);
}

/// True when metrics should be recorded (mode is `summary` or `full`).
#[inline]
pub fn enabled() -> bool {
    mode() != TraceMode::Off
}

/// True when span events should be buffered (mode is `full`).
#[inline]
pub fn events_enabled() -> bool {
    mode() == TraceMode::Full
}

/// Shared monotonic epoch: every event timestamp is nanoseconds since the first
/// call, so timestamps are monotone across the whole process.
fn epoch() -> &'static Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Saturating conversion from a [`Duration`] to whole nanoseconds.
pub fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Increments a named counter by `n` through a per-call-site cached handle.
///
/// Expands to a relaxed atomic add behind one mode check; the registry lookup runs
/// once per call site.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {{
        static __MITRA_TRACE_C: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        __MITRA_TRACE_C
            .get_or_init(|| $crate::counter($name))
            .add($n as u64);
    }};
}

/// Records one observation into a named histogram through a per-call-site cached
/// handle.
#[macro_export]
macro_rules! hist_observe {
    ($name:expr, $v:expr) => {{
        static __MITRA_TRACE_H: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        __MITRA_TRACE_H
            .get_or_init(|| $crate::histogram($name))
            .observe($v as u64);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("SUMMARY"), Some(TraceMode::Summary));
        assert_eq!(TraceMode::parse(" full "), Some(TraceMode::Full));
        assert_eq!(TraceMode::parse("verbose"), None);
    }

    #[test]
    fn set_mode_round_trips() {
        let before = mode();
        for m in [TraceMode::Off, TraceMode::Full, TraceMode::Summary] {
            set_mode(m);
            assert_eq!(mode(), m);
        }
        set_mode(before);
    }

    #[test]
    fn epoch_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
