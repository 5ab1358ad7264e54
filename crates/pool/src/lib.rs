//! # mitra-pool — a scoped worker pool for deterministic fan-out
//!
//! The synthesizer's hot loops (per-example DFA construction, candidate predicate
//! learning, per-table migration synthesis) are embarrassingly parallel but must stay
//! **byte-identical** to the sequential path: the paper's Occam's-razor ranking breaks
//! ties by enumeration order, so results may never depend on thread scheduling.
//!
//! This crate provides exactly one primitive, [`parallel_map`]: apply a function to
//! every element of a slice on up to `threads` scoped workers and return the results
//! **in input order**.  Workers pull indices from a shared atomic counter (dynamic
//! scheduling, so an expensive item does not serialize a whole chunk behind it) and
//! write each result into its own slot, so the merged output is independent of which
//! worker computed what.  Callers then reduce in canonical order themselves.
//!
//! Thread-count resolution (see [`resolve`]) has three layers:
//!
//! 1. an explicit request (`--threads N` on the CLI / bench bins, `SynthConfig::threads`),
//! 2. the `MITRA_THREADS` environment variable,
//! 3. the machine's available parallelism.
//!
//! `1` always restores the sequential path: `parallel_map` with one thread runs the
//! closure inline on the calling thread, spawning nothing.
//!
//! Nested fan-out (a migration plan fans out across tables, each table's synthesis
//! fans out across candidates) is bounded by a thread-local depth: past
//! [`MAX_NESTING`] levels of pool workers, further `parallel_map` calls degrade to
//! inline execution instead of oversubscribing the machine quadratically.
//!
//! **Panic isolation**: every slot runs under `catch_unwind`, so a panicking task
//! poisons only its own result.  [`parallel_map_catch`] surfaces each slot as a
//! `Result<R, PanicPayload>` (sibling tasks and the deterministic merge order
//! survive; the payload message and a backtrace land in the `mitra-trace` panic
//! log and the `pool.panics_caught` counter), while [`parallel_map`] keeps the
//! infallible signature by re-panicking with the **first panicking slot in input
//! order** after all siblings finish — deterministic at every thread count,
//! unlike the raw scope-join propagation it replaces.

// This crate is part of the hardened fault-tolerance surface: panicking
// shortcuts are lint-rejected outside tests (see clippy.toml for the list).
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Fan-out depth past which `parallel_map` stops spawning and runs inline.
///
/// Depth 0 is the ordinary caller, depth 1 is a worker of a depth-0 pool, and so on.
/// Two levels cover the real nesting in this codebase (migration plan → per-table
/// synthesis → per-candidate work) while capping the worst case at `threads²` live
/// threads.
pub const MAX_NESTING: usize = 2;

/// Explicitly configured global thread count; 0 means "not set".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Current pool nesting depth of this thread (0 outside any pool worker).
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The machine's available parallelism (at least 1).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets the process-global thread count (e.g. from a `--threads` CLI flag).
/// Passing 0 clears the explicit setting, falling back to `MITRA_THREADS` / auto.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The process-global thread count: the explicitly set value if any, otherwise the
/// `MITRA_THREADS` environment variable (ignored when unparsable or 0), otherwise
/// the available parallelism.
pub fn threads() -> usize {
    let set = GLOBAL_THREADS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    if let Ok(v) = std::env::var("MITRA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available()
}

/// Resolves a per-call request against the global configuration: 0 means "use the
/// global setting", anything else is taken literally.
pub fn resolve(requested: usize) -> usize {
    if requested == 0 {
        threads()
    } else {
        requested
    }
}

/// Current pool nesting depth of the calling thread (0 outside any worker).
pub fn current_depth() -> usize {
    DEPTH.with(Cell::get)
}

/// Payload of a worker panic caught by [`parallel_map_catch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicPayload {
    /// Stringified panic payload (`&str`/`String` payloads verbatim, a fixed
    /// placeholder otherwise).
    pub message: String,
}

impl std::fmt::Display for PanicPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Stringifies a caught panic payload; non-string payloads get a placeholder so
/// the message is deterministic.  Public so sibling crates that run their own
/// `catch_unwind` (e.g. per-table execution in `mitra-migrate`) stringify
/// payloads identically.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one slot under `catch_unwind`: the deterministic fault site
/// `pool.slot:<index>` fires inside the guard, and a caught panic is recorded
/// into the `mitra-trace` panic log before it is returned as data.
fn run_caught<T, R, F>(f: &F, i: usize, item: &T) -> Result<R, PanicPayload>
where
    F: Fn(usize, &T) -> R + Sync,
{
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        mitra_trace::fault::hit("pool.slot", i as u64);
        f(i, item)
    })) {
        Ok(r) => Ok(r),
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            mitra_trace::counter_add!("pool.panics_caught", 1);
            mitra_trace::fault::record_panic(format!("pool.slot#{i}"), message.clone());
            Err(PanicPayload { message })
        }
    }
}

/// Applies `f` to every item, returning results in input order.
///
/// With `threads <= 1`, a single item, or past [`MAX_NESTING`] levels of nesting,
/// this is a plain sequential loop on the calling thread — exactly the code path a
/// `--threads 1` run takes.  Otherwise `min(threads, items.len())` scoped workers
/// pull item indices from a shared counter; each result lands in its input slot, so
/// the output order (and therefore any canonical reduction over it) is independent
/// of scheduling.
///
/// A panicking slot does **not** take down its siblings: every sibling task still
/// completes, and once all slots are filled the first panicking slot **in input
/// order** re-panics on the caller with the original payload message — the same
/// panic at every thread count.  Callers that want the surviving slots instead use
/// [`parallel_map_catch`].
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_catch(threads, items, f)
        .into_iter()
        .map(|slot| match slot {
            Ok(r) => r,
            Err(p) => panic!("worker panicked: {p}"),
        })
        .collect()
}

/// [`parallel_map`] with per-slot panic isolation surfaced to the caller: each
/// result slot is `Ok(R)` or the caught [`PanicPayload`] of that slot alone.
///
/// Sibling tasks, the pool, and the input-order result layout all survive a
/// panicking slot; the payload message and a backtrace captured at the unwind
/// boundary are recorded into the `mitra-trace` panic log
/// ([`mitra_trace::fault::take_panics`]) and counted by `pool.panics_caught`.
pub fn parallel_map_catch<T, R, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<Result<R, PanicPayload>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let depth = current_depth();
    if threads <= 1 || items.len() <= 1 || depth >= MAX_NESTING {
        // Inline path: report under worker slot 0 so sequential runs still show
        // pool utilization (one timing pair for the whole loop, not per item).
        if mitra_trace::enabled() && !items.is_empty() {
            let start = std::time::Instant::now();
            let out: Vec<Result<R, PanicPayload>> = items
                .iter()
                .enumerate()
                .map(|(i, t)| run_caught(&f, i, t))
                .collect();
            mitra_trace::record_worker(
                0,
                mitra_trace::duration_to_ns(start.elapsed()),
                0,
                items.len() as u64,
            );
            mitra_trace::counter_add!("pool.parallel_map.inline", 1);
            return out;
        }
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run_caught(&f, i, t))
            .collect();
    }

    let workers = threads.min(items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<Result<R, PanicPayload>>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || Mutex::new(None));

    mitra_trace::counter_add!("pool.parallel_map.spawned", 1);
    let trace_on = mitra_trace::enabled();
    let (next, slots_ref, f) = (&next, &slots, &f);
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                DEPTH.with(|d| d.set(depth + 1));
                let span_start = trace_on.then(std::time::Instant::now);
                let mut busy_ns: u64 = 0;
                let mut pulls: u64 = 0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let item_start = trace_on.then(std::time::Instant::now);
                    let r = run_caught(f, i, &items[i]);
                    // The slot lock is only ever held for this assignment (never
                    // across `f`), so a poisoned lock still guards intact data.
                    *slots_ref[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                    if let Some(s) = item_start {
                        busy_ns += mitra_trace::duration_to_ns(s.elapsed());
                        pulls += 1;
                    }
                }
                if let Some(s) = span_start {
                    // Anything not spent computing items is time the worker spent
                    // claiming indices or waiting for the scope — report as idle.
                    let total_ns = mitra_trace::duration_to_ns(s.elapsed());
                    mitra_trace::record_worker(w, busy_ns, total_ns.saturating_sub(busy_ns), pulls);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(r) => r,
                // `run_caught` converts every panic into data, so a claimed index
                // always gets its slot written before the scope joins.
                None => unreachable!("worker filled every claimed slot"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test that runs slots through `parallel_map_catch`
    /// (directly or via `parallel_map`): the `pool.slot` fault one of them
    /// installs is process-global and would fire in any concurrent run.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn sequential_and_parallel_agree_and_preserve_order() {
        let _serial = serial();
        let items: Vec<usize> = (0..257).collect();
        let seq = parallel_map(1, &items, |i, x| i * 1000 + x * x);
        for t in [2, 3, 8] {
            let par = parallel_map(t, &items, |i, x| i * 1000 + x * x);
            assert_eq!(seq, par, "threads={t}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _serial = serial();
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(4, &empty, |_, x| *x).is_empty());
        assert_eq!(parallel_map(4, &[7u8], |_, x| *x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_balanced_dynamically() {
        let _serial = serial();
        // Items with wildly different costs must all complete and stay ordered.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(4, &items, |_, &x| {
            let spin = if x % 7 == 0 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let _serial = serial();
        let outer: Vec<usize> = (0..4).collect();
        let depths = parallel_map(4, &outer, |_, _| {
            let inner: Vec<usize> = (0..4).collect();
            parallel_map(4, &inner, |_, _| {
                // Depth 2: this level must run inline.
                let innermost: Vec<usize> = (0..2).collect();
                let d_before = current_depth();
                let ds = parallel_map(4, &innermost, |_, _| current_depth());
                assert!(ds.iter().all(|&d| d == d_before), "inline past MAX_NESTING");
                current_depth()
            })
        });
        for level in depths.iter().flatten() {
            assert_eq!(*level, 2);
        }
    }

    #[test]
    fn resolve_honors_explicit_request() {
        assert_eq!(resolve(3), 3);
        assert_eq!(resolve(1), 1);
        // 0 falls through to the global/env/auto chain, which is at least 1.
        assert!(resolve(0) >= 1);
    }

    #[test]
    fn set_threads_overrides_auto() {
        set_threads(5);
        assert_eq!(threads(), 5);
        assert_eq!(resolve(0), 5);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker panicked: boom")]
    fn worker_panics_propagate_deterministically() {
        let _serial = serial();
        // Two slots panic; the re-raised panic must be the first in *input*
        // order ("boom" at index 2, not "later" at index 5), at any thread count.
        let items: Vec<usize> = (0..8).collect();
        let _ = parallel_map(4, &items, |_, &x| {
            if x == 5 {
                panic!("later");
            }
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn catch_isolates_panics_to_their_slot() {
        let _serial = serial();
        let items: Vec<usize> = (0..16).collect();
        for t in [1, 4] {
            let out = parallel_map_catch(t, &items, |_, &x| {
                if x % 5 == 3 {
                    panic!("slot {x} down");
                }
                x * 10
            });
            assert_eq!(out.len(), items.len(), "threads={t}");
            for (i, slot) in out.iter().enumerate() {
                if i % 5 == 3 {
                    assert_eq!(
                        slot.as_ref().map_err(|p| p.message.as_str()),
                        Err(format!("slot {i} down").as_str()),
                        "threads={t}"
                    );
                } else {
                    assert_eq!(slot.as_ref().ok(), Some(&(i * 10)), "threads={t}");
                }
            }
        }
    }

    #[test]
    fn injected_fault_kills_the_same_slot_at_every_thread_count() {
        let _serial = serial();
        mitra_trace::fault::set_fault(Some(mitra_trace::fault::FaultSpec {
            site: "pool.slot".into(),
            nth: 6,
        }));
        let items: Vec<usize> = (0..12).collect();
        let runs: Vec<Vec<Result<usize, PanicPayload>>> = [1usize, 4]
            .iter()
            .map(|&t| parallel_map_catch(t, &items, |_, &x| x + 1))
            .collect();
        mitra_trace::fault::set_fault(None);
        assert_eq!(runs[0], runs[1], "fault victim must not depend on threads");
        for (i, slot) in runs[0].iter().enumerate() {
            if i == 6 {
                assert_eq!(
                    slot,
                    &Err(PanicPayload {
                        message: "injected fault: pool.slot#6".into()
                    })
                );
            } else {
                assert_eq!(slot, &Ok(i + 1));
            }
        }
    }
}
