//! The insert-only memo behind every per-call cache of synthesis.
//!
//! One synthesis call fixes its examples and its configuration, so every value
//! a per-call cache holds is a pure function of its key for the whole call:
//! entries are only ever inserted, never invalidated.  [`Memo::get_or_insert_with`]
//! looks the key up by reference under the lock, runs `make` with the lock
//! released, and inserts the value, cloning the key, unless a racing caller
//! inserted first; every caller then returns the first value inserted.  Two
//! workers racing on one key may both compute it, which costs time and never
//! changes a result.  A `make` that panics unwinds before the insert, so it
//! leaves no entry.
//!
//! Lock poisoning is recovered from (`PoisonError::into_inner`) rather than
//! propagated: the lock is held for one lookup or one insert, never while
//! `make` runs, so a map abandoned by a panicking worker is at worst missing
//! an entry, which a surviving caller computes again.
//!
//! `ColumnEvalCache` keeps one memo per example tree for `[[π]]T` and row
//! coverage, each with its own lock, so that a lookup keyed by the extractor
//! alone never clones one.
//!
//! Each memo counts its hits, misses and inserts in three named counters whose
//! handles it resolves once, when it is built.  A miss that loses the race
//! counts no insert.

use mitra_trace::Counter;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The `[hit, miss, insert]` counter names of a memo in namespace `$ns`.
macro_rules! memo_counters {
    ($ns:literal) => {
        [
            concat!($ns, ".hit"),
            concat!($ns, ".miss"),
            concat!($ns, ".insert"),
        ]
    };
}
pub(crate) use memo_counters;

/// An insert-only map from keys to values, safe to share between pool workers
/// (see the module docs).
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    map: Mutex<HashMap<K, V>>,
    hit: &'static Counter,
    miss: &'static Counter,
    insert: &'static Counter,
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo that counts into the counters named `[hit, miss, insert]`.
    pub(crate) fn new([hit, miss, insert]: [&'static str; 3]) -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            hit: mitra_trace::counter(hit),
            miss: mitra_trace::counter(miss),
            insert: mitra_trace::counter(insert),
        }
    }

    /// The value of `key`, made by `make` on its first use.
    pub(crate) fn get_or_insert_with<Q>(&self, key: &Q, make: impl FnOnce() -> V) -> V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(hit) = self.lock().get(key) {
            self.hit.add(1);
            return hit.clone();
        }
        self.miss.add(1);
        let value = make();
        let mut map = self.lock();
        if let Some(first) = map.get(key) {
            return first.clone();
        }
        self.insert.add(1);
        map.insert(key.to_owned(), value.clone());
        value
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, V>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn racing_workers_share_the_first_value_inserted() {
        mitra_trace::set_mode(mitra_trace::TraceMode::Summary);
        let [hit, miss, insert] = memo_counters!("test.memo.race").map(mitra_trace::counter);
        let memo: Memo<String, usize> = Memo::new(memo_counters!("test.memo.race"));
        // Every worker misses, then all make their own index at once: one insert
        // wins and the others return its value.
        let workers: Vec<usize> = (0..4).collect();
        let barrier = Barrier::new(workers.len());
        let got = mitra_pool::parallel_map(workers.len(), &workers, |_, &w| {
            memo.get_or_insert_with("key", || {
                barrier.wait();
                w
            })
        });
        assert!(got.iter().all(|&v| v == got[0]), "{got:?}");
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get_or_insert_with("key", || usize::MAX), got[0]);
        assert_eq!([hit.get(), miss.get(), insert.get()], [1, 4, 1]);
    }

    #[test]
    fn a_panicking_make_inserts_nothing() {
        let memo: Memo<Vec<u32>, u32> = Memo::new(memo_counters!("test.memo.panic"));
        let key: &[u32] = &[1, 2];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_insert_with(key, || panic!("make failed"))
        }));
        assert!(caught.is_err());
        assert_eq!(memo.len(), 0);
        // The memo stays usable, and the next call makes and keeps the value.
        assert_eq!(memo.get_or_insert_with(key, || 7), 7);
        assert_eq!(memo.get_or_insert_with(key, || 8), 7);
        assert_eq!(memo.len(), 1);
    }
}
