//! Small helpers: a seeded generator and table comparison.

use mitra_dsl::{Table, Value};
use std::collections::HashMap;

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend only
/// on `--seed` and not on any generator the measured crates ship.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A seed for an independent stream (one per generated input).
    pub fn fork(&mut self) -> u64 {
        self.next_u64()
    }
}

/// A table as a bag of rendered rows, for comparisons that ignore row order.
pub fn bag_of(rows: impl IntoIterator<Item = Vec<String>>) -> HashMap<Vec<String>, usize> {
    let mut bag = HashMap::new();
    for row in rows {
        *bag.entry(row).or_insert(0) += 1;
    }
    bag
}

/// The rows of a table, rendered.
pub fn rendered_rows(table: &Table) -> impl Iterator<Item = Vec<String>> + '_ {
    table
        .rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect())
}

/// True when two tables hold the same rows with the same multiplicities, in
/// any order (column names are not compared).
pub fn same_rows(a: &Table, b: &Table) -> bool {
    a.rows.len() == b.rows.len() && bag_of(rendered_rows(a)) == bag_of(rendered_rows(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_seeded_and_shuffles_are_permutations() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<usize> = (0..50).collect();
        a.shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }
}
