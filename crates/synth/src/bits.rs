//! Packed bitsets, the layout predicate learning and the set cover share: bit `i`
//! of a set is bit `i % 64` of word `i / 64`, and the bits past the set's length
//! are clear, so two sets of one length compare, hash and count word by word.

/// An empty set of `len` bits.
pub(crate) fn zeros(len: usize) -> Vec<u64> {
    vec![0; len.div_ceil(64)]
}

/// Whether bit `i` is set.
pub(crate) fn get(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

/// The number of set bits.
pub(crate) fn count(set: &[u64]) -> usize {
    set.iter().map(|w| w.count_ones() as usize).sum()
}

/// Sets bit `i`.
pub(crate) fn set(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

/// Sets bits `start..end` (`start < end`).
pub(crate) fn set_range(set: &mut [u64], start: usize, end: usize) {
    let (first, last) = (start / 64, (end - 1) / 64);
    let low = !0u64 << (start % 64);
    let high = !0u64 >> (63 - (end - 1) % 64);
    if first == last {
        set[first] |= low & high;
    } else {
        set[first] |= low;
        set[first + 1..last].fill(!0);
        set[last] |= high;
    }
}

/// The bits of the last word that belong to a set of `len` bits.
pub(crate) fn tail_mask(len: usize) -> u64 {
    !0u64 >> ((64 - len % 64) % 64)
}

/// ORs the bits of `src` into `dst` starting at bit `offset`.
pub(crate) fn or_at(dst: &mut [u64], offset: usize, src: &[u64]) {
    let (first, shift) = (offset / 64, offset % 64);
    for (j, &word) in src.iter().enumerate() {
        if word == 0 {
            continue;
        }
        dst[first + j] |= word << shift;
        if shift != 0 {
            let spill = word >> (64 - shift);
            if spill != 0 {
                dst[first + j + 1] |= spill;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones(set: &[u64]) -> Vec<usize> {
        (0..set.len() * 64).filter(|&i| get(set, i)).collect()
    }

    #[test]
    fn ranges_and_shifted_ors_set_exactly_their_bits() {
        for (start, end) in [(0, 1), (3, 64), (63, 65), (10, 200), (64, 128)] {
            let mut s = zeros(200);
            set_range(&mut s, start, end);
            assert_eq!(ones(&s), (start..end).collect::<Vec<_>>(), "{start}..{end}");
        }
        let mut src = zeros(70);
        for i in [0, 5, 63, 64, 69] {
            set(&mut src, i);
        }
        for offset in [0, 1, 60, 64, 100] {
            let mut dst = zeros(200);
            or_at(&mut dst, offset, &src);
            let want: Vec<usize> = [0, 5, 63, 64, 69].iter().map(|i| i + offset).collect();
            assert_eq!(ones(&dst), want, "offset {offset}");
        }
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(tail_mask(3), 0b111);
    }
}
