//! N-gram extraction and counting shared by BLEU and ChrF.
//!
//! Two n-gram representations live here:
//!
//! * [`NgramCounts`] — the straightforward reference implementation keying a
//!   `HashMap` by `Vec<T>` windows. Simple, obviously correct, and the
//!   differential-testing baseline for the fast path.
//! * [`ReferenceNgrams`] — the fast path's reference-only table: each
//!   distinct reference n-gram is packed into a single integer key (`u64`
//!   for interned word ids, `u128` for chars) that maps to a slot and its
//!   reference count. A hypothesis is never counted into a map of its own:
//!   [`ReferenceNgrams::overlap_stats`] probes its n-grams against the
//!   table in one pass and clips matches with a per-call counter per slot,
//!   so scoring allocates no per-window keys and inserts nothing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplicative hasher in the style of rustc's FxHash: one multiply and a
/// rotate per word, far cheaper than the default SipHash for the small
/// integer keys the packed n-gram maps use. Not DoS-resistant, and the maps
/// do hold client input: the scoring server prepares the `reference_text`
/// a client sends, so a reference's tokens and n-grams are inserted here.
/// Client hypotheses are only looked up, never inserted.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_word(value);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.add_word(value as u64);
        self.add_word((value >> 64) as u64);
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Integer types that can hold a packed n-gram key.
pub trait PackedKey: Copy + Eq + Hash + Default {
    /// `(self << bits) | unit` — slide one more unit into the key.
    fn shift_in(self, unit: u64, bits: u32) -> Self;
    /// Keep only the low `bits` bits (the most recent `bits / unit_bits`
    /// units of the rolling key).
    fn mask_low(self, bits: u32) -> Self;
}

macro_rules! packed_key {
    ($($key:ty),*) => {$(
        impl PackedKey for $key {
            #[inline]
            fn shift_in(self, unit: u64, bits: u32) -> Self {
                (self << bits) | unit as $key
            }

            #[inline]
            fn mask_low(self, bits: u32) -> Self {
                if bits >= <$key>::BITS {
                    self
                } else {
                    self & ((1 << bits) - 1)
                }
            }
        }
    )*};
}

packed_key!(u64, u128);

/// A reference n-gram's entry. Both fields fit in the alignment padding
/// beside a `u64` or `u128` key, so an entry is as large as a key with a
/// single `u32` count.
#[derive(Debug, Clone, Copy)]
struct Gram {
    /// Index into the per-call counters of [`ReferenceNgrams::overlap_stats`].
    slot: u32,
    /// How often the reference contains the n-gram.
    count: u32,
}

/// The prepared-reference side of the fast path: per order, every distinct
/// reference n-gram packed into an integer key, mapped to its slot among
/// the distinct n-grams of every order and its reference count.
///
/// A sequence of units (interned token ids, or chars) is folded into a
/// rolling key; for every order `n` in `1..=max_order` the low `n *
/// unit_bits` bits of the key at each position *are* the n-gram, so neither
/// building the table nor probing it allocates per window.
#[derive(Debug, Clone)]
pub struct ReferenceNgrams<K: PackedKey> {
    unit_bits: u32,
    len: usize,
    /// `orders[n - 1]` maps packed n-grams of order `n` to their entry.
    orders: Vec<FxHashMap<K, Gram>>,
    /// Distinct n-grams over all orders; slots are `0..slots`.
    slots: u32,
}

impl<K: PackedKey> ReferenceNgrams<K> {
    /// Count all n-grams of order `1..=max_order` over `units` in one pass.
    ///
    /// Every unit must fit in `unit_bits` bits and `max_order * unit_bits`
    /// must fit in `K`; both are enforced by the callers (16-bit interned
    /// ids × 4 orders for BLEU's `u64`, 21-bit chars × 6 orders for ChrF's
    /// `u128`).
    pub fn from_units(units: impl Iterator<Item = u64>, unit_bits: u32, max_order: usize) -> Self {
        let mut orders: Vec<FxHashMap<K, Gram>> =
            (0..max_order).map(|_| FxHashMap::default()).collect();
        let (mut rolling, mut len, mut slots) = (K::default(), 0usize, 0u32);
        for unit in units {
            debug_assert!(unit_bits >= 64 || unit < (1u64 << unit_bits));
            rolling = rolling.shift_in(unit, unit_bits);
            len += 1;
            for (idx, order) in orders.iter_mut().take(len).enumerate() {
                let key = rolling.mask_low((idx as u32 + 1) * unit_bits);
                // A new entry, still at count 0, takes the next slot.
                let gram = order.entry(key).or_insert(Gram {
                    slot: slots,
                    count: 0,
                });
                slots += u32::from(gram.count == 0);
                gram.count += 1;
            }
        }
        ReferenceNgrams {
            unit_bits,
            len,
            orders,
            slots,
        }
    }

    /// Number of reference units counted.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Total number of reference n-grams of order `n ≥ 1` (with
    /// multiplicity).
    pub fn total(&self, n: usize) -> usize {
        (self.len + 1).saturating_sub(n)
    }

    /// Per-order clipped overlap of a hypothesis with the reference, and the
    /// hypothesis length, in one pass over the hypothesis units.
    ///
    /// A `None` unit is one the reference lacks (a token missing from its
    /// vocabulary): it counts towards the length, but no window across it
    /// matches. At each position the probe climbs orders 1, 2, … and stops
    /// at the first miss, because the low `n` units of a reference
    /// `(n + 1)`-gram are a reference `n`-gram. A hit counts a match while
    /// its slot's counter stays within the reference count, which sums
    /// `min(hyp, ref)` exactly as [`NgramCounts::clipped_overlap`] does.
    pub fn overlap_stats(
        &self,
        units: impl Iterator<Item = Option<u64>>,
    ) -> (Vec<OverlapStats>, usize) {
        let mut matches = vec![0usize; self.orders.len()];
        let mut seen = vec![0u32; self.slots as usize];
        let (mut rolling, mut len, mut run) = (K::default(), 0usize, 0usize);
        for unit in units {
            len += 1;
            // `run` counts the known units ending here, up to the top order.
            let Some(unit) = unit else {
                run = 0;
                continue;
            };
            rolling = rolling.shift_in(unit, self.unit_bits);
            run = (run + 1).min(self.orders.len());
            for (idx, order) in self.orders[..run].iter().enumerate() {
                let key = rolling.mask_low((idx as u32 + 1) * self.unit_bits);
                let Some(gram) = order.get(&key) else { break };
                seen[gram.slot as usize] += 1;
                if seen[gram.slot as usize] <= gram.count {
                    matches[idx] += 1;
                }
            }
        }
        let stats = (1..).zip(matches).map(|(n, matches)| OverlapStats {
            matches,
            hyp_total: (len + 1).saturating_sub(n),
            ref_total: self.total(n),
        });
        (stats.collect(), len)
    }

    /// Heap bytes the table holds: the order maps and their vector.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.orders.capacity() * std::mem::size_of::<FxHashMap<K, Gram>>()
            + self.orders.iter().map(map_heap_bytes).sum::<usize>()
    }
}

/// Heap bytes behind an [`FxHashMap`], from its capacity and the standard
/// library's SwissTable layout: a `(K, V)` slot per bucket, padded to the
/// control-byte alignment, then a control byte per bucket and one trailing
/// group. Exact with 16-byte (SSE2) groups, up to a group over elsewhere.
pub(crate) fn map_heap_bytes<K, V>(map: &FxHashMap<K, V>) -> usize {
    const GROUP: usize = 16;
    let capacity = map.capacity();
    // Tables of 8 buckets or more fill to 7/8; smaller ones to all but one.
    let buckets = match capacity {
        0 => return 0,
        1..=7 => capacity + 1,
        _ => capacity / 7 * 8,
    };
    let slots = buckets * std::mem::size_of::<(K, V)>();
    slots.next_multiple_of(std::mem::align_of::<(K, V)>().max(GROUP)) + buckets + GROUP
}

/// Multiset of n-grams of a fixed order.
#[derive(Debug, Clone, Default)]
pub struct NgramCounts<T: Eq + Hash + Clone> {
    counts: HashMap<Vec<T>, usize>,
    total: usize,
}

impl<T: Eq + Hash + Clone> NgramCounts<T> {
    /// Count all n-grams of order `n` in `items`.  Returns an empty multiset
    /// when the sequence is shorter than `n` or `n == 0`.
    pub fn from_items(items: &[T], n: usize) -> Self {
        let mut counts: HashMap<Vec<T>, usize> = HashMap::new();
        let mut total = 0;
        if n > 0 && items.len() >= n {
            for window in items.windows(n) {
                *counts.entry(window.to_vec()).or_insert(0) += 1;
                total += 1;
            }
        }
        NgramCounts { counts, total }
    }

    /// Total number of n-grams (with multiplicity).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of distinct n-grams.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count of a specific n-gram.
    pub fn get(&self, gram: &[T]) -> usize {
        self.counts.get(gram).copied().unwrap_or(0)
    }

    /// Clipped overlap with another multiset: for every n-gram, the minimum of
    /// the two counts, summed.  This is the "modified precision" numerator in
    /// BLEU and the true-positive count in ChrF.
    ///
    /// `min` is symmetric and n-grams absent from either side contribute 0,
    /// so only the side with fewer distinct n-grams needs to be walked.
    pub fn clipped_overlap(&self, other: &Self) -> usize {
        let (small, large) = if self.distinct() <= other.distinct() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .counts
            .iter()
            .map(|(gram, &count)| count.min(large.get(gram)))
            .sum()
    }

    /// Iterate over `(ngram, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<T>, &usize)> {
        self.counts.iter()
    }
}

/// Precision/recall overlap statistics for one n-gram order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapStats {
    /// Clipped matches between hypothesis and reference n-grams.
    pub matches: usize,
    /// Total hypothesis n-grams (precision denominator).
    pub hyp_total: usize,
    /// Total reference n-grams (recall denominator).
    pub ref_total: usize,
}

impl OverlapStats {
    /// Compute overlap statistics for order `n` over two token sequences.
    pub fn compute<T: Eq + Hash + Clone>(hyp: &[T], reference: &[T], n: usize) -> Self {
        let h = NgramCounts::from_items(hyp, n);
        let r = NgramCounts::from_items(reference, n);
        OverlapStats {
            matches: h.clipped_overlap(&r),
            hyp_total: h.total(),
            ref_total: r.total(),
        }
    }

    /// Precision (matches / hypothesis total); 0 when the denominator is 0.
    pub fn precision(&self) -> f64 {
        if self.hyp_total == 0 {
            0.0
        } else {
            self.matches as f64 / self.hyp_total as f64
        }
    }

    /// Recall (matches / reference total); 0 when the denominator is 0.
    pub fn recall(&self) -> f64 {
        if self.ref_total == 0 {
            0.0
        } else {
            self.matches as f64 / self.ref_total as f64
        }
    }

    /// F-beta score of this order's precision and recall.
    pub fn f_beta(&self, beta: f64) -> f64 {
        let p = self.precision();
        let r = self.recall();
        let b2 = beta * beta;
        if p + r == 0.0 {
            0.0
        } else {
            (1.0 + b2) * p * r / (b2 * p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_unigrams() {
        let items = vec!["a", "b", "a"];
        let c = NgramCounts::from_items(&items, 1);
        assert_eq!(c.total(), 3);
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.get(&["a"]), 2);
        assert_eq!(c.get(&["b"]), 1);
        assert_eq!(c.get(&["c"]), 0);
    }

    #[test]
    fn counts_bigrams() {
        let items = vec![1, 2, 3, 1, 2];
        let c = NgramCounts::from_items(&items, 2);
        assert_eq!(c.total(), 4);
        assert_eq!(c.get(&[1, 2]), 2);
        assert_eq!(c.get(&[2, 3]), 1);
    }

    #[test]
    fn sequence_shorter_than_n_yields_empty() {
        let items = vec!["x"];
        let c = NgramCounts::from_items(&items, 4);
        assert_eq!(c.total(), 0);
        assert_eq!(c.distinct(), 0);
    }

    #[test]
    fn order_zero_yields_empty() {
        let items = vec!["x", "y"];
        let c = NgramCounts::from_items(&items, 0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn clipped_overlap_clips_at_reference_count() {
        let hyp = vec!["the", "the", "the", "the"];
        let rf = vec!["the", "cat", "the"];
        let h = NgramCounts::from_items(&hyp, 1);
        let r = NgramCounts::from_items(&rf, 1);
        assert_eq!(h.clipped_overlap(&r), 2);
    }

    #[test]
    fn clipped_overlap_is_symmetric_regardless_of_which_side_is_smaller() {
        // `hyp` has 1 distinct unigram, `rf` has 3: the implementation walks
        // the smaller multiset, and the result must not depend on which side
        // that is.
        let hyp = vec!["the", "the", "the", "the"];
        let rf = vec!["the", "cat", "sat"];
        let h = NgramCounts::from_items(&hyp, 1);
        let r = NgramCounts::from_items(&rf, 1);
        assert_eq!(h.clipped_overlap(&r), 1);
        assert_eq!(r.clipped_overlap(&h), 1);
        // And with multiplicities on both sides.
        let a = NgramCounts::from_items(&["a", "a", "b", "c", "c", "c"], 1);
        let b = NgramCounts::from_items(&["a", "c", "c", "d"], 1);
        assert_eq!(a.clipped_overlap(&b), b.clipped_overlap(&a));
        assert_eq!(a.clipped_overlap(&b), 3); // min(2,1) + min(3,2)
    }

    /// Pack `units` the way [`ReferenceNgrams`] keys them, 16 bits each.
    fn key(units: &[u64]) -> u64 {
        units.iter().fold(0u64, |k, &u| (k << 16) | u)
    }

    #[test]
    fn packed_counts_match_naive_counts() {
        let items: Vec<u64> = vec![1, 2, 3, 1, 2, 1, 4, 2, 3];
        let packed = ReferenceNgrams::<u64>::from_units(items.iter().copied(), 16, 4);
        let mut slots = Vec::new();
        for n in 1..=4usize {
            let naive = NgramCounts::from_items(&items, n);
            assert_eq!(packed.total(n), naive.total(), "order {n}");
            assert_eq!(packed.orders[n - 1].len(), naive.distinct(), "order {n}");
            for (gram, &count) in naive.iter() {
                let entry = packed.orders[n - 1][&key(gram)];
                assert_eq!(entry.count as usize, count, "order {n} {gram:?}");
                slots.push(entry.slot);
            }
        }
        // Every distinct n-gram of every order has a slot of its own.
        slots.sort_unstable();
        assert_eq!(slots, (0..slots.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn packed_clipped_overlap_matches_naive() {
        let a: Vec<u64> = vec![1, 2, 1, 2, 3, 4, 1];
        let b: Vec<u64> = vec![2, 1, 2, 3, 3, 1];
        for (hyp, rf) in [(&a, &b), (&b, &a)] {
            let packed = ReferenceNgrams::<u64>::from_units(rf.iter().copied(), 16, 3);
            let (stats, len) = packed.overlap_stats(hyp.iter().map(|&u| Some(u)));
            assert_eq!(len, hyp.len());
            for n in 1..=3usize {
                assert_eq!(stats[n - 1], OverlapStats::compute(hyp, rf, n), "order {n}");
            }
        }
    }

    #[test]
    fn packed_u128_counts_wide_units() {
        // 21-bit units as used for ChrF chars, including beyond the BMP.
        let chars: Vec<u64> = "aé😀aé".chars().map(|c| c as u64).collect();
        let packed = ReferenceNgrams::<u128>::from_units(chars.iter().copied(), 21, 6);
        assert_eq!(packed.total(1), 5);
        assert_eq!(packed.orders[0].len(), 3);
        assert_eq!(packed.orders[1][&((0x61u128 << 21) | 0xe9)].count, 2);
        assert_eq!(packed.total(5), 1);
        assert_eq!(packed.total(6), 0);
        let hyp: Vec<u64> = "😀aéa".chars().map(|c| c as u64).collect();
        let (stats, _) = packed.overlap_stats(hyp.iter().map(|&u| Some(u)));
        for n in 1..=6usize {
            assert_eq!(
                stats[n - 1],
                OverlapStats::compute(&hyp, &chars, n),
                "order {n}"
            );
        }
    }

    #[test]
    fn packed_counts_empty_and_short_sequences() {
        let empty = ReferenceNgrams::<u64>::from_units(std::iter::empty(), 16, 4);
        assert_eq!(empty.len(), 0);
        for n in 1..=4 {
            assert_eq!(empty.total(n), 0);
            assert!(empty.orders[n - 1].is_empty());
        }
        let (stats, len) = empty.overlap_stats([Some(7), None].into_iter());
        assert_eq!(len, 2);
        assert_eq!(stats[0], OverlapStats::compute(&[7, 8], &[], 1));
        let one = ReferenceNgrams::<u64>::from_units([7u64].into_iter(), 16, 4);
        assert_eq!(one.total(1), 1);
        assert_eq!(one.total(2), 0);
        let (stats, len) = one.overlap_stats(std::iter::empty());
        assert_eq!(len, 0);
        assert!(stats.iter().all(|s| s.matches == 0 && s.hyp_total == 0));
    }

    #[test]
    fn repeats_beyond_the_reference_count_are_clipped_at_every_order() {
        // The reference holds "1 2 3 4" twice; the hypothesis five times.
        let rf: Vec<u64> = vec![1, 2, 3, 4, 9, 1, 2, 3, 4];
        let hyp: Vec<u64> = [1, 2, 3, 4].repeat(5);
        let packed = ReferenceNgrams::<u64>::from_units(rf.iter().copied(), 16, 4);
        let (stats, _) = packed.overlap_stats(hyp.iter().map(|&u| Some(u)));
        // Each of its 4 unigrams, 3 bigrams, 2 trigrams and 1 4-gram clips
        // at the reference's 2.
        let matches: Vec<usize> = stats.iter().map(|s| s.matches).collect();
        assert_eq!(matches, vec![8, 6, 4, 2]);
        for n in 1..=4usize {
            assert_eq!(
                stats[n - 1],
                OverlapStats::compute(&hyp, &rf, n),
                "order {n}"
            );
        }
    }

    #[test]
    fn a_missing_suffix_zeroes_every_higher_order_at_its_position() {
        // Every unigram and every 4-gram's prefix occurs in the reference,
        // but the hypothesis ends in the bigram "3 1", which does not: no
        // 3- or 4-gram ending there can match either. Breaking the window
        // with an unknown unit does the same from order 1 up.
        let rf: Vec<u64> = vec![1, 2, 3, 4, 1, 2];
        let packed = ReferenceNgrams::<u64>::from_units(rf.iter().copied(), 16, 4);
        let hyp: Vec<u64> = vec![1, 2, 3, 1];
        let (stats, _) = packed.overlap_stats(hyp.iter().map(|&u| Some(u)));
        let matches: Vec<usize> = stats.iter().map(|s| s.matches).collect();
        assert_eq!(matches, vec![4, 2, 1, 0]);
        for n in 1..=4usize {
            assert_eq!(
                stats[n - 1],
                OverlapStats::compute(&hyp, &rf, n),
                "order {n}"
            );
        }
        let (stats, len) = packed.overlap_stats([Some(1), Some(2), None, Some(4)].into_iter());
        assert_eq!(len, 4);
        let matches: Vec<usize> = stats.iter().map(|s| s.matches).collect();
        assert_eq!(matches, vec![3, 1, 0, 0]);
        let hyp_with_unknown: Vec<u64> = vec![1, 2, 99, 4];
        for n in 1..=4usize {
            assert_eq!(
                stats[n - 1],
                OverlapStats::compute(&hyp_with_unknown, &rf, n),
                "order {n}"
            );
        }
    }

    #[test]
    fn overlap_stats_precision_recall() {
        let hyp = vec!["a", "b", "c"];
        let rf = vec!["a", "b", "d", "e"];
        let s = OverlapStats::compute(&hyp, &rf, 1);
        assert_eq!(s.matches, 2);
        assert!((s.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_stats_identical_sequences_perfect() {
        let toks = vec!["x", "y", "z", "w"];
        for n in 1..=4 {
            let s = OverlapStats::compute(&toks, &toks, n);
            assert_eq!(s.matches, s.hyp_total);
            assert_eq!(s.precision(), 1.0);
            assert_eq!(s.recall(), 1.0);
            assert_eq!(s.f_beta(2.0), 1.0);
        }
    }

    #[test]
    fn f_beta_zero_when_no_overlap() {
        let s = OverlapStats {
            matches: 0,
            hyp_total: 5,
            ref_total: 5,
        };
        assert_eq!(s.f_beta(2.0), 0.0);
    }

    #[test]
    fn f_beta_weights_recall_with_beta_2() {
        // precision 1.0, recall 0.5 -> F2 = 5*1*0.5 / (4*1 + 0.5) = 2.5/4.5
        let s = OverlapStats {
            matches: 2,
            hyp_total: 2,
            ref_total: 4,
        };
        assert!((s.f_beta(2.0) - 2.5 / 4.5).abs() < 1e-12);
    }
}
