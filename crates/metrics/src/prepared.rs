//! Prepared references: tokenize and count a reference once, score many
//! hypotheses against it.
//!
//! The benchmark grid scores every `(model, trial)` hypothesis against a
//! small, fixed set of ground-truth references, so a [`PreparedReference`]
//! front-loads the reference's work into a [`ReferenceNgrams`] table:
//!
//! * **BLEU** — normalised, tokenised into zero-copy spans and interned to
//!   dense `u32` ids; word n-grams (n ≤ 4) packed 16 bits/token into `u64`.
//! * **ChrF** — whitespace-stripped chars packed 21 bits/char into `u128`
//!   keys (n ≤ 6).
//!
//! Scoring only probes that table: a hypothesis token missing from the
//! reference's interner cannot match, so it breaks the n-gram window instead
//! of taking an id, and a hypothesis of any vocabulary stays on the fast
//! path. References the packed keys cannot hold (≥ 2¹⁶ distinct tokens, or
//! orders beyond the packed width) fall back to the naive
//! [`NgramCounts`](crate::ngram::NgramCounts) path, bit-identical by
//! construction and property-tested to stay that way.

use crate::ngram::{map_heap_bytes, FxHashMap, OverlapStats, ReferenceNgrams};
use crate::tokenize::{chrf_chars, normalize, tokenize_13a_spans};

/// Bits per interned word id in packed BLEU keys (4 × 16 = 64).
pub(crate) const WORD_BITS: u32 = 16;
/// Bits per char in packed ChrF keys (6 × 21 = 126 ≤ 128; 21 bits cover all
/// of Unicode's 0x10FFFF scalar values).
pub(crate) const CHAR_BITS: u32 = 21;
/// Maximum BLEU order the packed `u64` representation can hold.
pub(crate) const MAX_PACKED_WORD_ORDER: usize = (u64::BITS / WORD_BITS) as usize;
/// Maximum ChrF order the packed `u128` representation can hold.
pub(crate) const MAX_PACKED_CHAR_ORDER: usize = (u128::BITS / CHAR_BITS) as usize;

/// Interns token strings to dense `u32` ids.
///
/// The id space doubles as the packed-key unit: ids stay below 2¹⁶ or the
/// caller falls back to the naive path, so four ids always fit a `u64`.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    ids: FxHashMap<String, u32>,
}

impl Interner {
    /// Intern `token`, returning its id (allocating the owned key only for
    /// tokens seen for the first time).
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(token.to_owned(), id);
        id
    }

    /// Look up a token without interning it.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// Number of interned tokens.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Heap bytes held: the map and every owned token.
    pub(crate) fn heap_bytes(&self) -> usize {
        map_heap_bytes(&self.ids) + self.ids.keys().map(String::capacity).sum::<usize>()
    }
}

/// A reference prepared for repeated BLEU scoring.
#[derive(Debug, Clone)]
pub struct PreparedBleu {
    /// Whether the 13a tokenizer was applied (must match the scorer).
    pub(crate) tokenize: bool,
    /// Highest n-gram order counted (must cover the scorer's).
    pub(crate) max_order: usize,
    /// Token → id for the reference vocabulary.
    pub(crate) interner: Interner,
    /// Reference word n-grams; `None` when the reference overflows the
    /// packed id space or order (then scoring falls back to naive).
    pub(crate) counts: Option<ReferenceNgrams<u64>>,
    /// Reference length in tokens.
    pub(crate) len: usize,
}

impl PreparedBleu {
    /// Tokenize, intern and count `reference` once.
    pub(crate) fn new(reference: &str, tokenize: bool, max_order: usize) -> Self {
        let normalized = normalize(reference);
        let mut interner = Interner::default();
        let ids: Vec<u32> = if tokenize {
            tokenize_13a_spans(&normalized)
                .into_iter()
                .map(|span| interner.intern(span))
                .collect()
        } else {
            // Whitespace tokens borrow from the normalized text just the same.
            normalized
                .split_whitespace()
                .map(|span| interner.intern(span))
                .collect()
        };
        let packable = interner.len() < (1usize << WORD_BITS) && max_order <= MAX_PACKED_WORD_ORDER;
        let counts = packable.then(|| {
            ReferenceNgrams::from_units(ids.iter().map(|&id| id as u64), WORD_BITS, max_order)
        });
        PreparedBleu {
            tokenize,
            max_order,
            interner,
            counts,
            len: ids.len(),
        }
    }

    /// Per-order overlap statistics of a hypothesis against this reference
    /// and the hypothesis length, or `None` when the reference needs the
    /// naive fallback.
    pub(crate) fn overlap_stats(&self, hypothesis: &str) -> Option<(Vec<OverlapStats>, usize)> {
        let counts = self.counts.as_ref()?;
        let normalized = normalize(hypothesis);
        let id = |span: &str| self.interner.get(span).map(u64::from);
        Some(if self.tokenize {
            counts.overlap_stats(tokenize_13a_spans(&normalized).into_iter().map(id))
        } else {
            counts.overlap_stats(normalized.split_whitespace().map(id))
        })
    }
}

/// A reference prepared for repeated ChrF scoring.
#[derive(Debug, Clone)]
pub struct PreparedChrf {
    /// Highest char n-gram order counted.
    pub(crate) max_order: usize,
    /// Reference char n-grams; `None` when `max_order` exceeds the packed
    /// width.
    pub(crate) counts: Option<ReferenceNgrams<u128>>,
}

impl PreparedChrf {
    /// Strip whitespace and count char n-grams of `reference` once.
    pub(crate) fn new(reference: &str, max_order: usize) -> Self {
        let chars = chrf_chars(&normalize(reference));
        let counts = (max_order <= MAX_PACKED_CHAR_ORDER).then(|| {
            ReferenceNgrams::from_units(chars.iter().map(|&c| c as u64), CHAR_BITS, max_order)
        });
        PreparedChrf { max_order, counts }
    }

    /// Per-order overlap statistics of a hypothesis against this reference
    /// and the hypothesis/reference char counts (for the empty-input cases),
    /// or `None` when the reference needs the naive fallback.
    pub(crate) fn overlap_stats(
        &self,
        hypothesis: &str,
    ) -> Option<(Vec<OverlapStats>, usize, usize)> {
        let counts = self.counts.as_ref()?;
        let chars = chrf_chars(&normalize(hypothesis));
        let (stats, hyp_chars) = counts.overlap_stats(chars.iter().map(|&c| Some(c as u64)));
        Some((stats, hyp_chars, counts.len()))
    }
}

/// The scorer-specific payload of a [`PreparedReference`].
#[derive(Debug, Clone)]
pub(crate) enum PreparedPayload {
    /// BLEU interning + reference n-gram table.
    Bleu(PreparedBleu),
    /// ChrF reference n-gram table.
    Chrf(PreparedChrf),
}

/// A reference processed once for repeated scoring against many hypotheses.
///
/// Build one with [`Scorer::prepare`](crate::Scorer::prepare) and score with
/// [`Scorer::score_prepared`](crate::Scorer::score_prepared). The original
/// reference text is retained, so a prepared reference built by one scorer
/// configuration can always be scored — at worst at string-pair speed — by
/// another.
#[derive(Debug, Clone)]
pub struct PreparedReference {
    pub(crate) source: String,
    pub(crate) payload: PreparedPayload,
}

impl PreparedReference {
    /// The original reference text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Heap bytes this prepared reference holds: the retained source text,
    /// the interner and the n-gram tables, computed from their capacities.
    /// Caches of client-supplied references charge entries with this.
    pub fn heap_bytes(&self) -> usize {
        self.source.capacity()
            + match &self.payload {
                PreparedPayload::Bleu(bleu) => {
                    bleu.interner.heap_bytes() + bleu.counts.as_ref().map_or(0, |c| c.heap_bytes())
                }
                PreparedPayload::Chrf(chrf) => chrf.counts.as_ref().map_or(0, |c| c.heap_bytes()),
            }
    }
}

/// Hit/miss counters for a cache of [`PreparedReference`]s.
///
/// Preparing a reference (normalising, tokenising, interning and counting
/// its n-grams) is the expensive half of a scoring call, so every component
/// that reuses prepared references — the benchmark runner's reference cache,
/// the scoring service's shared cache — reports its effectiveness with this
/// type. A *hit* means a scoring call reused an already-prepared reference;
/// a *miss* means the reference had to be prepared first.
///
/// ```
/// use wfspeak_metrics::CacheStats;
///
/// let stats = CacheStats { hits: 9, misses: 1 };
/// assert_eq!(stats.lookups(), 10);
/// assert!((stats.hit_rate() - 0.9).abs() < 1e-12);
/// assert_eq!(CacheStats::default().hit_rate(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that reused an already-prepared reference.
    pub hits: u64,
    /// Lookups that had to prepare the reference first.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups observed (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache, in `0.0..=1.0`.
    /// Returns `0.0` when no lookups have happened yet.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BleuScorer, Scorer};

    #[test]
    fn interner_assigns_dense_ids() {
        let mut interner = Interner::default();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        let a2 = interner.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.get("beta"), Some(b));
        assert_eq!(interner.get("gamma"), None);
    }

    #[test]
    fn hypotheses_beyond_the_packed_id_space_stay_on_the_fast_path() {
        // 70,000 distinct tokens the reference lacks: more than 2¹⁶ ids, so
        // no id scheme shared with the hypothesis could pack them. Probing
        // only looks tokens up, so the prepared path still scores it, bit
        // for bit like the naive path.
        let reference = "the cat sat on the mat";
        let mut hypothesis = String::from("the cat sat");
        for i in 0..70_000 {
            hypothesis.push_str(&format!(" oov{i}"));
        }
        let scorer = BleuScorer::default();
        let prepared = scorer.prepare(reference);
        let PreparedPayload::Bleu(bleu) = &prepared.payload else {
            panic!("a BLEU scorer prepares a BLEU payload");
        };
        let (_, hyp_len) = bleu.overlap_stats(&hypothesis).expect("fast path");
        assert_eq!(hyp_len, 70_003);
        let fast = scorer.score_prepared(&hypothesis, &prepared);
        let naive = scorer.breakdown_naive(&hypothesis, reference).score;
        assert_eq!(fast.to_bits(), naive.to_bits(), "{fast} vs {naive}");
    }

    #[test]
    fn prepared_bleu_counts_reference_once() {
        let prepared = PreparedBleu::new("the cat sat on the mat", true, 4);
        assert_eq!(prepared.len, 6);
        assert_eq!(prepared.interner.len(), 5); // "the" repeats
        let counts = prepared.counts.as_ref().unwrap();
        assert_eq!(counts.total(1), 6);
        assert_eq!(counts.total(4), 3);
    }

    #[test]
    fn prepared_chrf_handles_unicode() {
        let prepared = PreparedChrf::new("añ😀b", 6);
        let counts = prepared.counts.as_ref().unwrap();
        assert_eq!(counts.total(1), 4);
        assert_eq!(counts.total(4), 1);
    }

    #[test]
    fn prepared_reference_keeps_source() {
        use crate::{BleuScorer, ChrfScorer, Scorer};
        let bleu = BleuScorer::default().prepare("reference text");
        assert_eq!(bleu.source(), "reference text");
        let chrf = ChrfScorer::default().prepare("reference text");
        assert_eq!(chrf.source(), "reference text");
    }
}
