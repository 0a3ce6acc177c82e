//! Code-similarity metrics and score statistics for the `wfspeak` benchmark.
//!
//! The paper evaluates LLM-generated workflow artifacts against reference
//! (ground-truth) artifacts using two machine-translation metrics computed by
//! the `sacrebleu` Python package:
//!
//! * **BLEU** ([`bleu`]) — modified n-gram precision (n = 1..4) combined with
//!   a brevity penalty, using the sacrebleu `exp` smoothing and a 13a-like
//!   tokenisation.
//! * **ChrF** ([`chrf`]) — character n-gram F-score (n = 1..6, β = 2).
//!
//! Both are reported on a 0–100 scale (the raw 0–1 score multiplied by 100),
//! following the paper.  The [`stats`] module provides the mean ± standard
//! error aggregation used in every table, and [`matrix`] holds the
//! `(model × system)` score grids that back the tables and Figure 1 heatmaps.
//!
//! # Quickstart
//!
//! ```
//! use wfspeak_metrics::{bleu::BleuScorer, chrf::ChrfScorer, Scorer};
//!
//! let reference = "tasks:\n  - func: producer\n    nprocs: 3";
//! let hypothesis = "tasks:\n  - func: producer\n    nprocs: 3";
//!
//! let bleu = BleuScorer::default().score(hypothesis, reference);
//! let chrf = ChrfScorer::default().score(hypothesis, reference);
//! assert!((bleu - 100.0).abs() < 1e-6);
//! assert!((chrf - 100.0).abs() < 1e-6);
//! ```

//! # Performance
//!
//! Metric scoring is the hot path of the whole reproduction: every cell of
//! every table is `trials × models × systems` BLEU/ChrF evaluations. The
//! crate therefore ships two implementations of each metric:
//!
//! * **Naive path** ([`BleuScorer::breakdown_naive`],
//!   [`ChrfScorer::breakdown_naive`]) — the seed implementation: every
//!   n-gram window is materialised as a `Vec<String>`/`Vec<char>` key into a
//!   SipHash map, and the reference is re-tokenised and re-counted per call.
//!   Kept as the obviously-correct baseline.
//! * **Prepared references** ([`PreparedReference`], built with
//!   [`Scorer::prepare`]) — the reference is normalised, tokenised and
//!   counted **once** into a [`ngram::ReferenceNgrams`] table: BLEU word
//!   n-grams (n ≤ 4) of interned token ids ([`prepared::Interner`]) packed
//!   16 bits/token into a `u64`, ChrF char n-grams (n ≤ 6) packed 21
//!   bits/char into a `u128`, each distinct n-gram mapped to a slot and its
//!   count in an FxHash-style integer map. The benchmark runner caches one
//!   prepared reference per experiment cell row.
//! * **Probe-only matching** (behind [`Scorer::score`] and
//!   [`Scorer::score_prepared`]) — a hypothesis is never counted into maps
//!   of its own. One pass of a rolling packed key probes orders 1, 2, … at
//!   each position and stops at the first miss (the low `n` units of a
//!   reference `(n + 1)`-gram are a reference `n`-gram); a hit counts a
//!   match while a per-call counter for its slot stays within the
//!   reference count, which sums `min(hyp, ref)` exactly. A hypothesis
//!   token the reference lacks breaks the window, so scoring inserts
//!   nothing and hypotheses of any vocabulary stay on this path.
//!
//! The two paths are bit-identical: both reduce to the same integer
//! [`ngram::OverlapStats`] per order and share one floating-point scoring
//! tail; `crates/metrics/tests/property_tests.rs` pins the equivalence on
//! arbitrary inputs (including >6-bit alphabets and non-BMP Unicode).
//! References the packed keys cannot represent (≥ 2¹⁶ distinct tokens, or
//! orders beyond the packed width) fall back to the naive path
//! automatically. [`PreparedReference::heap_bytes`] reports what a
//! prepared reference holds, so caches of client references can budget it.

pub mod bleu;
pub mod chrf;
pub mod matrix;
pub mod ngram;
pub mod prepared;
pub mod stats;
pub mod tokenize;

pub use bleu::BleuScorer;
pub use chrf::ChrfScorer;
pub use matrix::ScoreMatrix;
pub use prepared::{CacheStats, PreparedReference};
pub use stats::Summary;

/// A similarity metric that compares a hypothesis against a single reference
/// and returns a score on the 0–100 scale used throughout the paper.
pub trait Scorer {
    /// Human-readable metric name (e.g. `"BLEU"`, `"ChrF"`).
    fn name(&self) -> &'static str;

    /// Score `hypothesis` against `reference`; higher is better, range 0–100.
    fn score(&self, hypothesis: &str, reference: &str) -> f64;

    /// Preprocess a reference once so it can be scored against many
    /// hypotheses via [`Scorer::score_prepared`]. [`BleuScorer`] and
    /// [`ChrfScorer`] tokenize, intern and count the reference's n-grams up
    /// front.
    ///
    /// ```
    /// use wfspeak_metrics::{BleuScorer, Scorer};
    ///
    /// let scorer = BleuScorer::default();
    /// let reference = "tasks:\n  - func: producer\n    nprocs: 3";
    /// let prepared = scorer.prepare(reference);
    /// for hypothesis in ["tasks:\n  - func: producer\n    nprocs: 3", "tasks: []"] {
    ///     // Bit-identical to `scorer.score(hypothesis, reference)`, but the
    ///     // reference-side work is paid only once.
    ///     assert_eq!(
    ///         scorer.score_prepared(hypothesis, &prepared),
    ///         scorer.score(hypothesis, reference),
    ///     );
    /// }
    /// ```
    fn prepare(&self, reference: &str) -> PreparedReference;

    /// Score `hypothesis` against a reference prepared with
    /// [`Scorer::prepare`]. Must return exactly what
    /// `self.score(hypothesis, original_reference)` would; the built-in
    /// scorers probe the reference's packed-key tables.
    fn score_prepared(&self, hypothesis: &str, reference: &PreparedReference) -> f64;
}

/// Which metric to compute; used by the experiment harness when both metrics
/// are reported side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Metric {
    /// sacrebleu-style BLEU.
    Bleu,
    /// Character n-gram F-score.
    Chrf,
}

impl Metric {
    /// All metrics reported in the paper, in table column order.
    pub const ALL: [Metric; 2] = [Metric::Bleu, Metric::Chrf];

    /// Display name matching the paper's column headers.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::Bleu => "BLEU",
            Metric::Chrf => "ChrF",
        }
    }

    /// Score with the selected metric using default scorer settings.
    pub fn score(&self, hypothesis: &str, reference: &str) -> f64 {
        match self {
            Metric::Bleu => BleuScorer::default().score(hypothesis, reference),
            Metric::Chrf => ChrfScorer::default().score(hypothesis, reference),
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_labels_match_paper_headers() {
        assert_eq!(Metric::Bleu.label(), "BLEU");
        assert_eq!(Metric::Chrf.label(), "ChrF");
        assert_eq!(format!("{}", Metric::Bleu), "BLEU");
    }

    #[test]
    fn metric_all_orders_bleu_first() {
        assert_eq!(Metric::ALL[0], Metric::Bleu);
        assert_eq!(Metric::ALL[1], Metric::Chrf);
    }

    #[test]
    fn identical_text_scores_100_for_both_metrics() {
        let text = "henson_save_int(\"t\", t);";
        assert!((Metric::Bleu.score(text, text) - 100.0).abs() < 1e-6);
        assert!((Metric::Chrf.score(text, text) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn prepared_references_cross_scorer_fallback_matches_string_pair() {
        // A BLEU-prepared reference handed to ChrF (and vice versa) must
        // still score exactly like the string-pair API.
        let text = "tasks:\n  - func: producer\n    nprocs: 3";
        let hyp = "tasks:\n  - func: producer\n    nprocs: 4";
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        let bleu_prepared = bleu.prepare(text);
        let chrf_prepared = chrf.prepare(text);
        assert_eq!(
            chrf.score_prepared(hyp, &bleu_prepared),
            chrf.score(hyp, text)
        );
        assert_eq!(
            bleu.score_prepared(hyp, &chrf_prepared),
            bleu.score(hyp, text)
        );
        // Mismatched configuration (different max order) also falls back.
        let bleu2 = BleuScorer::with_max_order(2);
        assert_eq!(
            bleu2.score_prepared(hyp, &bleu_prepared),
            bleu2.score(hyp, text)
        );
    }
}
