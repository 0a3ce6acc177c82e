//! BLEU implementation modelled after sacrebleu's sentence-level BLEU.
//!
//! BLEU-N combines the geometric mean of modified n-gram precisions
//! (n = 1..=N, default N = 4) with a brevity penalty that punishes hypotheses
//! shorter than the reference:
//!
//! ```text
//! BLEU = BP * exp( sum_n w_n * ln p_n )         with w_n = 1/N
//! BP   = 1                     if |hyp| > |ref|
//!      = exp(1 - |ref|/|hyp|)  otherwise
//! ```
//!
//! Zero precisions are handled with sacrebleu's `exp` smoothing (each zero
//! precision at order n is replaced by `1 / (2^k * hyp_ngrams_n)` with an
//! increasing `k`), or alternatively with `floor` or `add-k` smoothing.

use crate::ngram::OverlapStats;
use crate::prepared::{PreparedBleu, PreparedPayload, PreparedReference};
use crate::tokenize::{normalize, tokenize_13a};
use crate::Scorer;

/// Smoothing methods for zero n-gram precisions (sacrebleu names).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Smoothing {
    /// No smoothing: any zero precision makes the whole score zero.
    None,
    /// sacrebleu's default `exp` smoothing: the k-th encountered zero
    /// precision is replaced by `1 / (2^k * hyp_total)`.
    Exp,
    /// Replace zero precisions with a small floor value.
    Floor(f64),
    /// Add `k` to both numerator and denominator of every precision.
    AddK(f64),
}

/// Configurable BLEU scorer.
#[derive(Debug, Clone)]
pub struct BleuScorer {
    /// Maximum n-gram order (default 4).
    pub max_order: usize,
    /// Smoothing method (default [`Smoothing::Exp`]).
    pub smoothing: Smoothing,
    /// Whether to apply the 13a-like tokenizer (default) or plain whitespace
    /// splitting.
    pub tokenize: bool,
}

impl Default for BleuScorer {
    fn default() -> Self {
        BleuScorer {
            max_order: 4,
            smoothing: Smoothing::Exp,
            tokenize: true,
        }
    }
}

/// Detailed result of a BLEU computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BleuBreakdown {
    /// Final score on the 0–100 scale.
    pub score: f64,
    /// Per-order modified precisions after smoothing.
    pub precisions: Vec<f64>,
    /// Brevity penalty in `[0, 1]`.
    pub brevity_penalty: f64,
    /// Hypothesis length in tokens.
    pub hyp_len: usize,
    /// Reference length in tokens.
    pub ref_len: usize,
}

impl BleuScorer {
    /// Create a scorer with a custom maximum n-gram order.
    pub fn with_max_order(max_order: usize) -> Self {
        BleuScorer {
            max_order: max_order.max(1),
            ..BleuScorer::default()
        }
    }

    fn tokens(&self, text: &str) -> Vec<String> {
        let text = normalize(text);
        if self.tokenize {
            tokenize_13a(&text)
        } else {
            crate::tokenize::tokenize_whitespace(&text)
        }
    }

    /// Compute BLEU with a full breakdown of per-order precisions and the
    /// brevity penalty.
    ///
    /// This is a thin wrapper over the prepared-reference fast path: the
    /// reference is tokenised, interned and counted once via
    /// [`Scorer::prepare`], then scored. Use [`BleuScorer::breakdown_naive`]
    /// for the allocation-heavy reference implementation (they are
    /// bit-identical; the property tests pin that).
    pub fn breakdown(&self, hypothesis: &str, reference: &str) -> BleuBreakdown {
        self.breakdown_prepared(hypothesis, &Scorer::prepare(self, reference))
    }

    /// Compute BLEU against an already-prepared reference.
    ///
    /// Falls back to re-preparing from the retained source text when the
    /// prepared data was built by an incompatible scorer configuration, and
    /// to the naive path when the packed keys could not hold the reference.
    pub fn breakdown_prepared(
        &self,
        hypothesis: &str,
        reference: &PreparedReference,
    ) -> BleuBreakdown {
        if let PreparedPayload::Bleu(prepared) = &reference.payload {
            if prepared.tokenize == self.tokenize && prepared.max_order == self.max_order {
                if let Some((stats, hyp_len)) = prepared.overlap_stats(hypothesis) {
                    return self.breakdown_from_stats(&stats, hyp_len, prepared.len);
                }
                // The reference overflowed the packed keys: naive, same math.
                return self.breakdown_naive(hypothesis, reference.source());
            }
        }
        // Raw or mismatched payload: prepare with this scorer's settings.
        self.breakdown(hypothesis, reference.source())
    }

    /// The seed implementation: tokenize both sides and count n-grams with
    /// `Vec<String>`-keyed maps per order. Kept as the differential-testing
    /// baseline for the packed fast path (and as the fallback for references
    /// the packed keys cannot represent).
    pub fn breakdown_naive(&self, hypothesis: &str, reference: &str) -> BleuBreakdown {
        let hyp = self.tokens(hypothesis);
        let rf = self.tokens(reference);
        let stats: Vec<OverlapStats> = (1..=self.max_order)
            .map(|n| OverlapStats::compute(&hyp, &rf, n))
            .collect();
        self.breakdown_from_stats(&stats, hyp.len(), rf.len())
    }

    /// Shared scoring tail: smoothing, brevity penalty and the geometric
    /// mean over the effective orders. Both the naive and the packed path
    /// land here with identical integer statistics, which is what makes the
    /// two paths bit-identical.
    fn breakdown_from_stats(
        &self,
        stats: &[OverlapStats],
        hyp_len: usize,
        ref_len: usize,
    ) -> BleuBreakdown {
        if hyp_len == 0 || ref_len == 0 {
            return BleuBreakdown {
                score: 0.0,
                precisions: vec![0.0; self.max_order],
                brevity_penalty: 0.0,
                hyp_len,
                ref_len,
            };
        }

        let mut precisions = Vec::with_capacity(self.max_order);
        let mut smooth_exp_k = 0u32;
        for stats in stats.iter().take(self.max_order) {
            let (num, den) = (stats.matches as f64, stats.hyp_total as f64);
            let p = match self.smoothing {
                Smoothing::None => {
                    if den == 0.0 {
                        0.0
                    } else {
                        num / den
                    }
                }
                Smoothing::Exp => {
                    if den == 0.0 {
                        0.0
                    } else if num == 0.0 {
                        smooth_exp_k += 1;
                        1.0 / (2f64.powi(smooth_exp_k as i32) * den)
                    } else {
                        num / den
                    }
                }
                Smoothing::Floor(floor) => {
                    if den == 0.0 {
                        0.0
                    } else if num == 0.0 {
                        floor / den
                    } else {
                        num / den
                    }
                }
                Smoothing::AddK(k) => {
                    if den == 0.0 {
                        0.0
                    } else {
                        (num + k) / (den + k)
                    }
                }
            };
            precisions.push(p);
        }

        let brevity_penalty = if hyp_len >= ref_len {
            1.0
        } else {
            (1.0 - ref_len as f64 / hyp_len as f64).exp()
        };

        // Orders whose hypothesis n-gram count is zero (hypothesis shorter
        // than n) are excluded from the geometric mean, as sacrebleu does for
        // the effective order.
        let usable: Vec<f64> = precisions
            .iter()
            .copied()
            .enumerate()
            .filter(|&(i, _)| hyp_len > i)
            .map(|(_, p)| p)
            .collect();

        let score = if usable.is_empty() || usable.iter().any(|&p| p <= 0.0) {
            0.0
        } else {
            let log_sum: f64 = usable.iter().map(|p| p.ln()).sum();
            brevity_penalty * (log_sum / usable.len() as f64).exp() * 100.0
        };

        BleuBreakdown {
            score,
            precisions,
            brevity_penalty,
            hyp_len,
            ref_len,
        }
    }
}

impl Scorer for BleuScorer {
    fn name(&self) -> &'static str {
        "BLEU"
    }

    fn score(&self, hypothesis: &str, reference: &str) -> f64 {
        self.breakdown(hypothesis, reference).score
    }

    fn prepare(&self, reference: &str) -> PreparedReference {
        PreparedReference {
            source: reference.to_owned(),
            payload: PreparedPayload::Bleu(PreparedBleu::new(
                reference,
                self.tokenize,
                self.max_order,
            )),
        }
    }

    fn score_prepared(&self, hypothesis: &str, reference: &PreparedReference) -> f64 {
        self.breakdown_prepared(hypothesis, reference).score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: &str = "the cat sat on the mat";

    #[test]
    fn identical_gives_100() {
        let s = BleuScorer::default();
        assert!((s.score(REF, REF) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_hypothesis_gives_0() {
        let s = BleuScorer::default();
        assert_eq!(s.score("", REF), 0.0);
        assert_eq!(s.score(REF, ""), 0.0);
        assert_eq!(s.score("", ""), 0.0);
    }

    #[test]
    fn disjoint_gives_0() {
        let s = BleuScorer::default();
        let score = s.score("alpha beta gamma delta epsilon zeta", REF);
        // With exp smoothing a fully disjoint hypothesis still receives a
        // small smoothed score (as in sacrebleu); it must stay low.
        assert!(
            score < 10.0,
            "disjoint text should score near zero, got {score}"
        );
        let unsmoothed = BleuScorer {
            smoothing: Smoothing::None,
            ..BleuScorer::default()
        };
        assert_eq!(
            unsmoothed.score("alpha beta gamma delta epsilon zeta", REF),
            0.0
        );
    }

    #[test]
    fn partial_overlap_between_0_and_100() {
        let s = BleuScorer::default();
        let score = s.score("the cat sat on a rug", REF);
        assert!(score > 0.0 && score < 100.0, "got {score}");
    }

    #[test]
    fn brevity_penalty_applies_to_short_hypothesis() {
        let s = BleuScorer::default();
        let long_ref = "a b c d e f g h i j k l m n o p";
        let b = s.breakdown("a b c d", long_ref);
        assert!(b.brevity_penalty < 1.0);
        assert!(b.score < 100.0);
    }

    #[test]
    fn no_brevity_penalty_for_longer_hypothesis() {
        let s = BleuScorer::default();
        let b = s.breakdown("the cat sat on the mat today again", REF);
        assert_eq!(b.brevity_penalty, 1.0);
    }

    #[test]
    fn known_value_half_overlapping_bigrams() {
        // hyp: "a b c d", ref: "a b x y"
        // p1 = 2/4, p2 = 1/3, p3 smoothed (exp: 1/(2*2)), p4 smoothed 1/(4*1)
        let s = BleuScorer::default();
        let b = s.breakdown("a b c d", "a b x y");
        assert!((b.precisions[0] - 0.5).abs() < 1e-12);
        assert!((b.precisions[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((b.precisions[2] - 1.0 / 4.0).abs() < 1e-12);
        assert!((b.precisions[3] - 1.0 / 4.0).abs() < 1e-12);
        let expected = (0.5f64.ln() + (1.0f64 / 3.0).ln() + 0.25f64.ln() + 0.25f64.ln()) / 4.0;
        assert!((b.score - expected.exp() * 100.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_none_zeroes_score_without_4gram_match() {
        let s = BleuScorer {
            smoothing: Smoothing::None,
            ..BleuScorer::default()
        };
        // Shares unigrams/bigrams but no 4-gram.
        assert_eq!(s.score("a b c q e", "a b c d e"), 0.0);
    }

    #[test]
    fn add_k_smoothing_never_zero_for_nonempty() {
        let s = BleuScorer {
            smoothing: Smoothing::AddK(1.0),
            ..BleuScorer::default()
        };
        let score = s.score("w x y z", "p q r s");
        assert!(score > 0.0);
    }

    #[test]
    fn short_hypothesis_uses_effective_order() {
        // A 2-token hypothesis has no 3- or 4-grams; those orders must not
        // zero the score.
        let s = BleuScorer::default();
        let score = s.score("the cat", REF);
        assert!(score > 0.0, "got {score}");
    }

    #[test]
    fn code_like_texts_score_sensibly() {
        let s = BleuScorer::default();
        let reference = "henson_save_int(\"t\", t);\nhenson_yield();";
        let good = "henson_save_int(\"t\", t);\nhenson_yield();";
        let bad = "adios_put(engine, var_t, t);\nadios_end_step(engine);";
        assert!(s.score(good, reference) > s.score(bad, reference));
    }

    #[test]
    fn tokenization_off_uses_whitespace_tokens() {
        let s = BleuScorer {
            tokenize: false,
            ..BleuScorer::default()
        };
        // With whitespace tokenization "cat," differs from "cat ,"
        let a = s.score("the cat, sat", "the cat, sat");
        assert!((a - 100.0).abs() < 1e-9);
    }

    #[test]
    fn max_order_one_is_unigram_precision_times_bp() {
        let s = BleuScorer::with_max_order(1);
        let b = s.breakdown("a b c d", "a b x y");
        assert!((b.score - 50.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_lengths_reported() {
        let s = BleuScorer::default();
        let b = s.breakdown("a b c", "a b c d e");
        assert_eq!(b.hyp_len, 3);
        assert_eq!(b.ref_len, 5);
    }
}
