//! API-call level comparison between a hypothesis and a reference artifact.
//!
//! Beyond BLEU/ChrF the paper analyses *why* models lose points: required
//! API calls that are missing, calls that do not exist in the target system
//! (hallucinations), and redundant boilerplate.  [`compare_calls`] produces
//! those categories from two source texts plus the system's known API
//! surface.

use std::cmp::Ordering;

use crate::calls::call_sites;
use crate::lexer::Language;

/// Result of comparing hypothesis calls against reference calls and a known
/// API surface.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallComparison {
    /// Calls present in both hypothesis and reference.
    pub matched: Vec<String>,
    /// Reference calls absent from the hypothesis (missing required calls).
    pub missing: Vec<String>,
    /// Hypothesis calls absent from the reference (redundant or wrong).
    pub extra: Vec<String>,
    /// Hypothesis calls that belong to the system's API prefix family but do
    /// not exist in the API catalogue — i.e. hallucinated API functions.
    pub hallucinated: Vec<String>,
}

impl CallComparison {
    /// Fraction of reference calls that the hypothesis reproduced (recall);
    /// 1.0 when the reference has no calls.
    pub fn call_recall(&self) -> f64 {
        let total = self.matched.len() + self.missing.len();
        if total == 0 {
            1.0
        } else {
            self.matched.len() as f64 / total as f64
        }
    }

    /// Fraction of hypothesis calls that also appear in the reference
    /// (precision); 1.0 when the hypothesis has no calls.
    pub fn call_precision(&self) -> f64 {
        let total = self.matched.len() + self.extra.len();
        if total == 0 {
            1.0
        } else {
            self.matched.len() as f64 / total as f64
        }
    }

    /// True when the hypothesis invokes at least one nonexistent API
    /// function — the hallucination failure mode highlighted in the paper.
    pub fn has_hallucinations(&self) -> bool {
        !self.hallucinated.is_empty()
    }
}

/// Compare hypothesis call names against reference call names.
///
/// `api_prefixes` identifies the system's API family (e.g. `["henson_"]`,
/// `["adios2_"]`); `known_api` is the catalogue of real functions.  A
/// hypothesis call that matches a prefix but is not in the catalogue is
/// classified as hallucinated.  Every list comes out sorted and without
/// duplicates: each side's call names are sorted, deduplicated slices of
/// its source, merged in one pass, and only the returned names are copied.
pub fn compare_calls(
    hypothesis: &str,
    reference: &str,
    language: Language,
    api_prefixes: &[&str],
    known_api: &[&str],
) -> CallComparison {
    let hyp = sorted_call_names(hypothesis, language);
    let refs = sorted_call_names(reference, language);
    let mut out = CallComparison::default();
    let (mut h, mut r) = (0, 0);
    while h < hyp.len() || r < refs.len() {
        // A side that has run out sorts after every name of the other.
        let order = (h == hyp.len(), hyp.get(h)).cmp(&(r == refs.len(), refs.get(r)));
        let (list, name) = match order {
            Ordering::Less => (&mut out.extra, hyp[h]),
            Ordering::Greater => (&mut out.missing, refs[r]),
            Ordering::Equal => (&mut out.matched, hyp[h]),
        };
        list.push(name.to_owned());
        h += usize::from(order != Ordering::Greater);
        r += usize::from(order != Ordering::Less);
    }
    out.hallucinated = hyp
        .into_iter()
        .filter(|c| api_prefixes.iter().any(|p| c.starts_with(p)) && !known_api.contains(c))
        .map(str::to_owned)
        .collect();
    out
}

/// The distinct call names of `source`, sorted.
fn sorted_call_names(source: &str, language: Language) -> Vec<&str> {
    let mut names: Vec<&str> = call_sites(source, language).map(|(c, _)| c.text).collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    const HENSON_API: &[&str] = &[
        "henson_save_int",
        "henson_save_float",
        "henson_save_array",
        "henson_load_int",
        "henson_yield",
        "henson_stop",
    ];

    #[test]
    fn perfect_match_full_recall_and_precision() {
        let code = "henson_save_int(\"t\", t);\nhenson_yield();";
        let cmp = compare_calls(code, code, Language::C, &["henson_"], HENSON_API);
        assert_eq!(cmp.matched.len(), 2);
        assert!(cmp.missing.is_empty());
        assert!(cmp.extra.is_empty());
        assert!(!cmp.has_hallucinations());
        assert_eq!(cmp.call_recall(), 1.0);
        assert_eq!(cmp.call_precision(), 1.0);
    }

    #[test]
    fn missing_required_call_detected() {
        let reference = "henson_save_int(\"t\", t);\nhenson_yield();";
        let hypothesis = "henson_save_int(\"t\", t);";
        let cmp = compare_calls(hypothesis, reference, Language::C, &["henson_"], HENSON_API);
        assert_eq!(cmp.missing, vec!["henson_yield".to_string()]);
        assert!(cmp.call_recall() < 1.0);
    }

    #[test]
    fn hallucinated_api_call_detected() {
        // The paper reports o3 inventing `henson_put` and Gemini inventing
        // `henson_declare_variable`.
        let reference = "henson_save_int(\"t\", t);\nhenson_yield();";
        let hypothesis = "henson_put(\"t\", t);\nhenson_declare_variable(\"t\");\nhenson_yield();";
        let cmp = compare_calls(hypothesis, reference, Language::C, &["henson_"], HENSON_API);
        assert!(cmp.hallucinated.contains(&"henson_put".to_string()));
        assert!(cmp
            .hallucinated
            .contains(&"henson_declare_variable".to_string()));
        assert!(cmp.has_hallucinations());
    }

    #[test]
    fn extra_non_api_calls_not_hallucinated() {
        let reference = "henson_yield();";
        let hypothesis = "printf(\"x\");\nhenson_yield();";
        let cmp = compare_calls(hypothesis, reference, Language::C, &["henson_"], HENSON_API);
        assert_eq!(cmp.extra, vec!["printf".to_string()]);
        assert!(cmp.hallucinated.is_empty());
    }

    #[test]
    fn empty_inputs_have_unit_scores() {
        let cmp = compare_calls("", "", Language::C, &["henson_"], HENSON_API);
        assert_eq!(cmp.call_recall(), 1.0);
        assert_eq!(cmp.call_precision(), 1.0);
    }

    #[test]
    fn python_comparison_with_pycompss_api() {
        let api = &["compss_wait_on", "compss_wait_on_file", "compss_barrier"];
        let reference = "compss_wait_on_file(out)\nprocess(out)";
        let hypothesis = "compss_wait_on(out)\nprocess(out)";
        let cmp = compare_calls(hypothesis, reference, Language::Python, &["compss_"], api);
        assert!(cmp.missing.contains(&"compss_wait_on_file".to_string()));
        assert!(cmp.extra.contains(&"compss_wait_on".to_string()));
        // compss_wait_on exists in the API, so it is wrong-but-real, not
        // hallucinated.
        assert!(cmp.hallucinated.is_empty());
    }
}
