//! Experiment definitions: the rows of each of the paper's experiments
//! (and of the execution grid) and the composite result types for the
//! prompt-sensitivity and few-shot studies.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use wfspeak_corpus::prompts::{
    annotation_prompt, configuration_prompt, execution_prompt, translation_prompt, PromptVariant,
};
use wfspeak_corpus::references::{
    annotation_reference, configuration_reference, execution_reference, translation_reference,
};
use wfspeak_corpus::{translation_pair_label, translation_pairs, WorkflowSystemId};
use wfspeak_metrics::Summary;

use crate::result::ExperimentResult;

/// The three workflow experiments of Section 3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExperimentKind {
    /// Generate a workflow configuration file (Table 1).
    Configuration,
    /// Annotate task code with a system's API (Table 2).
    Annotation,
    /// Translate task code between systems (Table 3).
    Translation,
}

impl ExperimentKind {
    /// All experiments in paper order.
    pub const ALL: [ExperimentKind; 3] = [
        ExperimentKind::Configuration,
        ExperimentKind::Annotation,
        ExperimentKind::Translation,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentKind::Configuration => "Workflow configuration",
            ExperimentKind::Annotation => "Task code annotation",
            ExperimentKind::Translation => "Task code translation",
        }
    }

    /// Which paper table this experiment reproduces.
    pub fn paper_table(&self) -> &'static str {
        match self {
            ExperimentKind::Configuration => "Table 1",
            ExperimentKind::Annotation => "Table 2",
            ExperimentKind::Translation => "Table 3",
        }
    }

    /// The rows of this experiment's table under one prompt variant, in
    /// paper order.
    pub fn rows(&self, variant: PromptVariant) -> Vec<ExperimentRow> {
        let row = |label: String, system, reference: Option<&'static str>, prompt| ExperimentRow {
            label,
            system,
            reference: reference.expect("every experiment row has a reference"),
            prompt,
        };
        match self {
            ExperimentKind::Configuration => WorkflowSystemId::configuration_systems()
                .into_iter()
                .map(|s| {
                    let prompt = configuration_prompt(s, variant);
                    row(s.name().to_owned(), s, configuration_reference(s), prompt)
                })
                .collect(),
            ExperimentKind::Annotation => WorkflowSystemId::annotation_systems()
                .into_iter()
                .map(|s| {
                    let prompt = annotation_prompt(s, variant);
                    row(s.name().to_owned(), s, annotation_reference(s), prompt)
                })
                .collect(),
            ExperimentKind::Translation => translation_pairs()
                .into_iter()
                .map(|(source, target)| {
                    row(
                        translation_pair_label(source, target),
                        target,
                        translation_reference(target),
                        translation_prompt(source, target, variant),
                    )
                })
                .collect(),
        }
    }

    /// The row labels of this experiment's table, in paper order.
    pub fn row_labels(&self) -> Vec<String> {
        self.rows(PromptVariant::default())
            .into_iter()
            .map(|row| row.label)
            .collect()
    }
}

impl std::fmt::Display for ExperimentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The rows of the execution grid under one prompt variant: the three
/// configuration systems run the responses to their configuration prompt,
/// and Parsl and PyCOMPSs those to their annotation prompt, since their
/// workflow structure lives in annotated task code.
pub fn execution_rows(variant: PromptVariant) -> Vec<ExperimentRow> {
    WorkflowSystemId::execution_systems()
        .into_iter()
        .map(|system| ExperimentRow {
            label: system.name().to_owned(),
            system,
            reference: execution_reference(system),
            prompt: execution_prompt(system, variant),
        })
        .collect()
}

/// One row of a grid: the prompt every model answers once per trial seed,
/// and what the responses are scored against.
#[derive(Debug)]
pub struct ExperimentRow {
    /// Row label: a system name, or `"A to B"` for a translation pair.
    pub label: String,
    /// The system the responses are scored against, whose reference and
    /// API catalogue apply (for translation, the target).
    pub system: WorkflowSystemId,
    /// The ground-truth artifact.
    pub reference: &'static str,
    /// The prompt sent to every model.
    pub prompt: String,
}

/// Result of the prompt-sensitivity study (Figure 1): one full experiment
/// result per prompt variant, for each of the three experiments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PromptSensitivity {
    /// `experiment -> variant label -> result`.
    pub results: BTreeMap<ExperimentKind, BTreeMap<String, ExperimentResult>>,
}

impl PromptSensitivity {
    /// The BLEU mean for one `(experiment, variant, row, model)` heatmap cell.
    pub fn heatmap_cell(
        &self,
        experiment: ExperimentKind,
        variant: PromptVariant,
        row: &str,
        model: &str,
    ) -> Option<Summary> {
        self.results
            .get(&experiment)?
            .get(variant.label())
            .map(|r| r.bleu.cell(row, model))
    }

    /// Render the Figure 1 heatmap for one experiment and one row (system or
    /// translation pair): prompt variants as rows, models as columns.
    pub fn render_heatmap(&self, experiment: ExperimentKind, row: &str) -> String {
        let mut out = format!("{} — {}\n", experiment.name(), row);
        let Some(by_variant) = self.results.get(&experiment) else {
            return out;
        };
        let models: Vec<String> = by_variant
            .values()
            .next()
            .map(|r| r.bleu.cols().to_vec())
            .unwrap_or_default();
        out.push_str(&format!("{:<18}", "Prompt type"));
        for m in &models {
            out.push_str(&format!("{m:>18}"));
        }
        out.push('\n');
        for variant in PromptVariant::ALL {
            let Some(result) = by_variant.get(variant.label()) else {
                continue;
            };
            out.push_str(&format!("{:<18}", variant.label()));
            for m in &models {
                out.push_str(&format!("{:>18.1}", result.bleu.cell(row, m).mean));
            }
            out.push('\n');
        }
        out
    }

    /// For one experiment row, the best prompt variant per model (by BLEU
    /// mean).  The paper's finding is that this differs across models.
    pub fn best_variant_per_model(
        &self,
        experiment: ExperimentKind,
        row: &str,
    ) -> BTreeMap<String, String> {
        let mut best: BTreeMap<String, (String, f64)> = BTreeMap::new();
        if let Some(by_variant) = self.results.get(&experiment) {
            for (variant, result) in by_variant {
                for model in result.bleu.cols() {
                    let mean = result.bleu.cell(row, model).mean;
                    let entry = best
                        .entry(model.clone())
                        .or_insert_with(|| (variant.clone(), mean));
                    if mean > entry.1 {
                        *entry = (variant.clone(), mean);
                    }
                }
            }
        }
        best.into_iter().map(|(m, (v, _))| (m, v)).collect()
    }
}

/// Result of the few-shot prompting study (Table 5): zero-shot vs few-shot
/// configuration scores averaged over the workflow systems.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FewShotComparison {
    /// Zero-shot (original prompt) result.
    pub zero_shot: ExperimentResult,
    /// Few-shot (prompt plus 2-node exemplar) result.
    pub few_shot: ExperimentResult,
}

impl FewShotComparison {
    /// Per-model averages over systems, as Table 5 reports:
    /// `(model, zero-shot BLEU, few-shot BLEU, zero-shot ChrF, few-shot ChrF)`.
    pub fn per_model_rows(&self) -> Vec<(String, Summary, Summary, Summary, Summary)> {
        self.zero_shot
            .bleu
            .cols()
            .iter()
            .map(|model| {
                (
                    model.clone(),
                    self.zero_shot.bleu.col_overall(model),
                    self.few_shot.bleu.col_overall(model),
                    self.zero_shot.chrf.col_overall(model),
                    self.few_shot.chrf.col_overall(model),
                )
            })
            .collect()
    }

    /// Render in the paper's Table 5 layout.
    pub fn render_table(&self) -> String {
        let mut out = String::from(
            "Table 5: few-shot vs zero-shot prompting (workflow configuration, averaged over systems)\n",
        );
        out.push_str(&format!(
            "{:<24}{:>14}{:>14}{:>14}{:>14}\n",
            "Approach / model", "BLEU (zero)", "ChrF (zero)", "BLEU (few)", "ChrF (few)"
        ));
        for (model, zb, fb, zc, fc) in self.per_model_rows() {
            out.push_str(&format!(
                "{model:<24}{:>14}{:>14}{:>14}{:>14}\n",
                zb.paper_format(),
                zc.paper_format(),
                fb.paper_format(),
                fc.paper_format()
            ));
        }
        out
    }

    /// True when few-shot improves the BLEU mean for every model (the
    /// paper's headline finding for this experiment).
    pub fn few_shot_improves_all_models(&self) -> bool {
        self.per_model_rows()
            .iter()
            .all(|(_, zero_bleu, few_bleu, _, _)| few_bleu.mean > zero_bleu.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_row_labels_match_paper_tables() {
        assert_eq!(
            ExperimentKind::Configuration.row_labels(),
            vec!["ADIOS2", "Henson", "Wilkins"]
        );
        assert_eq!(
            ExperimentKind::Annotation.row_labels(),
            vec!["ADIOS2", "Henson", "PyCOMPSs", "Parsl"]
        );
        assert_eq!(
            ExperimentKind::Translation.row_labels(),
            vec![
                "Henson to ADIOS2",
                "ADIOS2 to Henson",
                "Parsl to PyCOMPSs",
                "PyCOMPSs to Parsl"
            ]
        );
    }

    #[test]
    fn experiment_names_and_tables() {
        assert_eq!(ExperimentKind::Configuration.paper_table(), "Table 1");
        assert_eq!(ExperimentKind::Translation.name(), "Task code translation");
        assert_eq!(
            format!("{}", ExperimentKind::Annotation),
            "Task code annotation"
        );
    }

    #[test]
    fn few_shot_comparison_rows_and_improvement() {
        let mut comparison = FewShotComparison::default();
        for system in ["ADIOS2", "Henson"] {
            comparison.zero_shot.push(system, "o3", 35.0, 38.0);
            comparison.few_shot.push(system, "o3", 90.0, 91.0);
        }
        let rows = comparison.per_model_rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].2.mean > rows[0].1.mean);
        assert!(comparison.few_shot_improves_all_models());
        let table = comparison.render_table();
        assert!(table.contains("Table 5"));
        assert!(table.contains("o3"));
    }

    #[test]
    fn prompt_sensitivity_heatmap_and_best_variant() {
        let mut ps = PromptSensitivity::default();
        let mut by_variant = BTreeMap::new();
        for (variant, o3_score, gem_score) in [("original", 60.0, 70.0), ("detailed", 65.0, 66.0)] {
            let mut r = ExperimentResult::default();
            r.push("ADIOS2", "o3", o3_score, o3_score);
            r.push("ADIOS2", "Gemini-2.5-Pro", gem_score, gem_score);
            by_variant.insert(variant.to_string(), r);
        }
        ps.results.insert(ExperimentKind::Configuration, by_variant);

        let cell = ps
            .heatmap_cell(
                ExperimentKind::Configuration,
                PromptVariant::Original,
                "ADIOS2",
                "o3",
            )
            .unwrap();
        assert!((cell.mean - 60.0).abs() < 1e-9);

        let best = ps.best_variant_per_model(ExperimentKind::Configuration, "ADIOS2");
        assert_eq!(best["o3"], "detailed");
        assert_eq!(best["Gemini-2.5-Pro"], "original");

        let heatmap = ps.render_heatmap(ExperimentKind::Configuration, "ADIOS2");
        assert!(heatmap.contains("original"));
        assert!(heatmap.contains("detailed"));
        assert!(heatmap.contains("o3"));
    }

    #[test]
    fn empty_prompt_sensitivity_renders_header_only() {
        let ps = PromptSensitivity::default();
        let text = ps.render_heatmap(ExperimentKind::Annotation, "Parsl");
        assert!(text.contains("Task code annotation"));
        assert!(ps
            .heatmap_cell(
                ExperimentKind::Annotation,
                PromptVariant::Original,
                "Parsl",
                "o3"
            )
            .is_none());
    }
}
