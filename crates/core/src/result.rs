//! Experiment results: paired BLEU/ChrF score matrices plus rendering in the
//! paper's table layout.

use serde::{Deserialize, Serialize};

use wfspeak_metrics::{Metric, ScoreMatrix, Summary};

/// The result of one experiment: a BLEU matrix and a ChrF matrix over the
/// same `(system row, model column)` grid.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// BLEU scores per cell (all trials).
    pub bleu: ScoreMatrix,
    /// ChrF scores per cell (all trials).
    pub chrf: ScoreMatrix,
}

impl ExperimentResult {
    /// Create a result with pre-declared row/column order.
    pub fn with_labels(rows: &[String], cols: &[String]) -> Self {
        ExperimentResult {
            bleu: ScoreMatrix::with_labels(rows, cols),
            chrf: ScoreMatrix::with_labels(rows, cols),
        }
    }

    /// Record one trial's pair of scores.
    pub fn push(&mut self, row: &str, col: &str, bleu: f64, chrf: f64) {
        self.bleu.push(row, col, bleu);
        self.chrf.push(row, col, chrf);
    }

    /// The matrix for a metric.
    pub fn matrix(&self, metric: Metric) -> &ScoreMatrix {
        match metric {
            Metric::Bleu => &self.bleu,
            Metric::Chrf => &self.chrf,
        }
    }

    /// Summary of one cell for one metric.
    pub fn cell(&self, metric: Metric, row: &str, col: &str) -> Summary {
        self.matrix(metric).cell(row, col)
    }

    /// Render the result in the paper's layout: one row per system, one
    /// `BLEU / ChrF` column pair per model, plus Overall row and column.
    pub fn render_table(&self, title: &str) -> String {
        let rows = self.bleu.rows().to_vec();
        let cols = self.bleu.cols().to_vec();
        let mut out = String::new();
        out.push_str(title);
        out.push('\n');
        let row_width = rows
            .iter()
            .map(String::len)
            .chain(std::iter::once(18))
            .max()
            .unwrap_or(18)
            + 2;
        let cell_w = 12usize;
        // Header: model names spanning BLEU+ChrF pairs.
        out.push_str(&format!("{:row_width$}", "Workflow systems"));
        for c in cols.iter().chain(std::iter::once(&"Overall".to_string())) {
            out.push_str(&format!("{:>width$}", c, width = cell_w * 2));
        }
        out.push('\n');
        out.push_str(&format!("{:row_width$}", ""));
        for _ in 0..=cols.len() {
            out.push_str(&format!("{:>cell_w$}{:>cell_w$}", "BLEU", "ChrF"));
        }
        out.push('\n');
        for r in &rows {
            out.push_str(&format!("{r:<row_width$}"));
            for c in &cols {
                out.push_str(&format!(
                    "{:>cell_w$}{:>cell_w$}",
                    self.bleu.cell(r, c).paper_format(),
                    self.chrf.cell(r, c).paper_format()
                ));
            }
            out.push_str(&format!(
                "{:>cell_w$}{:>cell_w$}\n",
                self.bleu.row_overall(r).paper_format(),
                self.chrf.row_overall(r).paper_format()
            ));
        }
        out.push_str(&format!("{:<row_width$}", "Overall"));
        for c in &cols {
            out.push_str(&format!(
                "{:>cell_w$}{:>cell_w$}",
                self.bleu.col_overall(c).paper_format(),
                self.chrf.col_overall(c).paper_format()
            ));
        }
        out.push_str(&format!(
            "{:>cell_w$}{:>cell_w$}\n",
            self.bleu.grand_overall().paper_format(),
            self.chrf.grand_overall().paper_format()
        ));
        out
    }

    /// The best-performing model column by overall BLEU (the bold column in
    /// the paper's tables).
    pub fn best_model(&self) -> Option<String> {
        self.bleu.best_column().map(str::to_owned)
    }

    /// The best row (system / pair) by overall BLEU (the bold row).
    pub fn best_row(&self) -> Option<String> {
        self.bleu.best_row().map(str::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        let mut r = ExperimentResult::default();
        for trial in 0..3 {
            r.push("ADIOS2", "o3", 60.0 + trial as f64, 62.0 + trial as f64);
            r.push("ADIOS2", "Gemini-2.5-Pro", 72.0, 71.0);
            r.push("Henson", "o3", 20.0, 22.0);
            r.push("Henson", "Gemini-2.5-Pro", 26.0, 28.0);
        }
        r
    }

    #[test]
    fn push_populates_both_metrics() {
        let r = sample();
        assert_eq!(r.cell(Metric::Bleu, "ADIOS2", "o3").n, 3);
        assert_eq!(r.cell(Metric::Chrf, "ADIOS2", "o3").n, 3);
        assert!((r.cell(Metric::Bleu, "ADIOS2", "o3").mean - 61.0).abs() < 1e-9);
        assert!((r.cell(Metric::Chrf, "Henson", "o3").mean - 22.0).abs() < 1e-9);
    }

    #[test]
    fn render_table_has_header_rows_and_overall() {
        let r = sample();
        let table = r.render_table("Table 1: configuration");
        assert!(table.contains("Table 1: configuration"));
        assert!(table.contains("BLEU"));
        assert!(table.contains("ChrF"));
        assert!(table.contains("ADIOS2"));
        assert!(table.contains("Overall"));
        assert!(table.lines().count() >= 6);
    }

    #[test]
    fn best_model_and_row() {
        let r = sample();
        assert_eq!(r.best_model().as_deref(), Some("Gemini-2.5-Pro"));
        assert_eq!(r.best_row().as_deref(), Some("ADIOS2"));
    }

    #[test]
    fn with_labels_fixes_order() {
        let r = ExperimentResult::with_labels(
            &["Henson".to_string(), "ADIOS2".to_string()],
            &["o3".to_string()],
        );
        assert_eq!(r.bleu.rows()[0], "Henson");
        assert_eq!(r.chrf.rows()[0], "Henson");
    }

    #[test]
    fn serde_round_trip() {
        let r = sample();
        let json = serde_json::to_string(&r).unwrap();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.cell(Metric::Bleu, "ADIOS2", "o3").mean,
            r.cell(Metric::Bleu, "ADIOS2", "o3").mean
        );
    }
}
