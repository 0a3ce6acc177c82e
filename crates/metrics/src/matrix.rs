//! Score matrices backing the paper's tables and heatmaps.
//!
//! Each table in the paper is a grid of `(row = workflow system or system
//! pair, column = LLM)` cells holding a [`Summary`] per metric, plus an
//! "Overall" row and column. [`ScoreMatrix`] stores the per-trial samples so
//! the aggregation (and the pooled overall cells) can be recomputed exactly
//! as the paper reports them.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::stats::{pool_summaries, Summary};

/// Separator used to build the internal `row<sep>col` cell key; unit
/// separator so it cannot collide with real labels.
const KEY_SEP: char = '\u{1f}';

fn cell_key(row: &str, col: &str) -> String {
    format!("{row}{KEY_SEP}{col}")
}

/// A labelled grid of repeated-trial score samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScoreMatrix {
    /// Row labels in insertion order (workflow systems / translation pairs).
    rows: Vec<String>,
    /// Column labels in insertion order (LLM names).
    cols: Vec<String>,
    /// Per-cell raw samples keyed by `row\u{1f}col`.
    cells: BTreeMap<String, Vec<f64>>,
}

impl ScoreMatrix {
    /// Create an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a matrix with pre-declared row and column order (ensures table
    /// rendering matches the paper even if some cells stay empty).
    pub fn with_labels<R, C>(rows: &[R], cols: &[C]) -> Self
    where
        R: AsRef<str>,
        C: AsRef<str>,
    {
        ScoreMatrix {
            rows: rows.iter().map(|r| r.as_ref().to_owned()).collect(),
            cols: cols.iter().map(|c| c.as_ref().to_owned()).collect(),
            cells: BTreeMap::new(),
        }
    }

    /// Record one trial's score for a `(row, col)` cell.
    pub fn push(&mut self, row: &str, col: &str, score: f64) {
        if !self.rows.iter().any(|r| r == row) {
            self.rows.push(row.to_owned());
        }
        if !self.cols.iter().any(|c| c == col) {
            self.cols.push(col.to_owned());
        }
        self.cells
            .entry(cell_key(row, col))
            .or_default()
            .push(score);
    }

    /// Row labels in display order.
    pub fn rows(&self) -> &[String] {
        &self.rows
    }

    /// Column labels in display order.
    pub fn cols(&self) -> &[String] {
        &self.cols
    }

    /// Raw samples for a cell (empty slice if the cell has no data).
    pub fn samples(&self, row: &str, col: &str) -> &[f64] {
        self.cells
            .get(&cell_key(row, col))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Summary (mean ± std-err) of a cell.
    pub fn cell(&self, row: &str, col: &str) -> Summary {
        Summary::from_samples(self.samples(row, col))
    }

    /// "Overall" column value for a row: the paper pools each row over the
    /// model columns by averaging the per-model means.
    pub fn row_overall(&self, row: &str) -> Summary {
        let cells: Vec<Summary> = self
            .cols
            .iter()
            .map(|c| self.cell(row, c))
            .filter(|s| s.n > 0)
            .collect();
        pool_summaries(&cells)
    }

    /// "Overall" row value for a column: pooled over the system rows.
    pub fn col_overall(&self, col: &str) -> Summary {
        let cells: Vec<Summary> = self
            .rows
            .iter()
            .map(|r| self.cell(r, col))
            .filter(|s| s.n > 0)
            .collect();
        pool_summaries(&cells)
    }

    /// Grand overall: pooled over every populated cell.
    pub fn grand_overall(&self) -> Summary {
        let cells: Vec<Summary> = self
            .rows
            .iter()
            .flat_map(|r| self.cols.iter().map(move |c| self.cell(r, c)))
            .filter(|s| s.n > 0)
            .collect();
        pool_summaries(&cells)
    }

    /// The column label with the highest overall mean (the paper bolds this
    /// as the best-performing LLM); `None` when the matrix is empty.
    pub fn best_column(&self) -> Option<&str> {
        self.cols
            .iter()
            .filter(|c| self.col_overall(c).n > 0)
            .max_by(|a, b| {
                self.col_overall(a)
                    .mean
                    .partial_cmp(&self.col_overall(b).mean)
                    .unwrap()
            })
            .map(String::as_str)
    }

    /// The row label with the highest overall mean (the paper bolds this as
    /// the workflow system where LLMs perform best).
    pub fn best_row(&self) -> Option<&str> {
        self.rows
            .iter()
            .filter(|r| self.row_overall(r).n > 0)
            .max_by(|a, b| {
                self.row_overall(a)
                    .mean
                    .partial_cmp(&self.row_overall(b).mean)
                    .unwrap()
            })
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> ScoreMatrix {
        let mut m = ScoreMatrix::new();
        for &s in &[10.0, 12.0] {
            m.push("ADIOS2", "o3", s);
        }
        for &s in &[20.0, 22.0] {
            m.push("ADIOS2", "Gemini-2.5-Pro", s);
        }
        for &s in &[30.0, 32.0] {
            m.push("Henson", "o3", s);
        }
        for &s in &[40.0, 42.0] {
            m.push("Henson", "Gemini-2.5-Pro", s);
        }
        m
    }

    #[test]
    fn push_preserves_label_order() {
        let m = sample_matrix();
        assert_eq!(m.rows(), &["ADIOS2".to_string(), "Henson".to_string()]);
        assert_eq!(m.cols(), &["o3".to_string(), "Gemini-2.5-Pro".to_string()]);
    }

    #[test]
    fn cell_summary_mean() {
        let m = sample_matrix();
        assert!((m.cell("ADIOS2", "o3").mean - 11.0).abs() < 1e-12);
        assert_eq!(m.cell("ADIOS2", "o3").n, 2);
        assert_eq!(m.cell("missing", "o3").n, 0);
    }

    #[test]
    fn row_and_col_overall_pool_cell_means() {
        let m = sample_matrix();
        assert!((m.row_overall("ADIOS2").mean - 16.0).abs() < 1e-12);
        assert!((m.col_overall("o3").mean - 21.0).abs() < 1e-12);
        assert!((m.grand_overall().mean - 26.0).abs() < 1e-12);
    }

    #[test]
    fn best_row_and_column() {
        let m = sample_matrix();
        assert_eq!(m.best_row(), Some("Henson"));
        assert_eq!(m.best_column(), Some("Gemini-2.5-Pro"));
    }

    #[test]
    fn empty_matrix_best_is_none() {
        let m = ScoreMatrix::new();
        assert!(m.best_row().is_none());
        assert!(m.best_column().is_none());
        assert_eq!(m.grand_overall().n, 0);
    }

    #[test]
    fn with_labels_pre_declares_order() {
        let m = ScoreMatrix::with_labels(&["Henson", "ADIOS2"], &["o3"]);
        assert_eq!(m.rows()[0], "Henson");
        assert_eq!(m.cols()[0], "o3");
    }

    #[test]
    fn serde_round_trip() {
        let m = sample_matrix();
        let json = serde_json::to_string(&m).unwrap();
        let back: ScoreMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cell("ADIOS2", "o3").mean, m.cell("ADIOS2", "o3").mean);
    }
}
