//! Golden-snapshot pin for the `repro execute --trials 1` summary and
//! diagnostic breakdown, plus a golden over the configuration corpus that
//! execution's first stage parses.
//!
//! The snapshot guards the dynamic-execution chain: simulated model
//! outputs, code extraction, parse → validate → normalize → run on the
//! engine, the five-rung runnability ladder and the per-cell failure-kind
//! rollup.  If a refactor shifts a score, a ladder rung or a diagnostic
//! code, this test shows the exact diff.  Regenerate deliberately with:
//!
//! ```text
//! cargo run --release -p wfspeak-bench --bin repro -- execute --trials 1 \
//!     > tests/golden/execute_trials1.txt
//! ```

use std::collections::BTreeMap;

use wfspeak::core::{Benchmark, BenchmarkConfig, PromptVariant};
use wfspeak::wyaml::parse_document;

#[test]
fn execute_trials1_summary_matches_the_golden_snapshot() {
    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig {
        trials: 1,
        ..BenchmarkConfig::default()
    });
    // Reconstruct exactly what `repro execute --trials 1` prints: the
    // execution summary and the diagnostics rollup, each via println!.
    let grid = benchmark.run_execution(PromptVariant::Original);
    let mut rendered = String::new();
    rendered.push_str(&grid.render_summary(
        "Execution: generated artifacts on the runtime engine (1 trials per cell)",
    ));
    rendered.push('\n');
    rendered
        .push_str(&grid.render_diagnostics("Diagnostics: top failure kinds per model × system"));
    rendered.push('\n');

    let golden = include_str!("golden/execute_trials1.txt");
    if rendered != golden {
        let diff: Vec<String> = golden
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .filter(|(_, (g, r))| g != r)
            .map(|(i, (g, r))| format!("line {}:\n  golden: {g}\n  actual: {r}", i + 1))
            .collect();
        panic!(
            "execute --trials 1 output drifted from the golden snapshot \
             ({} golden lines, {} actual):\n{}",
            golden.lines().count(),
            rendered.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn execute_snapshot_has_the_expected_shape() {
    // Belt and braces on the snapshot file itself, so an accidental
    // truncation of the golden file cannot silently weaken the pin.
    let golden = include_str!("golden/execute_trials1.txt");
    assert!(
        golden.contains("Execution: generated artifacts on the runtime engine"),
        "snapshot is missing the execution summary header"
    );
    assert!(
        golden.contains("Diagnostics: top failure kinds per model × system"),
        "snapshot is missing the diagnostics rollup"
    );
    assert!(
        golden.contains("overall:"),
        "snapshot is missing the grid footer"
    );
    // The diagnostics rollup must prove the execute path surfaces at
    // least three distinct machine-readable failure kinds.
    for kind in ["bad-indentation", "unknown-field", "unknown-directive"] {
        assert!(
            golden.contains(&format!("{kind}×")),
            "snapshot is missing the {kind} diagnostic kind"
        );
    }
    // The summary table replaces the flat unparsed count with typed
    // parse-failure categories carrying the offending line:column.
    assert!(
        golden.contains("parse failure"),
        "snapshot is missing the parse-failure column"
    );
    assert!(
        golden.contains("bad-indentation@5:7"),
        "snapshot is missing a positioned parse-failure category"
    );
    // Paper row order within each table.
    let rows: Vec<usize> = ["ADIOS2", "Henson", "Parsl", "PyCOMPSs", "Wilkins"]
        .iter()
        .map(|row| golden.find(&format!("\n{row} ")).expect("row present"))
        .collect();
    assert!(rows.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn the_configuration_corpus_parses_to_its_golden_outcome() {
    // Parsing is the first stage of execution: over the paper-default
    // corpus (3 configuration systems × 4 models × 5 trials × 3 prompt
    // variants), wyaml accepts 140 artifacts and rejects the other 40,
    // every one with `bad-indentation`.
    let corpus =
        Benchmark::with_simulated_models(BenchmarkConfig::default()).configuration_corpus();
    assert_eq!(corpus.len(), 180);
    let mut parsed = 0;
    let mut failures: BTreeMap<&str, usize> = BTreeMap::new();
    for artifact in &corpus {
        match parse_document(artifact) {
            Ok(_) => parsed += 1,
            Err(e) => *failures.entry(e.kind.code()).or_default() += 1,
        }
    }
    assert_eq!(parsed, 140);
    assert_eq!(failures, BTreeMap::from([("bad-indentation", 40)]));
}
