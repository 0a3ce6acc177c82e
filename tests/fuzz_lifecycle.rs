//! Panic-safety fuzz harness for the spec lifecycle: random byte soup,
//! mutated reference configs and arbitrary [`WorkflowSpec`]s are pushed
//! through parse → validate → normalize → execute, asserting the pipeline
//! never panics, never hangs, and keeps its structural promises
//! (idempotent normalization, deterministic validation, a monotone
//! runnability ladder).
//!
//! Case count defaults to the vendored proptest's 256 and scales with
//! `PROPTEST_CASES` (CI's `fuzz-smoke` job runs 512).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use wfspeak_core::exec::{execute_artifact, SandboxConfig};
use wfspeak_corpus::references::execution_reference;
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_runtime::{Engine, TraceSummary};
use wfspeak_systems::{
    workflow_spec_from_config, DataRequirement, DataRole, TaskSpec, WorkflowSpec,
};

/// A single bounded-time budget for one fuzz case end to end.  The engine
/// bounds every run internally (publish/receive timeouts); this asserts
/// that no lifecycle stage can stall a case past a coarse wall-clock cap.
const CASE_BUDGET: Duration = Duration::from_secs(30);

fn reference_summary() -> &'static TraceSummary {
    static SUMMARY: OnceLock<TraceSummary> = OnceLock::new();
    SUMMARY.get_or_init(|| {
        let sandbox = SandboxConfig::default();
        Engine::new(sandbox.engine_config())
            .run(&WorkflowSpec::paper_3node().normalized())
            .expect("reference workflow runs")
            .summary()
    })
}

fn systems() -> [WorkflowSystemId; 5] {
    [
        WorkflowSystemId::Wilkins,
        WorkflowSystemId::Adios2,
        WorkflowSystemId::Henson,
        WorkflowSystemId::Parsl,
        WorkflowSystemId::PyCompss,
    ]
}

/// Push one artifact through the full lifecycle for every execution
/// system and check the invariants that must hold for *any* input.
fn check_artifact(artifact: &str) -> Result<(), proptest::test_runner::TestCaseError> {
    let start = Instant::now();
    for system in systems() {
        // Parse + schema validation must be total functions of the input.
        let (spec, report) = workflow_spec_from_config(system, artifact);
        if let Some(spec) = spec {
            check_spec(&spec)?;
        } else {
            // Unparseable artifacts must say why.
            prop_assert!(
                !report.diagnostics.is_empty(),
                "{system}: no spec and no diagnostics for {artifact:?}"
            );
        }
        // Span invariant: any positioned diagnostic must index a real
        // character of the artifact it was parsed from — a line within the
        // document and a column within that line.
        let lines: Vec<&str> = artifact.lines().collect();
        for d in &report.diagnostics {
            let Some(line) = d.line else { continue };
            prop_assert!(
                line >= 1 && line <= lines.len(),
                "{system}: diagnostic line {line} out of range 1..={} for {artifact:?} ({d})",
                lines.len()
            );
            if let Some(column) = d.column {
                let text = lines[line - 1];
                prop_assert!(
                    column >= 1 && column <= text.len(),
                    "{system}: diagnostic column {column} out of range 1..={} on line {text:?} \
                     for {artifact:?} ({d})",
                    text.len()
                );
            }
        }

        // The composed pipeline scores the same artifact without panicking
        // and keeps the runnability ladder monotone.
        let score = execute_artifact(
            &SandboxConfig::default(),
            system,
            artifact,
            reference_summary(),
        );
        prop_assert!(!score.valid || score.parsed, "valid ⇒ parsed");
        prop_assert!(!score.validated || score.valid, "validated ⇒ valid");
        prop_assert!(!score.ran || score.validated, "ran ⇒ validated");
        prop_assert!(!score.completed || score.ran, "completed ⇒ ran");
        prop_assert!(
            (0.0..=100.0).contains(&score.runnability),
            "runnability {} out of range",
            score.runnability
        );
        prop_assert_eq!(
            score.failure_kind().is_none(),
            score.completed,
            "failure kind must name every non-completed outcome"
        );
        if !score.completed {
            prop_assert!(
                !score.diagnostics.is_empty(),
                "{system}: failed with no diagnostics for {artifact:?}"
            );
        }
    }
    prop_assert!(
        start.elapsed() < CASE_BUDGET,
        "lifecycle case exceeded {CASE_BUDGET:?} ({:?})",
        start.elapsed()
    );
    Ok(())
}

/// Structural invariants of validate/normalize for any spec, however built.
fn check_spec(spec: &WorkflowSpec) -> Result<(), proptest::test_runner::TestCaseError> {
    // Validation is deterministic.
    prop_assert_eq!(spec.validate(), spec.validate());

    // Normalization is idempotent and does not change structural validity.
    let normalized = spec.normalized();
    prop_assert_eq!(
        &normalized.normalized(),
        &normalized,
        "normalize∘normalize ≠ normalize"
    );
    let errors_before = spec.validate().iter().filter(|d| d.is_error()).count();
    let errors_after = normalized
        .validate()
        .iter()
        .filter(|d| d.is_error())
        .count();
    prop_assert_eq!(
        errors_before == 0,
        errors_after == 0,
        "normalization flipped structural validity"
    );

    // Every diagnostic round-trips over the wire vocabulary.
    for diagnostic in spec.validate() {
        prop_assert!(
            wfspeak_systems::DiagnosticKind::from_code(diagnostic.code()).is_some(),
            "unknown diagnostic code {}",
            diagnostic.code()
        );
    }
    Ok(())
}

fn mutate(source: &str, ops: &[(usize, u8, char)]) -> String {
    let mut text: Vec<char> = source.chars().collect();
    for &(at, op, with) in ops {
        if text.is_empty() {
            text.push(with);
            continue;
        }
        let at = at % text.len();
        match op % 4 {
            0 => text.remove(at),
            1 => {
                text.insert(at, with);
                with
            }
            2 => std::mem::replace(&mut text[at], with),
            _ => {
                text.truncate(at.max(1));
                with
            }
        };
    }
    text.into_iter().collect()
}

proptest! {
    // Random printable byte soup (with YAML-significant characters well
    // represented) through the full lifecycle for every system.
    #[test]
    fn byte_soup_never_panics(artifact in "[ -~\n\t]{0,200}") {
        check_artifact(&artifact)?;
    }

    // Soup biased towards config-shaped lines: keys, colons, dashes and
    // indentation, so parses get much deeper than uniform noise.
    #[test]
    fn config_shaped_soup_never_panics(
        lines in proptest::collection::vec(
            prop_oneof![
                "tasks:|functions:|nprocs:|command:|inports:|outports:",
                "  - [a-z_]{1,10}: ?[a-z0-9./ ]{0,12}",
                "    [a-z_]{1,10}: ?-?[0-9]{0,6}",
                "[a-z_]{1,10}:",
                "  [ -~]{0,20}",
            ],
            0..12,
        ),
    ) {
        check_artifact(&lines.join("\n"))?;
    }

    // Reference artifacts (configuration files and annotated Python
    // scripts) with random mutations applied (deletions, insertions,
    // replacements, truncations): mostly-valid inputs probe far deeper
    // parser and validator paths than noise.
    #[test]
    fn mutated_references_never_panic(
        system_pick in 0usize..5,
        ops in proptest::collection::vec(
            ((0usize..4096), (0u8..8), proptest::char::range(' ', '~')),
            0..8,
        ),
    ) {
        let reference = execution_reference(systems()[system_pick]);
        check_artifact(&mutate(reference, &ops))?;
    }

    // Arbitrary in-memory specs — tiny name pools force duplicate tasks,
    // self-loops, cycles and dangling edges; the nprocs range crosses the
    // absurd-bounds threshold and reaches `usize::MAX`, so process totals
    // pass it too — through validate/normalize/execute.
    #[test]
    fn arbitrary_specs_survive_the_lifecycle(
        name in "[a-z]{0,6}",
        tasks in proptest::collection::vec(
            (
                "[ab]{1,2}|[a-z]{1,8}",
                prop_oneof![
                    Just(0usize),
                    1usize..8,
                    60_000usize..80_000,
                    (usize::MAX / 4)..usize::MAX,
                    Just(usize::MAX),
                ],
                proptest::collection::vec(("[xy]|[a-z]{1,4}", any::<bool>()), 0..4),
            ),
            0..6,
        ),
    ) {
        let start = Instant::now();
        let spec = WorkflowSpec {
            name,
            tasks: tasks
                .into_iter()
                .map(|(name, nprocs, data)| TaskSpec {
                    name,
                    nprocs,
                    data: data
                        .into_iter()
                        .map(|(dataset, produces)| {
                            DataRequirement::new(
                                &dataset,
                                if produces { DataRole::Produces } else { DataRole::Consumes },
                            )
                        })
                        .collect(),
                })
                .collect(),
        };
        check_spec(&spec)?;

        // Structurally clean specs within the sandbox caps must run on the
        // engine without panicking (completion is not guaranteed).
        let sandbox = SandboxConfig::default();
        let clean = !spec.validate().iter().any(|d| d.is_error());
        let spec = spec.normalized();
        if clean
            && spec.tasks.len() <= sandbox.max_tasks
            && spec.total_procs() <= sandbox.max_total_procs
        {
            let _ = Engine::new(sandbox.engine_config()).run(&spec);
        }
        prop_assert!(
            start.elapsed() < CASE_BUDGET,
            "spec case exceeded {CASE_BUDGET:?} ({:?})",
            start.elapsed()
        );
    }
}
