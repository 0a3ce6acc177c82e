//! Property tests for the synthetic workflow-topology generator
//! (`wfspeak_systems::topo`): every acyclic generator spec yields a
//! structurally clean, deterministically regenerable workflow; the cyclic
//! negatives always trip the validator's cycle detector; and normalization
//! stays idempotent all the way up to the 1000-task tier. A golden pins
//! what the engine makes of every tier of the suite.
//!
//! Case count defaults to the vendored proptest's 256 and scales with
//! `PROPTEST_CASES` (CI's `fuzz-smoke` job runs 512).

use proptest::prelude::*;
use wfspeak_runtime::{Engine, EngineConfig, TraceSummary};
use wfspeak_systems::topo::{bench_suite, TopoShape, TopoSpec, BENCH_SIZES};
use wfspeak_systems::DiagnosticKind;

/// Strategy over acyclic generator specs at property-test-friendly sizes.
fn acyclic_spec() -> impl Strategy<Value = TopoSpec> {
    (
        0usize..TopoShape::ACYCLIC.len(),
        0usize..120,
        0u64..u64::MAX,
    )
        .prop_map(|(shape, tasks, seed)| TopoSpec::new(TopoShape::ACYCLIC[shape], tasks, seed))
}

proptest! {
    // Any acyclic generator spec produces a workflow the validator accepts
    // outright: no error diagnostics, structural validity, and the task
    // count the (clamped) spec promised.
    #[test]
    fn acyclic_specs_validate_clean(topo in acyclic_spec()) {
        let spec = topo.generate();
        let errors: Vec<_> = spec.validate().into_iter().filter(|d| d.is_error()).collect();
        prop_assert!(errors.is_empty(), "{}: {errors:?}", topo.name());
        prop_assert!(spec.is_structurally_valid(), "{}", topo.name());
        prop_assert_eq!(spec.tasks.len(), topo.tasks);
        prop_assert!(topo.tasks >= topo.shape.min_tasks());
        prop_assert!(!spec.edges().is_empty(), "{}: no dataflow edges", topo.name());
    }

    // Generation is a pure function of the spec: the same (shape, tasks,
    // seed) always regenerates the identical workflow, and the stable name
    // embeds the clamped task count.
    #[test]
    fn generation_is_deterministic(topo in acyclic_spec()) {
        prop_assert_eq!(topo.generate(), topo.generate());
        prop_assert_eq!(
            topo.name(),
            format!("topo-{}-{}", topo.shape.label(), topo.tasks)
        );
    }

    // Every cyclic negative trips the validator's cycle detector with the
    // machine-readable `cycle` code, and never passes structural validation.
    #[test]
    fn cyclic_negatives_emit_the_cycle_diagnostic(
        tasks in 0usize..120,
        seed in 0u64..u64::MAX,
    ) {
        let topo = TopoSpec::new(TopoShape::Cyclic, tasks, seed);
        let spec = topo.generate();
        prop_assert!(!spec.is_structurally_valid(), "{}", topo.name());
        prop_assert!(
            spec.validate()
                .iter()
                .any(|d| d.is_error() && d.code() == DiagnosticKind::Cycle.code()),
            "{}: no cycle diagnostic in {:?}",
            topo.name(),
            spec.validate()
        );
    }

    // Normalization is idempotent on generated topologies and preserves the
    // task set.
    #[test]
    fn normalization_is_idempotent_on_generated_topologies(topo in acyclic_spec()) {
        let spec = topo.generate();
        let normalized = spec.normalized();
        prop_assert_eq!(&normalized.normalized(), &normalized, "{}", topo.name());
        prop_assert_eq!(normalized.tasks.len(), spec.tasks.len());
    }
}

/// FNV-1a over a byte slice, seeded with `hash` (chainable).
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Fold a [`TraceSummary`] into a stable u64: every map is ordered
/// (`BTreeMap`), so the fold is a pure function of the counts.
fn summary_checksum(summary: &TraceSummary) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (label, count) in &summary.events {
        hash = fnv1a(hash, label.as_bytes());
        hash = fnv1a(hash, &(*count as u64).to_le_bytes());
    }
    for map in [&summary.published, &summary.received] {
        for (dataset, count) in map {
            hash = fnv1a(hash, dataset.as_bytes());
            hash = fnv1a(hash, &(*count as u64).to_le_bytes());
        }
    }
    for map in [
        &summary.tasks_started,
        &summary.tasks_finished,
        &summary.tasks_failed,
    ] {
        for (task, count) in map {
            hash = fnv1a(hash, task.as_bytes());
            hash = fnv1a(hash, &(*count as u64).to_le_bytes());
        }
    }
    hash
}

/// What the engine makes of each tier of `bench_suite(42)`, in suite
/// order: `(shape, tasks, edges, published, received, checksum)`, where
/// `checksum` is [`summary_checksum`] of the run's trace summary.
const SUITE_GOLDEN: [(&str, usize, usize, usize, usize, u64); 12] = [
    ("fan-out", 10, 9, 27, 27, 0xa47ab88fad406781),
    ("chain", 10, 9, 27, 27, 0xa47ab88fad406781),
    ("diamond", 10, 16, 27, 48, 0xad624c856a9b9afd),
    ("random", 10, 20, 27, 60, 0x96fe63a4adadde7c),
    ("fan-out", 100, 99, 297, 297, 0x88675cc3a856519b),
    ("chain", 100, 99, 297, 297, 0x88675cc3a856519b),
    ("diamond", 100, 196, 297, 588, 0xefca182b4bb90a5f),
    ("random", 100, 207, 297, 621, 0x16f6dd28c82b18be),
    ("fan-out", 1000, 999, 2997, 2997, 0x93f8c7298787ce05),
    ("chain", 1000, 999, 2997, 2997, 0x93f8c7298787ce05),
    ("diamond", 1000, 1996, 2997, 5988, 0x77b8c77c02cb07da),
    ("random", 1000, 2030, 2997, 6090, 0xcc5eac95526db911),
];

/// The FNV-1a fold of every tier checksum of [`SUITE_GOLDEN`], in order.
const SUITE_GOLDEN_CHECKSUM: u64 = 0xbe83760bbfc2669d;

#[test]
fn the_full_bench_suite_is_clean_up_to_a_thousand_tasks() {
    // Every tier of the suite, including the 1000-task tier the proptest
    // strategies keep small, validates clean, normalizes idempotently and
    // runs to completion on the engine with exactly the pinned counters
    // and trace checksum.
    let engine = Engine::new(EngineConfig {
        elements: 16,
        seed: 42,
        ..EngineConfig::default()
    });
    let suite = bench_suite(42);
    assert_eq!(suite.len(), BENCH_SIZES.len() * TopoShape::ACYCLIC.len());
    assert_eq!(suite.len(), SUITE_GOLDEN.len());
    let mut aggregate = 0xcbf2_9ce4_8422_2325u64;
    for (topo, golden) in suite.into_iter().zip(SUITE_GOLDEN) {
        let spec = topo.generate();
        assert!(spec.is_structurally_valid(), "{}", topo.name());
        let normalized = spec.normalized();
        assert_eq!(
            normalized.normalized(),
            normalized,
            "{}: normalize not idempotent",
            topo.name()
        );
        assert_eq!(normalized.tasks.len(), topo.tasks, "{}", topo.name());

        let outcome = engine
            .run(&normalized)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e}", topo.name()));
        assert!(outcome.completed, "{}: run did not complete", topo.name());
        let summary = outcome.summary();
        let checksum = summary_checksum(&summary);
        assert_eq!(
            (
                topo.shape.label(),
                normalized.tasks.len(),
                normalized.edges().len(),
                summary.total_published(),
                summary.total_received(),
                checksum,
            ),
            golden,
            "{}",
            topo.name()
        );
        aggregate = fnv1a(aggregate, &checksum.to_le_bytes());
    }
    assert_eq!(
        aggregate, SUITE_GOLDEN_CHECKSUM,
        "aggregate {aggregate:#018x}"
    );
}

#[test]
fn cyclic_negatives_scale_to_a_thousand_tasks() {
    for tasks in BENCH_SIZES {
        let spec = TopoSpec::new(TopoShape::Cyclic, tasks, 42).generate();
        assert!(
            spec.validate()
                .iter()
                .any(|d| d.code() == DiagnosticKind::Cycle.code()),
            "cyclic-{tasks}: cycle diagnostic missing"
        );
    }
}
