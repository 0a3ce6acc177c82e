//! Deterministic synthetic workflow topologies for scale testing.
//!
//! The paper's workflows stop at three nodes; the runtime experiments need
//! graphs orders of magnitude larger to say anything about engine scaling.
//! This module generates [`WorkflowSpec`]s of classic dataflow shapes —
//! wide fan-out, deep chains, diamond fan-in, seeded random DAGs — at any
//! task count, plus deliberately-cyclic negatives for exercising the
//! validator.  Generation is a pure function of [`TopoSpec`]: the same
//! shape/size/seed always yields byte-identical specs, which is what lets
//! the workspace's topology golden pin trace checksums for [`bench_suite`]
//! and the property tests shrink failures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{TaskSpec, WorkflowSpec};

/// The generated graph shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopoShape {
    /// One producer feeding `n - 1` independent single-dataset consumers.
    FanOut,
    /// A linear pipeline: every interior task relays its predecessor's
    /// dataset into a fresh one.
    Chain,
    /// Fan-out then fan-in: a source feeds `n - 2` relays that all feed one
    /// sink.
    Diamond,
    /// A seeded random DAG: task `i` consumes 1–3 datasets produced by
    /// earlier tasks, acyclic by construction.
    Random,
    /// A ring — every task consumes its predecessor's dataset, including
    /// the first.  Always rejected by validation with a cycle diagnostic.
    Cyclic,
}

impl TopoShape {
    /// All shapes, acyclic ones first.
    pub const ALL: [TopoShape; 5] = [
        TopoShape::FanOut,
        TopoShape::Chain,
        TopoShape::Diamond,
        TopoShape::Random,
        TopoShape::Cyclic,
    ];

    /// The four shapes that generate valid DAGs.
    pub const ACYCLIC: [TopoShape; 4] = [
        TopoShape::FanOut,
        TopoShape::Chain,
        TopoShape::Diamond,
        TopoShape::Random,
    ];

    /// Stable label used in benchmark reports and test names.
    pub fn label(&self) -> &'static str {
        match self {
            TopoShape::FanOut => "fan-out",
            TopoShape::Chain => "chain",
            TopoShape::Diamond => "diamond",
            TopoShape::Random => "random",
            TopoShape::Cyclic => "cyclic",
        }
    }

    /// Whether this shape generates a DAG (true) or a deliberate cycle.
    pub fn is_acyclic(&self) -> bool {
        !matches!(self, TopoShape::Cyclic)
    }

    /// The smallest task count at which the shape is well-formed.
    pub fn min_tasks(&self) -> usize {
        match self {
            TopoShape::Diamond => 3,
            _ => 2,
        }
    }
}

impl std::fmt::Display for TopoShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A generator specification: shape, task count and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopoSpec {
    /// Graph shape to generate.
    pub shape: TopoShape,
    /// Total number of tasks (clamped up to [`TopoShape::min_tasks`]).
    pub tasks: usize,
    /// Seed for the shapes that randomise (only [`TopoShape::Random`] uses
    /// it, but it participates in every spec's identity).
    pub seed: u64,
}

/// Task counts of the [`bench_suite`] tiers.
pub const BENCH_SIZES: [usize; 3] = [10, 100, 1000];

impl TopoSpec {
    /// Create a generator spec, clamping `tasks` to the shape's minimum.
    pub fn new(shape: TopoShape, tasks: usize, seed: u64) -> Self {
        TopoSpec {
            shape,
            tasks: tasks.max(shape.min_tasks()),
            seed,
        }
    }

    /// Stable name, e.g. `topo-fan-out-100`.
    pub fn name(&self) -> String {
        format!("topo-{}-{}", self.shape.label(), self.tasks)
    }

    /// Generate the workflow spec.  Pure: identical inputs yield identical
    /// specs.
    pub fn generate(&self) -> WorkflowSpec {
        let n = self.tasks;
        let mut spec = WorkflowSpec::new(&self.name());
        match self.shape {
            TopoShape::FanOut => {
                let mut source = TaskSpec::new(&task_name(0), 1);
                for i in 1..n {
                    source = source.produces(&dataset_name(i - 1));
                }
                spec.tasks.push(source);
                for i in 1..n {
                    spec.tasks
                        .push(TaskSpec::new(&task_name(i), 1).consumes(&dataset_name(i - 1)));
                }
            }
            TopoShape::Chain => {
                spec.tasks
                    .push(TaskSpec::new(&task_name(0), 1).produces(&dataset_name(0)));
                for i in 1..n - 1 {
                    spec.tasks.push(
                        TaskSpec::new(&task_name(i), 1)
                            .consumes(&dataset_name(i - 1))
                            .produces(&dataset_name(i)),
                    );
                }
                spec.tasks
                    .push(TaskSpec::new(&task_name(n - 1), 1).consumes(&dataset_name(n - 2)));
            }
            TopoShape::Diamond => {
                // One source dataset consumed by every relay; every relay's
                // output consumed by the sink.
                spec.tasks
                    .push(TaskSpec::new(&task_name(0), 1).produces("seed"));
                let mut sink = TaskSpec::new(&task_name(n - 1), 1);
                for i in 1..n - 1 {
                    spec.tasks.push(
                        TaskSpec::new(&task_name(i), 1)
                            .consumes("seed")
                            .produces(&dataset_name(i)),
                    );
                    sink = sink.consumes(&dataset_name(i));
                }
                spec.tasks.push(sink);
            }
            TopoShape::Random => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                spec.tasks
                    .push(TaskSpec::new(&task_name(0), 1).produces(&dataset_name(0)));
                for i in 1..n {
                    let mut task = TaskSpec::new(&task_name(i), 1);
                    // Consume 1..=3 distinct datasets produced by earlier
                    // tasks: acyclic by construction.
                    let fanin = 1 + rng.gen_range(0..3.min(i));
                    let mut picked = std::collections::BTreeSet::new();
                    while picked.len() < fanin {
                        picked.insert(rng.gen_range(0..i));
                    }
                    for j in picked {
                        task = task.consumes(&dataset_name(j));
                    }
                    if i < n - 1 {
                        task = task.produces(&dataset_name(i));
                    }
                    spec.tasks.push(task);
                }
            }
            TopoShape::Cyclic => {
                // A ring: task i consumes dataset (i - 1) mod n and produces
                // dataset i, so validation must report a cycle.
                for i in 0..n {
                    spec.tasks.push(
                        TaskSpec::new(&task_name(i), 1)
                            .consumes(&dataset_name((i + n - 1) % n))
                            .produces(&dataset_name(i)),
                    );
                }
            }
        }
        spec
    }
}

fn task_name(i: usize) -> String {
    format!("t{i:04}")
}

fn dataset_name(i: usize) -> String {
    format!("d{i:04}")
}

/// Every acyclic shape at every [`BENCH_SIZES`] tier, all under one seed.
/// The workspace's `tests/topo_properties.rs` runs each tier of
/// `bench_suite(42)` on the engine and pins its counters and trace
/// checksum.
pub fn bench_suite(seed: u64) -> Vec<TopoSpec> {
    let mut suite = Vec::new();
    for &tasks in &BENCH_SIZES {
        for shape in TopoShape::ACYCLIC {
            suite.push(TopoSpec::new(shape, tasks, seed));
        }
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::DiagnosticKind;

    #[test]
    fn generation_is_deterministic() {
        for shape in TopoShape::ALL {
            let a = TopoSpec::new(shape, 100, 7).generate();
            let b = TopoSpec::new(shape, 100, 7).generate();
            assert_eq!(a, b, "{shape} not deterministic");
        }
        let a = TopoSpec::new(TopoShape::Random, 100, 7).generate();
        let c = TopoSpec::new(TopoShape::Random, 100, 8).generate();
        assert_ne!(a, c, "random shape ignores its seed");
    }

    #[test]
    fn acyclic_shapes_validate_without_errors() {
        for shape in TopoShape::ACYCLIC {
            for tasks in [2, 3, 10, 100] {
                let spec = TopoSpec::new(shape, tasks, 42).generate();
                assert!(
                    spec.is_structurally_valid(),
                    "{shape} at {tasks}: {:?}",
                    spec.validate()
                );
            }
        }
    }

    #[test]
    fn cyclic_shape_always_reports_a_cycle() {
        for tasks in [2, 3, 10, 100] {
            let spec = TopoSpec::new(TopoShape::Cyclic, tasks, 42).generate();
            assert!(!spec.is_structurally_valid());
            let diags = spec.validate();
            assert!(
                diags.iter().any(|d| d.kind == DiagnosticKind::Cycle),
                "{diags:?}"
            );
        }
    }

    #[test]
    fn shapes_have_the_announced_structure() {
        let fan = TopoSpec::new(TopoShape::FanOut, 10, 1).generate();
        assert_eq!(fan.tasks.len(), 10);
        assert_eq!(fan.tasks[0].data.len(), 9);
        assert_eq!(fan.edges().len(), 9);

        let chain = TopoSpec::new(TopoShape::Chain, 10, 1).generate();
        assert_eq!(chain.edges().len(), 9);
        assert_eq!(chain.datasets().len(), 9);

        let diamond = TopoSpec::new(TopoShape::Diamond, 10, 1).generate();
        // source -> 8 relays -> sink: 8 seed edges + 8 sink edges.
        assert_eq!(diamond.edges().len(), 16);

        let random = TopoSpec::new(TopoShape::Random, 50, 9).generate();
        assert_eq!(random.tasks.len(), 50);
        assert!(random.edges().len() >= 49);
    }

    #[test]
    fn task_counts_are_clamped_to_shape_minimums() {
        assert_eq!(TopoSpec::new(TopoShape::Diamond, 0, 1).tasks, 3);
        assert_eq!(TopoSpec::new(TopoShape::Chain, 1, 1).tasks, 2);
        let spec = TopoSpec::new(TopoShape::Diamond, 3, 1).generate();
        assert!(spec.is_structurally_valid());
    }

    #[test]
    fn bench_suite_sweeps_every_acyclic_shape_and_size() {
        let suite = bench_suite(42);
        assert_eq!(suite.len(), BENCH_SIZES.len() * TopoShape::ACYCLIC.len());
        assert!(suite.iter().all(|t| t.shape.is_acyclic()));
        assert!(suite.iter().any(|t| t.tasks == 1000));
    }

    #[test]
    fn normalization_is_idempotent_on_generated_specs() {
        for shape in TopoShape::ACYCLIC {
            let spec = TopoSpec::new(shape, 100, 3).generate();
            let once = spec.normalized();
            let twice = once.normalized();
            assert_eq!(once, twice, "{shape}");
        }
    }
}
