//! `wfspeak-runtime` — a small in situ workflow execution engine.
//!
//! The paper evaluates LLMs on *describing* workflows (configuration files,
//! annotated task codes); this crate closes the loop by actually *running*
//! the described workflow.  A neutral [`wfspeak_systems::WorkflowSpec`]
//! (which [`wfspeak_systems::workflow_spec_from_config`] recovers from any
//! of the five systems' artifacts) is turned into a task graph whose tasks
//! pass `f32` arrays over in-memory queues — the same producer/consumer
//! pattern the benchmark's task codes implement.  Every score depends on
//! message counts alone, so the engine runs the graph on the caller's
//! thread: tasks in dependency order, each to the end, with no threads,
//! channels or timeouts.  The same spec and seed always produce the same
//! run, down to the text of its trace and the bits of every consumer sum.
//!
//! Uses:
//! * behavioural correctness checks — a generated configuration is "right"
//!   not only when it textually matches the reference but when the workflow
//!   it describes runs to completion and the consumers see the producer's
//!   data;
//! * the topology golden in the workspace's `tests/topo_properties.rs`,
//!   which runs every tier of `wfspeak_systems::topo::bench_suite` and pins
//!   a checksum of each run's trace summary;
//! * the `run_workflow` example.
//!
//! # Quickstart
//!
//! ```
//! use wfspeak_runtime::{Engine, EngineConfig};
//! use wfspeak_systems::WorkflowSpec;
//!
//! let spec = WorkflowSpec::paper_3node();
//! let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
//! assert!(outcome.completed);
//! assert_eq!(outcome.timesteps, 3);
//! ```

pub mod engine;
mod task;
pub mod trace;

pub use engine::{Engine, EngineConfig, EngineError, RunOutcome};
pub use trace::{Event, EventKind, ExecutionTrace, TraceSummary};

#[cfg(test)]
mod tests {
    use wfspeak_systems::topo::bench_suite;

    use crate::{Engine, EngineConfig};

    #[test]
    fn runtime_scaling_report_is_deterministic_at_the_smoke_tier() {
        // The topology suite's tiers up to 100 tasks (2 sizes × 4 acyclic
        // shapes) on the engine the topology golden uses: a second run of
        // each normalized spec on the same engine summarises bit-identically.
        // The golden pins each tier's counters and checksum.
        let engine = Engine::new(EngineConfig {
            elements: 16,
            seed: 42,
            ..EngineConfig::default()
        });
        let smoke: Vec<_> = bench_suite(42)
            .into_iter()
            .filter(|topo| topo.tasks <= 100)
            .collect();
        assert_eq!(smoke.len(), 8);
        for topo in smoke {
            let spec = topo.generate().normalized();
            let outcome = engine.run(&spec).unwrap();
            assert!(outcome.completed, "{}: run did not complete", topo.name());
            let summary = outcome.summary();
            assert!(
                summary.total_published() > 0 && summary.total_received() > 0,
                "{}",
                topo.name()
            );
            let rerun = engine.run(&spec).unwrap().summary();
            assert_eq!(summary, rerun, "{}", topo.name());
            assert!(
                (summary.fidelity(&rerun) - 1.0).abs() < 1e-12,
                "{}",
                topo.name()
            );
        }
    }
}
