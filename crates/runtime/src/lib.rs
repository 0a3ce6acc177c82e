//! `wfspeak-runtime` — a small in situ workflow execution engine.
//!
//! The paper evaluates LLMs on *describing* workflows (configuration files,
//! annotated task codes); this crate closes the loop by actually *running*
//! the described workflow.  A validated Wilkins-style configuration (or a
//! neutral [`wfspeak_systems::WorkflowSpec`]) is turned into a task graph
//! whose tasks exchange typed datasets over in-memory queues — the same
//! producer/consumer pattern the benchmark's task codes implement.  Every
//! score depends on message counts alone, so the engine runs the graph on
//! the caller's thread: tasks in dependency order, each to the end, with no
//! threads, channels or timeouts.  The same spec and seed always produce
//! the same run.
//!
//! Uses:
//! * behavioural correctness checks — a generated configuration is "right"
//!   not only when it textually matches the reference but when the workflow
//!   it describes runs to completion and the consumers see the producer's
//!   data;
//! * the runtime-scaling benchmark in `wfspeak-bench`;
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

pub mod data;
pub mod engine;
mod task;
pub mod trace;

pub use data::{DataMessage, Dataset};
pub use engine::{Engine, EngineConfig, EngineError, RunOutcome};
pub use trace::{Event, EventKind, ExecutionTrace, TraceSummary};
