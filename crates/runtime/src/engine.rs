//! The workflow engine: builds the task graph from a specification and
//! runs every task to the end on the caller's thread, producers before
//! their consumers.
//!
//! Scores are functions of message counts, never of scheduling, so there
//! is nothing for concurrency to add: each link is a queue, and a task
//! starts only once every task it reads from has finished.  A consumer that
//! finds an input empty with no end-of-stream knows its producer failed and
//! fails too, at once — no run waits on a timeout.

use std::collections::{BTreeMap, HashMap};

use wfspeak_systems::spec::DataRole;
use wfspeak_systems::WorkflowSpec;

use crate::task::{task_rng, Link, TaskContext, TaskRole};
use crate::trace::{EventKind, ExecutionTrace};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of timesteps the producer runs for (the benchmark default is 3).
    pub timesteps: usize,
    /// Elements in generated arrays (benchmark default 50).
    pub elements: usize,
    /// RNG seed for data generation.
    pub seed: u64,
    /// Inject a failure into this task at timestep 1 (failure-handling tests).
    pub fail_task: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            timesteps: 3,
            elements: 50,
            seed: 42,
            fail_task: None,
        }
    }
}

/// Why a run could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The workflow specification failed structural validation.
    InvalidSpec(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidSpec(msg) => write!(f, "invalid workflow spec: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of running a workflow.
#[derive(Debug)]
pub struct RunOutcome {
    /// True when every task finished without error and every consumer saw
    /// every timestep of every dataset it subscribes to.
    pub completed: bool,
    /// Timesteps executed.
    pub timesteps: usize,
    /// Per-consumer sums of the datasets received (task → sums in arrival
    /// order).
    pub consumer_sums: BTreeMap<String, Vec<f64>>,
    /// Names of tasks that failed.
    pub failed_tasks: Vec<String>,
    /// The full event trace.
    pub trace: ExecutionTrace,
}

impl RunOutcome {
    /// Total number of dataset messages received across all consumers.
    pub fn total_received(&self) -> usize {
        self.consumer_sums.values().map(Vec::len).sum()
    }

    /// Deterministic condensation of the run's trace (counts only), the
    /// form compared against a reference run in execution scoring.
    pub fn summary(&self) -> crate::trace::TraceSummary {
        self.trace.summary()
    }
}

/// The workflow engine.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// Run a neutral workflow specification.
    pub fn run(&self, spec: &WorkflowSpec) -> Result<RunOutcome, EngineError> {
        if let Some(diagnostic) = spec.validate().iter().find(|d| d.is_error()) {
            return Err(EngineError::InvalidSpec(diagnostic.to_string()));
        }
        let mut trace = ExecutionTrace::default();
        let mut graph = Graph::build(spec);
        for task in &spec.tasks {
            trace.record(&task.name, EventKind::TaskStarted);
        }

        let mut consumer_sums = BTreeMap::new();
        for &index in &graph.order {
            let task = &spec.tasks[index];
            let mut ctx = TaskContext {
                task: &task.name,
                timesteps: self.config.timesteps,
                elements: self.config.elements,
                inputs: std::mem::take(&mut graph.inputs[index]),
                outputs: std::mem::take(&mut graph.outputs[index]),
                links: &mut graph.links,
                trace: &mut trace,
                rng: task_rng(self.config.seed, &task.name),
                received_sums: Vec::new(),
                fail_at_step: (self.config.fail_task.as_ref() == Some(&task.name)).then_some(1),
            };
            let result = TaskRole::of(task).run(&mut ctx);
            let received_sums = ctx.received_sums;
            match result {
                Ok(()) => {
                    trace.record(&task.name, EventKind::TaskFinished);
                    if !received_sums.is_empty() {
                        consumer_sums.insert(task.name.clone(), received_sums);
                    }
                }
                Err(reason) => trace.record(&task.name, EventKind::TaskFailed { reason }),
            }
        }
        let failed_tasks = trace.failed_tasks();

        // Completion additionally requires every consumer to have seen every
        // timestep of every dataset it subscribes to.
        let delivery_ok = spec.tasks.iter().all(|task| {
            let expected = task
                .data
                .iter()
                .filter(|d| d.role == DataRole::Consumes)
                .count()
                * self.config.timesteps;
            expected == 0 || consumer_sums.get(&task.name).map_or(0, Vec::len) == expected
        });

        Ok(RunOutcome {
            completed: failed_tasks.is_empty() && delivery_ok,
            timesteps: self.config.timesteps,
            consumer_sums,
            failed_tasks,
            trace,
        })
    }
}

/// The task graph of one run: one link per (producer, consumer, dataset)
/// edge, each task's inputs and outputs over those links, and an order that
/// runs every producer before its consumers.
struct Graph<'a> {
    links: Vec<Link>,
    inputs: Vec<BTreeMap<&'a str, usize>>,
    outputs: Vec<BTreeMap<&'a str, Vec<usize>>>,
    order: Vec<usize>,
}

impl<'a> Graph<'a> {
    /// Wire `spec`, which must have passed `validate` (unique task names,
    /// no cycles, no self-loops).
    ///
    /// Links are made in [`WorkflowSpec::edges`] order, and each consumer
    /// reads a dataset from the *last* link made to it.  When two tasks
    /// produce one dataset, the earlier producer's links are left
    /// disconnected, so it fails on its first send.
    fn build(spec: &'a WorkflowSpec) -> Self {
        let n = spec.tasks.len();
        let mut consumers: HashMap<&str, Vec<usize>> = HashMap::new();
        for (c, task) in spec.tasks.iter().enumerate() {
            for d in task.data.iter().filter(|d| d.role == DataRole::Consumes) {
                let list = consumers.entry(&d.dataset).or_default();
                if list.last() != Some(&c) {
                    list.push(c);
                }
            }
        }

        let mut links = Vec::new();
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree = vec![0usize; n];
        let mut inputs: Vec<BTreeMap<&str, usize>> = vec![BTreeMap::new(); n];
        let mut outputs: Vec<BTreeMap<&str, Vec<usize>>> = vec![BTreeMap::new(); n];
        for (p, task) in spec.tasks.iter().enumerate() {
            for d in task.data.iter().filter(|d| d.role == DataRole::Produces) {
                let output = outputs[p].entry(d.dataset.as_str()).or_default();
                for &c in consumers.get(d.dataset.as_str()).into_iter().flatten() {
                    if c == p {
                        continue;
                    }
                    output.push(links.len());
                    inputs[c].insert(&d.dataset, links.len());
                    links.push(Link::default());
                    successors[p].push(c);
                    indegree[c] += 1;
                }
            }
        }
        for &link in inputs.iter().flat_map(BTreeMap::values) {
            links[link].connected = true;
        }

        // Kahn's algorithm; `validate` already rejected cycles, so every
        // task gets a place.
        let mut order: Vec<usize> = (0..n).filter(|&t| indegree[t] == 0).collect();
        let mut next = 0;
        while let Some(&t) = order.get(next) {
            next += 1;
            for &s in &successors[t] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    order.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "validated specs are acyclic");

        Graph {
            links,
            inputs,
            outputs,
            order,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSummary;
    use wfspeak_corpus::references::configs::WILKINS_3NODE;
    use wfspeak_corpus::WorkflowSystemId;
    use wfspeak_systems::spec::TaskSpec;
    use wfspeak_systems::workflow_spec_from_config;

    /// What a completed run must reproduce exactly: its summary and every
    /// consumer's sums.
    fn fingerprint(outcome: RunOutcome) -> (TraceSummary, BTreeMap<String, Vec<f64>>) {
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        (outcome.summary(), outcome.consumer_sums)
    }

    /// A run's failed tasks (sorted) and trace summary, in the form the
    /// threaded engine's outcomes were recorded in.
    fn observed(outcome: &RunOutcome) -> String {
        let mut failed = outcome.failed_tasks.clone();
        failed.sort();
        format!("failed {failed:?} summary {:?}", outcome.summary())
    }

    #[test]
    fn paper_3node_workflow_runs_to_completion() {
        let outcome = Engine::new(EngineConfig::default())
            .run(&WorkflowSpec::paper_3node())
            .unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.timesteps, 3);
        // consumer1 and consumer2 each received 3 steps of their dataset.
        assert_eq!(outcome.consumer_sums["consumer1"].len(), 3);
        assert_eq!(outcome.consumer_sums["consumer2"].len(), 3);
        assert!(outcome.failed_tasks.is_empty());
        assert_eq!(outcome.trace.published_count("grid"), 3);
        assert_eq!(outcome.trace.received_count("grid"), 3);
    }

    #[test]
    fn consumer_sums_are_plausible() {
        let config = EngineConfig {
            elements: 100,
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config)
            .run(&WorkflowSpec::paper_3node())
            .unwrap();
        // Uniform [0,1) values: the sum of 100 elements is around 50.
        for sums in outcome.consumer_sums.values() {
            for s in sums {
                assert!(*s > 20.0 && *s < 80.0, "implausible sum {s}");
            }
        }
    }

    #[test]
    fn deterministic_given_a_seed() {
        let run = |seed| {
            let config = EngineConfig {
                seed,
                ..EngineConfig::default()
            };
            let outcome = Engine::new(config)
                .run(&WorkflowSpec::fewshot_2node())
                .unwrap();
            outcome.consumer_sums["consumer"].clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn benchmark_spec_traces_are_deterministic_across_runs() {
        // Execution scoring depends on this: repeated runs of the benchmark
        // spec under one seed must summarise identically and sum the same
        // data.
        let run = || {
            fingerprint(
                Engine::new(EngineConfig::default())
                    .run(&WorkflowSpec::paper_3node())
                    .unwrap(),
            )
        };
        let baseline = run();
        for _ in 0..3 {
            assert_eq!(run(), baseline, "repeat run diverged");
        }
    }

    #[test]
    fn repeat_runs_print_the_same_trace_and_sums() {
        // Nothing in a run reads the clock or depends on hash order: two
        // runs of one spec print the same log and list the same sums.
        let run = || {
            Engine::new(EngineConfig::default())
                .run(&WorkflowSpec::paper_3node())
                .unwrap()
        };
        let (first, second) = (run(), run());
        assert!(first.trace.render().starts_with("producer: started\n"));
        assert_eq!(first.trace.render(), second.trace.render());
        assert_eq!(first.consumer_sums, second.consumer_sums);
    }

    #[test]
    fn relay_tasks_drain_inputs_and_republish() {
        // producer -> relay -> sink: the interior task must consume every
        // upstream timestep AND deliver every timestep downstream.
        let spec = WorkflowSpec::new("chain3")
            .with_task(TaskSpec::new("producer", 1).produces("raw"))
            .with_task(TaskSpec::new("relay", 1).consumes("raw").produces("cooked"))
            .with_task(TaskSpec::new("sink", 1).consumes("cooked"));
        let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.consumer_sums["relay"].len(), 3);
        assert_eq!(outcome.consumer_sums["sink"].len(), 3);
        assert_eq!(outcome.trace.published_count("cooked"), 3);
        assert_eq!(outcome.trace.received_count("cooked"), 3);
    }

    #[test]
    fn thousand_task_topologies_are_deterministic_across_runs() {
        // The topology golden's trace checksums rest on this: a seeded
        // 1000-task graph must complete and summarise identically run to
        // run.
        use wfspeak_systems::topo::{TopoShape, TopoSpec};
        for shape in [TopoShape::Diamond, TopoShape::FanOut] {
            let spec = TopoSpec::new(shape, 1000, 42).generate();
            let run = || fingerprint(Engine::new(EngineConfig::default()).run(&spec).unwrap());
            assert_eq!(run(), run(), "{shape}");
        }
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = WorkflowSpec::new("bad").with_task(TaskSpec::new("c", 1).consumes("ghost"));
        let err = Engine::new(EngineConfig::default()).run(&spec).unwrap_err();
        assert!(matches!(err, EngineError::InvalidSpec(_)));
    }

    #[test]
    fn reference_wilkins_config_executes() {
        let (spec, report) = workflow_spec_from_config(WorkflowSystemId::Wilkins, WILKINS_3NODE);
        assert!(report.is_valid(), "{report}");
        let outcome = Engine::new(EngineConfig::default())
            .run(&spec.unwrap())
            .unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.total_received(), 6);
    }

    #[test]
    fn injected_producer_failure_propagates() {
        let config = EngineConfig {
            fail_task: Some("producer".into()),
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config)
            .run(&WorkflowSpec::fewshot_2node())
            .unwrap();
        assert!(!outcome.completed);
        // The producer published timestep 0 and failed at timestep 1; the
        // consumer took timestep 0, found its input empty with no
        // end-of-stream, and failed without waiting.  A failed task
        // contributes no sums.
        assert!(observed(&outcome).starts_with(r#"failed ["consumer", "producer"]"#));
        assert_eq!(outcome.trace.published_count("particles"), 1);
        assert_eq!(outcome.trace.received_count("particles"), 1);
        assert!(outcome.consumer_sums.is_empty());
    }

    #[test]
    fn injected_failure_in_a_multi_rank_producer_returns() {
        // The producer has 3 ranks; a failure of its rank 0 must end the
        // run, not leave the other ranks waiting for it.
        let config = EngineConfig {
            fail_task: Some("producer".into()),
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config)
            .run(&WorkflowSpec::paper_3node())
            .unwrap();
        assert!(!outcome.completed);
        assert!(outcome.failed_tasks.contains(&"producer".to_string()));

        // The same holds when a multi-rank producer fails on a send (here:
        // the duplicate-producer quirk) rather than by injection.
        let spec = WorkflowSpec::new("dup-multi-rank")
            .with_task(TaskSpec::new("p1", 2).produces("grid").produces("aux"))
            .with_task(TaskSpec::new("p2", 1).produces("grid"))
            .with_task(TaskSpec::new("c1", 1).consumes("grid"))
            .with_task(TaskSpec::new("c2", 1).consumes("aux"));
        let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
        assert!(!outcome.completed);
        assert!(observed(&outcome).starts_with(r#"failed ["c2", "p1"]"#));
    }

    #[test]
    fn duplicate_producers_connect_only_the_last_producer() {
        // Two tasks produce `grid` for `c`: only the producer declared last
        // is connected, and the earlier one fails on its first send.  The
        // expected outcomes are the threaded engine's.
        let spec = WorkflowSpec::new("dup")
            .with_task(TaskSpec::new("p1", 1).produces("grid"))
            .with_task(TaskSpec::new("p2", 1).produces("grid"))
            .with_task(TaskSpec::new("c", 1).consumes("grid"));
        let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.consumer_sums["c"].len(), 3);
        assert_eq!(
            observed(&outcome),
            concat!(
                r#"failed ["p1"] summary TraceSummary { events: {"data-published": 3, "#,
                r#""data-received": 3, "task-failed": 1, "task-finished": 2, "task-started": 3}, "#,
                r#"published: {"grid": 3}, received: {"grid": 3}, tasks_started: {"c": 1, "#,
                r#""p1": 1, "p2": 1}, tasks_finished: {"c": 1, "p2": 1}, tasks_failed: {"p1": 1} }"#
            )
        );

        // The failing producer first publishes `aa` (datasets go out in
        // name order), so the relay downstream of it takes one timestep,
        // publishes once and fails, and so does the sink reading from it.
        let spec = WorkflowSpec::new("dup-relay")
            .with_task(TaskSpec::new("p1", 1).produces("grid").produces("aa"))
            .with_task(TaskSpec::new("p2", 1).produces("grid"))
            .with_task(TaskSpec::new("relay", 1).consumes("aa").produces("cooked"))
            .with_task(TaskSpec::new("sink", 1).consumes("cooked").consumes("grid"));
        let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
        assert!(!outcome.completed);
        assert!(outcome.consumer_sums.is_empty());
        assert_eq!(
            observed(&outcome),
            concat!(
                r#"failed ["p1", "relay", "sink"] summary TraceSummary { events: "#,
                r#"{"data-published": 5, "data-received": 3, "task-failed": 3, "#,
                r#""task-finished": 1, "task-started": 4}, published: {"aa": 1, "cooked": 1, "#,
                r#""grid": 3}, received: {"aa": 1, "cooked": 1, "grid": 1}, tasks_started: "#,
                r#"{"p1": 1, "p2": 1, "relay": 1, "sink": 1}, tasks_finished: {"p2": 1}, "#,
                r#"tasks_failed: {"p1": 1, "relay": 1, "sink": 1} }"#
            )
        );
    }

    #[test]
    fn injected_consumer_failure_marks_run_incomplete() {
        let config = EngineConfig {
            fail_task: Some("consumer".into()),
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config)
            .run(&WorkflowSpec::fewshot_2node())
            .unwrap();
        assert!(!outcome.completed);
    }

    #[test]
    fn single_task_workflow_with_unconsumed_output_completes() {
        let spec =
            WorkflowSpec::new("solo").with_task(TaskSpec::new("producer", 2).produces("grid"));
        let outcome = Engine::new(EngineConfig::default()).run(&spec).unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.total_received(), 0);
    }

    #[test]
    fn larger_process_counts_still_complete() {
        let spec = WorkflowSpec::new("wide")
            .with_task(TaskSpec::new("producer", 8).produces("grid"))
            .with_task(TaskSpec::new("consumer1", 4).consumes("grid"));
        let config = EngineConfig {
            timesteps: 5,
            elements: 10,
            ..EngineConfig::default()
        };
        let outcome = Engine::new(config).run(&spec).unwrap();
        assert!(outcome.completed, "trace:\n{}", outcome.trace.render());
        assert_eq!(outcome.consumer_sums["consumer1"].len(), 5);
    }
}
