//! A neutral, system-agnostic workflow specification.
//!
//! The paper's benchmark scenario — a producer feeding datasets to one or
//! more consumers with given process counts — is captured here once, and
//! each system's reader recovers it from its own artifact format.  The
//! runtime crate executes the same specification directly.
//!
//! Specs move through a lifecycle: parse (a system's reader builds a spec
//! from an artifact), [`WorkflowSpec::validate`] (structural checks returning
//! typed diagnostics), [`WorkflowSpec::normalize`] (canonical ordering and
//! defaulted fields, so downstream scoring is order-insensitive), and
//! finally execution on the runtime engine.

use crate::diagnostics::{Diagnostic, DiagnosticKind, Severity};

/// Largest per-task or total process count `validate` accepts.  The sandbox
/// enforces far tighter caps at execution time; this bound only rejects
/// counts no deployment could ever satisfy.
pub const MAX_REASONABLE_PROCS: usize = 65_536;

/// Largest task count `validate` accepts.
pub const MAX_REASONABLE_TASKS: usize = 4_096;

/// Direction of a task's relationship to a dataset.  `Produces` orders
/// before `Consumes`, so a task's normalized data list names what it writes
/// before what it reads for the same dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataRole {
    /// The task writes the dataset.
    Produces,
    /// The task reads the dataset.
    Consumes,
}

/// A dataset requirement of one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataRequirement {
    /// Dataset name (e.g. `grid`, `particles`).
    pub dataset: String,
    /// Whether the task produces or consumes it.
    pub role: DataRole,
}

impl DataRequirement {
    /// A requirement on `dataset` in `role`.
    pub fn new(dataset: &str, role: DataRole) -> Self {
        DataRequirement {
            dataset: dataset.to_owned(),
            role,
        }
    }
}

/// One task in the workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Task (function) name, e.g. `producer`, `consumer1`.
    pub name: String,
    /// Number of MPI processes the task requires.
    pub nprocs: usize,
    /// Datasets the task produces or consumes.
    pub data: Vec<DataRequirement>,
}

impl TaskSpec {
    /// Create a task with no data requirements.
    pub fn new(name: &str, nprocs: usize) -> Self {
        TaskSpec {
            name: name.to_owned(),
            nprocs,
            data: Vec::new(),
        }
    }

    /// Add a produced dataset.
    pub fn produces(mut self, dataset: &str) -> Self {
        self.data
            .push(DataRequirement::new(dataset, DataRole::Produces));
        self
    }

    /// Add a consumed dataset.
    pub fn consumes(mut self, dataset: &str) -> Self {
        self.data
            .push(DataRequirement::new(dataset, DataRole::Consumes));
        self
    }

    /// Datasets this task produces.
    pub fn produced_datasets(&self) -> Vec<&str> {
        self.data
            .iter()
            .filter(|d| d.role == DataRole::Produces)
            .map(|d| d.dataset.as_str())
            .collect()
    }

    /// Datasets this task consumes.
    pub fn consumed_datasets(&self) -> Vec<&str> {
        self.data
            .iter()
            .filter(|d| d.role == DataRole::Consumes)
            .map(|d| d.dataset.as_str())
            .collect()
    }
}

/// A whole workflow: an ordered list of tasks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkflowSpec {
    /// Workflow name (used for display and runtime tracing).
    pub name: String,
    /// Tasks in definition order (producers typically first).
    pub tasks: Vec<TaskSpec>,
}

impl WorkflowSpec {
    /// Create an empty workflow.
    pub fn new(name: &str) -> Self {
        WorkflowSpec {
            name: name.to_owned(),
            tasks: Vec::new(),
        }
    }

    /// Add a task.
    pub fn with_task(mut self, task: TaskSpec) -> Self {
        self.tasks.push(task);
        self
    }

    /// The paper's 3-node workflow: producer (3 procs) generating `grid` and
    /// `particles`; consumer1 (1 proc) reading `grid`; consumer2 (1 proc)
    /// reading `particles`.
    pub fn paper_3node() -> Self {
        WorkflowSpec::new("paper-3node")
            .with_task(
                TaskSpec::new("producer", 3)
                    .produces("grid")
                    .produces("particles"),
            )
            .with_task(TaskSpec::new("consumer1", 1).consumes("grid"))
            .with_task(TaskSpec::new("consumer2", 1).consumes("particles"))
    }

    /// The 2-node exemplar used in few-shot prompting: one producer and one
    /// consumer exchanging a single `particles` dataset.
    pub fn fewshot_2node() -> Self {
        WorkflowSpec::new("fewshot-2node")
            .with_task(TaskSpec::new("producer", 1).produces("particles"))
            .with_task(TaskSpec::new("consumer", 1).consumes("particles"))
    }

    /// Total number of MPI processes across all tasks, saturating at
    /// `usize::MAX`.
    pub fn total_procs(&self) -> usize {
        self.tasks
            .iter()
            .fold(0, |sum, t| sum.saturating_add(t.nprocs))
    }

    /// Names of every dataset appearing in the workflow (deduplicated, in
    /// first-appearance order).
    pub fn datasets(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for task in &self.tasks {
            for d in &task.data {
                if seen.insert(d.dataset.clone()) {
                    out.push(d.dataset.clone());
                }
            }
        }
        out
    }

    /// Look up a task by name.
    pub fn task(&self, name: &str) -> Option<&TaskSpec> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Producer/consumer edges: `(producer task, consumer task, dataset)`
    /// for every dataset produced by one task and consumed by another.
    pub fn edges(&self) -> Vec<(String, String, String)> {
        let mut edges = Vec::new();
        for producer in &self.tasks {
            for dataset in producer.produced_datasets() {
                for consumer in &self.tasks {
                    if consumer.name != producer.name
                        && consumer.consumed_datasets().contains(&dataset)
                    {
                        edges.push((
                            producer.name.clone(),
                            consumer.name.clone(),
                            dataset.to_owned(),
                        ));
                    }
                }
            }
        }
        edges
    }

    /// Structural validation pass: every finding is a typed [`Diagnostic`]
    /// so callers can tell a duplicate task from a dangling edge from a
    /// cycle without parsing prose.
    ///
    /// Error-severity findings (duplicate/empty/absurd tasks, dangling
    /// consumes, cycles) make the spec structurally invalid; a produced
    /// dataset nobody consumes is only a warning (a solo producer is a
    /// legitimate, runnable workflow).
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        if self.tasks.is_empty() {
            diags.push(Diagnostic::error(
                DiagnosticKind::EmptyWorkflow,
                "the workflow defines no tasks",
            ));
            return diags;
        }
        if self.tasks.len() > MAX_REASONABLE_TASKS {
            diags.push(Diagnostic::error(
                DiagnosticKind::TaskBounds,
                format!(
                    "{} tasks exceeds the plausible bound of {MAX_REASONABLE_TASKS}",
                    self.tasks.len()
                ),
            ));
        }
        let mut names = std::collections::HashSet::new();
        for task in &self.tasks {
            if task.name.is_empty()
                || task
                    .name
                    .chars()
                    .any(|c| c.is_whitespace() || c.is_control())
            {
                diags.push(
                    Diagnostic::error(
                        DiagnosticKind::InvalidTaskName,
                        format!("task name `{}` is empty or contains whitespace", task.name),
                    )
                    .at_path(&task.name),
                );
            }
            if !names.insert(task.name.as_str()) {
                diags.push(
                    Diagnostic::error(
                        DiagnosticKind::DuplicateTask,
                        format!("duplicate task name `{}`", task.name),
                    )
                    .at_path(&task.name),
                );
            }
            if task.nprocs == 0 {
                diags.push(
                    Diagnostic::error(
                        DiagnosticKind::ZeroProcs,
                        format!("task `{}` has zero processes", task.name),
                    )
                    .at_path(&task.name),
                );
            } else if task.nprocs > MAX_REASONABLE_PROCS {
                diags.push(
                    Diagnostic::error(
                        DiagnosticKind::ProcBounds,
                        format!(
                            "task `{}` requests {} processes, beyond the plausible bound of \
                             {MAX_REASONABLE_PROCS}",
                            task.name, task.nprocs
                        ),
                    )
                    .at_path(&task.name),
                );
            }
            let mut seen_reqs = std::collections::HashSet::new();
            for d in &task.data {
                if d.dataset.is_empty() {
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::InvalidDataset,
                            format!("task `{}` references a dataset with no name", task.name),
                        )
                        .at_path(&task.name),
                    );
                }
                if !seen_reqs.insert((d.dataset.as_str(), d.role)) {
                    diags.push(
                        Diagnostic::warning(
                            DiagnosticKind::DuplicateEdge,
                            format!(
                                "task `{}` lists dataset `{}` twice with the same role",
                                task.name, d.dataset
                            ),
                        )
                        .at_path(&task.name),
                    );
                }
            }
            let produced_here = task.produced_datasets();
            for d in task.consumed_datasets() {
                if produced_here.contains(&d) {
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::SelfLoop,
                            format!(
                                "task `{}` both produces and consumes dataset `{d}`",
                                task.name
                            ),
                        )
                        .at_path(&task.name),
                    );
                }
            }
        }
        if self.total_procs() > MAX_REASONABLE_PROCS {
            diags.push(Diagnostic::error(
                DiagnosticKind::ProcBounds,
                format!(
                    "{} total processes exceeds the plausible bound of {MAX_REASONABLE_PROCS}",
                    self.total_procs()
                ),
            ));
        }
        let produced: std::collections::HashSet<&str> = self
            .tasks
            .iter()
            .flat_map(|t| t.produced_datasets())
            .collect();
        let consumed: std::collections::HashSet<&str> = self
            .tasks
            .iter()
            .flat_map(|t| t.consumed_datasets())
            .collect();
        for task in &self.tasks {
            for d in task.consumed_datasets() {
                if !produced.contains(d) {
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::DanglingConsume,
                            format!(
                                "task `{}` consumes dataset `{d}` which no task produces",
                                task.name
                            ),
                        )
                        .at_path(&task.name),
                    );
                }
            }
            for d in task.produced_datasets() {
                if !consumed.contains(d) {
                    diags.push(
                        Diagnostic::warning(
                            DiagnosticKind::UnconsumedProduce,
                            format!(
                                "task `{}` produces dataset `{d}` which no task consumes",
                                task.name
                            ),
                        )
                        .at_path(&task.name),
                    );
                }
            }
        }
        if let Err(cycle_tasks) = self.dependency_ranks() {
            diags.push(Diagnostic::error(
                DiagnosticKind::Cycle,
                format!(
                    "the producer/consumer graph contains a dependency cycle through: {}",
                    cycle_tasks.join(", ")
                ),
            ));
        }
        diags
    }

    /// True when [`validate`](WorkflowSpec::validate) reports no
    /// error-severity findings.
    pub fn is_structurally_valid(&self) -> bool {
        self.validate()
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// Each task's dependency rank (the length of the longest producer →
    /// consumer path that ends at it), or else the tasks caught in a
    /// dependency cycle, in definition order.  One pass of Kahn's
    /// algorithm: a task is ranked once every task feeding it is.
    /// Self-loops count: a task consuming its own output can never start.
    fn dependency_ranks(&self) -> Result<Vec<usize>, Vec<String>> {
        // predecessor counts per task index, from producer → consumer edges
        let mut indegree = vec![0usize; self.tasks.len()];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); self.tasks.len()];
        for (pi, producer) in self.tasks.iter().enumerate() {
            let produced = producer.produced_datasets();
            for (ci, consumer) in self.tasks.iter().enumerate() {
                let depends = consumer
                    .consumed_datasets()
                    .iter()
                    .any(|d| produced.contains(d));
                if depends {
                    successors[pi].push(ci);
                    indegree[ci] += 1;
                }
            }
        }
        let mut ranks = vec![0usize; self.tasks.len()];
        let mut ready: Vec<usize> = (0..self.tasks.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut resolved = 0;
        while let Some(t) = ready.pop() {
            resolved += 1;
            for &s in &successors[t] {
                ranks[s] = ranks[s].max(ranks[t] + 1);
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if resolved == self.tasks.len() {
            return Ok(ranks);
        }
        Err(self
            .tasks
            .iter()
            .zip(&indegree)
            .filter(|&(_, &d)| d > 0)
            .map(|(t, _)| t.name.clone())
            .collect())
    }

    /// Normalization pass: canonical task ordering (dependency rank, then
    /// name), sorted and deduplicated data requirements, and a defaulted
    /// name — so two specs describing the same workflow compare and score
    /// identically regardless of artifact ordering.  Idempotent, and safe on
    /// invalid specs (bounded work even with dependency cycles).
    pub fn normalize(&mut self) {
        if self.name.is_empty() {
            self.name = "workflow".to_owned();
        }
        for task in &mut self.tasks {
            let mut seen = std::collections::HashSet::new();
            task.data
                .retain(|d| seen.insert((d.dataset.clone(), d.role)));
            task.data
                .sort_by(|a, b| (a.dataset.as_str(), a.role).cmp(&(b.dataset.as_str(), b.role)));
        }
        // A cyclic spec has no dependency ranks; it is invalid anyway, so
        // it gets a plain name ordering.
        let ranks = self
            .dependency_ranks()
            .unwrap_or_else(|_| vec![0; self.tasks.len()]);
        let mut order: Vec<usize> = (0..self.tasks.len()).collect();
        order.sort_by(|&a, &b| {
            (ranks[a], self.tasks[a].name.as_str()).cmp(&(ranks[b], self.tasks[b].name.as_str()))
        });
        let mut tasks = std::mem::take(&mut self.tasks);
        let mut reordered = Vec::with_capacity(tasks.len());
        for idx in order {
            reordered.push(std::mem::replace(&mut tasks[idx], TaskSpec::new("", 0)));
        }
        self.tasks = reordered;
    }

    /// A normalized copy of this spec.
    pub fn normalized(&self) -> Self {
        let mut copy = self.clone();
        copy.normalize();
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_3node_structure() {
        let spec = WorkflowSpec::paper_3node();
        assert_eq!(spec.tasks.len(), 3);
        assert_eq!(spec.total_procs(), 5);
        assert_eq!(spec.datasets(), vec!["grid", "particles"]);
        assert_eq!(spec.task("producer").unwrap().nprocs, 3);
        assert_eq!(
            spec.task("consumer1").unwrap().consumed_datasets(),
            vec!["grid"]
        );
        assert!(spec.validate().is_empty());
        assert!(spec.is_structurally_valid());
    }

    #[test]
    fn paper_3node_edges() {
        let spec = WorkflowSpec::paper_3node();
        let edges = spec.edges();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&("producer".into(), "consumer1".into(), "grid".into())));
        assert!(edges.contains(&("producer".into(), "consumer2".into(), "particles".into())));
    }

    #[test]
    fn fewshot_2node_structure() {
        let spec = WorkflowSpec::fewshot_2node();
        assert_eq!(spec.tasks.len(), 2);
        assert_eq!(spec.edges().len(), 1);
        assert!(spec.validate().is_empty());
    }

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagnosticKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn validate_rejects_duplicate_task_names() {
        let spec = WorkflowSpec::new("w")
            .with_task(TaskSpec::new("a", 1))
            .with_task(TaskSpec::new("a", 1));
        let diags = spec.validate();
        assert!(kinds(&diags).contains(&DiagnosticKind::DuplicateTask));
        assert!(!spec.is_structurally_valid());
        // The finding names the offending task.
        let dup = diags
            .iter()
            .find(|d| d.kind == DiagnosticKind::DuplicateTask)
            .unwrap();
        assert_eq!(dup.path.as_deref(), Some("a"));
    }

    #[test]
    fn validate_rejects_zero_procs() {
        let spec = WorkflowSpec::new("w").with_task(TaskSpec::new("a", 0));
        assert!(kinds(&spec.validate()).contains(&DiagnosticKind::ZeroProcs));
    }

    #[test]
    fn validate_rejects_orphan_consumer() {
        let spec = WorkflowSpec::new("w").with_task(TaskSpec::new("c", 1).consumes("grid"));
        assert!(kinds(&spec.validate()).contains(&DiagnosticKind::DanglingConsume));
    }

    #[test]
    fn validate_rejects_empty_workflow() {
        let diags = WorkflowSpec::new("w").validate();
        assert_eq!(kinds(&diags), vec![DiagnosticKind::EmptyWorkflow]);
    }

    #[test]
    fn validate_warns_on_unconsumed_produce_but_stays_valid() {
        // A solo producer is runnable; downstream stages must not reject it.
        let spec = WorkflowSpec::new("w").with_task(TaskSpec::new("p", 2).produces("grid"));
        let diags = spec.validate();
        assert!(kinds(&diags).contains(&DiagnosticKind::UnconsumedProduce));
        assert!(spec.is_structurally_valid());
    }

    #[test]
    fn validate_rejects_absurd_proc_counts() {
        let spec = WorkflowSpec::new("w")
            .with_task(TaskSpec::new("p", MAX_REASONABLE_PROCS + 1).produces("g"))
            .with_task(TaskSpec::new("c", 1).consumes("g"));
        assert!(kinds(&spec.validate()).contains(&DiagnosticKind::ProcBounds));
        // Sandbox-sized-but-large counts are fine at this stage.
        let sane = WorkflowSpec::new("w").with_task(TaskSpec::new("p", 5000).produces("g"));
        assert!(sane.is_structurally_valid());
    }

    #[test]
    fn validate_rejects_invalid_names_and_datasets() {
        let spec = WorkflowSpec::new("w")
            .with_task(TaskSpec::new("has space", 1).produces("g"))
            .with_task(TaskSpec::new("c", 1).consumes("g").consumes(""));
        let diags = spec.validate();
        assert!(kinds(&diags).contains(&DiagnosticKind::InvalidTaskName));
        assert!(kinds(&diags).contains(&DiagnosticKind::InvalidDataset));
    }

    #[test]
    fn validate_detects_self_loop_and_cycle() {
        let self_loop =
            WorkflowSpec::new("w").with_task(TaskSpec::new("a", 1).produces("x").consumes("x"));
        let diags = self_loop.validate();
        assert!(kinds(&diags).contains(&DiagnosticKind::SelfLoop));
        assert!(kinds(&diags).contains(&DiagnosticKind::Cycle));

        // a → b → a through two datasets: no self-loop, still a cycle.
        let two_cycle = WorkflowSpec::new("w")
            .with_task(TaskSpec::new("a", 1).produces("x").consumes("y"))
            .with_task(TaskSpec::new("b", 1).produces("y").consumes("x"));
        let diags = two_cycle.validate();
        assert!(!kinds(&diags).contains(&DiagnosticKind::SelfLoop));
        let cycle = diags
            .iter()
            .find(|d| d.kind == DiagnosticKind::Cycle)
            .expect("cycle reported");
        assert!(cycle.message.contains('a') && cycle.message.contains('b'));
        assert!(!two_cycle.is_structurally_valid());
    }

    #[test]
    fn validate_warns_on_duplicate_data_requirements() {
        let spec = WorkflowSpec::new("w")
            .with_task(TaskSpec::new("p", 1).produces("g").produces("g"))
            .with_task(TaskSpec::new("c", 1).consumes("g"));
        let diags = spec.validate();
        assert!(kinds(&diags).contains(&DiagnosticKind::DuplicateEdge));
        assert!(spec.is_structurally_valid());
    }

    #[test]
    fn normalize_orders_tasks_by_dependency_rank_then_name() {
        // Consumers listed before the producer: normalize restores
        // producer-first canonical order.
        let mut spec = WorkflowSpec::new("w")
            .with_task(TaskSpec::new("consumer2", 1).consumes("particles"))
            .with_task(TaskSpec::new("consumer1", 1).consumes("grid"))
            .with_task(
                TaskSpec::new("producer", 3)
                    .produces("particles")
                    .produces("grid"),
            );
        spec.normalize();
        let names: Vec<&str> = spec.tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["producer", "consumer1", "consumer2"]);
        // Data requirements are sorted by dataset.
        assert_eq!(spec.tasks[0].produced_datasets(), vec!["grid", "particles"]);
    }

    #[test]
    fn normalize_ranks_tasks_by_their_longest_dependency_path() {
        // `b` is fed by `a` directly and through `z`, so it ranks after `z`
        // although its name sorts first.
        let mut spec = WorkflowSpec::new("w")
            .with_task(TaskSpec::new("b", 1).consumes("x").consumes("y"))
            .with_task(TaskSpec::new("z", 1).consumes("x").produces("y"))
            .with_task(TaskSpec::new("a", 1).produces("x"));
        spec.normalize();
        let names: Vec<&str> = spec.tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["a", "z", "b"]);
    }

    #[test]
    fn normalize_is_idempotent_and_preserves_canonical_specs() {
        let canonical = WorkflowSpec::paper_3node();
        let mut once = canonical.clone();
        once.normalize();
        assert_eq!(once, canonical, "paper_3node is already canonical");
        let twice = once.normalized();
        assert_eq!(twice, once);
    }

    #[test]
    fn normalize_dedups_edges_and_defaults_fields() {
        let mut spec = WorkflowSpec::new("")
            .with_task(TaskSpec::new("p", 1).produces("g").produces("g"))
            .with_task(TaskSpec::new("c", 1).consumes("g"));
        spec.normalize();
        assert_eq!(spec.name, "workflow");
        assert_eq!(
            spec.tasks[0].data,
            vec![DataRequirement::new("g", DataRole::Produces)]
        );
        assert!(spec.validate().is_empty());
    }

    #[test]
    fn normalize_terminates_on_cyclic_specs() {
        // Invalid (cyclic) specs must still normalize in bounded time with
        // a deterministic order.
        let mut spec = WorkflowSpec::new("w")
            .with_task(TaskSpec::new("b", 1).produces("y").consumes("x"))
            .with_task(TaskSpec::new("a", 1).produces("x").consumes("y"));
        spec.normalize();
        let again = spec.normalized();
        assert_eq!(again, spec);
        assert_eq!(spec.tasks.len(), 2);
    }

    #[test]
    fn produced_and_consumed_listing() {
        let t = TaskSpec::new("x", 2)
            .produces("a")
            .consumes("b")
            .produces("c");
        assert_eq!(t.produced_datasets(), vec!["a", "c"]);
        assert_eq!(t.consumed_datasets(), vec!["b"]);
    }
}
