//! Execution tracing: the log of one run's events, in the order the engine
//! recorded them, used by tests, examples and the behavioural-correctness
//! checks.  A run is a function of its spec and seed, and so is its log:
//! [`ExecutionTrace::render`] prints the same text on every run.
//!
//! Beyond the raw log, [`TraceSummary`] condenses a trace into deterministic
//! counts (per-dataset message totals, an event-kind histogram, per-task
//! lifecycle tallies) that do not depend on the order the events were
//! recorded in — the form the execution-validated evaluation compares
//! against a reference run via [`TraceSummary::fidelity`].

use std::collections::BTreeMap;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A task started.
    TaskStarted,
    /// A task published a dataset for a timestep.
    DataPublished {
        /// Dataset name.
        dataset: String,
        /// Timestep index.
        timestep: usize,
    },
    /// A task received a dataset for a timestep.
    DataReceived {
        /// Dataset name.
        dataset: String,
        /// Timestep index.
        timestep: usize,
    },
    /// A task finished cleanly.
    TaskFinished,
    /// A task failed.
    TaskFailed {
        /// Error description.
        reason: String,
    },
}

impl EventKind {
    /// Stable label used in histograms and rendered summaries.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::TaskStarted => "task-started",
            EventKind::DataPublished { .. } => "data-published",
            EventKind::DataReceived { .. } => "data-received",
            EventKind::TaskFinished => "task-finished",
            EventKind::TaskFailed { .. } => "task-failed",
        }
    }
}

/// One trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Task that emitted the event.
    pub task: String,
    /// Event payload.
    pub kind: EventKind,
}

/// The event log of one run, in recording order.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    events: Vec<Event>,
}

impl ExecutionTrace {
    /// Append an event.
    pub fn record(&mut self, task: &str, kind: EventKind) {
        self.events.push(Event {
            task: task.to_owned(),
            kind,
        });
    }

    /// Every event recorded so far, oldest first.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Count events matching a predicate.
    pub fn count_where(&self, predicate: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| predicate(e)).count()
    }

    /// Number of `DataPublished` events for a dataset.
    pub fn published_count(&self, dataset: &str) -> usize {
        self.count_where(
            |e| matches!(&e.kind, EventKind::DataPublished { dataset: d, .. } if d == dataset),
        )
    }

    /// Number of `DataReceived` events for a dataset.
    pub fn received_count(&self, dataset: &str) -> usize {
        self.count_where(
            |e| matches!(&e.kind, EventKind::DataReceived { dataset: d, .. } if d == dataset),
        )
    }

    /// Names of tasks that failed.
    pub fn failed_tasks(&self) -> Vec<String> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::TaskFailed { .. } => Some(e.task.clone()),
                _ => None,
            })
            .collect()
    }

    /// Condense the trace into its deterministic [`TraceSummary`].
    pub fn summary(&self) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for e in &self.events {
            *summary.events.entry(e.kind.label()).or_insert(0) += 1;
            match &e.kind {
                EventKind::TaskStarted => {
                    *summary.tasks_started.entry(e.task.clone()).or_insert(0) += 1;
                }
                EventKind::TaskFinished => {
                    *summary.tasks_finished.entry(e.task.clone()).or_insert(0) += 1;
                }
                EventKind::TaskFailed { .. } => {
                    *summary.tasks_failed.entry(e.task.clone()).or_insert(0) += 1;
                }
                EventKind::DataPublished { dataset, .. } => {
                    *summary.published.entry(dataset.clone()).or_insert(0) += 1;
                }
                EventKind::DataReceived { dataset, .. } => {
                    *summary.received.entry(dataset.clone()).or_insert(0) += 1;
                }
            }
        }
        summary
    }

    /// Render the log, one `task: event` line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let desc = match &e.kind {
                EventKind::TaskStarted => "started".to_owned(),
                EventKind::TaskFinished => "finished".to_owned(),
                EventKind::TaskFailed { reason } => format!("FAILED: {reason}"),
                EventKind::DataPublished { dataset, timestep } => {
                    format!("published {dataset} [t={timestep}]")
                }
                EventKind::DataReceived { dataset, timestep } => {
                    format!("received {dataset} [t={timestep}]")
                }
            };
            out.push_str(&format!("{}: {desc}\n", e.task));
        }
        out
    }
}

/// Deterministic condensation of an [`ExecutionTrace`]: counts only, keyed
/// by ordered maps, so two runs of the same workflow under the same seed
/// produce *equal* summaries whatever order their events were recorded in.
///
/// This is the unit of comparison for execution-validated evaluation: a
/// generated artifact's run is scored by how closely its summary matches the
/// reference specification's summary ([`TraceSummary::fidelity`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Event-kind histogram ([`EventKind::label`] → count).
    pub events: BTreeMap<&'static str, usize>,
    /// `DataPublished` count per dataset.
    pub published: BTreeMap<String, usize>,
    /// `DataReceived` count per dataset.
    pub received: BTreeMap<String, usize>,
    /// `TaskStarted` count per task.
    pub tasks_started: BTreeMap<String, usize>,
    /// `TaskFinished` count per task.
    pub tasks_finished: BTreeMap<String, usize>,
    /// `TaskFailed` count per task.
    pub tasks_failed: BTreeMap<String, usize>,
}

/// Overlap similarity of two count multisets: `Σ min / max(Σa, Σb)`, which
/// is 1.0 for identical histograms, 0.0 for disjoint ones, and degrades
/// smoothly for partial matches. Two empty histograms count as identical.
fn histogram_overlap<K: Ord>(a: &BTreeMap<K, usize>, b: &BTreeMap<K, usize>) -> f64 {
    let total_a: usize = a.values().sum();
    let total_b: usize = b.values().sum();
    if total_a == 0 && total_b == 0 {
        return 1.0;
    }
    let shared: usize = a
        .iter()
        .map(|(k, &count)| count.min(b.get(k).copied().unwrap_or(0)))
        .sum();
    shared as f64 / total_a.max(total_b) as f64
}

impl TraceSummary {
    /// Total dataset messages published.
    pub fn total_published(&self) -> usize {
        self.published.values().sum()
    }

    /// Total dataset messages received.
    pub fn total_received(&self) -> usize {
        self.received.values().sum()
    }

    /// Total failed-task events.
    pub fn total_failed(&self) -> usize {
        self.tasks_failed.values().sum()
    }

    /// Similarity of this run's trace to a reference run's trace, in
    /// `0.0..=1.0`.
    ///
    /// The score averages four overlap components, each `Σ min / Σ max`
    /// over a count histogram:
    ///
    /// 1. per-dataset published counts,
    /// 2. per-dataset received counts,
    /// 3. the event-kind histogram,
    /// 4. per-task *finish* counts, minus a penalty of one per failed task
    ///    (scaled by the larger run's task count, floored at zero).
    ///
    /// 1.0 means the run is indistinguishable from the reference at trace
    /// granularity; 0.0 means no overlap at all.
    pub fn fidelity(&self, reference: &TraceSummary) -> f64 {
        let published = histogram_overlap(&self.published, &reference.published);
        let received = histogram_overlap(&self.received, &reference.received);
        let events = histogram_overlap(&self.events, &reference.events);
        let lifecycle = {
            let finished = histogram_overlap(&self.tasks_finished, &reference.tasks_finished);
            // Failures are absent from any clean reference; each failed task
            // caps the lifecycle component below 1.
            let total_tasks = self.tasks_started.len().max(reference.tasks_started.len());
            let penalty = if total_tasks == 0 {
                0.0
            } else {
                self.tasks_failed.len() as f64 / total_tasks as f64
            };
            (finished - penalty).max(0.0)
        };
        (published + received + events + lifecycle) / 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut trace = ExecutionTrace::default();
        assert!(trace.events().is_empty());
        trace.record("producer", EventKind::TaskStarted);
        trace.record(
            "producer",
            EventKind::DataPublished {
                dataset: "grid".into(),
                timestep: 0,
            },
        );
        trace.record(
            "consumer1",
            EventKind::DataReceived {
                dataset: "grid".into(),
                timestep: 0,
            },
        );
        trace.record("producer", EventKind::TaskFinished);
        assert_eq!(trace.events().len(), 4);
        assert_eq!(trace.published_count("grid"), 1);
        assert_eq!(trace.received_count("grid"), 1);
        assert_eq!(trace.published_count("particles"), 0);
        assert!(trace.failed_tasks().is_empty());
    }

    #[test]
    fn failed_tasks_reported() {
        let mut trace = ExecutionTrace::default();
        trace.record(
            "consumer2",
            EventKind::TaskFailed {
                reason: "missing dataset".into(),
            },
        );
        assert_eq!(trace.failed_tasks(), vec!["consumer2"]);
    }

    #[test]
    fn render_contains_tasks_and_events() {
        let mut trace = ExecutionTrace::default();
        trace.record("producer", EventKind::TaskStarted);
        trace.record(
            "producer",
            EventKind::DataPublished {
                dataset: "grid".into(),
                timestep: 2,
            },
        );
        let text = trace.render();
        assert_eq!(text, "producer: started\nproducer: published grid [t=2]\n");
    }

    fn sample_trace() -> ExecutionTrace {
        let mut trace = ExecutionTrace::default();
        trace.record("producer", EventKind::TaskStarted);
        trace.record("consumer1", EventKind::TaskStarted);
        for t in 0..3 {
            trace.record(
                "producer",
                EventKind::DataPublished {
                    dataset: "grid".into(),
                    timestep: t,
                },
            );
            trace.record(
                "consumer1",
                EventKind::DataReceived {
                    dataset: "grid".into(),
                    timestep: t,
                },
            );
        }
        trace.record("producer", EventKind::TaskFinished);
        trace.record("consumer1", EventKind::TaskFinished);
        trace
    }

    #[test]
    fn summary_counts_events_by_kind_dataset_and_task() {
        let summary = sample_trace().summary();
        assert_eq!(summary.events["task-started"], 2);
        assert_eq!(summary.events["data-published"], 3);
        assert_eq!(summary.events["data-received"], 3);
        assert_eq!(summary.events["task-finished"], 2);
        assert_eq!(summary.published["grid"], 3);
        assert_eq!(summary.received["grid"], 3);
        assert_eq!(summary.total_published(), 3);
        assert_eq!(summary.total_received(), 3);
        assert_eq!(summary.total_failed(), 0);
        assert_eq!(summary.tasks_finished.len(), 2);
    }

    #[test]
    fn summary_is_order_independent() {
        // The same events recorded in a different interleaving summarise
        // identically — the property the determinism guarantees rest on.
        let mut reordered = ExecutionTrace::default();
        reordered.record("consumer1", EventKind::TaskStarted);
        reordered.record("producer", EventKind::TaskStarted);
        for t in [2usize, 0, 1] {
            reordered.record(
                "consumer1",
                EventKind::DataReceived {
                    dataset: "grid".into(),
                    timestep: t,
                },
            );
            reordered.record(
                "producer",
                EventKind::DataPublished {
                    dataset: "grid".into(),
                    timestep: t,
                },
            );
        }
        reordered.record("consumer1", EventKind::TaskFinished);
        reordered.record("producer", EventKind::TaskFinished);
        assert_eq!(sample_trace().summary(), reordered.summary());
    }

    #[test]
    fn fidelity_is_one_for_identical_summaries_and_zero_for_disjoint() {
        let summary = sample_trace().summary();
        assert!((summary.fidelity(&summary) - 1.0).abs() < 1e-12);

        let empty = TraceSummary::default();
        // An empty run shares nothing with the reference: every overlap
        // component is zero, so the score is exactly zero.
        assert_eq!(summary.fidelity(&empty), 0.0);
        assert!((empty.fidelity(&empty) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_degrades_with_missing_messages_and_failures() {
        let reference = sample_trace().summary();

        let mut partial = ExecutionTrace::default();
        partial.record("producer", EventKind::TaskStarted);
        partial.record(
            "producer",
            EventKind::DataPublished {
                dataset: "grid".into(),
                timestep: 0,
            },
        );
        partial.record("producer", EventKind::TaskFinished);
        let partial_score = partial.summary().fidelity(&reference);
        assert!(partial_score > 0.0 && partial_score < 1.0);

        let mut failed = ExecutionTrace::default();
        failed.record("producer", EventKind::TaskStarted);
        failed.record(
            "producer",
            EventKind::TaskFailed {
                reason: "boom".into(),
            },
        );
        let failed_score = failed.summary().fidelity(&reference);
        assert!(failed_score < partial_score);
    }

    #[test]
    fn event_kind_labels_are_distinct() {
        let labels = [
            EventKind::TaskStarted.label(),
            EventKind::TaskFinished.label(),
            EventKind::TaskFailed { reason: "".into() }.label(),
            EventKind::DataPublished {
                dataset: "d".into(),
                timestep: 0,
            }
            .label(),
            EventKind::DataReceived {
                dataset: "d".into(),
                timestep: 0,
            }
            .label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
