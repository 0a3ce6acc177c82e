//! Task roles and the per-task execution context.
//!
//! Only a task's rank 0 moves data: in the benchmark's task codes the other
//! ranks only feed a sum reduction whose result no consumer sees.  So the
//! engine runs each task once, as its rank 0, and a task's `nprocs` only
//! counts against the sandbox caps.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wfspeak_systems::spec::DataRole;
use wfspeak_systems::TaskSpec;

use crate::trace::{EventKind, ExecutionTrace};

/// A message on a producer→consumer link.
#[derive(Debug, PartialEq)]
pub(crate) enum Message {
    /// One timestep of a dataset: the array its producer generated, shared
    /// by every link it was published on.
    Step { timestep: usize, values: Rc<[f32]> },
    /// The producer has finished; no more steps will arrive.
    EndOfStream,
}

/// One producer→consumer edge: the messages published on it and not yet
/// received, oldest first.
#[derive(Debug, Default)]
pub(crate) struct Link {
    /// Messages in flight on this edge.
    pub(crate) queue: VecDeque<Message>,
    /// False when the consumer reads this dataset from another link (a
    /// later producer of the same dataset took its end over), so a send on
    /// this one fails.
    pub(crate) connected: bool,
}

/// Everything one task needs while it runs.  Datasets are keyed by name in
/// ordered maps, so inputs are drained and outputs published in name
/// order: the trace and every arrival order are functions of the spec.
pub(crate) struct TaskContext<'a> {
    /// Task name (e.g. `producer`).
    pub(crate) task: &'a str,
    /// Number of timesteps the workflow runs for.
    pub(crate) timesteps: usize,
    /// Elements in generated arrays.
    pub(crate) elements: usize,
    /// Consumed dataset → the link it is read from.
    pub(crate) inputs: BTreeMap<&'a str, usize>,
    /// Produced dataset → its links (indices into `links`), one per
    /// consumer edge, in edge order.
    pub(crate) outputs: BTreeMap<&'a str, Vec<usize>>,
    /// Every link of the workflow.
    pub(crate) links: &'a mut [Link],
    /// The run's execution trace.
    pub(crate) trace: &'a mut ExecutionTrace,
    /// Deterministic RNG (the task's stream).
    pub(crate) rng: StdRng,
    /// Collected per-message sums (consumers and relays fill this in).
    pub(crate) received_sums: Vec<f64>,
    /// Inject a failure at this timestep, if set.
    pub(crate) fail_at_step: Option<usize>,
}

impl TaskContext<'_> {
    /// Publish `values` as dataset `name` on each of its links.  A send on
    /// a disconnected link fails the task, as a send to a dropped receiver
    /// would.
    fn publish(&mut self, name: &str, timestep: usize, values: &Rc<[f32]>) -> Result<(), String> {
        for &link in &self.outputs[name] {
            let link = &mut self.links[link];
            if !link.connected {
                return Err(format!(
                    "{}: send of `{name}` failed: no consumer is attached to the link",
                    self.task
                ));
            }
            link.queue.push_back(Message::Step {
                timestep,
                values: Rc::clone(values),
            });
        }
        self.trace.record(
            self.task,
            EventKind::DataPublished {
                dataset: name.to_owned(),
                timestep,
            },
        );
        Ok(())
    }

    /// Publish one fresh random array as every dataset in `names`.
    fn publish_fresh(&mut self, names: &[&str], timestep: usize) -> Result<(), String> {
        let values: Rc<[f32]> = (0..self.elements).map(|_| self.rng.gen()).collect();
        names
            .iter()
            .try_for_each(|name| self.publish(name, timestep, &values))
    }

    /// Signal end-of-stream on every connected output link.
    fn close_outputs(&mut self) {
        for links in self.outputs.values() {
            for &link in links {
                let link = &mut self.links[link];
                if link.connected {
                    link.queue.push_back(Message::EndOfStream);
                }
            }
        }
    }

    /// Take the next message for dataset `name`.  Upstream tasks run to
    /// the end before this one starts, so an empty link means its producer
    /// failed before sending end-of-stream: nothing more will ever arrive.
    fn receive(&mut self, name: &str) -> Result<Message, String> {
        let link = *self
            .inputs
            .get(name)
            .ok_or_else(|| format!("{}: no input link for dataset `{name}`", self.task))?;
        self.links[link].queue.pop_front().ok_or_else(|| {
            format!(
                "{}: `{name}` ended without end-of-stream; its producer failed",
                self.task
            )
        })
    }

    /// Receive one message from every open input in `names`, recording and
    /// summing each dataset (each element widened to `f64`, in order); an
    /// end-of-stream closes its input.  Returns whether any data arrived.
    fn receive_round(&mut self, names: &[&str], open: &mut [bool]) -> Result<bool, String> {
        let mut got_data = false;
        for (&name, is_open) in names.iter().zip(open) {
            if !*is_open {
                continue;
            }
            match self.receive(name)? {
                Message::Step { timestep, values } => {
                    self.trace.record(
                        self.task,
                        EventKind::DataReceived {
                            dataset: name.to_owned(),
                            timestep,
                        },
                    );
                    self.received_sums
                        .push(values.iter().map(|&v| f64::from(v)).sum());
                    got_data = true;
                }
                Message::EndOfStream => *is_open = false,
            }
        }
        Ok(got_data)
    }

    fn check_injected_failure(&self, step: usize) -> Result<(), String> {
        match self.fail_at_step {
            Some(at) if at == step => Err(format!("injected failure at timestep {step}")),
            _ => Ok(()),
        }
    }
}

/// What a task does with its datasets, decided by its data requirements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskRole {
    /// Produces datasets and consumes none: per timestep, generate a random
    /// array and publish it on every produced dataset.
    Producer,
    /// Consumes and produces: per round, drain one message from every open
    /// input, then publish a fresh array downstream — the interior stage of
    /// a chain or diamond.  It paces itself off its inputs (one publish
    /// round per received data round), so every downstream consumer still
    /// sees exactly `timesteps` messages per dataset.
    Relay,
    /// Everything else: receive every timestep of every consumed dataset,
    /// sum it, and stop at end-of-stream.
    Consumer,
}

impl TaskRole {
    /// The role of a task.
    pub(crate) fn of(task: &TaskSpec) -> TaskRole {
        let produces = task.data.iter().any(|d| d.role == DataRole::Produces);
        let consumes = task.data.iter().any(|d| d.role == DataRole::Consumes);
        match (produces, consumes) {
            (true, true) => TaskRole::Relay,
            (true, false) => TaskRole::Producer,
            _ => TaskRole::Consumer,
        }
    }

    /// Run the task to the end.  Returning an error marks the task failed.
    pub(crate) fn run(self, ctx: &mut TaskContext) -> Result<(), String> {
        let inputs: Vec<&str> = ctx.inputs.keys().copied().collect();
        let outputs: Vec<&str> = ctx.outputs.keys().copied().collect();
        match self {
            TaskRole::Producer => {
                for t in 0..ctx.timesteps {
                    ctx.check_injected_failure(t)?;
                    ctx.publish_fresh(&outputs, t)?;
                }
            }
            TaskRole::Relay | TaskRole::Consumer => {
                let mut open = vec![true; inputs.len()];
                let mut step = 0;
                while open.contains(&true) {
                    ctx.check_injected_failure(step)?;
                    let got_data = ctx.receive_round(&inputs, &mut open)?;
                    if got_data && self == TaskRole::Relay {
                        ctx.publish_fresh(&outputs, step)?;
                    }
                    step += 1;
                }
            }
        }
        ctx.close_outputs();
        Ok(())
    }
}

/// Create the deterministic per-task RNG used by task roles.
pub(crate) fn task_rng(seed: u64, task: &str) -> StdRng {
    let mut hash = seed ^ 0x9e3779b97f4a7c15;
    for b in task.bytes() {
        hash = hash.wrapping_mul(31).wrapping_add(b as u64);
    }
    StdRng::seed_from_u64(hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_ctx<'a>(links: &'a mut [Link], trace: &'a mut ExecutionTrace) -> TaskContext<'a> {
        TaskContext {
            task: "t",
            timesteps: 1,
            elements: 4,
            inputs: BTreeMap::new(),
            outputs: BTreeMap::new(),
            links,
            trace,
            rng: task_rng(1, "t"),
            received_sums: Vec::new(),
            fail_at_step: None,
        }
    }

    fn connected() -> Link {
        Link {
            connected: true,
            ..Link::default()
        }
    }

    #[test]
    fn publish_delivers_to_all_consumers() {
        let mut trace = ExecutionTrace::default();
        let mut links = [connected(), connected()];
        let mut ctx = minimal_ctx(&mut links, &mut trace);
        ctx.outputs.insert("grid", vec![0, 1]);
        let values: Rc<[f32]> = Rc::from([1.0, 2.0].as_slice());
        ctx.publish("grid", 0, &values).unwrap();
        for link in &links {
            let step = Message::Step {
                timestep: 0,
                values: Rc::clone(&values),
            };
            assert_eq!(link.queue, [step]);
        }
        // Both links hold the one array the producer generated.
        assert_eq!(Rc::strong_count(&values), 3);
        assert_eq!(trace.published_count("grid"), 1);
    }

    #[test]
    fn publish_on_a_disconnected_link_fails_without_publishing() {
        let mut trace = ExecutionTrace::default();
        let mut links = [Link::default()];
        let mut ctx = minimal_ctx(&mut links, &mut trace);
        ctx.outputs.insert("grid", vec![0]);
        let err = ctx
            .publish("grid", 0, &Rc::from([1.0].as_slice()))
            .unwrap_err();
        assert!(err.contains("send of `grid` failed"), "{err}");
        assert!(links[0].queue.is_empty());
        assert_eq!(trace.published_count("grid"), 0);
    }

    #[test]
    fn receive_fails_when_the_producer_sent_no_end_of_stream() {
        let mut trace = ExecutionTrace::default();
        let mut links = [connected()];
        let mut ctx = minimal_ctx(&mut links, &mut trace);
        ctx.inputs.insert("grid", 0);
        let err = ctx.receive("grid").unwrap_err();
        assert!(err.contains("producer failed"), "{err}");
    }

    #[test]
    fn receive_unknown_dataset_errors() {
        let mut trace = ExecutionTrace::default();
        let mut ctx = minimal_ctx(&mut [], &mut trace);
        assert!(ctx.receive("missing").is_err());
    }

    #[test]
    fn task_rng_is_deterministic_and_task_dependent() {
        let draw = |task| -> Vec<u32> {
            let mut r = task_rng(7, task);
            (0..4).map(|_| r.gen()).collect()
        };
        assert_eq!(draw("producer"), draw("producer"));
        assert_ne!(draw("producer"), draw("consumer"));
    }

    #[test]
    fn producer_behavior_fails_when_injected() {
        let mut trace = ExecutionTrace::default();
        let mut ctx = minimal_ctx(&mut [], &mut trace);
        ctx.fail_at_step = Some(0);
        let err = TaskRole::Producer.run(&mut ctx).unwrap_err();
        assert!(err.contains("injected failure"));
    }
}
