//! The `grid` workload: the researcher's batch reproduction, in process.
//!
//! One pass is `Benchmark::run_evaluation` for the three experiments under
//! each of the five prompt variants plus `Benchmark::run_execution` under
//! each variant: 20 grid calls, 1600 responses with the paper's five
//! trials. The expected result of every call is computed in set-up by
//! calling `evaluate_prepared` / `execute_artifact` on each response
//! directly, in the grid's own cell order.

use std::sync::Arc;
use std::time::Instant;

use wfspeak_core::parallel::par_map;
use wfspeak_core::{
    evaluate_prepared, execute_artifact, Benchmark, BenchmarkConfig, Evaluation, ExecutionPipeline,
    ExperimentKind, PreparedPair, ReferenceCache, SystemProfile, WorkflowSystemId,
};
use wfspeak_corpus::prompts::PromptVariant;
use wfspeak_llm::SimulatedLlm;
use wfspeak_metrics::{BleuScorer, ChrfScorer};
use wfspeak_runtime::TraceSummary;
use wfspeak_service::protocol::encode_line;

use crate::rows::{self, Task};
use crate::trace::{compose_evaluate, compose_execute, Counts, Mode, Recorder};
use crate::util::Fnv;

/// One grid call of a pass.
#[derive(Clone, Copy)]
pub enum Call {
    Evaluate(ExperimentKind, PromptVariant),
    Execute(PromptVariant),
}

/// The 20 calls of one pass, variant by variant.
pub fn pass() -> Vec<Call> {
    PromptVariant::ALL
        .iter()
        .flat_map(|&variant| {
            ExperimentKind::ALL
                .iter()
                .map(move |&kind| Call::Evaluate(kind, variant))
                .chain(std::iter::once(Call::Execute(variant)))
        })
        .collect()
}

fn hash_evaluation(hash: &mut Fnv, evaluation: &Evaluation) {
    hash.str(&evaluation.code);
    hash.f64(evaluation.bleu);
    hash.f64(evaluation.chrf);
    let calls = &evaluation.calls;
    for list in [
        &calls.matched,
        &calls.missing,
        &calls.extra,
        &calls.hallucinated,
    ] {
        hash.u64(list.len() as u64);
        for name in list {
            hash.str(name);
        }
    }
}

fn hash_execution(hash: &mut Fnv, score: &wfspeak_core::ExecutionScore) {
    hash.str(&encode_line(
        &wfspeak_service::ExecutionScore::from_execution(score),
    ));
}

/// What a cell is scored against.
enum Target {
    Evaluate {
        prepared: Arc<PreparedPair>,
        profile: Arc<SystemProfile>,
    },
    Execute {
        system: WorkflowSystemId,
        summary: Arc<TraceSummary>,
    },
}

/// One `(row, model)` cell, as the grid builds it.
struct Job {
    client: usize,
    prompt: String,
    target: Arc<Target>,
}

/// The result of one call taken through a direct pass.
pub struct Direct {
    pub hash: u64,
    pub responses: usize,
    pub rec: Recorder,
    pub counts: Counts,
    /// Real mode: summed duration of the real per-response calls.
    pub real_evaluate_ns: u64,
    pub real_execute_ns: u64,
    /// Wall time of the call's `par_map`.
    pub wall_ns: u64,
}

/// The grid's inputs and its private copies of the scorers and caches the
/// direct passes use.
pub struct Grid {
    pub bench: Benchmark,
    clients: Vec<SimulatedLlm>,
    config: BenchmarkConfig,
    bleu: BleuScorer,
    chrf: ChrfScorer,
    cache: ReferenceCache,
    pipeline: ExecutionPipeline,
    pub calls: Vec<Call>,
    /// Expected hash of each call's result.
    pub expected: Vec<u64>,
    pub checksum: u64,
}

impl Grid {
    pub fn new(seed: u64) -> Grid {
        let config = BenchmarkConfig {
            base_seed: seed,
            ..BenchmarkConfig::default()
        };
        Grid {
            bench: Benchmark::with_simulated_models(config.clone()),
            clients: SimulatedLlm::all(),
            config,
            bleu: BleuScorer::default(),
            chrf: ChrfScorer::default(),
            cache: ReferenceCache::default(),
            pipeline: ExecutionPipeline::new(),
            calls: pass(),
            expected: Vec::new(),
            checksum: 0,
        }
    }

    /// Compute every call's expected result through the real
    /// per-response functions.
    pub fn prepare_expected(&mut self, epoch: Instant) {
        let calls = self.calls.clone();
        self.expected = calls
            .iter()
            .map(|&call| self.direct(call, Mode::Real, epoch).hash)
            .collect();
        let mut hash = Fnv::default();
        for h in &self.expected {
            hash.u64(*h);
        }
        self.checksum = hash.0;
    }

    /// Run one call through the benchmark itself; returns the result's
    /// hash and the number of responses, plus the call's duration.
    pub fn run(&self, call: Call) -> (u64, usize, f64) {
        let mut hash = Fnv::default();
        let mut responses = 0;
        let started = Instant::now();
        let elapsed = match call {
            Call::Evaluate(kind, variant) => {
                let grid = self.bench.run_evaluation(kind, variant);
                let elapsed = started.elapsed().as_secs_f64();
                for cell in &grid.cells {
                    let mut cell_hash = Fnv::default();
                    for evaluation in &cell.trials {
                        hash_evaluation(&mut cell_hash, evaluation);
                    }
                    hash.u64(cell_hash.0);
                    responses += cell.trials.len();
                }
                elapsed
            }
            Call::Execute(variant) => {
                let grid = self.bench.run_execution(variant);
                let elapsed = started.elapsed().as_secs_f64();
                for cell in &grid.cells {
                    let mut cell_hash = Fnv::default();
                    for score in &cell.trials {
                        hash_execution(&mut cell_hash, score);
                    }
                    hash.u64(cell_hash.0);
                    responses += cell.trials.len();
                }
                elapsed
            }
        };
        (hash.0, responses, elapsed)
    }

    fn lookup(&self, rec: &mut Recorder, reference: &str) -> Arc<PreparedPair> {
        crate::replay::lookup(
            rec,
            &self.cache,
            &self.bleu,
            &self.chrf,
            reference,
            usize::MAX,
        )
    }

    /// The call's cells in the grid's order: rows, then models.
    fn jobs(&self, rec: &mut Recorder, call: Call) -> Vec<Job> {
        let (rows, variant) = match call {
            Call::Evaluate(kind, variant) => (rows::evaluation_rows(kind), variant),
            Call::Execute(variant) => (rows::execution_rows(), variant),
        };
        let mut jobs = Vec::new();
        for row in rows {
            let target = Arc::new(match row.task {
                Task::Execution => Target::Execute {
                    system: row.system,
                    summary: self
                        .pipeline
                        .reference_summary(row.system, row.reference)
                        .expect("built-in references execute"),
                },
                _ => Target::Evaluate {
                    prepared: self.lookup(rec, row.reference),
                    profile: Arc::new(SystemProfile::for_system(row.system)),
                },
            });
            let prompt = row.prompt(variant);
            for client in 0..self.clients.len() {
                jobs.push(Job {
                    client,
                    prompt: prompt.clone(),
                    target: Arc::clone(&target),
                });
            }
        }
        jobs
    }

    /// Take one call's responses through the pipeline directly, cell by
    /// cell on `par_map` like the grid itself.
    pub fn direct(&self, call: Call, mode: Mode, epoch: Instant) -> Direct {
        let mut rec = Recorder::new(mode.traced(), epoch);
        let jobs = self.jobs(&mut rec, call);
        let started = Instant::now();
        let cells = par_map(&jobs, |job| self.cell(job, mode, epoch));
        let wall_ns = started.elapsed().as_nanos() as u64;
        let mut out = Direct {
            hash: Fnv::default().0,
            responses: 0,
            rec,
            counts: Counts::default(),
            real_evaluate_ns: 0,
            real_execute_ns: 0,
            wall_ns,
        };
        let mut hash = Fnv(out.hash);
        for cell in cells {
            hash.u64(cell.hash);
            out.responses += cell.responses;
            out.rec.absorb(cell.rec);
            out.counts.add(cell.counts);
            out.real_evaluate_ns += cell.real_evaluate_ns;
            out.real_execute_ns += cell.real_execute_ns;
        }
        out.hash = hash.0;
        out
    }

    fn cell(&self, job: &Job, mode: Mode, epoch: Instant) -> Direct {
        let mut rec = Recorder::new(mode.traced(), epoch);
        let mut counts = Counts::default();
        let (mut real_evaluate_ns, mut real_execute_ns) = (0, 0);
        let mut hash = Fnv::default();
        rec.enter("core.grid_cell");
        let responses = rows::trials(
            &mut rec,
            &self.config,
            &self.clients[job.client],
            &job.prompt,
        );
        for response in &responses {
            match (&*job.target, mode) {
                (Target::Evaluate { prepared, profile }, Mode::Real) => {
                    let started = Instant::now();
                    let evaluation =
                        evaluate_prepared(&self.bleu, &self.chrf, prepared, profile, response);
                    real_evaluate_ns += started.elapsed().as_nanos() as u64;
                    hash_evaluation(&mut hash, &evaluation);
                }
                (Target::Evaluate { prepared, profile }, Mode::Composed { .. }) => {
                    let evaluation = compose_evaluate(
                        &mut rec,
                        &mut counts,
                        &self.bleu,
                        &self.chrf,
                        prepared,
                        profile,
                        response,
                    );
                    hash_evaluation(&mut hash, &evaluation);
                }
                (Target::Execute { system, summary }, Mode::Real) => {
                    let started = Instant::now();
                    let score =
                        execute_artifact(self.pipeline.sandbox(), *system, response, summary);
                    real_execute_ns += started.elapsed().as_nanos() as u64;
                    hash_execution(&mut hash, &score);
                }
                (Target::Execute { system, summary }, Mode::Composed { .. }) => {
                    let score = compose_execute(
                        &mut rec,
                        &mut counts,
                        self.pipeline.sandbox(),
                        *system,
                        response,
                        summary,
                    );
                    hash_execution(&mut hash, &score);
                }
            }
        }
        rec.exit();
        Direct {
            hash: hash.0,
            responses: responses.len(),
            rec,
            counts,
            real_evaluate_ns,
            real_execute_ns,
            wall_ns: 0,
        }
    }
}
