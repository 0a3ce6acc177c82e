//! Shared helpers for the criterion benches and the `repro` binary.
//!
//! # The `BENCH_N.json` artifacts
//!
//! Each PR that changes a hot path records a machine-readable performance
//! snapshot at the repository root, named `BENCH_<n>.json` with `n`
//! increasing per PR. The files are small flat JSON objects so trends can be
//! compared across PRs with nothing fancier than `jq`:
//!
//! * **`BENCH_1.json`** ([`GridBenchReport`], written by `repro bench`) —
//!   one-shot grid throughput: the three table experiments end-to-end.
//! * **`BENCH_2.json`** ([`ServiceBenchReport`], written by the
//!   `service_throughput` bench or `repro bench-service`) — scoring-service
//!   throughput over loopback TCP.
//! * **`BENCH_3.json`** ([`EvaluationBenchReport`], written by the
//!   `evaluation_throughput` bench or `repro bench-evaluate`) — full
//!   evaluation-pipeline throughput (extraction → API-call comparison →
//!   BLEU/ChrF) over repeated passes of the three experiment grids:
//!   `evaluations` / `evaluations_per_sec` count responses taken through
//!   the whole pipeline, `hallucinated_calls` is a workload checksum, and
//!   the `cache_*` fields report the shared prepared-reference cache
//!   (later passes re-hit the references the first pass prepared).
//! * **`BENCH_4.json`** ([`ExecutionBenchReport`], written by the
//!   `execution_throughput` bench or `repro bench-execute`) —
//!   dynamic-execution throughput over repeated passes of the five-system
//!   execution grid: every generated artifact (configuration file or
//!   annotated Python task code) is parsed into a workflow spec and *run*
//!   on the runtime engine under the evaluation sandbox.
//!   `executions` / `executions_per_sec` count full extract → parse → run
//!   → trace-score pipelines (the headline number; each completed run
//!   moves real messages through the engine), `completed` /
//!   `unparsed` split the workload by outcome and — together with
//!   `mean_runnability` / `mean_fidelity` — act as a determinism checksum:
//!   they must not drift between runs of the same seed.
//! * **`BENCH_5.json`** ([`RuntimeScalingReport`], written by the
//!   `runtime_scaling` bench or `repro bench-scaling`) — engine scaling
//!   over synthetic topologies: every acyclic [`wfspeak_systems::topo`]
//!   shape (fan-out, chain, diamond, random) at 10/100/1000 tasks is taken
//!   through validate → normalize → engine run → trace summary, twice.
//!   Each `tiers[]` entry carries the tier's exact workload counters
//!   (`tasks`, `edges`, `published`, `received`), its `checksum` (an
//!   FNV-1a fold of the run's [`wfspeak_runtime::TraceSummary`] as a
//!   `0x`-prefixed hex string, bit-identical across repeat runs of the
//!   same seed) and its `tasks_per_sec` / `messages_per_sec` rates; the
//!   report-level `checksum` folds all tier checksums, and
//!   `deterministic` asserts that both runs of every tier summarised
//!   identically (trace fidelity exactly 1.0). `max_tasks` records any
//!   tier bound in force (the CI smoke caps the sweep at the 100-task tier
//!   via `WFSPEAK_SCALING_MAX`; `null` means unbounded).
//! * **`BENCH_6.json`** ([`ConnectionScalingReport`], written by the
//!   `connection_scaling` bench or `repro bench-connections`) —
//!   high-connection scaling of the event-driven server: the same fixed
//!   request budget is pushed through 4, then 256, then 1024 concurrent
//!   closed-loop clients (each sends one request, reads the reply, thinks
//!   for `think_time_ms`, and repeats — the textbook closed-loop load
//!   model, so a small client count is latency-bound while large counts
//!   saturate the worker pool through one multiplexed event loop), one
//!   fresh server per tier so latency percentiles don't bleed across
//!   tiers. Each `tiers[]` entry carries exact workload
//!   counters (`clients`, `requests`, `hypotheses`), the tier's
//!   `requests_per_sec` / `hypotheses_per_sec` rates, and the server-side
//!   `latency_p50_us` / `latency_p95_us` / `latency_p99_us` percentiles
//!   from the power-of-two latency histogram (admission → reply handoff).
//!   `max_clients` records any tier bound in force (the CI smoke caps at 64
//!   clients via `WFSPEAK_CONNECTIONS_MAX`; `null` means the full 1024
//!   sweep), and `summary_checksum` folds the deterministic workload
//!   counters (not the timings) so two runs of the same configuration are
//!   comparable at a glance. The scaling claim BENCH_6 exists to track:
//!   per-request throughput at ≥256 connections must beat the 4-client
//!   figure, because the readiness loop amortises wakeups and keeps the
//!   worker pool's queue from ever running dry.
//! * **`BENCH_7.json`** ([`ParseBenchReport`], written by the
//!   `parse_throughput` bench or `repro bench-parse`) — wyaml parse
//!   throughput over the generated configuration corpus (180 artifacts
//!   with the paper defaults: 3 configuration systems × 4 models × 5
//!   trials × 3 prompt variants, code-extracted exactly as the execution
//!   pipeline sees them).  Three parsers are timed over the same corpus:
//!   the preserved pre-rewrite parser (`wfspeak_wyaml::baseline`), the
//!   rewritten owned entry point (`wfspeak_wyaml::parse`) and the borrowed
//!   zero-copy entry point (`wfspeak_wyaml::parse_document`).
//!   `parsed_ok` and the per-`ErrorKind` `failure_categories` are
//!   determinism checksums (same seed ⇒ same counts), and the
//!   `speedup_*_vs_baseline` ratios are the trend signal the artifact
//!   exists to track: the rewrite must stay ≥2× the pre-rewrite parser on
//!   this corpus.  `passes` records the sweep size in force (the CI smoke
//!   bounds it via `WFSPEAK_PARSE_PASSES`).
//!
//! Shared schema conventions:
//!
//! * `bench_id` — the artifact's own name (`"BENCH_1"`, `"BENCH_2"`), so a
//!   file's schema is self-identifying.
//! * Counters (`grid_cells`, `scored_hypotheses`, `requests`, …) are exact
//!   integers describing the measured workload; when comparing two PRs,
//!   check the counters match before comparing rates.
//! * `wall_time_secs` is wall-clock seconds for the whole measured section
//!   (f64); every `*_per_sec` field is the matching counter divided by
//!   `wall_time_secs`. Rates are the trend signal: higher is better, and a
//!   regression over ~20% that the counters don't explain deserves
//!   investigation.
//! * `cache_*` fields count prepared-reference cache traffic (the
//!   `CacheStats` counters from `wfspeak-metrics`); `cache_hit_rate` is
//!   `hits / (hits + misses)` in `0.0..=1.0`.
//!
//! The files are regenerated only on explicit request (`repro bench`,
//! `repro bench-service`, or running the bench binaries) because they hold
//! run-dependent timings: a default `repro` run must not dirty the tracked
//! perf trajectory.

pub mod chaos;

use std::time::Instant;

use serde::Serialize;
use wfspeak_core::{Benchmark, BenchmarkConfig, ExperimentKind, PromptVariant};
use wfspeak_service::{ScoreRequest, ScoringClient, ScoringServer, ServiceConfig, TaskKind};

/// The paper's full benchmark configuration (5 trials).
pub fn paper_benchmark() -> Benchmark {
    Benchmark::with_simulated_models(BenchmarkConfig::default())
}

/// A reduced configuration for criterion iterations (1 trial) so a bench
/// sample stays fast while still exercising the full pipeline.
pub fn bench_benchmark() -> Benchmark {
    Benchmark::with_simulated_models(BenchmarkConfig {
        trials: 1,
        ..BenchmarkConfig::default()
    })
}

/// Machine-readable grid-throughput report emitted as `BENCH_<n>.json` so
/// future changes have a performance trajectory to compare against.
#[derive(Debug, Clone, Serialize)]
pub struct GridBenchReport {
    /// Report schema / sequence tag (`BENCH_1` for this PR).
    pub bench_id: String,
    /// Trials per cell used for the measurement.
    pub trials: usize,
    /// Scored `(row × model)` cells across the three table experiments.
    pub grid_cells: usize,
    /// Scored hypotheses (`grid_cells × trials`).
    pub scored_hypotheses: usize,
    /// Metric evaluations (`scored_hypotheses × 2`: BLEU and ChrF).
    pub metric_evaluations: usize,
    /// Distinct references prepared once and shared across the grid.
    pub prepared_references: usize,
    /// Wall-clock seconds for the full three-experiment grid.
    pub wall_time_secs: f64,
    /// Grid cells scored per second.
    pub cells_per_sec: f64,
    /// Metric evaluations per second.
    pub metric_evals_per_sec: f64,
}

/// Run the three table experiments end-to-end (prompt assembly → simulated
/// models → extraction → scoring → aggregation) on a fresh benchmark and
/// measure grid throughput.
pub fn measure_grid_throughput() -> GridBenchReport {
    let benchmark = paper_benchmark();
    let trials = benchmark.config().trials;
    let grid_cells: usize = ExperimentKind::ALL
        .iter()
        .map(|&kind| benchmark.grid_cells(kind))
        .sum();

    let start = Instant::now();
    for kind in ExperimentKind::ALL {
        let result = benchmark.run_experiment(kind, PromptVariant::Original);
        std::hint::black_box(&result);
    }
    let wall = start.elapsed().as_secs_f64();

    let scored_hypotheses = grid_cells * trials;
    let metric_evaluations = scored_hypotheses * 2;
    GridBenchReport {
        bench_id: "BENCH_1".to_owned(),
        trials,
        grid_cells,
        scored_hypotheses,
        metric_evaluations,
        prepared_references: benchmark.reference_cache().len(),
        wall_time_secs: wall,
        cells_per_sec: grid_cells as f64 / wall,
        metric_evals_per_sec: metric_evaluations as f64 / wall,
    }
}

impl GridBenchReport {
    /// Pretty JSON for the `BENCH_1.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

/// Machine-readable evaluation-pipeline throughput report emitted as
/// `BENCH_3.json` (see the crate docs for the schema conventions).
#[derive(Debug, Clone, Serialize)]
pub struct EvaluationBenchReport {
    /// Report schema / sequence tag (`BENCH_3` for the evaluation bench).
    pub bench_id: String,
    /// Trials per cell used for the measurement.
    pub trials: usize,
    /// Full passes over the three experiment grids.
    pub passes: usize,
    /// Evaluated `(row × model)` cells across all passes.
    pub grid_cells: usize,
    /// Responses taken through the full pipeline (`grid_cells × trials`).
    pub evaluations: usize,
    /// Hallucinated API calls detected across the whole workload (a
    /// checksum: it must not drift between runs of the same seed).
    pub hallucinated_calls: usize,
    /// Prepared-reference cache hits across all passes.
    pub cache_hits: u64,
    /// Prepared-reference cache misses (distinct references prepared).
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, in `0.0..=1.0`.
    pub cache_hit_rate: f64,
    /// Wall-clock seconds for all passes.
    pub wall_time_secs: f64,
    /// Full-pipeline evaluations per second — the headline number.
    pub evaluations_per_sec: f64,
}

impl EvaluationBenchReport {
    /// Pretty JSON for the `BENCH_3.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

/// Run `passes` full passes of the three experiment grids through the
/// evaluation pipeline (extraction → API-call comparison → BLEU/ChrF) on a
/// fresh benchmark and measure end-to-end evaluation throughput.
///
/// Every pass shares one [`wfspeak_core::ReferenceCache`]; the first pass
/// prepares each distinct reference once, later passes only hit.
pub fn measure_evaluation_throughput(passes: usize) -> EvaluationBenchReport {
    let benchmark = paper_benchmark();
    let trials = benchmark.config().trials;
    let cells_per_pass: usize = ExperimentKind::ALL
        .iter()
        .map(|&kind| benchmark.grid_cells(kind))
        .sum();

    let start = Instant::now();
    let mut hallucinated_calls = 0usize;
    let mut evaluations = 0usize;
    for _ in 0..passes {
        for kind in ExperimentKind::ALL {
            let grid = benchmark.run_evaluation(kind, PromptVariant::Original);
            evaluations += grid.total_evaluations();
            hallucinated_calls += grid.hallucinated_calls();
            std::hint::black_box(&grid);
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let cache = benchmark.reference_cache().stats();
    EvaluationBenchReport {
        bench_id: "BENCH_3".to_owned(),
        trials,
        passes,
        grid_cells: cells_per_pass * passes,
        evaluations,
        hallucinated_calls,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_hit_rate: cache.hit_rate(),
        wall_time_secs: wall,
        evaluations_per_sec: evaluations as f64 / wall,
    }
}

/// Run the evaluation bench at its standard scale (3 passes), print the
/// headline numbers and write the report to `path`. Shared by
/// `repro bench-evaluate` and the `evaluation_throughput` bench binary so
/// the two artifacts cannot drift.
pub fn run_evaluation_bench(path: &str) {
    let report = measure_evaluation_throughput(3);
    println!(
        "Evaluation throughput: {} evaluations ({} cells × {} trials, {} passes) in {:.2}s \
         = {:.1} evaluations/s (cache hit rate {:.3}, {} hallucinated calls)",
        report.evaluations,
        report.grid_cells,
        report.trials,
        report.passes,
        report.wall_time_secs,
        report.evaluations_per_sec,
        report.cache_hit_rate,
        report.hallucinated_calls,
    );
    match std::fs::write(path, report.to_json() + "\n") {
        Ok(()) => println!("Wrote {path}\n"),
        Err(e) => eprintln!("Could not write {path}: {e}\n"),
    }
}

/// Machine-readable dynamic-execution throughput report emitted as
/// `BENCH_4.json` (see the crate docs for the schema conventions).
#[derive(Debug, Clone, Serialize)]
pub struct ExecutionBenchReport {
    /// Report schema / sequence tag (`BENCH_4` for the execution bench).
    pub bench_id: String,
    /// Trials per cell used for the measurement.
    pub trials: usize,
    /// Full passes over the configuration-experiment grid.
    pub passes: usize,
    /// Executed `(system × model)` cells across all passes.
    pub grid_cells: usize,
    /// Responses taken through extract → parse → run → trace scoring
    /// (`grid_cells × trials`).
    pub executions: usize,
    /// Executions whose workflow ran to completion (a determinism
    /// checksum: must not drift between runs of the same seed).
    pub completed: usize,
    /// Executions whose artifact did not even parse (checksum).
    pub unparsed: usize,
    /// Mean runnability over the whole workload, 0–100 (checksum).
    pub mean_runnability: f64,
    /// Mean trace fidelity over the whole workload, 0–100 (checksum).
    pub mean_fidelity: f64,
    /// Wall-clock seconds for all passes.
    pub wall_time_secs: f64,
    /// Full executions per second — the headline number.
    pub executions_per_sec: f64,
}

impl ExecutionBenchReport {
    /// Pretty JSON for the `BENCH_4.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

/// Run `passes` full passes of the configuration grid through dynamic
/// execution (every generated configuration parsed and run on the runtime
/// engine) on a fresh benchmark and measure end-to-end execution
/// throughput.
///
/// Every pass shares the benchmark's [`wfspeak_core::ExecutionPipeline`],
/// so each system's reference run happens exactly once.
pub fn measure_execution_throughput(passes: usize) -> ExecutionBenchReport {
    let benchmark = paper_benchmark();
    let trials = benchmark.config().trials;

    let start = Instant::now();
    let mut executions = 0usize;
    let mut completed = 0usize;
    let mut unparsed = 0usize;
    let mut runnability_sum = 0.0f64;
    let mut fidelity_sum = 0.0f64;
    let mut grid_cells = 0usize;
    for _ in 0..passes {
        let grid = benchmark.run_execution(PromptVariant::Original);
        grid_cells += grid.cells.len();
        executions += grid.total_executions();
        completed += grid.completed_executions();
        unparsed += grid
            .cells
            .iter()
            .map(|c| c.unparsed_trials())
            .sum::<usize>();
        runnability_sum += grid.mean_runnability() * grid.total_executions() as f64;
        fidelity_sum += grid.mean_fidelity() * grid.total_executions() as f64;
        std::hint::black_box(&grid);
    }
    let wall = start.elapsed().as_secs_f64();

    ExecutionBenchReport {
        bench_id: "BENCH_4".to_owned(),
        trials,
        passes,
        grid_cells,
        executions,
        completed,
        unparsed,
        mean_runnability: runnability_sum / executions.max(1) as f64,
        mean_fidelity: fidelity_sum / executions.max(1) as f64,
        wall_time_secs: wall,
        executions_per_sec: executions as f64 / wall,
    }
}

/// Run the execution bench at its standard scale (3 passes), print the
/// headline numbers and write the report to `path`. Shared by
/// `repro bench-execute` and the `execution_throughput` bench binary so the
/// two artifacts cannot drift.
pub fn run_execution_bench(path: &str) {
    let report = measure_execution_throughput(3);
    println!(
        "Execution throughput: {} executions ({} cells × {} trials, {} passes) in {:.2}s \
         = {:.1} executions/s ({} completed, {} unparsed, mean runnability {:.2}, mean fidelity {:.2})",
        report.executions,
        report.grid_cells,
        report.trials,
        report.passes,
        report.wall_time_secs,
        report.executions_per_sec,
        report.completed,
        report.unparsed,
        report.mean_runnability,
        report.mean_fidelity,
    );
    match std::fs::write(path, report.to_json() + "\n") {
        Ok(()) => println!("Wrote {path}\n"),
        Err(e) => eprintln!("Could not write {path}: {e}\n"),
    }
}

/// One failure category of the parse-bench corpus: a stable
/// [`wfspeak_wyaml::ErrorKind`] code with the number of corpus artifacts
/// whose parse fails with it.
#[derive(Debug, Clone, Serialize)]
pub struct ParseFailureCount {
    /// Stable kebab-case `ErrorKind` code (`tab-indent`, `duplicate-key`, …).
    pub category: String,
    /// Artifacts in the corpus that fail with this category.
    pub count: usize,
}

/// Machine-readable parse-throughput report emitted as `BENCH_7.json` (see
/// the crate docs for the schema conventions).
#[derive(Debug, Clone, Serialize)]
pub struct ParseBenchReport {
    /// Report schema / sequence tag (`BENCH_7` for the parse bench).
    pub bench_id: String,
    /// Artifacts in the corpus (180 with the paper defaults).
    pub artifacts: usize,
    /// Total corpus size in bytes (exact workload counter).
    pub total_bytes: usize,
    /// Timed passes over the corpus, per parser.
    pub passes: usize,
    /// Corpus artifacts the parser accepts (determinism checksum: must not
    /// drift between runs of the same seed).
    pub parsed_ok: usize,
    /// Per-`ErrorKind` counts over the rejected artifacts, most frequent
    /// first, ties broken by category (checksum).
    pub failure_categories: Vec<ParseFailureCount>,
    /// Wall-clock seconds for all passes of the pre-rewrite parser
    /// ([`wfspeak_wyaml::baseline`]).
    pub baseline_wall_time_secs: f64,
    /// Pre-rewrite parses per second.
    pub baseline_parses_per_sec: f64,
    /// Wall-clock seconds for the rewritten owned entry point
    /// ([`wfspeak_wyaml::parse()`]: zero-copy parse + `into_owned`).
    pub owned_wall_time_secs: f64,
    /// Owned-entry-point parses per second.
    pub owned_parses_per_sec: f64,
    /// Wall-clock seconds for the borrowed entry point
    /// ([`wfspeak_wyaml::parse_document`], no owned conversion).
    pub zero_copy_wall_time_secs: f64,
    /// Zero-copy parses per second — the headline number.
    pub zero_copy_parses_per_sec: f64,
    /// Zero-copy corpus throughput in MB/s.
    pub zero_copy_mb_per_sec: f64,
    /// `baseline_wall_time_secs / owned_wall_time_secs` — the apples-to-
    /// apples speedup of the rewrite behind the unchanged owned API.
    pub speedup_owned_vs_baseline: f64,
    /// `baseline_wall_time_secs / zero_copy_wall_time_secs` — the speedup
    /// when consumers use the borrowed document directly.
    pub speedup_zero_copy_vs_baseline: f64,
}

impl ParseBenchReport {
    /// Pretty JSON for the `BENCH_7.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

/// Measure wyaml parse throughput over the generated configuration corpus
/// ([`wfspeak_core::Benchmark::configuration_corpus`]): `passes` timed
/// passes each for the pre-rewrite baseline parser, the rewritten owned
/// entry point and the borrowed zero-copy entry point, plus one untimed
/// pass that records the accept count and per-`ErrorKind` failure
/// categories as determinism checksums.
pub fn measure_parse_throughput(passes: usize) -> ParseBenchReport {
    use wfspeak_wyaml::{baseline, parse, parse_document};

    let corpus = paper_benchmark().configuration_corpus();
    let artifacts = corpus.len();
    let total_bytes: usize = corpus.iter().map(String::len).sum();

    // Checksum pass: outcome of the rewritten parser over the corpus.
    let mut parsed_ok = 0usize;
    let mut categories: Vec<(String, usize)> = Vec::new();
    for doc in &corpus {
        match parse(doc) {
            Ok(_) => parsed_ok += 1,
            Err(e) => {
                let code = e.kind.code().to_owned();
                match categories.iter_mut().find(|(c, _)| *c == code) {
                    Some((_, n)) => *n += 1,
                    None => categories.push((code, 1)),
                }
            }
        }
    }
    categories.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // The three parsers are timed in interleaved passes (baseline, owned,
    // zero-copy, repeat) so clock-frequency drift over the measurement
    // cannot systematically favour one of them.
    let time_pass = |parse_one: &dyn Fn(&str)| {
        let start = Instant::now();
        for doc in &corpus {
            parse_one(doc);
        }
        start.elapsed().as_secs_f64()
    };
    let mut baseline_wall = 0.0f64;
    let mut owned_wall = 0.0f64;
    let mut zero_copy_wall = 0.0f64;
    for _ in 0..passes {
        baseline_wall += time_pass(&|doc| {
            std::hint::black_box(baseline::parse(doc).is_ok());
        });
        owned_wall += time_pass(&|doc| {
            std::hint::black_box(parse(doc).is_ok());
        });
        zero_copy_wall += time_pass(&|doc| {
            std::hint::black_box(parse_document(doc).is_ok());
        });
    }

    let parses = (artifacts * passes) as f64;
    ParseBenchReport {
        bench_id: "BENCH_7".to_owned(),
        artifacts,
        total_bytes,
        passes,
        parsed_ok,
        failure_categories: categories
            .into_iter()
            .map(|(category, count)| ParseFailureCount { category, count })
            .collect(),
        baseline_wall_time_secs: baseline_wall,
        baseline_parses_per_sec: parses / baseline_wall,
        owned_wall_time_secs: owned_wall,
        owned_parses_per_sec: parses / owned_wall,
        zero_copy_wall_time_secs: zero_copy_wall,
        zero_copy_parses_per_sec: parses / zero_copy_wall,
        zero_copy_mb_per_sec: (total_bytes * passes) as f64 / zero_copy_wall / 1e6,
        speedup_owned_vs_baseline: baseline_wall / owned_wall,
        speedup_zero_copy_vs_baseline: baseline_wall / zero_copy_wall,
    }
}

/// Run the parse bench at its standard scale (400 passes; `WFSPEAK_PARSE_PASSES`
/// overrides, so the CI smoke can run a bounded sweep), print the headline
/// numbers and write the report to `path`. Shared by `repro bench-parse`
/// and the `parse_throughput` bench binary so the two artifacts cannot
/// drift.
pub fn run_parse_bench(path: &str) {
    let passes = std::env::var("WFSPEAK_PARSE_PASSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&p: &usize| p > 0)
        .unwrap_or(400);
    let report = measure_parse_throughput(passes);
    let failures: Vec<String> = report
        .failure_categories
        .iter()
        .map(|f| format!("{}×{}", f.category, f.count))
        .collect();
    println!(
        "Parse throughput: {} artifacts ({} bytes) × {} passes: baseline {:.0}/s, \
         owned {:.0}/s ({:.2}×), zero-copy {:.0}/s ({:.2}×, {:.1} MB/s); \
         {} parse OK, failures: {}",
        report.artifacts,
        report.total_bytes,
        report.passes,
        report.baseline_parses_per_sec,
        report.owned_parses_per_sec,
        report.speedup_owned_vs_baseline,
        report.zero_copy_parses_per_sec,
        report.speedup_zero_copy_vs_baseline,
        report.zero_copy_mb_per_sec,
        report.parsed_ok,
        if failures.is_empty() {
            "none".to_owned()
        } else {
            failures.join(", ")
        },
    );
    match std::fs::write(path, report.to_json() + "\n") {
        Ok(()) => println!("Wrote {path}\n"),
        Err(e) => eprintln!("Could not write {path}: {e}\n"),
    }
}

/// One topology tier of the runtime-scaling measurement: a shape at a task
/// count, run through validate → normalize → engine → trace summary.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingTierReport {
    /// Topology shape label (`fan-out`, `chain`, `diamond`, `random`).
    pub shape: String,
    /// Tasks in the generated workflow.
    pub tasks: usize,
    /// Producer→consumer edges in the generated workflow.
    pub edges: usize,
    /// Dataset messages published during the run (exact counter).
    pub published: usize,
    /// Dataset messages received during the run (exact counter).
    pub received: usize,
    /// FNV-1a fold of the run's [`wfspeak_runtime::TraceSummary`], as a
    /// `0x`-prefixed hex string (JSON numbers would lose the top bit): the
    /// tier's determinism checksum, identical across repeat runs of the
    /// same seed.
    pub checksum: String,
    /// Wall-clock seconds for the measured (first) run.
    pub wall_time_secs: f64,
    /// Tasks executed per second in the measured run.
    pub tasks_per_sec: f64,
    /// Dataset messages moved (published + received) per second.
    pub messages_per_sec: f64,
}

/// Machine-readable engine-scaling report emitted as `BENCH_5.json` (see
/// the crate docs for the schema conventions).
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeScalingReport {
    /// Report schema / sequence tag (`BENCH_5` for the scaling bench).
    pub bench_id: String,
    /// Seed the topology generator and the engine ran under.
    pub seed: u64,
    /// Timesteps per run.
    pub timesteps: usize,
    /// Upper bound on tier size in force (`WFSPEAK_SCALING_MAX`), absent
    /// for the unbounded full sweep.
    pub max_tasks: Option<usize>,
    /// Per-tier workload counters, checksums and rates.
    pub tiers: Vec<ScalingTierReport>,
    /// Tasks executed across all measured tiers.
    pub total_tasks: usize,
    /// Dataset messages moved across all measured tiers.
    pub total_messages: usize,
    /// True when every tier's two runs summarised identically
    /// (trace fidelity exactly 1.0) — the report's headline determinism
    /// claim.
    pub deterministic: bool,
    /// FNV-1a fold of every tier checksum, in tier order, as a
    /// `0x`-prefixed hex string.
    pub checksum: String,
    /// Wall-clock seconds for all runs (measured and rerun).
    pub wall_time_secs: f64,
    /// Tasks executed per second across the measured (first) runs.
    pub tasks_per_sec: f64,
}

impl RuntimeScalingReport {
    /// Pretty JSON for the `BENCH_5.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
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

/// Fold a [`wfspeak_runtime::TraceSummary`] into a stable u64: every map is
/// ordered (`BTreeMap`), so the fold is a pure function of the counts.
fn summary_checksum(summary: &wfspeak_runtime::TraceSummary) -> u64 {
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

/// Run the synthetic-topology suite (every acyclic shape at every
/// [`wfspeak_systems::topo::BENCH_SIZES`] tier up to `max_tasks`) through
/// validate → normalize → engine → [`wfspeak_runtime::TraceSummary`], each
/// tier twice under the same configuration, and report per-tier throughput
/// plus determinism checksums.
///
/// Panics if a generated spec fails validation or an engine run errors —
/// the suite is the engine's own test corpus, so either is a bug, not a
/// measurement.
pub fn measure_runtime_scaling(max_tasks: usize, seed: u64) -> RuntimeScalingReport {
    use wfspeak_runtime::{Engine, EngineConfig};
    use wfspeak_systems::topo::bench_suite;

    let engine = Engine::new(EngineConfig {
        elements: 16,
        seed,
        ..EngineConfig::default()
    });

    let start = Instant::now();
    let mut tiers = Vec::new();
    let mut deterministic = true;
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut total_tasks = 0usize;
    let mut total_messages = 0usize;
    let mut measured_wall = 0.0f64;
    let mut timesteps = 0usize;

    for topo in bench_suite(seed) {
        if topo.tasks > max_tasks {
            continue;
        }
        let spec = topo.generate();
        assert!(
            spec.is_structurally_valid(),
            "{}: generated spec failed validation",
            topo.name()
        );
        let spec = spec.normalized();

        let tier_start = Instant::now();
        let outcome = engine
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: engine run failed: {e}", topo.name()));
        let tier_wall = tier_start.elapsed().as_secs_f64();
        assert!(outcome.completed, "{}: run did not complete", topo.name());
        let summary = outcome.summary();
        timesteps = outcome.timesteps;

        // Determinism recheck: a rerun of the same spec and seed must
        // summarise bit-identically.
        let recheck = engine
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: recheck run failed: {e}", topo.name()))
            .summary();
        deterministic &= summary == recheck && (summary.fidelity(&recheck) - 1.0).abs() < 1e-12;

        let published = summary.total_published();
        let received = summary.total_received();
        let messages = published + received;
        let tier_checksum = summary_checksum(&summary);
        checksum = fnv1a(checksum, &tier_checksum.to_le_bytes());
        total_tasks += spec.tasks.len();
        total_messages += messages;
        measured_wall += tier_wall;
        tiers.push(ScalingTierReport {
            shape: topo.shape.label().to_owned(),
            tasks: spec.tasks.len(),
            edges: spec.edges().len(),
            published,
            received,
            checksum: format!("{tier_checksum:#018x}"),
            wall_time_secs: tier_wall,
            tasks_per_sec: spec.tasks.len() as f64 / tier_wall,
            messages_per_sec: messages as f64 / tier_wall,
        });
    }

    RuntimeScalingReport {
        bench_id: "BENCH_5".to_owned(),
        seed,
        timesteps,
        max_tasks: (max_tasks != usize::MAX).then_some(max_tasks),
        tiers,
        total_tasks,
        total_messages,
        deterministic,
        checksum: format!("{checksum:#018x}"),
        wall_time_secs: start.elapsed().as_secs_f64(),
        tasks_per_sec: total_tasks as f64 / measured_wall.max(f64::MIN_POSITIVE),
    }
}

/// The tier bound the scaling bench honours: `WFSPEAK_SCALING_MAX` (used by
/// the CI smoke to stop at the 100-task tier), unbounded by default.
pub fn scaling_max_tasks() -> usize {
    std::env::var("WFSPEAK_SCALING_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

/// Run the runtime-scaling bench over the full suite (bounded by
/// `WFSPEAK_SCALING_MAX` when set), print the headline numbers and write
/// the report to `path`. Shared by `repro bench-scaling` and the
/// `runtime_scaling` bench binary so the two artifacts cannot drift.
pub fn run_runtime_scaling_bench(path: &str) {
    let report = measure_runtime_scaling(scaling_max_tasks(), 42);
    println!(
        "Runtime scaling: {} tiers, {} tasks, {} messages in {:.2}s \
         = {:.1} tasks/s (deterministic: {}, checksum {})",
        report.tiers.len(),
        report.total_tasks,
        report.total_messages,
        report.wall_time_secs,
        report.tasks_per_sec,
        report.deterministic,
        report.checksum,
    );
    for tier in &report.tiers {
        println!(
            "  {:>8} × {:>4}: {:>6} msgs in {:>7.3}s = {:>8.1} msgs/s (checksum {})",
            tier.shape,
            tier.tasks,
            tier.published + tier.received,
            tier.wall_time_secs,
            tier.messages_per_sec,
            tier.checksum,
        );
    }
    match std::fs::write(path, report.to_json() + "\n") {
        Ok(()) => println!("Wrote {path}\n"),
        Err(e) => eprintln!("Could not write {path}: {e}\n"),
    }
}

/// Machine-readable scoring-service throughput report emitted as
/// `BENCH_2.json` (see the crate docs for the schema conventions).
#[derive(Debug, Clone, Serialize)]
pub struct ServiceBenchReport {
    /// Report schema / sequence tag (`BENCH_2` for the service bench).
    pub bench_id: String,
    /// Concurrent client connections driving the server.
    pub clients: usize,
    /// Total score requests (batches) sent across all clients.
    pub requests: usize,
    /// Hypotheses per request.
    pub batch_size: usize,
    /// Hypotheses scored (`requests × batch_size`), as counted by the server.
    pub scored_hypotheses: usize,
    /// Prepared-reference cache hits across all connections.
    pub cache_hits: u64,
    /// Prepared-reference cache misses (distinct references prepared).
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, in `0.0..=1.0`.
    pub cache_hit_rate: f64,
    /// Wall-clock seconds from first request sent to last response read.
    pub wall_time_secs: f64,
    /// Requests (batches) completed per second.
    pub requests_per_sec: f64,
    /// Hypotheses scored per second — the headline service-throughput number.
    pub hypotheses_per_sec: f64,
}

impl ServiceBenchReport {
    /// Pretty JSON for the `BENCH_2.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

/// Run the service-throughput measurement at its standard scale (4 clients
/// × 64 requests × 8 hypotheses), print the headline numbers and write the
/// report to `path`. Shared by `repro bench-service` and the
/// `service_throughput` bench binary so the two artifacts cannot drift.
pub fn run_service_bench(path: &str) {
    let report = measure_service_throughput(4, 64, 8);
    println!(
        "Service throughput: {} requests ({} hypotheses) over {} clients in {:.2}s \
         = {:.1} req/s, {:.1} hypotheses/s (cache hit rate {:.3})",
        report.requests,
        report.scored_hypotheses,
        report.clients,
        report.wall_time_secs,
        report.requests_per_sec,
        report.hypotheses_per_sec,
        report.cache_hit_rate,
    );
    match std::fs::write(path, report.to_json() + "\n") {
        Ok(()) => println!("Wrote {path}\n"),
        Err(e) => eprintln!("Could not write {path}: {e}\n"),
    }
}

/// The built-in references the service bench cycles through: every
/// task/system address the corpus can resolve (3 configuration, 4
/// annotation, 4 translation targets), with the reference text alongside
/// for client-side hypothesis generation.
fn service_workload_addresses() -> Vec<(TaskKind, &'static str, &'static str)> {
    use wfspeak_corpus::references::{annotation_reference, configuration_reference};
    use wfspeak_corpus::WorkflowSystemId;
    let mut addresses = Vec::new();
    for system in WorkflowSystemId::configuration_systems() {
        let reference = configuration_reference(system).expect("configuration reference");
        addresses.push((TaskKind::Configuration, system.name(), reference));
    }
    for system in WorkflowSystemId::annotation_systems() {
        let reference = annotation_reference(system).expect("annotation reference");
        addresses.push((TaskKind::Annotation, system.name(), reference));
        // Translation targets share the annotation references.
        addresses.push((TaskKind::Translation, system.name(), reference));
    }
    addresses
}

/// Deterministic hypothesis batch for one request: mutations of the
/// reference with varied quality, stamped with the request index so
/// repeated requests are not byte-identical.
fn service_hypotheses(reference: &str, request_index: usize, batch_size: usize) -> Vec<String> {
    (0..batch_size)
        .map(|i| match i % 4 {
            0 => reference.to_owned(),
            1 => reference.chars().take(reference.len() / 2).collect(),
            2 => format!("{reference}\nextra_line_{request_index}"),
            _ => format!("unrelated hypothesis {request_index} {i}"),
        })
        .collect()
}

/// Boot a scoring server on an ephemeral loopback port, drive it from
/// `clients` concurrent connections sending `requests_per_client` pipelined
/// batches of `batch_size` hypotheses each, and report throughput plus the
/// shared cache's hit rate.
pub fn measure_service_throughput(
    clients: usize,
    requests_per_client: usize,
    batch_size: usize,
) -> ServiceBenchReport {
    // Pipelining window per client: enough to keep the worker pool busy
    // without the client-side send path outrunning its own reads.
    const WINDOW: usize = 16;

    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default())
        .expect("loopback bind cannot fail");
    let addr = server.addr();
    let addresses = service_workload_addresses();

    let start = Instant::now();
    std::thread::scope(|scope| {
        let addresses = &addresses;
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client =
                        ScoringClient::connect(addr).expect("loopback connect cannot fail");
                    let mut in_flight = 0usize;
                    for request_index in 0..requests_per_client {
                        let (task, system, reference) =
                            addresses[(client_index + request_index) % addresses.len()];
                        let request = ScoreRequest::by_id(
                            client.fresh_id(),
                            task,
                            system,
                            service_hypotheses(reference, request_index, batch_size),
                        );
                        client.send(&request).expect("send over loopback");
                        in_flight += 1;
                        if in_flight >= WINDOW {
                            let response = client.recv().expect("recv over loopback");
                            assert!(response.ok, "bench request failed: {:?}", response.error);
                            in_flight -= 1;
                        }
                    }
                    for response in client.collect(in_flight).expect("drain responses") {
                        assert!(response.ok, "bench request failed: {:?}", response.error);
                    }
                    client.close();
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("bench client panicked");
        }
    });
    let wall = start.elapsed().as_secs_f64();

    let stats = server.stats();
    server.shutdown();

    let requests = clients * requests_per_client;
    assert_eq!(
        stats.requests, requests as u64,
        "server counted every batch"
    );
    ServiceBenchReport {
        bench_id: "BENCH_2".to_owned(),
        clients,
        requests,
        batch_size,
        scored_hypotheses: stats.hypotheses as usize,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_hit_rate: stats.cache_hit_rate(),
        wall_time_secs: wall,
        requests_per_sec: requests as f64 / wall,
        hypotheses_per_sec: stats.hypotheses as f64 / wall,
    }
}

/// One client-count tier of the connection-scaling bench.
#[derive(Debug, Clone, Serialize)]
pub struct ConnectionTierReport {
    /// Concurrent closed-loop client connections in this tier.
    pub clients: usize,
    /// Total requests completed across all clients (exact counter).
    pub requests: usize,
    /// Hypotheses scored (`requests × batch_size`), as counted by the server.
    pub hypotheses: usize,
    /// Wall-clock seconds from barrier release to last response read.
    pub wall_time_secs: f64,
    /// Requests completed per second — the scaling-curve signal.
    pub requests_per_sec: f64,
    /// Hypotheses scored per second.
    pub hypotheses_per_sec: f64,
    /// Server-side p50 admission→reply latency, microseconds (power-of-two
    /// bucket upper bound).
    pub latency_p50_us: u64,
    /// Server-side p95 admission→reply latency, microseconds.
    pub latency_p95_us: u64,
    /// Server-side p99 admission→reply latency, microseconds.
    pub latency_p99_us: u64,
}

/// Machine-readable connection-scaling report emitted as `BENCH_6.json`
/// (see the crate docs for the schema conventions).
#[derive(Debug, Clone, Serialize)]
pub struct ConnectionScalingReport {
    /// Report schema / sequence tag (`BENCH_6` for the connection bench).
    pub bench_id: String,
    /// Hypotheses per request.
    pub batch_size: usize,
    /// Closed-loop client think time between requests, milliseconds: the
    /// idle gap each connection holds open, which the event loop must
    /// multiplex without burning a thread on it.
    pub think_time_ms: u64,
    /// Client-count bound in force (`WFSPEAK_CONNECTIONS_MAX`), absent for
    /// the full 4→1024 sweep.
    pub max_clients: Option<usize>,
    /// Per-tier workload counters, rates and latency percentiles.
    pub tiers: Vec<ConnectionTierReport>,
    /// Requests completed across all tiers.
    pub total_requests: usize,
    /// Hypotheses scored across all tiers.
    pub total_hypotheses: usize,
    /// FNV-1a fold of every tier's deterministic counters (clients,
    /// requests, hypotheses — never the timings), as a `0x`-prefixed hex
    /// string: two runs of the same configuration must match.
    pub summary_checksum: String,
    /// Wall-clock seconds across all tiers (including connection setup).
    pub wall_time_secs: f64,
}

impl ConnectionScalingReport {
    /// Pretty JSON for the `BENCH_6.json` artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

/// The full-sweep client tiers for the connection bench.
pub const CONNECTION_TIERS: [usize; 3] = [4, 256, 1024];

/// The client-count bound the connection bench honours:
/// `WFSPEAK_CONNECTIONS_MAX` (used by the CI smoke to stop at 64 clients),
/// unbounded by default.
pub fn connections_max() -> usize {
    std::env::var("WFSPEAK_CONNECTIONS_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX)
}

/// Drive one server with `clients` concurrent closed-loop connections
/// (connect, barrier, then send→recv→think loops) until `total_requests`
/// complete, and return the tier's counters, rates and server-side latency
/// percentiles. One fresh server per tier keeps the latency histogram
/// scoped to the tier.
fn measure_connection_tier(
    clients: usize,
    total_requests: usize,
    batch_size: usize,
    think_time: std::time::Duration,
) -> ConnectionTierReport {
    use std::sync::Barrier;

    // The bench measures the event loop and worker pool, not admission
    // shedding: size the queue to the client count so a closed-loop
    // request never parks, and keep the admission timeout generous in
    // case it ever does.
    let config = ServiceConfig {
        queue_depth: clients.max(256),
        admission_timeout: std::time::Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let server = ScoringServer::spawn("127.0.0.1:0", config).expect("loopback bind cannot fail");
    let addr = server.addr();
    let reference = wfspeak_corpus::references::configuration_reference(
        wfspeak_corpus::WorkflowSystemId::Wilkins,
    )
    .expect("configuration reference");
    let requests_per_client = (total_requests / clients).max(1);
    let requests = requests_per_client * clients;

    // All clients connect before any sends: the measured window is pure
    // request traffic, not connection setup.
    let barrier = Barrier::new(clients + 1);
    let start = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client =
                        ScoringClient::connect(addr).expect("loopback connect cannot fail");
                    barrier.wait();
                    for request_index in 0..requests_per_client {
                        let hypotheses = (0..batch_size)
                            .map(|i| {
                                format!("workflow step {i} of request {request_index} from client {client_index}")
                            })
                            .collect();
                        let request =
                            ScoreRequest::by_text(client.fresh_id(), reference, hypotheses);
                        client.send(&request).expect("send over loopback");
                        let response = client.recv().expect("recv over loopback");
                        assert!(response.ok, "bench request failed: {:?}", response.error);
                        // Closed-loop think time: the connection sits idle
                        // (but open) between requests, so aggregate
                        // throughput scales with the number of connections
                        // the event loop can hold until the worker pool
                        // saturates.
                        if !think_time.is_zero() && request_index + 1 < requests_per_client {
                            std::thread::sleep(think_time);
                        }
                    }
                    client.close();
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            handle.join().expect("bench client panicked");
        }
        start
    });
    let wall = start.elapsed().as_secs_f64();

    let stats = server.stats();
    server.shutdown();
    assert_eq!(
        stats.requests, requests as u64,
        "server counted every request"
    );
    assert_eq!(
        stats.latency_samples, requests as u64,
        "every request recorded a latency sample"
    );
    ConnectionTierReport {
        clients,
        requests,
        hypotheses: stats.hypotheses as usize,
        wall_time_secs: wall,
        requests_per_sec: requests as f64 / wall,
        hypotheses_per_sec: stats.hypotheses as f64 / wall,
        latency_p50_us: stats.latency_p50_us,
        latency_p95_us: stats.latency_p95_us,
        latency_p99_us: stats.latency_p99_us,
    }
}

/// The client tiers a sweep bounded at `max_clients` actually runs: the
/// sweep points of [`CONNECTION_TIERS`] up to the bound, with the bound
/// itself appended as a final tier when it falls between sweep points (so
/// a CI cap of 64 still measures a >4-client tier), and the bound alone
/// when it sits below the smallest sweep point.
pub fn connection_tiers_for(max_clients: usize) -> Vec<usize> {
    let mut tiers: Vec<usize> = CONNECTION_TIERS
        .iter()
        .copied()
        .filter(|&clients| clients <= max_clients)
        .collect();
    if tiers.last() != Some(&max_clients)
        && max_clients > CONNECTION_TIERS[0]
        && max_clients < *CONNECTION_TIERS.last().expect("tiers nonempty")
    {
        tiers.push(max_clients);
    }
    if tiers.is_empty() {
        tiers.push(max_clients.max(1));
    }
    tiers
}

/// Run the connection-scaling sweep: the tiers of [`connection_tiers_for`],
/// each pushing `total_requests` requests of `batch_size` hypotheses
/// through a fresh event-driven server.
pub fn measure_connection_scaling(
    max_clients: usize,
    total_requests: usize,
    batch_size: usize,
    think_time: std::time::Duration,
) -> ConnectionScalingReport {
    let tiers_to_run = connection_tiers_for(max_clients);
    let start = Instant::now();
    let tiers: Vec<ConnectionTierReport> = tiers_to_run
        .iter()
        .map(|&clients| measure_connection_tier(clients, total_requests, batch_size, think_time))
        .collect();

    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for tier in &tiers {
        for counter in [
            tier.clients as u64,
            tier.requests as u64,
            tier.hypotheses as u64,
        ] {
            checksum = fnv1a(checksum, &counter.to_le_bytes());
        }
    }
    ConnectionScalingReport {
        bench_id: "BENCH_6".to_owned(),
        batch_size,
        think_time_ms: think_time.as_millis() as u64,
        max_clients: (max_clients != usize::MAX).then_some(max_clients),
        total_requests: tiers.iter().map(|t| t.requests).sum(),
        total_hypotheses: tiers.iter().map(|t| t.hypotheses).sum(),
        summary_checksum: format!("{checksum:#018x}"),
        wall_time_secs: start.elapsed().as_secs_f64(),
        tiers,
    }
}

/// Run the connection-scaling bench at its standard scale (4096 requests ×
/// 4 hypotheses per tier, 2ms closed-loop think time, tiers bounded by
/// `WFSPEAK_CONNECTIONS_MAX` when set), print the scaling curve and write
/// the report to `path`. Shared by `repro bench-connections` and the
/// `connection_scaling` bench binary so the two artifacts cannot drift.
pub fn run_connection_bench(path: &str) {
    let report = measure_connection_scaling(
        connections_max(),
        4096,
        4,
        std::time::Duration::from_millis(2),
    );
    println!(
        "Connection scaling: {} tiers, {} requests ({} hypotheses) in {:.2}s (checksum {})",
        report.tiers.len(),
        report.total_requests,
        report.total_hypotheses,
        report.wall_time_secs,
        report.summary_checksum,
    );
    for tier in &report.tiers {
        println!(
            "  {:>5} clients: {:>6} reqs in {:>7.3}s = {:>8.1} req/s, {:>9.1} hyp/s \
             (p50 {}us, p95 {}us, p99 {}us)",
            tier.clients,
            tier.requests,
            tier.wall_time_secs,
            tier.requests_per_sec,
            tier.hypotheses_per_sec,
            tier.latency_p50_us,
            tier.latency_p95_us,
            tier.latency_p99_us,
        );
    }
    match std::fs::write(path, report.to_json() + "\n") {
        Ok(()) => println!("Wrote {path}\n"),
        Err(e) => eprintln!("Could not write {path}: {e}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_benchmarks_with_expected_trial_counts() {
        assert_eq!(paper_benchmark().config().trials, 5);
        assert_eq!(bench_benchmark().config().trials, 1);
    }

    #[test]
    fn service_throughput_report_is_consistent() {
        // Small scale so the test stays fast; the real bench uses more.
        let report = measure_service_throughput(2, 12, 4);
        assert_eq!(report.requests, 24);
        assert_eq!(report.scored_hypotheses, 24 * 4);
        // 11 addresses resolve to 7 distinct reference texts (translation
        // targets share the annotation references), and the cache is keyed
        // by text; every later lookup hits.
        assert_eq!(report.cache_misses, 7);
        assert_eq!(report.cache_hits as usize, report.requests - 7);
        assert!(report.cache_hit_rate > 0.5);
        assert!(report.wall_time_secs > 0.0);
        assert!(report.hypotheses_per_sec > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_2\""));
        assert!(json.contains("hypotheses_per_sec"));
    }

    #[test]
    fn connection_scaling_report_is_consistent() {
        // Tiny sweep: a 2-client cap falls below every sweep point, so the
        // bench runs a single 2-client tier.
        let report = measure_connection_scaling(2, 8, 2, std::time::Duration::ZERO);
        assert_eq!(report.bench_id, "BENCH_6");
        assert_eq!(report.max_clients, Some(2));
        assert_eq!(report.tiers.len(), 1);
        let tier = &report.tiers[0];
        assert_eq!(tier.clients, 2);
        assert_eq!(tier.requests, 8);
        assert_eq!(tier.hypotheses, 16);
        assert_eq!(report.total_requests, 8);
        assert_eq!(report.total_hypotheses, 16);
        // Latency percentiles come from the power-of-two histogram: with
        // samples recorded they are nonzero bucket bounds and monotone.
        assert!(tier.latency_p50_us >= 1);
        assert!(tier.latency_p50_us <= tier.latency_p95_us);
        assert!(tier.latency_p95_us <= tier.latency_p99_us);
        assert!(tier.wall_time_secs > 0.0 && tier.requests_per_sec > 0.0);
        // The checksum folds only workload counters, so a re-run of the
        // same configuration matches bit for bit.
        let rerun = measure_connection_scaling(2, 8, 2, std::time::Duration::ZERO);
        assert_eq!(report.summary_checksum, rerun.summary_checksum);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_6\""));
        assert!(json.contains("latency_p99_us"));
        assert!(json.contains("summary_checksum"));
    }

    #[test]
    fn connection_tier_selection_honours_the_cap() {
        // Full sweep when unbounded; cut-and-append when capped between
        // sweep points; smallest tier only when capped below it.
        assert_eq!(connection_tiers_for(usize::MAX), vec![4, 256, 1024]);
        assert_eq!(connection_tiers_for(1024), vec![4, 256, 1024]);
        assert_eq!(connection_tiers_for(512), vec![4, 256, 512]);
        assert_eq!(connection_tiers_for(64), vec![4, 64]);
        assert_eq!(connection_tiers_for(4), vec![4]);
        assert_eq!(connection_tiers_for(2), vec![2]);
    }

    #[test]
    fn evaluation_throughput_report_is_consistent() {
        let report = measure_evaluation_throughput(2);
        assert_eq!(report.passes, 2);
        // 3 config systems + 4 annotation systems + 4 translation pairs,
        // each × 4 models, per pass.
        assert_eq!(report.grid_cells, (3 + 4 + 4) * 4 * 2);
        assert_eq!(report.evaluations, report.grid_cells * report.trials);
        // 11 grid rows per pass resolve to 7 distinct reference texts
        // (translation targets share the annotation references); the first
        // pass prepares each once, everything later hits.
        assert_eq!(report.cache_misses, 7);
        assert_eq!(report.cache_hits, 4 + 11);
        assert!(report.cache_hit_rate > 0.5);
        assert!(report.evaluations_per_sec > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_3\""));
        assert!(json.contains("evaluations_per_sec"));
    }

    #[test]
    fn execution_throughput_report_is_consistent() {
        let report = measure_execution_throughput(2);
        assert_eq!(report.passes, 2);
        // 5 execution systems × 4 models, per pass.
        assert_eq!(report.grid_cells, 5 * 4 * 2);
        assert_eq!(report.executions, report.grid_cells * report.trials);
        assert!(report.completed > 0, "exact-tier artifacts must complete");
        assert!(report.unparsed > 0, "wrong-tier artifacts must fail parse");
        assert!(report.completed + report.unparsed <= report.executions);
        assert!(report.mean_runnability > 0.0 && report.mean_runnability < 100.0);
        assert!(report.mean_fidelity > 0.0 && report.mean_fidelity < 100.0);
        assert!(report.executions_per_sec > 0.0);
        // The checksums are deterministic for a fixed seed.
        let again = measure_execution_throughput(2);
        assert_eq!(report.completed, again.completed);
        assert_eq!(report.unparsed, again.unparsed);
        assert_eq!(
            report.mean_runnability.to_bits(),
            again.mean_runnability.to_bits()
        );
        assert_eq!(
            report.mean_fidelity.to_bits(),
            again.mean_fidelity.to_bits()
        );
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_4\""));
        assert!(json.contains("executions_per_sec"));
    }

    #[test]
    fn parse_throughput_report_is_consistent() {
        let report = measure_parse_throughput(2);
        assert_eq!(report.passes, 2);
        // 3 configuration systems × 4 models × 5 trials × 3 prompt
        // variants: the corpus the acceptance criterion pins.
        assert_eq!(report.artifacts, 180);
        assert!(report.total_bytes > 0);
        // Exact-tier Wilkins/ADIOS2 output parses; Henson scripts and
        // degraded tiers populate the failure categories.
        assert!(report.parsed_ok > 0, "well-formed artifacts must parse");
        assert!(
            !report.failure_categories.is_empty(),
            "degraded artifacts must populate failure categories"
        );
        let failed: usize = report.failure_categories.iter().map(|f| f.count).sum();
        assert_eq!(report.parsed_ok + failed, report.artifacts);
        assert!(report.baseline_parses_per_sec > 0.0);
        assert!(report.owned_parses_per_sec > 0.0);
        assert!(report.zero_copy_parses_per_sec > 0.0);
        // The outcome checksums are deterministic for a fixed seed.
        let again = measure_parse_throughput(2);
        assert_eq!(report.parsed_ok, again.parsed_ok);
        assert_eq!(
            report
                .failure_categories
                .iter()
                .map(|f| (f.category.clone(), f.count))
                .collect::<Vec<_>>(),
            again
                .failure_categories
                .iter()
                .map(|f| (f.category.clone(), f.count))
                .collect::<Vec<_>>()
        );
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_7\""));
        assert!(json.contains("speedup_zero_copy_vs_baseline"));
        assert!(json.contains("failure_categories"));
    }

    #[test]
    fn grid_throughput_report_is_consistent() {
        let report = measure_grid_throughput();
        // 3 config systems + 4 annotation systems + 4 translation pairs,
        // each × 4 models.
        assert_eq!(report.grid_cells, (3 + 4 + 4) * 4);
        assert_eq!(report.scored_hypotheses, report.grid_cells * report.trials);
        assert_eq!(report.metric_evaluations, report.scored_hypotheses * 2);
        assert!(report.prepared_references >= 3);
        assert!(report.wall_time_secs > 0.0);
        assert!(report.cells_per_sec > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_1\""));
        assert!(json.contains("cells_per_sec"));
    }

    #[test]
    fn runtime_scaling_report_is_deterministic_at_the_smoke_tier() {
        let report = measure_runtime_scaling(100, 42);
        // 2 sizes (10, 100) × 4 acyclic shapes.
        assert_eq!(report.tiers.len(), 8);
        assert_eq!(report.max_tasks, Some(100));
        assert!(report.deterministic, "summaries must match across reruns");
        // Every tier reproduces the committed BENCH_5.json counters and
        // checksum bit-for-bit.  The 1000-task tiers would add seconds to
        // a debug test run: compare a `repro bench-scaling` report with the
        // same file for those.
        let committed: serde_json::Value =
            serde_json::from_str(include_str!("../../../BENCH_5.json")).unwrap();
        let pinned = committed["tiers"].as_array().unwrap();
        for (tier, pin) in report.tiers.iter().zip(pinned) {
            let label = format!("{} × {}", tier.shape, tier.tasks);
            assert_eq!(pin["shape"].as_str(), Some(tier.shape.as_str()), "{label}");
            assert_eq!(pin["tasks"].as_i64(), Some(tier.tasks as i64), "{label}");
            assert_eq!(
                pin["published"].as_i64(),
                Some(tier.published as i64),
                "{label}"
            );
            assert_eq!(
                pin["received"].as_i64(),
                Some(tier.received as i64),
                "{label}"
            );
            assert_eq!(
                pin["checksum"].as_str(),
                Some(tier.checksum.as_str()),
                "{label}"
            );
        }
        assert!(report.total_tasks > 0 && report.total_messages > 0);
        assert!(report.wall_time_secs > 0.0 && report.tasks_per_sec > 0.0);
        for tier in &report.tiers {
            assert!(tier.tasks <= 100);
            assert!(tier.published > 0 && tier.received > 0);
            assert!(tier.messages_per_sec > 0.0);
        }
        // The checksum is a pure fold over trace summaries, so a rerun with
        // the same seed reproduces it bit-for-bit.
        let again = measure_runtime_scaling(100, 42);
        assert_eq!(report.checksum, again.checksum);
        assert!(report.checksum.starts_with("0x"));
        let json = report.to_json();
        assert!(json.contains("\"bench_id\": \"BENCH_5\""));
        assert!(json.contains("messages_per_sec"));
    }
}
