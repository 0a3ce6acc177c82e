//! `repro` — regenerate the paper's evaluation artifacts and drive the
//! scoring service.
//!
//! ```text
//! cargo run --release -p wfspeak-bench --bin repro                  # everything
//! cargo run --release -p wfspeak-bench --bin repro -- table1       # one artifact
//! cargo run --release -p wfspeak-bench --bin repro -- serve        # scoring server
//! echo "tasks: []" | cargo run --release -p wfspeak-bench --bin repro -- \
//!     score --task configuration --system Henson                   # client
//! ```
//!
//! Run `repro help` for the full subcommand list.

use std::io::Read;

use wfspeak_bench::chaos::{run_chaos_cli, ChaosOptions};
use wfspeak_core::report::{
    qualitative_configurations, qualitative_translations, render_samples, FullReport,
};
use wfspeak_core::{Benchmark, BenchmarkConfig, ExperimentKind, PromptVariant};
use wfspeak_service::{
    ResilientClient, RetryPolicy, ScoreRequest, ScoringServer, ServiceConfig, TaskKind,
    DEFAULT_ADDR,
};

const USAGE: &str = "\
repro — reproduce the paper's evaluation and serve its scoring core

USAGE:
    repro [SUBCOMMAND ...] [OPTIONS]

Paper artifacts (default: all tables and the figure):
    run            table1..table6 and figure1, in order
    table1         configuration experiment (BLEU/ChrF per model and system)
    table2         annotation experiment
    table3         translation experiment
    table4         qualitative translations
    table5         few-shot vs zero-shot comparison
    table6         qualitative configurations
    figure1        prompt-sensitivity heatmaps
    json           full machine-readable report on stdout

Evaluation pipeline:
    evaluate       full pipeline (code extraction -> API-call comparison ->
                   BLEU/ChrF) over experiment grids, with per-cell summaries
        --task T       configuration | annotation | translation | all
                                             [default: all]
        --trials N     trials per cell       [default: 5]
        --execute      also run every generated configuration on the
                       runtime engine and report runnability/fidelity
        --addr A       client mode: evaluate raw responses from stdin
                       against a running server instead of the local grid
                       (honours --task, --system, --lines, --retries,
                       --deadline-ms)
    execute        dynamic execution only: parse each generated artifact
                   (configuration file, or annotated Python task code for
                   Parsl/PyCOMPSs) into a workflow spec, run it on the
                   runtime engine under a bounded sandbox, and score
                   runnability plus trace fidelity vs the reference run,
                   across all five workflow systems
        --trials N     trials per cell       [default: 5]
        --addr A       client mode: execute raw responses from stdin
                       against a running server instead of the local grid
                       (honours --system, --lines, --retries, --deadline-ms)

Scoring service:
    serve          run the batch scoring server (newline-delimited JSON/TCP)
        --addr A       listen address        [default: 127.0.0.1:7878]
        --workers N    scoring threads       [default: one per core]
    score          score hypotheses from stdin against a running server
        --addr A       server address        [default: 127.0.0.1:7878]
        --task T       configuration | annotation | translation
                                             [default: configuration]
        --system S     workflow system name  [default: Henson]
        --lines        treat each stdin line as its own hypothesis
                       (default: all of stdin is one hypothesis)
        --stats        also print server cache/throughput statistics
        --retries N    client retries after a transport failure or an
                       `overloaded` shed (reconnect + capped deterministic
                       exponential backoff)         [default: 3]
        --deadline-ms M
                       per-request deadline, sent on the wire (the server
                       answers expired queued jobs with a typed `deadline`
                       error) and used as the read timeout
                                             [default: none]
    chaos          deterministic fault-injection sweep: for each seed, run
                   a mixed score/evaluate/execute workload against a
                   fault-injected in-process server (torn/partial frames,
                   dropped and delayed writes, mid-request disconnects,
                   worker panics) and assert every request terminates,
                   survivors are bit-identical to a no-fault baseline, and
                   the fault schedule replays exactly; exits non-zero
                   naming the failing seed
        --seeds N      seeds to sweep (0..N)  [default: 8]
        --requests N   requests per run       [default: 48]
        --workers N    server worker threads  [default: 2]
        --retries N    client retries         [default: 4]
        --deadline-ms M
                       per-request deadline   [default: 750]

Misc:
    help           print this message

Multiple artifact subcommands run in sequence: `repro table1 table5`.";

fn table1(benchmark: &Benchmark) {
    let result = benchmark.run_configuration(PromptVariant::Original, false);
    println!(
        "{}",
        result.render_table(
            "Table 1: Evaluation of various LLMs using code similarity metrics for the workflow configuration experiment"
        )
    );
    println!(
        "Best model: {}    Best workflow system: {}\n",
        result.best_model().unwrap_or_default(),
        result.best_row().unwrap_or_default()
    );
}

fn table2(benchmark: &Benchmark) {
    let result = benchmark.run_annotation(PromptVariant::Original);
    println!(
        "{}",
        result.render_table(
            "Table 2: Evaluation of various LLMs using code similarity metrics for the task code annotation experiment"
        )
    );
    println!(
        "Best model: {}    Best workflow system: {}\n",
        result.best_model().unwrap_or_default(),
        result.best_row().unwrap_or_default()
    );
}

fn table3(benchmark: &Benchmark) {
    let result = benchmark.run_translation(PromptVariant::Original);
    println!(
        "{}",
        result.render_table(
            "Table 3: Evaluation of various LLMs using code similarity metrics for the task code translation experiment"
        )
    );
}

fn table4(benchmark: &Benchmark) {
    let samples = qualitative_translations(benchmark.config().base_seed);
    println!(
        "{}",
        render_samples(
            "Table 4: Translated producer codes for the Henson workflow system (LLaMA-3.3-70B vs Gemini-2.5-Pro); validator findings mark nonexistent API calls",
            &samples
        )
    );
}

fn table5(benchmark: &Benchmark) {
    let comparison = benchmark.run_few_shot_comparison();
    println!("{}", comparison.render_table());
    println!(
        "Few-shot improves every model: {}\n",
        comparison.few_shot_improves_all_models()
    );
}

fn table6(benchmark: &Benchmark) {
    let samples = qualitative_configurations(benchmark.config().base_seed);
    println!(
        "{}",
        render_samples(
            "Table 6: Generated Wilkins configuration files with few-shot (left) and zero-shot (right) prompting using o3; validator findings mark nonexistent fields",
            &samples
        )
    );
}

fn figure1(benchmark: &Benchmark) {
    let sensitivity = benchmark.run_prompt_sensitivity();
    println!("Figure 1: BLEU scores by prompt type and LLM\n");
    for kind in ExperimentKind::ALL {
        for row in kind.row_labels() {
            println!("{}", sensitivity.render_heatmap(kind, &row));
        }
    }
}

fn json(benchmark: &Benchmark) {
    let report = FullReport {
        config: benchmark.config().clone(),
        configuration: benchmark.run_configuration(PromptVariant::Original, false),
        annotation: benchmark.run_annotation(PromptVariant::Original),
        translation: benchmark.run_translation(PromptVariant::Original),
        few_shot: benchmark.run_few_shot_comparison(),
        prompt_sensitivity: benchmark.run_prompt_sensitivity(),
    };
    println!("{}", report.to_json());
}

/// Options shared by the service-facing subcommands, parsed from
/// `--flag value` pairs.
struct CliOptions {
    addr: String,
    /// Whether `--addr` was passed explicitly (switches `evaluate` /
    /// `execute` into client mode).
    addr_set: bool,
    workers: usize,
    task: String,
    system: String,
    trials: usize,
    lines: bool,
    stats: bool,
    execute: bool,
    retries: u32,
    /// Whether `--retries` was passed explicitly (`chaos` has a higher
    /// default than the plain client subcommands).
    retries_set: bool,
    /// 0 = no deadline on the wire.
    deadline_ms: u64,
    seeds: u64,
    requests: usize,
}

impl CliOptions {
    /// The client retry/deadline policy the subcommand's flags describe.
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            retries: self.retries,
            deadline_ms: (self.deadline_ms > 0).then_some(self.deadline_ms),
            ..RetryPolicy::default()
        }
    }

    /// Parse `--flag [value]` pairs, rejecting flags outside `allowed` so
    /// each subcommand only accepts the options it actually honours.
    fn parse(args: &[String], allowed: &[&str]) -> Result<CliOptions, String> {
        let mut options = CliOptions {
            addr: DEFAULT_ADDR.to_owned(),
            addr_set: false,
            workers: 0,
            task: "configuration".to_owned(),
            system: "Henson".to_owned(),
            trials: 5,
            lines: false,
            stats: false,
            execute: false,
            retries: 3,
            retries_set: false,
            deadline_ms: 0,
            seeds: 8,
            requests: 48,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            if !allowed.contains(&flag.as_str()) {
                return Err(format!("unknown option `{flag}`"));
            }
            let mut value_of = |flag: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--addr" => {
                    options.addr = value_of("--addr")?;
                    options.addr_set = true;
                }
                "--workers" => {
                    options.workers = value_of("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?;
                }
                "--task" => options.task = value_of("--task")?,
                "--system" => options.system = value_of("--system")?,
                "--trials" => {
                    options.trials = value_of("--trials")?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?;
                    if options.trials == 0 {
                        return Err("--trials must be at least 1".to_owned());
                    }
                }
                "--lines" => options.lines = true,
                "--stats" => options.stats = true,
                "--execute" => options.execute = true,
                "--retries" => {
                    options.retries = value_of("--retries")?
                        .parse()
                        .map_err(|e| format!("--retries: {e}"))?;
                    options.retries_set = true;
                }
                "--deadline-ms" => {
                    options.deadline_ms = value_of("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?;
                    if options.deadline_ms == 0 {
                        return Err("--deadline-ms must be at least 1".to_owned());
                    }
                }
                "--seeds" => {
                    options.seeds = value_of("--seeds")?
                        .parse()
                        .map_err(|e| format!("--seeds: {e}"))?;
                    if options.seeds == 0 {
                        return Err("--seeds must be at least 1".to_owned());
                    }
                }
                "--requests" => {
                    options.requests = value_of("--requests")?
                        .parse()
                        .map_err(|e| format!("--requests: {e}"))?;
                    if options.requests == 0 {
                        return Err("--requests must be at least 1".to_owned());
                    }
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(options)
    }
}

/// Run the full evaluation pipeline — code extraction, API-call comparison
/// and BLEU/ChrF — over the selected experiment grids and print a summary
/// per grid plus the shared-cache statistics.
fn evaluate(options: &CliOptions) -> Result<(), String> {
    let kinds: Vec<ExperimentKind> = match options.task.to_ascii_lowercase().as_str() {
        "all" => ExperimentKind::ALL.to_vec(),
        "configuration" | "config" => vec![ExperimentKind::Configuration],
        "annotation" | "annotate" => vec![ExperimentKind::Annotation],
        "translation" | "translate" => vec![ExperimentKind::Translation],
        other => {
            return Err(format!(
                "unknown task `{other}` (expected configuration, annotation, translation or all)"
            ))
        }
    };
    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig {
        trials: options.trials,
        ..BenchmarkConfig::default()
    });
    for kind in kinds {
        let grid = benchmark.run_evaluation(kind, PromptVariant::Original);
        println!(
            "{}",
            grid.render_summary(&format!(
                "Evaluation: {} ({} trials per cell)",
                kind.name(),
                options.trials
            ))
        );
    }
    if options.execute {
        print_execution_grid(&benchmark, options.trials);
    }
    let stats = benchmark.reference_cache().stats();
    println!(
        "reference cache: {} hits / {} lookups ({:.1}% hit rate)",
        stats.hits,
        stats.lookups(),
        100.0 * stats.hit_rate()
    );
    Ok(())
}

/// Run the five-system execution grid through dynamic execution and print
/// the runnability/fidelity summary (shared by `execute` and
/// `evaluate --execute`).
fn print_execution_grid(benchmark: &Benchmark, trials: usize) {
    let grid = benchmark.run_execution(PromptVariant::Original);
    println!(
        "{}",
        grid.render_summary(&format!(
            "Execution: generated artifacts on the runtime engine ({trials} trials per cell)"
        ))
    );
    println!(
        "{}",
        grid.render_diagnostics("Diagnostics: top failure kinds per model × system")
    );
}

/// Dynamic execution only: every generated artifact is parsed into a
/// workflow spec and run on the runtime engine under the bounded sandbox.
fn execute(options: &CliOptions) -> Result<(), String> {
    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig {
        trials: options.trials,
        ..BenchmarkConfig::default()
    });
    print_execution_grid(&benchmark, options.trials);
    Ok(())
}

fn serve(options: &CliOptions) -> Result<(), String> {
    let config = ServiceConfig {
        workers: options.workers,
        ..ServiceConfig::default()
    };
    let server = ScoringServer::spawn(options.addr.as_str(), config)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    println!(
        "repro serve: listening on {} (newline-delimited JSON; try `repro score --addr {}`)",
        server.addr(),
        server.addr()
    );
    server.wait();
    Ok(())
}

/// The scoring task a client subcommand addresses (`--task`), rejecting
/// the pseudo-task `stats`.
fn client_task(options: &CliOptions) -> Result<TaskKind, String> {
    match TaskKind::parse(&options.task) {
        Some(TaskKind::Stats) => {
            Err("`--task stats` is not a scoring task; use `--stats` instead".to_owned())
        }
        Some(task) => Ok(task),
        None => Err(format!("unknown task `{}`", options.task)),
    }
}

/// Read hypotheses / raw responses from stdin: the whole stream as one, or
/// one per line with `--lines`. Non-empty stdin yields at least one entry
/// in both modes.
fn stdin_hypotheses(lines: bool) -> Result<Vec<String>, String> {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("cannot read hypotheses from stdin: {e}"))?;
    if input.is_empty() {
        return Err("no hypotheses on stdin".to_owned());
    }
    Ok(if lines {
        input.lines().map(str::to_owned).collect()
    } else {
        vec![input]
    })
}

fn print_server_stats(client: &mut ResilientClient) -> Result<(), String> {
    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    println!(
        "server: {} requests, {} hypotheses, cache {}/{} hits ({:.1}% hit rate), \
         {} worker restart(s), {} injected fault(s)",
        stats.requests,
        stats.hypotheses,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
        100.0 * stats.cache_hit_rate(),
        stats.worker_restarts,
        stats.faults_injected,
    );
    println!(
        "latency: p50 {}us, p95 {}us, p99 {}us over {} sample(s)",
        stats.latency_p50_us, stats.latency_p95_us, stats.latency_p99_us, stats.latency_samples,
    );
    Ok(())
}

fn score(options: &CliOptions) -> Result<(), String> {
    let task = client_task(options)?;
    let hypotheses = stdin_hypotheses(options.lines)?;

    let mut client = ResilientClient::new(options.addr.clone(), options.retry_policy());
    let request = ScoreRequest::by_id(client.fresh_id(), task, &options.system, hypotheses);
    let response = client
        .call(request)
        .map_err(|e| format!("scoring failed: {e}"))?;
    if !response.ok {
        return Err(response.error.unwrap_or_else(|| "unknown error".to_owned()));
    }
    println!(
        "{:>4}  {:>8}  {:>8}   (task {}, system {})",
        "#",
        "BLEU",
        "ChrF",
        task.name(),
        options.system
    );
    for (i, s) in response.scores.iter().enumerate() {
        println!("{:>4}  {:>8.2}  {:>8.2}", i + 1, s.bleu, s.chrf);
    }
    if options.stats {
        print_server_stats(&mut client)?;
    }
    Ok(())
}

/// `repro evaluate --addr …`: run raw responses from stdin through a
/// running server's full evaluation pipeline.
fn evaluate_client(options: &CliOptions) -> Result<(), String> {
    let task = client_task(options)?;
    let responses = stdin_hypotheses(options.lines)?;

    let mut client = ResilientClient::new(options.addr.clone(), options.retry_policy());
    let request = ScoreRequest::evaluate(client.fresh_id(), task, &options.system, responses);
    let response = client
        .call(request)
        .map_err(|e| format!("evaluation failed: {e}"))?;
    if !response.ok {
        return Err(response.error.unwrap_or_else(|| "unknown error".to_owned()));
    }
    println!(
        "{:>4}  {:>8}  {:>8}  {:>8}  {:>8}  {:>12}   (task {}, system {})",
        "#",
        "BLEU",
        "ChrF",
        "recall",
        "precis.",
        "hallucinated",
        task.name(),
        options.system
    );
    for (i, e) in response.evaluations.iter().enumerate() {
        println!(
            "{:>4}  {:>8.2}  {:>8.2}  {:>8.2}  {:>8.2}  {:>12}",
            i + 1,
            e.bleu,
            e.chrf,
            e.call_recall,
            e.call_precision,
            e.hallucinated.len(),
        );
    }
    Ok(())
}

/// `repro execute --addr …`: run raw responses from stdin through a
/// running server's dynamic-execution pipeline.
fn execute_client(options: &CliOptions) -> Result<(), String> {
    let responses = stdin_hypotheses(options.lines)?;

    let mut client = ResilientClient::new(options.addr.clone(), options.retry_policy());
    let request = ScoreRequest::execute(client.fresh_id(), &options.system, responses);
    let response = client
        .call(request)
        .map_err(|e| format!("execution failed: {e}"))?;
    if !response.ok {
        return Err(response.error.unwrap_or_else(|| "unknown error".to_owned()));
    }
    println!(
        "{:>4}  {:>11}  {:>8}  {:>9}   (system {})",
        "#", "runnability", "fidelity", "outcome", options.system
    );
    for (i, e) in response.executions.iter().enumerate() {
        println!(
            "{:>4}  {:>11.1}  {:>8.1}  {:>9}",
            i + 1,
            e.runnability,
            e.trace_fidelity,
            e.failure_kind.as_deref().unwrap_or("completed"),
        );
    }
    Ok(())
}

fn chaos(options: &CliOptions) -> Result<(), String> {
    let defaults = ChaosOptions::default();
    run_chaos_cli(&ChaosOptions {
        seeds: options.seeds,
        requests: options.requests,
        workers: if options.workers == 0 {
            defaults.workers
        } else {
            options.workers
        },
        retries: if options.retries_set {
            options.retries
        } else {
            defaults.retries
        },
        deadline_ms: if options.deadline_ms == 0 {
            defaults.deadline_ms
        } else {
            options.deadline_ms
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `serve` and `score` consume the rest of the argument list as options.
    match args.first().map(String::as_str) {
        Some("serve") => {
            let result =
                CliOptions::parse(&args[1..], &["--addr", "--workers"]).and_then(|o| serve(&o));
            if let Err(message) = result {
                eprintln!("repro serve: {message}");
                std::process::exit(1);
            }
            return;
        }
        Some("evaluate") => {
            // Without an explicit --task, grid-mode evaluate covers every
            // experiment; client mode keeps the single-task default.
            let client_mode = args.iter().any(|a| a == "--addr");
            let mut args = args[1..].to_vec();
            if !client_mode && !args.iter().any(|a| a == "--task") {
                args.extend(["--task".to_owned(), "all".to_owned()]);
            }
            let result = CliOptions::parse(
                &args,
                &[
                    "--task",
                    "--trials",
                    "--execute",
                    "--addr",
                    "--system",
                    "--lines",
                    "--retries",
                    "--deadline-ms",
                ],
            )
            .and_then(|o| {
                if o.addr_set {
                    evaluate_client(&o)
                } else {
                    evaluate(&o)
                }
            });
            if let Err(message) = result {
                eprintln!("repro evaluate: {message}");
                std::process::exit(1);
            }
            return;
        }
        Some("execute") => {
            let result = CliOptions::parse(
                &args[1..],
                &[
                    "--trials",
                    "--addr",
                    "--system",
                    "--lines",
                    "--retries",
                    "--deadline-ms",
                ],
            )
            .and_then(|o| {
                if o.addr_set {
                    execute_client(&o)
                } else {
                    execute(&o)
                }
            });
            if let Err(message) = result {
                eprintln!("repro execute: {message}");
                std::process::exit(1);
            }
            return;
        }
        Some("score") => {
            let result = CliOptions::parse(
                &args[1..],
                &[
                    "--addr",
                    "--task",
                    "--system",
                    "--lines",
                    "--stats",
                    "--retries",
                    "--deadline-ms",
                ],
            )
            .and_then(|o| score(&o));
            if let Err(message) = result {
                eprintln!("repro score: {message}");
                std::process::exit(1);
            }
            return;
        }
        Some("chaos") => {
            let result = CliOptions::parse(
                &args[1..],
                &[
                    "--seeds",
                    "--requests",
                    "--workers",
                    "--retries",
                    "--deadline-ms",
                ],
            )
            .and_then(|o| chaos(&o));
            if let Err(message) = result {
                eprintln!("repro chaos: {message}");
                std::process::exit(1);
            }
            return;
        }
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return;
        }
        _ => {}
    }

    // Artifact subcommands: validate everything before running anything, so
    // a typo late in the list doesn't waste a full benchmark run.
    const ARTIFACTS: [&str; 9] = [
        "run", "table1", "table2", "table3", "table4", "table5", "table6", "figure1", "json",
    ];
    let selections: Vec<&str> = if args.is_empty() {
        vec!["run"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = selections.iter().find(|s| !ARTIFACTS.contains(s)) {
        eprintln!("repro: unknown subcommand `{unknown}`\n\n{USAGE}");
        std::process::exit(2);
    }

    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig::default());
    for selection in selections {
        match selection {
            "run" => {
                table1(&benchmark);
                table2(&benchmark);
                table3(&benchmark);
                table4(&benchmark);
                table5(&benchmark);
                table6(&benchmark);
                figure1(&benchmark);
            }
            "table1" => table1(&benchmark),
            "table2" => table2(&benchmark),
            "table3" => table3(&benchmark),
            "table4" => table4(&benchmark),
            "table5" => table5(&benchmark),
            "table6" => table6(&benchmark),
            "figure1" => figure1(&benchmark),
            "json" => json(&benchmark),
            _ => unreachable!("validated above"),
        }
    }
}
