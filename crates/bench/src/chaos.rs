//! `repro chaos` — a deterministic fault-injection sweep over the scoring
//! service.
//!
//! For every seed in the sweep the harness runs the same mixed
//! score/evaluate/execute workload three times against in-process servers
//! on ephemeral loopback ports:
//!
//! 1. a **baseline** run with faults disabled, which must answer every
//!    request successfully and whose encoded response lines become the
//!    bit-identity reference;
//! 2. two **fault** runs under [`FaultPlan::chaos`]`(seed)`, driven through
//!    a [`ResilientClient`] (reconnect + capped deterministic backoff +
//!    bounded retries, per-request deadline as the read timeout).
//!
//! The sweep asserts, per seed:
//!
//! * **Every request reaches a terminal state** — scored, a typed server
//!   error (`"internal"` from an injected worker panic), or a typed client
//!   error (retries exhausted after injected drops/disconnects). Nothing
//!   hangs: every read is bounded by the deadline.
//! * **Survivors are bit-identical** — a request that scores under faults
//!   produces exactly the baseline's encoded response line.
//! * **The schedule replays** — both fault runs of a seed inject the same
//!   number of faults, restart the same number of workers and classify
//!   every request identically ([`FaultInjector`](wfspeak_service::FaultInjector)
//!   draws from a hash of (seed, request counter), never the clock).
//! * **The pool survives** — after the workload, probe requests must score
//!   successfully, proving no permanent worker-pool death; the server then
//!   drains and shuts down cleanly.
//!
//! The CI `chaos-smoke` job runs a bounded sweep and fails loudly with the
//! offending seed, which is all a reproduction needs: `repro chaos --seeds
//! <failing+1>` replays it locally, exactly.

use std::collections::HashMap;
use std::sync::Once;

use wfspeak_service::protocol::encode_line;
use wfspeak_service::{
    FaultPlan, ResilientClient, RetryPolicy, ScoreRequest, ScoringServer, ServiceConfig, TaskKind,
};

/// Knobs for one chaos sweep. `Default` matches the CI smoke scale.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Seeds to sweep: `0..seeds`.
    pub seeds: u64,
    /// Requests per run (each seed runs the workload three times).
    pub requests: usize,
    /// Server worker threads (0 = the service default).
    pub workers: usize,
    /// Client retries after the first attempt.
    pub retries: u32,
    /// Per-request deadline in milliseconds, also the per-attempt read
    /// timeout — the bound that turns a dropped response into a terminal
    /// client error instead of a hang.
    pub deadline_ms: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seeds: 8,
            requests: 48,
            workers: 2,
            retries: 4,
            deadline_ms: 750,
        }
    }
}

/// Terminal-state tallies for one run of the workload under one server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Requests answered `ok` (and, in fault runs, compared to baseline).
    pub scored: usize,
    /// Typed `error_kind: "internal"` answers (injected worker panics).
    pub internal_errors: usize,
    /// Typed `error_kind: "deadline"` answers (expired in queue).
    pub deadline_errors: usize,
    /// Other server-side error answers (none expected in this workload).
    pub other_errors: usize,
    /// Requests whose every attempt failed at the transport level.
    pub exhausted: usize,
    /// Scored answers whose encoded line differed from baseline.
    pub mismatched: usize,
    /// Faults the server scheduled, from its stats counter.
    pub faults_injected: u64,
    /// Workers respawned after injected panics, from its stats counter.
    pub worker_restarts: u64,
    /// Whether post-workload probe requests scored (pool still alive).
    pub pool_alive: bool,
}

impl RunOutcome {
    /// Requests that reached *some* terminal state. Equals the workload
    /// size by construction — the harness reports it so "0 hung requests"
    /// is an asserted number, not an assumption.
    pub fn terminal(&self) -> usize {
        self.scored
            + self.internal_errors
            + self.deadline_errors
            + self.other_errors
            + self.exhausted
    }
}

/// One seed's verdict: the baseline plus both fault runs.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The fault-plan seed.
    pub seed: u64,
    /// Workload size per run.
    pub requests: usize,
    /// `false` if the no-fault baseline failed any request (a workload
    /// bug, not a fault-tolerance finding).
    pub baseline_ok: bool,
    /// The two fault runs, in order.
    pub fault_runs: [RunOutcome; 2],
}

impl SeedReport {
    /// Requests that never reached a terminal state, across both fault
    /// runs (must be 0).
    pub fn hung(&self) -> usize {
        self.fault_runs
            .iter()
            .map(|run| self.requests - run.terminal())
            .sum()
    }

    /// Whether the two fault runs replayed identically (same tallies, same
    /// fault/restart counters).
    pub fn replay_consistent(&self) -> bool {
        self.fault_runs[0] == self.fault_runs[1]
    }

    /// The seed's pass verdict: baseline clean, zero hangs, survivors
    /// bit-identical, pool alive in both runs, schedule replayed.
    pub fn passed(&self) -> bool {
        self.baseline_ok
            && self.hung() == 0
            && self.fault_runs.iter().all(|r| r.mismatched == 0)
            && self.fault_runs.iter().all(|r| r.pool_alive)
            && self.replay_consistent()
    }
}

/// The whole sweep's verdict.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Options the sweep ran under.
    pub options: ChaosOptions,
    /// One report per seed, in seed order.
    pub seeds: Vec<SeedReport>,
}

impl ChaosReport {
    /// `true` when every seed passed.
    pub fn passed(&self) -> bool {
        self.seeds.iter().all(SeedReport::passed)
    }

    /// Seeds that failed, for loud CI output and local replay.
    pub fn failing_seeds(&self) -> Vec<u64> {
        self.seeds
            .iter()
            .filter(|s| !s.passed())
            .map(|s| s.seed)
            .collect()
    }

    /// Human-readable sweep summary, one line per seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos sweep: {} seed(s) × {} request(s), retries {}, deadline {}ms\n",
            self.options.seeds,
            self.options.requests,
            self.options.retries,
            self.options.deadline_ms,
        );
        out.push_str(
            "  seed   scored  internal  exhausted  faults  restarts  hung  replay  verdict\n",
        );
        for seed in &self.seeds {
            let run = &seed.fault_runs[0];
            out.push_str(&format!(
                "  {:>4}   {:>6}  {:>8}  {:>9}  {:>6}  {:>8}  {:>4}  {:>6}  {}\n",
                seed.seed,
                run.scored,
                run.internal_errors,
                run.exhausted,
                run.faults_injected,
                run.worker_restarts,
                seed.hung(),
                if seed.replay_consistent() {
                    "yes"
                } else {
                    "NO"
                },
                if seed.passed() { "pass" } else { "FAIL" },
            ));
        }
        let totals = self
            .seeds
            .iter()
            .flat_map(|s| s.fault_runs.iter())
            .fold((0usize, 0u64), |(t, f), r| {
                (t + r.terminal(), f + r.faults_injected)
            });
        out.push_str(&format!(
            "  total: {} terminal request(s), {} injected fault(s), {} hung, verdict {}\n",
            totals.0,
            totals.1,
            self.seeds.iter().map(SeedReport::hung).sum::<usize>(),
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        out
    }
}

/// The built-in references the workload cycles through: every task/system
/// address the corpus can resolve (3 configuration, 4 annotation, 4
/// translation targets), with the reference text alongside for
/// client-side hypothesis generation.
pub(crate) fn service_workload_addresses() -> Vec<(TaskKind, &'static str, &'static str)> {
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

/// Deterministic mixed workload for one seed: requests `1..=count` cycling
/// score → evaluate → execute over the built-in references, with
/// hypothesis batches stamped by (seed, index) so seeds exercise different
/// bytes while every run of a seed sends identical requests.
pub fn chaos_workload(seed: u64, count: usize) -> Vec<ScoreRequest> {
    use wfspeak_corpus::references::execution_reference;
    use wfspeak_corpus::WorkflowSystemId;

    let score_addresses = service_workload_addresses();
    let execute_systems = WorkflowSystemId::execution_systems();
    (0..count)
        .map(|i| {
            let id = (i + 1) as u64;
            let pick = seed as usize + i;
            match i % 3 {
                0 => {
                    let (task, system, reference) = score_addresses[pick % score_addresses.len()];
                    ScoreRequest::by_id(id, task, system, chaos_hypotheses(reference, seed, i))
                }
                1 => {
                    let (_, system, reference) = score_addresses[pick % score_addresses.len()];
                    // Evaluate against the inline reference so extraction +
                    // API-call comparison run on raw "model responses".
                    ScoreRequest::evaluate_text(
                        id,
                        reference,
                        system,
                        chaos_hypotheses(reference, seed, i),
                    )
                }
                _ => {
                    let system = execute_systems[pick % execute_systems.len()];
                    let reference = execution_reference(system);
                    ScoreRequest::execute(
                        id,
                        system.name(),
                        vec![
                            reference.to_owned(),
                            reference.chars().take(reference.len() / 2).collect(),
                        ],
                    )
                }
            }
        })
        .collect()
}

/// Deterministic hypothesis batch: the reference, a truncation, and an
/// unrelated line stamped with (seed, index).
pub(crate) fn chaos_hypotheses(reference: &str, seed: u64, index: usize) -> Vec<String> {
    vec![
        reference.to_owned(),
        reference.chars().take(reference.len() / 2).collect(),
        format!("unrelated hypothesis {seed} {index}"),
    ]
}

/// Quiet the default panic hook for *injected* panics only: the fault
/// plan's worker panics are expected and would otherwise spray dozens of
/// backtrace headers over the sweep output. Real panics still print.
/// Installed once per process (hooks are global).
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault:"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected fault:"))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Run `workload` sequentially through a [`ResilientClient`] against a
/// server configured with `faults`, classify every request's terminal
/// state, and (for fault runs) compare survivors against `baseline`
/// encoded lines.
fn run_workload(
    workload: &[ScoreRequest],
    faults: Option<FaultPlan>,
    options: &ChaosOptions,
    baseline: Option<&HashMap<u64, String>>,
) -> std::io::Result<(RunOutcome, HashMap<u64, String>)> {
    let server = ScoringServer::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            workers: options.workers,
            faults,
            ..ServiceConfig::default()
        },
    )?;
    let mut client = ResilientClient::new(
        server.addr().to_string(),
        RetryPolicy {
            retries: options.retries,
            deadline_ms: Some(options.deadline_ms),
            ..RetryPolicy::default()
        },
    );

    let mut outcome = RunOutcome::default();
    let mut lines = HashMap::with_capacity(workload.len());
    for request in workload {
        match client.call(request.clone()) {
            Ok(response) if response.ok => {
                outcome.scored += 1;
                let line = encode_line(&response);
                if let Some(baseline) = baseline {
                    if baseline.get(&request.id) != Some(&line) {
                        outcome.mismatched += 1;
                    }
                }
                lines.insert(request.id, line);
            }
            Ok(response) => match response.error_kind.as_deref() {
                Some("internal") => outcome.internal_errors += 1,
                Some("deadline") => outcome.deadline_errors += 1,
                _ => outcome.other_errors += 1,
            },
            Err(_) => outcome.exhausted += 1,
        }
    }

    // Pool-liveness probe: a scoring request must still succeed. A probe
    // can itself draw a fault (an injected panic answers `"internal"`), so
    // allow a few; each is terminal either way.
    outcome.pool_alive = (0..10).any(|k| {
        matches!(
            client.call(ScoreRequest::by_text(
                1_000_000 + k,
                "chaos liveness probe",
                vec!["chaos liveness probe".to_owned()],
            )),
            Ok(response) if response.ok
        )
    });

    client.disconnect();
    let stats = server.stats();
    outcome.faults_injected = stats.faults_injected;
    outcome.worker_restarts = stats.worker_restarts;
    server.shutdown();
    Ok((outcome, lines))
}

/// Run the full sweep described by `options`.
pub fn run_chaos(options: &ChaosOptions) -> std::io::Result<ChaosReport> {
    silence_injected_panics();
    let mut seeds = Vec::with_capacity(options.seeds as usize);
    for seed in 0..options.seeds {
        let workload = chaos_workload(seed, options.requests);

        let (baseline_outcome, baseline_lines) = run_workload(&workload, None, options, None)?;
        let baseline_ok =
            baseline_outcome.scored == workload.len() && baseline_outcome.faults_injected == 0;

        let (first, _) = run_workload(
            &workload,
            Some(FaultPlan::chaos(seed)),
            options,
            Some(&baseline_lines),
        )?;
        let (second, _) = run_workload(
            &workload,
            Some(FaultPlan::chaos(seed)),
            options,
            Some(&baseline_lines),
        )?;

        seeds.push(SeedReport {
            seed,
            requests: workload.len(),
            baseline_ok,
            fault_runs: [first, second],
        });
    }
    Ok(ChaosReport {
        options: options.clone(),
        seeds,
    })
}

/// `repro chaos` entry point: run the sweep, print the summary, and return
/// an error naming the failing seeds so the caller exits non-zero.
pub fn run_chaos_cli(options: &ChaosOptions) -> Result<(), String> {
    let report = run_chaos(options).map_err(|e| format!("chaos sweep could not run: {e}"))?;
    print!("{}", report.render());
    if report.passed() {
        println!(
            "chaos: all {} seed(s) passed (every request terminal, survivors bit-identical, \
             schedules replayed)",
            report.seeds.len()
        );
        Ok(())
    } else {
        Err(format!(
            "failing seed(s): {:?} — replay with `repro chaos --seeds <seed+1> --requests {}`",
            report.failing_seeds(),
            options.requests,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_per_seed_and_varies_across_seeds() {
        let a = chaos_workload(3, 12);
        let b = chaos_workload(3, 12);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(encode_line(x), encode_line(y));
        }
        let c = chaos_workload(4, 12);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| encode_line(x) != encode_line(y)),
            "different seeds must exercise different requests"
        );
        // All three modes appear (plain scoring leaves `mode` empty).
        assert!(a.iter().any(|r| r.mode.is_empty()));
        assert!(a.iter().any(|r| r.mode == "evaluate"));
        assert!(a.iter().any(|r| r.mode == "execute"));
    }

    #[test]
    fn single_seed_sweep_passes_end_to_end() {
        let report = run_chaos(&ChaosOptions {
            seeds: 1,
            requests: 18,
            ..ChaosOptions::default()
        })
        .expect("loopback sweep runs");
        assert_eq!(report.seeds.len(), 1);
        let seed = &report.seeds[0];
        assert!(seed.baseline_ok, "no-fault baseline must score everything");
        assert_eq!(seed.hung(), 0, "every request reaches a terminal state");
        assert!(
            seed.replay_consistent(),
            "two runs of one seed must classify identically: {:?} vs {:?}",
            seed.fault_runs[0],
            seed.fault_runs[1]
        );
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("verdict"));
    }
}
