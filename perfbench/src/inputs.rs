//! Seeded inputs for the two service workloads: model responses from the
//! simulated LLMs, the request lines built from them, the arrival schedule,
//! and the hash of the reply every request must get.
//!
//! Everything here is a pure function of the seed and the phase lengths,
//! and all of it is built before any timing starts, on one thread (so the
//! allocation pattern, and with it the peak RSS, repeats from run to run).
//! The server under test only ever sees the finished request lines.

use wfspeak_codemodel::extract_code;
use wfspeak_core::{
    evaluate_prepared, execute_artifact, BenchmarkConfig, ExecutionPipeline, ExperimentKind,
    PreparedPair, SystemProfile,
};
use wfspeak_corpus::prompts::PromptVariant;
use wfspeak_llm::SimulatedLlm;
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};
use wfspeak_service::protocol::encode_line;
use wfspeak_service::{
    EvaluationScore, ExecutionScore, HypothesisScore, ScoreRequest, ScoreResponse, TaskKind,
};

use crate::rows::{evaluation_rows, execution_rows, trials, Row, Task};
use crate::trace::Recorder;
use crate::util::{fnv, Fnv, Rng};

/// Share of `evaluate-open` requests that carry a fresh `reference_text`.
/// This is a chosen stress parameter, not a measured traffic mix: nothing
/// in the repository records how often callers send a reference the server
/// has not seen. The runner prints the miss share the server's cache saw.
pub const FRESH_SHARE: f64 = 0.10;
/// Requests sent by the untimed warm-up pass.
pub const WARMUP_REQUESTS: usize = 64;
/// Distinct cache-hit requests a phase cycles through.
pub const HIT_POOL: usize = 2000;
/// The closed-loop rate up to which a round of `evaluate-open` saturation
/// never sends a fresh reference twice: about 2.5 times the rate measured
/// at seed on a 2-CPU machine. Above it the round's requests repeat, and
/// the runner says so.
pub const SATURATION_MAX_RPS: f64 = 3000.0;

/// Every request and reply line starts with its id: `{"id":<n>` followed by
/// the body. Bodies are stored without the id, so a pool of requests can
/// be sent many times, each time under a new id.
const ID_PREFIX: &str = "{\"id\":";

/// One request body and the hash of the reply body it must get back.
pub struct Request {
    pub body: String,
    pub expected: u64,
}

/// The full request line for `body` sent under `id`.
pub fn request_line(out: &mut Vec<u8>, id: u64, body: &str) {
    out.clear();
    out.extend_from_slice(ID_PREFIX.as_bytes());
    out.extend_from_slice(id.to_string().as_bytes());
    out.extend_from_slice(body.as_bytes());
}

/// Split a reply line into its id and its body.
pub fn reply_parts(line: &[u8]) -> Option<(u64, &[u8])> {
    let rest = line.strip_prefix(ID_PREFIX.as_bytes())?;
    let digits = rest.iter().position(|b| !b.is_ascii_digit())?;
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    Some((id, &rest[digits..]))
}

/// The body of a line encoded with id 0.
fn body(line: String) -> String {
    let prefix = format!("{ID_PREFIX}0");
    line.strip_prefix(&prefix)
        .expect("protocol lines start with their id")
        .to_owned()
}

/// The requests of one phase. The phase's `k`-th request is
/// `requests[order[k % order.len()]]`: cache-hit requests are stored once
/// and cycled through, while each fresh-reference request appears once in
/// `order`, so it is never sent twice before the order repeats.
pub struct Pool {
    pub requests: Vec<Request>,
    order: Vec<u32>,
    /// How many of `requests` carry a fresh reference.
    pub fresh: usize,
}

impl Pool {
    pub fn get(&self, k: usize) -> &Request {
        &self.requests[self.order[k % self.order.len()] as usize]
    }

    /// Requests the phase sends before its order repeats.
    pub fn len(&self) -> usize {
        self.order.len()
    }
}

/// Everything a service run sends. Phase `p` sends its `k`-th request
/// under id `k + 1`, using body `p.get(k)`.
pub struct ServiceInputs {
    pub warmup: Pool,
    /// The requests of one round of the closed loop.
    pub saturation: Pool,
    /// The open loop's requests, one per arrival.
    pub open: Pool,
    /// Intended send time of the open loop's `k`-th request, in seconds
    /// from the phase start.
    pub arrivals: Vec<f64>,
    /// FNV-1a fold over the expected result of every distinct response.
    pub checksum: u64,
}

/// How long each phase runs.
pub struct Plan {
    pub rate: f64,
    /// One round of the closed loop; 0 for none.
    pub saturation_round_seconds: f64,
    pub open_seconds: f64,
}

/// Every trial response of the paper's four models to `row`'s prompt under
/// each of the five prompt variants, in variant, model, trial-seed order.
fn responses(rec: &mut Recorder, config: &BenchmarkConfig, row: &Row) -> Vec<String> {
    let mut out = Vec::new();
    for variant in PromptVariant::ALL {
        let prompt = row.prompt(variant);
        for client in SimulatedLlm::all() {
            out.extend(trials(rec, config, &client, &prompt));
        }
    }
    out
}

fn config_for(seed: u64) -> BenchmarkConfig {
    BenchmarkConfig {
        base_seed: seed,
        ..BenchmarkConfig::default()
    }
}

/// What one request asks for, before it is encoded.
struct Spec {
    row: usize,
    picks: Vec<usize>,
    kind: Kind,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Execute,
    Evaluate,
    Score,
    /// A fresh reference: a serial unique in the run, and a seeded salt.
    EvaluateFresh(u64, u64),
    ScoreFresh(u64, u64),
}

/// Draw one request for `row`: 1-4 of its responses and, for
/// `evaluate-open`, an `evaluate` or a plain `score` request with equal
/// odds, the same one-to-one mix of the two the chaos sweep's workload
/// (`wfspeak_bench::chaos::chaos_workload`) sends. `fresh` carries the
/// serial of a fresh reference.
fn draw(rng: &mut Rng, row: usize, responses: usize, service: Service, fresh: Option<u64>) -> Spec {
    let picks = (0..1 + rng.below(4))
        .map(|_| rng.below(responses))
        .collect();
    let kind = match service {
        Service::Execute => Kind::Execute,
        Service::Evaluate => match (fresh, rng.below(2) == 0) {
            (None, true) => Kind::Evaluate,
            (None, false) => Kind::Score,
            (Some(serial), true) => Kind::EvaluateFresh(serial, rng.next_u64()),
            (Some(serial), false) => Kind::ScoreFresh(serial, rng.next_u64()),
        },
    };
    Spec { row, picks, kind }
}

#[derive(Clone, Copy, PartialEq)]
pub enum Service {
    Execute,
    Evaluate,
}

/// One `evaluate-open` row with its responses and their expected results.
struct Scored {
    row: Row,
    responses: Vec<String>,
    codes: Vec<String>,
    evaluations: Vec<EvaluationScore>,
    scores: Vec<HypothesisScore>,
}

impl Scored {
    fn task(&self) -> TaskKind {
        match self.row.task {
            Task::Configuration => TaskKind::Configuration,
            Task::Annotation => TaskKind::Annotation,
            Task::Translation { .. } => TaskKind::Translation,
            Task::Execution => unreachable!("evaluate-open scores no execution rows"),
        }
    }
}

/// The per-response expected results every request is assembled from.
enum Expected {
    Execute {
        rows: Vec<Row>,
        responses: Vec<Vec<String>>,
        scores: Vec<Vec<ExecutionScore>>,
    },
    Evaluate {
        rows: Vec<Scored>,
        bleu: BleuScorer,
        chrf: ChrfScorer,
    },
}

fn execute_expected(rec: &mut Recorder, config: &BenchmarkConfig) -> Expected {
    let rows = execution_rows();
    let pipeline = ExecutionPipeline::new();
    let responses: Vec<Vec<String>> = rows.iter().map(|row| responses(rec, config, row)).collect();
    let scores = rows
        .iter()
        .zip(&responses)
        .map(|(row, pool)| {
            let summary = pipeline
                .reference_summary(row.system, row.reference)
                .expect("built-in references execute");
            pool.iter()
                .map(|response| {
                    ExecutionScore::from_execution(&execute_artifact(
                        pipeline.sandbox(),
                        row.system,
                        response,
                        &summary,
                    ))
                })
                .collect()
        })
        .collect();
    Expected::Execute {
        rows,
        responses,
        scores,
    }
}

fn evaluate_expected(rec: &mut Recorder, config: &BenchmarkConfig) -> Expected {
    let bleu = BleuScorer::default();
    let chrf = ChrfScorer::default();
    let mut rows = Vec::new();
    for row in ExperimentKind::ALL.into_iter().flat_map(evaluation_rows) {
        let responses = responses(rec, config, &row);
        let codes: Vec<String> = responses.iter().map(|r| extract_code(r)).collect();
        let prepared = prepare(&bleu, &chrf, row.reference);
        let profile = SystemProfile::for_system(row.system);
        let evaluations = responses
            .iter()
            .map(|response| {
                EvaluationScore::from_evaluation(&evaluate_prepared(
                    &bleu, &chrf, &prepared, &profile, response,
                ))
            })
            .collect();
        let scores = codes
            .iter()
            .map(|code| score(&bleu, &chrf, &prepared, code))
            .collect();
        rows.push(Scored {
            row,
            responses,
            codes,
            evaluations,
            scores,
        });
    }
    Expected::Evaluate { rows, bleu, chrf }
}

fn prepare(bleu: &BleuScorer, chrf: &ChrfScorer, reference: &str) -> PreparedPair {
    PreparedPair {
        bleu: bleu.prepare(reference),
        chrf: chrf.prepare(reference),
    }
}

fn score(
    bleu: &BleuScorer,
    chrf: &ChrfScorer,
    prepared: &PreparedPair,
    code: &str,
) -> HypothesisScore {
    HypothesisScore {
        bleu: bleu.score_prepared(code, &prepared.bleu),
        chrf: chrf.score_prepared(code, &prepared.chrf),
    }
}

/// A fresh reference: the row's own reference plus a unique seeded line,
/// so it misses the server's cache and must be prepared and inserted.
fn fresh_reference(base: &str, serial: u64, salt: u64) -> String {
    format!("{base}\n# revision {serial} {salt:016x}\n")
}

impl Expected {
    fn checksum(&self) -> u64 {
        let mut hash = Fnv::default();
        match self {
            Expected::Execute { scores, .. } => {
                for score in scores.iter().flatten() {
                    hash.str(&encode_line(score));
                }
            }
            Expected::Evaluate { rows, .. } => {
                for row in rows {
                    for (evaluation, score) in row.evaluations.iter().zip(&row.scores) {
                        hash.str(&encode_line(evaluation));
                        hash.str(&encode_line(score));
                    }
                }
            }
        }
        hash.0
    }

    /// Rows, and responses per row.
    fn rows(&self) -> (usize, usize) {
        match self {
            Expected::Execute {
                rows, responses, ..
            } => (rows.len(), responses[0].len()),
            Expected::Evaluate { rows, .. } => (rows.len(), rows[0].responses.len()),
        }
    }

    /// Encode one request body and the reply body it must receive.
    fn build(&self, spec: &Spec) -> Request {
        let (request, response) = match self {
            Expected::Execute {
                rows,
                responses,
                scores,
            } => {
                let hyps = spec.picks.iter().map(|&i| responses[spec.row][i].clone());
                let wire = spec.picks.iter().map(|&i| scores[spec.row][i].clone());
                (
                    ScoreRequest::execute(0, rows[spec.row].system.name(), hyps.collect()),
                    ScoreResponse::executed(0, wire.collect()),
                )
            }
            Expected::Evaluate { rows, bleu, chrf } => {
                let scored = &rows[spec.row];
                let row = scored.row;
                let system = row.system.name();
                let raw = || {
                    spec.picks
                        .iter()
                        .map(|&i| scored.responses[i].clone())
                        .collect()
                };
                let codes = || {
                    spec.picks
                        .iter()
                        .map(|&i| scored.codes[i].clone())
                        .collect()
                };
                match spec.kind {
                    Kind::Evaluate => (
                        ScoreRequest::evaluate(0, scored.task(), system, raw()),
                        ScoreResponse::evaluated(
                            0,
                            spec.picks
                                .iter()
                                .map(|&i| scored.evaluations[i].clone())
                                .collect(),
                        ),
                    ),
                    Kind::Score => (
                        ScoreRequest::by_id(0, scored.task(), system, codes()),
                        ScoreResponse::success(
                            0,
                            spec.picks
                                .iter()
                                .map(|&i| scored.scores[i].clone())
                                .collect(),
                        ),
                    ),
                    Kind::EvaluateFresh(serial, salt) => {
                        let reference = fresh_reference(row.reference, serial, salt);
                        let prepared = prepare(bleu, chrf, &reference);
                        let profile = SystemProfile::for_system(row.system);
                        let hyps: Vec<String> = raw();
                        let wire = hyps
                            .iter()
                            .map(|r| {
                                EvaluationScore::from_evaluation(&evaluate_prepared(
                                    bleu, chrf, &prepared, &profile, r,
                                ))
                            })
                            .collect();
                        (
                            ScoreRequest::evaluate_text(0, &reference, system, hyps),
                            ScoreResponse::evaluated(0, wire),
                        )
                    }
                    Kind::ScoreFresh(serial, salt) => {
                        let reference = fresh_reference(row.reference, serial, salt);
                        let prepared = prepare(bleu, chrf, &reference);
                        let hyps: Vec<String> = codes();
                        let wire = hyps
                            .iter()
                            .map(|c| score(bleu, chrf, &prepared, c))
                            .collect();
                        (
                            ScoreRequest::by_text(0, &reference, hyps),
                            ScoreResponse::success(0, wire),
                        )
                    }
                    Kind::Execute => unreachable!("evaluate rows never draw execute requests"),
                }
            }
        };
        Request {
            body: body(encode_line(&request)),
            expected: fnv(body(encode_line(&response)).as_bytes()),
        }
    }
}

/// Draws the requests of a workload's phases.
struct Phases<'a> {
    expected: &'a Expected,
    service: Service,
    rng: Rng,
    /// Fresh references drawn so far; numbers the next one.
    serial: u64,
}

impl Phases<'_> {
    /// A pool of `hits` distinct cache-hit requests and `fresh` requests
    /// with a fresh reference, sent in a seeded order of `len` requests in
    /// which each fresh request appears once. Rows are uniform, as every
    /// row of a grid pass scores the same number of responses; warm-up
    /// requests instead cycle through the rows, so each row's reference is
    /// prepared before timing.
    fn pool(&mut self, hits: usize, fresh: usize, len: usize, warmup: bool) -> Pool {
        let (rows, responses) = self.expected.rows();
        let mut specs = Vec::with_capacity(hits + fresh);
        for i in 0..hits + fresh {
            let row = if warmup {
                i % rows
            } else {
                self.rng.below(rows)
            };
            let serial = (i >= hits).then(|| {
                self.serial += 1;
                self.serial
            });
            specs.push(draw(&mut self.rng, row, responses, self.service, serial));
        }
        let mut order: Vec<u32> = (0..fresh)
            .map(|i| hits + i)
            .chain((0..len.saturating_sub(fresh)).map(|i| i % hits.max(1)))
            .map(|i| i as u32)
            .collect();
        // Fisher-Yates, so the fresh requests spread over the phase.
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.below(i + 1));
        }
        Pool {
            requests: specs.iter().map(|spec| self.expected.build(spec)).collect(),
            order,
            fresh,
        }
    }
}

/// Build a service workload's inputs for `seed`.
pub fn build(rec: &mut Recorder, service: Service, seed: u64, plan: &Plan) -> ServiceInputs {
    let config = config_for(seed);
    let expected = match service {
        Service::Execute => execute_expected(rec, &config),
        Service::Evaluate => evaluate_expected(rec, &config),
    };
    let share = match service {
        Service::Execute => 0.0,
        Service::Evaluate => FRESH_SHARE,
    };
    let mut phases = Phases {
        expected: &expected,
        service,
        rng: Rng::new(seed, service as u64 + 1),
        serial: 0,
    };
    let warmup = phases.pool(WARMUP_REQUESTS, 0, WARMUP_REQUESTS, true);
    // A round's order is long enough that no fresh request repeats within
    // it below `SATURATION_MAX_RPS`; cache-hit requests cycle.
    let saturation_len = match service {
        Service::Execute => HIT_POOL,
        Service::Evaluate => (SATURATION_MAX_RPS * plan.saturation_round_seconds).ceil() as usize,
    };
    let saturation_fresh = (saturation_len as f64 * share).round() as usize;
    let saturation = if plan.saturation_round_seconds > 0.0 {
        phases.pool(HIT_POOL, saturation_fresh, saturation_len, false)
    } else {
        phases.pool(0, 0, 0, false)
    };
    let mut arrivals = Vec::new();
    let mut at = 0.0;
    let mut schedule = Rng::new(seed, 99);
    while at < plan.open_seconds {
        arrivals.push(at);
        // Poisson arrivals: exponential gaps at the workload's rate.
        at += -(1.0 - schedule.unit()).ln() / plan.rate;
    }
    let open_fresh = (arrivals.len() as f64 * share).round() as usize;
    let open_hits = (arrivals.len() - open_fresh).clamp(1, HIT_POOL);
    let open = phases.pool(open_hits, open_fresh, arrivals.len(), false);
    ServiceInputs {
        warmup,
        saturation,
        open,
        arrivals,
        checksum: expected.checksum(),
    }
}
