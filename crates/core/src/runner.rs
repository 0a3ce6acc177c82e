//! The benchmark runner: prompt assembly, model querying, response
//! post-processing, scoring and aggregation.
//!
//! Scoring is the hot path of the reproduction, so the runner leans on two
//! mechanisms from `wfspeak-metrics`:
//!
//! * a [`ReferenceCache`] that prepares (tokenises, interns and counts) each
//!   ground-truth reference **once** per benchmark and shares the prepared
//!   data across every cell, trial and prompt variant scored against it;
//! * one grid loop behind every experiment: the `(row × model)` cells of
//!   a grid run on scoped threads ([`crate::parallel::par_map`]) and come
//!   back in declared row/column/trial order, so results are deterministic
//!   regardless of scheduling. The scoring tables, the evaluation and
//!   execution grids and the configuration corpus differ only in what they
//!   resolve per row and what they do with each response.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use wfspeak_codemodel::extract_code;
use wfspeak_corpus::fewshot;
use wfspeak_corpus::prompts::PromptVariant;
use wfspeak_llm::{CompletionRequest, LlmClient, SamplingParams, SimulatedLlm};
use wfspeak_metrics::{BleuScorer, CacheStats, ChrfScorer, PreparedReference, Scorer};

use crate::config::BenchmarkConfig;
use crate::exec::ExecutionPipeline;
use crate::experiments::{ExperimentKind, ExperimentRow, FewShotComparison, PromptSensitivity};
use crate::parallel::par_map;
use crate::result::ExperimentResult;

/// A reference prepared for both metrics.
#[derive(Debug)]
pub struct PreparedPair {
    /// BLEU-prepared reference: interned tokens, and a table from each
    /// distinct word n-gram (packed into a `u64`) to a slot and its count.
    /// Hypotheses are scored by probing it, never counted into maps.
    pub bleu: PreparedReference,
    /// ChrF-prepared reference: the same table over char n-grams packed
    /// into `u128` keys.
    pub chrf: PreparedReference,
}

impl PreparedPair {
    /// Heap bytes both prepared references hold.
    pub fn heap_bytes(&self) -> usize {
        self.bleu.heap_bytes() + self.chrf.heap_bytes()
    }
}

/// Number of independent lock shards in a [`ReferenceCache`]. A power of
/// two so the shard index is a mask of the key hash.
const CACHE_SHARDS: usize = 16;

/// Slots in a [`ReferenceCache`]'s doorkeeper of inline references. A
/// power of two so the slot index is a mask of the key hash; 4096 slots of
/// one `u64` each cost 32 KB.
const DOORKEEPER_SLOTS: usize = 4096;

/// Heap bytes the inline references a [`ReferenceCache`] keeps may hold in
/// total, each charged its text plus [`PreparedPair::heap_bytes`]. The
/// 2.2 KB ADIOS2 producer reference is charged about 307 KB, so this keeps
/// about 13 references of that size. References the caller resolves itself
/// are not charged.
pub const INLINE_BUDGET_BYTES: usize = 4 << 20;

/// When a prepared reference that missed is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// On its first lookup.
    FirstSighting,
    /// On its second lookup, as remembered by the doorkeeper.
    SecondSighting,
}

/// Caches [`PreparedPair`]s keyed by reference text.
///
/// The paper's experiments reuse a handful of ground-truth artifacts across
/// thousands of `(model × system × variant × trial)` scorings; preparing each
/// reference once and sharing the result is most of the scoring speedup. The
/// cache is shared across experiments (the prompt-sensitivity study re-runs
/// every experiment five times over the same references).
///
/// The map is split into 16 independently locked shards,
/// selected by an FNV-1a hash of the reference text, so the scoring server's
/// worker pool does not serialise every lookup on one global mutex. The
/// aggregate accounting is unchanged by sharding: `hits`/`misses` are global
/// counters, [`stats`](ReferenceCache::stats) reports exactly what the
/// single-map cache reported, and the bounded variant caps the **total**
/// entry count across all shards.
///
/// Reference text that a client sends inline goes through
/// [`get_or_prepare_inline`](ReferenceCache::get_or_prepare_inline), which
/// keeps a reference only on its second sighting: the doorkeeper of TinyLFU
/// (Einziger, Friedman and Manes, ACM TOS 2017). The doorkeeper is a fixed
/// direct-mapped array of text hashes, so a stream of one-off references
/// costs the cache nothing but their preparation. Kept inline references
/// are also charged their heap bytes against [`INLINE_BUDGET_BYTES`]; once
/// it is spent, further inline references are prepared per lookup and not
/// kept, as at the entry cap.
#[derive(Debug)]
pub struct ReferenceCache {
    shards: Vec<Mutex<HashMap<String, Arc<PreparedPair>>>>,
    /// Total entries across every shard; insertions reserve a slot through
    /// a compare-and-swap so the bound is exact even under contention.
    total_entries: AtomicUsize,
    /// Heap bytes charged to the inline references kept, reserved together
    /// with their entry slots.
    inline_bytes: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The hash of the last inline reference seen in each slot, indexed by
    /// bits of the hash the shard index does not use. Allocated on the
    /// first inline lookup, so caches that never see one do not pay for it.
    doorkeeper: OnceLock<Box<[AtomicU64]>>,
}

impl Default for ReferenceCache {
    fn default() -> Self {
        ReferenceCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            total_entries: AtomicUsize::new(0),
            inline_bytes: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            doorkeeper: OnceLock::new(),
        }
    }
}

/// FNV-1a over the reference text: stable, dependency-free, and spreads the
/// handful-of-references workloads evenly enough across shards.
fn shard_hash(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Add `amount` to `counter` if the sum stays within `limit`.
fn reserve(counter: &AtomicUsize, amount: usize, limit: usize) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
            used.checked_add(amount).filter(|&total| total <= limit)
        })
        .is_ok()
}

impl ReferenceCache {
    fn shard(&self, hash: u64) -> &Mutex<HashMap<String, Arc<PreparedPair>>> {
        &self.shards[(hash as usize) & (CACHE_SHARDS - 1)]
    }

    /// Fetch the prepared pair for `reference`, preparing it on first use.
    pub fn get_or_prepare(
        &self,
        bleu: &BleuScorer,
        chrf: &ChrfScorer,
        reference: &str,
    ) -> Arc<PreparedPair> {
        self.get_or_prepare_bounded(bleu, chrf, reference, usize::MAX)
    }

    /// Like [`get_or_prepare`](ReferenceCache::get_or_prepare), but never
    /// grows the cache beyond `max_entries` **total entries across all
    /// shards**: once full, unseen references are prepared and returned
    /// without being cached. Servers accepting arbitrary client-supplied
    /// reference text use this to bound memory.
    ///
    /// The expensive preparation runs outside any lock, so concurrent
    /// misses — even on references that hash to the same shard — prepare in
    /// parallel. Two threads racing on the *same* reference may both
    /// prepare it; the loser adopts the winner's entry and counts as a hit.
    /// Every other lookup that prepares counts as a miss, so a reference
    /// the cap keeps out counts one miss per lookup.
    pub fn get_or_prepare_bounded(
        &self,
        bleu: &BleuScorer,
        chrf: &ChrfScorer,
        reference: &str,
        max_entries: usize,
    ) -> Arc<PreparedPair> {
        self.lookup(bleu, chrf, reference, max_entries, Admission::FirstSighting)
    }

    /// Like [`get_or_prepare_bounded`](ReferenceCache::get_or_prepare_bounded)
    /// for reference text a client sent inline: a reference that misses is
    /// kept only on its second sighting. The first sighting records the
    /// text's hash in a fixed direct-mapped doorkeeper and returns the
    /// prepared pair without keeping it, so a reference sent once never
    /// occupies the cache. Both sightings count as misses. A kept inline
    /// reference is charged its heap bytes against
    /// [`INLINE_BUDGET_BYTES`], and one that no longer fits is not kept.
    pub fn get_or_prepare_inline(
        &self,
        bleu: &BleuScorer,
        chrf: &ChrfScorer,
        reference: &str,
        max_entries: usize,
    ) -> Arc<PreparedPair> {
        self.lookup(
            bleu,
            chrf,
            reference,
            max_entries,
            Admission::SecondSighting,
        )
    }

    fn lookup(
        &self,
        bleu: &BleuScorer,
        chrf: &ChrfScorer,
        reference: &str,
        max_entries: usize,
        admission: Admission,
    ) -> Arc<PreparedPair> {
        let hash = shard_hash(reference);
        if let Some(pair) = self.shard(hash).lock().get(reference) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(pair);
        }
        let pair = Arc::new(PreparedPair {
            bleu: bleu.prepare(reference),
            chrf: chrf.prepare(reference),
        });
        self.settle(hash, reference, pair, max_entries, admission)
    }

    /// Account for a lookup that prepared `pair`, and keep it if admitted.
    fn settle(
        &self,
        hash: u64,
        reference: &str,
        pair: Arc<PreparedPair>,
        max_entries: usize,
        admission: Admission,
    ) -> Arc<PreparedPair> {
        let mut entries = self.shard(hash).lock();
        if let Some(existing) = entries.get(reference) {
            // Lost a race with another preparer; adopt its entry.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(existing);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let charge = match admission {
            Admission::FirstSighting => 0,
            Admission::SecondSighting => {
                if !self.seen_before(hash) {
                    return pair;
                }
                reference.len() + pair.heap_bytes()
            }
        };
        // Reserve a global slot and the bytes before inserting so both
        // bounds stay exact across shards even when insertions race; a
        // slot whose bytes do not fit is handed back.
        if reserve(&self.total_entries, 1, max_entries) {
            if reserve(&self.inline_bytes, charge, INLINE_BUDGET_BYTES) {
                entries.insert(reference.to_owned(), Arc::clone(&pair));
            } else {
                self.total_entries.fetch_sub(1, Ordering::SeqCst);
            }
        }
        pair
    }

    /// Record a sighting of the reference hashing to `hash` in the
    /// doorkeeper; true when the slot already held that hash.
    fn seen_before(&self, hash: u64) -> bool {
        // The shard index uses the low bits; the slot takes high ones.
        let slot = (hash >> 32) as usize & (DOORKEEPER_SLOTS - 1);
        let doorkeeper = self
            .doorkeeper
            .get_or_init(|| (0..DOORKEEPER_SLOTS).map(|_| AtomicU64::new(0)).collect());
        doorkeeper[slot].swap(hash, Ordering::Relaxed) == hash
    }

    /// Heap bytes charged to the inline references the cache keeps; never
    /// more than [`INLINE_BUDGET_BYTES`].
    pub fn inline_bytes(&self) -> usize {
        self.inline_bytes.load(Ordering::SeqCst)
    }

    /// Number of prepared references the cache keeps.
    pub fn len(&self) -> usize {
        self.total_entries.load(Ordering::SeqCst)
    }

    /// True when the cache keeps no prepared reference.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters accumulated over every lookup, by any of the
    /// `get_or_prepare` methods.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// One grid cell: every trial of one `(row, model)` pair.
#[derive(Debug, Clone)]
pub struct GridCell<T> {
    /// Row label (system name, or `"A to B"` for translation pairs).
    pub row: String,
    /// Model display name.
    pub model: String,
    /// Per-trial results, in seed order.
    pub trials: Vec<T>,
}

impl<T> GridCell<T> {
    /// Mean of `f` over the cell's trials; 0 for a cell without trials.
    pub(crate) fn mean(&self, f: impl Fn(&T) -> f64) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(f).sum::<f64>() / self.trials.len() as f64
    }
}

/// The cell of `cells` for one row and model label.
pub(crate) fn grid_cell<'a, T>(
    cells: &'a [GridCell<T>],
    row: &str,
    model: &str,
) -> Option<&'a GridCell<T>> {
    cells.iter().find(|c| c.row == row && c.model == model)
}

/// Trials over every cell of `cells`.
pub(crate) fn grid_trials<T>(cells: &[GridCell<T>]) -> usize {
    cells.iter().map(|c| c.trials.len()).sum()
}

/// Mean of `f` over every trial of `cells`; 0 for a grid without trials.
pub(crate) fn grid_mean<T>(cells: &[GridCell<T>], f: impl Fn(&T) -> f64) -> f64 {
    let n = grid_trials(cells);
    if n == 0 {
        return 0.0;
    }
    cells.iter().flat_map(|c| &c.trials).map(f).sum::<f64>() / n as f64
}

/// The benchmark: a set of models plus the run configuration.
pub struct Benchmark {
    pub(crate) clients: Vec<Box<dyn LlmClient>>,
    pub(crate) config: BenchmarkConfig,
    pub(crate) bleu: BleuScorer,
    pub(crate) chrf: ChrfScorer,
    pub(crate) references: ReferenceCache,
    pub(crate) executions: ExecutionPipeline,
}

impl Benchmark {
    /// Build a benchmark over an explicit set of models.
    pub fn new(clients: Vec<Box<dyn LlmClient>>, config: BenchmarkConfig) -> Self {
        Benchmark {
            clients,
            config,
            bleu: BleuScorer::default(),
            chrf: ChrfScorer::default(),
            references: ReferenceCache::default(),
            executions: ExecutionPipeline::default(),
        }
    }

    /// Build a benchmark over the paper's four models, simulated.
    pub fn with_simulated_models(config: BenchmarkConfig) -> Self {
        let clients: Vec<Box<dyn LlmClient>> = SimulatedLlm::all()
            .into_iter()
            .map(|m| Box::new(m) as Box<dyn LlmClient>)
            .collect();
        Benchmark::new(clients, config)
    }

    /// The run configuration.
    pub fn config(&self) -> &BenchmarkConfig {
        &self.config
    }

    /// The shared prepared-reference cache.
    pub fn reference_cache(&self) -> &ReferenceCache {
        &self.references
    }

    /// Model display names in column order.
    pub fn model_names(&self) -> Vec<String> {
        self.clients
            .iter()
            .map(|c| c.model().name().to_owned())
            .collect()
    }

    /// Total scored cells per full experiment grid pass (rows × models).
    pub fn grid_cells(&self, kind: ExperimentKind) -> usize {
        kind.row_labels().len() * self.clients.len()
    }

    /// The prepared pair for `reference`, through the shared cache.
    pub(crate) fn prepare(&self, reference: &str) -> Arc<PreparedPair> {
        self.references
            .get_or_prepare(&self.bleu, &self.chrf, reference)
    }

    /// The one grid loop: every row's prompt goes to every client once
    /// per trial seed, and `respond` turns each response into a trial.
    ///
    /// `resolve` runs once per row, in row order, before any client is
    /// asked (a cache lookup, a profile or a reference run), and `respond`
    /// gets its result with each response. The `(row × client)` cells run
    /// on [`par_map`], and come back in declared order (row-major,
    /// model-minor, trials in seed order) however they were scheduled.
    pub(crate) fn run_cells<R, T>(
        &self,
        rows: &[ExperimentRow],
        resolve: impl FnMut(&ExperimentRow) -> R,
        respond: impl Fn(&R, &str) -> T + Sync,
    ) -> Vec<GridCell<T>>
    where
        R: Sync,
        T: Send,
    {
        let resolved: Vec<R> = rows.iter().map(resolve).collect();
        let jobs: Vec<(usize, &dyn LlmClient)> = (0..rows.len())
            .flat_map(|row| {
                self.clients
                    .iter()
                    .map(move |client| (row, client.as_ref()))
            })
            .collect();
        let trials = par_map(&jobs, |&(row, client)| {
            self.config
                .trial_seeds()
                .into_iter()
                .map(|seed| {
                    let params = SamplingParams {
                        temperature: self.config.temperature,
                        top_p: self.config.top_p,
                        seed,
                    };
                    let request = CompletionRequest::new(rows[row].prompt.as_str(), params);
                    respond(&resolved[row], &client.complete(&request).text)
                })
                .collect()
        });
        jobs.into_iter()
            .zip(trials)
            .map(|((row, client), trials)| GridCell {
                row: rows[row].label.clone(),
                model: client.model().name().to_owned(),
                trials,
            })
            .collect()
    }

    /// Score every response of `rows` with BLEU and ChrF of its code
    /// payload against the row's reference.
    fn score_rows(&self, rows: &[ExperimentRow]) -> ExperimentResult {
        let cells = self.run_cells(
            rows,
            |row| self.prepare(row.reference),
            |prepared, response| {
                let code = extract_code(response);
                (
                    self.bleu.score_prepared(&code, &prepared.bleu),
                    self.chrf.score_prepared(&code, &prepared.chrf),
                )
            },
        );
        let labels: Vec<String> = rows.iter().map(|row| row.label.clone()).collect();
        let mut result = ExperimentResult::with_labels(&labels, &self.model_names());
        for cell in cells {
            for (bleu, chrf) in cell.trials {
                result.push(&cell.row, &cell.model, bleu, chrf);
            }
        }
        result
    }

    /// The configuration-artifact corpus: every generated configuration
    /// response — code-extracted, exactly as the execution pipeline sees
    /// it — for the three configuration systems × all models × all trials
    /// × the first three prompt variants, in deterministic
    /// variant/system/model/trial order.  With the paper defaults that is
    /// 3 × 3 × 4 × 5 = 180 artifacts: mostly well-formed Wilkins/ADIOS2
    /// YAML, plus Henson scripts and degraded-tier output that exercise
    /// the parser's failure categories.  The workspace test
    /// `the_configuration_corpus_parses_to_its_golden_outcome`
    /// (`tests/golden_execute.rs`) pins how `wyaml::parse_document` takes
    /// it: 140 accepted, 40 rejected with `bad-indentation`.
    pub fn configuration_corpus(&self) -> Vec<String> {
        let rows: Vec<ExperimentRow> = PromptVariant::ALL[..3]
            .iter()
            .flat_map(|&variant| ExperimentKind::Configuration.rows(variant))
            .collect();
        self.run_cells(&rows, |_| (), |(), response| extract_code(response))
            .into_iter()
            .flat_map(|cell| cell.trials)
            .collect()
    }

    /// The workflow-configuration experiment (Table 1).  Set `few_shot` to
    /// augment the prompt with the 2-node exemplar (Table 5's second row).
    pub fn run_configuration(&self, variant: PromptVariant, few_shot: bool) -> ExperimentResult {
        let mut rows = ExperimentKind::Configuration.rows(variant);
        if few_shot {
            for row in &mut rows {
                row.prompt = fewshot::augment_configuration_prompt(&row.prompt, row.system);
            }
        }
        self.score_rows(&rows)
    }

    /// The task-code-annotation experiment (Table 2).
    pub fn run_annotation(&self, variant: PromptVariant) -> ExperimentResult {
        self.run_experiment(ExperimentKind::Annotation, variant)
    }

    /// The task-code-translation experiment (Table 3).
    pub fn run_translation(&self, variant: PromptVariant) -> ExperimentResult {
        self.run_experiment(ExperimentKind::Translation, variant)
    }

    /// Run one experiment with one prompt variant.
    pub fn run_experiment(&self, kind: ExperimentKind, variant: PromptVariant) -> ExperimentResult {
        self.score_rows(&kind.rows(variant))
    }

    /// The prompt-sensitivity study (Figure 1): every experiment under every
    /// prompt variant.
    pub fn run_prompt_sensitivity(&self) -> PromptSensitivity {
        let mut sensitivity = PromptSensitivity::default();
        for kind in ExperimentKind::ALL {
            let mut by_variant = BTreeMap::new();
            for variant in PromptVariant::ALL {
                by_variant.insert(
                    variant.label().to_owned(),
                    self.run_experiment(kind, variant),
                );
            }
            sensitivity.results.insert(kind, by_variant);
        }
        sensitivity
    }

    /// The few-shot prompting study (Table 5): the configuration experiment
    /// with and without the 2-node exemplar.
    pub fn run_few_shot_comparison(&self) -> FewShotComparison {
        FewShotComparison {
            zero_shot: self.run_configuration(PromptVariant::Original, false),
            few_shot: self.run_configuration(PromptVariant::Original, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfspeak_llm::ModelId;
    use wfspeak_metrics::Metric;

    fn quick_benchmark() -> Benchmark {
        Benchmark::with_simulated_models(BenchmarkConfig {
            trials: 2,
            ..BenchmarkConfig::default()
        })
    }

    #[test]
    fn benchmark_exposes_four_simulated_models_in_paper_order() {
        let b = quick_benchmark();
        assert_eq!(
            b.model_names(),
            vec!["o3", "Gemini-2.5-Pro", "Claude-Sonnet-4", "LLaMA-3.3-70B"]
        );
        assert_eq!(b.config().trials, 2);
    }

    #[test]
    fn configuration_result_has_table1_shape() {
        let result = quick_benchmark().run_configuration(PromptVariant::Original, false);
        assert_eq!(result.bleu.rows(), &["ADIOS2", "Henson", "Wilkins"]);
        assert_eq!(result.bleu.cols().len(), 4);
        for row in result.bleu.rows() {
            for col in result.bleu.cols() {
                assert_eq!(result.cell(Metric::Bleu, row, col).n, 2, "{row}/{col}");
                assert_eq!(result.cell(Metric::Chrf, row, col).n, 2, "{row}/{col}");
            }
        }
    }

    #[test]
    fn annotation_result_has_table2_shape() {
        let result = quick_benchmark().run_annotation(PromptVariant::Original);
        assert_eq!(
            result.bleu.rows(),
            &["ADIOS2", "Henson", "PyCOMPSs", "Parsl"]
        );
        assert!(result.bleu.grand_overall().mean > 0.0);
    }

    #[test]
    fn translation_result_has_table3_shape() {
        let result = quick_benchmark().run_translation(PromptVariant::Original);
        assert_eq!(result.bleu.rows().len(), 4);
        assert!(result.bleu.rows().contains(&"ADIOS2 to Henson".to_string()));
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_config() {
        let a = quick_benchmark().run_configuration(PromptVariant::Original, false);
        let b = quick_benchmark().run_configuration(PromptVariant::Original, false);
        for row in a.bleu.rows() {
            for col in a.bleu.cols() {
                assert_eq!(
                    a.cell(Metric::Bleu, row, col).mean,
                    b.cell(Metric::Bleu, row, col).mean,
                    "{row}/{col}"
                );
            }
        }
    }

    #[test]
    fn parallel_grid_matches_sequential_cell_scoring() {
        // Score every cell of the parallel grid result again, one trial at
        // a time on this thread, and compare the raw per-trial samples: the
        // parallel path must change scheduling only, never values or their
        // order.
        let benchmark = quick_benchmark();
        let result = benchmark.run_configuration(PromptVariant::Original, false);
        for row in ExperimentKind::Configuration.rows(PromptVariant::Original) {
            let prepared = benchmark.prepare(row.reference);
            for client in &benchmark.clients {
                let (bleu, chrf): (Vec<f64>, Vec<f64>) = benchmark
                    .config
                    .trial_seeds()
                    .into_iter()
                    .map(|seed| {
                        let params = SamplingParams {
                            temperature: benchmark.config.temperature,
                            top_p: benchmark.config.top_p,
                            seed,
                        };
                        let response =
                            client.complete(&CompletionRequest::new(row.prompt.as_str(), params));
                        let code = extract_code(&response.text);
                        (
                            benchmark.bleu.score_prepared(&code, &prepared.bleu),
                            benchmark.chrf.score_prepared(&code, &prepared.chrf),
                        )
                    })
                    .unzip();
                let model = client.model().name();
                assert_eq!(
                    result.bleu.samples(&row.label, model),
                    bleu,
                    "{row:?}/{model}"
                );
                assert_eq!(
                    result.chrf.samples(&row.label, model),
                    chrf,
                    "{row:?}/{model}"
                );
            }
        }
    }

    #[test]
    fn reference_cache_prepares_each_reference_once() {
        let benchmark = quick_benchmark();
        assert!(benchmark.reference_cache().is_empty());
        benchmark.run_configuration(PromptVariant::Original, false);
        let after_first = benchmark.reference_cache().len();
        assert_eq!(after_first, 3, "one prepared pair per configuration system");
        // Re-running (any variant) reuses the cached prepared references.
        benchmark.run_configuration(PromptVariant::Detailed, false);
        assert_eq!(benchmark.reference_cache().len(), after_first);
        let stats = benchmark.reference_cache().stats();
        assert_eq!(stats.misses, 3, "one miss per distinct reference");
        assert_eq!(stats.hits, 3, "the second run hits for every system");
        assert_eq!(stats.lookups(), 6);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_cache_stops_growing_but_keeps_serving() {
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        cache.get_or_prepare_bounded(&bleu, &chrf, "ref a", 1);
        assert_eq!(cache.len(), 1);
        // A second distinct reference is prepared but not cached…
        let pair = cache.get_or_prepare_bounded(&bleu, &chrf, "ref b", 1);
        assert_eq!(pair.bleu.source(), "ref b");
        assert_eq!(cache.len(), 1);
        // …so asking again re-prepares (another miss), while the cached
        // reference still hits.
        cache.get_or_prepare_bounded(&bleu, &chrf, "ref b", 1);
        cache.get_or_prepare_bounded(&bleu, &chrf, "ref a", 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 3, "a once, b twice");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn sharded_cache_accounting_is_exact_under_concurrency() {
        // Many threads hammer overlapping references: the shard split must
        // not change the aggregate contract — misses equal distinct
        // insertions, every other lookup is a hit, and the bounded total
        // never exceeds the cap.
        let cache = Arc::new(ReferenceCache::default());
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        let references: Vec<String> = (0..24).map(|i| format!("shared reference {i}")).collect();
        let rounds = 8;
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let cache = Arc::clone(&cache);
                let bleu = &bleu;
                let chrf = &chrf;
                let references = &references;
                scope.spawn(move || {
                    for round in 0..rounds {
                        for (i, reference) in references.iter().enumerate() {
                            let pair =
                                cache.get_or_prepare_bounded(bleu, chrf, reference, usize::MAX);
                            assert_eq!(pair.bleu.source(), reference, "{worker}/{round}/{i}");
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(cache.len(), references.len());
        assert_eq!(stats.misses, references.len() as u64, "one insert each");
        assert_eq!(
            stats.lookups(),
            (8 * rounds * references.len()) as u64,
            "every lookup is accounted as exactly one hit or miss"
        );
    }

    #[test]
    fn sharded_cache_cap_bounds_the_total_across_shards() {
        let cache = Arc::new(ReferenceCache::default());
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        // 32 distinct references race into a cap of 5 from 4 threads: at
        // rest exactly 5 slots are occupied, never more.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let bleu = &bleu;
                let chrf = &chrf;
                scope.spawn(move || {
                    for i in 0..32 {
                        cache.get_or_prepare_bounded(bleu, chrf, &format!("capped {i}"), 5);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 5, "the cap is a total across shards");
    }

    #[test]
    fn one_off_inline_references_are_never_kept() {
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        for i in 0..100 {
            let reference = format!("one-off reference {i}");
            let pair = cache.get_or_prepare_inline(&bleu, &chrf, &reference, usize::MAX);
            assert_eq!(pair.bleu.source(), reference);
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 100);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn a_repeated_inline_reference_is_kept_from_its_second_lookup() {
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        cache.get_or_prepare_inline(&bleu, &chrf, "repeated", usize::MAX);
        assert_eq!(cache.len(), 0, "first sighting: prepared, not kept");
        let second = cache.get_or_prepare_inline(&bleu, &chrf, "repeated", usize::MAX);
        assert_eq!(cache.len(), 1, "second sighting: kept");
        let third = cache.get_or_prepare_inline(&bleu, &chrf, "repeated", usize::MAX);
        assert!(Arc::ptr_eq(&second, &third));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (2, 1));
        // A reference resolved by the caller is kept on its first lookup,
        // and an inline lookup of the same text hits it.
        cache.get_or_prepare_bounded(&bleu, &chrf, "built in", usize::MAX);
        assert_eq!(cache.len(), 2);
        cache.get_or_prepare_inline(&bleu, &chrf, "built in", usize::MAX);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn the_cap_still_bounds_inline_references_seen_twice() {
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        for i in 0..5 {
            let reference = format!("repeated {i}");
            cache.get_or_prepare_inline(&bleu, &chrf, &reference, 2);
            cache.get_or_prepare_inline(&bleu, &chrf, &reference, 2);
        }
        assert_eq!(cache.len(), 2);
        // A reference kept out by the cap misses on every lookup.
        cache.get_or_prepare_inline(&bleu, &chrf, "repeated 4", 2);
        assert_eq!(cache.stats().misses, 11);
        assert_eq!(cache.stats().hits, 0);
    }

    /// About 20 KB of code-like reference text, unique to `seed`.
    fn large_reference(seed: usize) -> String {
        let mut text = format!("// reference {seed}\n");
        for line in 0.. {
            if text.len() >= 20_000 {
                break;
            }
            text.push_str(&format!(
                "    let value_{line} = producer_{seed}(step + {line}, &buffer[{line}..]);\n"
            ));
        }
        text
    }

    /// Look up inline references, each twice, until one is no longer kept.
    fn fill_inline_budget(cache: &ReferenceCache, bleu: &BleuScorer, chrf: &ChrfScorer) {
        for seed in 0.. {
            let before = cache.len();
            let reference = large_reference(seed);
            cache.get_or_prepare_inline(bleu, chrf, &reference, usize::MAX);
            cache.get_or_prepare_inline(bleu, chrf, &reference, usize::MAX);
            if cache.len() == before {
                return;
            }
        }
    }

    #[test]
    fn inline_references_seen_twice_stay_within_the_byte_budget() {
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        let mut kept_bytes = 0;
        for seed in 0..1_000 {
            let reference = large_reference(seed);
            let before = cache.len();
            cache.get_or_prepare_inline(&bleu, &chrf, &reference, usize::MAX);
            let pair = cache.get_or_prepare_inline(&bleu, &chrf, &reference, usize::MAX);
            if cache.len() > before {
                kept_bytes += reference.len() + pair.heap_bytes();
            }
            assert!(cache.inline_bytes() <= INLINE_BUDGET_BYTES, "{seed}");
        }
        assert!(!cache.is_empty(), "the budget keeps at least one");
        assert_eq!(
            cache.inline_bytes(),
            kept_bytes,
            "each kept entry charged once"
        );
        assert_eq!(cache.stats().misses, 2_000);
    }

    #[test]
    fn a_resolved_reference_is_kept_when_the_inline_budget_is_full() {
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        fill_inline_budget(&cache, &bleu, &chrf);
        let (kept, charged) = (cache.len(), cache.inline_bytes());
        let built_in = large_reference(usize::MAX);
        cache.get_or_prepare_bounded(&bleu, &chrf, &built_in, usize::MAX);
        assert_eq!(cache.len(), kept + 1);
        assert_eq!(
            cache.inline_bytes(),
            charged,
            "resolved references are not charged"
        );
        cache.get_or_prepare_bounded(&bleu, &chrf, &built_in, usize::MAX);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn a_repeated_inline_reference_scores_identically_once_the_budget_is_full() {
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        fill_inline_budget(&cache, &bleu, &chrf);
        let kept = cache.len();
        // Twice the text of a reference like the one the budget just turned
        // away, so it cannot fit either.
        let reference = large_reference(usize::MAX).repeat(2);
        let hypothesis = reference.replace("step", "t");
        for _ in 0..3 {
            let misses = cache.stats().misses;
            let pair = cache.get_or_prepare_inline(&bleu, &chrf, &reference, usize::MAX);
            assert_eq!(cache.stats().misses, misses + 1, "not cached");
            assert_eq!(
                bleu.score_prepared(&hypothesis, &pair.bleu).to_bits(),
                bleu.score(&hypothesis, &reference).to_bits()
            );
            assert_eq!(
                chrf.score_prepared(&hypothesis, &pair.chrf).to_bits(),
                chrf.score(&hypothesis, &reference).to_bits()
            );
        }
        assert_eq!(cache.len(), kept);
    }

    #[test]
    fn a_lost_preparation_race_counts_as_a_hit() {
        // Replay the race in order: a lookup misses and prepares, another
        // thread inserts the same reference meanwhile, then the first
        // settles and adopts the winner's entry.
        let cache = ReferenceCache::default();
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        let reference = "raced reference";
        let late = Arc::new(PreparedPair {
            bleu: bleu.prepare(reference),
            chrf: chrf.prepare(reference),
        });
        let winner = cache.get_or_prepare(&bleu, &chrf, reference);
        for admission in [Admission::FirstSighting, Admission::SecondSighting] {
            let adopted = cache.settle(
                shard_hash(reference),
                reference,
                Arc::clone(&late),
                usize::MAX,
                admission,
            );
            assert!(Arc::ptr_eq(&adopted, &winner), "{admission:?}");
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn few_shot_comparison_improves_every_model() {
        let comparison = quick_benchmark().run_few_shot_comparison();
        assert!(comparison.few_shot_improves_all_models());
        for (model, zero, few, _, _) in comparison.per_model_rows() {
            assert!(
                few.mean > zero.mean + 20.0,
                "{model}: few-shot {:.1} vs zero-shot {:.1}",
                few.mean,
                zero.mean
            );
        }
    }

    #[test]
    fn custom_client_set_is_respected() {
        let clients: Vec<Box<dyn LlmClient>> = vec![Box::new(SimulatedLlm::new(ModelId::O3))];
        let b = Benchmark::new(
            clients,
            BenchmarkConfig {
                trials: 1,
                ..BenchmarkConfig::default()
            },
        );
        let result = b.run_annotation(PromptVariant::Detailed);
        assert_eq!(result.bleu.cols(), &["o3"]);
        assert_eq!(result.cell(Metric::Bleu, "ADIOS2", "o3").n, 1);
    }
}
