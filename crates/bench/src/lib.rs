//! `wfspeak-bench` — the `repro` binary, which regenerates the paper's
//! tables and drives the scoring service, plus [`chaos`], the deterministic
//! fault-injection harness behind `repro chaos`.
//!
//! The crate measures no performance. The repository's benchmark is
//! `perfbench/`, run as `BENCHMARK.json` declares.

pub mod chaos;

#[cfg(test)]
mod tests {
    //! Counter pins for the workloads `repro` runs: the table, evaluation
    //! and execution grids at the paper defaults, and the scoring service
    //! under concurrent clients. They hold no timings.

    use wfspeak_core::{Benchmark, BenchmarkConfig, ExperimentKind, PromptVariant};
    use wfspeak_service::{ScoreRequest, ScoringClient, ScoringServer, ServiceConfig};

    use crate::chaos::{chaos_hypotheses, service_workload_addresses};

    /// The benchmark `repro` builds when `--trials` is left at its default.
    fn paper_benchmark() -> Benchmark {
        Benchmark::with_simulated_models(BenchmarkConfig::default())
    }

    #[test]
    fn helpers_build_benchmarks_with_expected_trial_counts() {
        // `repro --trials N` overrides the paper defaults' trial count and
        // nothing else, so the grid keeps its shape.
        let paper = paper_benchmark();
        let single = Benchmark::with_simulated_models(BenchmarkConfig {
            trials: 1,
            ..BenchmarkConfig::default()
        });
        assert_eq!(paper.config().trials, 5);
        assert_eq!(single.config().trials, 1);
        for kind in ExperimentKind::ALL {
            assert_eq!(paper.grid_cells(kind), single.grid_cells(kind), "{kind:?}");
        }
    }

    #[test]
    fn grid_throughput_report_is_consistent() {
        // The three table experiments: 3 configuration systems + 4
        // annotation systems + 4 translation pairs, each × 4 models, score
        // every trial with BLEU and ChrF. The 11 rows share 7 prepared
        // references (translation targets reuse the annotation references).
        let benchmark = paper_benchmark();
        let trials = benchmark.config().trials;
        let (mut cells, mut metric_evaluations) = (0, 0);
        for kind in ExperimentKind::ALL {
            let result = benchmark.run_experiment(kind, PromptVariant::Original);
            cells += benchmark.grid_cells(kind);
            for matrix in [&result.bleu, &result.chrf] {
                for row in matrix.rows() {
                    for col in matrix.cols() {
                        metric_evaluations += matrix.samples(row, col).len();
                    }
                }
            }
        }
        assert_eq!(cells, (3 + 4 + 4) * 4);
        assert_eq!(metric_evaluations, cells * trials * 2);
        assert_eq!(benchmark.reference_cache().len(), 7);
    }

    #[test]
    fn evaluation_throughput_report_is_consistent() {
        // Two passes of the three evaluation grids at the paper defaults. The
        // 11 grid rows of a pass resolve to 7 reference texts (translation
        // targets share the annotation references), so the first pass prepares
        // 7 and hits 4, and the second pass hits all 11.
        let benchmark = paper_benchmark();
        for expected_hits in [4, 4 + 11] {
            let (mut cells, mut evaluations, mut hallucinated) = (0, 0, 0);
            for kind in ExperimentKind::ALL {
                let grid = benchmark.run_evaluation(kind, PromptVariant::Original);
                cells += grid.cells.len();
                evaluations += grid.total_evaluations();
                hallucinated += grid.hallucinated_calls();
            }
            assert_eq!((cells, evaluations, hallucinated), (44, 220, 218));
            let cache = benchmark.reference_cache();
            let stats = cache.stats();
            assert_eq!(cache.len(), 7);
            assert_eq!((stats.misses, stats.hits), (7, expected_hits));
        }
    }

    #[test]
    fn execution_throughput_report_is_consistent() {
        // The execution grid (5 execution systems × 4 models) at the paper
        // defaults, run twice on one benchmark: the second pass reuses the
        // reference runs of the first and must score every trial the same.
        let benchmark = paper_benchmark();
        let trials = benchmark.config().trials;
        let first = benchmark.run_execution(PromptVariant::Original);
        assert_eq!(first.cells.len(), 5 * 4);
        let executions = first.total_executions();
        assert_eq!(executions, first.cells.len() * trials);
        let completed = first.completed_executions();
        let unparsed: usize = first.cells.iter().map(|c| c.unparsed_trials()).sum();
        assert!(completed > 0, "exact-tier artifacts must complete");
        assert!(unparsed > 0, "wrong-tier artifacts must fail parse");
        assert!(completed + unparsed <= executions);
        for mean in [first.mean_runnability(), first.mean_fidelity()] {
            assert!(mean > 0.0 && mean < 100.0, "{mean}");
        }

        let again = benchmark.run_execution(PromptVariant::Original);
        assert_eq!(again.cells.len(), first.cells.len());
        for (a, b) in first.cells.iter().zip(&again.cells) {
            assert_eq!((&a.row, &a.model), (&b.row, &b.model));
            assert_eq!(a.trials, b.trials, "{} × {}", a.row, a.model);
        }
    }

    #[test]
    fn service_throughput_report_is_consistent() {
        // Two clients pipeline 12 batches each over the 11 built-in
        // addresses. Those resolve to 7 reference texts and the cache is
        // keyed by text, so 7 lookups miss and every later one hits.
        const CLIENTS: usize = 2;
        const REQUESTS_PER_CLIENT: usize = 12;

        let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let addr = server.addr();
        let addresses = service_workload_addresses();
        assert_eq!(addresses.len(), 11);
        let sent: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client_index| {
                    let addresses = &addresses;
                    scope.spawn(move || {
                        let mut client = ScoringClient::connect(addr).unwrap();
                        let mut sent = 0;
                        for request_index in 0..REQUESTS_PER_CLIENT {
                            let (task, system, reference) =
                                addresses[(client_index + request_index) % addresses.len()];
                            let batch =
                                chaos_hypotheses(reference, client_index as u64, request_index);
                            sent += batch.len();
                            let id = client.fresh_id();
                            client
                                .send(&ScoreRequest::by_id(id, task, system, batch))
                                .unwrap();
                        }
                        for response in client.collect(REQUESTS_PER_CLIENT).unwrap() {
                            assert!(response.ok, "{:?}", response.error);
                        }
                        client.close();
                        sent
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });

        let stats = server.stats();
        server.shutdown();
        assert_eq!(stats.requests, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
        assert_eq!(stats.hypotheses, sent as u64);
        assert_eq!((stats.cache_misses, stats.cache_hits), (7, 17));
    }
}
