//! `connection_scaling` — measure the event-driven server's throughput and
//! latency percentiles across the 4 → 256 → 1024 closed-loop client tiers
//! and write the `BENCH_6.json` artifact.
//!
//! Unlike the criterion benches this is a one-shot measurement binary
//! (`harness = false`): per tier it boots a fresh server on an ephemeral
//! port, drives it from the tier's concurrent synchronous clients, prints
//! the scaling curve and records the full report. `repro bench-connections`
//! runs the same measurement; `WFSPEAK_CONNECTIONS_MAX` bounds the client
//! count so CI can run a cheap smoke (e.g. `WFSPEAK_CONNECTIONS_MAX=64`).
//! See the `wfspeak_bench` crate docs for the report schema.

fn main() {
    // `cargo bench` passes harness flags (`--bench`) — ignored — and runs
    // bench binaries with the package root as cwd, so anchor the artifact
    // to the workspace root.
    wfspeak_bench::run_connection_bench(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json"));
}
