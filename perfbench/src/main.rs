//! The repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <grid|execute-open|evaluate-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets up its seeded inputs (three times, reporting
//! the median set-up time), then times the workload and prints the
//! end-to-end metrics. With `--trace 1` it sets up once and reports the
//! per-layer breakdown instead: for the service workloads an open-loop
//! phase with server sampling, a window-1 round-trip probe, and in-process
//! replays of the same request lines (real calls, then composed untraced,
//! traced and untraced again); for `grid` the same replays of one pass.
//! Every reply and grid result is checked against an expected value
//! computed in set-up. The last line of standard output is one JSON
//! object; the exit code is 0 only when every result was correct.
//! `perfbench/README.md` describes each metric and what should move it.

mod grid;
mod inputs;
mod loadgen;
mod replay;
mod rows;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use wfspeak_service::{ScoringServer, ServiceConfig};

use crate::grid::Grid;
use crate::inputs::{Plan, Service, ServiceInputs};
use crate::loadgen::Outcome;
use crate::replay::Replayer;
use crate::trace::{layers, Counts, Layer, Mode, Recorder, Span};
use crate::util::{
    foreign_cpu_s, median, peak_rss_mb, percentile, quietest_half, release_freed_memory, Metrics,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A workload: its service (none for `grid`), the fixed open-loop rate and
/// the p99 latency limit at that rate.
struct Workload {
    name: &'static str,
    service: Option<Service>,
    rate_rps: f64,
    p99_limit_ms: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "grid",
        service: None,
        rate_rps: 0.0,
        p99_limit_ms: 0.0,
    },
    Workload {
        name: "execute-open",
        service: Some(Service::Execute),
        rate_rps: 1200.0,
        p99_limit_ms: 10.0,
    },
    Workload {
        name: "evaluate-open",
        service: Some(Service::Evaluate),
        rate_rps: 400.0,
        p99_limit_ms: 25.0,
    },
];

/// Score checksums pinned per `(workload, seed)`; a run at a pinned seed
/// fails when its checksum differs. A checksum folds the expected result of
/// every distinct response (service workloads) or of every grid call, so it
/// does not depend on `--seconds`.
const PINS: &[(&str, u64, u64)] = &[
    ("grid", 1, 0x877a2c66360de481),
    ("grid", 2, 0x355f0afe5398fd52),
    ("grid", 3, 0x6713adb2f3b2c5c0),
    ("grid", 4, 0x3cbe3a82b73f531d),
    ("grid", 5, 0x8fc9ef0854e86be0),
    ("grid", 6, 0x849d0af672d60a90),
    ("grid", 7, 0x3d78993eb8c70314),
    ("grid", 8, 0xd44d2b2e1a1e3498),
    ("grid", 9, 0x309d674811e81abc),
    ("grid", 10, 0x92305c15d6ba9528),
    ("execute-open", 1, 0x7f7d1ab25e22a13b),
    ("execute-open", 2, 0x66f726de8a0744d3),
    ("execute-open", 3, 0x186492f238ed70f7),
    ("execute-open", 4, 0xc90e2276fd97a77f),
    ("execute-open", 5, 0xc6a9d38edf239544),
    ("execute-open", 6, 0x5ff2f0d67807b44f),
    ("execute-open", 7, 0x2dd80ee4ca682579),
    ("execute-open", 8, 0x7075886c00c0a706),
    ("execute-open", 9, 0xf3da36116a83558e),
    ("execute-open", 10, 0xdd7626e00d3596b8),
    ("evaluate-open", 1, 0x4d906b0b6ab57488),
    ("evaluate-open", 2, 0xac25a1d0cbaae09d),
    ("evaluate-open", 3, 0xc6a2b836a6ed79ee),
    ("evaluate-open", 4, 0xccf5ddac89fb3efd),
    ("evaluate-open", 5, 0xee23682d5121abb9),
    ("evaluate-open", 6, 0xb561c837fcfdbb2a),
    ("evaluate-open", 7, 0xfaa05f65f2df1268),
    ("evaluate-open", 8, 0xebac5e9c9755f2c0),
    ("evaluate-open", 9, 0x7a36658e2a10215b),
    ("evaluate-open", 10, 0xa893a18395188e66),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <grid|execute-open|evaluate-open> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument `{flag}`"));
        };
        let Some(value) = args.next() else {
            usage(&format!("`{flag}` needs a value"));
        };
        values.insert(name.to_owned(), value);
    }
    let get = |name: &str| {
        values
            .get(name)
            .unwrap_or_else(|| usage(&format!("missing --{name}")))
            .as_str()
    };
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == get("workload"))
        .unwrap_or_else(|| usage("unknown workload"));
    let seed = get("seed").parse().unwrap_or_else(|_| usage("bad --seed"));
    let seconds: f64 = get("seconds")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("bad --seconds"));
    let trace = match get("trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// What a run reports.
struct Report {
    wrong: u64,
    attempted: u64,
    failed: u64,
    checksum: u64,
    metrics: Metrics,
    spans: Vec<Span>,
}

fn main() {
    let args = parse_args();
    let epoch = Instant::now();
    let report = match (args.workload.service, args.trace) {
        (None, false) => grid_run(&args, epoch),
        (None, true) => grid_trace(&args, epoch),
        (Some(service), false) => service_run(&args, service, epoch),
        (Some(service), true) => service_trace(&args, service, epoch),
    };
    let report = report.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let pinned = PINS
        .iter()
        .find(|(name, seed, _)| *name == args.workload.name && *seed == args.seed)
        .map(|pin| pin.2);
    let pin_ok = pinned.is_none_or(|pin| pin == report.checksum);
    println!(
        "workload {} seed {} trace {}: checksum {:#018x} ({})",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        report.checksum,
        match pinned {
            Some(_) if pin_ok => "matches its pin",
            Some(_) => "DIFFERS FROM ITS PIN",
            None => "no pin for this seed",
        }
    );
    println!(
        "attempted {} failed {} wrong {} error_rate {:.6}",
        report.attempted,
        report.failed,
        report.wrong,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    report.metrics.print();
    if !report.spans.is_empty() {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-spans")
            .join(format!("{}-seed{}.tsv", args.workload.name, args.seed));
        match trace::write_spans(&path, &report.spans) {
            Ok(()) => println!("{} spans written to {}", report.spans.len(), path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    let correct = report.wrong == 0 && pin_ok;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        report.attempted.max(1),
        report.failed,
        report.metrics.json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}

type Result<T> = std::result::Result<T, String>;

fn io<T>(result: std::io::Result<T>) -> Result<T> {
    result.map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- grid

/// Set up the grid: build its inputs, compute every expected result, and
/// run one untimed warm-up pass (checked). Returns the grid and the number
/// of warm-up calls that came back wrong.
fn grid_setup(seed: u64, epoch: Instant) -> (Grid, u64) {
    let mut grid = Grid::new(seed);
    grid.prepare_expected(epoch);
    let wrong = grid
        .calls
        .iter()
        .zip(&grid.expected)
        .filter(|(call, expected)| grid.run(**call).0 != **expected)
        .count() as u64;
    (grid, wrong)
}

fn grid_run(args: &Args, epoch: Instant) -> Result<Report> {
    let mut setups = Vec::new();
    let mut current: Option<Grid> = None;
    let mut wrong = 0;
    for _ in 0..SETUPS {
        drop(current.take());
        release_freed_memory();
        let started = Instant::now();
        let (grid, bad) = grid_setup(args.seed, epoch);
        setups.push(started.elapsed().as_secs_f64());
        wrong += bad;
        current = Some(grid);
    }
    let grid = current.expect("at least one set-up");
    // The latency unit is one prompt variant: its three `run_evaluation`
    // calls and its `run_execution` call, back to back (closed loop). Single
    // calls differ in size by 6x, so their median would sit in a gap.
    let per_variant = grid.calls.len() / wfspeak_corpus::prompts::PromptVariant::ALL.len();
    // Per prompt variant: its latency in milliseconds.
    let mut variants: Vec<f64> = Vec::new();
    let (mut responses, mut busy, mut failed) = (0u64, 0.0, 0u64);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        for (calls, expected) in grid
            .calls
            .chunks(per_variant)
            .zip(grid.expected.chunks(per_variant))
        {
            let (mut variant_s, mut variant_n) = (0.0, 0);
            for (call, expected) in calls.iter().zip(expected) {
                let (hash, n, elapsed) = grid.run(*call);
                variant_n += n as u64;
                variant_s += elapsed;
                if hash != *expected {
                    wrong += 1;
                    failed += n as u64;
                }
            }
            responses += variant_n;
            busy += variant_s;
            variants.push(variant_s * 1e3);
            if started.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
    }
    println!(
        "grid: {} prompt variants ({} calls each), {} responses in {:.3} s of calls",
        variants.len(),
        per_variant,
        responses,
        busy
    );
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&mut setups), "s");
    metrics.put("throughput_rps", responses as f64 / busy, "1/s");
    metrics.put("p50_ms", percentile(&mut variants, 50.0), "ms");
    metrics.put("p99_ms", percentile(&mut variants, 99.0), "ms");
    metrics.put("ok_ratio", 1.0 - failed as f64 / responses as f64, "ratio");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(Report {
        wrong,
        attempted: responses,
        failed,
        checksum: grid.checksum,
        metrics,
        spans: Vec::new(),
    })
}

fn grid_trace(args: &Args, epoch: Instant) -> Result<Report> {
    let (grid, mut wrong) = grid_setup(args.seed, epoch);
    let mut extras = Extras::default();
    let mut rec = Recorder::new(true, epoch);
    let mut counts = Counts::default();
    let (mut untraced_ns, mut traced_ns) = (0, 0);
    let mut responses = 0;
    for (call, expected) in grid.calls.iter().zip(&grid.expected) {
        // As for the service replays: real first, then the traced pass
        // bracketed by two untraced ones.
        let real = grid.direct(*call, Mode::Real, epoch);
        let before = grid.direct(*call, Mode::Composed { traced: false }, epoch);
        let traced = grid.direct(*call, Mode::Composed { traced: true }, epoch);
        let after = grid.direct(*call, Mode::Composed { traced: false }, epoch);
        for direct in [&real, &before, &traced, &after] {
            wrong += u64::from(direct.hash != *expected);
        }
        responses += real.responses as u64;
        untraced_ns += (before.wall_ns + after.wall_ns) / 2;
        traced_ns += traced.wall_ns;
        extras.glue_execute_ns += real.real_execute_ns as f64;
        extras.glue_evaluate_ns += real.real_evaluate_ns as f64;
        counts.add(traced.counts);
        rec.absorb(traced.rec);
    }
    extras.glue_execute_ns -= counts.execute_children_ns as f64;
    extras.glue_evaluate_ns -= counts.evaluate_children_ns as f64;
    let by_layer = layers(&rec.spans);
    extras.par_wall_ms = traced_ns as f64 / 1e6;
    extras.par_busy_ms = by_layer
        .get("core.grid_cell")
        .map_or(0.0, |l| l.durations.iter().sum::<f64>() / 1e6);
    extras.untraced_ms = untraced_ns as f64 / 1e6;
    // The YAML probe ran on the `par_map` workers in parallel, so only
    // about its sum over the workers comes off the traced wall time.
    extras.traced_ms = traced_ns as f64 / 1e6 - probe_ms(&by_layer) / parallelism();
    println!(
        "grid trace: {} responses per replay; composed untraced {:.1} ms, traced {:.1} ms",
        responses, extras.untraced_ms, extras.traced_ms
    );
    Ok(Report {
        wrong,
        attempted: responses * 4,
        failed: 0,
        checksum: grid.checksum,
        metrics: per_layer(&by_layer, &counts, &extras),
        spans: rec.spans,
    })
}

// ------------------------------------------------------------- service

/// Rounds of a service run: each boots a server of its own and runs a
/// stretch of saturation followed by a stretch of open loop.
const ROUNDS: usize = 8;
/// Share of `--seconds` each phase gets.
const SATURATION_SHARE: f64 = 0.4;
const OPEN_SHARE: f64 = 0.6;
const TRACE_OPEN_SHARE: f64 = 0.3;
const TRACE_PROBE_SHARE: f64 = 0.1;
/// The traced run replays this share of the open-loop requests, four
/// times over.
const TRACE_REPLAY_SHARE: f64 = 0.25;

struct Served {
    inputs: ServiceInputs,
    server: ScoringServer,
    warmup: Outcome,
}

/// Boot a server with the default configuration and send it the warm-up
/// requests, so every built-in reference is prepared before timing.
fn boot(inputs: &ServiceInputs) -> Result<(ScoringServer, Outcome)> {
    let server = io(ScoringServer::spawn(
        "127.0.0.1:0",
        ServiceConfig::default(),
    ))?;
    let warmup = io(loadgen::closed_loop(server.addr(), &inputs.warmup, None))?;
    Ok((server, warmup))
}

/// Set up a service workload: build its inputs, boot the server and send
/// the warm-up requests.
fn service_setup(rec: &mut Recorder, service: Service, seed: u64, plan: &Plan) -> Result<Served> {
    let inputs = inputs::build(rec, service, seed, plan);
    let (server, warmup) = boot(&inputs)?;
    Ok(Served {
        inputs,
        server,
        warmup,
    })
}

fn ms(values: &mut [f64], pct: f64) -> f64 {
    percentile(values, pct) / 1e3
}

/// One timed stretch of a phase.
struct Stretch {
    outcome: Outcome,
    /// Share of the machine's CPUs the rest of the machine used meanwhile.
    foreign: f64,
}

impl Stretch {
    fn time(phase: impl FnOnce() -> std::io::Result<Outcome>) -> Result<Stretch> {
        let (cpu, started) = (foreign_cpu_s(), Instant::now());
        let outcome = io(phase())?;
        let seconds = started.elapsed().as_secs_f64();
        Ok(Stretch {
            outcome,
            foreign: (foreign_cpu_s() - cpu) / (seconds * parallelism()),
        })
    }
}

/// Reference-cache lookups the server counted: hits and misses.
#[derive(Default)]
struct Lookups {
    hits: u64,
    misses: u64,
}

impl Lookups {
    /// Add the lookups the server counted while `phase` ran.
    fn during<T>(&mut self, server: &ScoringServer, phase: impl FnOnce() -> T) -> T {
        let before = server.stats();
        let result = phase();
        let after = server.stats();
        self.hits += after.cache_hits - before.cache_hits;
        self.misses += after.cache_misses - before.cache_misses;
        result
    }

    fn describe(&self, fresh_drawn: usize) -> String {
        let lookups = self.hits + self.misses;
        format!(
            "cache misses {} of {} lookups (share {:.4}; {} fresh references drawn)",
            self.misses,
            lookups,
            self.misses as f64 / lookups.max(1) as f64,
            fresh_drawn
        )
    }
}

fn service_run(args: &Args, service: Service, epoch: Instant) -> Result<Report> {
    let workload = args.workload;
    let saturation_seconds = SATURATION_SHARE * args.seconds;
    let round_saturation = saturation_seconds / ROUNDS as f64;
    let plan = Plan {
        rate: workload.rate_rps,
        saturation_round_seconds: round_saturation,
        open_seconds: OPEN_SHARE * args.seconds,
    };
    let mut setups = Vec::new();
    let mut current: Option<Served> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = current.take() {
            previous.server.shutdown();
            release_freed_memory();
        }
        let started = Instant::now();
        let served = service_setup(&mut Recorder::new(false, epoch), service, args.seed, &plan)?;
        setups.push(started.elapsed().as_secs_f64());
        current = Some(served);
    }
    let Served {
        inputs,
        server,
        mut warmup,
    } = current.expect("at least one set-up");
    // The phases alternate in rounds, so a busy spell of the machine lands
    // on both phases rather than on all of one. Each round has a server of
    // its own: a round's fresh references all miss its cache, and the cache
    // grows by one round's inserts at most, so memory does not follow the
    // build's speed across the run.
    let round_open = plan.open_seconds / ROUNDS as f64;
    let (mut closed, mut opened) = (Vec::new(), Vec::new());
    let (mut saturation_lookups, mut open_lookups) = (Lookups::default(), Lookups::default());
    let mut set_up = Some(server);
    for round in 0..ROUNDS {
        let server = match set_up.take() {
            Some(server) => server,
            None => {
                let (server, checked) = boot(&inputs)?;
                warmup.merge(checked);
                server
            }
        };
        let addr = server.addr();
        closed.push(saturation_lookups.during(&server, || {
            Stretch::time(|| loadgen::closed_loop(addr, &inputs.saturation, Some(round_saturation)))
        })?);
        let from = round as f64 * round_open;
        let ks = inputs.arrivals.partition_point(|&t| t < from)
            ..inputs.arrivals.partition_point(|&t| t < from + round_open);
        opened.push(open_lookups.during(&server, || {
            Stretch::time(|| {
                loadgen::open_loop(addr, &inputs.open, &inputs.arrivals, ks, from, None)
            })
        })?);
        server.shutdown();
        release_freed_memory();
    }

    // Correct replies that arrived within each timed saturation stretch.
    let completed: Vec<usize> = closed
        .iter()
        .map(|s| {
            let arrivals = s.outcome.completions.iter();
            arrivals.filter(|&&at| at < round_saturation).count()
        })
        .collect();
    let latencies = |stretches: &mut dyn Iterator<Item = usize>| -> Vec<f64> {
        stretches
            .flat_map(|i| opened[i].outcome.latencies_us.iter().copied())
            .collect()
    };
    let mut every_latency = latencies(&mut (0..ROUNDS));
    print!("open-loop latency over every stretch (ms):");
    for pct in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9] {
        print!(" p{pct} {:.3}", ms(&mut every_latency, pct));
    }
    println!();
    let foreign =
        |stretches: &[Stretch]| -> Vec<f64> { stretches.iter().map(|s| s.foreign).collect() };
    let (closed_foreign, open_foreign) = (foreign(&closed), foreign(&opened));
    for (phase, shares) in [
        ("saturation", &closed_foreign),
        ("open loop", &open_foreign),
    ] {
        let shown: Vec<String> = shares.iter().map(|f| format!("{f:.3}")).collect();
        println!(
            "{phase}: share of the CPUs the rest of the machine used, per stretch: {}",
            shown.join(" ")
        );
    }
    let within_limit = every_latency
        .iter()
        .filter(|&&us| us <= workload.p99_limit_ms * 1e3)
        .count();
    let most_sent = closed
        .iter()
        .map(|s| s.outcome.attempted)
        .max()
        .unwrap_or(0);
    let (mut saturation, mut open) = (Outcome::default(), Outcome::default());
    closed.into_iter().for_each(|s| saturation.merge(s.outcome));
    println!(
        "saturation: {} ok of {} in {:.1} s (window {} on each of 2 connections, {} rounds), {:.1} req/s over every stretch; {}",
        saturation.ok,
        saturation.attempted,
        saturation_seconds,
        loadgen::WINDOW,
        ROUNDS,
        completed.iter().sum::<usize>() as f64 / saturation_seconds,
        saturation_lookups.describe(inputs.saturation.fresh)
    );
    if inputs.saturation.fresh > 0 && most_sent as usize > inputs.saturation.len() {
        println!(
            "saturation: WARNING: a round sent more than its {} requests, so fresh references were sent twice; raise SATURATION_MAX_RPS",
            inputs.saturation.len()
        );
    }
    // The timed metrics come from the half of the stretches of each phase
    // in which the rest of the machine used the least CPU. The choice
    // depends only on the machine's load, never on the metric, so a
    // slowdown of the code under test, which every stretch carries, moves
    // the metric, while a neighbour's busy spell drops out.
    let quiet_closed = quietest_half(&closed_foreign);
    let quiet_completed: usize = quiet_closed.iter().map(|&i| completed[i]).sum();
    let mut quiet_latencies = latencies(&mut quietest_half(&open_foreign).into_iter());
    opened.into_iter().for_each(|s| open.merge(s.outcome));
    println!(
        "open loop at {} req/s: {} ok of {}, {} within the {} ms limit ({:.4}); late p99 {:.3} ms; backlog {}; {}",
        workload.rate_rps,
        open.ok,
        open.attempted,
        within_limit,
        workload.p99_limit_ms,
        within_limit as f64 / open.attempted.max(1) as f64,
        ms(&mut open.late_us, 99.0),
        if open.overloaded { "GREW (overloaded)" } else { "steady" },
        open_lookups.describe(inputs.open.fresh)
    );
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&mut setups), "s");
    metrics.put(
        "throughput_rps",
        quiet_completed as f64 / (quiet_closed.len() as f64 * round_saturation),
        "1/s",
    );
    metrics.put("p50_ms", ms(&mut quiet_latencies, 50.0), "ms");
    metrics.put("p99_ms", ms(&mut quiet_latencies, 99.0), "ms");
    let phases = [&warmup, &saturation, &open];
    let attempted: u64 = phases.iter().map(|o| o.attempted).sum();
    let failed: u64 = phases.iter().map(|o| o.failed()).sum();
    metrics.put("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(Report {
        wrong: phases.iter().map(|o| o.wrong).sum(),
        attempted,
        failed,
        checksum: inputs.checksum,
        metrics,
        spans: Vec::new(),
    })
}

fn service_trace(args: &Args, service: Service, epoch: Instant) -> Result<Report> {
    let workload = args.workload;
    let plan = Plan {
        rate: workload.rate_rps,
        saturation_round_seconds: 0.0,
        open_seconds: TRACE_OPEN_SHARE * args.seconds,
    };
    let mut rec = Recorder::new(true, epoch);
    let Served {
        inputs,
        server,
        warmup,
    } = service_setup(&mut rec, service, args.seed, &plan)?;
    let addr: SocketAddr = server.addr();
    let mut open = io(loadgen::open_loop(
        addr,
        &inputs.open,
        &inputs.arrivals,
        0..inputs.arrivals.len(),
        0.0,
        Some(&server),
    ))?;
    let stats = server.stats();
    let (mut rtts, window) = io(loadgen::window_one(
        addr,
        &inputs.open,
        TRACE_PROBE_SHARE * args.seconds,
    ))?;
    server.shutdown();

    let replayed = (inputs.arrivals.len() as f64 * TRACE_REPLAY_SHARE).ceil() as usize;
    let replay = |mode| {
        let mut replayer = Replayer::new(mode, epoch);
        replayer.warm(&inputs.warmup);
        let seconds = replayer.replay(&inputs.open, replayed, mode);
        (replayer, seconds)
    };
    // The real replay goes first and also warms the machine; the traced
    // replay is bracketed by two untraced ones, whose mean is its baseline.
    let (real, _) = replay(Mode::Real);
    let (before, before_s) = replay(Mode::Composed { traced: false });
    let (mut traced, traced_s) = replay(Mode::Composed { traced: true });
    let (after, after_s) = replay(Mode::Composed { traced: false });
    let untraced_s = (before_s + after_s) / 2.0;

    rec.absorb(std::mem::replace(
        &mut traced.rec,
        Recorder::new(false, epoch),
    ));
    let by_layer = layers(&rec.spans);
    let counts = traced.counts;
    let probed = rtts.len().min(real.work_us.len());
    let mut extras = Extras {
        glue_execute_ns: real.real_execute_ns as f64 - counts.execute_children_ns as f64,
        glue_evaluate_ns: real.real_evaluate_ns as f64 - counts.evaluate_children_ns as f64,
        server_p50_us: stats.latency_p50_us as f64,
        server_p99_us: stats.latency_p99_us as f64,
        queue_depth_max: open.queue_depth_max as f64,
        shed: open.refused as f64,
        wire_overhead_us: median(&mut rtts) - median(&mut real.work_us[..probed].to_vec()),
        late_p99_ms: ms(&mut open.late_us, 99.0),
        check_ms: open.check_ns as f64 / 1e6,
        untraced_ms: untraced_s * 1e3,
        traced_ms: traced_s * 1e3,
        ..Extras::default()
    };
    extras.traced_ms -= probe_ms(&by_layer);
    println!(
        "open loop at {} req/s: {} ok of {}; window-1 probe: {} round trips; replays of {} requests: composed untraced {:.1} ms, traced {:.1} ms",
        workload.rate_rps,
        open.ok,
        open.attempted,
        probed,
        replayed,
        extras.untraced_ms,
        extras.traced_ms
    );
    let mismatches = [&real, &before, &traced, &after]
        .iter()
        .map(|r| r.mismatches)
        .sum::<u64>();
    let phases = [&warmup, &open, &window];
    Ok(Report {
        wrong: phases.iter().map(|o| o.wrong).sum::<u64>() + mismatches,
        attempted: phases.iter().map(|o| o.attempted).sum::<u64>() + 4 * replayed as u64,
        failed: phases.iter().map(|o| o.failed()).sum::<u64>() + mismatches,
        checksum: inputs.checksum,
        metrics: per_layer(&by_layer, &counts, &extras),
        spans: rec.spans,
    })
}

// ----------------------------------------------------------- per layer

fn parallelism() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Total time of the YAML probe, which only the traced replay runs.
fn probe_ms(by_layer: &BTreeMap<&'static str, Layer>) -> f64 {
    by_layer
        .get("wyaml.parse_document")
        .map_or(0.0, |l| l.durations.iter().sum::<f64>() / 1e6)
}

/// Per-layer values that do not come straight from span totals.
#[derive(Default)]
struct Extras {
    /// Real call time minus the composed children's time.
    glue_execute_ns: f64,
    glue_evaluate_ns: f64,
    par_busy_ms: f64,
    par_wall_ms: f64,
    server_p50_us: f64,
    server_p99_us: f64,
    queue_depth_max: f64,
    shed: f64,
    wire_overhead_us: f64,
    late_p99_ms: f64,
    check_ms: f64,
    untraced_ms: f64,
    /// Traced replay wall time, less the YAML probe (not part of the
    /// untraced replay).
    traced_ms: f64,
}

/// The per-layer metrics, always the same names in the same order; a layer
/// the workload never calls reports 0.
fn per_layer(by_layer: &BTreeMap<&'static str, Layer>, counts: &Counts, x: &Extras) -> Metrics {
    let calls = |name: &str| by_layer.get(name).map_or(0.0, |l| l.calls as f64);
    let self_ms = |name: &str| by_layer.get(name).map_or(0.0, Layer::self_ms);
    let p99_us = |name: &str| by_layer.get(name).map_or(0.0, Layer::p99_us);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hits = calls("core.reference_cache.lookup");
    let lookups = hits + calls("metrics.prepare");
    let mut m = Metrics::default();
    m.put("llm.complete.calls", calls("llm.complete"), "count");
    m.put("llm.complete.self_ms", self_ms("llm.complete"), "ms");
    m.put(
        "codemodel.extract_code.self_ms",
        self_ms("codemodel.extract_code"),
        "ms",
    );
    m.put(
        "codemodel.compare_calls.self_ms",
        self_ms("codemodel.compare_calls"),
        "ms",
    );
    m.put(
        "codemodel.compare_calls.p99_us",
        p99_us("codemodel.compare_calls"),
        "us",
    );
    m.put(
        "wyaml.parse_document.calls",
        calls("wyaml.parse_document"),
        "count",
    );
    m.put(
        "wyaml.parse_document.self_ms",
        self_ms("wyaml.parse_document"),
        "ms",
    );
    m.put("wyaml.parse.failures", counts.yaml_failures as f64, "count");
    m.put(
        "systems.spec_from_config.calls",
        calls("systems.spec_from_config"),
        "count",
    );
    m.put(
        "systems.spec_from_config.self_ms",
        self_ms("systems.spec_from_config"),
        "ms",
    );
    m.put(
        "systems.spec_from_config.p99_us",
        p99_us("systems.spec_from_config"),
        "us",
    );
    m.put(
        "systems.spec_from_config.failures",
        counts.spec_failures as f64,
        "count",
    );
    m.put(
        "systems.validate.self_ms",
        self_ms("systems.validate"),
        "ms",
    );
    m.put(
        "systems.normalize.self_ms",
        self_ms("systems.normalize"),
        "ms",
    );
    m.put(
        "runtime.engine_run.calls",
        calls("runtime.engine_run"),
        "count",
    );
    m.put(
        "runtime.engine_run.self_ms",
        self_ms("runtime.engine_run"),
        "ms",
    );
    m.put(
        "runtime.engine_run.p99_us",
        p99_us("runtime.engine_run"),
        "us",
    );
    m.put(
        "runtime.engine_run.procs",
        counts.engine_procs as f64,
        "count",
    );
    m.put("runtime.engine_run.ran", counts.engine_ran as f64, "count");
    m.put(
        "runtime.engine_run.completed_ratio",
        ratio(counts.engine_completed as f64, counts.engine_ran as f64),
        "ratio",
    );
    m.put(
        "runtime.fidelity.self_ms",
        self_ms("runtime.fidelity"),
        "ms",
    );
    m.put("metrics.prepare.calls", calls("metrics.prepare"), "count");
    m.put("metrics.prepare.self_ms", self_ms("metrics.prepare"), "ms");
    m.put("metrics.bleu.self_ms", self_ms("metrics.bleu"), "ms");
    m.put("metrics.chrf.self_ms", self_ms("metrics.chrf"), "ms");
    m.put("metrics.chrf.p99_us", p99_us("metrics.chrf"), "us");
    m.put("core.reference_cache.lookups", lookups, "count");
    m.put(
        "core.reference_cache.hit_rate",
        ratio(hits, lookups),
        "ratio",
    );
    m.put(
        "core.reference_cache.lookup_p99_us",
        p99_us("core.reference_cache.lookup"),
        "us",
    );
    m.put(
        "core.execute_artifact.self_ms",
        x.glue_execute_ns / 1e6,
        "ms",
    );
    m.put(
        "core.evaluate_prepared.self_ms",
        x.glue_evaluate_ns / 1e6,
        "ms",
    );
    m.put("core.par_map.wall_ms", x.par_wall_ms, "ms");
    m.put(
        "core.par_map.efficiency",
        ratio(x.par_busy_ms, x.par_wall_ms * parallelism()),
        "ratio",
    );
    m.put(
        "service.decode_request.calls",
        calls("service.decode_request"),
        "count",
    );
    m.put(
        "service.decode_request.self_ms",
        self_ms("service.decode_request"),
        "ms",
    );
    m.put(
        "service.decode_request.p99_us",
        p99_us("service.decode_request"),
        "us",
    );
    m.put(
        "service.encode_response.self_ms",
        self_ms("service.encode_response"),
        "ms",
    );
    m.put("service.frame.self_ms", self_ms("service.frame"), "ms");
    m.put("service.server_latency_p50_us", x.server_p50_us, "us");
    m.put("service.server_latency_p99_us", x.server_p99_us, "us");
    m.put("service.queue_depth.max", x.queue_depth_max, "count");
    m.put("service.shed", x.shed, "count");
    m.put("service.wire_overhead_us", x.wire_overhead_us, "us");
    m.put("loadgen.late_p99_ms", x.late_p99_ms, "ms");
    m.put("loadgen.decode_response.self_ms", x.check_ms, "ms");
    m.put("trace.untraced_ms", x.untraced_ms, "ms");
    m.put(
        "trace.overhead_pct",
        100.0 * ratio(x.traced_ms - x.untraced_ms, x.untraced_ms),
        "%",
    );
    m
}
