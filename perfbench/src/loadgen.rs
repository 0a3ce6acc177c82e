//! The load generator: at most two threads and two connections.
//!
//! * [`closed_loop`] keeps a fixed window of pipelined requests in flight
//!   on each connection for a fixed time; the completion rate is the
//!   capacity measure.
//! * [`open_loop`] sends on a seeded arrival schedule regardless of
//!   replies (one thread sends, the other reads both connections), and
//!   times every request from its *intended* send time, so a stall is
//!   charged to every request queued behind it.
//! * [`window_one`] sends one request at a time and records round trips.
//!
//! A phase's `k`-th request goes out under id `k + 1` with the body
//! `pool.get(k)`. Replies are checked cheaply: the id is read from
//! the line's prefix and the FNV-1a hash of the rest of the line is
//! compared with the expected reply body's hash.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use polling::{Interest, Poller};
use wfspeak_service::ScoringServer;

use crate::inputs::{reply_parts, request_line, Pool};
use crate::util::fnv;

/// Requests in flight per connection in the closed loop.
pub const WINDOW: usize = 4;
/// How long replies may trail the last send before they count as lost.
const DRAIN: Duration = Duration::from_secs(10);

/// What one phase saw, merged over its connections.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub ok: u64,
    /// Replies that differ from the expected line and are not refusals.
    pub wrong: u64,
    /// `overloaded` or `deadline` replies.
    pub refused: u64,
    /// Requests with no reply (connection error or drain timeout).
    pub lost: u64,
    /// Open loop: latency of each correct reply in microseconds.
    pub latencies_us: Vec<f64>,
    /// Closed loop: when each correct reply arrived, in seconds from the
    /// phase start.
    pub completions: Vec<f64>,
    /// How late each send was against its intended time, in microseconds.
    pub late_us: Vec<f64>,
    /// Time spent checking replies (id parse and hash), in nanoseconds.
    pub check_ns: u64,
    /// Open loop only: the backlog grew over the phase.
    pub overloaded: bool,
    /// Largest server queue depth sampled during the phase.
    pub queue_depth_max: u64,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.lost += other.lost;
        self.latencies_us.extend(other.latencies_us);
        self.completions.extend(other.completions);
        self.late_us.extend(other.late_us);
        self.check_ns += other.check_ns;
        self.overloaded |= other.overloaded;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.lost
    }

    /// Check one reply line against `pool`; returns the reply's id when it
    /// was correct.
    fn check(&mut self, line: &[u8], pool: &Pool) -> Option<u64> {
        let started = Instant::now();
        let correct = reply_parts(line)
            .filter(|(id, body)| *id >= 1 && fnv(body) == pool.get(*id as usize - 1).expected);
        if correct.is_some() {
            self.ok += 1;
        } else if contains(line, b"\"overloaded\"") || contains(line, b"\"deadline\"") {
            self.refused += 1;
        } else {
            self.wrong += 1;
        }
        self.check_ns += started.elapsed().as_nanos() as u64;
        correct.map(|(id, _)| id)
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Send the phase's `k`-th request.
fn send(writer: &mut TcpStream, line: &mut Vec<u8>, pool: &Pool, k: usize) -> std::io::Result<()> {
    request_line(line, k as u64 + 1, &pool.get(k).body);
    writer.write_all(line)
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(DRAIN))?;
    Ok(stream)
}

/// One blocking connection: a buffered reader over a clone of the writer.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = connect(addr)?;
        writer.set_read_timeout(Some(DRAIN))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, writer.try_clone()?),
            writer,
            out: Vec::with_capacity(16 * 1024),
            line: Vec::with_capacity(16 * 1024),
        })
    }

    /// Read one whole reply line into `self.line`; false when none came.
    fn recv(&mut self) -> bool {
        self.line.clear();
        matches!(self.reader.read_until(b'\n', &mut self.line), Ok(n) if n > 0)
            && self.line.ends_with(b"\n")
    }
}

/// Closed loop: each of two connections keeps [`WINDOW`] requests in
/// flight until `seconds` have passed (with `seconds` `None`: until each
/// request of `pool` went out once); then the replies drain. Both
/// connections take the next request number from one shared counter.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    seconds: Option<f64>,
) -> std::io::Result<Outcome> {
    let mut conns = [Conn::open(addr)?, Conn::open(addr)?];
    let next = &AtomicUsize::new(0);
    let start = Instant::now();
    let stop = seconds.map(|s| start + Duration::from_secs_f64(s));
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    let mut inflight = 0;
                    loop {
                        while inflight < WINDOW && stop.is_none_or(|stop| Instant::now() < stop) {
                            let k = next.fetch_add(1, Ordering::SeqCst);
                            if (stop.is_none() && k >= pool.len())
                                || send(&mut conn.writer, &mut conn.out, pool, k).is_err()
                            {
                                break;
                            }
                            out.attempted += 1;
                            inflight += 1;
                        }
                        if inflight == 0 || !conn.recv() {
                            break;
                        }
                        inflight -= 1;
                        let at = start.elapsed().as_secs_f64();
                        if out.check(&conn.line, pool).is_some() {
                            out.completions.push(at);
                        }
                    }
                    out.lost += inflight as u64;
                    out
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("load generator thread panicked"));
        }
    });
    Ok(total)
}

/// Open loop over requests `ks`: request `k` is due `arrivals[k] - from`
/// seconds after this call starts and goes out on connection `k % 2`. One
/// thread sends on schedule (sleeping until each due time), the other
/// waits on both connections for replies; latency runs from the due time
/// to the reply. When `server` is given, the sender samples its queue
/// depth.
pub fn open_loop(
    addr: SocketAddr,
    pool: &Pool,
    arrivals: &[f64],
    ks: Range<usize>,
    from: f64,
    server: Option<&ScoringServer>,
) -> std::io::Result<Outcome> {
    let mut readers = [connect(addr)?, connect(addr)?];
    let writers = [readers[0].try_clone()?, readers[1].try_clone()?];
    let poller = Poller::new()?;
    for (key, reader) in readers.iter().enumerate() {
        poller.add(reader.as_raw_fd(), key, Interest::readable())?;
    }
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(arrivals[k] - from);
    let sent = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let failed_send = AtomicBool::new(false);
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut out = Outcome::default();
            let mut writers = writers;
            let mut line = Vec::with_capacity(16 * 1024);
            let mut backlog = Vec::with_capacity(ks.len());
            for k in ks.clone() {
                let at = due(k);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let late = Instant::now().saturating_duration_since(at);
                if send(&mut writers[k % 2], &mut line, pool, k).is_err() {
                    failed_send.store(true, Ordering::SeqCst);
                    break;
                }
                out.late_us.push(late.as_secs_f64() * 1e6);
                let inflight =
                    sent.fetch_add(1, Ordering::SeqCst) + 1 - received.load(Ordering::SeqCst);
                backlog.push(inflight);
                if let Some(server) = server.filter(|_| k % 8 == 0) {
                    out.queue_depth_max = out.queue_depth_max.max(server.stats().queue_depth);
                }
            }
            out.overloaded = backlog_grew(&backlog);
            out
        });
        let mut events = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut partial = [Vec::new(), Vec::new()];
        let mut last_reply = Instant::now();
        loop {
            let done = sender.is_finished() || failed_send.load(Ordering::SeqCst);
            let outstanding = sent.load(Ordering::SeqCst) - received.load(Ordering::SeqCst);
            if done && (outstanding == 0 || last_reply.elapsed() > DRAIN) {
                break;
            }
            if poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .is_err()
            {
                break;
            }
            for event in &events {
                // One read per readiness report never blocks: the socket
                // has data (or is at EOF).
                let n = match readers[event.key].read(&mut chunk) {
                    Ok(0) | Err(_) => {
                        let _ = poller.delete(readers[event.key].as_raw_fd());
                        continue;
                    }
                    Ok(n) => n,
                };
                let arrived = Instant::now();
                let line = &mut partial[event.key];
                let mut rest = &chunk[..n];
                while let Some(at) = rest.iter().position(|b| *b == b'\n') {
                    line.extend_from_slice(&rest[..=at]);
                    rest = &rest[at + 1..];
                    received.fetch_add(1, Ordering::SeqCst);
                    last_reply = arrived;
                    if let Some(id) = total.check(line, pool) {
                        let k = (id - 1) as usize;
                        let latency = arrived.saturating_duration_since(due(k));
                        total.latencies_us.push(latency.as_secs_f64() * 1e6);
                    }
                    line.clear();
                }
                line.extend_from_slice(rest);
            }
        }
        total.merge(sender.join().expect("load generator sender panicked"));
    });
    total.attempted = ks.len() as u64;
    total.lost = total.attempted - (total.ok + total.wrong + total.refused);
    Ok(total)
}

/// The backlog grew when its mean over the last quarter of sends is more
/// than twice (plus two requests) its mean over the first quarter.
fn backlog_grew(backlog: &[usize]) -> bool {
    let quarter = backlog.len() / 4;
    if quarter == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&backlog[backlog.len() - quarter..]) > 2.0 * mean(&backlog[..quarter]) + 2.0
}

/// Window 1: send one request, wait for its reply, repeat until `seconds`
/// have passed or every pool entry went out once. Returns each round trip
/// in microseconds, in request order.
pub fn window_one(
    addr: SocketAddr,
    pool: &Pool,
    seconds: f64,
) -> std::io::Result<(Vec<f64>, Outcome)> {
    let mut conn = Conn::open(addr)?;
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Outcome::default();
    let mut rtts = Vec::new();
    for k in 0..pool.len() {
        if Instant::now() >= stop {
            break;
        }
        let sent = Instant::now();
        send(&mut conn.writer, &mut conn.out, pool, k)?;
        out.attempted += 1;
        if !conn.recv() {
            out.lost += 1;
            break;
        }
        rtts.push(sent.elapsed().as_secs_f64() * 1e6);
        out.check(&conn.line, pool);
    }
    Ok((rtts, out))
}
