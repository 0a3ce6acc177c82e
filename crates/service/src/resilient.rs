//! A fault-tolerant client: reconnect, deterministic backoff and retry of
//! idempotent requests.
//!
//! [`ScoringClient`] is a thin pipe — any transport failure surfaces as an
//! error and the connection is dead. [`ResilientClient`] wraps it with the
//! recovery policy a real deployment needs:
//!
//! * **Reconnect** — a connection-lost error (abrupt EOF, torn frame,
//!   refused connect) drops the connection and dials again.
//! * **Deterministic capped exponential backoff** — attempt `n` waits
//!   `base × 2ⁿ` capped at [`RetryPolicy::backoff_cap`]. No jitter and no
//!   wall-clock randomness: a replayed chaos run retries at the same
//!   points.
//! * **Retry of idempotent requests** — every protocol request is a pure
//!   function of its payload (scoring, evaluation and execution are
//!   deterministic and the server holds no per-request state), so resending
//!   after a transport failure or a typed `"overloaded"` shed is always
//!   safe. Typed terminal errors (`"internal"`, `"deadline"`,
//!   `"frame-too-large"`, `"request-too-large"`, malformed request) are
//!   **not** retried: the server answered, the answer is the result.
//! * **Deadlines** — [`RetryPolicy::deadline_ms`] rides every request on
//!   the wire (the server drops expired queued jobs) and doubles as the
//!   per-attempt read timeout, so a dropped response can never hang the
//!   client.
//!
//! `repro score/evaluate/execute --retries N --deadline-ms MS` and the
//! `repro chaos` harness front this client.

use std::net::ToSocketAddrs;
use std::time::Duration;

use crate::client::ScoringClient;
use crate::protocol::{ScoreRequest, ScoreResponse, ServiceStats};

/// Retry/deadline tunables for [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = fail on the first transport
    /// error, like a plain client).
    pub retries: u32,
    /// Per-request deadline in milliseconds, propagated on the wire and
    /// used as the per-attempt read timeout. `None` applies
    /// [`RetryPolicy::DEFAULT_READ_TIMEOUT`] locally but sends no deadline.
    pub deadline_ms: Option<u64>,
    /// First backoff step; attempt `n` (0-based) waits `base × 2ⁿ`.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff wait.
    pub backoff_cap: Duration,
}

impl RetryPolicy {
    /// Read timeout applied when no deadline is configured, so a dropped
    /// response still cannot hang an attempt forever.
    pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(2);

    /// The backoff wait before retry attempt `attempt` (0-based), capped.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(factor)
            .unwrap_or(self.backoff_cap)
            .min(self.backoff_cap)
    }

    /// The per-attempt read timeout: the deadline when one is set, the
    /// default otherwise.
    fn read_timeout(&self) -> Duration {
        self.deadline_ms
            .map(|ms| Duration::from_millis(ms.max(1)))
            .unwrap_or(Self::DEFAULT_READ_TIMEOUT)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            deadline_ms: None,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

/// Every attempt failed at the transport level; the request never reached a
/// terminal answer.
#[derive(Debug)]
pub struct RetriesExhausted {
    /// Attempts made (first try + retries).
    pub attempts: u32,
    /// The transport error from the final attempt.
    pub last_error: std::io::Error,
}

impl std::fmt::Display for RetriesExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request failed after {} attempt(s): {}",
            self.attempts, self.last_error
        )
    }
}

impl std::error::Error for RetriesExhausted {}

impl From<RetriesExhausted> for std::io::Error {
    fn from(e: RetriesExhausted) -> Self {
        std::io::Error::new(e.last_error.kind(), e.to_string())
    }
}

/// A reconnecting, retrying call/response client.
///
/// Connections are dialled lazily and redialled (with backoff) after any
/// transport failure; see the [module docs](self) for the policy.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    inner: Option<ScoringClient>,
    next_id: u64,
}

impl ResilientClient {
    /// Create a client for `addr` (dialled on first use).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        ResilientClient {
            addr: addr.into(),
            policy,
            inner: None,
            next_id: 1,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The next fresh request id (each call advances the counter).
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn connected(&mut self) -> std::io::Result<&mut ScoringClient> {
        if self.inner.is_none() {
            let client = ScoringClient::connect(resolve(&self.addr)?)?;
            client.set_read_timeout(Some(self.policy.read_timeout()))?;
            self.inner = Some(client);
        }
        Ok(self.inner.as_mut().expect("connected above"))
    }

    /// One send/recv attempt. Any error invalidates the connection: even a
    /// timeout leaves an unanswered request (and possibly a partial frame)
    /// on the wire, so the next attempt starts from a fresh dial.
    fn attempt(&mut self, request: &ScoreRequest) -> std::io::Result<ScoreResponse> {
        let client = self.connected()?;
        let outcome = client.send(request).and_then(|()| {
            loop {
                let response = client.recv()?;
                // Stale answers from an earlier life of this id (possible
                // only with reused addresses) are skipped, not fatal.
                if response.id == request.id {
                    return Ok(response);
                }
            }
        });
        if outcome.is_err() {
            self.inner = None;
        }
        outcome
    }

    /// Send `request` until it reaches a terminal state: a successful
    /// response, a typed terminal protocol error, or exhausted retries.
    ///
    /// The policy's deadline is attached to the request (overriding only an
    /// unset `deadline_ms`). A typed `"overloaded"` shed backs off and
    /// retries like a transport failure — the server explicitly asked for
    /// exactly that.
    pub fn call(&mut self, mut request: ScoreRequest) -> Result<ScoreResponse, RetriesExhausted> {
        if request.deadline_ms.is_none() {
            request.deadline_ms = self.policy.deadline_ms;
        }
        let attempts = 1 + self.policy.retries;
        let mut last_error = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff_delay(attempt - 1));
            }
            match self.attempt(&request) {
                Ok(response) if response.error_kind.as_deref() == Some("overloaded") => {
                    last_error = Some(std::io::Error::new(
                        std::io::ErrorKind::ResourceBusy,
                        response
                            .error
                            .unwrap_or_else(|| "server overloaded".to_owned()),
                    ));
                }
                Ok(response) => return Ok(response),
                Err(e) => last_error = Some(e),
            }
        }
        Err(RetriesExhausted {
            attempts,
            last_error: last_error.unwrap_or_else(|| std::io::Error::other("no attempts made")),
        })
    }

    /// Score a batch against an inline reference text.
    pub fn score_text(
        &mut self,
        reference_text: &str,
        hypotheses: Vec<String>,
    ) -> Result<ScoreResponse, RetriesExhausted> {
        let request = ScoreRequest::by_text(self.fresh_id(), reference_text, hypotheses);
        self.call(request)
    }

    /// Full-pipeline evaluation against an inline reference text.
    pub fn evaluate_text(
        &mut self,
        reference_text: &str,
        system: &str,
        responses: Vec<String>,
    ) -> Result<ScoreResponse, RetriesExhausted> {
        let request =
            ScoreRequest::evaluate_text(self.fresh_id(), reference_text, system, responses);
        self.call(request)
    }

    /// Dynamic execution against the built-in execution reference.
    pub fn execute(
        &mut self,
        system: &str,
        responses: Vec<String>,
    ) -> Result<ScoreResponse, RetriesExhausted> {
        let request = ScoreRequest::execute(self.fresh_id(), system, responses);
        self.call(request)
    }

    /// Fetch the server's lifetime counters.
    pub fn stats(&mut self) -> Result<ServiceStats, RetriesExhausted> {
        let request = ScoreRequest::stats(self.fresh_id());
        let response = self.call(request)?;
        response.stats.ok_or_else(|| RetriesExhausted {
            attempts: 1,
            last_error: std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stats response carried no stats",
            ),
        })
    }

    /// Drop the current connection (if any); the next call redials.
    pub fn disconnect(&mut self) {
        if let Some(client) = self.inner.take() {
            client.close();
        }
    }
}

/// Resolve an address string eagerly so a bad address is an error, not a
/// retry loop.
fn resolve(addr: &str) -> std::io::Result<std::net::SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("address `{addr}` resolved to nothing"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RetryPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(75),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff_delay(0), Duration::from_millis(10));
        assert_eq!(policy.backoff_delay(1), Duration::from_millis(20));
        assert_eq!(policy.backoff_delay(2), Duration::from_millis(40));
        assert_eq!(policy.backoff_delay(3), Duration::from_millis(75));
        assert_eq!(policy.backoff_delay(60), Duration::from_millis(75));
    }

    #[test]
    fn backoff_is_deterministic() {
        let policy = RetryPolicy::default();
        for attempt in 0..8 {
            assert_eq!(
                policy.backoff_delay(attempt),
                policy.backoff_delay(attempt),
                "no jitter: replayed runs must wait identically"
            );
        }
    }

    #[test]
    fn read_timeout_tracks_the_deadline() {
        let with = RetryPolicy {
            deadline_ms: Some(250),
            ..RetryPolicy::default()
        };
        assert_eq!(with.read_timeout(), Duration::from_millis(250));
        let without = RetryPolicy {
            deadline_ms: None,
            ..RetryPolicy::default()
        };
        assert_eq!(without.read_timeout(), RetryPolicy::DEFAULT_READ_TIMEOUT);
    }

    #[test]
    fn unreachable_servers_exhaust_retries_quickly() {
        // Port 1 on loopback: connection refused, immediately.
        let mut client = ResilientClient::new(
            "127.0.0.1:1",
            RetryPolicy {
                retries: 2,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                ..RetryPolicy::default()
            },
        );
        let error = client.score_text("ref", vec!["x".to_owned()]).unwrap_err();
        assert_eq!(error.attempts, 3);
    }
}
