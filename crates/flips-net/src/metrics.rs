//! The health plane: Prometheus text exposition of the runtime's
//! counters, served over HTTP by the same event loop that moves frames.
//!
//! Two endpoints exist on the health listener:
//!
//! - `/healthz` — liveness, always `200 ok`;
//! - `/metrics` — Prometheus [text exposition format] (version 0.0.4):
//!   `# HELP` / `# TYPE` comment pair, then one sample per line.
//!
//! Rendering is a pure function of a counter snapshot
//! ([`render_server_metrics`] / [`render_party_metrics`]), so the
//! format is unit-testable without a socket anywhere in sight. The
//! [`HealthPlane`] owns the listener and its connections and plugs into
//! the event loop by token range: everything at or above
//! [`HealthPlane::BASE_TOKEN`] is health traffic.
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::link::net_err;
use flips_fl::{DriverStats, FlError};
use mio::{Interest, Registry, Token};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Appends one metric: `# HELP` / `# TYPE` comments plus the sample.
fn metric(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str(name);
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Renders the coordinator's counters — every [`DriverStats::COUNTERS`]
/// row, the guard's breaker-transition count and the checkpoint count —
/// and run-level gauges.
pub fn render_server_metrics(
    stats: &DriverStats,
    breaker_transitions: u64,
    checkpoint_rounds: u64,
    jobs: u64,
    finished: bool,
) -> String {
    let mut out = String::with_capacity(2048);
    let mut words = *stats;
    for c in &DriverStats::COUNTERS {
        metric(&mut out, c.name, "counter", c.help, *(c.word)(&mut words));
    }
    metric(
        &mut out,
        "flips_breaker_transitions_total",
        "counter",
        "Guard-plane breaker state transitions.",
        breaker_transitions,
    );
    metric(
        &mut out,
        "flips_checkpoint_rounds_total",
        "counter",
        "Round boundaries snapshotted to the checkpoint directory.",
        checkpoint_rounds,
    );
    metric(&mut out, "flips_jobs", "gauge", "Jobs registered on this coordinator.", jobs);
    metric(
        &mut out,
        "flips_run_complete",
        "gauge",
        "1 once every job has exhausted its round budget.",
        u64::from(finished),
    );
    out
}

/// A party-side counter snapshot (the [`PartyPool`](flips_fl::PartyPool)
/// observability counters plus the link slot served).
#[derive(Debug, Clone, Copy, Default)]
pub struct PartySnapshot {
    /// The link slot this worker serves.
    pub shard: u32,
    /// Endpoints hosted across all jobs.
    pub parties: u64,
    /// Frames addressed to an endpoint this pool does not own.
    pub unroutable: u64,
    /// Routable frames an endpoint refused.
    pub rejected: u64,
    /// Frames whose payload codec disagreed with the pinned codec.
    pub codec_mismatch: u64,
    /// Mid-job renegotiation attempts refused.
    pub renegotiations_rejected: u64,
    /// Frames dropped by the guard size cap.
    pub oversized: u64,
}

/// Renders a party worker's counters.
pub fn render_party_metrics(snap: &PartySnapshot) -> String {
    let mut out = String::with_capacity(1024);
    metric(
        &mut out,
        "flips_party_shard",
        "gauge",
        "Link slot this worker serves.",
        snap.shard.into(),
    );
    metric(
        &mut out,
        "flips_party_endpoints",
        "gauge",
        "Endpoints hosted across all jobs.",
        snap.parties,
    );
    let counters: [(&str, &str, u64); 5] = [
        (
            "flips_party_unroutable_total",
            "Frames for an endpoint this pool does not own.",
            snap.unroutable,
        ),
        ("flips_party_rejected_total", "Routable frames an endpoint refused.", snap.rejected),
        (
            "flips_party_codec_mismatch_total",
            "Payloads disagreeing with the pinned codec.",
            snap.codec_mismatch,
        ),
        (
            "flips_party_renegotiations_rejected_total",
            "Mid-job renegotiation attempts refused.",
            snap.renegotiations_rejected,
        ),
        ("flips_party_oversized_total", "Frames dropped by the guard size cap.", snap.oversized),
    ];
    for (name, help, value) in counters {
        metric(&mut out, name, "counter", help, value);
    }
    out
}

/// An HTTP connection mid-request.
struct HealthConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// The event-loop resident serving `/healthz` and `/metrics`.
///
/// Constructed over an (optional) pre-bound listener; a plane without a
/// listener is inert, so callers need no conditional wiring. Tokens at
/// or above [`HealthPlane::BASE_TOKEN`] belong to the plane.
pub struct HealthPlane {
    listener: Option<TcpListener>,
    conns: HashMap<usize, HealthConn>,
    next_token: usize,
}

impl HealthPlane {
    /// First token the plane claims (the listener; connections follow).
    /// Data links use small tokens; one million leaves room for a few
    /// hundred thousand of them.
    pub const BASE_TOKEN: usize = 1_000_000;

    /// Wraps `listener` (switched to nonblocking) — or builds an inert
    /// plane from `None`.
    ///
    /// # Errors
    ///
    /// Propagates the nonblocking switch failing.
    pub fn new(listener: Option<TcpListener>) -> Result<HealthPlane, FlError> {
        if let Some(l) = &listener {
            l.set_nonblocking(true).map_err(net_err)?;
        }
        Ok(HealthPlane { listener, conns: HashMap::new(), next_token: Self::BASE_TOKEN + 1 })
    }

    /// Registers the listener with the event loop (no-op when inert).
    ///
    /// # Errors
    ///
    /// Propagates registration failure.
    pub fn register(&self, registry: &Registry) -> Result<(), FlError> {
        if let Some(l) = &self.listener {
            registry.register(l, Token(Self::BASE_TOKEN), Interest::READABLE).map_err(net_err)?;
        }
        Ok(())
    }

    /// Whether `token` belongs to the plane.
    pub fn owns(&self, token: usize) -> bool {
        token >= Self::BASE_TOKEN
    }

    /// Advances the plane on a readiness event for `token`: accepts new
    /// connections, reads requests, and answers complete ones with
    /// `render_metrics()` for `/metrics`. Call only when
    /// [`HealthPlane::owns`] the token.
    ///
    /// # Errors
    ///
    /// Registration failures propagate; per-connection I/O errors just
    /// drop the connection (a scraper's problem, not the run's).
    pub fn handle(
        &mut self,
        registry: &Registry,
        token: usize,
        render_metrics: &mut dyn FnMut() -> String,
    ) -> Result<(), FlError> {
        if token == Self::BASE_TOKEN {
            let Some(listener) = &self.listener else { return Ok(()) };
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let t = self.next_token;
                        self.next_token += 1;
                        registry
                            .register(&stream, Token(t), Interest::READABLE)
                            .map_err(net_err)?;
                        self.conns.insert(t, HealthConn { stream, buf: Vec::new() });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
            return Ok(());
        }
        let Some(mut conn) = self.conns.remove(&token) else { return Ok(()) };
        let mut chunk = [0u8; 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    let _ = registry.deregister(&conn.stream);
                    return Ok(());
                }
                Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    let _ = registry.deregister(&conn.stream);
                    return Ok(());
                }
            }
            if conn.buf.len() > 8 * 1024 {
                let _ = registry.deregister(&conn.stream);
                return Ok(());
            }
        }
        if !conn.buf.windows(4).any(|w| w == b"\r\n\r\n") {
            // Request still incomplete; keep waiting.
            self.conns.insert(token, conn);
            return Ok(());
        }
        let path = request_path(&conn.buf).unwrap_or_default();
        let (status, body) = match path.as_str() {
            "/healthz" => ("200 OK", "ok\n".to_string()),
            "/metrics" => ("200 OK", render_metrics()),
            _ => ("404 Not Found", "not found\n".to_string()),
        };
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = registry.deregister(&conn.stream);
        // Responses are a few KiB — comfortably inside a fresh socket
        // buffer — so a brief blocking write is simpler than tracking
        // write progress across loop iterations.
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn.stream.write_all(response.as_bytes());
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        Ok(())
    }
}

/// Extracts the request path from an HTTP request head.
fn request_path(head: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(head).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let _method = parts.next()?;
    parts.next().map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_exposition_is_well_formed_prometheus_text() {
        let stats = DriverStats {
            frames_sent: 120,
            frames_received: 98,
            bytes_sent: 1 << 20,
            bytes_received: 900_000,
            corrupt_frames: 2,
            codec_mismatch_frames: 1,
            unknown_job_frames: 3,
            rejected_messages: 4,
            late_updates: 5,
            oversized_frames: 6,
            rate_limited_frames: 7,
            breaker_dropped_frames: 8,
            admission_refused_frames: 9,
            parties_ejected: 1,
            drain_refused_selections: 0,
            links_lost: 2,
            links_resumed: 1,
            roster_spilled: 11,
            roster_loaded: 37,
        };
        let text = render_server_metrics(&stats, 2, 4, 3, true);
        // Every sample line is preceded by its HELP and TYPE comments,
        // in that order, and carries the snapshot's exact value.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() % 3, 0, "HELP/TYPE/sample triples");
        for triple in lines.chunks(3) {
            let name = triple[0].split_whitespace().nth(2).unwrap();
            assert!(triple[0].starts_with(&format!("# HELP {name} ")));
            assert!(
                triple[1].starts_with(&format!("# TYPE {name} counter"))
                    || triple[1].starts_with(&format!("# TYPE {name} gauge"))
            );
            let mut sample = triple[2].split_whitespace();
            assert_eq!(sample.next(), Some(name));
            sample.next().unwrap().parse::<u64>().expect("numeric sample");
        }
        assert!(text.contains("flips_frames_sent_total 120\n"));
        assert!(text.contains("flips_late_updates_total 5\n"));
        assert!(text.contains("flips_breaker_transitions_total 2\n"));
        assert!(text.contains("flips_links_lost_total 2\n"));
        assert!(text.contains("flips_link_resumes_total 1\n"));
        assert!(text.contains("flips_checkpoint_rounds_total 4\n"));
        assert!(text.contains("flips_roster_segments_spilled_total 11\n"));
        assert!(text.contains("flips_roster_segments_loaded_total 37\n"));
        assert!(text.contains("flips_jobs 3\n"));
        assert!(text.contains("flips_run_complete 1\n"));
    }

    /// A literal names every field, so adding one to [`DriverStats`]
    /// without a table row fails to compile here or fails the asserts:
    /// each of the 19 distinct values is read through the table once,
    /// the checkpoint keeps the 17 persisted ones and zeroes the roster
    /// pair, and the exposition carries each counter's family once.
    #[test]
    fn every_driver_counter_has_one_row_one_checkpoint_word_and_one_family() {
        let stats = DriverStats {
            frames_sent: 1,
            frames_received: 2,
            bytes_sent: 3,
            bytes_received: 4,
            corrupt_frames: 5,
            codec_mismatch_frames: 6,
            unknown_job_frames: 7,
            rejected_messages: 8,
            late_updates: 9,
            oversized_frames: 10,
            rate_limited_frames: 11,
            breaker_dropped_frames: 12,
            admission_refused_frames: 13,
            parties_ejected: 14,
            drain_refused_selections: 15,
            links_lost: 16,
            links_resumed: 17,
            roster_spilled: 18,
            roster_loaded: 19,
        };
        let read = |mut s: DriverStats| -> Vec<u64> {
            DriverStats::COUNTERS.iter().map(|c| *(c.word)(&mut s)).collect()
        };
        let mut values = read(stats);
        values.sort_unstable();
        assert_eq!(values, (1..=19).collect::<Vec<u64>>());

        let cp = flips_fl::Checkpoint {
            tick: 0,
            draining: false,
            stats,
            jobs: Vec::new(),
            guard: None,
            codec_refs: Vec::new(),
        };
        let back = flips_fl::Checkpoint::decode(&cp.encode()).unwrap().stats;
        let mut expected = read(stats);
        expected[DriverStats::PERSISTED..].fill(0);
        assert_eq!(read(back), expected, "the roster pair is last and never persisted");

        let text = render_server_metrics(&stats, 0, 0, 0, false);
        let mut s = stats;
        for c in &DriverStats::COUNTERS {
            let sample = format!("{} {}", c.name, (c.word)(&mut s));
            assert_eq!(text.lines().filter(|l| *l == sample).count(), 1, "{sample}");
            let kind = format!("# TYPE {} counter", c.name);
            assert_eq!(text.lines().filter(|l| *l == kind).count(), 1, "{kind}");
        }
    }

    #[test]
    fn party_exposition_carries_the_pool_counters() {
        let snap = PartySnapshot {
            shard: 2,
            parties: 6,
            unroutable: 1,
            rejected: 2,
            codec_mismatch: 3,
            renegotiations_rejected: 4,
            oversized: 5,
        };
        let text = render_party_metrics(&snap);
        assert!(text.contains("flips_party_shard 2\n"));
        assert!(text.contains("flips_party_endpoints 6\n"));
        assert!(text.contains("flips_party_unroutable_total 1\n"));
        assert!(text.contains("flips_party_rejected_total 2\n"));
        assert!(text.contains("flips_party_codec_mismatch_total 3\n"));
        assert!(text.contains("flips_party_renegotiations_rejected_total 4\n"));
        assert!(text.contains("flips_party_oversized_total 5\n"));
    }

    #[test]
    fn zeroed_stats_render_zero_samples_not_missing_ones() {
        let text = render_server_metrics(&DriverStats::default(), 0, 0, 0, false);
        assert!(text.contains("flips_frames_sent_total 0\n"));
        assert!(text.contains("flips_run_complete 0\n"));
    }

    #[test]
    fn request_path_parses_the_request_line() {
        assert_eq!(
            request_path(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").as_deref(),
            Some("/metrics")
        );
        assert_eq!(request_path(b"GET /healthz HTTP/1.0\r\n\r\n").as_deref(), Some("/healthz"));
        assert_eq!(request_path(b"garbage"), None);
    }
}
