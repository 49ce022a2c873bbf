//! Hand-rolled blocking HTTP/1.1 exposition server.
//!
//! Serves five read-only endpoints off the global telemetry state:
//!
//! - `/metrics` — Prometheus text exposition ([`crate::prometheus`])
//! - `/healthz` — JSON liveness summary (round number, quorum status,
//!   connected clients, uptime, memory headline figures, pool queue
//!   depth, wire byte counters)
//! - `/trace.json` — the newest completed spans (with per-span
//!   allocation attribution when the tracking allocator is installed),
//!   plus the count of spans the span store evicted at its cap
//! - `/rounds.json` — the per-round federation timeline with
//!   round-phase SLO quantiles ([`crate::rounds`])
//! - `/memory.json` — the reconciled memory breakdown
//!   ([`crate::memory`])
//!
//! The server follows the `rhychee-net` socket idioms: a nonblocking
//! accept loop polled on a short sleep (so shutdown needs no self-
//! connect), blocking per-connection I/O with hard timeouts, and
//! `Connection: close` on every response — one request per connection,
//! which is exactly how Prometheus scrapes. Requests are bounded at
//! `MAX_REQUEST_BYTES` before any allocation-heavy parsing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use rhychee_telemetry as telemetry;
use rhychee_telemetry::json::JsonObject;

use crate::prometheus;

/// Accept-loop poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Hard cap on request head size; larger requests are rejected.
pub(crate) const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A bound-but-not-yet-serving exposition server.
#[derive(Debug)]
pub struct ObsServer {
    listener: TcpListener,
}

impl ObsServer {
    /// Binds the exposition listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(ObsServer { listener: TcpListener::bind(addr)? })
    }

    /// The bound scrape address.
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts serving on a background thread and returns the handle that
    /// owns it. The handle stops the server on [`ObsHandle::shutdown`] or
    /// drop.
    ///
    /// # Errors
    ///
    /// Propagates failures switching the listener to nonblocking mode.
    pub fn spawn(self) -> io::Result<ObsHandle> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let listener = self.listener;
        let join = thread::Builder::new()
            .name("rhychee-obs".into())
            .spawn(move || accept_loop(&listener, &stop_flag))?;
        Ok(ObsHandle { addr, stop, join: Some(join) })
    }
}

/// Owns a running exposition server; stops it on shutdown or drop.
#[derive(Debug)]
pub struct ObsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ObsHandle {
    /// The address scrapers should target.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ObsHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_connection(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => break,
        }
    }
}

fn handle_connection(mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = match read_request_head(&mut stream) {
        Ok(head) => head,
        Err(_) => {
            return write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "malformed request\n",
            );
        }
    };
    let mut parts = head.lines().next().unwrap_or("").split(' ');
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let path = target.split('?').next().unwrap_or("");
    if method != "GET" {
        return write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    match path {
        "/metrics" => {
            let body = prometheus::render(&telemetry::metrics::global().snapshot());
            write_response(&mut stream, "200 OK", "text/plain; version=0.0.4", &body)
        }
        "/healthz" => write_response(&mut stream, "200 OK", "application/json", &health_body()),
        "/trace.json" => write_response(&mut stream, "200 OK", "application/json", &trace_body()),
        "/rounds.json" => {
            write_response(&mut stream, "200 OK", "application/json", &crate::rounds::render_json())
        }
        "/memory.json" => {
            write_response(&mut stream, "200 OK", "application/json", &crate::memory::memory_body())
        }
        _ => write_response(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics, /healthz, /trace.json, /rounds.json or /memory.json\n",
        ),
    }
}

/// Reads until the end of the request head (`\r\n\r\n`), bounded by
/// [`MAX_REQUEST_BYTES`]. Request bodies are neither expected nor read.
fn read_request_head(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok(String::from_utf8_lossy(&buf).into_owned());
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(io::ErrorKind::InvalidData.into());
        }
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The `/healthz` JSON body, assembled from the well-known gauges the
/// `FlServer` round loop publishes (DESIGN.md §10). Gauges that were
/// never set read as their zero default.
fn health_body() -> String {
    let reg = telemetry::metrics::global();
    // Scenario-engine state (DESIGN.md §13): the `fl.scenario.*` gauges
    // and counters the rhychee-scenario runner publishes. All zero when
    // no scenario ever ran in this process.
    let scenario = JsonObject::new()
        .bool("active", reg.gauge("fl.scenario.active").get() != 0.0)
        .u64("attackers", reg.gauge("fl.scenario.attackers").get() as u64)
        .u64("attacks_injected", reg.counter("fl.scenario.attacks_injected").get())
        .u64("updates_clipped", reg.counter("fl.scenario.updates_clipped").get())
        .u64("clients_churned", reg.counter("fl.scenario.clients_churned").get())
        .u64("stragglers_dropped", reg.counter("fl.scenario.stragglers_dropped").get())
        .u64("threshold_recoveries", reg.counter("fl.scenario.threshold_recoveries").get())
        .u64(
            "threshold_recovery_failures",
            reg.counter("fl.scenario.threshold_recovery_failures").get(),
        )
        .finish();
    // Memory headline figures, read at scrape time from the same sources
    // as /memory.json.
    let heap = telemetry::alloc::stats();
    let (rss_now, rss_peak) = telemetry::mem::sample_rss().unwrap_or((0, 0));
    let memory = JsonObject::new()
        .u64("heap_live_bytes", heap.live_bytes)
        .u64("heap_peak_bytes", heap.peak_bytes)
        .u64("rss_bytes", rss_now)
        .u64("rss_peak_bytes", rss_peak)
        .finish();
    JsonObject::new()
        .str("status", "ok")
        .f64("uptime_s", telemetry::mem::uptime_seconds())
        .u64("round", reg.gauge("fl.round.current").get() as u64)
        .u64("rounds_total", reg.gauge("fl.rounds.total").get() as u64)
        .u64("clients_connected", reg.gauge("fl.clients.connected").get() as u64)
        .bool("quorum_met", reg.gauge("fl.quorum.met").get() != 0.0)
        .u64("pool_queue_depth", reg.gauge("par.queue.depth").get() as u64)
        .u64("bytes_tx", reg.counter("net.bytes_tx").get())
        .u64("bytes_rx", reg.counter("net.bytes_rx").get())
        .u64("rejoined_clients", reg.counter("net.rejoins").get())
        .u64("resident_uploads", reg.gauge("net.agg.resident_uploads").get() as u64)
        .u64("peak_resident_uploads", reg.gauge("net.agg.peak_resident_uploads").get() as u64)
        .u64("round_stalls", reg.counter("fl.round.stalled").get())
        .raw("memory", &memory)
        .raw("scenario", &scenario)
        .finish()
}

/// The `/trace.json` body: the newest recorded spans, oldest first,
/// prefixed with how many spans the store has evicted since process
/// start.
fn trace_body() -> String {
    let events = telemetry::trace::recent_events();
    let dropped = telemetry::metrics::global().counter("telemetry.trace.dropped").get();
    let mut out = format!("{{\"dropped\":{dropped},\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut obj = JsonObject::new();
        e.write_json(&mut obj);
        out.push_str(&obj.finish());
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("recv");
        let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
        (head.lines().next().expect("status line").to_owned(), body.to_owned())
    }

    fn serve() -> ObsHandle {
        ObsServer::bind("127.0.0.1:0").expect("bind").spawn().expect("spawn")
    }

    #[test]
    fn serves_metrics_healthz_and_trace() {
        let reg = telemetry::metrics::global();
        reg.gauge("fl.round.current").set(2.0);
        reg.counter("net.bytes_tx").add(100);
        let mut h = serve();
        let addr = h.addr();

        let (status, body) = get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("# TYPE rhychee_fl_round_current gauge"), "{body}");
        assert!(body.contains("rhychee_net_bytes_tx_total"), "{body}");

        let (status, body) = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"round\":2"), "{body}");
        assert!(body.contains("\"uptime_s\":"), "{body}");
        assert!(body.contains("\"peak_resident_uploads\":"), "{body}");
        assert!(body.contains("\"round_stalls\":"), "{body}");
        assert!(body.contains("\"memory\":{\"heap_live_bytes\":"), "{body}");
        assert!(body.contains("\"scenario\":{"), "{body}");
        assert!(body.contains("\"attacks_injected\":"), "{body}");

        let (status, body) = get(addr, "GET /memory.json HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"heap\":{\"installed\":"), "{body}");
        assert!(body.contains("\"sources\":{"), "{body}");

        let (status, body) = get(addr, "GET /trace.json?limit=5 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with("{\"dropped\":"), "{body}");
        assert!(body.contains("\"events\":["), "{body}");

        let (status, body) = get(addr, "GET /rounds.json HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with("{\"rounds\":["), "{body}");
        assert!(body.contains("\"phases\":{"), "{body}");

        h.shutdown();
    }

    #[test]
    fn rejects_unknown_paths_and_methods() {
        let h = serve();
        let (status, _) = get(h.addr(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        let (status, _) = get(h.addr(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let mut h = serve();
        h.shutdown();
        h.shutdown();
        drop(h);
    }
}
