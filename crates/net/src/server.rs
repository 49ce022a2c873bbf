//! The federated server: accepts client connections, broadcasts the
//! global model, collects encrypted updates, and aggregates — without
//! ever holding a decryption key.
//!
//! The server is a round state machine with I/O at its edges. The
//! machine (the private `coordinator` module) owns every decision and
//! touches no socket:
//!
//! ```text
//!   Accept ──broadcast──► Collect(r) ──close──► Closed ──broadcast──► Collect(r+1) ─ …
//!                          ▲      │                │
//!                          └──────┘                └──broadcast, r == rounds──► Done
//!                      upload │ dropped                 (`Global{last}`, same transition)
//! ```
//!
//! Three kinds of thread surround it. The caller's thread
//! ([`FlServer::run`]) drives the transitions: it waits on channels
//! against the accept and round deadlines and feeds the machine what
//! arrives. One acceptor thread completes Hello/Welcome handshakes for
//! the whole run. One blocking-I/O handler thread per connection writes
//! what the machine tells it to (each broadcast is framed once and every
//! handler writes the same bytes), reads one upload per broadcast, and
//! forwards the payload bytes untouched. Protocol logic stays
//! single-threaded even though I/O is not. Aggregation fans out on the
//! shared `rhychee-par` pool at the configured [`Parallelism`]; the
//! result is bit-identical at every degree.
//!
//! Reconnections ([`ServerConfigBuilder::allow_rejoin`]) are queued by
//! the acceptor and become participants at the next broadcast, the
//! final one included — never mid-round, so a client cannot contribute
//! twice to one round, and a client that is back before the session
//! ends receives the final model.
//!
//! Straggler policy: a round closes as soon as every live client has
//! reported, or at the round deadline. At the deadline the round
//! aggregates if at least `quorum` updates arrived — averaging over the
//! reporting subset — and fails with [`NetError::QuorumNotReached`]
//! otherwise. Uploads for any other round (and duplicates) are NACKed
//! with `UpdateAck { accepted: false }` and never touch the aggregate.
//!
//! Aggregation: the coordinator folds each upload into the round's
//! [`ServerHalf`](rhychee_core::ServerHalf) the moment its frame
//! arrives — the half the in-process `Framework` runs too. Under CKKS
//! and LWE, handler reads gate on a resident-upload permit
//! ([`ServerConfigBuilder::max_resident_uploads`]) released right after
//! the fold, so server memory is O(accumulator + permits), independent
//! of client count — late clients wait in TCP backpressure, not in
//! server buffers. The closed sum is **bit-identical** for every arrival
//! order, [`Aggregation::FedNova`] included.

use std::collections::HashSet;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rhychee_core::packing;
use rhychee_core::round::ClientUpdate;
use rhychee_core::{Aggregation, Parallelism};
use rhychee_fhe::params::{CkksParams, LweParams};
use rhychee_obs::{ObsHandle, ObsServer, Watchdog};
use rhychee_telemetry as telemetry;

use crate::codec::{CanonicalCodec, WireCodec};
use crate::error::NetError;
use crate::residency::Residency;
use crate::wire::{self, Message, TraceContext, DEFAULT_MAX_PAYLOAD};

mod coordinator;

use coordinator::{Coordinator, HandlerCmd, Peer, ServerEvent, Upload};

/// How the server transports and aggregates model payloads.
pub enum ServerPipeline {
    /// Plaintext `f32` parameters, plain FedAvg.
    Plaintext,
    /// Packed CKKS ciphertexts, homomorphic FedAvg. The server builds
    /// only the evaluation context from these parameters — key
    /// generation happens client-side and no key ever reaches here.
    /// The wire format is the config's [`WireCodec`]
    /// ([`ServerConfigBuilder::codec`]; canonical by default).
    Ckks(CkksParams),
    /// One LWE ciphertext per parameter, summed by ciphertext addition;
    /// the broadcast carries the sums and the contributor count. Like
    /// CKKS, the server holds only the evaluation context.
    Lwe(LweParams),
}

/// Server-side run configuration.
///
/// Built with [`ServerConfig::builder`], mirroring
/// [`FlConfig::builder`](rhychee_core::FlConfig::builder): every knob is
/// set through the builder and checked once in
/// [`ServerConfigBuilder::build`], so a constructed config is always
/// valid.
///
/// ```
/// use rhychee_net::ServerConfig;
///
/// let cfg = ServerConfig::builder()
///     .clients(4)
///     .rounds(3)
///     .model_params(1024)
///     .quorum(3)
///     .build()
///     .expect("valid server config");
/// assert!(ServerConfig::builder().clients(4).quorum(5).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    clients: usize,
    quorum: usize,
    rounds: usize,
    model_params: usize,
    aggregation: Aggregation,
    io_timeout: Duration,
    round_timeout: Duration,
    accept_timeout: Duration,
    max_payload: u32,
    parallelism: Parallelism,
    obs_addr: Option<String>,
    allow_rejoin: bool,
    codec: Arc<dyn WireCodec>,
    packing: packing::PackingConfig,
    max_resident_uploads: usize,
    watchdog_multiple: f64,
    flight_dump_dir: Option<PathBuf>,
}

impl ServerConfig {
    /// Starts a builder with loopback defaults: full quorum, 5 s I/O
    /// timeout, 30 s round and accept windows, automatic parallelism.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::default()
    }

    fn validate(&self) -> Result<(), NetError> {
        if self.clients == 0 || self.rounds == 0 || self.model_params == 0 {
            return Err(NetError::Protocol(
                "clients, rounds, and model_params must be positive".into(),
            ));
        }
        if self.quorum == 0 || self.quorum > self.clients {
            return Err(NetError::Protocol(format!(
                "quorum {} must be in 1..={}",
                self.quorum, self.clients
            )));
        }
        if self.max_resident_uploads == 0 {
            return Err(NetError::Protocol("max_resident_uploads must be positive".into()));
        }
        // A socket refuses a zero read timeout, so either would fail
        // every connection at run time.
        if self.io_timeout.is_zero() || self.round_timeout.is_zero() {
            return Err(NetError::Protocol("io_timeout and round_timeout must be positive".into()));
        }
        if !self.watchdog_multiple.is_finite() || self.watchdog_multiple < 0.0 {
            return Err(NetError::Protocol(
                "round_watchdog multiple must be finite and non-negative".into(),
            ));
        }
        self.packing.check_federation(self.aggregation, self.clients)?;
        Ok(())
    }
}

/// Builder for [`ServerConfig`]; see [`ServerConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
    /// Unset means "all clients", known only once `clients` is final.
    quorum: Option<usize>,
}

impl Default for ServerConfigBuilder {
    fn default() -> Self {
        ServerConfigBuilder {
            config: ServerConfig {
                clients: 0,
                quorum: 0,
                rounds: 0,
                model_params: 0,
                aggregation: Aggregation::FedAvg,
                io_timeout: Duration::from_secs(5),
                round_timeout: Duration::from_secs(30),
                accept_timeout: Duration::from_secs(30),
                max_payload: DEFAULT_MAX_PAYLOAD,
                parallelism: Parallelism::Auto,
                obs_addr: None,
                allow_rejoin: false,
                codec: Arc::new(CanonicalCodec),
                packing: packing::PackingConfig::dense(),
                max_resident_uploads: 4,
                watchdog_multiple: 0.0,
                flight_dump_dir: None,
            },
            quorum: None,
        }
    }
}

impl ServerConfigBuilder {
    /// Clients expected to connect (required, > 0).
    pub fn clients(mut self, clients: usize) -> Self {
        self.config.clients = clients;
        self
    }

    /// Minimum updates to close a round (defaults to all clients).
    pub fn quorum(mut self, quorum: usize) -> Self {
        self.quorum = Some(quorum);
        self
    }

    /// Aggregation rounds to run (required, > 0).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.config.rounds = rounds;
        self
    }

    /// Trainable parameter count `D × L` (required, > 0).
    pub fn model_params(mut self, model_params: usize) -> Self {
        self.config.model_params = model_params;
        self
    }

    /// Aggregation rule (default [`Aggregation::FedAvg`]). Under CKKS it
    /// must equal every client's `FlConfig::aggregation`: FedNova
    /// clients pre-scale their uploads by `1/τ`, which only the FedNova
    /// close (`1/Σ(1/τ)`) undoes.
    pub fn aggregation(mut self, aggregation: Aggregation) -> Self {
        self.config.aggregation = aggregation;
        self
    }

    /// Socket write / handshake-read timeout (default 5 s; must be
    /// positive).
    pub fn io_timeout(mut self, io_timeout: Duration) -> Self {
        self.config.io_timeout = io_timeout;
        self
    }

    /// Collection window per round (default 30 s; must be positive).
    pub fn round_timeout(mut self, round_timeout: Duration) -> Self {
        self.config.round_timeout = round_timeout;
        self
    }

    /// Window for all clients to connect (default 30 s).
    pub fn accept_timeout(mut self, accept_timeout: Duration) -> Self {
        self.config.accept_timeout = accept_timeout;
        self
    }

    /// Frame payload cap in bytes (default [`DEFAULT_MAX_PAYLOAD`]).
    pub fn max_payload(mut self, max_payload: u32) -> Self {
        self.config.max_payload = max_payload;
        self
    }

    /// Degree for aggregation math (default [`Parallelism::Auto`]).
    /// Results are bit-identical at every degree.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Enables the live observability plane on `addr` (e.g.
    /// `"127.0.0.1:9090"`, port 0 for OS-assigned): [`FlServer::bind`]
    /// starts an HTTP server exposing `/metrics`, `/healthz`,
    /// `/trace.json` and `/rounds.json`, switches telemetry recording
    /// on process-wide, and the round loop publishes the `fl.*` gauges
    /// plus one round-timeline record per round.
    /// Default: disabled.
    pub fn obs_addr(mut self, addr: impl Into<String>) -> Self {
        self.config.obs_addr = Some(addr.into());
        self
    }

    /// Lets a departed client reconnect with the same id and resume at
    /// the next broadcast, the final one included (default: off).
    /// Rejoins take effect between rounds, so a client can never
    /// contribute two updates to one round: the round it reconnects
    /// during already counts it as dropped, and the round's own dedupe
    /// rejects any duplicate id regardless.
    pub fn allow_rejoin(mut self, allow_rejoin: bool) -> Self {
        self.config.allow_rejoin = allow_rejoin;
        self
    }

    /// Selects the CKKS wire codec uploads must arrive in (default
    /// [`CanonicalCodec`]). Both endpoints of a federation must agree;
    /// clients set the matching codec on
    /// [`ClientConfig::codec`](crate::client::ClientConfig).
    pub fn codec<C: WireCodec + 'static>(mut self, codec: C) -> Self {
        self.config.codec = Arc::new(codec);
        self
    }

    /// Slot layout for CKKS uploads (default dense). A bit-interleaved
    /// layout packs several quantized coordinates per slot, aggregates
    /// by homomorphic sum, and leaves the mean division to the clients'
    /// decryption (driven by the in-band contributor counter); every
    /// client must be configured identically.
    pub fn packing(mut self, packing: packing::PackingConfig) -> Self {
        self.config.packing = packing;
        self
    }

    /// Bounds how many undecoded encrypted uploads may be resident in
    /// server memory at once (default 4, must be positive). Handlers block before *reading* an update frame until
    /// a slot frees, so excess uploads wait in TCP backpressure rather
    /// than server buffers; a straggler holding a slot is bounded by
    /// the round deadline (its read times out and the slot frees).
    pub fn max_resident_uploads(mut self, max_resident_uploads: usize) -> Self {
        self.config.max_resident_uploads = max_resident_uploads;
        self
    }

    /// Arms the round watchdog: if any round phase (broadcast, collect,
    /// aggregate) makes no progress for `round_timeout × multiple`, the
    /// watchdog bumps the `fl.round.stalled` counter and — when
    /// [`flight_dump_dir`](Self::flight_dump_dir) is set — dumps a
    /// flight-recorder snapshot for post-mortem analysis. It fires at
    /// most once per stalled phase. Use a multiple ≥ 1 so a phase that
    /// legitimately runs to the round deadline is not reported; 0
    /// disables the watchdog (the default).
    pub fn round_watchdog(mut self, multiple: f64) -> Self {
        self.config.watchdog_multiple = multiple;
        self
    }

    /// Directory for flight-recorder snapshots (default: none). Setting
    /// it also installs a process-wide panic hook that dumps one final
    /// snapshot before the panic propagates, so a crashing server
    /// leaves its observability state behind. Dumps are written on
    /// watchdog stalls and panics; read them with the `mem_report`
    /// binary.
    pub fn flight_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.flight_dump_dir = Some(dir.into());
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Protocol`] when `clients`, `rounds`, or
    /// `model_params` are unset/zero, `quorum` is outside
    /// `1..=clients`, or `max_resident_uploads` is zero, and
    /// [`NetError::Fl`] for a packing the federation cannot ride (see
    /// [`PackingConfig::check_federation`](packing::PackingConfig::check_federation)).
    pub fn build(self) -> Result<ServerConfig, NetError> {
        let mut config = self.config;
        config.quorum = self.quorum.unwrap_or(config.clients);
        config.validate()?;
        Ok(config)
    }
}

/// Measurements from one networked round.
#[derive(Debug, Clone)]
pub struct NetRoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Updates folded into the aggregate.
    pub received: usize,
    /// Clients still connected when the round closed.
    pub live_clients: usize,
    /// Late or duplicate uploads NACKed during this round.
    pub rejected: usize,
    /// Wall time spent in homomorphic/plain aggregation.
    pub aggregate_time: Duration,
}

/// Full-run measurements from the server side.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// Per-round reports in order.
    pub rounds: Vec<NetRoundReport>,
    /// Clients that disconnected or violated the protocol mid-run.
    pub dropped_clients: usize,
    /// Successful mid-run reconnections (see
    /// [`ServerConfigBuilder::allow_rejoin`]). A client that departs and
    /// rejoins counts once in `dropped_clients` and once here.
    pub rejoined_clients: usize,
    /// Total bytes written to sockets (measured, not modeled).
    pub bytes_tx: u64,
    /// Total bytes read from sockets.
    pub bytes_rx: u64,
    /// The final global model as broadcast to clients: plaintext
    /// parameters, or `None` under CKKS and LWE (the server cannot
    /// decrypt).
    pub final_plain_model: Option<Vec<f32>>,
}

/// What every thread that touches a client socket shares.
struct HandlerShared {
    config: ServerConfig,
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    /// Set under an encrypted pipeline: each handler claims one
    /// resident-upload permit before it reads an `Update` frame. `None`
    /// under the plaintext pipeline, whose uploads are not bounded.
    residency: Option<Arc<Residency>>,
}

/// A blocking-I/O TCP federated server.
pub struct FlServer {
    listener: TcpListener,
    config: ServerConfig,
    pipeline: ServerPipeline,
    obs: Option<ObsHandle>,
}

impl FlServer {
    /// Binds the listener. Use port 0 for an OS-assigned port and
    /// [`FlServer::local_addr`] to discover it.
    ///
    /// When the config carries an `obs_addr`, this also switches
    /// telemetry recording on and starts the observability HTTP server
    /// immediately — scrapers can watch `/healthz` while clients are
    /// still connecting, and [`FlServer::obs_addr`] reports the bound
    /// scrape address before [`FlServer::run`] is called.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] on a bind failure (either listener).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: ServerConfig,
        pipeline: ServerPipeline,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        if let Some(dir) = config.flight_dump_dir.as_deref() {
            rhychee_obs::flight::install_panic_hook(dir.to_path_buf());
        }
        let obs = match config.obs_addr.as_deref() {
            Some(obs_addr) => {
                telemetry::set_enabled(true);
                telemetry::mem::init_start_time();
                telemetry::gauge("fl.round.current", 0.0);
                telemetry::gauge("fl.rounds.total", config.rounds as f64);
                telemetry::gauge("fl.clients.connected", 0.0);
                telemetry::gauge("fl.quorum.met", 0.0);
                Some(ObsServer::bind(obs_addr)?.spawn()?)
            }
            None => None,
        };
        Ok(FlServer { listener, config, pipeline, obs })
    }

    /// The bound address (for clients to connect to).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// The observability scrape address, when the plane is enabled.
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs.as_ref().map(ObsHandle::addr)
    }

    /// Runs the full federation: handshake, `rounds` aggregation
    /// rounds, final model distribution. Blocks until done.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::QuorumNotReached`] when a round (or the
    /// initial handshake) cannot gather `quorum` participants, or any
    /// I/O / protocol / FHE error that prevents the run from finishing.
    pub fn run(self) -> Result<ServerReport, NetError> {
        let rounds = self.config.rounds;
        let mut session = Session::open(self)?;
        session.wait_for_clients();

        // One trace id spans the whole federation run; each round's wire
        // context chains client spans under that round's `net_round`.
        if telemetry::enabled() {
            telemetry::trace::set_actor("server");
        }
        let trace_id = if telemetry::enabled() { telemetry::trace::new_trace_id() } else { 0 };
        for round in 0..rounds {
            let span = telemetry::span("net_round");
            let ctx = (span.id() != 0).then(|| TraceContext {
                trace_id,
                parent_span: span.id(),
                round: round as u32,
            });
            session.broadcast("broadcast", ctx)?;
            session.collect()?;
            session.beat("aggregate");
            session.machine.close()?;
            span.finish();
            session.beat("idle");
        }
        // Final distribution: the same transition, outside any round.
        session.broadcast("final_broadcast", None)?;
        session.shutdown()
    }
}

/// The coordinator thread's I/O edge around the [`Coordinator`] state
/// machine: it waits (on channels, against deadlines), turns accepted
/// sockets into handler threads, and feeds the machine what arrives.
/// Every decision is the machine's.
struct Session {
    machine: Coordinator,
    shared: Arc<HandlerShared>,
    acceptor: Acceptor,
    events_tx: Sender<ServerEvent>,
    events: Receiver<ServerEvent>,
    /// Every handler thread spawned this run, joined at shutdown. The
    /// n-th admitted connection is generation n.
    handlers: Vec<thread::JoinHandle<()>>,
    watchdog: Option<Watchdog>,
    /// Keeps the scrape endpoint up for the length of the run.
    _obs: Option<ObsHandle>,
}

impl Session {
    fn open(server: FlServer) -> Result<Self, NetError> {
        let FlServer { listener, config, pipeline, obs } = server;
        let connected = Arc::new(Mutex::new(HashSet::new()));
        let machine = Coordinator::new(config.clone(), pipeline, Arc::clone(&connected))?;
        let (bytes_tx, bytes_rx) = (AtomicU64::new(0), AtomicU64::new(0));
        let residency = machine.residency.clone();
        let shared = Arc::new(HandlerShared { config, bytes_tx, bytes_rx, residency });
        let acceptor = Acceptor::spawn(listener, connected, Arc::clone(&shared))?;
        let (events_tx, events) = mpsc::channel();
        Ok(Session {
            machine,
            shared,
            acceptor,
            events_tx,
            events,
            handlers: Vec::new(),
            watchdog: None,
            _obs: obs,
        })
    }

    /// The opening window: admits connections until every expected
    /// client is in or `accept_timeout` passes. Whether enough came is
    /// the first broadcast's call.
    fn wait_for_clients(&mut self) {
        let shared = Arc::clone(&self.shared);
        let config = &shared.config;
        let deadline = Instant::now() + config.accept_timeout;
        while !self.machine.opening_complete() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.acceptor.joins.recv_timeout(remaining) {
                Ok(connection) => self.admit(connection),
                Err(_) => break,
            }
        }
        if !config.allow_rejoin {
            self.acceptor.stop.store(true, Ordering::Relaxed);
        }
        // Liveness: every round-phase transition beats the watchdog; a
        // phase that overstays round_timeout × multiple gets reported
        // once and flight-recorded (ServerConfigBuilder::round_watchdog).
        self.watchdog = (config.watchdog_multiple > 0.0).then(|| {
            let deadline = config.round_timeout.mul_f64(config.watchdog_multiple);
            Watchdog::spawn(deadline, config.flight_dump_dir.clone())
        });
    }

    /// Gives a handshaken connection its handler thread and queues it
    /// with the machine.
    fn admit(&mut self, connection: Connection) {
        let (client_id, generation) = (connection.client_id, self.handlers.len() as u64 + 1);
        let (cmds, cmd_rx) = mpsc::channel();
        let events = self.events_tx.clone();
        self.handlers.push(thread::spawn(move || connection.serve(generation, &cmd_rx, &events)));
        self.machine.queue(client_id, Peer { generation, cmds });
    }

    fn beat(&self, phase: &'static str) {
        if let Some(watchdog) = &self.watchdog {
            watchdog.beat(phase);
        }
    }

    fn broadcast(
        &mut self,
        phase: &'static str,
        ctx: Option<TraceContext>,
    ) -> Result<(), NetError> {
        self.beat(phase);
        while let Ok(connection) = self.acceptor.joins.try_recv() {
            self.admit(connection);
        }
        self.machine.broadcast(ctx)
    }

    /// Feeds handler events to the machine until the round is complete
    /// or `round_timeout` passes.
    fn collect(&mut self) -> Result<(), NetError> {
        self.beat("collect");
        let deadline = Instant::now() + self.shared.config.round_timeout;
        while !self.machine.complete() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match self.events.recv_timeout(remaining) {
                Ok(event) => self.machine.on_event(event)?,
                Err(_) => break,
            }
        }
        Ok(())
    }

    fn shutdown(self) -> Result<ServerReport, NetError> {
        let Session { mut machine, shared, acceptor, events, handlers, watchdog, .. } = self;
        // Every live handler holds the final broadcast and exits after
        // writing it; the evicted ones exited when they reported. A late
        // upload still holds its residency permit inside its event, and
        // another late handler may be waiting for that permit, so the
        // machine keeps taking events (outside a round it drops them,
        // permits included) until each handler is done.
        for handler in handlers {
            while !handler.is_finished() {
                if let Ok(event) = events.recv_timeout(Duration::from_micros(100)) {
                    machine.on_event(event)?;
                }
            }
            let _ = handler.join();
        }
        drop(watchdog); // the run is over; nothing left to stall
        drop(acceptor);
        // Drain any last events so dropped counts are accurate.
        while let Ok(event) = events.try_recv() {
            machine.on_event(event)?;
        }
        let mut report = machine.finish();
        report.bytes_tx = shared.bytes_tx.load(Ordering::Relaxed);
        report.bytes_rx = shared.bytes_rx.load(Ordering::Relaxed);
        Ok(report)
    }
}

/// The one accept loop, on its own thread: it serves the opening window
/// and, under [`ServerConfigBuilder::allow_rejoin`], reconnections for
/// the rest of the run (otherwise the session stops it when the window
/// closes). Handshaken connections are handed to the coordinator, which
/// activates them at its next broadcast.
struct Acceptor {
    joins: Receiver<Connection>,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

/// Every exit from a run drops the session's acceptor — the shutdown and
/// each early `?` alike — so the loop always stops and the listening
/// port is released before [`FlServer::run`] returns.
impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Acceptor {
    fn spawn(
        listener: TcpListener,
        connected: Arc<Mutex<HashSet<usize>>>,
        shared: Arc<HandlerShared>,
    ) -> Result<Acceptor, NetError> {
        // Nonblocking, so the loop can watch the stop flag.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let (tx, joins) = mpsc::channel();
        let thread = thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(_) => break,
                };
                // A bad handshake never kills the server.
                if let Ok(connection) = Connection::handshake(stream, &connected, &shared) {
                    if tx.send(connection).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(Acceptor { joins, stop, thread: Some(thread) })
    }
}

/// One client socket. Everything the server reads from or writes to a
/// client goes through here, and so does the byte accounting.
struct Connection {
    client_id: usize,
    stream: TcpStream,
    shared: Arc<HandlerShared>,
}

impl Connection {
    /// Completes the Hello/Welcome handshake on a fresh connection and
    /// claims the client's id in `connected`, the set of ids with a
    /// queued or live connection. An id leaves the set when the
    /// coordinator processes its connection's drop, so a departed client
    /// can reconnect and a duplicate Hello cannot.
    fn handshake(
        mut stream: TcpStream,
        connected: &Mutex<HashSet<usize>>,
        shared: &Arc<HandlerShared>,
    ) -> Result<Connection, NetError> {
        let config = &shared.config;
        // The listener is nonblocking; accepted streams must not be.
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.io_timeout))?;
        stream.set_write_timeout(Some(config.io_timeout))?;
        let (msg, n) = wire::read_message(&mut stream, config.max_payload)?;
        let client_id = match msg {
            Message::Hello { client_id } => client_id,
            other => {
                return Err(NetError::Protocol(format!("expected Hello, got {}", other.name())))
            }
        };
        let mut connection = Connection { client_id, stream, shared: Arc::clone(shared) };
        connection.received(n);
        // `insert` checks and claims in one step under the lock.
        if client_id >= config.clients
            || !connected.lock().expect("connected set").insert(client_id)
        {
            return Err(NetError::Protocol(format!("invalid or duplicate client id {client_id}")));
        }
        let welcome =
            Message::Welcome { client_id, clients: config.clients, rounds: config.rounds };
        if let Err(e) = connection.write(&welcome) {
            connected.lock().expect("connected set").remove(&client_id);
            return Err(e);
        }
        Ok(connection)
    }

    /// Counts `n` bytes written to the socket.
    fn sent(&self, n: usize) {
        self.shared.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
        telemetry::count("net.bytes_tx", n as u64);
    }

    /// Counts `n` bytes read from the socket.
    fn received(&self, n: usize) {
        self.shared.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
        telemetry::count("net.bytes_rx", n as u64);
    }

    /// Frames and writes one control message.
    fn write(&mut self, msg: &Message) -> Result<(), NetError> {
        let n = wire::write_message(&mut self.stream, msg)?;
        self.sent(n);
        Ok(())
    }

    /// Writes one `Global` frame the coordinator already encoded, under
    /// a `broadcast` span that parents under the round's `net_round`
    /// through `ctx`.
    fn write_global(&mut self, frame: &[u8], ctx: Option<TraceContext>) -> Result<(), NetError> {
        telemetry::trace::set_remote_context(ctx);
        let span = telemetry::span("broadcast");
        let wrote = self.stream.write_all(frame).and_then(|()| self.stream.flush());
        span.finish();
        wrote?;
        self.sent(frame.len());
        Ok(())
    }

    /// The handler thread: carries out the coordinator's commands on
    /// this socket and reports what the client sent. It interprets
    /// nothing above the frame layer; payload bytes reach the
    /// coordinator as they arrived.
    fn serve(mut self, generation: u64, cmds: &Receiver<HandlerCmd>, events: &Sender<ServerEvent>) {
        if telemetry::enabled() {
            telemetry::trace::set_actor("server");
        }
        // Updates may legitimately take a whole training phase to arrive.
        let mut alive =
            self.stream.set_read_timeout(Some(self.shared.config.round_timeout)).is_ok();
        while alive {
            // A closed channel: the coordinator let this connection go.
            let Ok(cmd) = cmds.recv() else { return };
            alive = match cmd {
                HandlerCmd::Ack { round, accepted } => {
                    self.write(&Message::UpdateAck { round, accepted }).is_ok()
                }
                HandlerCmd::Broadcast { round, last: true, frame, ctx } => {
                    // The session is over either way: nothing to report.
                    if self.write_global(&frame, ctx).is_ok() {
                        let _ = self.write(&Message::Finished { round });
                    }
                    return;
                }
                // An error is a disconnect, a timeout past the full round
                // window, or a protocol violation: the client is gone.
                HandlerCmd::Broadcast { frame, ctx, .. } => self
                    .exchange(&frame, ctx)
                    .is_ok_and(|upload| events.send(ServerEvent::Upload(upload)).is_ok()),
            };
        }
        let _ = events.send(ServerEvent::Dropped { client_id: self.client_id, generation });
    }

    /// One round on this socket: writes the `Global` frame, then reads
    /// this client's `Update`.
    fn exchange(&mut self, frame: &[u8], ctx: Option<TraceContext>) -> Result<Upload, NetError> {
        self.write_global(frame, ctx)?;
        let sent_at = Instant::now();
        // Under encryption, claim a resident-upload slot *before* copying the
        // frame out of the kernel — but only once this client's bytes
        // have actually started arriving (`peek`), so a straggler that is
        // still training never parks on a slot and starves the clients
        // that are ready (quorum tolerance depends on the fast uploads
        // getting through). Until a slot frees, the payload waits in the
        // kernel's TCP buffers (and on the client's side of the
        // connection), not here.
        let mut permit = match &self.shared.residency {
            Some(residency) => {
                if self.stream.peek(&mut [0u8])? == 0 {
                    return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
                }
                Some(residency.acquire())
            }
            None => None,
        };
        let (msg, n) = wire::read_message(&mut self.stream, self.shared.config.max_payload)?;
        let arrived = Instant::now();
        let update = match msg {
            Message::Update { round, client_id, steps, model } if client_id == self.client_id => {
                ClientUpdate { client_id, round, steps, payload: model }
            }
            other => {
                return Err(NetError::Protocol(format!("expected Update, got {}", other.name())))
            }
        };
        self.received(n);
        if telemetry::enabled() {
            let label = self.client_id.to_string();
            telemetry::count_labeled("net.client.upload_bytes", "client_id", &label, n as u64);
            telemetry::observe_labeled(
                "net.client.rtt_ns",
                "client_id",
                &label,
                arrived.saturating_duration_since(sent_at).as_nanos() as u64,
            );
        }
        if let Some(permit) = &mut permit {
            // Charge the payload's bytes to the slot so the memory plane
            // can see exactly how much raw upload data is resident.
            permit.track_bytes(update.payload.len() as u64);
        }
        Ok(Upload { update, permit, bytes: n as u64, arrived })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_to_full_quorum() {
        let cfg =
            ServerConfig::builder().clients(5).rounds(2).model_params(100).build().expect("valid");
        assert_eq!(cfg.quorum, 5);
        assert_eq!(cfg.max_payload, DEFAULT_MAX_PAYLOAD);
        assert_eq!(cfg.parallelism, Parallelism::Auto);
    }

    #[test]
    fn builder_rejects_missing_required_fields() {
        assert!(ServerConfig::builder().build().is_err());
        assert!(ServerConfig::builder().clients(4).rounds(3).build().is_err());
        assert!(ServerConfig::builder().clients(4).model_params(10).build().is_err());
    }

    #[test]
    fn builder_configures_watchdog_and_dump_dir() {
        let base = || ServerConfig::builder().clients(4).rounds(3).model_params(10);
        let cfg = base().build().expect("valid");
        assert_eq!(cfg.watchdog_multiple, 0.0, "watchdog defaults to disabled");
        assert!(cfg.flight_dump_dir.is_none());
        let cfg = base()
            .round_watchdog(1.5)
            .flight_dump_dir("/tmp/rhychee-dumps")
            .build()
            .expect("valid");
        assert_eq!(cfg.watchdog_multiple, 1.5);
        assert_eq!(
            cfg.flight_dump_dir.as_deref(),
            Some(std::path::Path::new("/tmp/rhychee-dumps"))
        );
        assert!(base().round_watchdog(-1.0).build().is_err());
        assert!(base().round_watchdog(f64::NAN).build().is_err());
    }

    #[test]
    fn builder_rejects_bad_quorum() {
        let base = || ServerConfig::builder().clients(4).rounds(3).model_params(10);
        assert!(base().quorum(0).build().is_err());
        assert!(base().quorum(5).build().is_err());
        assert!(base().quorum(4).build().is_ok());
    }

    #[test]
    fn builder_rejects_zero_timeouts() {
        let base = || ServerConfig::builder().clients(4).rounds(3).model_params(10);
        assert!(base().io_timeout(Duration::ZERO).build().is_err());
        assert!(base().round_timeout(Duration::ZERO).build().is_err());
        assert!(base().round_timeout(Duration::from_nanos(1)).build().is_ok());
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = ServerConfig::builder()
            .clients(8)
            .quorum(6)
            .rounds(4)
            .model_params(2048)
            .aggregation(Aggregation::FedNova)
            .io_timeout(Duration::from_secs(1))
            .round_timeout(Duration::from_secs(2))
            .accept_timeout(Duration::from_secs(3))
            .max_payload(1 << 20)
            .parallelism(Parallelism::Fixed(2))
            .build()
            .expect("valid");
        assert_eq!(cfg.clients, 8);
        assert_eq!(cfg.quorum, 6);
        assert_eq!(cfg.rounds, 4);
        assert_eq!(cfg.model_params, 2048);
        assert_eq!(cfg.aggregation, Aggregation::FedNova);
        assert_eq!(cfg.io_timeout, Duration::from_secs(1));
        assert_eq!(cfg.round_timeout, Duration::from_secs(2));
        assert_eq!(cfg.accept_timeout, Duration::from_secs(3));
        assert_eq!(cfg.max_payload, 1 << 20);
        assert_eq!(cfg.parallelism, Parallelism::Fixed(2));
    }

    #[test]
    fn an_early_error_return_under_rejoin_releases_the_listening_port() {
        // Rejoin keeps the acceptor running past the opening window, so
        // only the error path itself can stop it.
        let config = ServerConfig::builder()
            .clients(1)
            .quorum(1)
            .rounds(1)
            .model_params(10)
            .allow_rejoin(true)
            .accept_timeout(Duration::from_millis(50))
            .build()
            .expect("valid");
        let server =
            FlServer::bind("127.0.0.1:0", config, ServerPipeline::Plaintext).expect("bind");
        let addr = server.local_addr().expect("addr");
        let err = server.run().expect_err("no client ever connects");
        assert!(matches!(err, NetError::QuorumNotReached { .. }), "{err}");
        let deadline = Instant::now() + Duration::from_secs(2);
        while let Err(e) = TcpListener::bind(addr) {
            assert!(Instant::now() < deadline, "{addr} still bound 2 s after run returned: {e}");
            thread::sleep(Duration::from_millis(10));
        }
    }
}
