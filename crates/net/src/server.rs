//! The federated server: accepts client connections, broadcasts the
//! global model, collects encrypted updates, and aggregates — without
//! ever holding a decryption key.
//!
//! Threading model: one blocking-I/O handler thread per connection plus
//! a coordinator (the caller's thread). Handlers receive broadcast
//! payloads over per-handler channels, read one upload per broadcast,
//! and forward it to the coordinator over a shared channel; the
//! coordinator owns all round state and decides acceptance, so protocol
//! logic stays single-threaded even though I/O is not. Aggregation
//! fans out on the shared `rhychee-par` pool at the configured
//! [`Parallelism`]; the result is bit-identical at every degree.
//!
//! Straggler policy: a round closes as soon as every live client has
//! reported, or at the round deadline. At the deadline the round
//! aggregates if at least `quorum` updates arrived — averaging over the
//! reporting subset — and fails with [`NetError::QuorumNotReached`]
//! otherwise. Uploads for any other round (and duplicates) are NACKed
//! with `UpdateAck { accepted: false }` and never touch the aggregate.
//!
//! CKKS aggregation: handlers ship the raw payload bytes and the
//! coordinator folds each upload into the round's one
//! [`StreamingAggregator`] the moment its frame arrives, zero-copy
//! through [`WireCodec::parse_upload`]. Handler reads gate on a
//! resident-upload permit
//! ([`ServerConfigBuilder::max_resident_uploads`]) released right after
//! the fold, so server memory is O(accumulator + permits), independent
//! of client count — late clients wait in TCP backpressure, not in
//! server buffers. The closed sum is **bit-identical** for every
//! arrival order. [`Aggregation::FedNova`] folds like the uniform
//! rules: its clients pre-scale by `1/τ` before encrypting and the
//! close multiplies by `1/Σ(1/τ)`, read off the `Update` headers. The
//! plaintext pipeline (float addition is not associative) decodes on
//! the handler threads and averages in client-id order at close
//! ([`ServerRound`]).

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rhychee_core::packing;
use rhychee_core::round::{ClientUpdate, ServerRound};
use rhychee_core::{Aggregation, FlError, Parallelism, StreamingAggregator};
use rhychee_fhe::ckks::{CkksCiphertext, CkksContext};
use rhychee_fhe::params::CkksParams;
use rhychee_obs::{ObsHandle, ObsServer, Watchdog};
use rhychee_telemetry as telemetry;

use crate::codec::{self, CanonicalCodec, WireCodec};
use crate::error::NetError;
use crate::residency::{Residency, ResidencyPermit};
use crate::wire::{self, Message, TraceContext, DEFAULT_MAX_PAYLOAD};

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
/// assert_eq!(cfg.quorum(), 3);
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

    /// Clients expected to connect.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Minimum updates required to close a round at the deadline.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Aggregation rounds to run.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Trainable parameter count `D × L` (payload caps, zero init).
    pub fn model_params(&self) -> usize {
        self.model_params
    }

    /// Aggregation rule (weights over the reporting quorum).
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Socket write / handshake-read timeout.
    pub fn io_timeout(&self) -> Duration {
        self.io_timeout
    }

    /// Collection window per round.
    pub fn round_timeout(&self) -> Duration {
        self.round_timeout
    }

    /// How long to wait for all clients to connect.
    pub fn accept_timeout(&self) -> Duration {
        self.accept_timeout
    }

    /// Frame payload cap in bytes.
    pub fn max_payload(&self) -> u32 {
        self.max_payload
    }

    /// Degree used for homomorphic aggregation and plain FedAvg.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Observability listen address, when the plane is enabled.
    pub fn obs_addr(&self) -> Option<&str> {
        self.obs_addr.as_deref()
    }

    /// Whether departed clients may reconnect mid-run.
    pub fn allow_rejoin(&self) -> bool {
        self.allow_rejoin
    }

    /// The CKKS wire codec uploads are expected in.
    pub fn codec(&self) -> &dyn WireCodec {
        self.codec.as_ref()
    }

    /// How model coordinates map onto ciphertext slots (must match
    /// every client's [`ClientConfig::packing`](crate::client::ClientConfig)).
    pub fn packing(&self) -> &packing::PackingConfig {
        &self.packing
    }

    /// How many undecoded CKKS uploads may be resident in server memory
    /// at once.
    pub fn max_resident_uploads(&self) -> usize {
        self.max_resident_uploads
    }

    /// Round-watchdog deadline as a multiple of `round_timeout`
    /// (0 = watchdog disabled).
    pub fn round_watchdog(&self) -> f64 {
        self.watchdog_multiple
    }

    /// Where flight-recorder snapshots are dumped on a stall or panic.
    pub fn flight_dump_dir(&self) -> Option<&std::path::Path> {
        self.flight_dump_dir.as_deref()
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
        if !self.watchdog_multiple.is_finite() || self.watchdog_multiple < 0.0 {
            return Err(NetError::Protocol(
                "round_watchdog multiple must be finite and non-negative".into(),
            ));
        }
        self.packing.validate()?;
        self.packing.check_aggregation(self.aggregation)?;
        Ok(())
    }
}

/// Builder for [`ServerConfig`]; see [`ServerConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    clients: usize,
    quorum: Option<usize>,
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

impl Default for ServerConfigBuilder {
    fn default() -> Self {
        ServerConfigBuilder {
            clients: 0,
            quorum: None,
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
        }
    }
}

impl ServerConfigBuilder {
    /// Clients expected to connect (required, > 0).
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Minimum updates to close a round (defaults to all clients).
    pub fn quorum(mut self, quorum: usize) -> Self {
        self.quorum = Some(quorum);
        self
    }

    /// Aggregation rounds to run (required, > 0).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Trainable parameter count `D × L` (required, > 0).
    pub fn model_params(mut self, model_params: usize) -> Self {
        self.model_params = model_params;
        self
    }

    /// Aggregation rule (default [`Aggregation::FedAvg`]). Under CKKS it
    /// must equal every client's `FlConfig::aggregation`: FedNova
    /// clients pre-scale their uploads by `1/τ`, which only the FedNova
    /// close (`1/Σ(1/τ)`) undoes.
    pub fn aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Socket write / handshake-read timeout (default 5 s).
    pub fn io_timeout(mut self, io_timeout: Duration) -> Self {
        self.io_timeout = io_timeout;
        self
    }

    /// Collection window per round (default 30 s).
    pub fn round_timeout(mut self, round_timeout: Duration) -> Self {
        self.round_timeout = round_timeout;
        self
    }

    /// Window for all clients to connect (default 30 s).
    pub fn accept_timeout(mut self, accept_timeout: Duration) -> Self {
        self.accept_timeout = accept_timeout;
        self
    }

    /// Frame payload cap in bytes (default [`DEFAULT_MAX_PAYLOAD`]).
    pub fn max_payload(mut self, max_payload: u32) -> Self {
        self.max_payload = max_payload;
        self
    }

    /// Degree for aggregation math (default [`Parallelism::Auto`]).
    /// Results are bit-identical at every degree.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enables the live observability plane on `addr` (e.g.
    /// `"127.0.0.1:9090"`, port 0 for OS-assigned): [`FlServer::bind`]
    /// starts an HTTP server exposing `/metrics`, `/healthz`,
    /// `/trace.json` and `/rounds.json`, switches telemetry recording
    /// on process-wide, and the round loop publishes the `fl.*` /
    /// `net.bytes.*` gauges plus one round-timeline record per round.
    /// Default: disabled.
    pub fn obs_addr(mut self, addr: impl Into<String>) -> Self {
        self.obs_addr = Some(addr.into());
        self
    }

    /// Lets a departed client reconnect with the same id and resume at
    /// the next round boundary (default: off). Rejoins take effect
    /// between rounds, so a client can never contribute two updates to
    /// one round: the round it reconnects during already counts it as
    /// dropped, and the per-round [`ServerRound`] dedupe rejects any
    /// duplicate id regardless.
    pub fn allow_rejoin(mut self, allow_rejoin: bool) -> Self {
        self.allow_rejoin = allow_rejoin;
        self
    }

    /// Selects the CKKS wire codec uploads must arrive in (default
    /// [`CanonicalCodec`]). Both endpoints of a federation must agree;
    /// clients set the matching codec on
    /// [`ClientConfig::codec`](crate::client::ClientConfig).
    pub fn codec<C: WireCodec + 'static>(mut self, codec: C) -> Self {
        self.codec = Arc::new(codec);
        self
    }

    /// Slot layout for CKKS uploads (default dense). A bit-interleaved
    /// layout packs several quantized coordinates per slot, aggregates
    /// by homomorphic sum, and leaves the mean division to the clients'
    /// decryption (driven by the in-band contributor counter); every
    /// client must be configured identically.
    pub fn packing(mut self, packing: packing::PackingConfig) -> Self {
        self.packing = packing;
        self
    }

    /// Bounds how many undecoded CKKS uploads may be resident in server
    /// memory at once (default 4, must be positive). Handlers block before *reading* an update frame until
    /// a slot frees, so excess uploads wait in TCP backpressure rather
    /// than server buffers; a straggler holding a slot is bounded by
    /// the round deadline (its read times out and the slot frees).
    pub fn max_resident_uploads(mut self, max_resident_uploads: usize) -> Self {
        self.max_resident_uploads = max_resident_uploads;
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
        self.watchdog_multiple = multiple;
        self
    }

    /// Directory for flight-recorder snapshots (default: none). Setting
    /// it also installs a process-wide panic hook that dumps one final
    /// snapshot before the panic propagates, so a crashing server
    /// leaves its observability state behind. Dumps are written on
    /// watchdog stalls and panics; read them with the `mem_report`
    /// binary.
    pub fn flight_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dump_dir = Some(dir.into());
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Protocol`] when `clients`, `rounds`, or
    /// `model_params` are unset/zero, `quorum` is outside
    /// `1..=clients`, or `max_resident_uploads` is zero.
    pub fn build(self) -> Result<ServerConfig, NetError> {
        let config = ServerConfig {
            clients: self.clients,
            quorum: self.quorum.unwrap_or(self.clients),
            rounds: self.rounds,
            model_params: self.model_params,
            aggregation: self.aggregation,
            io_timeout: self.io_timeout,
            round_timeout: self.round_timeout,
            accept_timeout: self.accept_timeout,
            max_payload: self.max_payload,
            parallelism: self.parallelism,
            obs_addr: self.obs_addr,
            allow_rejoin: self.allow_rejoin,
            codec: self.codec,
            packing: self.packing,
            max_resident_uploads: self.max_resident_uploads,
            watchdog_multiple: self.watchdog_multiple,
            flight_dump_dir: self.flight_dump_dir,
        };
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
    /// parameters, or `None` under CKKS (the server cannot decrypt).
    pub final_plain_model: Option<Vec<f32>>,
}

/// The server's current global model, in transport representation.
enum GlobalState {
    Plain(Vec<f32>),
    Ckks(Vec<CkksCiphertext>),
}

/// Coordinator → handler commands.
enum HandlerCmd {
    /// Write a `Global` frame; unless `last`, then read one `Update`.
    /// `ctx` is the round's trace context: handlers stamp it on the
    /// wire so client spans parent under this round's `net_round` span.
    Broadcast { round: usize, last: bool, payload: Arc<Vec<u8>>, ctx: Option<TraceContext> },
    /// Write an `UpdateAck` frame.
    Ack { round: usize, accepted: bool },
}

/// An upload as its handler thread forwards it: plaintext parameters
/// decoded in place, or a CKKS payload shipped raw for the coordinator
/// to fold zero-copy.
enum DecodedModel {
    Plain(Vec<f32>),
    /// CKKS: the raw payload bytes, not yet parsed. The permit is this
    /// upload's resident-memory slot; dropping the event (right after
    /// the fold, or when a stale round's upload is NACKed) releases it
    /// and unblocks the next handler's read.
    Raw {
        payload: Vec<u8>,
        _permit: ResidencyPermit,
    },
    /// Undecodable or wrong-sized plaintext payload; the coordinator
    /// NACKs it.
    Invalid,
}

/// Handler → coordinator events.
enum ServerEvent {
    /// A client's upload arrived and was decoded (round validity not
    /// yet checked). `bytes` is the framed size read off the socket and
    /// `arrived` the read-completion instant, for the round timeline.
    Update {
        client_id: usize,
        round: usize,
        steps: usize,
        model: DecodedModel,
        bytes: u64,
        arrived: Instant,
    },
    /// A client disconnected, timed out, or violated the protocol.
    /// `generation` identifies which incarnation of the connection died,
    /// so a stale drop from a superseded handler can never evict a
    /// rejoined client's live one.
    Dropped { client_id: usize, generation: u64 },
}

/// State shared by every handler thread.
struct HandlerShared {
    round_timeout: Duration,
    max_payload: u32,
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    model_params: usize,
    /// Set under CKKS: handlers skip decoding and ship raw payloads,
    /// each holding one resident-upload permit. `None` under the
    /// plaintext pipeline, whose handlers decode in place.
    residency: Option<Arc<Residency>>,
}

impl HandlerShared {
    fn decode_plain(&self, model: &[u8]) -> DecodedModel {
        match codec::decode_plain(model, self.model_params) {
            Ok(p) if p.len() == self.model_params => DecodedModel::Plain(p),
            _ => DecodedModel::Invalid,
        }
    }
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
    /// Returns [`NetError`] on an invalid config or a bind failure
    /// (either listener).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: ServerConfig,
        pipeline: ServerPipeline,
    ) -> Result<Self, NetError> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        if let Some(dir) = config.flight_dump_dir() {
            rhychee_obs::flight::install_panic_hook(dir.to_path_buf());
        }
        let obs = match config.obs_addr() {
            Some(obs_addr) => {
                telemetry::set_enabled(true);
                telemetry::mem::init_start_time();
                telemetry::gauge("fl.round.current", 0.0);
                telemetry::gauge("fl.rounds.total", config.rounds() as f64);
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
        let ctx = match &self.pipeline {
            ServerPipeline::Plaintext => None,
            ServerPipeline::Ckks(params) => Some(Arc::new(CkksContext::with_parallelism(
                params.clone(),
                self.config.parallelism,
            )?)),
        };
        let max_cts = ctx
            .as_ref()
            .map(|c| {
                packing::ciphertexts_needed_with(
                    &self.config.packing,
                    self.config.model_params,
                    c.slot_count(),
                )
            })
            .unwrap_or(0);
        let residency = ctx.is_some().then(|| Residency::new(self.config.max_resident_uploads));
        let shared = Arc::new(HandlerShared {
            round_timeout: self.config.round_timeout,
            max_payload: self.config.max_payload,
            bytes_tx: AtomicU64::new(0),
            bytes_rx: AtomicU64::new(0),
            model_params: self.config.model_params,
            residency: residency.clone(),
        });

        let (event_tx, event_rx) = mpsc::channel::<ServerEvent>();
        let mut handlers = self.accept_clients(&event_tx, &shared)?;
        telemetry::gauge("fl.clients.connected", handlers.len() as f64);

        // Liveness: every round-phase transition beats the watchdog; a
        // phase that overstays round_timeout × multiple gets reported
        // once and flight-recorded (ServerConfigBuilder::round_watchdog).
        let watchdog = (self.config.watchdog_multiple > 0.0).then(|| {
            Watchdog::spawn(
                self.config.round_timeout.mul_f64(self.config.watchdog_multiple),
                self.config.flight_dump_dir.clone(),
            )
        });
        let beat = |phase: &'static str| {
            if let Some(wd) = &watchdog {
                wd.beat(phase);
            }
        };

        // Rejoin support: a shared id set gates duplicate Hellos (the
        // coordinator owns the handler map, so the background acceptor
        // cannot check it directly), and queued reconnections activate
        // only at round boundaries.
        let connected: Arc<Mutex<HashSet<usize>>> =
            Arc::new(Mutex::new(handlers.keys().copied().collect()));
        let mut next_generation = 0u64;
        let rejoin = if self.config.allow_rejoin {
            Some(RejoinAcceptor::spawn(
                self.listener.try_clone()?,
                self.config.clone(),
                Arc::clone(&connected),
                Arc::clone(&shared),
            ))
        } else {
            None
        };
        // Handlers spawned mid-run need a live Sender; without rejoin,
        // drop it now so the channel disconnects once handlers exit.
        let event_tx = if rejoin.is_some() { Some(event_tx) } else { None };

        // One trace id spans the whole federation run; each round's wire
        // context chains client spans under that round's `net_round`.
        if telemetry::enabled() {
            telemetry::trace::set_actor("server");
        }
        let trace_id = if telemetry::enabled() { telemetry::trace::new_trace_id() } else { 0 };

        let mut report = ServerReport::default();
        let mut global = GlobalState::Plain(vec![0.0; self.config.model_params]);

        for round in 0..self.config.rounds {
            let span = telemetry::span("net_round");
            let round_ctx = (span.id() != 0).then(|| TraceContext {
                trace_id,
                parent_span: span.id(),
                round: round as u32,
            });
            // Activate rejoins queued since the last round boundary, so
            // a reconnecting client re-enters with a full round — it can
            // never contribute a second update to a round in flight.
            if let Some(acceptor) = rejoin.as_ref() {
                while let Ok((client_id, stream)) = acceptor.rx.try_recv() {
                    if handlers.contains_key(&client_id) {
                        continue; // superseded by a still-live handler
                    }
                    next_generation += 1;
                    let events = event_tx.as_ref().expect("rejoin keeps the sender").clone();
                    let handler =
                        spawn_handler(client_id, next_generation, stream, events, &shared);
                    handlers.insert(client_id, handler);
                    connected.lock().expect("connected set").insert(client_id);
                    report.rejoined_clients += 1;
                    telemetry::count("net.rejoins", 1);
                }
                telemetry::gauge("fl.clients.connected", handlers.len() as f64);
            }

            let round_start = Instant::now();
            let round_start_ns = telemetry::trace::now_ns();
            let live_at_start = handlers.len();
            // 1-based "round in flight" (0 means still handshaking).
            telemetry::gauge("fl.round.current", (round + 1) as f64);
            beat("broadcast");
            let payload = Arc::new(self.encode_global(&global, ctx.as_deref()));
            for h in handlers.values() {
                let _ = h.cmd_tx.send(HandlerCmd::Broadcast {
                    round,
                    last: false,
                    payload: Arc::clone(&payload),
                    ctx: round_ctx,
                });
            }

            let mut agg = match &ctx {
                Some(_) => {
                    RoundAgg::Ckks(StreamingAggregator::new(round, self.config.aggregation)?)
                }
                None => RoundAgg::Plain(ServerRound::new(round, self.config.aggregation)),
            };
            let mut rejected = 0usize;
            let mut arrivals: Vec<rhychee_obs::rounds::ClientArrival> = Vec::new();
            let mut quorum_ns: Option<u64> = None;
            beat("collect");
            let deadline = Instant::now() + self.config.round_timeout;
            // A client whose upload was already accepted may drop out of
            // `handlers` before the round closes; its contribution
            // stays counted, so `received` can meet or exceed the
            // shrinking live-handler count.
            while agg.received() < handlers.len() {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                match event_rx.recv_timeout(remaining) {
                    Ok(ServerEvent::Update {
                        client_id,
                        round: r,
                        steps,
                        model,
                        bytes,
                        arrived,
                    }) => {
                        let accepted = r == round
                            && match (&mut agg, model) {
                                (RoundAgg::Ckks(s), DecodedModel::Raw { payload, _permit }) => {
                                    let cx = ctx.as_deref().expect("CKKS round has a context");
                                    // Parse outside the fold span: building
                                    // the per-chunk view table allocates one
                                    // small Vec, and the zero-alloc claim is
                                    // about the fold kernel itself.
                                    let parsed =
                                        self.config.codec.parse_upload(cx, &payload, max_cts);
                                    let fspan = telemetry::span("net_fold");
                                    let folded = match parsed {
                                        Ok(mv) if mv.len() == max_cts => {
                                            let update = ClientUpdate {
                                                client_id,
                                                round: r,
                                                steps,
                                                payload: mv.views(),
                                            };
                                            s.fold_views(cx, &update)
                                                .map_err(|e| stream_abort(round, e))?
                                        }
                                        _ => false,
                                    };
                                    // Per-phase allocation attribution:
                                    // a steady-state fold should report
                                    // 0 bytes (the accumulator is reused
                                    // in place).
                                    if telemetry::alloc::installed() {
                                        telemetry::observe(
                                            "fl.phase.fold.alloc_bytes",
                                            fspan.alloc_bytes(),
                                        );
                                    }
                                    telemetry::observe_duration("fl.phase.fold.ns", fspan.finish());
                                    // `payload` and its residency permit
                                    // drop here: the upload's bytes live
                                    // only for the duration of the fold.
                                    folded
                                }
                                (RoundAgg::Plain(sr), DecodedModel::Plain(payload)) => {
                                    sr.accept(ClientUpdate { client_id, round: r, steps, payload })
                                }
                                // An undecodable plaintext payload — or a
                                // body of the other pipeline, which cannot
                                // happen; NACK rather than trust it.
                                _ => false,
                            };
                        if !accepted {
                            rejected += 1;
                            telemetry::count("net.frame.nack", 1);
                            telemetry::count_labeled(
                                "net.client.nacks",
                                "client_id",
                                &client_id.to_string(),
                                1,
                            );
                        }
                        let offset_ns =
                            arrived.saturating_duration_since(round_start).as_nanos() as u64;
                        arrivals.push(rhychee_obs::rounds::ClientArrival {
                            client_id,
                            offset_ns,
                            bytes,
                            accepted,
                        });
                        if accepted && quorum_ns.is_none() && agg.received() >= self.config.quorum {
                            quorum_ns = Some(offset_ns);
                        }
                        if let Some(h) = handlers.get(&client_id) {
                            let _ = h.cmd_tx.send(HandlerCmd::Ack { round: r, accepted });
                        }
                    }
                    Ok(ServerEvent::Dropped { client_id, generation }) => {
                        self.drop_client(
                            &mut handlers,
                            client_id,
                            generation,
                            &mut report,
                            &connected,
                        );
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }

            telemetry::gauge("fl.clients.connected", handlers.len() as f64);
            if agg.received() < self.config.quorum {
                telemetry::gauge("fl.quorum.met", 0.0);
                return Err(NetError::QuorumNotReached {
                    round,
                    received: agg.received(),
                    quorum: self.config.quorum,
                });
            }
            telemetry::gauge("fl.quorum.met", 1.0);

            beat("aggregate");
            let agg_span = telemetry::span("net_aggregate");
            let received = agg.received();
            global = match agg {
                RoundAgg::Plain(sr) => {
                    GlobalState::Plain(sr.aggregate_with(self.config.parallelism)?)
                }
                RoundAgg::Ckks(s) => {
                    let cx = ctx.as_deref().expect("CKKS round has a context");
                    let closed = s.close(cx, &self.config.packing);
                    GlobalState::Ckks(closed.map_err(|e| stream_abort(round, e))?)
                }
            };
            if telemetry::alloc::installed() {
                telemetry::observe("fl.phase.aggregate.alloc_bytes", agg_span.alloc_bytes());
            }
            let aggregate_time = agg_span.finish();
            telemetry::observe_duration("fl.phase.aggregate.ns", aggregate_time);
            report.rounds.push(NetRoundReport {
                round,
                received,
                live_clients: handlers.len(),
                rejected,
                aggregate_time,
            });
            if telemetry::enabled() {
                rhychee_obs::rounds::record(rhychee_obs::rounds::RoundRecord {
                    round,
                    start_ns: round_start_ns,
                    quorum_ns,
                    close_ns: round_start.elapsed().as_nanos() as u64,
                    received,
                    rejected,
                    stragglers: live_at_start.saturating_sub(received),
                    arrivals,
                });
            }
            telemetry::gauge("net.bytes.tx", shared.bytes_tx.load(Ordering::Relaxed) as f64);
            telemetry::gauge("net.bytes.rx", shared.bytes_rx.load(Ordering::Relaxed) as f64);
            if let Some(residency) = &residency {
                telemetry::gauge("net.agg.resident_uploads", residency.held() as f64);
                telemetry::gauge("net.agg.peak_resident_uploads", residency.peak() as f64);
                telemetry::gauge("net.agg.resident_upload_bytes", residency.bytes() as f64);
                telemetry::gauge(
                    "net.agg.peak_resident_upload_bytes",
                    residency.peak_bytes() as f64,
                );
            }
            span.finish();
            beat("idle");
        }

        // Final distribution: the aggregated model of the last round.
        beat("final_broadcast");
        let payload = Arc::new(self.encode_global(&global, ctx.as_deref()));
        for h in handlers.values() {
            let _ = h.cmd_tx.send(HandlerCmd::Broadcast {
                round: self.config.rounds,
                last: true,
                payload: Arc::clone(&payload),
                ctx: None,
            });
        }
        for (_, h) in handlers.drain() {
            drop(h.cmd_tx);
            let _ = h.join.join();
        }
        drop(watchdog); // the run is over; nothing left to stall
        if let Some(acceptor) = rejoin {
            acceptor.shutdown();
        }
        drop(event_tx);
        // Drain any last events so dropped counts are accurate.
        while let Ok(ev) = event_rx.try_recv() {
            if let ServerEvent::Dropped { .. } = ev {
                report.dropped_clients += 1;
                telemetry::count("net.dropped_clients", 1);
            }
        }

        report.bytes_tx = shared.bytes_tx.load(Ordering::Relaxed);
        report.bytes_rx = shared.bytes_rx.load(Ordering::Relaxed);
        report.final_plain_model = match global {
            GlobalState::Plain(m) => Some(m),
            GlobalState::Ckks(_) => None,
        };
        Ok(report)
    }

    /// Accepts connections and completes the Hello/Welcome handshake
    /// until all expected clients are in or the accept window closes.
    fn accept_clients(
        &self,
        event_tx: &Sender<ServerEvent>,
        shared: &Arc<HandlerShared>,
    ) -> Result<HashMap<usize, Handler>, NetError> {
        self.listener.set_nonblocking(true)?;
        let mut handlers = HashMap::new();
        let deadline = Instant::now() + self.config.accept_timeout;
        while handlers.len() < self.config.clients && Instant::now() < deadline {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            match handshake(stream, &self.config, |id| handlers.contains_key(&id), shared) {
                Ok((client_id, stream)) => {
                    let handler = spawn_handler(client_id, 0, stream, event_tx.clone(), shared);
                    handlers.insert(client_id, handler);
                }
                Err(_) => continue, // a bad handshake never kills the server
            }
        }
        if handlers.len() < self.config.quorum {
            return Err(NetError::QuorumNotReached {
                round: 0,
                received: handlers.len(),
                quorum: self.config.quorum,
            });
        }
        Ok(handlers)
    }

    fn drop_client(
        &self,
        handlers: &mut HashMap<usize, Handler>,
        client_id: usize,
        generation: u64,
        report: &mut ServerReport,
        connected: &Mutex<HashSet<usize>>,
    ) {
        // A drop names the connection incarnation that died. If the
        // mapped handler is from a different (newer) generation, the
        // client already rejoined and this drop is stale — ignore it.
        match handlers.get(&client_id) {
            Some(h) if h.generation == generation => {}
            _ => return,
        }
        if let Some(h) = handlers.remove(&client_id) {
            drop(h.cmd_tx);
            let _ = h.join.join();
            connected.lock().expect("connected set").remove(&client_id);
            report.dropped_clients += 1;
            telemetry::count("net.dropped_clients", 1);
        }
    }

    fn encode_global(&self, global: &GlobalState, ctx: Option<&CkksContext>) -> Vec<u8> {
        match (global, ctx) {
            (GlobalState::Plain(m), _) => codec::encode_plain(m),
            (GlobalState::Ckks(cts), Some(ctx)) => codec::encode_ckks(ctx, cts),
            (GlobalState::Ckks(_), None) => unreachable!("CKKS state without a context"),
        }
    }
}

/// Completes the Hello/Welcome handshake on a fresh connection.
/// `taken` reports whether a client id is already connected — the
/// accept loop checks its handler map, the rejoin acceptor a shared id
/// set — so a duplicate Hello is rejected either way.
fn handshake(
    stream: TcpStream,
    config: &ServerConfig,
    taken: impl Fn(usize) -> bool,
    shared: &HandlerShared,
) -> Result<(usize, TcpStream), NetError> {
    let mut stream = stream;
    // The listener is nonblocking for the accept deadline; accepted
    // streams must not be.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.io_timeout()))?;
    stream.set_write_timeout(Some(config.io_timeout()))?;
    let (msg, n) = wire::read_message(&mut stream, config.max_payload())?;
    shared.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
    telemetry::count("net.bytes_rx", n as u64);
    let client_id = match msg {
        Message::Hello { client_id } => client_id,
        other => return Err(NetError::Protocol(format!("expected Hello, got {}", other.name()))),
    };
    if client_id >= config.clients() || taken(client_id) {
        return Err(NetError::Protocol(format!("invalid or duplicate client id {client_id}")));
    }
    let n = wire::write_message(
        &mut stream,
        &Message::Welcome { client_id, clients: config.clients(), rounds: config.rounds() },
    )?;
    shared.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
    telemetry::count("net.bytes_tx", n as u64);
    Ok((client_id, stream))
}

/// The background accept loop behind
/// [`ServerConfigBuilder::allow_rejoin`]: keeps listening after the
/// initial handshake window, re-admitting departed clients. Handshaken
/// streams are queued to the coordinator, which activates them at the
/// next round boundary.
struct RejoinAcceptor {
    rx: Receiver<(usize, TcpStream)>,
    stop: Arc<AtomicBool>,
    join: thread::JoinHandle<()>,
}

impl RejoinAcceptor {
    fn spawn(
        listener: TcpListener,
        config: ServerConfig,
        connected: Arc<Mutex<HashSet<usize>>>,
        shared: Arc<HandlerShared>,
    ) -> RejoinAcceptor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let (tx, rx) = mpsc::channel();
        let join = thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                        continue;
                    }
                    Err(_) => break,
                };
                // Reject ids still mapped to a live handler; a departed
                // client's id leaves the set when its drop is processed.
                let taken =
                    |id: usize| connected.lock().map(|set| set.contains(&id)).unwrap_or(true);
                match handshake(stream, &config, taken, &shared) {
                    Ok(pair) => {
                        if tx.send(pair).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue, // a bad handshake never kills the server
                }
            }
        });
        RejoinAcceptor { rx, stop, join }
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.join.join();
    }
}

/// One round's aggregation state, typed by pipeline: plaintext updates
/// are collected and averaged in client-id order at close; CKKS uploads
/// fold into the running encrypted sum as their frames arrive.
enum RoundAgg {
    Plain(ServerRound<Vec<f32>>),
    Ckks(StreamingAggregator),
}

impl RoundAgg {
    fn received(&self) -> usize {
        match self {
            RoundAgg::Plain(sr) => sr.received(),
            RoundAgg::Ckks(s) => s.received(),
        }
    }
}

/// Maps an aggregator error to the wire-level abort,
/// tagging it with the round whose sum became untrustworthy.
fn stream_abort(round: usize, e: FlError) -> NetError {
    match e {
        FlError::StreamingAbort(reason) => NetError::StreamingAbort { round, reason },
        other => NetError::Fl(other),
    }
}

struct Handler {
    cmd_tx: Sender<HandlerCmd>,
    join: thread::JoinHandle<()>,
    /// Incarnation of this client's connection: 0 for the initial
    /// handshake, bumped on every rejoin. Dropped events carry the
    /// generation of the connection that died; the coordinator ignores
    /// drops whose generation does not match the mapped handler.
    generation: u64,
}

fn spawn_handler(
    client_id: usize,
    generation: u64,
    stream: TcpStream,
    events: Sender<ServerEvent>,
    shared: &Arc<HandlerShared>,
) -> Handler {
    let (cmd_tx, cmd_rx) = mpsc::channel();
    let shared = Arc::clone(shared);
    let join = thread::spawn(move || {
        handler_loop(client_id, generation, stream, &cmd_rx, &events, &shared);
    });
    Handler { cmd_tx, join, generation }
}

/// Per-connection I/O loop: writes broadcasts/acks, reads one update per
/// (non-final) broadcast, decodes it in place, and reports everything to
/// the coordinator.
fn handler_loop(
    client_id: usize,
    generation: u64,
    mut stream: TcpStream,
    cmds: &Receiver<HandlerCmd>,
    events: &Sender<ServerEvent>,
    shared: &HandlerShared,
) {
    let drop_self = |events: &Sender<ServerEvent>| {
        let _ = events.send(ServerEvent::Dropped { client_id, generation });
    };
    if telemetry::enabled() {
        telemetry::trace::set_actor("server");
    }
    // Updates may legitimately take a whole training phase to arrive.
    if stream.set_read_timeout(Some(shared.round_timeout)).is_err() {
        drop_self(events);
        return;
    }
    while let Ok(cmd) = cmds.recv() {
        match cmd {
            HandlerCmd::Ack { round, accepted } => {
                match wire::write_message(&mut stream, &Message::UpdateAck { round, accepted }) {
                    Ok(n) => {
                        shared.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
                        telemetry::count("net.bytes_tx", n as u64);
                    }
                    Err(_) => {
                        drop_self(events);
                        return;
                    }
                }
            }
            HandlerCmd::Broadcast { round, last, payload, ctx } => {
                // Spans opened on this thread parent under the round's
                // `net_round` span via the wire context.
                telemetry::trace::set_remote_context(ctx);
                let msg = Message::Global { round, last, model: payload.as_ref().clone() };
                let bspan = telemetry::span("broadcast");
                let wrote = wire::write_message_ctx(&mut stream, &msg, ctx.as_ref());
                if telemetry::alloc::installed() {
                    telemetry::observe("fl.phase.broadcast.alloc_bytes", bspan.alloc_bytes());
                }
                telemetry::observe_duration("fl.phase.broadcast.ns", bspan.finish());
                match wrote {
                    Ok(n) => {
                        shared.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
                        telemetry::count("net.bytes_tx", n as u64);
                    }
                    Err(_) => {
                        if !last {
                            drop_self(events);
                        }
                        return;
                    }
                }
                if last {
                    let n = wire::write_message(&mut stream, &Message::Finished { round });
                    if let Ok(n) = n {
                        shared.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
                        telemetry::count("net.bytes_tx", n as u64);
                    }
                    return;
                }
                // Under CKKS, claim a resident-upload slot *before*
                // copying the frame out of the kernel —
                // but only once this client's bytes have actually
                // started arriving (`peek`), so a straggler that is
                // still training never parks on a slot and starves the
                // clients that are ready (quorum tolerance depends on
                // the fast uploads getting through). Until a slot
                // frees, the payload waits in the kernel's TCP buffers
                // (and on the client's side of the connection), not
                // here.
                let sent_at = Instant::now();
                let permit = match &shared.residency {
                    Some(residency) => {
                        if !matches!(stream.peek(&mut [0u8]), Ok(n) if n > 0) {
                            drop_self(events);
                            return;
                        }
                        Some(residency.acquire())
                    }
                    None => None,
                };
                match wire::read_message_ctx(&mut stream, shared.max_payload) {
                    Ok((Message::Update { round, client_id: cid, steps, model }, uctx, n))
                        if cid == client_id =>
                    {
                        let arrived = Instant::now();
                        shared.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
                        telemetry::count("net.bytes_rx", n as u64);
                        if telemetry::enabled() {
                            let label = client_id.to_string();
                            telemetry::count_labeled(
                                "net.client.upload_bytes",
                                "client_id",
                                &label,
                                n as u64,
                            );
                            telemetry::observe_labeled(
                                "net.client.rtt_ns",
                                "client_id",
                                &label,
                                arrived.saturating_duration_since(sent_at).as_nanos() as u64,
                            );
                        }
                        // CKKS: ship the raw bytes (and their residency
                        // permit) straight to the coordinator for a
                        // zero-copy fold. Plaintext: decode here, on the
                        // connection's own thread. When the upload
                        // carried a context, the decode parents under
                        // the client's upload span rather than the
                        // round span.
                        let model = match permit {
                            Some(mut permit) => {
                                // Charge the payload's bytes to the slot
                                // so the memory plane can see exactly how
                                // much raw upload data is resident.
                                permit.track_bytes(model.len() as u64);
                                DecodedModel::Raw { payload: model, _permit: permit }
                            }
                            None => {
                                if uctx.is_some() {
                                    telemetry::trace::set_remote_context(uctx);
                                }
                                let span = telemetry::span("net_decode");
                                let model = shared.decode_plain(&model);
                                span.finish();
                                if uctx.is_some() {
                                    telemetry::trace::set_remote_context(ctx);
                                }
                                model
                            }
                        };
                        let _ = events.send(ServerEvent::Update {
                            client_id,
                            round,
                            steps,
                            model,
                            bytes: n as u64,
                            arrived,
                        });
                    }
                    _ => {
                        // Disconnect, timeout past the full round window,
                        // or a protocol violation: the client is gone.
                        drop_self(events);
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_to_full_quorum() {
        let cfg =
            ServerConfig::builder().clients(5).rounds(2).model_params(100).build().expect("valid");
        assert_eq!(cfg.quorum(), 5);
        assert_eq!(cfg.max_payload(), DEFAULT_MAX_PAYLOAD);
        assert_eq!(cfg.parallelism(), Parallelism::Auto);
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
        assert_eq!(cfg.round_watchdog(), 0.0, "watchdog defaults to disabled");
        assert!(cfg.flight_dump_dir().is_none());
        let cfg = base()
            .round_watchdog(1.5)
            .flight_dump_dir("/tmp/rhychee-dumps")
            .build()
            .expect("valid");
        assert_eq!(cfg.round_watchdog(), 1.5);
        assert_eq!(cfg.flight_dump_dir(), Some(std::path::Path::new("/tmp/rhychee-dumps")));
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
        assert_eq!(cfg.clients(), 8);
        assert_eq!(cfg.quorum(), 6);
        assert_eq!(cfg.rounds(), 4);
        assert_eq!(cfg.model_params(), 2048);
        assert_eq!(cfg.aggregation(), Aggregation::FedNova);
        assert_eq!(cfg.io_timeout(), Duration::from_secs(1));
        assert_eq!(cfg.round_timeout(), Duration::from_secs(2));
        assert_eq!(cfg.accept_timeout(), Duration::from_secs(3));
        assert_eq!(cfg.max_payload(), 1 << 20);
        assert_eq!(cfg.parallelism(), Parallelism::Fixed(2));
    }
}
