//! The federated client: connects to an [`FlServer`], trains locally,
//! and uploads (optionally encrypted) model updates.
//!
//! Its payloads go through the [`ClientHalf`] the in-process `Framework`
//! runs: under CKKS it derives the shared key pair from the run seed, as
//! every client does, encrypts uploads with the client's private
//! randomness stream, and decrypts each received global model. The
//! server sees only ciphertexts.
//!
//! [`FlServer`]: crate::server::FlServer

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rhychee_core::packing;
use rhychee_core::round::{ClientHalf, ClientLocal};
use rhychee_core::FlConfig;
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::params::{CkksParams, LweParams};
use rhychee_hdc::model::{EncodedDataset, HdcModel};
use rhychee_telemetry as telemetry;

use crate::codec::{CanonicalCodec, WireCodec};
use crate::error::NetError;
use crate::wire::{self, Message, DEFAULT_MAX_PAYLOAD, IO_TIMEOUT};

/// How long to wait for a `Global` broadcast: it spans the server's whole
/// collection window plus aggregation.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// Connection attempts before giving up.
const CONNECT_ATTEMPTS: u32 = 4;

/// Wait before the second connection attempt; it doubles per retry.
const BACKOFF: Duration = Duration::from_millis(50);

/// How the client transports model payloads (must match the server's
/// [`ServerPipeline`](crate::server::ServerPipeline)).
pub enum ClientPipeline {
    /// Plaintext `f32` parameters.
    Plaintext,
    /// Packed CKKS ciphertexts under the shared key derived from the
    /// run seed, in the wire format of [`ClientConfig::codec`]
    /// (canonical by default; [`SeededCodec`](crate::SeededCodec)
    /// selects symmetric encryption with seed-compressed uploads).
    Ckks(CkksParams),
    /// One LWE ciphertext per parameter under the shared key derived
    /// from the run seed, each clipped to the public `[-clip, clip]` and
    /// quantized at the bits `params` leaves each of the run's clients.
    Lwe {
        /// The federation's LWE parameters (the server's
        /// [`ServerPipeline::Lwe`](crate::server::ServerPipeline::Lwe)).
        params: LweParams,
        /// The public clip range of the quantization grid.
        clip: f32,
    },
}

/// Client-side connection configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The server to connect to.
    pub addr: SocketAddr,
    /// CKKS wire codec for uploads (default [`CanonicalCodec`]; must
    /// match the server's configured codec). A
    /// [`SeededCodec`](crate::SeededCodec) client
    /// encrypts uploads symmetrically so each ciphertext carries the
    /// expansion seed the format transmits in place of `c1`; downloads
    /// stay canonical, since the aggregate is not a fresh encryption.
    pub codec: Arc<dyn WireCodec>,
    /// Slot layout for CKKS uploads and the global broadcast (default
    /// dense; must match the server's
    /// [`ServerConfigBuilder::packing`](crate::server::ServerConfigBuilder::packing)).
    /// Under a bit-interleaved layout the received global is an
    /// encrypted *sum*; decryption divides by the in-band contributor
    /// counter to recover the mean.
    pub packing: packing::PackingConfig,
}

impl ClientConfig {
    /// Canonical wire codec and dense packing. The connection itself is
    /// fixed: 5 s I/O timeout, 60 s wait for a broadcast, 4 connect
    /// attempts with 50 ms base backoff. An upload is written once: after
    /// a failed write an unknown prefix of the frame is already on the
    /// wire, so a retransmit could only follow a torn frame (DESIGN.md
    /// §8.3).
    pub fn new(addr: SocketAddr) -> Self {
        ClientConfig {
            addr,
            codec: Arc::new(CanonicalCodec),
            packing: packing::PackingConfig::dense(),
        }
    }
}

/// What one client measured over a full federation run.
#[derive(Debug, Clone, Default)]
pub struct ClientReport {
    /// This client's id.
    pub client_id: usize,
    /// Rounds the client trained and uploaded for.
    pub rounds_participated: usize,
    /// `(round, accuracy)` of each received global model on the eval
    /// set (empty when no eval set was given; round 0's zero model is
    /// skipped).
    pub accuracies: Vec<(usize, f64)>,
    /// The final global model (decrypted locally under CKKS).
    pub final_model: Vec<f32>,
    /// Total bytes written to the socket (measured, not modeled).
    pub bytes_tx: u64,
    /// Total bytes read from the socket.
    pub bytes_rx: u64,
    /// Connection retries performed.
    pub retries: u64,
    /// Uploads the server NACKed (late or duplicate).
    pub rejected_updates: u64,
    /// Total wall time in local training across all rounds (the exact
    /// sum of this client's `local_train` span durations).
    pub train_time: Duration,
    /// Total wall time encrypting/encoding uploads (`encrypt` spans).
    pub encrypt_time: Duration,
    /// Total wall time writing update frames (`upload` spans).
    pub upload_time: Duration,
    /// Total wall time decoding/decrypting globals (`decrypt` spans).
    pub decrypt_time: Duration,
}

/// A blocking-I/O TCP federated client.
pub struct FlClient {
    config: ClientConfig,
    fl: FlConfig,
    local: ClientLocal,
    eval: Option<EncodedDataset>,
    half: ClientHalf,
    classes: usize,
}

impl FlClient {
    /// Builds a client around one [`ClientLocal`] shard (from
    /// [`round::prepare`](rhychee_core::round::prepare), which every
    /// participant runs identically).
    ///
    /// `eval` enables per-round accuracy measurement of received global
    /// models; pass `None` on clients that should not evaluate.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Fhe`] if the CKKS or LWE parameters are
    /// invalid, and [`NetError::Fl`] for a setup the pipeline refuses
    /// (an LWE pipeline under FedNova, with a bad clip, or too few bits
    /// per client; a packing the federation cannot ride, see
    /// [`PackingConfig::check_federation`](packing::PackingConfig::check_federation)).
    pub fn new(
        config: ClientConfig,
        fl: FlConfig,
        local: ClientLocal,
        classes: usize,
        eval: Option<EncodedDataset>,
        pipeline: ClientPipeline,
    ) -> Result<Self, NetError> {
        config.packing.check_federation(fl.aggregation, fl.clients)?;
        let (aggregation, num_params) = (fl.aggregation, local.num_parameters());
        let half = match pipeline {
            ClientPipeline::Plaintext => ClientHalf::plaintext(aggregation, num_params),
            ClientPipeline::Ckks(params) => {
                let ctx = Arc::new(CkksContext::with_parallelism(params, fl.parallelism)?);
                let codec = Arc::clone(&config.codec);
                ClientHalf::ckks(aggregation, num_params, ctx, fl.seed, codec, config.packing)
            }
            ClientPipeline::Lwe { params, clip } => {
                ClientHalf::lwe(aggregation, num_params, params, fl.clients, clip, fl.seed)?
            }
        };
        Ok(FlClient { config, fl, local, eval, half, classes })
    }

    /// Runs the full client session: connect (with retry), handshake,
    /// all training rounds, final model receipt.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when the server cannot be reached within
    /// the configured attempts, or on any protocol / I/O / FHE failure.
    pub fn run(mut self) -> Result<ClientReport, NetError> {
        let mut report = ClientReport { client_id: self.local.id(), ..ClientReport::default() };
        if telemetry::enabled() {
            telemetry::trace::set_actor(&format!("client{}", self.local.id()));
        }
        let mut stream = self.connect(&mut report)?;

        let n = wire::write_message(&mut stream, &Message::Hello { client_id: self.local.id() })?;
        self.sent(&mut report, n);
        let (msg, n) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD)?;
        self.received(&mut report, n);
        match msg {
            Message::Welcome { client_id, .. } if client_id == self.local.id() => {}
            other => {
                return Err(NetError::Protocol(format!("expected Welcome, got {}", other.name())))
            }
        }

        let mut got_final = false;
        loop {
            let (msg, rctx, n) = match wire::read_message_ctx(&mut stream, DEFAULT_MAX_PAYLOAD) {
                Ok(v) => v,
                // Once the final model is in, a server that closes
                // without a trailing Finished is still a clean session.
                Err(_) if got_final => break,
                Err(e) => return Err(e),
            };
            self.received(&mut report, n);
            let (round, last, model) = match msg {
                Message::Global { round, last, model } => (round, last, model),
                Message::UpdateAck { accepted, .. } => {
                    if !accepted {
                        report.rejected_updates += 1;
                    }
                    continue;
                }
                Message::Finished { .. } => break,
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected Global, got {}",
                        other.name()
                    )))
                }
            };

            // Spans from here to the end of this round parent under the
            // server's `net_round` span via the wire trace context (the
            // final broadcast and round-0 carry none).
            telemetry::trace::set_remote_context(rctx);
            let dspan = telemetry::span("decrypt");
            let global = self.half.decode(&model);
            report.decrypt_time += dspan.finish();
            let global = global?;
            // A Global numbered r carries the aggregate of round r-1 (the
            // final one is numbered by the round count); round 0's is none.
            if let (Some(eval), Some(agg_round)) = (&self.eval, round.checked_sub(1)) {
                let acc = HdcModel::from_flat(&global, self.classes, self.fl.hd_dim).accuracy(eval);
                report.accuracies.push((agg_round, acc));
            }
            if last {
                self.local.load_global(&global);
                report.final_model = global;
                got_final = true;
                continue; // drain until Finished (or EOF)
            }

            self.contribute(&mut stream, round, &global, rctx, &mut report)?;
        }
        Ok(report)
    }

    /// This client's half of one round: train on `global`, encrypt (or
    /// encode) the update, upload it. Spans parent under the server's
    /// `net_round` through `rctx`.
    fn contribute(
        &mut self,
        stream: &mut TcpStream,
        round: usize,
        global: &[f32],
        rctx: Option<wire::TraceContext>,
        report: &mut ClientReport,
    ) -> Result<(), NetError> {
        let span = telemetry::span("client_round");

        let tspan = telemetry::span("local_train");
        let flat = self.local.train(global, &self.fl);
        report.train_time += tspan.finish();

        let espan = telemetry::span("encrypt");
        let payload = self.half.encode(&mut self.local, flat);
        let encrypt_time = espan.finish();
        report.encrypt_time += encrypt_time;
        if telemetry::enabled() {
            telemetry::observe_labeled(
                "net.client.encrypt_ns",
                "client_id",
                &self.local.id().to_string(),
                encrypt_time.as_nanos() as u64,
            );
        }
        let update = Message::Update {
            round,
            client_id: self.local.id(),
            steps: self.local.last_steps(),
            model: payload?,
        };
        // The upload frame names this client's `client_round` span as
        // its sender (part of the traced frame format; the server folds
        // under its own `net_round` and does not adopt it).
        let uctx = rctx.map(|c| wire::TraceContext {
            trace_id: c.trace_id,
            parent_span: span.id(),
            round: c.round,
        });
        let uspan = telemetry::span("upload");
        let n = wire::write_message_ctx(stream, &update, uctx.as_ref())?;
        report.upload_time += uspan.finish();
        self.sent(report, n);
        report.rounds_participated += 1;
        span.finish();
        Ok(())
    }

    /// Connects with bounded exponential backoff.
    fn connect(&self, report: &mut ClientReport) -> Result<TcpStream, NetError> {
        let mut delay = BACKOFF;
        let mut attempt = 1;
        loop {
            match TcpStream::connect_timeout(&self.config.addr, IO_TIMEOUT) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_write_timeout(Some(IO_TIMEOUT))?;
                    stream.set_read_timeout(Some(ROUND_TIMEOUT))?;
                    return Ok(stream);
                }
                Err(e) if attempt == CONNECT_ATTEMPTS => return Err(e.into()),
                Err(_) => {}
            }
            thread::sleep(delay);
            delay *= 2;
            attempt += 1;
            report.retries += 1;
            telemetry::count("net.frame.retry", 1);
        }
    }

    fn sent(&self, report: &mut ClientReport, n: usize) {
        report.bytes_tx += n as u64;
        telemetry::count("net.bytes_tx", n as u64);
    }

    fn received(&self, report: &mut ClientReport, n: usize) {
        report.bytes_rx += n as u64;
        telemetry::count("net.bytes_rx", n as u64);
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use rhychee_core::codec;
    use rhychee_core::round::FedSetup;
    use rhychee_data::{DatasetKind, SyntheticConfig};

    use super::*;

    #[test]
    fn a_final_global_numbered_zero_records_no_accuracy() {
        let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 60, test_samples: 20 }
            .generate(3)
            .expect("generate");
        let fl = FlConfig::builder().clients(1).rounds(1).hd_dim(64).seed(5).build().expect("fl");
        let FedSetup { mut shards, test, classes } =
            rhychee_core::round::prepare(&fl, &data).expect("prepare");
        let local = ClientLocal::new(0, shards.remove(0), classes, &fl);
        let model = vec![0.5f32; classes * fl.hd_dim];
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let config = ClientConfig::new(listener.local_addr().expect("addr"));
        let frames = [
            Message::Welcome { client_id: 0, clients: 1, rounds: 0 },
            Message::Global { round: 0, last: true, model: codec::encode_plain(&model) },
            Message::Finished { round: 0 },
        ];
        let peer = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let (hello, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("hello");
            assert_eq!(hello, Message::Hello { client_id: 0 });
            for frame in &frames {
                wire::write_message(&mut stream, frame).expect("write");
            }
        });
        let client =
            FlClient::new(config, fl, local, classes, Some(test), ClientPipeline::Plaintext)
                .expect("client");
        let report = client.run().expect("final model, then Finished");
        peer.join().expect("peer");
        assert!(report.accuracies.is_empty(), "round 0 has no aggregate: {:?}", report.accuracies);
        assert_eq!(report.final_model, model);
        assert_eq!(report.rounds_participated, 0);
    }
}
