//! The round state machine: everything the server *decides*, and no
//! socket. [`FlServer::run`](super::FlServer::run) and the handler
//! threads are I/O edges that feed it events and carry out the commands
//! it puts on each peer's channel. The [parent module](super) draws the
//! states; each transition is a [`Coordinator`] method, and what the two
//! pipelines do differently is behind the [`ServerHalf`] the in-process
//! `Framework` runs too.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rhychee_core::round::{ClientUpdate, ServerHalf};
use rhychee_core::FlError;
use rhychee_fhe::ckks::CkksContext;
use rhychee_obs::rounds::{self, ClientArrival, RoundRecord};
use rhychee_telemetry as telemetry;

use super::{NetRoundReport, ServerConfig, ServerPipeline, ServerReport};
use crate::codec;
use crate::error::NetError;
use crate::residency::{Residency, ResidencyPermit};
use crate::wire::{self, Message, TraceContext};

/// Coordinator → handler commands.
pub(super) enum HandlerCmd {
    /// Write `frame` (a complete `Global` frame); unless `last`, then
    /// read one `Update`. `ctx` is the round's trace context: the frame
    /// already carries it, and the handler adopts it so its `broadcast`
    /// span parents under this round's `net_round`.
    Broadcast { round: usize, last: bool, frame: Arc<Vec<u8>>, ctx: Option<TraceContext> },
    /// Write an `UpdateAck` frame.
    Ack { round: usize, accepted: bool },
}

/// Handler → coordinator events.
pub(super) enum ServerEvent {
    /// A client's `Update` frame arrived; nothing above the frame layer
    /// and the sender's id has been checked.
    Upload(Upload),
    /// A client disconnected, timed out, or violated the protocol.
    /// `generation` identifies which incarnation of the connection died.
    Dropped { client_id: usize, generation: u64 },
}

/// One upload as its handler forwards it.
pub(super) struct Upload {
    /// The payload is the frame's bytes, unparsed: the run's pipeline
    /// interprets them on the coordinator.
    pub(super) update: ClientUpdate<Vec<u8>>,
    /// Under an encrypted pipeline, this upload's resident-memory slot. It travels with
    /// the payload and frees when the coordinator is done with the bytes
    /// (right after the fold, or on the NACK path), which unblocks the
    /// next handler's read.
    pub(super) permit: Option<ResidencyPermit>,
    /// Framed size read off the socket, for the round timeline.
    pub(super) bytes: u64,
    /// Read-completion instant, for the round timeline.
    pub(super) arrived: Instant,
}

/// The coordinator's end of one connection.
pub(super) struct Peer {
    /// Incarnation of this client's connection, unique within the run.
    pub(super) generation: u64,
    pub(super) cmds: Sender<HandlerCmd>,
}

/// Runs one fold under its span: `net_decode` for a plaintext upload,
/// `net_fold` for an encrypted one (an upload the round's ledger refuses
/// records neither), whose allocation attribution
/// (`net_fold.alloc_bytes`) should read 0 bytes in steady state under
/// CKKS (the accumulator is reused in place).
fn fold_span(encrypted: bool) -> impl FnOnce(&mut dyn FnMut()) {
    move |fold| {
        let _span = telemetry::span(if encrypted { "net_fold" } else { "net_decode" });
        fold();
    }
}

/// Maps an aggregator error to the wire-level abort, tagging it with the
/// round whose sum became untrustworthy.
fn stream_abort(round: usize, e: FlError) -> NetError {
    match e {
        FlError::StreamingAbort(reason) => NetError::StreamingAbort { round, reason },
        other => other.into(),
    }
}

/// What exists only between a round's broadcast and its close.
struct OpenRound {
    started: Instant,
    start_ns: u64,
    live_at_start: usize,
    rejected: usize,
    arrivals: Vec<ClientArrival>,
    /// Arrival offset of the upload that brought `received` to the
    /// quorum.
    quorum_ns: Option<u64>,
}

enum Phase {
    /// Opening window: connections queue, nothing has been broadcast.
    Accept,
    /// `Global{round}` is out and uploads fold into the round's sum.
    Collect(OpenRound),
    /// The last round closed into the next global.
    Closed,
    /// The final model is out; the session is over.
    Done,
}

/// The server's round state; see the module docs for the transitions.
pub(super) struct Coordinator {
    config: ServerConfig,
    /// The run's pipeline, resolved once from [`ServerPipeline`]: what
    /// the open round's sum is kept in, how an upload's bytes enter it,
    /// and how it closes into the next broadcast payload.
    half: ServerHalf,
    /// Under an encrypted pipeline, the resident-upload semaphore
    /// handlers gate their reads on; plaintext uploads are not bounded.
    pub(super) residency: Option<Arc<Residency>>,
    /// Ids with a queued or live connection: the acceptor inserts on a
    /// good handshake, a processed drop removes. It is the one "id
    /// already connected" rule, so no id is ever queued twice.
    connected: Arc<Mutex<HashSet<usize>>>,
    live: HashMap<usize, Peer>,
    /// Handshaken connections waiting for the next broadcast.
    queued: Vec<(usize, Peer)>,
    /// Codec-encoded model the next broadcast distributes.
    global: Vec<u8>,
    /// The open round or, between rounds, the one the next broadcast
    /// opens (`rounds` once all have closed).
    round: usize,
    phase: Phase,
    report: ServerReport,
}

impl Coordinator {
    /// Resolves the pipeline and starts in `Accept`, with the public
    /// all-zero model as the first global.
    pub(super) fn new(
        config: ServerConfig,
        pipeline: ServerPipeline,
        connected: Arc<Mutex<HashSet<usize>>>,
    ) -> Result<Self, NetError> {
        let (aggregation, model_params) = (config.aggregation, config.model_params);
        let residency = (!matches!(pipeline, ServerPipeline::Plaintext))
            .then(|| Residency::new(config.max_resident_uploads));
        let half = match pipeline {
            ServerPipeline::Plaintext => ServerHalf::plaintext(aggregation, model_params),
            ServerPipeline::Ckks(params) => {
                let ctx = Arc::new(CkksContext::with_parallelism(params, config.parallelism)?);
                let codec = Arc::clone(&config.codec);
                ServerHalf::ckks(aggregation, model_params, ctx, codec, config.packing)
            }
            ServerPipeline::Lwe(params) => {
                ServerHalf::lwe(aggregation, model_params, params, config.clients)?
            }
        };
        Ok(Coordinator {
            half,
            residency,
            connected,
            live: HashMap::new(),
            queued: Vec::new(),
            global: codec::encode_plain(&vec![0.0; config.model_params]),
            round: 0,
            phase: Phase::Accept,
            report: ServerReport::default(),
            config,
        })
    }

    /// Queues a handshaken connection. It becomes a participant at the
    /// next [`Coordinator::broadcast`] and never mid-round, so a
    /// reconnecting client re-enters with a whole round and cannot
    /// contribute a second update to the one in flight.
    pub(super) fn queue(&mut self, client_id: usize, peer: Peer) {
        self.queued.push((client_id, peer));
    }

    /// True once every expected client is queued: the opening window
    /// need not wait out its timeout.
    pub(super) fn opening_complete(&self) -> bool {
        self.queued.len() >= self.config.clients
    }

    /// Activates the queued connections, then distributes the global
    /// model to every live peer: `Global{round}` opening the next round
    /// (and the half's sum for it) or, once every round has closed, the
    /// final `Global{last}`. Fails
    /// with `QuorumNotReached` when the opening window gathered fewer
    /// than `quorum` connections.
    pub(super) fn broadcast(&mut self, ctx: Option<TraceContext>) -> Result<(), NetError> {
        let (opening, quorum) = (matches!(self.phase, Phase::Accept), self.config.quorum);
        if opening && self.queued.len() < quorum {
            return Err(NetError::QuorumNotReached {
                round: 0,
                received: self.queued.len(),
                quorum,
            });
        }
        for (client_id, peer) in self.queued.drain(..) {
            self.live.insert(client_id, peer);
            if !opening {
                self.report.rejoined_clients += 1;
                telemetry::count("net.rejoins", 1);
            }
        }
        telemetry::gauge("fl.clients.connected", self.live.len() as f64);

        let (round, last) = (self.round, self.round == self.config.rounds);
        if !last {
            // 1-based "round in flight" (0 means still handshaking).
            telemetry::gauge("fl.round.current", (round + 1) as f64);
        }
        let (started, start_ns) = (Instant::now(), telemetry::trace::now_ns());
        // Framed once; every handler writes the same bytes.
        let model = std::mem::take(&mut self.global);
        let frame = wire::encode_frame_ctx(&Message::Global { round, last, model }, ctx.as_ref());
        let frame = Arc::new(frame);
        for peer in self.live.values() {
            let frame = Arc::clone(&frame);
            let _ = peer.cmds.send(HandlerCmd::Broadcast { round, last, frame, ctx });
        }
        self.phase = if last {
            Phase::Done
        } else {
            self.half.open(round);
            Phase::Collect(OpenRound {
                started,
                start_ns,
                live_at_start: self.live.len(),
                rejected: 0,
                arrivals: Vec::new(),
                quorum_ns: None,
            })
        };
        Ok(())
    }

    /// Feeds one handler event into the machine. Fails only with the
    /// `StreamingAbort` of a fold that broke an aggregator invariant.
    pub(super) fn on_event(&mut self, event: ServerEvent) -> Result<(), NetError> {
        match event {
            ServerEvent::Upload(upload) => self.upload(upload),
            ServerEvent::Dropped { client_id, generation } => {
                self.dropped(client_id, generation);
                Ok(())
            }
        }
    }

    fn upload(&mut self, upload: Upload) -> Result<(), NetError> {
        // Outside a collection window there is no round to join and no
        // reader for an ACK: the handler is already on its final frames.
        let Phase::Collect(open) = &mut self.phase else { return Ok(()) };
        let Upload { update, permit, bytes, arrived } = upload;
        let ClientUpdate { client_id, round, .. } = update;
        let fold = fold_span(self.residency.is_some());
        let accepted = self.half.fold(&update, fold).map_err(|e| stream_abort(round, e))?;
        // The upload's bytes live only for the duration of the fold; the
        // NACK path releases the payload and its permit identically.
        drop((update, permit));
        if !accepted {
            open.rejected += 1;
            telemetry::count("net.frame.nack", 1);
        }
        let offset_ns = arrived.saturating_duration_since(open.started).as_nanos() as u64;
        open.arrivals.push(ClientArrival { client_id, offset_ns, bytes, accepted });
        if accepted && open.quorum_ns.is_none() && self.half.received() >= self.config.quorum {
            open.quorum_ns = Some(offset_ns);
        }
        if let Some(peer) = self.live.get(&client_id) {
            let _ = peer.cmds.send(HandlerCmd::Ack { round, accepted });
        }
        Ok(())
    }

    fn dropped(&mut self, client_id: usize, generation: u64) {
        // A drop names the connection incarnation that died. If the live
        // peer is from another generation, the client already rejoined
        // and this drop is stale.
        match self.live.get(&client_id) {
            Some(peer) if peer.generation == generation => {}
            _ => return,
        }
        self.live.remove(&client_id);
        self.connected.lock().expect("connected set").remove(&client_id);
        self.report.dropped_clients += 1;
        telemetry::count("net.dropped_clients", 1);
    }

    /// True when every live peer has reported. A client whose upload was
    /// accepted may drop before the round closes; its contribution stays
    /// counted, so `received` can meet or exceed the shrinking live set.
    pub(super) fn complete(&self) -> bool {
        self.half.received() >= self.live.len()
    }

    /// Closes the open round into the next global, or fails with
    /// `QuorumNotReached` when fewer than `quorum` updates were accepted.
    pub(super) fn close(&mut self) -> Result<(), NetError> {
        let Phase::Collect(open) = std::mem::replace(&mut self.phase, Phase::Closed) else {
            return Err(NetError::Protocol("close without an open round".into()));
        };
        telemetry::gauge("fl.clients.connected", self.live.len() as f64);
        let (round, received, quorum) = (self.round, self.half.received(), self.config.quorum);
        telemetry::gauge("fl.quorum.met", f64::from(u8::from(received >= quorum)));
        if received < quorum {
            return Err(NetError::QuorumNotReached { round, received, quorum });
        }
        // Encoding the payload is part of distributing it and stays
        // outside `net_aggregate`.
        let mut aggregate_time = Duration::ZERO;
        let (global, plain_model) = self
            .half
            .close(None, |aggregate| {
                let span = telemetry::span("net_aggregate");
                aggregate();
                aggregate_time = span.finish();
            })
            .map_err(|e| stream_abort(round, e))?;
        if let Some(residency) = &self.residency {
            telemetry::gauge("net.agg.resident_uploads", residency.held() as f64);
            telemetry::gauge("net.agg.peak_resident_uploads", residency.peak() as f64);
            telemetry::gauge("net.agg.resident_upload_bytes", residency.bytes() as f64);
            let peak_bytes = residency.peak_bytes() as f64;
            telemetry::gauge("net.agg.peak_resident_upload_bytes", peak_bytes);
        }
        // Where the server can read the aggregate (plaintext), it is the
        // report's final model.
        (self.global, self.report.final_plain_model) = (global, plain_model);
        self.report.rounds.push(NetRoundReport {
            round,
            received,
            live_clients: self.live.len(),
            rejected: open.rejected,
            aggregate_time,
        });
        if telemetry::enabled() {
            rounds::record(RoundRecord {
                round,
                start_ns: open.start_ns,
                quorum_ns: open.quorum_ns,
                close_ns: open.started.elapsed().as_nanos() as u64,
                received,
                rejected: open.rejected,
                stragglers: open.live_at_start.saturating_sub(received),
                arrivals: open.arrivals,
            });
        }
        self.round += 1;
        Ok(())
    }

    /// Ends the session: the run's report (socket byte totals are the
    /// edge's to fill in).
    pub(super) fn finish(self) -> ServerReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    //! Transition tests: no socket, no handler thread. Each peer is a
    //! bare channel whose receiving end the test keeps, so it sees
    //! exactly the commands a handler would have been given.

    use std::sync::mpsc::{self, Receiver};

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rhychee_core::packing::{self, PackingConfig};
    use rhychee_core::round::{self, ServerRound};
    use rhychee_core::Aggregation;
    use rhychee_fhe::lwe::{LweCiphertext, LweContext};
    use rhychee_fhe::params::CkksParams;

    use super::*;
    use crate::wire::DEFAULT_MAX_PAYLOAD;

    const CLIENTS: usize = 4;
    const MODEL_PARAMS: usize = 300; // two toy ciphertexts (256 slots each)

    /// The encoded reference aggregate of a round over some clients.
    type Oracle = Box<dyn Fn(usize, &[usize]) -> Vec<u8>>;

    /// One pipeline's test material.
    struct Kit {
        name: &'static str,
        pipeline: fn() -> ServerPipeline,
        /// Client `i`'s well-formed upload payload.
        payloads: Vec<Vec<u8>>,
        /// Payloads the pipeline must refuse, by what is wrong with them.
        malformed: Vec<(&'static str, Vec<u8>)>,
        oracle: Oracle,
    }

    fn model(client: usize) -> Vec<f32> {
        (0..MODEL_PARAMS).map(|j| ((client * MODEL_PARAMS + j) as f32 * 0.37).sin()).collect()
    }

    fn plain_kit() -> Kit {
        let oracle = |round, ids: &[usize]| {
            let mut reference = ServerRound::new(round, Aggregation::FedAvg);
            for &client_id in ids {
                let update = ClientUpdate { client_id, round, steps: 1, payload: model(client_id) };
                assert!(reference.accept(update));
            }
            codec::encode_plain(&reference.aggregate().expect("oracle"))
        };
        Kit {
            name: "plaintext",
            pipeline: || ServerPipeline::Plaintext,
            payloads: (0..CLIENTS).map(|c| codec::encode_plain(&model(c))).collect(),
            malformed: vec![
                ("wrong length", codec::encode_plain(&model(1)[..MODEL_PARAMS - 1])),
                ("garbage", vec![0xAB; 40]),
                ("empty", Vec::new()),
            ],
            oracle: Box::new(oracle),
        }
    }

    fn ckks_kit() -> Kit {
        let ctx = CkksContext::new(CkksParams::toy()).expect("toy context");
        let mut rng = StdRng::seed_from_u64(17);
        let (_sk, pk) = ctx.generate_keys(&mut rng);
        let dense = PackingConfig::dense();
        let uploads: Vec<_> = (0..CLIENTS)
            .map(|c| packing::encrypt_model_with(&ctx, &pk, &model(c), &dense, &mut rng))
            .collect::<Result<_, _>>()
            .expect("encrypt");
        let payloads: Vec<_> = uploads.iter().map(|cts| codec::encode_ckks(&ctx, cts)).collect();
        let malformed = vec![
            ("wrong ciphertext count", codec::encode_ckks(&ctx, &uploads[1][..1])),
            ("garbage", vec![0xAB; 40]),
            ("other pipeline's payload", codec::encode_plain(&model(1))),
        ];
        let oracle = move |round, ids: &[usize]| {
            let mut reference = ServerRound::new(round, Aggregation::FedAvg);
            for &client_id in ids {
                let payload = uploads[client_id].clone();
                assert!(reference.accept(ClientUpdate { client_id, round, steps: 1, payload }));
            }
            codec::encode_ckks(&ctx, &reference.aggregate_ckks(&ctx).expect("oracle"))
        };
        Kit {
            name: "ckks",
            pipeline: || ServerPipeline::Ckks(CkksParams::toy()),
            payloads,
            malformed,
            oracle: Box::new(oracle),
        }
    }

    fn lwe_kit() -> Kit {
        let pipeline = || ServerPipeline::Lwe(round::lwe_fl_params(CLIENTS, 6));
        let ServerPipeline::Lwe(params) = pipeline() else { unreachable!() };
        let ctx = LweContext::new(params).expect("LWE context");
        let mut rng = StdRng::seed_from_u64(19);
        let sk = ctx.generate_key(&mut rng);
        // Grid values of 6 bits: four of them sum below t = 256.
        let uploads: Vec<Vec<LweCiphertext>> = (0..CLIENTS)
            .map(|c| {
                let values = (0..MODEL_PARAMS).map(|j| ((c * 7 + j) % 63 + 1) as u64);
                values.map(|m| ctx.encrypt(&sk, m, &mut rng)).collect::<Result<_, _>>()
            })
            .collect::<Result<_, _>>()
            .expect("encrypt");
        let payloads = uploads.iter().map(|cts| codec::encode_lwe(&ctx, 1, cts)).collect();
        let ckks = CkksContext::new(CkksParams::toy()).expect("toy context");
        let (_sk, pk) = ckks.generate_keys(&mut rng);
        let dense = PackingConfig::dense();
        let ckks_upload = packing::encrypt_model_with(&ckks, &pk, &model(1), &dense, &mut rng);
        let malformed = vec![
            ("wrong ciphertext count", codec::encode_lwe(&ctx, 1, &uploads[1][..1])),
            ("an upload claiming two contributors", codec::encode_lwe(&ctx, 2, &uploads[1])),
            ("garbage", vec![0xAB; 40]),
            ("other pipeline's payload", codec::encode_ckks(&ckks, &ckks_upload.expect("CKKS"))),
        ];
        let oracle = move |_round, ids: &[usize]| {
            let mut sums = uploads[ids[0]].clone();
            for &client_id in &ids[1..] {
                for (acc, ct) in sums.iter_mut().zip(&uploads[client_id]) {
                    ctx.add_assign(acc, ct).expect("oracle");
                }
            }
            codec::encode_lwe(&ctx, ids.len(), &sums)
        };
        Kit { name: "lwe", pipeline, payloads, malformed, oracle: Box::new(oracle) }
    }

    fn kits() -> [Kit; 3] {
        [plain_kit(), ckks_kit(), lwe_kit()]
    }

    /// A machine plus the receiving end of every peer ever queued
    /// (generation `g` is `cmds[g - 1]`).
    struct Rig {
        machine: Coordinator,
        cmds: Vec<Receiver<HandlerCmd>>,
    }

    impl Rig {
        /// A machine in `Accept` with clients `0..joined` queued.
        fn new(kit: &Kit, joined: usize, quorum: usize, rounds: usize) -> Rig {
            let config = ServerConfig::builder()
                .clients(CLIENTS)
                .quorum(quorum)
                .rounds(rounds)
                .model_params(MODEL_PARAMS)
                .build()
                .expect("config");
            let connected = Arc::new(Mutex::new(HashSet::new()));
            let machine = Coordinator::new(config, (kit.pipeline)(), connected).expect("machine");
            let mut rig = Rig { machine, cmds: Vec::new() };
            for client_id in 0..joined {
                rig.join(client_id);
            }
            rig
        }

        /// What the acceptor and `Session::admit` do for a handshaken
        /// connection; returns its generation.
        fn join(&mut self, client_id: usize) -> u64 {
            assert!(self.machine.connected.lock().expect("set").insert(client_id), "id taken");
            let (tx, rx) = mpsc::channel();
            self.cmds.push(rx);
            let generation = self.cmds.len() as u64;
            self.machine.queue(client_id, Peer { generation, cmds: tx });
            generation
        }

        fn open(&self) -> &OpenRound {
            match &self.machine.phase {
                Phase::Collect(open) => open,
                _ => panic!("no open round"),
            }
        }

        /// Delivers an upload that finished arriving `at_ms` into the
        /// open round.
        fn upload(&mut self, client_id: usize, round: usize, payload: &[u8], at_ms: u64) {
            let update = ClientUpdate { client_id, round, steps: 1, payload: payload.to_vec() };
            let arrived = self.open().started + Duration::from_millis(at_ms);
            let upload = Upload { update, permit: None, bytes: payload.len() as u64, arrived };
            self.machine.on_event(ServerEvent::Upload(upload)).expect("no abort");
        }

        fn drop_peer(&mut self, client_id: usize, generation: u64) {
            self.machine.on_event(ServerEvent::Dropped { client_id, generation }).expect("drop");
        }

        /// The commands the peer of `generation` was sent since last asked.
        fn sent(&self, generation: u64) -> Vec<HandlerCmd> {
            self.cmds[generation as usize - 1].try_iter().collect()
        }

        /// The one `Ack` the peer of `generation` was just sent.
        fn ack(&self, generation: u64) -> (usize, bool) {
            match self.sent(generation).as_slice() {
                [HandlerCmd::Ack { round, accepted }] => (*round, *accepted),
                other => panic!("expected one Ack, got {} command(s)", other.len()),
            }
        }
    }

    #[test]
    fn fresh_uploads_are_accepted_and_the_quorum_instant_is_the_quorum_th_arrival() {
        for kit in kits() {
            let mut rig = Rig::new(&kit, CLIENTS, 3, 1);
            rig.machine.broadcast(None).expect("quorum of peers");
            for generation in 1..=CLIENTS as u64 {
                let sent = rig.sent(generation);
                assert!(
                    matches!(
                        sent.as_slice(),
                        [HandlerCmd::Broadcast { round: 0, last: false, .. }]
                    ),
                    "{}: every queued peer opens round 0",
                    kit.name
                );
            }
            let ms = |n: u64| Some(Duration::from_millis(n).as_nanos() as u64);
            for (nth, (client, at_ms)) in
                [(2, 10), (0, 20), (3, 30), (1, 40)].into_iter().enumerate()
            {
                assert!(!rig.machine.complete(), "{}: {nth} of 4 live peers reported", kit.name);
                rig.upload(client, 0, &kit.payloads[client], at_ms);
                assert_eq!(rig.ack(client as u64 + 1), (0, true), "{}", kit.name);
                let want = if nth + 1 < 3 { None } else { ms(30) };
                assert_eq!(rig.open().quorum_ns, want, "{}: after upload {}", kit.name, nth + 1);
            }
            assert!(rig.machine.complete());
            let arrivals = &rig.open().arrivals;
            assert_eq!(arrivals.iter().map(|a| a.client_id).collect::<Vec<_>>(), [2, 0, 3, 1]);
            assert!(arrivals.iter().all(|a| a.accepted && ms(0) < Some(a.offset_ns)));
            assert_eq!(rig.open().rejected, 0);
        }
    }

    #[test]
    fn rejected_uploads_are_nacked_counted_and_never_touch_the_aggregate() {
        for kit in kits() {
            let mut rig = Rig::new(&kit, CLIENTS, 3, 1);
            rig.machine.broadcast(None).expect("quorum of peers");
            let mut rejected = 0;
            let mut nack = |rig: &mut Rig, client: usize, round, payload: &[u8], what: &str| {
                rig.sent(client as u64 + 1);
                rig.upload(client, round, payload, 5);
                assert_eq!(rig.ack(client as u64 + 1), (round, false), "{}: {what}", kit.name);
                rejected += 1;
                assert_eq!(rig.open().rejected, rejected, "{}: {what}", kit.name);
                assert!(!rig.open().arrivals.last().expect("recorded").accepted);
            };
            // Client 1 only ever sends what must be refused; 0, 2 and 3
            // report properly around it.
            rig.upload(0, 0, &kit.payloads[0], 1);
            nack(&mut rig, 0, 0, &kit.payloads[0], "duplicate id");
            nack(&mut rig, 1, 7, &kit.payloads[1], "other round");
            rig.upload(3, 0, &kit.payloads[3], 2);
            for (what, payload) in &kit.malformed {
                nack(&mut rig, 1, 0, payload, what);
            }
            rig.upload(2, 0, &kit.payloads[2], 3);
            assert_eq!(rig.machine.half.received(), 3);
            assert!(rig.open().quorum_ns.is_some());

            rig.machine.close().expect("quorum met");
            assert_eq!(
                rig.machine.global,
                (kit.oracle)(0, &[0, 2, 3]),
                "{}: bit-identical to a round that never saw the rejected uploads",
                kit.name
            );
            let report = &rig.machine.report.rounds[0];
            assert_eq!((report.received, report.rejected), (3, 2 + kit.malformed.len()));
        }
    }

    #[test]
    fn an_accepted_upload_outlives_its_client_and_only_the_live_generation_is_evicted() {
        for kit in kits() {
            let mut rig = Rig::new(&kit, 3, 2, 1);
            rig.machine.broadcast(None).expect("quorum of peers");
            rig.upload(0, 0, &kit.payloads[0], 1);

            rig.drop_peer(0, 99);
            assert_eq!(rig.machine.live.len(), 3, "{}: a stale generation evicts nobody", kit.name);
            assert_eq!(rig.machine.report.dropped_clients, 0);
            rig.drop_peer(0, 1);
            rig.drop_peer(0, 1);
            assert_eq!(rig.machine.report.dropped_clients, 1, "{}: evicted once", kit.name);
            assert!(!rig.machine.live.contains_key(&0));
            assert!(!rig.machine.connected.lock().expect("set").contains(&0), "id is free again");

            // Client 0 still counts, so one more upload completes the
            // round against the two peers left, though client 2 is silent.
            assert!(!rig.machine.complete());
            rig.upload(1, 0, &kit.payloads[1], 2);
            assert!(rig.machine.complete(), "{}: received 2 of a live set of 2", kit.name);
            rig.machine.close().expect("quorum met");
            assert_eq!(rig.machine.global, (kit.oracle)(0, &[0, 1]), "{}", kit.name);
            let report = &rig.machine.report.rounds[0];
            assert_eq!((report.received, report.live_clients), (2, 2));
        }
    }

    #[test]
    fn below_the_quorum_the_opening_and_the_close_fail_with_the_counts() {
        for kit in kits() {
            let mut rig = Rig::new(&kit, 1, 2, 2);
            let err = rig.machine.broadcast(None).expect_err("one peer, quorum two");
            assert!(
                matches!(err, NetError::QuorumNotReached { round: 0, received: 1, quorum: 2 }),
                "{}: {err}",
                kit.name
            );

            let mut rig = Rig::new(&kit, 3, 2, 2);
            rig.machine.broadcast(None).expect("quorum of peers");
            for client in 0..3 {
                rig.upload(client, 0, &kit.payloads[client], 1);
            }
            rig.machine.close().expect("round 0");
            rig.machine.broadcast(None).expect("round 1");
            rig.upload(2, 1, &kit.payloads[2], 1);
            let err = rig.machine.close().expect_err("one update, quorum two");
            assert!(
                matches!(err, NetError::QuorumNotReached { round: 1, received: 1, quorum: 2 }),
                "{}: {err}",
                kit.name
            );
        }
    }

    #[test]
    fn closing_at_the_quorum_matches_the_oracle_in_every_arrival_order() {
        for kit in kits() {
            let want = (kit.oracle)(0, &[0, 1, 3]);
            for order in [[0, 1, 3], [3, 0, 1], [1, 3, 0]] {
                let mut rig = Rig::new(&kit, CLIENTS, 3, 1);
                rig.machine.broadcast(None).expect("quorum of peers");
                for (at_ms, client) in order.into_iter().enumerate() {
                    rig.upload(client, 0, &kit.payloads[client], at_ms as u64);
                }
                assert!(!rig.machine.complete(), "client 2 is live and silent");
                rig.machine.close().expect("the deadline finds the quorum met");
                assert_eq!(rig.machine.global, want, "{}: order {order:?}", kit.name);
            }
        }
    }

    #[test]
    fn queued_connections_activate_at_the_next_broadcast_final_included_never_mid_round() {
        for kit in kits() {
            let mut rig = Rig::new(&kit, 2, 2, 2);
            rig.machine.broadcast(None).expect("quorum of peers");
            assert_eq!(rig.machine.report.rejoined_clients, 0, "first connections are no rejoins");

            // Client 2 arrives while round 0 collects: it waits.
            let late = rig.join(2);
            rig.upload(0, 0, &kit.payloads[0], 1);
            rig.upload(1, 0, &kit.payloads[1], 2);
            assert!(rig.machine.complete(), "{}: a queued peer is not waited for", kit.name);
            assert_eq!(rig.machine.live.len(), 2);
            assert!(rig.sent(late).is_empty(), "{}: nothing is sent mid-round", kit.name);
            rig.machine.close().expect("round 0");
            let round0 = rig.machine.global.clone();

            rig.machine.broadcast(None).expect("round 1");
            assert_eq!(rig.machine.report.rejoined_clients, 1);
            match rig.sent(late).as_slice() {
                [HandlerCmd::Broadcast { round: 1, last: false, frame, .. }] => {
                    let msg = wire::decode_frame(frame, DEFAULT_MAX_PAYLOAD).expect("frame");
                    assert_eq!(msg, Message::Global { round: 1, last: false, model: round0 });
                }
                other => panic!("{}: expected Global 1, got {} command(s)", kit.name, other.len()),
            }

            // Client 0 departs and re-handshakes during the last round.
            rig.drop_peer(0, 1);
            let back = rig.join(0);
            rig.upload(1, 1, &kit.payloads[1], 1);
            rig.upload(2, 1, &kit.payloads[2], 2);
            assert!(rig.sent(back).is_empty());
            rig.machine.close().expect("round 1");
            let last = rig.machine.global.clone();
            assert_eq!(last, (kit.oracle)(1, &[1, 2]), "{}", kit.name);

            rig.machine.broadcast(None).expect("final");
            assert!(matches!(rig.machine.phase, Phase::Done));
            assert_eq!(rig.machine.report.rejoined_clients, 2, "{}", kit.name);
            let finals: Vec<Arc<Vec<u8>>> = [back, 2, late]
                .into_iter()
                .map(|generation| match rig.sent(generation).pop() {
                    Some(HandlerCmd::Broadcast { round: 2, last: true, frame, ctx: None }) => frame,
                    _ => panic!("{}: generation {generation} missed the final", kit.name),
                })
                .collect();
            assert!(finals.iter().all(|f| Arc::ptr_eq(f, &finals[0])), "framed once");
            let msg = wire::decode_frame(&finals[0], DEFAULT_MAX_PAYLOAD).expect("frame");
            assert_eq!(msg, Message::Global { round: 2, last: true, model: last });

            // The departed connection's late report names a generation
            // that is no longer live; an upload has no round to join.
            rig.drop_peer(0, 1);
            assert!(rig.machine.live.contains_key(&0));
            let update = ClientUpdate { client_id: 1, round: 1, steps: 1, payload: Vec::new() };
            let upload = Upload { update, permit: None, bytes: 0, arrived: Instant::now() };
            rig.machine.on_event(ServerEvent::Upload(upload)).expect("ignored");
            assert_eq!(rig.machine.report.rounds.len(), 2);
            assert_eq!(rig.machine.finish().dropped_clients, 1);
        }
    }
}
