//! Loopback integration tests for the networked runtime: a real
//! [`FlServer`] plus client threads over TCP must reproduce the
//! in-process [`Framework`] bit for bit under every scheme, survive a
//! mid-round dropout via quorum aggregation, NACK late uploads, and
//! report measured byte counts that reconcile with the analytical
//! upload model.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use rhychee_fl::core::packing::{self, PackingConfig};
use rhychee_fl::core::round::{self, ClientLocal, EncryptKey, FedSetup};
use rhychee_fl::core::{FlConfig, Framework, RoundHooks};
use rhychee_fl::data::{DatasetKind, SyntheticConfig, TrainTest};
use rhychee_fl::fhe::ckks::CkksContext;
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::net::{
    codec, wire, ClientConfig, ClientPipeline, ClientReport, FlClient, FlServer, Message,
    SeededCodec, ServerConfig, ServerPipeline, ServerReport, DEFAULT_MAX_PAYLOAD,
};

fn har_data() -> TrainTest {
    SyntheticConfig { kind: DatasetKind::Har, train_samples: 360, test_samples: 120 }
        .generate(77)
        .expect("dataset generation")
}

fn config(clients: usize, rounds: usize, seed: u64) -> FlConfig {
    FlConfig::builder()
        .clients(clients)
        .rounds(rounds)
        .hd_dim(256)
        .seed(seed)
        .build()
        .expect("valid config")
}

/// Spawns a server and one [`FlClient`] thread per shard over loopback,
/// runs the full federation, and returns both sides' reports (clients
/// ordered by id; client 0 evaluates on the test split).
fn run_networked(
    fl: &FlConfig,
    data: &TrainTest,
    ckks: Option<CkksParams>,
) -> (ServerReport, Vec<ClientReport>) {
    run_networked_seeded(fl, data, ckks, false)
}

/// [`run_networked`] with a switch for the seed-compressed CKKS wire
/// codec (symmetric encryptions whose `c1` ships as a 32-byte seed),
/// selected through the redesigned codec API on both endpoints.
fn run_networked_seeded(
    fl: &FlConfig,
    data: &TrainTest,
    ckks: Option<CkksParams>,
    seeded: bool,
) -> (ServerReport, Vec<ClientReport>) {
    let server_pipeline = match &ckks {
        Some(p) => ServerPipeline::Ckks(p.clone()),
        None => ServerPipeline::Plaintext,
    };
    let client_pipeline = || match &ckks {
        Some(p) => ClientPipeline::Ckks(p.clone()),
        None => ClientPipeline::Plaintext,
    };
    run_networked_with(fl, data, server_pipeline, &client_pipeline, seeded)
}

/// [`run_networked_seeded`] under any pair of pipelines.
fn run_networked_with(
    fl: &FlConfig,
    data: &TrainTest,
    server_pipeline: ServerPipeline,
    client_pipeline: &dyn Fn() -> ClientPipeline,
    seeded: bool,
) -> (ServerReport, Vec<ClientReport>) {
    let FedSetup { shards, test, classes } = round::prepare(fl, data).expect("prepare");
    let num_params = classes * fl.hd_dim;
    let mut builder =
        ServerConfig::builder().clients(fl.clients).rounds(fl.rounds).model_params(num_params);
    if seeded {
        builder = builder.codec(SeededCodec);
    }
    let server =
        FlServer::bind("127.0.0.1:0", builder.build().expect("server config"), server_pipeline)
            .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = thread::spawn(move || server.run());

    let mut joins = Vec::new();
    for (id, shard) in shards.into_iter().enumerate() {
        let local = ClientLocal::new(id, shard, classes, fl);
        let eval = if id == 0 { Some(test.clone()) } else { None };
        let mut client_config = ClientConfig::new(addr);
        if seeded {
            client_config.codec = Arc::new(SeededCodec);
        }
        let pipeline = client_pipeline();
        let client = FlClient::new(client_config, fl.clone(), local, classes, eval, pipeline)
            .expect("client build");
        joins.push(thread::spawn(move || client.run()));
    }
    let clients: Vec<ClientReport> =
        joins.into_iter().map(|j| j.join().expect("join").expect("client run")).collect();
    let server = server.join().expect("join").expect("server run");
    (server, clients)
}

#[test]
fn networked_plaintext_matches_in_process_framework() {
    let data = har_data();
    let fl = config(4, 2, 5);
    let (server, clients) = run_networked(&fl, &data, None);

    let mut fw = Framework::hdc_plaintext(fl, &data).expect("framework");
    fw.run().expect("framework run");
    let expected = fw.global_model().flatten();

    assert_eq!(server.final_plain_model.as_deref(), Some(expected.as_slice()));
    for c in &clients {
        assert_eq!(c.final_model, expected, "client {} diverged", c.client_id);
        assert_eq!(c.rounds_participated, 2);
    }
}

#[test]
fn networked_ckks_matches_in_process_framework_bit_for_bit() {
    // The acceptance bar: 1 server, 4 client threads, 3 encrypted
    // rounds over loopback reach exactly the global model the
    // in-process Framework computes under the same seed.
    let data = har_data();
    let fl = config(4, 3, 7);
    let (server, clients) = run_networked(&fl, &data, Some(CkksParams::toy()));

    let mut fw = Framework::hdc_encrypted(fl.clone(), &data, CkksParams::toy()).expect("framework");
    fw.run().expect("framework run");
    let expected = fw.global_model().flatten();

    // The server only ever held ciphertexts: it cannot report a
    // plaintext model, and every client decrypted the same aggregate.
    assert!(server.final_plain_model.is_none());
    assert_eq!(server.rounds.len(), 3);
    assert!(server.rounds.iter().all(|r| r.received == 4 && r.rejected == 0));
    assert_eq!(server.dropped_clients, 0);
    for c in &clients {
        assert_eq!(c.final_model, expected, "client {} diverged", c.client_id);
        assert_eq!(c.rounds_participated, 3);
    }
    // Client 0 evaluated each aggregate; its last measurement must equal
    // the Framework's final accuracy exactly (same model bits).
    let accs = &clients[0].accuracies;
    assert_eq!(accs.len(), 3);
    assert_eq!(accs.last().expect("final accuracy").1, fw.global_accuracy());
}

#[test]
fn networked_lwe_matches_in_process_framework_bit_for_bit() {
    // The TFHE arm crosses the same sockets: 4 client threads, 3 LWE
    // rounds over loopback reach exactly the Framework's global model.
    let data = har_data();
    let mut fl = config(4, 3, 7);
    fl.hd_dim = 96; // one ciphertext per parameter
    let (params, clip) = (round::lwe_fl_params(4, 6), 32.0);
    let client_pipeline = || ClientPipeline::Lwe { params, clip };
    let (server, clients) =
        run_networked_with(&fl, &data, ServerPipeline::Lwe(params), &client_pipeline, false);

    let mut fw = Framework::hdc_encrypted_lwe(fl.clone(), &data, params, clip).expect("framework");
    fw.run().expect("framework run");
    let expected = fw.global_model().flatten();

    assert!(server.final_plain_model.is_none(), "the server only held ciphertexts");
    assert_eq!(server.rounds.len(), 3);
    assert!(server.rounds.iter().all(|r| r.received == 4 && r.rejected == 0));
    assert_eq!(server.dropped_clients, 0);
    for c in &clients {
        assert_eq!(c.final_model, expected, "client {} diverged", c.client_id);
        assert_eq!(c.rounds_participated, 3);
    }
    let accs = &clients[0].accuracies;
    assert_eq!(accs.len(), 3);
    assert_eq!(accs.last().expect("final accuracy").1, fw.global_accuracy());
}

#[test]
fn dropout_mid_round_is_survived_by_quorum_aggregation() {
    // 5 clients, quorum 4: client 4 participates in round 0 with real
    // training + encryption, then vanishes mid-round-1. The server must
    // finish all 3 rounds, reweighting rounds 1-2 over the 4 survivors.
    // Telemetry stays on so the frame-level counters are live (other
    // tests in this binary tolerate the +24-byte trace context within
    // their framing slack).
    rhychee_fl::telemetry::set_enabled(true);
    let data = har_data();
    let fl = config(5, 3, 13);
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let cfg = ServerConfig::builder()
        .clients(fl.clients)
        .rounds(fl.rounds)
        .model_params(num_params)
        .quorum(4)
        .round_timeout(Duration::from_secs(10))
        .build()
        .expect("server config");
    let server =
        FlServer::bind("127.0.0.1:0", cfg, ServerPipeline::Ckks(CkksParams::toy())).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = thread::spawn(move || server.run());

    let mut shards = shards;
    let dropout_shard = shards.pop().expect("5 shards");
    let mut joins = Vec::new();
    for (id, shard) in shards.into_iter().enumerate() {
        let local = ClientLocal::new(id, shard, classes, &fl);
        let client = FlClient::new(
            ClientConfig::new(addr),
            fl.clone(),
            local,
            classes,
            None,
            ClientPipeline::Ckks(CkksParams::toy()),
        )
        .expect("client build");
        joins.push(thread::spawn(move || client.run()));
    }

    // Client 4, hand-rolled on the raw wire so we control the dropout.
    let fl_dropout = fl.clone();
    let dropout = thread::spawn(move || {
        let mut local = ClientLocal::new(4, dropout_shard, classes, &fl_dropout);
        let ctx = CkksContext::new(CkksParams::toy()).expect("ctx");
        let (_sk, pk) = round::derive_ckks_keys(&ctx, fl_dropout.seed);
        let mut stream = TcpStream::connect(addr).expect("connect");
        wire::write_message(&mut stream, &Message::Hello { client_id: 4 }).expect("hello");
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("welcome");
        assert!(matches!(msg, Message::Welcome { client_id: 4, .. }), "got {}", msg.name());

        // Round 0: honest participation.
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global 0");
        let model = match msg {
            Message::Global { round: 0, last: false, model } => model,
            other => panic!("expected Global 0, got {}", other.name()),
        };
        let global = codec::decode_plain(&model, num_params).expect("round-0 plaintext zeros");
        let flat = local.train(&global, &fl_dropout);
        let cts = local
            .encrypt_update(&ctx, EncryptKey::Public(&pk), &PackingConfig::dense(), &flat)
            .expect("encrypt");
        let update = Message::Update {
            round: 0,
            client_id: 4,
            steps: local.last_steps(),
            model: codec::encode_ckks(&ctx, &cts),
        };
        wire::write_message(&mut stream, &update).expect("upload");
        let (ack, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("ack");
        assert!(matches!(ack, Message::UpdateAck { accepted: true, .. }), "got {}", ack.name());

        // Read the round-1 broadcast, then drop dead mid-round.
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global 1");
        assert!(matches!(msg, Message::Global { round: 1, .. }), "got {}", msg.name());
        drop(stream);
    });

    dropout.join().expect("dropout client");
    let finals: Vec<Vec<f32>> = joins
        .into_iter()
        .map(|j| j.join().expect("join").expect("client run").final_model)
        .collect();
    let server = server.join().expect("join").expect("server run");

    assert_eq!(server.rounds.len(), 3);
    assert_eq!(server.rounds[0].received, 5);
    assert_eq!(server.rounds[1].received, 4, "round 1 must close on the quorum of survivors");
    assert_eq!(server.rounds[2].received, 4);
    assert_eq!(server.dropped_clients, 1);
    // A dropout is neither a NACK nor a CRC failure: this run rejected
    // nothing, and no frame in this binary may ever fail its checksum.
    assert!(server.rounds.iter().all(|r| r.rejected == 0), "dropout must not NACK");
    let reg = rhychee_fl::telemetry::metrics::global();
    assert_eq!(reg.counter("net.frame.crc_fail").get(), 0, "no torn frames on loopback");
    // Survivors still agree on one final model.
    assert!(finals.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn rejoined_client_is_not_double_counted_and_matches_framework() {
    // Quorum-reweighting regression for churn: client 4 participates in
    // round 0, departs during round 1, reconnects with the same id, and
    // rejoins for round 2. It must count exactly once in every round it
    // attends — received = [5, 4, 5] with zero NACKs — and the final
    // model must match the in-process Framework running the same
    // presence schedule, bit for bit. All five clients are hand-rolled
    // on the raw wire so the survivors can gate their round-1 uploads on
    // the rejoiner's re-handshake: the reconnect is then always queued
    // before round 1 closes and activates exactly at the round-2
    // boundary, deterministically.
    let data = har_data();
    let fl = config(5, 3, 17);
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let cfg = ServerConfig::builder()
        .clients(fl.clients)
        .rounds(fl.rounds)
        .model_params(num_params)
        .quorum(4)
        .round_timeout(Duration::from_secs(10))
        .allow_rejoin(true)
        .build()
        .expect("server config");
    let server = FlServer::bind("127.0.0.1:0", cfg, ServerPipeline::Plaintext).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = thread::spawn(move || server.run());

    let rejoined = Arc::new(AtomicBool::new(false));
    let mut shards = shards;
    let rejoin_shard = shards.pop().expect("5 shards");

    let mut joins = Vec::new();
    for (id, shard) in shards.into_iter().enumerate() {
        let fl = fl.clone();
        let rejoined = Arc::clone(&rejoined);
        joins.push(thread::spawn(move || -> Vec<f32> {
            let mut local = ClientLocal::new(id, shard, classes, &fl);
            let mut stream = TcpStream::connect(addr).expect("connect");
            wire::write_message(&mut stream, &Message::Hello { client_id: id }).expect("hello");
            let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("welcome");
            assert!(matches!(msg, Message::Welcome { .. }), "got {}", msg.name());
            for round in 0..fl.rounds {
                let (msg, _) =
                    wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global");
                let model = match msg {
                    Message::Global { round: r, last: false, model } if r == round => model,
                    other => panic!("client {id}: expected Global {round}, got {}", other.name()),
                };
                let global = codec::decode_plain(&model, num_params).expect("decode");
                let flat = local.train(&global, &fl);
                if round == 1 {
                    // Hold the round open until client 4 has reconnected.
                    while !rejoined.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(5));
                    }
                }
                let update = Message::Update {
                    round,
                    client_id: id,
                    steps: local.last_steps(),
                    model: codec::encode_plain(&flat),
                };
                wire::write_message(&mut stream, &update).expect("upload");
                let (ack, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("ack");
                assert!(
                    matches!(ack, Message::UpdateAck { accepted: true, .. }),
                    "client {id} round {round}: got {}",
                    ack.name()
                );
            }
            let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("final");
            let model = match msg {
                Message::Global { last: true, model, .. } => model,
                other => panic!("expected final Global, got {}", other.name()),
            };
            let (fin, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("finished");
            assert!(matches!(fin, Message::Finished { .. }), "got {}", fin.name());
            codec::decode_plain(&model, num_params).expect("final decode")
        }));
    }

    let fl_rejoin = fl.clone();
    let rejoined_flag = Arc::clone(&rejoined);
    let rejoiner = thread::spawn(move || -> Vec<f32> {
        let mut local = ClientLocal::new(4, rejoin_shard, classes, &fl_rejoin);
        let mut stream = TcpStream::connect(addr).expect("connect");
        wire::write_message(&mut stream, &Message::Hello { client_id: 4 }).expect("hello");
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("welcome");
        assert!(matches!(msg, Message::Welcome { client_id: 4, .. }), "got {}", msg.name());

        // Round 0: honest participation.
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global 0");
        let model = match msg {
            Message::Global { round: 0, last: false, model } => model,
            other => panic!("expected Global 0, got {}", other.name()),
        };
        let global = codec::decode_plain(&model, num_params).expect("decode");
        let flat = local.train(&global, &fl_rejoin);
        let update = Message::Update {
            round: 0,
            client_id: 4,
            steps: local.last_steps(),
            model: codec::encode_plain(&flat),
        };
        wire::write_message(&mut stream, &update).expect("upload");
        let (ack, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("ack");
        assert!(matches!(ack, Message::UpdateAck { accepted: true, .. }), "got {}", ack.name());

        // Read the round-1 broadcast, then depart mid-round.
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global 1");
        assert!(matches!(msg, Message::Global { round: 1, .. }), "got {}", msg.name());
        drop(stream);

        // Reconnect with the same id and the same local state. The
        // server admits the Hello once the dead handler is reaped and
        // activates the connection at the next round boundary.
        let mut stream = loop {
            thread::sleep(Duration::from_millis(10));
            let Ok(mut s) = TcpStream::connect(addr) else { continue };
            if wire::write_message(&mut s, &Message::Hello { client_id: 4 }).is_err() {
                continue;
            }
            match wire::read_message(&mut s, DEFAULT_MAX_PAYLOAD) {
                Ok((Message::Welcome { client_id: 4, .. }, _)) => break s,
                _ => continue,
            }
        };
        rejoined_flag.store(true, Ordering::SeqCst);

        // Round 2: back in the quorum.
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global 2");
        let model = match msg {
            Message::Global { round: 2, last: false, model } => model,
            other => panic!("expected Global 2, got {}", other.name()),
        };
        let global = codec::decode_plain(&model, num_params).expect("decode");
        let flat = local.train(&global, &fl_rejoin);
        let update = Message::Update {
            round: 2,
            client_id: 4,
            steps: local.last_steps(),
            model: codec::encode_plain(&flat),
        };
        wire::write_message(&mut stream, &update).expect("upload");
        let (ack, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("ack");
        assert!(
            matches!(ack, Message::UpdateAck { round: 2, accepted: true }),
            "the rejoined upload must be accepted, got {}",
            ack.name()
        );
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("final");
        let model = match msg {
            Message::Global { last: true, model, .. } => model,
            other => panic!("expected final Global, got {}", other.name()),
        };
        let (fin, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("finished");
        assert!(matches!(fin, Message::Finished { .. }), "got {}", fin.name());
        codec::decode_plain(&model, num_params).expect("final decode")
    });

    let finals: Vec<Vec<f32>> = joins.into_iter().map(|j| j.join().expect("survivor")).collect();
    let rejoiner_final = rejoiner.join().expect("rejoiner");
    let server = server.join().expect("join").expect("server run");

    // The same federation in process: everyone every round, except
    // client 4 sits out round 1.
    let mut fw = Framework::hdc_plaintext(fl, &data).expect("framework");
    fw.set_hooks(RoundHooks {
        presence: Some(Box::new(|round, ids: &mut Vec<usize>| {
            if round == 1 {
                ids.retain(|&c| c != 4);
            }
        })),
        ..RoundHooks::default()
    });
    fw.run().expect("framework run");
    let expected = fw.global_model().flatten();

    assert_eq!(server.rounds.len(), 3);
    let received: Vec<usize> = server.rounds.iter().map(|r| r.received).collect();
    assert_eq!(received, vec![5, 4, 5], "one count per round attended, never two");
    assert!(server.rounds.iter().all(|r| r.rejected == 0), "a clean rejoin must produce no NACKs");
    assert_eq!(server.dropped_clients, 1, "the departure counts once");
    assert_eq!(server.rejoined_clients, 1, "the reconnection counts once");
    assert_eq!(
        server.final_plain_model.as_deref(),
        Some(expected.as_slice()),
        "rejoin must reweight exactly like the in-process presence hook"
    );
    for (id, f) in finals.iter().chain(std::iter::once(&rejoiner_final)).enumerate() {
        assert_eq!(f, &expected, "client {id} diverged");
    }
}

/// One hand-rolled encrypted wire round: read the `Global`, decrypt it
/// (round 0 arrives as plaintext zeros), train, encrypt, upload, and
/// require the ACK to accept.
#[allow(clippy::too_many_arguments)]
fn ckks_wire_round(
    stream: &mut TcpStream,
    local: &mut ClientLocal,
    fl: &FlConfig,
    ctx: &CkksContext,
    sk: &rhychee_fl::fhe::ckks::CkksSecretKey,
    pk: &rhychee_fl::fhe::ckks::CkksPublicKey,
    round: usize,
    num_params: usize,
) {
    let id = local.id();
    let max_cts =
        packing::ciphertexts_needed_with(&PackingConfig::dense(), num_params, ctx.slot_count());
    let (msg, _) = wire::read_message(stream, DEFAULT_MAX_PAYLOAD).expect("global");
    let model = match msg {
        Message::Global { round: r, last: false, model } if r == round => model,
        other => panic!("client {id}: expected Global {round}, got {}", other.name()),
    };
    let global = if model.first() == Some(&codec::TAG_PLAIN) {
        codec::decode_plain(&model, num_params).expect("round-0 plaintext zeros")
    } else {
        let cts = codec::decode_ckks(ctx, &model, max_cts).expect("decode");
        packing::decrypt_model_with(ctx, sk, &cts, num_params, &PackingConfig::dense())
            .expect("decrypt")
    };
    let flat = local.train(&global, fl);
    let cts = local
        .encrypt_update(ctx, EncryptKey::Public(pk), &PackingConfig::dense(), &flat)
        .expect("encrypt");
    let update = Message::Update {
        round,
        client_id: id,
        steps: local.last_steps(),
        model: codec::encode_ckks(ctx, &cts),
    };
    wire::write_message(stream, &update).expect("upload");
    let (ack, _) = wire::read_message(stream, DEFAULT_MAX_PAYLOAD).expect("ack");
    assert!(
        matches!(ack, Message::UpdateAck { accepted: true, .. }),
        "client {id} round {round}: got {}",
        ack.name()
    );
}

#[test]
fn streamed_fold_survives_dropout_and_rejoin_with_batch_quorum_accounting() {
    // The streaming-specific churn regression: client 4's round-1 frame
    // is folded into the running encrypted sum, *then* the client
    // disconnects. Its contribution must stay in round 1's aggregate and
    // its count in round 1's quorum accounting — exactly like the batch
    // path, where an accepted update outlives its uploader. The death is
    // noticed in round 2 (received = 4), the rejoin activates at the
    // round-3 boundary, and the final model must match the in-process
    // Framework running the same presence schedule, bit for bit.
    let data = har_data();
    let fl = config(5, 4, 37);
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let cfg = ServerConfig::builder()
        .clients(fl.clients)
        .rounds(fl.rounds)
        .model_params(num_params)
        .quorum(4)
        .round_timeout(Duration::from_secs(10))
        .allow_rejoin(true)
        .max_resident_uploads(2)
        .build()
        .expect("server config");
    let server =
        FlServer::bind("127.0.0.1:0", cfg, ServerPipeline::Ckks(CkksParams::toy())).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = thread::spawn(move || server.run());

    // Set once client 4's folded-then-dropped departure has happened;
    // survivors gate their round-1 uploads on it so the fold always
    // lands (and the socket dies) before round 1 can close.
    let departed = Arc::new(AtomicBool::new(false));
    // Set once client 4 holds its second Welcome; survivors gate their
    // round-2 uploads on it so the reconnection is always queued before
    // round 2 closes and activates exactly at the round-3 boundary.
    let rejoined = Arc::new(AtomicBool::new(false));
    let mut shards = shards;
    let churn_shard = shards.pop().expect("5 shards");

    let mut joins = Vec::new();
    for (id, shard) in shards.into_iter().enumerate() {
        let fl = fl.clone();
        let departed = Arc::clone(&departed);
        let rejoined = Arc::clone(&rejoined);
        joins.push(thread::spawn(move || -> Vec<f32> {
            let mut local = ClientLocal::new(id, shard, classes, &fl);
            let ctx = CkksContext::new(CkksParams::toy()).expect("ctx");
            let (sk, pk) = round::derive_ckks_keys(&ctx, fl.seed);
            let mut stream = TcpStream::connect(addr).expect("connect");
            wire::write_message(&mut stream, &Message::Hello { client_id: id }).expect("hello");
            let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("welcome");
            assert!(matches!(msg, Message::Welcome { .. }), "got {}", msg.name());
            for round in 0..fl.rounds {
                if round == 1 {
                    while !departed.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(5));
                    }
                }
                if round == 2 {
                    while !rejoined.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(5));
                    }
                }
                ckks_wire_round(&mut stream, &mut local, &fl, &ctx, &sk, &pk, round, num_params);
            }
            let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("final");
            let model = match msg {
                Message::Global { last: true, model, .. } => model,
                other => panic!("expected final Global, got {}", other.name()),
            };
            let (fin, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("finished");
            assert!(matches!(fin, Message::Finished { .. }), "got {}", fin.name());
            let max_cts = packing::ciphertexts_needed_with(
                &PackingConfig::dense(),
                num_params,
                ctx.slot_count(),
            );
            let cts = codec::decode_ckks(&ctx, &model, max_cts).expect("final decode");
            packing::decrypt_model_with(&ctx, &sk, &cts, num_params, &PackingConfig::dense())
                .expect("final decrypt")
        }));
    }

    let fl_churn = fl.clone();
    let departed_flag = Arc::clone(&departed);
    let rejoined_flag = Arc::clone(&rejoined);
    let churner = thread::spawn(move || -> Vec<f32> {
        let mut local = ClientLocal::new(4, churn_shard, classes, &fl_churn);
        let ctx = CkksContext::new(CkksParams::toy()).expect("ctx");
        let (sk, pk) = round::derive_ckks_keys(&ctx, fl_churn.seed);
        let mut stream = TcpStream::connect(addr).expect("connect");
        wire::write_message(&mut stream, &Message::Hello { client_id: 4 }).expect("hello");
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("welcome");
        assert!(matches!(msg, Message::Welcome { client_id: 4, .. }), "got {}", msg.name());

        // Rounds 0 and 1: honest participation. The round-1 ACK proves
        // the upload was folded into the streamed sum...
        ckks_wire_round(&mut stream, &mut local, &fl_churn, &ctx, &sk, &pk, 0, num_params);
        ckks_wire_round(&mut stream, &mut local, &fl_churn, &ctx, &sk, &pk, 1, num_params);
        // ...and then the uploader dies, before round 1 has closed.
        drop(stream);
        departed_flag.store(true, Ordering::SeqCst);

        // Reconnect with the same id; the server admits the Hello once
        // the dead handler is reaped (during round 2) and activates the
        // connection at the round-3 boundary.
        let mut stream = loop {
            thread::sleep(Duration::from_millis(10));
            let Ok(mut s) = TcpStream::connect(addr) else { continue };
            if wire::write_message(&mut s, &Message::Hello { client_id: 4 }).is_err() {
                continue;
            }
            match wire::read_message(&mut s, DEFAULT_MAX_PAYLOAD) {
                Ok((Message::Welcome { client_id: 4, .. }, _)) => break s,
                _ => continue,
            }
        };
        rejoined_flag.store(true, Ordering::SeqCst);

        // Round 3: back in the quorum.
        ckks_wire_round(&mut stream, &mut local, &fl_churn, &ctx, &sk, &pk, 3, num_params);
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("final");
        let model = match msg {
            Message::Global { last: true, model, .. } => model,
            other => panic!("expected final Global, got {}", other.name()),
        };
        let (fin, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("finished");
        assert!(matches!(fin, Message::Finished { .. }), "got {}", fin.name());
        let max_cts =
            packing::ciphertexts_needed_with(&PackingConfig::dense(), num_params, ctx.slot_count());
        let cts = codec::decode_ckks(&ctx, &model, max_cts).expect("final decode");
        packing::decrypt_model_with(&ctx, &sk, &cts, num_params, &PackingConfig::dense())
            .expect("final decrypt")
    });

    let finals: Vec<Vec<f32>> = joins.into_iter().map(|j| j.join().expect("survivor")).collect();
    let churner_final = churner.join().expect("churner");
    let server = server.join().expect("join").expect("server run");

    // The same federation in process (batch aggregation): everyone
    // every round, except client 4 sits out round 2 — its round-1
    // contribution stays in even though it had already disconnected.
    let mut fw = Framework::hdc_encrypted(fl, &data, CkksParams::toy()).expect("framework");
    fw.set_hooks(RoundHooks {
        presence: Some(Box::new(|round, ids: &mut Vec<usize>| {
            if round == 2 {
                ids.retain(|&c| c != 4);
            }
        })),
        ..RoundHooks::default()
    });
    fw.run().expect("framework run");
    let expected = fw.global_model().flatten();

    let received: Vec<usize> = server.rounds.iter().map(|r| r.received).collect();
    assert_eq!(
        received,
        vec![5, 5, 4, 5],
        "a folded frame counts even when its uploader drops before round close"
    );
    assert!(server.rounds.iter().all(|r| r.rejected == 0), "churn must produce no NACKs");
    assert_eq!(server.dropped_clients, 1, "the departure counts once");
    assert_eq!(server.rejoined_clients, 1, "the reconnection counts once");
    for (id, f) in finals.iter().chain(std::iter::once(&churner_final)).enumerate() {
        assert_eq!(f, &expected, "client {id} diverged from the in-process batch reference");
    }
}

/// One hand-rolled plaintext wire round: read `Global{round}`, train,
/// and build this client's `Update` (not yet sent).
fn plain_wire_update(
    stream: &mut TcpStream,
    local: &mut ClientLocal,
    fl: &FlConfig,
    round: usize,
    num_params: usize,
) -> Message {
    let (msg, _) = wire::read_message(stream, DEFAULT_MAX_PAYLOAD).expect("global");
    let model = match msg {
        Message::Global { round: r, last: false, model } if r == round => model,
        other => panic!("client {}: expected Global {round}, got {}", local.id(), other.name()),
    };
    let global = codec::decode_plain(&model, num_params).expect("decode");
    let flat = local.train(&global, fl);
    Message::Update {
        round,
        client_id: local.id(),
        steps: local.last_steps(),
        model: codec::encode_plain(&flat),
    }
}

/// Reads the final `Global` and the trailing `Finished`.
fn plain_wire_final(stream: &mut TcpStream, num_params: usize) -> Vec<f32> {
    let (msg, _) = wire::read_message(stream, DEFAULT_MAX_PAYLOAD).expect("final");
    let model = match msg {
        Message::Global { last: true, model, .. } => model,
        other => panic!("expected final Global, got {}", other.name()),
    };
    let (fin, _) = wire::read_message(stream, DEFAULT_MAX_PAYLOAD).expect("finished");
    assert!(matches!(fin, Message::Finished { .. }), "got {}", fin.name());
    codec::decode_plain(&model, num_params).expect("final decode")
}

#[test]
fn client_rejoining_during_the_last_round_still_receives_the_final_model() {
    // The final distribution is an ordinary broadcast, so it activates
    // queued reconnections like every other one. Client 2 reads the last
    // round's Global, departs without uploading, and re-handshakes while
    // that round is still collecting (the survivors hold their uploads
    // until it holds its second Welcome). The round closes on the two
    // survivors; the reconnection must then be served the final model
    // and Finished rather than an EOF at shutdown.
    let data = har_data();
    let fl = config(3, 2, 43);
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let cfg = ServerConfig::builder()
        .clients(fl.clients)
        .rounds(fl.rounds)
        .model_params(num_params)
        .quorum(2)
        .round_timeout(Duration::from_secs(10))
        .allow_rejoin(true)
        .build()
        .expect("server config");
    let server = FlServer::bind("127.0.0.1:0", cfg, ServerPipeline::Plaintext).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = thread::spawn(move || server.run());

    let hello = move |id: usize| -> Option<TcpStream> {
        let mut stream = TcpStream::connect(addr).ok()?;
        wire::write_message(&mut stream, &Message::Hello { client_id: id }).ok()?;
        match wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD) {
            Ok((Message::Welcome { client_id, .. }, _)) if client_id == id => Some(stream),
            _ => None,
        }
    };
    let rejoined = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for (id, shard) in shards.into_iter().enumerate() {
        let fl = fl.clone();
        let rejoined = Arc::clone(&rejoined);
        joins.push(thread::spawn(move || -> Vec<f32> {
            let mut local = ClientLocal::new(id, shard, classes, &fl);
            let mut stream = hello(id).expect("handshake");
            for round in 0..fl.rounds {
                let update = plain_wire_update(&mut stream, &mut local, &fl, round, num_params);
                if round == 1 && id == 2 {
                    // Depart mid-round, then come back with the same id
                    // (admitted once the dead handler is reaped).
                    drop(stream);
                    stream = loop {
                        thread::sleep(Duration::from_millis(10));
                        if let Some(stream) = hello(2) {
                            break stream;
                        }
                    };
                    rejoined.store(true, Ordering::SeqCst);
                    break;
                }
                while round == 1 && !rejoined.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(5));
                }
                wire::write_message(&mut stream, &update).expect("upload");
                let (ack, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("ack");
                assert!(
                    matches!(ack, Message::UpdateAck { accepted: true, .. }),
                    "client {id} round {round}: got {}",
                    ack.name()
                );
            }
            plain_wire_final(&mut stream, num_params)
        }));
    }

    let finals: Vec<Vec<f32>> = joins.into_iter().map(|j| j.join().expect("client")).collect();
    let server = server.join().expect("join").expect("server run");

    let received: Vec<usize> = server.rounds.iter().map(|r| r.received).collect();
    assert_eq!(received, vec![3, 2], "the reconnection adds nothing to the round it missed");
    assert!(server.rounds.iter().all(|r| r.rejected == 0));
    assert_eq!(server.dropped_clients, 1, "the departure counts once");
    assert_eq!(server.rejoined_clients, 1, "the final broadcast activated the reconnection");
    let expected = server.final_plain_model.expect("plaintext run");
    for (id, f) in finals.iter().enumerate() {
        assert_eq!(f, &expected, "client {id} holds another final model");
    }
}

#[test]
fn late_update_is_nacked_and_never_aggregated() {
    // Client 1 uploads for a round that is not open; the server must
    // NACK it, keep it out of the aggregate, and still close the round
    // at the deadline on client 0's on-time update (quorum 1).
    rhychee_fl::telemetry::set_enabled(true);
    let reg = rhychee_fl::telemetry::metrics::global();
    let nacks_before = reg.counter("net.frame.nack").get();
    let data = har_data();
    let fl = config(2, 1, 23);
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let cfg = ServerConfig::builder()
        .clients(fl.clients)
        .rounds(fl.rounds)
        .model_params(num_params)
        .quorum(1)
        .round_timeout(Duration::from_secs(2))
        .build()
        .expect("server config");
    let server = FlServer::bind("127.0.0.1:0", cfg, ServerPipeline::Plaintext).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = thread::spawn(move || server.run());

    let mut shards = shards;
    let late_shard = shards.pop().expect("2 shards");
    let local = ClientLocal::new(0, shards.pop().expect("shard 0"), classes, &fl);
    let honest = FlClient::new(
        ClientConfig::new(addr),
        fl.clone(),
        local,
        classes,
        None,
        ClientPipeline::Plaintext,
    )
    .expect("client build");
    let honest = thread::spawn(move || honest.run());

    let fl_late = fl.clone();
    let late = thread::spawn(move || {
        let mut local = ClientLocal::new(1, late_shard, classes, &fl_late);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        wire::write_message(&mut stream, &Message::Hello { client_id: 1 }).expect("hello");
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("welcome");
        assert!(matches!(msg, Message::Welcome { client_id: 1, .. }), "got {}", msg.name());
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global 0");
        let model = match msg {
            Message::Global { round: 0, last: false, model } => model,
            other => panic!("expected Global 0, got {}", other.name()),
        };
        let global = codec::decode_plain(&model, num_params).expect("decode");
        let flat = local.train(&global, &fl_late);
        // A stale round id: trained for round 0 but claims round 7.
        let update = Message::Update {
            round: 7,
            client_id: 1,
            steps: local.last_steps(),
            model: codec::encode_plain(&flat),
        };
        wire::write_message(&mut stream, &update).expect("upload");
        let (ack, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("ack");
        assert!(
            matches!(ack, Message::UpdateAck { round: 7, accepted: false }),
            "late update must be NACKed, got {}",
            ack.name()
        );
        // The session still ends normally for this client.
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("final global");
        assert!(matches!(msg, Message::Global { last: true, .. }), "got {}", msg.name());
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("finished");
        assert!(matches!(msg, Message::Finished { .. }), "got {}", msg.name());
    });

    late.join().expect("late client");
    let honest = honest.join().expect("join").expect("client run");
    let server = server.join().expect("join").expect("server run");

    assert_eq!(server.rounds.len(), 1);
    assert_eq!(server.rounds[0].received, 1, "only the on-time update aggregates");
    assert_eq!(server.rounds[0].rejected, 1, "the stale update must be NACKed");
    assert_eq!(honest.rounds_participated, 1);
    // The NACK shows up on the frame-level counter (monotonic, so other
    // concurrent tests can only push it further past the snapshot), the
    // honest client needed no retries, and loopback never tears a frame.
    assert!(
        reg.counter("net.frame.nack").get() > nacks_before,
        "the stale upload must count into net.frame.nack"
    );
    assert!(reg.counter("net.frame.retry").get() >= honest.retries);
    assert_eq!(reg.counter("net.frame.crc_fail").get(), 0, "no torn frames on loopback");
    // The aggregate is exactly client 0's model (quorum of one).
    assert_eq!(server.final_plain_model.as_ref(), Some(&honest.final_model));
}

#[test]
fn seeded_uploads_halve_bytes_and_reconcile_with_analytical_model() {
    let data = har_data();
    let fl = config(4, 2, 31);
    let (server, clients) = run_networked_seeded(&fl, &data, Some(CkksParams::toy()), true);

    // The seeded pipeline must still complete every round with every
    // client reporting, and all clients must decrypt one agreed model.
    assert!(server.final_plain_model.is_none(), "server must never see plaintext");
    assert_eq!(server.rounds.len(), 2);
    assert!(server.rounds.iter().all(|r| r.received == 4 && r.rejected == 0));
    for c in &clients {
        assert_eq!(c.rounds_participated, 2);
        assert_eq!(c.final_model, clients[0].final_model, "client {} diverged", c.client_id);
    }

    // Analytical reconciliation: modeled seeded upload bytes per client,
    // plus only codec headers and wire framing (well under 2 KiB).
    let FedSetup { classes, .. } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;
    let ctx = CkksContext::new(CkksParams::toy()).expect("ctx");
    let modeled = fl.rounds as u64
        * packing::upload_bytes_seeded_with(&ctx, &PackingConfig::dense(), num_params) as u64;
    for c in &clients {
        assert!(
            c.bytes_tx >= modeled,
            "client {}: measured {} below modeled {modeled}",
            c.client_id,
            c.bytes_tx
        );
        assert!(
            c.bytes_tx <= modeled + 2048,
            "client {}: measured {} exceeds modeled {modeled} by more than framing",
            c.client_id,
            c.bytes_tx
        );
    }

    // And the headline: a seeded upload is ~half a canonical one (a
    // 32-byte seed stands in for a full packed polynomial per ct).
    let (_, canonical) = run_networked(&fl, &data, Some(CkksParams::toy()));
    for (s, c) in clients.iter().zip(&canonical) {
        assert!(
            s.bytes_tx * 100 < c.bytes_tx * 55 && s.bytes_tx * 100 > c.bytes_tx * 45,
            "client {}: seeded {} vs canonical {} not ~2x",
            s.client_id,
            s.bytes_tx,
            c.bytes_tx
        );
    }
}

#[test]
fn measured_bytes_reconcile_with_analytical_upload_model() {
    let data = har_data();
    let fl = config(4, 2, 11);
    let (server, clients) = run_networked(&fl, &data, Some(CkksParams::toy()));

    // Conservation: the server reads exactly the frames clients write,
    // and vice versa — both ends count the same bytes.
    let client_tx: u64 = clients.iter().map(|c| c.bytes_tx).sum();
    let client_rx: u64 = clients.iter().map(|c| c.bytes_rx).sum();
    assert_eq!(server.bytes_rx, client_tx);
    assert_eq!(server.bytes_tx, client_rx);

    // The analytical model (`upload_bits_per_round`, Table I) counts raw
    // ciphertext bits; the measured upload adds only serialization
    // headers and wire framing, bounded well under 2 KiB per client.
    let fw = Framework::hdc_encrypted(fl.clone(), &data, CkksParams::toy()).expect("framework");
    let modeled = fl.rounds as u64 * fw.upload_bits_per_round() / 8;
    for c in &clients {
        assert!(
            c.bytes_tx >= modeled,
            "client {}: measured {} below modeled {modeled}",
            c.client_id,
            c.bytes_tx
        );
        assert!(
            c.bytes_tx <= modeled + 2048,
            "client {}: measured {} exceeds modeled {modeled} by more than framing",
            c.client_id,
            c.bytes_tx
        );
    }
}

#[test]
fn late_uploads_past_the_resident_cap_do_not_block_shutdown() {
    // The shutdown-join hole. One resident-upload slot; client 0 uploads
    // on time and the round closes on it at the deadline (quorum 1).
    // Clients 1 and 2 start their frames mid-round and finish them only
    // once the final model is out: the first late handler takes the slot,
    // its upload arrives after the last close and carries the slot in
    // its event, and the second late handler waits for that slot. The
    // server must still return once every handler has written the final
    // model.
    let data = har_data();
    let fl = config(3, 1, 61);
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let cfg = ServerConfig::builder()
        .clients(fl.clients)
        .rounds(fl.rounds)
        .model_params(num_params)
        .quorum(1)
        .max_resident_uploads(1)
        .round_timeout(Duration::from_secs(2))
        .build()
        .expect("server config");
    let server =
        FlServer::bind("127.0.0.1:0", cfg, ServerPipeline::Ckks(CkksParams::toy())).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let (result_tx, result) = mpsc::channel();
    thread::spawn(move || result_tx.send(server.run()));

    // The late clients finish their frames once client 0 has read the
    // final model.
    let final_read = Arc::new(Barrier::new(fl.clients));
    let mut peers = Vec::new();
    for (id, shard) in shards.into_iter().enumerate() {
        let fl = fl.clone();
        let final_read = Arc::clone(&final_read);
        peers.push(thread::spawn(move || {
            let ctx = CkksContext::new(CkksParams::toy()).expect("ctx");
            let (_sk, pk) = round::derive_ckks_keys(&ctx, fl.seed);
            let mut local = ClientLocal::new(id, shard, classes, &fl);
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            wire::write_message(&mut stream, &Message::Hello { client_id: id }).expect("hello");
            let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("welcome");
            assert!(matches!(msg, Message::Welcome { .. }), "got {}", msg.name());
            let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global");
            let global_at = Instant::now();
            assert!(matches!(msg, Message::Global { round: 0, last: false, .. }), "{}", msg.name());
            // Round 0's global is the public zero model.
            let flat = local.train(&vec![0.0; num_params], &fl);
            let cts = local
                .encrypt_update(&ctx, EncryptKey::Public(&pk), &PackingConfig::dense(), &flat)
                .expect("encrypt");
            let frame = wire::encode_frame(&Message::Update {
                round: 0,
                client_id: id,
                steps: local.last_steps(),
                model: codec::encode_ckks(&ctx, &cts),
            });
            if id == 0 {
                stream.write_all(&frame).expect("upload");
                let (ack, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("ack");
                assert!(matches!(ack, Message::UpdateAck { accepted: true, .. }), "{}", ack.name());
            } else {
                let mid_round = global_at + Duration::from_secs(1);
                thread::sleep(mid_round.saturating_duration_since(Instant::now()));
                stream.write_all(&frame[..20]).expect("frame head");
                final_read.wait();
                stream.write_all(&frame[20..]).expect("frame rest");
            }
            let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("final");
            assert!(matches!(msg, Message::Global { last: true, .. }), "got {}", msg.name());
            if id == 0 {
                final_read.wait();
            }
            let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("finished");
            assert!(matches!(msg, Message::Finished { .. }), "got {}", msg.name());
        }));
    }

    let report = result
        .recv_timeout(Duration::from_secs(15))
        .expect("FlServer::run did not return: a late handler is stuck behind a held permit")
        .expect("server run");
    for peer in peers {
        peer.join().expect("peer");
    }
    assert_eq!(report.rounds.len(), 1);
    assert_eq!(report.rounds[0].received, 1, "only the on-time upload aggregates");
}
