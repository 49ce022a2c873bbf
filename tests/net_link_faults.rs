//! Link faults driven into a live [`FlServer`]: one client's round-1
//! `Update` frame arrives with a flipped payload bit, or stops half-way
//! with the socket closed. Either way the frame layer must catch it, the
//! server must drop exactly that client (no NACK: nothing above the
//! frame layer ever saw the bytes), close the round on the quorum
//! without waiting for the deadline, and finish on the model the
//! in-process [`Framework`] computes with that client absent from
//! round 1 on.
//!
//! Its own binary, and a single test on purpose: `net.frame.crc_fail`
//! is a process-global counter that `networked_fl.rs` requires to stay
//! 0, and the two faults are told apart by how far it moves.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use rhychee_fl::core::packing::PackingConfig;
use rhychee_fl::core::round::{self, ClientLocal, EncryptKey, FedSetup};
use rhychee_fl::core::{FlConfig, Framework, RoundHooks};
use rhychee_fl::data::{DatasetKind, SyntheticConfig, TrainTest};
use rhychee_fl::fhe::ckks::CkksContext;
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::net::wire::{HEADER_LEN, TRAILER_LEN};
use rhychee_fl::net::{
    codec, wire, ClientConfig, ClientPipeline, FlClient, FlServer, Message, ServerConfig,
    ServerPipeline, DEFAULT_MAX_PAYLOAD,
};
use rhychee_fl::telemetry;

const FAULTY: usize = 3;
const ROUND_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// One bit of the payload flipped in flight.
    BitFlip,
    /// The first half of the frame, then a closed socket.
    Truncate,
}

/// Client `FAULTY` on the raw wire: an honest round 0, then a round-1
/// upload that suffers `fault` on its way out.
fn faulty_client(
    addr: std::net::SocketAddr,
    mut local: ClientLocal,
    fl: &FlConfig,
    num_params: usize,
    fault: Fault,
) {
    let ctx = CkksContext::new(CkksParams::toy()).expect("ctx");
    let (_sk, pk) = round::derive_ckks_keys(&ctx, fl.seed);
    let mut stream = TcpStream::connect(addr).expect("connect");
    wire::write_message(&mut stream, &Message::Hello { client_id: FAULTY }).expect("hello");
    let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("welcome");
    assert!(matches!(msg, Message::Welcome { .. }), "got {}", msg.name());

    for round in 0..2 {
        let (msg, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("global");
        assert!(matches!(msg, Message::Global { round: r, .. } if r == round), "{}", msg.name());
        // What this client trains on does not matter to the reference:
        // its round-0 update starts from the public zero model, and its
        // round-1 update never reaches the aggregate.
        let flat = local.train(&vec![0.0; num_params], fl);
        let cts = local
            .encrypt_update(&ctx, EncryptKey::Public(&pk), &PackingConfig::dense(), &flat)
            .expect("encrypt");
        let update = Message::Update {
            round,
            client_id: FAULTY,
            steps: local.last_steps(),
            model: codec::encode_ckks(&ctx, &cts),
        };
        let mut frame = wire::encode_frame(&update);
        if round == 0 {
            stream.write_all(&frame).expect("upload");
            let (ack, _) = wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).expect("ack");
            assert!(matches!(ack, Message::UpdateAck { accepted: true, .. }), "{}", ack.name());
            continue;
        }
        match fault {
            Fault::BitFlip => {
                let payload_len = frame.len() - HEADER_LEN - TRAILER_LEN;
                frame[HEADER_LEN + payload_len / 2] ^= 0x10;
                stream.write_all(&frame).expect("corrupted upload");
                // The server answers a bad frame by hanging up.
                assert!(wire::read_message(&mut stream, DEFAULT_MAX_PAYLOAD).is_err());
            }
            Fault::Truncate => stream.write_all(&frame[..frame.len() / 2]).expect("half upload"),
        }
    }
}

/// Runs three rounds with four clients, client `FAULTY`'s round-1 upload
/// suffering `fault`, and holds the outcome against the in-process
/// reference.
fn run_with_fault(data: &TrainTest, fault: Fault) {
    let fl = FlConfig::builder().clients(4).rounds(3).hd_dim(256).seed(53).build().expect("config");
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let cfg = ServerConfig::builder()
        .clients(fl.clients)
        .rounds(fl.rounds)
        .model_params(num_params)
        .quorum(3)
        .round_timeout(ROUND_TIMEOUT)
        .build()
        .expect("server config");
    let server =
        FlServer::bind("127.0.0.1:0", cfg, ServerPipeline::Ckks(CkksParams::toy())).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let started = Instant::now();
    let server = thread::spawn(move || server.run());

    let mut honest = Vec::new();
    let mut faulty = None;
    for (id, shard) in shards.into_iter().enumerate() {
        let local = ClientLocal::new(id, shard, classes, &fl);
        let fl = fl.clone();
        if id == FAULTY {
            faulty = Some(thread::spawn(move || {
                faulty_client(addr, local, &fl, num_params, fault);
            }));
            continue;
        }
        let pipeline = ClientPipeline::Ckks(CkksParams::toy());
        let client = FlClient::new(ClientConfig::new(addr), fl, local, classes, None, pipeline)
            .expect("client build");
        honest.push(thread::spawn(move || client.run()));
    }
    faulty.expect("client 3 spawned").join().expect("faulty client");
    let finals: Vec<Vec<f32>> = honest
        .into_iter()
        .map(|j| j.join().expect("join").expect("client run").final_model)
        .collect();
    let report = server.join().expect("join").expect("server run");
    let elapsed = started.elapsed();

    let mut fw = Framework::hdc_encrypted(fl, data, CkksParams::toy()).expect("framework");
    fw.set_hooks(RoundHooks {
        presence: Some(Box::new(|round, ids: &mut Vec<usize>| {
            if round >= 1 {
                ids.retain(|&c| c != FAULTY);
            }
        })),
        ..RoundHooks::default()
    });
    fw.run().expect("framework run");
    let expected = fw.global_model().flatten();

    let received: Vec<usize> = report.rounds.iter().map(|r| r.received).collect();
    assert_eq!(received, vec![4, 3, 3], "{fault:?}: only the faulty upload is missing");
    assert_eq!(report.dropped_clients, 1, "{fault:?}: exactly the faulty client is dropped");
    assert!(report.rounds.iter().all(|r| r.rejected == 0), "{fault:?}: a bad frame is no NACK");
    assert!(
        elapsed < ROUND_TIMEOUT / 2,
        "{fault:?}: took {elapsed:?}; some round waited out its {ROUND_TIMEOUT:?} deadline"
    );
    for (id, f) in finals.iter().enumerate() {
        assert_eq!(f, &expected, "{fault:?}: client {id} diverged from the presence-hook run");
    }
}

#[test]
fn a_corrupted_or_truncated_upload_drops_its_client_and_nothing_else() {
    telemetry::set_enabled(true);
    let crc_fail = telemetry::metrics::global().counter("net.frame.crc_fail");
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 360, test_samples: 120 }
        .generate(77)
        .expect("dataset generation");

    assert_eq!(crc_fail.get(), 0);
    run_with_fault(&data, Fault::BitFlip);
    assert_eq!(crc_fail.get(), 1, "the flipped bit is caught by the frame checksum, once");
    run_with_fault(&data, Fault::Truncate);
    assert_eq!(crc_fail.get(), 1, "a short frame never reaches the checksum");
}
