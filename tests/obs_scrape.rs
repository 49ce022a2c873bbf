//! Loopback scrape smoke test for the live observability plane: an
//! [`FlServer`] bound with `obs_addr` must serve `/metrics`, `/healthz`
//! and `/trace.json` *while* a federation is running, and the metrics
//! body must be valid Prometheus text exposition carrying the round
//! gauge, a counter, and a full histogram family.
//!
//! The federation is held open while the test scrapes: a fourth peer,
//! hand-rolled on the raw wire, handshakes, takes the round-0 broadcast
//! and then withholds its upload, so round 1 (1-based) cannot close
//! until the test has its bodies and hangs up — the quorum of three
//! `FlClient`s finishes the run. How long a toy round takes is therefore
//! no input to this test.
//!
//! Single test on purpose: it flips the process-global telemetry state
//! (enabled flag, registry), which cannot be shared with other tests in
//! the same binary.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use rhychee_fl::core::round::{self, ClientLocal, FedSetup};
use rhychee_fl::core::FlConfig;
use rhychee_fl::data::{DatasetKind, SyntheticConfig};
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::net::{
    wire, ClientConfig, ClientPipeline, FlClient, FlServer, Message, ServerConfig, ServerPipeline,
    DEFAULT_MAX_PAYLOAD,
};

fn http_get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_owned())
}

/// Validates the exposition grammar: every sample line is
/// `series[{labels}] value`, every comment is a `# TYPE` we emit.
fn assert_valid_exposition(text: &str) {
    assert!(!text.is_empty(), "empty exposition");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let kind = rest.split(' ').nth(1).expect("type line has a kind");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "bad type: {line}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line must be `series value`: {line:?}");
        });
        assert!(series.starts_with("rhychee_"), "unprefixed series: {line}");
        let parses = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        assert!(parses, "unparseable value in {line:?}");
    }
}

/// The value of an unlabeled series, if present.
fn sample(text: &str, series: &str) -> Option<f64> {
    let prefix = format!("{series} ");
    text.lines().find_map(|l| l.strip_prefix(&prefix).and_then(|v| v.parse().ok()))
}

#[test]
fn metrics_scrape_during_live_federation() {
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 240, test_samples: 80 }
        .generate(41)
        .expect("dataset");
    // Four participants, quorum three: ids 0, 1, 2 are real clients, id 3 is
    // the raw peer below that holds round 1 open and then departs.
    let fl = FlConfig::builder().clients(4).rounds(6).hd_dim(512).seed(9).build().expect("config");
    let FedSetup { mut shards, test, classes } = round::prepare(&fl, &data).expect("prepare");
    shards.truncate(3);
    let num_params = classes * fl.hd_dim;

    let server = FlServer::bind(
        "127.0.0.1:0",
        ServerConfig::builder()
            .clients(fl.clients)
            .rounds(fl.rounds)
            .model_params(num_params)
            .quorum(3)
            .obs_addr("127.0.0.1:0")
            .build()
            .expect("server config"),
        ServerPipeline::Ckks(CkksParams::toy()),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let obs = server.obs_addr().expect("obs enabled at bind time");

    // The plane is already up before run(): handshake state is visible.
    let pre = http_get(obs, "/metrics").expect("scrape before run");
    assert_valid_exposition(&pre);
    assert_eq!(sample(&pre, "rhychee_fl_round_current"), Some(0.0), "0 = handshaking");

    let server_thread = thread::spawn(move || server.run());
    let clients: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(id, shard)| {
            let local = ClientLocal::new(id, shard, classes, &fl);
            let eval = (id == 0).then(|| test.clone());
            let client = FlClient::new(
                ClientConfig::new(addr),
                fl.clone(),
                local,
                classes,
                eval,
                ClientPipeline::Ckks(CkksParams::toy()),
            )
            .expect("client");
            thread::spawn(move || client.run())
        })
        .collect();

    // The holder: handshake, take the round-0 broadcast, upload nothing.
    // From here until `holder` is dropped the server sits in round 1's
    // collection window with four live peers.
    let mut holder = TcpStream::connect(addr).expect("holder connect");
    wire::write_message(&mut holder, &Message::Hello { client_id: 3 }).expect("hello");
    let (msg, _) = wire::read_message(&mut holder, DEFAULT_MAX_PAYLOAD).expect("welcome");
    assert!(matches!(msg, Message::Welcome { client_id: 3, .. }), "got {}", msg.name());
    let (msg, _) = wire::read_message(&mut holder, DEFAULT_MAX_PAYLOAD).expect("global 0");
    assert!(matches!(msg, Message::Global { round: 0, last: false, .. }), "got {}", msg.name());

    // Scrape both endpoints, health first, until a metrics body carries a
    // full histogram family: span histograms appear once the first spans
    // close (e.g. `net_decode` when the real clients' uploads arrive).
    // The round cannot close under the pair, so both bodies are live.
    let mut live: Option<(String, String)> = None;
    while live.is_none() && !server_thread.is_finished() {
        let health = http_get(obs, "/healthz");
        let metrics = http_get(obs, "/metrics");
        if let (Some(health), Some(metrics)) = (health, metrics) {
            let round_live = sample(&metrics, "rhychee_fl_round_current").is_some_and(|v| v >= 1.0);
            if round_live && metrics.contains("_bucket{le=") {
                live = Some((health, metrics));
            }
        }
        // No sleep: each scrape already waits on the obs accept poll.
    }
    drop(holder);
    let report = server_thread.join().expect("server thread").expect("server run");
    assert_eq!(report.dropped_clients, 1, "the holder, and nobody else");
    assert_eq!(report.rounds.len(), fl.rounds);
    for c in clients {
        c.join().expect("client thread").expect("client run");
    }

    let (health, metrics) = live.expect("the server ended with a peer still holding round 1 open");
    assert_valid_exposition(&metrics);

    // One gauge (the round in flight), one counter, one histogram family
    // with cumulative buckets, sum and count.
    let current = sample(&metrics, "rhychee_fl_round_current").expect("round gauge");
    assert_eq!(current, 1.0, "the held round is the one in flight");
    assert!(metrics.contains("# TYPE rhychee_fl_round_current gauge"));
    assert!(
        sample(&metrics, "rhychee_net_bytes_rx_total").is_some_and(|v| v > 0.0),
        "bytes counter grows during the run"
    );
    let family = metrics
        .lines()
        .find_map(|l| l.split_once("_bucket{le=").map(|(name, _)| name.to_owned()))
        .expect("a histogram family was captured");
    assert!(metrics.contains(&format!("# TYPE {family} histogram")), "{family} TYPE line");
    assert!(metrics.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")), "+Inf bucket");
    assert!(sample(&metrics, &format!("{family}_sum")).is_some(), "_sum series");
    assert!(
        sample(&metrics, &format!("{family}_count")).is_some_and(|v| v >= 1.0),
        "_count series"
    );

    // The NTT backend info metric: one sample for the kernel this process
    // resolved. `pre` comes before any NTT table exists, so only the
    // mid-run body can carry it.
    let backend: Vec<_> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("rhychee_fhe_ckks_ntt_backend_total{backend=\""))
        .collect();
    assert_eq!(backend.len(), 1, "one backend sample: {backend:?}");
    let (label, value) = backend[0].split_once("\"} ").expect("`label\"} value`");
    assert_eq!(value, "1", "the backend resolves once per process");
    assert_eq!(label, rhychee_fl::fhe::ckks::ntt::active_kernel().name());

    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"round\":1,"), "{health}");
    assert!(health.contains("\"clients_connected\":4"), "{health}");
}
