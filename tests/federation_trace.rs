//! The tentpole acceptance test for federation-wide distributed tracing
//! (DESIGN.md §12): a networked loopback federation — 1 server, 4 client
//! threads, 3 encrypted CKKS rounds — must produce one merged trace in
//! which every client's `client_round` parents under the correct server
//! `net_round` span, the merged span tree reconciles against both sides'
//! reports to the nanosecond, and a standalone obs server scrapes the
//! round timeline (`/rounds.json`), per-client labeled metrics
//! (`/metrics`) and the drop-counting trace ring (`/trace.json`).
//!
//! Single `#[test]`: the trace ring, the rounds store and the telemetry
//! flag are process-global, so this binary owns the whole process.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread;

use rhychee_fl::core::round::{self, ClientLocal, FedSetup};
use rhychee_fl::core::{FlConfig, Parallelism};
use rhychee_fl::data::{DatasetKind, SyntheticConfig};
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::net::{
    ClientConfig, ClientPipeline, ClientReport, FlClient, FlServer, ServerConfig, ServerPipeline,
    ServerReport,
};
use rhychee_fl::obs::ObsServer;
use rhychee_fl::telemetry::fedmerge::{self, FedSource};
use rhychee_fl::telemetry::trace::{SpanEvent, TraceWriter};
use rhychee_fl::telemetry::{self, profile};

const CLIENTS: usize = 4;
const ROUNDS: usize = 3;

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect obs");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "GET {path}: {head}");
    body.to_owned()
}

/// Extracts `"field":<digits>` from a JSON fragment.
fn json_u64(fragment: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let at = fragment.find(&key).unwrap_or_else(|| panic!("{field} missing in {fragment}"));
    fragment[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{field} not a number in {fragment}"))
}

/// The `{...}` object following `"phase":` in the `/rounds.json` body.
fn phase_object<'a>(body: &'a str, phase: &str) -> &'a str {
    let key = format!("\"{phase}\":{{");
    let at = body.find(&key).unwrap_or_else(|| panic!("phase {phase} missing in {body}"));
    let obj = &body[at + key.len()..];
    &obj[..obj.find('}').expect("phase object end")]
}

fn run_federation() -> (ServerReport, Vec<ClientReport>) {
    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 360, test_samples: 120 }
        .generate(77)
        .expect("dataset generation");
    let fl = FlConfig::builder()
        .clients(CLIENTS)
        .rounds(ROUNDS)
        .hd_dim(256)
        .seed(41)
        .parallelism(Parallelism::Fixed(1))
        .build()
        .expect("valid config");
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    let server = FlServer::bind(
        "127.0.0.1:0",
        ServerConfig::builder()
            .clients(CLIENTS)
            .rounds(ROUNDS)
            .model_params(num_params)
            .parallelism(Parallelism::Fixed(1))
            .build()
            .expect("server config"),
        ServerPipeline::Ckks(CkksParams::toy()),
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server = thread::spawn(move || server.run());

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
    let clients: Vec<ClientReport> =
        joins.into_iter().map(|j| j.join().expect("join").expect("client run")).collect();
    let server = server.join().expect("join").expect("server run");
    (server, clients)
}

#[test]
fn federation_trace_merges_propagates_and_reconciles() {
    telemetry::set_enabled(true);
    let (server, clients) = run_federation();
    let events = telemetry::trace::recent_events();

    // --- Cross-process propagation, straight off the span events. ---
    let mut net_rounds: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "net_round").collect();
    net_rounds.sort_by_key(|e| e.start_ns);
    assert_eq!(net_rounds.len(), ROUNDS, "one net_round span per round");
    let round_ids: Vec<u64> = net_rounds.iter().map(|e| e.span_id).collect();
    assert!(round_ids.iter().all(|&id| id != 0), "tracked spans carry ids: {round_ids:?}");
    assert_eq!(
        round_ids.iter().collect::<BTreeSet<_>>().len(),
        ROUNDS,
        "round span ids are distinct"
    );
    let trace_ids_seen: BTreeSet<u128> =
        events.iter().map(|e| e.trace_id).filter(|&t| t != 0).collect();
    assert_eq!(trace_ids_seen.len(), 1, "one federation-wide trace id: {trace_ids_seen:?}");

    for k in 0..CLIENTS {
        let actor = format!("client{k}");
        let mut legs: Vec<&SpanEvent> = events
            .iter()
            .filter(|e| e.name == "client_round" && e.actor.as_deref() == Some(actor.as_str()))
            .collect();
        legs.sort_by_key(|e| e.start_ns);
        assert_eq!(legs.len(), ROUNDS, "{actor} ran every round");
        for (r, leg) in legs.iter().enumerate() {
            assert_eq!(
                leg.remote_parent, round_ids[r],
                "{actor} round {r} must parent under the server's round-{r} span"
            );
            assert!(trace_ids_seen.contains(&leg.trace_id));
        }
    }

    // --- Partition by actor into per-process JSONL traces (exactly what
    // each endpoint would have written with `trace_jsonl`), then merge
    // them back through the same parser + fedmerge path `fed_trace` uses.
    let dir = Path::new("target/test_metrics/fed_trace");
    std::fs::create_dir_all(dir).expect("artifact dir");
    let mut by_actor: BTreeMap<String, Vec<SpanEvent>> = BTreeMap::new();
    for e in &events {
        // Setup-time spans (context building on the test thread, pool
        // workers) carry no actor and belong to no endpoint trace.
        if let Some(actor) = &e.actor {
            by_actor.entry(actor.to_string()).or_default().push(e.clone());
        }
    }
    let expected_actors: BTreeSet<String> = std::iter::once("server".to_owned())
        .chain((0..CLIENTS).map(|k| format!("client{k}")))
        .collect();
    assert_eq!(
        by_actor.keys().cloned().collect::<BTreeSet<_>>(),
        expected_actors,
        "every endpoint labeled its spans"
    );

    let mut sources = Vec::new();
    for label in
        std::iter::once("server".to_owned()).chain((0..CLIENTS).map(|k| format!("client{k}")))
    {
        let path = dir.join(format!("{label}.jsonl"));
        let file = std::fs::File::create(&path).expect("create trace file");
        let mut w = TraceWriter::new(file);
        w.write_events(&by_actor[&label]).expect("write trace");
        w.into_inner().expect("flush trace");
        let text = std::fs::read_to_string(&path).expect("read trace back");
        let records = profile::parse_jsonl_records(&text);
        assert_eq!(records.len(), by_actor[&label].len(), "{label}: lossless JSONL round trip");
        sources.push(FedSource::new(label, records));
    }
    assert_eq!(fedmerge::trace_ids(&sources).len(), 1);

    // --- Nanosecond reconciliation of the merged tree against both
    // sides' reports (populated from the very same span measurements).
    let tree = fedmerge::merge(&sources);
    for (k, c) in clients.iter().enumerate() {
        let leg = format!("server/net_round/client{k}/client_round");
        let leg_node = tree.get(&leg).unwrap_or_else(|| panic!("{leg} missing from merged tree"));
        assert_eq!(leg_node.count, ROUNDS as u64);
        for (phase, expected) in
            [("local_train", c.train_time), ("encrypt", c.encrypt_time), ("upload", c.upload_time)]
        {
            let path = format!("{leg}/{phase}");
            let node = tree.get(&path).unwrap_or_else(|| panic!("{path} missing"));
            assert_eq!(
                node.total_ns,
                expected.as_nanos() as u64,
                "client {k} {phase}: merged total must equal the report to the ns"
            );
        }
        // Each round's decrypt grafts under that round's leg; the final
        // model's follows a broadcast outside any round, so it is an
        // unlinked root under the client's own actor.
        let decrypt = format!("server/net_round/client{k}/decrypt");
        let node = tree.get(&decrypt).unwrap_or_else(|| panic!("{decrypt} missing"));
        assert_eq!(node.count, ROUNDS as u64);
        let last = tree.get(&format!("client{k}/decrypt")).expect("final decrypt");
        assert_eq!(last.count, 1);
        let total = node.total_ns + last.total_ns;
        assert_eq!(total, c.decrypt_time.as_nanos() as u64, "client {k} decrypt");
    }
    let agg = tree.get("server/net_round/net_aggregate").expect("aggregate node");
    let report_agg: u64 = server.rounds.iter().map(|r| r.aggregate_time.as_nanos() as u64).sum();
    assert_eq!(agg.total_ns, report_agg, "server aggregate reconciles to the ns");
    assert!(tree.get("server/net_round/broadcast").is_some(), "handler broadcasts graft in");

    // Flamegraph artifact for CI (the fed_trace bin regenerates it from
    // the JSONL files; this one proves the library path works too).
    std::fs::write(dir.join("federation.folded.txt"), tree.folded()).expect("folded artifact");

    // --- Scrape the observability plane over real HTTP. ---
    let obs = ObsServer::bind("127.0.0.1:0").expect("obs bind").spawn().expect("obs spawn");
    let rounds_body = http_get(obs.addr(), "/rounds.json");
    std::fs::write(dir.join("rounds.json"), &rounds_body).expect("rounds artifact");
    assert_eq!(
        rounds_body.matches("\"round\":").count(),
        ROUNDS,
        "one timeline record per round: {rounds_body}"
    );
    assert_eq!(
        rounds_body.matches("\"offset_ns\":").count(),
        ROUNDS * CLIENTS,
        "every client arrival has an offset: {rounds_body}"
    );
    for chunk in rounds_body.split("\"offset_ns\":").skip(1) {
        assert!(json_u64(&format!("\"o\":{chunk}"), "o") > 0, "arrival offsets are positive");
    }
    assert!(!rounds_body.contains("\"quorum_ns\":null"), "every round met quorum: {rounds_body}");
    assert!(rounds_body.matches("\"stragglers\":0").count() == ROUNDS, "{rounds_body}");
    for phase in ["broadcast", "local_train", "encrypt", "upload", "aggregate", "decrypt"] {
        let obj = phase_object(&rounds_body, phase);
        let (count, p50, p95, p99) = (
            json_u64(obj, "count"),
            json_u64(obj, "p50"),
            json_u64(obj, "p95"),
            json_u64(obj, "p99"),
        );
        assert!(count > 0, "{phase} histogram is live: {obj}");
        assert!(p50 <= p95 && p95 <= p99, "{phase} quantiles ordered: {obj}");
        assert!(p99 > 0, "{phase} p99 nonzero: {obj}");
    }

    let metrics_body = http_get(obs.addr(), "/metrics");
    for k in 0..CLIENTS {
        assert!(
            metrics_body
                .contains(&format!("rhychee_net_client_upload_bytes_total{{client_id=\"{k}\"}}")),
            "per-client upload bytes for {k}:\n{metrics_body}"
        );
        assert!(
            metrics_body.contains(&format!("rhychee_net_client_rtt_ns_count{{client_id=\"{k}\"}}")),
            "per-client RTT histogram for {k}:\n{metrics_body}"
        );
        assert!(
            metrics_body
                .contains(&format!("rhychee_net_client_encrypt_ns_count{{client_id=\"{k}\"}}")),
            "per-client encrypt time for {k}:\n{metrics_body}"
        );
    }
    assert!(metrics_body.contains("rhychee_encrypt_count"), "{metrics_body}");
    assert_eq!(
        metrics_body.matches("# TYPE rhychee_net_client_upload_bytes_total counter").count(),
        1,
        "one TYPE line per labeled family"
    );

    let trace_body = http_get(obs.addr(), "/trace.json");
    assert!(trace_body.starts_with("{\"dropped\":"), "{trace_body}");

    let health_body = http_get(obs.addr(), "/healthz");
    assert!(health_body.contains("\"status\":\"ok\""), "{health_body}");

    // Sanity on the run itself: all clients agreed and every round
    // aggregated all four updates.
    assert_eq!(server.rounds.len(), ROUNDS);
    assert!(server.rounds.iter().all(|r| r.received == CLIENTS && r.rejected == 0));
    for c in &clients {
        assert_eq!(c.rounds_participated, ROUNDS);
        assert_eq!(c.final_model, clients[0].final_model);
    }
}
