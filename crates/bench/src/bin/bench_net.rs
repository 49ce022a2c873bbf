//! Streaming-aggregation e2e benchmark over loopback TCP.
//!
//! Runs a real 64-client encrypted federation through the server's
//! streaming receive path (uploads folded into the running encrypted
//! sum as frames arrive), scrapes the observability endpoint's
//! `/metrics` afterwards, and **fails** (exit 1) if the server's peak
//! count of simultaneously resident uploads exceeded twice the
//! configured fold concurrency — the O(1)-memory claim of the
//! streaming redesign, asserted from the outside. Also times the
//! zero-copy `fold_view` hot path and writes both to `BENCH_net.json`
//! for the CI trend line.
//!
//! `--quick` shrinks the federation to 16 clients.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::thread;
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};

use rhychee_bench::{banner, emit_metrics_json, init_telemetry, time_ns, Table};
use rhychee_core::packing;
use rhychee_core::round::{self, ClientLocal, FedSetup};
use rhychee_core::FlConfig;
use rhychee_data::{DatasetKind, SyntheticConfig};
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::params::CkksParams;
use rhychee_net::{ClientConfig, ClientPipeline, FlClient, FlServer, ServerConfig, ServerPipeline};
use rhychee_obs::ObsServer;

/// One `GET <path>` against the exposition server, returning the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to obs");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .expect("send scrape");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    response.split_once("\r\n\r\n").expect("http head/body split").1.to_owned()
}

/// Extracts the value of an unlabeled Prometheus sample line.
fn sample(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

fn main() {
    init_telemetry();
    let quick = std::env::args().any(|a| a == "--quick");
    let clients: usize = if quick { 16 } else { 64 };
    let max_resident = 4usize;
    let hd_dim = 64usize;

    let data =
        SyntheticConfig { kind: DatasetKind::Har, train_samples: clients * 10, test_samples: 64 }
            .generate(101)
            .expect("dataset generation");
    let fl = FlConfig::builder()
        .clients(clients)
        .rounds(1)
        .hd_dim(hd_dim)
        .seed(29)
        .build()
        .expect("valid config");
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    banner(&format!(
        "streaming aggregation over loopback: {clients} clients, {num_params} params, \
         fold concurrency {max_resident}"
    ));

    let obs = ObsServer::bind("127.0.0.1:0").expect("obs bind").spawn().expect("obs spawn");
    let obs_addr = obs.addr();

    let cfg = ServerConfig::builder()
        .clients(clients)
        .rounds(fl.rounds)
        .model_params(num_params)
        .max_resident_uploads(max_resident)
        .build()
        .expect("server config");
    let server =
        FlServer::bind("127.0.0.1:0", cfg, ServerPipeline::Ckks(CkksParams::toy())).expect("bind");
    let addr = server.local_addr().expect("local addr");

    let wall = Instant::now();
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
        .expect("client");
        joins.push(thread::spawn(move || client.run()));
    }
    for j in joins {
        j.join().expect("client thread").expect("client run");
    }
    let report = server.join().expect("server thread").expect("server run");
    let federation_secs = wall.elapsed().as_secs_f64();

    let metrics = http_get(obs_addr, "/metrics");
    drop(obs);
    let peak = sample(&metrics, "rhychee_net_agg_peak_resident_uploads")
        .expect("peak-resident gauge missing from /metrics");
    let folds = sample(&metrics, "rhychee_fl_agg_folds_total").unwrap_or(0.0);

    // The zero-copy fold hot path, isolated: one serialized upload
    // folded into a live accumulator, per model chunk.
    let ctx = CkksContext::new(CkksParams::toy()).expect("context");
    let mut rng = StdRng::seed_from_u64(3);
    let (_sk, pk) = ctx.generate_keys(&mut rng);
    let flat: Vec<f32> = (0..num_params).map(|i| (i as f32 * 0.01).cos()).collect();
    let cts =
        packing::encrypt_model_with(&ctx, &pk, &flat, &packing::PackingConfig::dense(), &mut rng)
            .expect("encrypt");
    let blobs: Vec<Vec<u8>> = cts.iter().map(|ct| ctx.serialize(ct)).collect();
    let views: Vec<_> = blobs.iter().map(|b| ctx.view_serialized(b).expect("view")).collect();
    let mut acc: Vec<_> = views.iter().map(|v| ctx.accumulator_for(v)).collect();
    let fold_ns = time_ns(256, || {
        for (a, v) in acc.iter_mut().zip(&views) {
            ctx.fold_view(a, v).expect("fold");
        }
    }) / cts.len() as f64;

    let (heap_peak, rss_peak) = rhychee_bench::peak_memory();
    let mut table = Table::new(vec!["measure", "value"]);
    table.row(vec!["clients".into(), clients.to_string()]);
    table.row(vec!["updates folded".into(), format!("{folds:.0}")]);
    table.row(vec!["peak resident uploads".into(), format!("{peak:.0}")]);
    table.row(vec!["residency cap".into(), max_resident.to_string()]);
    table.row(vec!["fold_view ns/op (per ct)".into(), format!("{fold_ns:.0}")]);
    table.row(vec!["heap peak".into(), format!("{:.1} MiB", heap_peak as f64 / (1 << 20) as f64)]);
    table.row(vec!["rss peak".into(), format!("{:.1} MiB", rss_peak as f64 / (1 << 20) as f64)]);
    table.row(vec!["federation wall time".into(), format!("{federation_secs:.2}s")]);
    table.print();

    let received: usize = report.rounds.iter().map(|r| r.received).sum();
    let json = format!(
        "{{\n  \"clients\": {clients},\n  \"model_params\": {num_params},\n  \
         \"updates_received\": {received},\n  \"folds\": {folds:.0},\n  \
         \"max_resident_uploads\": {max_resident},\n  \
         \"peak_resident_uploads\": {peak:.0},\n  \
         \"fold_view_ns_per_ct\": {fold_ns:.1},\n  \
         \"heap_peak_bytes\": {heap_peak},\n  \
         \"rss_peak_bytes\": {rss_peak},\n  \
         \"federation_secs\": {federation_secs:.3}\n}}\n"
    );
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    println!("\nwrote BENCH_net.json");
    emit_metrics_json("bench_net");

    // The headline assertion: server memory stayed O(1) in client
    // count. A peak above 2x the fold concurrency means backpressure
    // failed and uploads accumulated.
    let cap = 2 * max_resident;
    assert!(peak >= 1.0, "no resident uploads recorded — streaming path not exercised");
    if peak as usize > cap {
        eprintln!(
            "FAIL: peak resident uploads {peak:.0} exceeds {cap} \
             (2x the fold concurrency of {max_resident}) with {clients} clients"
        );
        std::process::exit(1);
    }
    println!(
        "OK: peak resident uploads {peak:.0} <= {cap} with {clients} clients \
         (streaming held O(1) server memory)"
    );
}
