//! Memory and liveness observability, end to end: this binary declares
//! the tracking allocator, so every test here runs under real heap
//! accounting. It locks in the three headline claims of the memory
//! plane (DESIGN.md §15):
//!
//! 1. **Zero-allocation steady state.** After warm-up, the arena-based
//!    symmetric encrypt path allocates nothing, and the zero-copy
//!    `fold_view` kernel allocates nothing from a thread's first fold
//!    on — asserted by per-span attribution, both directly and through
//!    a real loopback federation's `net_fold.alloc_bytes`
//!    histogram; Paillier's encrypt, add, scalar multiply and decrypt
//!    allocate nothing at all.
//! 2. **Stall detection.** A round watchdog with no heartbeats fires
//!    exactly once per stalled epoch and writes a parseable
//!    flight-recorder dump.
//! 3. **Scrapeable truth.** `/memory.json` reports heap figures that
//!    reconcile with the allocator's own counters.
//!
//! Every test flips or reads process-global state (the telemetry
//! enabled flag, the metrics registry, thread allocation counters), so
//! they all serialize on one lock.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rhychee_fl::core::round::{self, ClientLocal, FedSetup};
use rhychee_fl::core::{FlConfig, Framework};
use rhychee_fl::data::{DatasetKind, SyntheticConfig, TrainTest};
use rhychee_fl::fhe::ckks::{CkksContext, CkksEncryptArena};
use rhychee_fl::fhe::paillier::PaillierContext;
use rhychee_fl::fhe::params::CkksParams;
use rhychee_fl::net::{
    wire, ClientConfig, ClientPipeline, FlClient, FlServer, Message, ServerConfig, ServerPipeline,
    DEFAULT_MAX_PAYLOAD,
};
use rhychee_fl::obs::{ObsServer, Watchdog};
use rhychee_fl::par::Parallelism;
use rhychee_fl::telemetry;

#[global_allocator]
static TRACKING: telemetry::alloc::TrackingAlloc = telemetry::alloc::TrackingAlloc;

/// Serializes tests: they share the telemetry enabled flag, the global
/// metrics registry, and the per-thread allocation counters.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn http_get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_owned())
}

/// Value of the first `"key": <number>` occurrence after `from`.
fn json_u64(body: &str, key: &str, from: usize) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body[from..].find(&needle)? + from + needle.len();
    let rest = body[at..].trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A fresh, empty scratch directory under `target/test_metrics/` —
/// workspace-relative so CI can upload what the tests leave behind
/// (flight-recorder dumps, the scraped `/memory.json` body).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/test_metrics/memory_gate").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn stalls() -> u64 {
    telemetry::metrics::global().counter("fl.round.stalled").get()
}

/// The arena encrypt path allocates nothing once its buffers are warm:
/// per-span attribution over repeated `encrypt_symmetric_with_noise_into`
/// calls reads exactly 0 bytes. Telemetry stays disabled so the inner
/// `fhe.ckks.encrypt` span does not itself build a path string.
#[test]
fn steady_state_arena_encrypt_allocates_zero_bytes() {
    let _g = lock();
    telemetry::set_enabled(false);
    assert!(telemetry::alloc::installed(), "this binary declares the tracking allocator");

    // A single-ciphertext operation never reaches the pool, so the gate
    // holds at any degree (toy has two primes: `Fixed(4)` is above it).
    for par in [Parallelism::Fixed(1), Parallelism::Fixed(4)] {
        let ctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("ckks context");
        let mut rng = StdRng::seed_from_u64(7);
        let (sk, _pk) = ctx.generate_keys(&mut rng);
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| (i as f64 * 0.01).sin()).collect();

        let mut noise = ctx.sample_symmetric_noise(&mut rng);
        let mut arena = CkksEncryptArena::default();
        let mut out = ctx.zero_ciphertext();
        // Warm-up: sizes the arena (its NTT row included) and the output
        // ciphertext.
        for _ in 0..2 {
            ctx.sample_symmetric_noise_into(&mut rng, &mut noise);
            ctx.encrypt_symmetric_with_noise_into(&sk, &values, &noise, &mut arena, &mut out)
                .expect("warm-up encrypt");
        }

        let span = telemetry::span("encrypt");
        for _ in 0..3 {
            ctx.sample_symmetric_noise_into(&mut rng, &mut noise);
            ctx.encrypt_symmetric_with_noise_into(&sk, &values, &noise, &mut arena, &mut out)
                .expect("steady-state encrypt");
        }
        assert_eq!(
            span.alloc_bytes(),
            0,
            "steady-state arena encrypt must not allocate under {par}"
        );
        span.finish();
    }
}

/// A ciphertext component is one `levels × N` residue buffer: a fresh
/// CKKS-3 ciphertext (three primes) costs exactly two allocation calls,
/// one per component, not one per residue row plus a row table.
#[test]
fn zero_ciphertext_is_one_allocation_per_component() {
    let _g = lock();
    telemetry::set_enabled(false);
    let ctx = CkksContext::new(CkksParams::ckks3()).expect("ckks context");
    assert_eq!(ctx.primes().len(), 3);
    let before = telemetry::alloc::thread_alloc_calls();
    let ct = ctx.zero_ciphertext();
    let calls = telemetry::alloc::thread_alloc_calls() - before;
    assert_eq!(calls, 2, "zero_ciphertext at CKKS-3 made {calls} allocation calls");
    drop(ct);
}

/// The zero-copy fold kernel reads wire bytes straight into the
/// accumulator: every fold allocates 0 bytes, in both the canonical and
/// the seed-compressed wire format — the first one included. Each format
/// folds on a freshly spawned thread, so a fold that needed a buffer of
/// its own would show its allocation here.
#[test]
fn steady_state_fold_view_allocates_zero_bytes() {
    let _g = lock();
    telemetry::set_enabled(false);

    for par in [Parallelism::Fixed(1), Parallelism::Fixed(4)] {
        let ctx = CkksContext::with_parallelism(CkksParams::toy(), par).expect("ckks context");
        let mut rng = StdRng::seed_from_u64(11);
        let (sk, _pk) = ctx.generate_keys(&mut rng);
        let values: Vec<f64> = (0..ctx.slot_count()).map(|i| (i as f64 * 0.02).cos()).collect();
        let ct = ctx.encrypt_symmetric(&sk, &values, &mut rng).expect("encrypt");

        let canonical = ctx.serialize(&ct);
        let seeded = ctx.serialize_seeded(&ct).expect("seeded wire form");
        let views = [
            ctx.view_serialized(&canonical).expect("canonical view"),
            ctx.view_serialized_seeded(&seeded).expect("seeded view"),
        ];
        for view in &views {
            let (ctx, seeded) = (&ctx, view.is_seeded());
            thread::scope(|s| {
                s.spawn(|| {
                    let mut acc = ctx.accumulator_for(view);
                    let cold = telemetry::span("net_fold");
                    ctx.fold_view(&mut acc, view).expect("cold fold");
                    let cold_bytes = cold.alloc_bytes();
                    cold.finish();
                    assert_eq!(
                        cold_bytes, 0,
                        "a thread's first fold_view allocated under {par} (seeded: {seeded})"
                    );

                    let span = telemetry::span("net_fold");
                    for _ in 0..3 {
                        ctx.fold_view(&mut acc, view).expect("steady-state fold");
                    }
                    assert_eq!(
                        span.alloc_bytes(),
                        0,
                        "steady-state fold_view must not allocate under {par} (seeded: {seeded})"
                    );
                    span.finish();
                });
            });
        }
    }
}

/// The frame codecs allocate one payload per upload: `encode_frame` the
/// frame, `decode_frame` and `read_message` the model the `Message`
/// owns. A 625 KB CKKS-4-sized `Update` (the 624,736-byte frame the
/// benchmark uploads) costs each at most its declared payload plus
/// 256 B. A socket read that buffered the whole frame before copying the
/// model out would cost two payloads.
#[test]
fn frame_codecs_allocate_one_payload_per_upload() {
    let _g = lock();
    telemetry::set_enabled(false);
    let model: Vec<u8> = (0..624_710u32).map(|i| (i % 251) as u8).collect();
    let msg = Message::Update { round: 3, client_id: 7, steps: 1, model };
    let allocated = |f: &mut dyn FnMut()| {
        let before = telemetry::alloc::thread_allocated_bytes();
        f();
        telemetry::alloc::thread_allocated_bytes() - before
    };

    let mut frame = Vec::new();
    let encode = allocated(&mut || frame = wire::encode_frame(&msg));
    assert_eq!(frame.len(), 624_736);
    let payload = (frame.len() - wire::HEADER_LEN - wire::TRAILER_LEN) as u64;
    let mut decoded = None;
    let decode = allocated(&mut || decoded = Some(wire::decode_frame(&frame, DEFAULT_MAX_PAYLOAD)));
    assert_eq!(decoded.expect("ran").expect("decode"), msg);
    let mut read = None;
    let read_bytes = allocated(&mut || {
        read = Some(wire::read_message(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD));
    });
    assert_eq!(read.expect("ran").expect("read"), (msg, frame.len()));
    for (what, bytes) in
        [("encode_frame", encode), ("decode_frame", decode), ("read_message", read_bytes)]
    {
        eprintln!("{what}: {bytes} B allocated for a {payload} B payload");
        assert!(bytes <= payload + 256, "{what} allocated {bytes} B for a {payload} B payload");
    }
}

/// Paillier works on inline fixed-width integers with stack scratch: once
/// a 256-bit context exists, `encrypt_u64`, `add`, `mul_scalar` and
/// `decrypt_u64` each allocate 0 bytes.
#[test]
fn paillier_ops_allocate_zero_bytes() {
    let _g = lock();
    telemetry::set_enabled(false);
    let mut rng = StdRng::seed_from_u64(5);
    let ctx = PaillierContext::generate(&mut rng, 256).expect("keygen");
    let allocated = |f: &mut dyn FnMut()| {
        let before = telemetry::alloc::thread_allocated_bytes();
        f();
        telemetry::alloc::thread_allocated_bytes() - before
    };
    let (mut x, mut sum, mut scaled, mut plain) = (None, None, None, None);
    let encrypt = allocated(&mut || x = Some(ctx.encrypt_u64(20, &mut rng)));
    let x = x.expect("ran");
    let add = allocated(&mut || sum = Some(ctx.add(&x, &x)));
    let mul_scalar = allocated(&mut || scaled = Some(ctx.mul_scalar(&x, 3)));
    let decrypt = allocated(&mut || plain = Some(ctx.decrypt_u64(&x)));
    assert_eq!(ctx.decrypt_u64(&sum.expect("ran")).expect("fits"), 40);
    assert_eq!(ctx.decrypt_u64(&scaled.expect("ran")).expect("fits"), 60);
    assert_eq!(plain.expect("ran").expect("fits"), 20);
    for (what, bytes) in [
        ("encrypt_u64", encrypt),
        ("add", add),
        ("mul_scalar", mul_scalar),
        ("decrypt_u64", decrypt),
    ] {
        assert_eq!(bytes, 0, "Paillier {what} allocated {bytes} B");
    }
}

/// A real loopback federation under the tracking allocator: the
/// server's per-fold attribution histogram shows that steady-state
/// `net_fold` spans allocated 0 bytes (only the first fold of each
/// round materializes the accumulators), and a generously configured
/// watchdog wired through `ServerConfig` never fires.
#[test]
fn federation_fold_spans_are_zero_alloc_and_watchdog_stays_quiet() {
    let _g = lock();
    let dump_dir = scratch_dir("quiet");
    let stalls_before = stalls();

    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 180, test_samples: 60 }
        .generate(33)
        .expect("dataset");
    let fl = FlConfig::builder()
        .clients(3)
        .rounds(2)
        .hd_dim(128)
        .seed(5)
        .parallelism(Parallelism::Fixed(1))
        .build()
        .expect("config");
    let FedSetup { shards, test: _, classes } = round::prepare(&fl, &data).expect("prepare");
    let num_params = classes * fl.hd_dim;

    telemetry::set_enabled(true);
    let server = FlServer::bind(
        "127.0.0.1:0",
        ServerConfig::builder()
            .clients(fl.clients)
            .rounds(fl.rounds)
            .model_params(num_params)
            .parallelism(Parallelism::Fixed(1))
            .round_watchdog(50.0)
            .flight_dump_dir(&dump_dir)
            .build()
            .expect("server config"),
        ServerPipeline::Ckks(CkksParams::toy()),
    )
    .expect("server bind");
    let addr = server.local_addr().expect("server addr");
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
    telemetry::set_enabled(false);

    let folds = fl.clients * fl.rounds;
    assert_eq!(report.rounds.len(), fl.rounds);

    let snap = telemetry::metrics::global().snapshot();
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "net_fold.alloc_bytes")
        .expect("per-fold allocation histogram recorded");
    assert_eq!(hist.count, folds as u64, "one attribution sample per fold");
    assert_eq!(hist.min, 0, "steady-state folds allocate 0 bytes on the coordinator thread");
    assert_eq!(hist.p50, 0, "most folds are steady-state (only round-opening folds allocate)");
    // The first fold of each round materializes the per-chunk
    // accumulators, so the histogram's max is genuinely nonzero — the
    // attribution distinguishes the two cases rather than reading 0
    // everywhere.
    assert!(hist.max > 0, "round-opening folds are attributed their accumulator allocation");

    // The watchdog was armed (50x the round timeout) but every phase
    // beat in time: no stall counted, no flight dump written.
    assert_eq!(stalls() - stalls_before, 0, "healthy federation never trips the watchdog");
    let dumps = std::fs::read_dir(&dump_dir).expect("dump dir").count();
    assert_eq!(dumps, 0, "no flight-recorder dump for a healthy run");
    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// Stall injection through the public API: a watchdog that stops
/// hearing beats fires exactly once for the stalled epoch, bumps
/// `fl.round.stalled`, and writes one parseable flight-recorder dump.
#[test]
fn stalled_watchdog_fires_once_and_writes_a_parseable_dump() {
    let _g = lock();
    let dump_dir = scratch_dir("stall");
    let before = stalls();

    let wd = Watchdog::spawn(Duration::from_millis(40), Some(dump_dir.clone()));
    wd.beat("collect");
    thread::sleep(Duration::from_millis(300));
    assert_eq!(stalls() - before, 1, "one stalled epoch fires exactly once");
    drop(wd);

    let mut dumps: Vec<PathBuf> = std::fs::read_dir(&dump_dir)
        .expect("dump dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one flight-recorder dump");
    let path = dumps.pop().expect("dump path");
    let name = path.file_name().expect("file name").to_string_lossy().into_owned();
    assert!(
        name.starts_with("flight-stall-") && name.ends_with(".json"),
        "dump name carries the reason: {name}"
    );

    let body = std::fs::read_to_string(&path).expect("read dump");
    for field in [
        "\"kind\":\"rhychee-flight-recorder\"",
        "\"reason\":\"stall\"",
        "\"memory\":",
        "\"counters\":",
        "\"gauges\":",
        "\"histograms\":",
        "\"recent_spans\":",
    ] {
        assert!(body.contains(field), "dump missing {field}");
    }
    // Parseability: balanced braces/brackets outside string literals.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in body.chars() {
        if esc {
            esc = false;
        } else if in_str {
            match c {
                '\\' => esc = true,
                '"' => in_str = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in flight dump");
        }
    }
    assert_eq!(depth, 0, "flight dump is balanced JSON");
    // Deliberately left on disk: CI uploads the dump as an artifact and
    // feeds it to the `mem_report` pretty-printer as a smoke test.
}

/// `/memory.json` reports the same heap figures the allocator counters
/// hold: installed, live bytes bracketed by before/after reads, and a
/// live ballast allocation visibly included.
#[test]
fn memory_json_scrape_reconciles_with_allocator_counters() {
    let _g = lock();
    let obs = ObsServer::bind("127.0.0.1:0").expect("obs bind").spawn().expect("obs spawn");

    let ballast = vec![0xA5u8; 4 << 20];
    let live_before = telemetry::alloc::stats().live_bytes;
    let body = http_get(obs.addr(), "/memory.json").expect("scrape /memory.json");
    let live_after = telemetry::alloc::stats().live_bytes;
    let out_dir = scratch_dir("scrape");
    std::fs::write(out_dir.join("memory.json"), &body).expect("save scraped body for CI");

    assert!(body.contains("\"installed\":true"), "allocator must report installed: {body}");
    let heap_at = body.find("\"heap\"").expect("heap section");
    let scraped_live = json_u64(&body, "live_bytes", heap_at).expect("heap.live_bytes");
    let scraped_peak = json_u64(&body, "peak_bytes", heap_at).expect("heap.peak_bytes");

    // The scrape happened between the two local reads; allow a slack
    // band for the server thread's own transient buffers.
    let slack = 2u64 << 20;
    let lo = live_before.min(live_after).saturating_sub(slack);
    let hi = live_before.max(live_after) + slack;
    assert!(
        (lo..=hi).contains(&scraped_live),
        "scraped live {scraped_live} outside allocator bracket [{lo}, {hi}]"
    );
    assert!(scraped_live >= ballast.len() as u64, "live heap covers the ballast allocation");
    assert!(scraped_peak >= scraped_live, "peak never below live");

    // RSS mirrors procfs where available (always on the Linux CI).
    if cfg!(target_os = "linux") {
        let rss_at = body.find("\"rss\"").expect("rss section");
        assert!(body.contains("\"available\":true"), "procfs-backed RSS on linux");
        let rss = json_u64(&body, "bytes", rss_at).expect("rss.bytes");
        assert!(rss > 0, "nonzero resident set");
    }
    drop(ballast);
}

/// Leak gate: two identical encrypted federations back to back. The
/// first run warms every cache that is *supposed* to persist (twiddle
/// tables, interned metric names); the
/// second must then return the heap to where it started, within a
/// small slack. Net growth here is the signature of a real per-round
/// leak.
#[test]
fn repeated_federations_do_not_grow_the_live_heap() {
    let _g = lock();
    telemetry::set_enabled(false);

    let data = SyntheticConfig { kind: DatasetKind::Har, train_samples: 180, test_samples: 60 }
        .generate(17)
        .expect("dataset");
    let run = |data: &TrainTest| {
        let config = FlConfig::builder()
            .clients(3)
            .rounds(2)
            .hd_dim(128)
            .seed(23)
            .parallelism(Parallelism::Fixed(1))
            .build()
            .expect("config");
        let mut fw = Framework::hdc_encrypted(config, data, CkksParams::toy()).expect("framework");
        let report = fw.run().expect("run");
        assert!(report.final_accuracy > 0.0);
    };

    run(&data); // warm-up: caches, arenas, interned names
    let live_before = telemetry::alloc::stats().live_bytes;
    run(&data);
    let live_after = telemetry::alloc::stats().live_bytes;

    let growth = live_after.saturating_sub(live_before);
    assert!(
        growth < 1 << 20,
        "steady-state federation leaked {growth} bytes of live heap \
         (before {live_before}, after {live_after})"
    );
}
