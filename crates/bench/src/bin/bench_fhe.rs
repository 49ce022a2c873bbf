//! FHE hot-path microbenchmarks across parallelism degrees.
//!
//! Times the operations the `rhychee-par` pool accelerates — the
//! forward NTT (Shoup/Harvey butterflies), packed model encryption
//! (public-key and symmetric seeded), homomorphic aggregation through
//! the accumulator the product folds into, and model decryption — at 1,
//! 2, and 4 threads, and writes the measurements to `BENCH_fhe.json` for
//! the CI trend line, together with canonical vs seeded wire sizes and
//! the single-threaded transform-free kernels (residue bit-packing per
//! ciphertext, frame CRC per upload, the CRT lift per polynomial).
//! Parallelism never changes results (see `tests/parallel_determinism`),
//! so every degree benchmarks the same arithmetic.
//!
//! The thread sweep is clamped to the machine's core count by default:
//! on a 1-core container, degrees 2 and 4 only measure oversubscription
//! overhead, and BENCH_fhe.json would be misread as a parallelism
//! regression. Pass `--all-threads` to force the full sweep; forced
//! oversubscribed rows are flagged both per row and in a top-level
//! `warning` field.
//!
//! `--quick` shrinks the parameter set and iteration counts.

use rand::{rngs::StdRng, SeedableRng};

use rhychee_bench::{banner, emit_metrics_json, init_telemetry, time_ns, Table, NO_NTT_BACKEND};
use rhychee_channel::crc::crc32;
use rhychee_core::{packing, Aggregation, StreamingAggregator};
use rhychee_fhe::ckks::modarith::find_ntt_primes;
use rhychee_fhe::ckks::ntt::NttTable;
use rhychee_fhe::ckks::rns::RnsPoly;
use rhychee_fhe::ckks::{CkksCiphertext, CkksContext};
use rhychee_fhe::params::CkksParams;
use rhychee_net::codec;
use rhychee_net::wire::{self, Message};
use rhychee_par::Parallelism;

/// Each client's upload payload, encoded once outside any timed loop.
fn upload_payloads(ctx: &CkksContext, models: &[Vec<CkksCiphertext>]) -> Vec<Vec<u8>> {
    models.iter().map(|cts| codec::encode_ckks(ctx, cts)).collect()
}

/// One round's aggregation as every runtime performs it: parse each
/// client's upload into zero-copy views, fold them into the
/// accumulator, close with `1/P`.
fn aggregate(ctx: &CkksContext, uploads: &[Vec<u8>]) -> Vec<CkksCiphertext> {
    let mut agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("aggregator");
    for (client_id, payload) in uploads.iter().enumerate() {
        // Trusted bytes this bench encoded itself: no count cap.
        let views = codec::parse_ckks_views(ctx, payload, usize::MAX).expect("parse");
        let folded = agg.fold_upload(ctx, client_id, 0, views.views()).expect("fold");
        assert!(folded, "client {client_id} folds");
    }
    agg.finish(ctx).expect("finish")
}

struct Sample {
    op: String,
    threads: usize,
    ns_per_op: f64,
    /// NTT backend the row ran on: per-backend rows pin it explicitly,
    /// rows that run no transform say [`NO_NTT_BACKEND`], everything else
    /// inherits the process-wide active kernel.
    backend: &'static str,
}

/// The single-threaded, transform-free kernels, one ciphertext (or one
/// upload frame, or one polynomial) per call: `serialize` /
/// `deserialize` / `fold_view` on a deserialized ciphertext (an upload
/// and a broadcast cost the same: the canonical format carries the rows
/// a ciphertext holds), `serialize_seeded` on a fresh symmetric one,
/// `crc32_frame` over one framed model upload, and `crt_centered_f64` —
/// decrypt's CRT lift of one full-level polynomial.
fn kernel_samples(
    params: &CkksParams,
    model_params: usize,
    iters: usize,
    dense: &packing::PackingConfig,
) -> Vec<Sample> {
    let ctx = CkksContext::with_parallelism(params.clone(), Parallelism::Fixed(1)).expect("ctx");
    let mut rng = StdRng::seed_from_u64(15);
    let (sk, pk) = ctx.generate_keys(&mut rng);
    let flat: Vec<f32> = (0..model_params).map(|i| (i as f32 * 0.01).sin()).collect();
    let upload = packing::encrypt_model_with(&ctx, &pk, &flat, dense, &mut rng).expect("encrypt");
    let blob = ctx.serialize(&upload[0]);
    let ct = ctx.deserialize(&blob).expect("deserialize");
    let seeded_ct = ctx.encrypt_symmetric(&sk, &[0.5; 16], &mut rng).expect("encrypt");
    let view = ctx.view_serialized(&blob).expect("view");
    let mut acc = ctx.accumulator_for(&view);
    let frame = wire::encode_frame(&Message::Update {
        round: 0,
        client_id: 0,
        steps: 1,
        model: codec::encode_ckks(&ctx, &upload),
    });
    let signed: Vec<i64> =
        (0..params.n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64 >> 24).collect();
    let poly = RnsPoly::from_signed_coeffs(&signed, ctx.primes());

    let iters = iters.max(64);
    let rows = [
        (
            "serialize",
            time_ns(iters, || {
                std::hint::black_box(ctx.serialize(std::hint::black_box(&ct)));
            }),
        ),
        (
            "serialize_seeded",
            time_ns(iters, || {
                let bytes = ctx.serialize_seeded(std::hint::black_box(&seeded_ct));
                std::hint::black_box(bytes.expect("fresh symmetric ciphertext"));
            }),
        ),
        (
            "deserialize",
            time_ns(iters, || {
                std::hint::black_box(ctx.deserialize(std::hint::black_box(&blob)).expect("blob"));
            }),
        ),
        ("fold_view", time_ns(iters, || ctx.fold_view(&mut acc, &view).expect("fold"))),
        (
            "crc32_frame",
            time_ns(iters, || {
                std::hint::black_box(crc32(std::hint::black_box(&frame)));
            }),
        ),
        (
            "crt_centered_f64",
            time_ns(iters, || {
                let poly = std::hint::black_box(&poly);
                std::hint::black_box(poly.to_centered_f64_with(ctx.primes(), ctx.parallelism()));
            }),
        ),
    ];
    rows.into_iter()
        .map(|(op, ns_per_op)| Sample {
            op: op.into(),
            threads: 1,
            ns_per_op,
            backend: NO_NTT_BACKEND,
        })
        .collect()
}

/// FNV-1a over the decrypted model's `f32` bit patterns: a cheap,
/// dependency-free pin of the seeded encrypt → aggregate → decrypt
/// flow. The bench RNG is seeded, so the `--quick` value is fixed per
/// commit and a change that moves a decrypted bit moves it. Every NTT
/// kernel decrypts to the same bits (`rhychee-fhe`'s
/// `every_ntt_kernel_matches_scalar_end_to_end`), so one process
/// covers them all.
fn decrypt_fingerprint(flat: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in flat {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn main() {
    init_telemetry();
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let all_threads = args.iter().any(|a| a == "--all-threads");
    let (params, model_params, clients, iters) = if quick {
        (CkksParams::toy(), 2_000usize, 4usize, 24usize)
    } else {
        (CkksParams::ckks3(), 20_000, 4, 4)
    };
    let ntt_backend = rhychee_fhe::ckks::ntt::active_kernel().name();
    let dense = packing::PackingConfig::dense();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let full_sweep = [1usize, 2, 4];
    let degrees: Vec<usize> = if all_threads {
        full_sweep.to_vec()
    } else {
        full_sweep.iter().copied().filter(|&d| d <= cores).collect()
    };
    let clamped = degrees.len() < full_sweep.len();
    let warning = if clamped {
        Some(format!(
            "thread sweep clamped to {cores} available core(s); degrees above that would \
             measure oversubscription, not parallel speedup (pass --all-threads to force)"
        ))
    } else if degrees.iter().any(|&d| d > cores) {
        Some(format!(
            "--all-threads forced degrees above the {cores} available core(s); \
             oversubscribed rows measure scheduling overhead, not parallel speedup"
        ))
    } else {
        None
    };

    banner(&format!(
        "FHE hot paths at {} threads on {cores} core(s) (N = {}, {} params, {} clients)",
        degrees.iter().map(ToString::to_string).collect::<Vec<_>>().join("/"),
        params.n,
        model_params,
        clients
    ));
    if let Some(w) = &warning {
        eprintln!("  warning: {w}");
    }

    let mut samples: Vec<Sample> = Vec::new();

    // Raw forward NTT: one prime, one polynomial — the sequential
    // building block every threaded path fans out over. Constant across
    // degrees by construction; measured once and reported per degree so
    // the JSON stays rectangular.
    let q = find_ntt_primes(55, 1, 2 * params.n as u64)[0];
    let table_ntt = NttTable::new(params.n, q);
    let mut poly: Vec<u64> = (0..params.n as u64).map(|i| i.wrapping_mul(0x9E3779B9) % q).collect();
    let ntt_ns = time_ns(iters.max(16), || table_ntt.forward(&mut poly));
    for &threads in &degrees {
        samples.push(Sample {
            op: "ntt_forward".into(),
            threads,
            ns_per_op: ntt_ns,
            backend: ntt_backend,
        });
    }

    // Per-backend NTT rows: every compiled-and-detected kernel, pinned
    // via `with_kernel` (kernels are stateless, so one process measures
    // them all). The `ntt_forward_<backend>` rows let bench_check trend
    // each backend like-for-like even when the active one changes.
    for kernel in rhychee_fhe::ckks::ntt::available_kernels() {
        let table = NttTable::with_kernel(params.n, q, *kernel);
        let fwd_ns = time_ns(iters.max(16), || table.forward(&mut poly));
        samples.push(Sample {
            op: format!("ntt_forward_{}", kernel.name()),
            threads: 1,
            ns_per_op: fwd_ns,
            backend: kernel.name(),
        });
        let inv_ns = time_ns(iters.max(16), || table.inverse(&mut poly));
        samples.push(Sample {
            op: format!("ntt_inverse_{}", kernel.name()),
            threads: 1,
            ns_per_op: inv_ns,
            backend: kernel.name(),
        });
    }

    for &threads in &degrees {
        let par = Parallelism::Fixed(threads);
        let ctx = CkksContext::with_parallelism(params.clone(), par).expect("context");
        let mut rng = StdRng::seed_from_u64(7);
        let (sk, pk) = ctx.generate_keys(&mut rng);
        let flat: Vec<f32> = (0..model_params).map(|i| (i as f32 * 0.01).sin()).collect();

        let encrypt_ns = time_ns(iters, || {
            let cts =
                packing::encrypt_model_with(&ctx, &pk, &flat, &dense, &mut rng).expect("encrypt");
            std::hint::black_box(cts);
        });
        samples.push(Sample {
            op: "encrypt_model".into(),
            threads,
            ns_per_op: encrypt_ns,
            backend: ntt_backend,
        });

        let encrypt_seeded_ns = time_ns(iters, || {
            let cts = packing::encrypt_model_symmetric_with(&ctx, &sk, &flat, &dense, &mut rng)
                .expect("encrypt");
            std::hint::black_box(cts);
        });
        samples.push(Sample {
            op: "encrypt_model_seeded".into(),
            threads,
            ns_per_op: encrypt_seeded_ns,
            backend: ntt_backend,
        });

        let models: Vec<_> = (0..clients)
            .map(|_| {
                packing::encrypt_model_with(&ctx, &pk, &flat, &dense, &mut rng).expect("encrypt")
            })
            .collect();
        let uploads = upload_payloads(&ctx, &models);
        let aggregate_ns = time_ns(iters, || {
            std::hint::black_box(aggregate(&ctx, &uploads));
        });
        samples.push(Sample {
            op: "aggregate".into(),
            threads,
            ns_per_op: aggregate_ns,
            backend: ntt_backend,
        });

        let global = aggregate(&ctx, &uploads);
        let decrypt_ns = time_ns(iters, || {
            let flat = packing::decrypt_model_with(&ctx, &sk, &global, model_params, &dense)
                .expect("decrypt");
            std::hint::black_box(flat);
        });
        samples.push(Sample {
            op: "decrypt_model".into(),
            threads,
            ns_per_op: decrypt_ns,
            backend: ntt_backend,
        });
        eprintln!("  [threads = {threads}] done");
    }

    samples.extend(kernel_samples(&params, model_params, iters, &dense));

    // Deterministic encrypt → aggregate → decrypt fingerprint: seeded
    // RNG and no timing loops interleaved, so two runs of the same
    // commit agree on it.
    let fp_ctx =
        CkksContext::with_parallelism(params.clone(), Parallelism::Fixed(1)).expect("context");
    let mut fp_rng = StdRng::seed_from_u64(1234);
    let (fp_sk, fp_pk) = fp_ctx.generate_keys(&mut fp_rng);
    let fp_flat: Vec<f32> = (0..model_params).map(|i| (i as f32 * 0.01).sin()).collect();
    let fp_models: Vec<_> = (0..clients)
        .map(|_| {
            packing::encrypt_model_with(&fp_ctx, &fp_pk, &fp_flat, &dense, &mut fp_rng)
                .expect("encrypt")
        })
        .collect();
    let fp_global = aggregate(&fp_ctx, &upload_payloads(&fp_ctx, &fp_models));
    let fp_dec = packing::decrypt_model_with(&fp_ctx, &fp_sk, &fp_global, model_params, &dense)
        .expect("decrypt");
    let fingerprint = decrypt_fingerprint(&fp_dec);

    // Wire sizes are degree-independent: canonical vs seeded bytes for
    // one fresh full-level ciphertext, plus a whole-model upload.
    let size_ctx = CkksContext::new(params.clone()).expect("context");
    let levels = size_ctx.primes().len();
    let ct_bytes_canonical = size_ctx.serialized_len(levels);
    let ct_bytes_seeded = size_ctx.serialized_len_seeded(levels);
    let upload_canonical = packing::upload_bytes_canonical_with(&size_ctx, &dense, model_params);
    let upload_seeded = packing::upload_bytes_seeded_with(&size_ctx, &dense, model_params);

    let mut table = Table::new(vec!["op", "backend", "threads", "ns/op", "ms/op", "speedup vs 1"]);
    for s in &samples {
        let base = samples
            .iter()
            .find(|b| b.op == s.op && b.threads == 1 && b.backend == s.backend)
            .map_or(s.ns_per_op, |b| b.ns_per_op);
        let threads = if s.threads > cores {
            format!("{} (oversub)", s.threads)
        } else {
            s.threads.to_string()
        };
        table.row(vec![
            s.op.clone(),
            s.backend.into(),
            threads,
            format!("{:.0}", s.ns_per_op),
            format!("{:.3}", s.ns_per_op / 1e6),
            format!("{:.2}x", base / s.ns_per_op),
        ]);
    }
    table.print();

    let mut sizes = Table::new(vec!["format", "bytes/ct", "bytes/model upload", "vs canonical"]);
    sizes.row(vec![
        "canonical".into(),
        ct_bytes_canonical.to_string(),
        upload_canonical.to_string(),
        "1.00x".into(),
    ]);
    sizes.row(vec![
        "seeded".into(),
        ct_bytes_seeded.to_string(),
        upload_seeded.to_string(),
        format!("{:.2}x", upload_canonical as f64 / upload_seeded as f64),
    ]);
    sizes.print();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"machine_cores\": {cores},\n"));
    if let Some(w) = &warning {
        json.push_str(&format!("  \"warning\": \"{w}\",\n"));
    }
    json.push_str(&format!("  \"ntt_backend\": \"{ntt_backend}\",\n"));
    json.push_str(&format!("  \"decrypt_fingerprint\": \"{fingerprint:#018x}\",\n"));
    json.push_str(&format!("  \"ring_degree\": {},\n", params.n));
    json.push_str(&format!("  \"model_params\": {model_params},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"ct_bytes_canonical\": {ct_bytes_canonical},\n"));
    json.push_str(&format!("  \"ct_bytes_seeded\": {ct_bytes_seeded},\n"));
    json.push_str(&format!("  \"upload_bytes_canonical\": {upload_canonical},\n"));
    json.push_str(&format!("  \"upload_bytes_seeded\": {upload_seeded},\n"));
    json.push_str(&format!(
        "  \"upload_ratio_canonical_over_seeded\": {:.3},\n",
        upload_canonical as f64 / upload_seeded as f64
    ));
    let (heap_peak, rss_peak) = rhychee_bench::peak_memory();
    json.push_str(&format!("  \"heap_peak_bytes\": {heap_peak},\n"));
    json.push_str(&format!("  \"rss_peak_bytes\": {rss_peak},\n"));
    json.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \"ns_per_op\": {:.1}, \
             \"machine_cores\": {cores}, \"oversubscribed\": {}}}{comma}\n",
            s.op,
            s.backend,
            s.threads,
            s.ns_per_op,
            s.threads > cores
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_fhe.json", &json).expect("write BENCH_fhe.json");
    println!("\nwrote BENCH_fhe.json ({} samples, {cores} host cores)", samples.len());
    emit_metrics_json("bench_fhe");
}
