//! The `fhe` rows beneath the top-level spans. The program has no spans
//! of its own the benchmark could read yet, so each row is measured in
//! the traced run by a separate loop over one client's model from the
//! last round: one call per ciphertext (or per NTT row), timed from
//! outside, median reported.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::sut;
use crate::workload::Probe;

/// Calls each row's loop makes (a multiple of the 5 ciphertexts a model
/// packs into, so every chunk is visited equally often).
const REPS: usize = 30;

/// Which `fhe` rows are direct children of which top-level span, for the
/// `children_us` / `remainder_us` reconciliation. `fhe.ckks.encode` is
/// inside `encrypt_with_noise`, and `to_centered_f64` and `decode` are
/// inside `decrypt`, so they are grandchildren and not summed here.
pub const CHILDREN: [(&str, &[&str]); 8] = [
    ("core.packing.encrypt_model", &["fhe.ckks.sample_noise", "fhe.ckks.encrypt_with_noise"]),
    ("net.codec.encode_upload", &[UPLOAD_SERIALIZE]),
    ("net.codec.parse_upload", &["fhe.ckks.view_serialized"]),
    ("core.streaming.fold_upload", &["fhe.ckks.fold_view"]),
    ("core.streaming.finish", &["fhe.ckks.mul_scalar"]),
    ("net.codec.encode_broadcast", &["fhe.ckks.serialize"]),
    ("net.codec.decode_broadcast", &["fhe.ckks.deserialize"]),
    ("core.packing.decrypt_model", &["fhe.ckks.decrypt"]),
];

/// Key of the row `encode_upload` calls per ciphertext: `serialize` or
/// `serialize_seeded`, by the workload's codec.
const UPLOAD_SERIALIZE: &str = "fhe.ckks.serialize_upload";

/// Median microseconds and heap KiB per call of one row.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Row {
    /// Median wall time of one call, in microseconds.
    pub us: f64,
    /// Median heap bytes one call allocates, in KiB (0 unless the
    /// tracking allocator is installed).
    pub alloc_kb: f64,
}

/// Times `REPS` calls of `f`, handing it the call index.
fn row<R>(mut f: impl FnMut(usize) -> R) -> Row {
    let (mut us, mut kb) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for i in 0..REPS {
        let heap = sut::thread_allocated_bytes();
        let start = Instant::now();
        let out = f(i);
        let elapsed = start.elapsed();
        let allocated = sut::thread_allocated_bytes() - heap;
        black_box(out);
        us.push(elapsed.as_secs_f64() * 1e6);
        kb.push(allocated as f64 / 1024.0);
    }
    Row { us: median(&us), alloc_kb: median(&kb) }
}

/// Measures every `fhe` row on the probe's model.
///
/// # Errors
///
/// Returns the product's error text if any call fails.
pub fn fhe_rows(probe: &Probe) -> Result<BTreeMap<&'static str, Row>, String> {
    let cr = &probe.crypto;
    let chunks = sut::chunks(cr, &probe.flat);
    let k = chunks.len();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut rows = BTreeMap::new();

    // Client side: encode → sample → encrypt → serialize.
    rows.insert("fhe.ckks.encode", row(|i| sut::fhe_encode(cr, &chunks[i % k])));
    rows.insert("fhe.ckks.sample_noise", row(|_| sut::fhe_sample_noise(cr, &mut rng)));
    let noises: Vec<_> = (0..k).map(|_| sut::fhe_sample_noise(cr, &mut rng)).collect();
    rows.insert(
        "fhe.ckks.encrypt_with_noise",
        row(|i| sut::fhe_encrypt_with_noise(cr, &chunks[i % k], &noises[i % k]).is_ok()),
    );
    let fresh = (0..k)
        .map(|i| sut::fhe_encrypt_with_noise(cr, &chunks[i], &noises[i]))
        .collect::<Result<Vec<_>, _>>()?;
    rows.insert("fhe.ckks.serialize", row(|i| sut::fhe_serialize(cr, &fresh[i % k])));
    // Zero on canonical workloads, whose ciphertexts carry no seed.
    let seeded = sut::fhe_serialize_seeded(cr, &fresh[0]).is_some();
    let serialize_seeded =
        if seeded { row(|i| sut::fhe_serialize_seeded(cr, &fresh[i % k])) } else { Row::default() };
    rows.insert("fhe.ckks.serialize_seeded", serialize_seeded);
    // Not a metric of its own: whichever of the two rows above the
    // workload's codec makes `encode_upload` call.
    let upload_row = if seeded { serialize_seeded } else { rows["fhe.ckks.serialize"] };
    rows.insert(UPLOAD_SERIALIZE, upload_row);

    // Server side: view → fold → scale.
    let uploads: Vec<Vec<u8>> = fresh.iter().map(|ct| sut::fhe_upload_bytes(cr, ct)).collect();
    rows.insert(
        "fhe.ckks.view_serialized",
        row(|i| sut::fhe_view_serialized(cr, &uploads[i % k]).is_ok()),
    );
    let views =
        uploads.iter().map(|b| sut::fhe_view_serialized(cr, b)).collect::<Result<Vec<_>, _>>()?;
    let mut accs: Vec<_> = views.iter().map(|v| sut::fhe_accumulator(cr, v)).collect();
    rows.insert(
        "fhe.ckks.fold_view",
        row(|i| sut::fhe_fold_view(cr, &mut accs[i % k], &views[i % k]).is_ok()),
    );
    let weight = 1.0 / probe.contributors as f64;
    rows.insert("fhe.ckks.mul_scalar", row(|i| sut::fhe_mul_scalar(cr, &accs[i % k], weight)));

    // Receiving client: deserialize → decrypt (CRT + decode inside).
    let broadcast: Vec<Vec<u8>> =
        fresh.iter().map(|ct| sut::fhe_serialize(cr, &sut::fhe_mul_scalar(cr, ct, 1.0))).collect();
    rows.insert(
        "fhe.ckks.deserialize",
        row(|i| sut::fhe_deserialize(cr, &broadcast[i % k]).is_ok()),
    );
    let received =
        broadcast.iter().map(|b| sut::fhe_deserialize(cr, b)).collect::<Result<Vec<_>, _>>()?;
    rows.insert("fhe.ckks.decrypt", row(|i| sut::fhe_decrypt(cr, &received[i % k])));
    let coeffs = sut::fhe_encode(cr, &chunks[0]);
    let poly = sut::fhe_poly(cr, &coeffs);
    rows.insert("fhe.rns.to_centered_f64", row(|_| sut::fhe_to_centered_f64(cr, &poly)));
    let centered = sut::fhe_to_centered_f64(cr, &poly);
    rows.insert("fhe.ckks.decode", row(|_| sut::fhe_decode(cr, &centered)));

    // L0: one row transform per prime, averaged over the workload's
    // primes (the transforms are in place and allocate nothing).
    let (mut fwd, mut inv) = (Vec::new(), Vec::new());
    for &q in cr.primes() {
        let table = sut::ntt_table(cr, q);
        let mut data: Vec<u64> = (0..cr.degree()).map(|_| rng.gen_range(0..q)).collect();
        fwd.push(row(|_| sut::ntt_forward(&table, &mut data)).us);
        inv.push(row(|_| sut::ntt_inverse(&table, &mut data)).us);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    rows.insert("fhe.ntt.forward", Row { us: mean(&fwd), alloc_kb: 0.0 });
    rows.insert("fhe.ntt.inverse", Row { us: mean(&inv), alloc_kb: 0.0 });
    Ok(rows)
}
