//! Regenerates **Table I**: per-round communication size per scheme.
//!
//! The paper states the symbolic formulas; this binary evaluates them on
//! the experimental operating point (HDC D = 2000, L = 10 → DL = 20,000
//! trainable parameters) across all seven Table III parameter sets, and
//! checks the closed forms against actually serialized ciphertexts.

use rand::{rngs::StdRng, SeedableRng};
use rhychee_bench::{banner, format_bits, Table};
use rhychee_core::packing::{self, PackingConfig};
use rhychee_fhe::ckks::CkksContext;
use rhychee_fhe::lwe::LweContext;
use rhychee_fhe::params::ParamSet;

fn main() {
    rhychee_bench::init_telemetry();
    banner("Table I: Design Space and Communication Size");
    println!("Model size DL = 2000 x 10 = 20,000 trainable parameters\n");

    let dl: u64 = 20_000;
    let mut table =
        Table::new(vec!["Set", "Scheme", "Formula", "Ciphertexts", "Size (bits)", "Size"]);
    for (name, set) in ParamSet::table3() {
        let (scheme, formula, cts) = match &set {
            ParamSet::Ckks(p) => (
                "CKKS",
                format!(
                    "ceil(DL/(N/2)) * 2N log Q = ceil({dl}/{}) * 2*{}*{}",
                    p.slot_count(),
                    p.n,
                    p.log_q()
                ),
                dl.div_ceil(p.slot_count() as u64),
            ),
            ParamSet::Tfhe(p) => {
                ("TFHE", format!("DL (n+1) log q = {dl} * {} * {}", p.dimension + 1, p.log_q), dl)
            }
        };
        let bits = set.comm_bits(dl);
        table.row(vec![
            name.to_string(),
            scheme.to_string(),
            formula,
            cts.to_string(),
            bits.to_string(),
            format_bits(bits),
        ]);
    }
    table.print();

    // Cross-check the formulas against real serialized ciphertext sizes
    // (bit-packed wire format; header overhead is 72 bits per ciphertext).
    banner("Formula vs. serialized wire size (validation)");
    let mut check = Table::new(vec!["Set", "Formula bits/ct", "Serialized bits/ct", "Overhead"]);
    let mut rng = StdRng::seed_from_u64(1);
    for (name, set) in ParamSet::table3() {
        match set {
            ParamSet::Ckks(p) => {
                let formula = p.ciphertext_bits();
                let ctx = CkksContext::new(p).expect("params");
                let (_, pk) = ctx.generate_keys(&mut rng);
                let ct = ctx.encrypt(&pk, &[1.0], &mut rng).expect("encrypt");
                let actual = (ctx.serialize(&ct).len() * 8) as u64;
                check.row(vec![
                    name.to_string(),
                    formula.to_string(),
                    actual.to_string(),
                    format!("{:+.3}%", 100.0 * (actual as f64 - formula as f64) / formula as f64),
                ]);
            }
            ParamSet::Tfhe(p) => {
                let formula = p.ciphertext_bits();
                let ctx = LweContext::new(p).expect("params");
                let sk = ctx.generate_key(&mut rng);
                let ct = ctx.encrypt(&sk, 1, &mut rng).expect("encrypt");
                let actual = (ctx.serialize(&ct).len() * 8) as u64;
                check.row(vec![
                    name.to_string(),
                    formula.to_string(),
                    actual.to_string(),
                    format!("{:+.3}%", 100.0 * (actual as f64 - formula as f64) / formula as f64),
                ]);
            }
        }
    }
    check.print();

    // Bit-interleaved packing at the same operating point: quantized
    // coordinates share slots (lane = bits + ceil(log2 P) for carry-free
    // sums across P clients, plus one counter lane), so the per-upload
    // ciphertext count — and every byte formula above — scales down by
    // the packing density. The analytical model is cross-checked against
    // actually serialized uploads; the same reconciliation is asserted in
    // `rhychee-core`'s packing tests.
    banner("Bit-interleaved packing (bits = 10, P = 4 clients) vs dense slots");
    let dense = PackingConfig::dense();
    let inter = PackingConfig::interleaved(10, 1.0, 4).expect("valid layout");
    let mut packed = Table::new(vec![
        "Set",
        "cts dense",
        "cts packed",
        "bytes dense",
        "bytes packed (analytical)",
        "bytes packed (serialized)",
        "ratio",
    ]);
    for (name, set) in ParamSet::table3() {
        let ParamSet::Ckks(p) = set else { continue };
        let ctx = CkksContext::new(p).expect("params");
        let slots = ctx.slot_count();
        let dense_cts = packing::ciphertexts_needed_with(&dense, dl as usize, slots);
        let packed_cts = packing::ciphertexts_needed_with(&inter, dl as usize, slots);
        let dense_bytes = packing::upload_bytes_canonical_with(&ctx, &dense, dl as usize);
        let packed_bytes = packing::upload_bytes_canonical_with(&ctx, &inter, dl as usize);
        let (_, pk) = ctx.generate_keys(&mut rng);
        let flat: Vec<f32> = (0..dl as usize).map(|i| ((i % 97) as f32 / 97.0) - 0.5).collect();
        let cts = packing::encrypt_model_with(&ctx, &pk, &flat, &inter, &mut rng).expect("encrypt");
        let serialized: usize = cts.iter().map(|ct| ctx.serialize(ct).len()).sum();
        assert_eq!(
            serialized, packed_bytes,
            "{name}: serialized interleaved upload diverged from the analytical model"
        );
        packed.row(vec![
            name.to_string(),
            dense_cts.to_string(),
            packed_cts.to_string(),
            dense_bytes.to_string(),
            packed_bytes.to_string(),
            serialized.to_string(),
            format!("{:.2}x", dense_bytes as f64 / packed_bytes as f64),
        ]);
    }
    packed.print();
    rhychee_bench::emit_metrics_json("table1_comm_formulas");
}
