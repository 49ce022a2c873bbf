//! `core.stream_accum` accounting: the bytes an aggregator charges at
//! its first fold are released exactly once, however it ends. One test
//! in its own binary, because the counter is process-wide and unit
//! tests of other modules fold concurrently.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rhychee_core::streaming::accumulator_bytes;
use rhychee_core::{packing, Aggregation, StreamingAggregator};
use rhychee_fhe::ckks::{CkksContext, CtView};
use rhychee_fhe::params::CkksParams;

#[test]
fn accumulator_bytes_return_after_finish_finish_sum_and_drop() {
    let ctx = CkksContext::new(CkksParams::toy()).expect("params");
    let mut rng = StdRng::seed_from_u64(3);
    let (_, pk) = ctx.generate_keys(&mut rng);
    let flat = vec![0.5f32; ctx.slot_count() + 7]; // two chunks
    let cts =
        packing::encrypt_model_with(&ctx, &pk, &flat, &packing::PackingConfig::dense(), &mut rng)
            .expect("encrypt");
    let blobs: Vec<Vec<u8>> = cts.iter().map(|ct| ctx.serialize(ct)).collect();
    let views: Vec<CtView<'_>> =
        blobs.iter().map(|b| ctx.view_serialized(b).expect("view")).collect();
    let folded = || {
        let mut agg = StreamingAggregator::new(0, Aggregation::FedAvg).expect("aggregator");
        assert!(agg.fold_upload(&ctx, 0, 0, &views).expect("fold"));
        agg
    };

    let before = accumulator_bytes();
    let agg = folded();
    let held = agg.heap_bytes();
    assert!(held > 0);
    assert_eq!(accumulator_bytes(), before + held, "charged at first fold");
    let closed = agg.finish(&ctx).expect("finish");
    assert_eq!(accumulator_bytes(), before, "finish releases the accumulator");

    let sum = folded().finish_sum().expect("finish_sum");
    assert_eq!(accumulator_bytes(), before, "finish_sum releases it once, not twice");
    assert_eq!(sum.len(), closed.len(), "the sum left with the caller");

    drop(folded());
    assert_eq!(accumulator_bytes(), before, "a plain drop releases it");
}
