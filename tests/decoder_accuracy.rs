//! Accuracy relations between the decoders (the premise of Figure 11):
//! exact MWPM decoders agree with each other, and the Union-Find
//! approximation never beats them while all decoders suppress errors as the
//! code distance grows.

use mb_decoder::{BackendSpec, ShardedPipeline};
use mb_graph::codes::CodeCapacityRotatedCode;
use std::sync::Arc;

#[test]
fn exact_decoders_have_identical_weight_behaviour() {
    let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.06).decoding_graph());
    let shots = 400;
    let parity_eval =
        ShardedPipeline::new(BackendSpec::Parity, Arc::clone(&graph)).evaluate(shots, 31);
    let micro_eval = ShardedPipeline::new(BackendSpec::micro_full(Some(5)), Arc::clone(&graph))
        .evaluate(shots, 31);
    let delta = (parity_eval.logical_error_rate() - micro_eval.logical_error_rate()).abs();
    assert!(
        delta <= 0.02,
        "exact decoders should agree up to equal-weight ties: {} vs {}",
        parity_eval.logical_error_rate(),
        micro_eval.logical_error_rate()
    );
}

#[test]
fn union_find_never_beats_exact_mwpm() {
    for (d, p) in [(3usize, 0.08), (5, 0.08)] {
        let graph = Arc::new(CodeCapacityRotatedCode::new(d, p).decoding_graph());
        let shots = 1000;
        let mwpm_eval =
            ShardedPipeline::new(BackendSpec::Parity, Arc::clone(&graph)).evaluate(shots, 5);
        let uf_eval =
            ShardedPipeline::new(BackendSpec::union_find(), Arc::clone(&graph)).evaluate(shots, 5);
        assert!(
            uf_eval.logical_error_rate() + 0.01 >= mwpm_eval.logical_error_rate(),
            "d={d}: UF {} unexpectedly beats MWPM {}",
            uf_eval.logical_error_rate(),
            mwpm_eval.logical_error_rate()
        );
    }
}

#[test]
fn larger_distance_suppresses_logical_errors_below_threshold() {
    let p = 0.02; // well below the surface-code threshold
    let shots = 1500;
    let mut rates = Vec::new();
    for d in [3usize, 5] {
        let graph = Arc::new(CodeCapacityRotatedCode::new(d, p).decoding_graph());
        let eval = ShardedPipeline::new(BackendSpec::micro_full(Some(d)), Arc::clone(&graph))
            .evaluate(shots, 13);
        rates.push(eval.logical_error_rate());
    }
    assert!(
        rates[1] <= rates[0],
        "logical error rate should not grow with distance below threshold: {rates:?}"
    );
}
