//! The sharded pipeline must be a pure throughput optimization: for every
//! backend, multi-threaded decoding produces results *bit-identical* to
//! single-threaded decoding — same per-shot outcomes, same logical error
//! counts, same aggregate statistics — across 1/2/8 shards, on both a 2D
//! (repetition) and a 3D (rotated, phenomenological noise) decoding graph.
//!
//! This is the determinism guarantee behind `ShardedPipeline::evaluate`:
//! shot `i` is sampled from an RNG derived from `(seed, i)`, so the shard
//! layout cannot influence which shots are drawn or how they decode.

use mb_decoder::pipeline::{shot_rng, skewed_workload, DecodePool, ShardedPipeline, ShotOutcome};
use mb_decoder::BackendSpec;
use mb_graph::codes::{CodeCapacityRepetitionCode, CodeCapacityRotatedCode, PhenomenologicalCode};
use mb_graph::syndrome::ErrorSampler;
use mb_graph::DecodingGraph;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn graphs() -> Vec<(&'static str, Arc<DecodingGraph>)> {
    vec![
        (
            "repetition d=9 p=0.05",
            Arc::new(CodeCapacityRepetitionCode::new(9, 0.05).decoding_graph()),
        ),
        (
            "rotated d=5 p=0.04",
            Arc::new(CodeCapacityRotatedCode::new(5, 0.04).decoding_graph()),
        ),
        (
            "phenomenological d=3 rounds=4 p=0.02",
            Arc::new(PhenomenologicalCode::rotated(3, 4, 0.02).decoding_graph()),
        ),
    ]
}

fn specs(graph: &DecodingGraph) -> Vec<BackendSpec> {
    let _ = graph;
    vec![
        BackendSpec::micro_full(Some(5)),
        BackendSpec::Parity,
        BackendSpec::union_find(),
    ]
}

/// Strips the fields that are legitimately non-deterministic for wall-clock
/// backends, keeping everything the decoding *result* consists of.
fn logical_view(outcome: &ShotOutcome) -> (usize, usize, u64, u64, bool) {
    (
        outcome.shot_index,
        outcome.defects,
        outcome.decoded_observable,
        outcome.expected_observable,
        outcome.is_logical_error(),
    )
}

#[test]
fn per_shot_outcomes_are_identical_across_shard_counts() {
    let shots = 150;
    let seed = 0xA11CE;
    for (name, graph) in graphs() {
        for spec in specs(&graph) {
            let deterministic_latency = spec.build(Arc::clone(&graph)).deterministic_latency();
            let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                .with_shards(1)
                .run_sampled(shots, seed);
            assert_eq!(reference.len(), shots);
            for &shards in &SHARD_COUNTS[1..] {
                let outcomes = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                    .with_shards(shards)
                    .run_sampled(shots, seed);
                if deterministic_latency {
                    // modeled latency: the full record must match bit for bit
                    assert_eq!(
                        outcomes,
                        reference,
                        "{name} / {}: shards={shards}",
                        spec.name()
                    );
                } else {
                    // wall-clock latency differs run to run; everything else
                    // must match
                    let got: Vec<_> = outcomes.iter().map(logical_view).collect();
                    let want: Vec<_> = reference.iter().map(logical_view).collect();
                    assert_eq!(got, want, "{name} / {}: shards={shards}", spec.name());
                }
            }
        }
    }
}

#[test]
fn aggregate_logical_error_counts_are_identical_across_shard_counts() {
    let shots = 200;
    let seed = 77;
    for (name, graph) in graphs() {
        for spec in specs(&graph) {
            let pipeline = ShardedPipeline::new(spec.clone(), Arc::clone(&graph));
            let reference = pipeline.clone().with_shards(1).evaluate(shots, seed);
            for &shards in &SHARD_COUNTS[1..] {
                let result = pipeline.clone().with_shards(shards).evaluate(shots, seed);
                assert_eq!(
                    result.logical_errors,
                    reference.logical_errors,
                    "{name} / {}: shards={shards}",
                    spec.name()
                );
                assert_eq!(result.shots, reference.shots);
                assert_eq!(result.mean_defects, reference.mean_defects);
                assert_eq!(result.decoder, reference.decoder);
                if spec.build(Arc::clone(&graph)).deterministic_latency() {
                    assert_eq!(
                        result.latencies_ns,
                        reference.latencies_ns,
                        "{name} / {}: shards={shards}",
                        spec.name()
                    );
                }
            }
        }
    }
}

#[test]
fn pipeline_equals_a_hand_rolled_serial_loop() {
    // the pipeline with any shard count must equal a plain loop that builds
    // one backend and decodes the per-shot-seeded samples in order
    let graph = Arc::new(CodeCapacityRotatedCode::new(5, 0.06).decoding_graph());
    let shots = 120;
    let seed = 3;
    for spec in specs(&graph) {
        let sampler = ErrorSampler::new(&graph);
        let mut backend = spec.build(Arc::clone(&graph));
        let serial: Vec<(u64, bool)> = (0..shots)
            .map(|i| {
                let mut rng = shot_rng(seed, i as u64);
                let shot = sampler.sample(&mut rng);
                let outcome = backend.decode(&shot.syndrome);
                (outcome.observable, outcome.observable != shot.observable)
            })
            .collect();
        for &shards in &SHARD_COUNTS {
            let outcomes = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                .with_shards(shards)
                .run_sampled(shots as usize, seed);
            let piped: Vec<(u64, bool)> = outcomes
                .iter()
                .map(|o| (o.decoded_observable, o.is_logical_error()))
                .collect();
            assert_eq!(piped, serial, "{}: shards={shards}", spec.name());
        }
    }
}

#[test]
fn work_stealing_pools_are_bit_identical_across_worker_counts() {
    // dedicated pools with 1/2/8 workers × all three backends × a skewed
    // explicit workload (cheap shots + a dense mixed-p tail): the stealing
    // order must never leak into the results
    let shots_per_graph = 60;
    for (name, graph) in graphs() {
        let shots: Arc<[_]> = skewed_workload(&graph, shots_per_graph, 12).into();
        for spec in specs(&graph) {
            let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                .with_pool(Arc::new(DecodePool::new(1)))
                .with_shards(1)
                .run_shots_arc(Arc::clone(&shots));
            assert_eq!(reference.len(), shots.len());
            for workers in [2usize, 8] {
                let pool = Arc::new(DecodePool::new(workers));
                let outcomes = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                    .with_pool(pool)
                    .with_shards(workers)
                    .run_shots_arc(Arc::clone(&shots));
                let got: Vec<_> = outcomes.iter().map(logical_view).collect();
                let want: Vec<_> = reference.iter().map(logical_view).collect();
                assert_eq!(got, want, "{name} / {}: workers={workers}", spec.name());
                if spec.deterministic_latency() {
                    assert_eq!(
                        outcomes,
                        reference,
                        "{name} / {}: workers={workers}",
                        spec.name()
                    );
                }
            }
        }
    }
}

#[test]
fn back_to_back_evaluations_reuse_pooled_backends() {
    // repeated evaluate calls on one pool: identical results, and the second
    // round must not rebuild any backend (the pooling key is (spec, graph))
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 4, 0.02).decoding_graph());
    let pool = Arc::new(DecodePool::new(2));
    for spec in specs(&graph) {
        let pipeline = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
            .with_pool(Arc::clone(&pool))
            .with_shards(2);
        let first = pipeline.evaluate(80, 21);
        let built = pool.backends_built();
        let second = pipeline.evaluate(80, 21);
        assert_eq!(
            pool.backends_built(),
            built,
            "{}: second evaluation must hit the backend cache",
            spec.name()
        );
        assert_eq!(first.logical_errors, second.logical_errors);
        assert_eq!(first.mean_defects, second.mean_defects);
        assert_eq!(first.shots, second.shots);
        if spec.deterministic_latency() {
            assert_eq!(first, second, "{}", spec.name());
        }
    }
}

#[test]
fn explicit_shot_lists_are_shard_invariant_too() {
    let graph = Arc::new(PhenomenologicalCode::rotated(3, 3, 0.03).decoding_graph());
    let sampler = ErrorSampler::new(&graph);
    let shots: Vec<_> = (0..90)
        .map(|i| {
            let mut rng = shot_rng(1234, i);
            sampler.sample(&mut rng)
        })
        .collect();
    for spec in specs(&graph) {
        let reference = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
            .with_shards(1)
            .run_shots(&shots);
        for &shards in &SHARD_COUNTS[1..] {
            let outcomes = ShardedPipeline::new(spec.clone(), Arc::clone(&graph))
                .with_shards(shards)
                .run_shots(&shots);
            let got: Vec<_> = outcomes.iter().map(logical_view).collect();
            let want: Vec<_> = reference.iter().map(logical_view).collect();
            assert_eq!(got, want, "{}: shards={shards}", spec.name());
        }
    }
}
