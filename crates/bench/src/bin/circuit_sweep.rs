//! Circuit-level workload sweep: logical error rate and sparse-activation
//! behaviour of the Micro Blossom decoder under circuit-level noise,
//! side by side with the phenomenological baseline of `sparse_sweep`.
//!
//! Two sections, each emitted as machine-readable JSON lines (prefix
//! `{"bench":"circuit_sweep",...}`) plus a human-readable table:
//!
//! * **logical_error** — at fixed d, sweep the physical rate p and compare
//!   the circuit-level logical error rate (per-operation infidelity p/10,
//!   mechanism-level sampling) against phenomenological noise at the same
//!   p. Circuit-level stays strictly below: the per-channel fold of the
//!   gate-level fault budget is smaller than the flat phenomenological p.
//! * **activation** — at fixed p, sweep d and record the accelerator
//!   activity counters (`pus_touched`/shot, `active_peak`) for both noise
//!   models. Circuit-level shots put *correlated, round-distributed*
//!   defects on the sparse active set — the realistic load the
//!   `sparse_sweep` fixed-weight probe approximates with uniform noise.
//!
//! Usage: `cargo run -r -p bench --bin circuit_sweep [shots] [p] [d_csv]`
//!
//! Defaults: 400 shots, p = 0.02, d = 3,5,7.

use bench::{render_table, BenchReport};
use mb_decoder::{BackendSpec, DecoderBackend, MicroBlossomDecoder, ShardedPipeline};
use mb_graph::circuit::CircuitLevelCode;
use mb_graph::codes::PhenomenologicalCode;
use mb_graph::syndrome::Shot;
use mb_graph::DecodingGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// Accelerator-activity measurement of one (noise model, d, p) point.
struct Activity {
    mean_defects: f64,
    ns_per_shot: f64,
    pus_touched_per_shot: f64,
    active_peak: u64,
}

/// Decodes pre-materialized shots on a fresh Micro Blossom instance and
/// reads the sparse-activation counters (same method as `sparse_sweep`).
fn measure_activity(graph: &Arc<DecodingGraph>, d: usize, shots: &[Shot]) -> Activity {
    let mut decoder = MicroBlossomDecoder::full(Arc::clone(graph), Some(d));
    for shot in shots.iter().take(3) {
        decoder.decode(&shot.syndrome); // warm the scratch buffers
    }
    let before = decoder
        .accel_observability()
        .expect("micro blossom reports accelerator counters");
    let mut defects = 0usize;
    let start = Instant::now();
    for shot in shots {
        defects += shot.syndrome.len();
        decoder.decode(&shot.syndrome);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let after = decoder.accel_observability().expect("counters stay on");
    Activity {
        mean_defects: defects as f64 / shots.len() as f64,
        ns_per_shot: elapsed * 1e9 / shots.len() as f64,
        pus_touched_per_shot: (after.pus_touched - before.pus_touched) as f64 / shots.len() as f64,
        active_peak: after.active_peak,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let shots: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(400);
    let p: f64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(0.02);
    let distances: Vec<usize> = args
        .get(3)
        .map(|csv| csv.split(',').filter_map(|d| d.parse().ok()).collect())
        .filter(|ds: &Vec<usize>| !ds.is_empty())
        .unwrap_or_else(|| vec![3, 5, 7]);

    println!("circuit-level sweep: base p = {p}, {shots} shots per point, d = {distances:?}\n");
    let mut report = BenchReport::new("circuit_sweep");

    // logical error: circuit-level vs phenomenological across p, at the
    // largest requested distance
    let d = *distances.last().expect("distance list is non-empty");
    let mut rows = Vec::new();
    for factor in [0.5, 1.0, 1.5] {
        let point_p = p * factor;
        let circuit = Arc::new(CircuitLevelCode::rotated(d, d, point_p).compile());
        let pheno = Arc::new(PhenomenologicalCode::rotated(d, d, point_p).decoding_graph());
        let spec = BackendSpec::micro_full(Some(d));
        let circuit_eval = ShardedPipeline::new(spec.clone(), Arc::clone(circuit.graph()))
            .evaluate_circuit(&circuit, shots, 0xC1AC);
        let pheno_eval = ShardedPipeline::new(spec, pheno).evaluate(shots, 0xC1AC);
        report.line(format!(
            "{{\"bench\":\"circuit_sweep\",\"section\":\"logical_error\",\"d\":{d},\
             \"p\":{point_p:.3e},\"shots\":{shots},\
             \"circuit_p_l\":{:.5},\"pheno_p_l\":{:.5},\
             \"circuit_defects\":{:.3},\"pheno_defects\":{:.3},\
             \"diagonal_edges\":{}}}",
            circuit_eval.logical_error_rate(),
            pheno_eval.logical_error_rate(),
            circuit_eval.mean_defects,
            pheno_eval.mean_defects,
            circuit.diagonal_edge_count(),
        ));
        rows.push(vec![
            format!("{point_p:.1e}"),
            format!("{:.4}", circuit_eval.logical_error_rate()),
            format!("{:.4}", pheno_eval.logical_error_rate()),
            format!("{:.2}", circuit_eval.mean_defects),
            format!("{:.2}", pheno_eval.mean_defects),
        ]);
    }
    println!(
        "\nlogical error, d = {d} (circuit-level stays strictly below phenomenological):\n{}",
        render_table(
            &[
                "p",
                "p_L circuit",
                "p_L pheno",
                "defects circ",
                "defects pheno"
            ],
            &rows
        )
    );

    // activation: accelerator activity under both workloads across d
    let mut rows = Vec::new();
    for &d in &distances {
        let circuit = Arc::new(CircuitLevelCode::rotated(d, d, p).compile());
        let sampler = circuit.sampler();
        let mut rng = ChaCha8Rng::seed_from_u64(0xAC71 + d as u64);
        let circuit_shots: Vec<Shot> = (0..shots).map(|_| sampler.sample(&mut rng)).collect();
        let circuit_activity = measure_activity(circuit.graph(), d, &circuit_shots);

        let pheno = Arc::new(PhenomenologicalCode::rotated(d, d, p).decoding_graph());
        let pheno_sampler = mb_graph::syndrome::ErrorSampler::new(&pheno);
        let mut rng = ChaCha8Rng::seed_from_u64(0xAC71 + d as u64);
        let pheno_shots: Vec<Shot> = (0..shots).map(|_| pheno_sampler.sample(&mut rng)).collect();
        let pheno_activity = measure_activity(&pheno, d, &pheno_shots);

        for (noise, activity) in [
            ("circuit", &circuit_activity),
            ("phenomenological", &pheno_activity),
        ] {
            report.line(format!(
                "{{\"bench\":\"circuit_sweep\",\"section\":\"activation\",\"noise\":\"{noise}\",\
                 \"d\":{d},\"p\":{p:.3e},\"shots\":{shots},\
                 \"mean_defects\":{:.3},\"ns_per_shot\":{:.1},\
                 \"pus_touched_per_shot\":{:.1},\"active_peak\":{}}}",
                activity.mean_defects,
                activity.ns_per_shot,
                activity.pus_touched_per_shot,
                activity.active_peak,
            ));
        }
        rows.push(vec![
            d.to_string(),
            format!("{:.2}", circuit_activity.mean_defects),
            format!("{:.2}", pheno_activity.mean_defects),
            format!("{:.1}", circuit_activity.pus_touched_per_shot),
            format!("{:.1}", pheno_activity.pus_touched_per_shot),
            circuit_activity.active_peak.to_string(),
            pheno_activity.active_peak.to_string(),
            format!("{:.0}", circuit_activity.ns_per_shot),
        ]);
    }
    println!(
        "\nsparse activation at p = {p} (circuit vs phenomenological workload):\n{}",
        render_table(
            &[
                "d",
                "defects/shot (c)",
                "defects/shot (ph)",
                "PUs/shot (c)",
                "PUs/shot (ph)",
                "peak (c)",
                "peak (ph)",
                "ns/shot (c)",
            ],
            &rows
        )
    );
    println!(
        "\nper-shot accelerator work tracks the defect count for both workloads; the \
         circuit-level shots spread their defects over every round (diagonal detector \
         pairs included), which is the load profile round-wise streaming ingestion sees."
    );

    let path = report.finish().expect("bench report is writable");
    println!("report written to {}", path.display());
}
