//! `batch-d13-*`: pre-generated d=13 circuit-level shots through
//! `ShardedPipeline::try_run_shots_arc` on a 2-worker pool, closed loop.

use crate::common::{
    describe_inputs, describe_inputs_failed, generate, set_up_repeatedly, spec, Opts, Outcomes,
    Reference, SetUpTimes, D, SETUP_REPS,
};
use crate::report::Report;
use crate::stats::{secs_since, CpuTicks, Sliced};
use crate::trace::Tracer;
use mb_decoder::pipeline::{shot_seed, DecodePool, ShardedPipeline};
use mb_graph::circuit::{CircuitLevelCode, CompiledCircuit};
use mb_graph::syndrome::{ErrorPattern, Shot, SyndromePattern};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// Noisy detector layers per shot.
const ROUNDS: usize = 13;
/// Pool workers.
const WORKERS: usize = 2;
/// Call latency percentiles and the rate are taken per slice of this many
/// seconds (~25 calls) and reported at the fast quartile of the slices
/// (see [`Sliced`]), so a slow phase of the shared host moves them less.
const SLICE_S: f64 = 1.0;
/// How one batch workload is sized.
struct Sizing {
    /// Distinct inputs, cycled through during the timed region. Escalated
    /// shots are few (~1.7% at p=0.001) or heavy-tailed (p=0.005) and carry
    /// much of the host and modelled time, so enough inputs keep their
    /// share steady across seeds.
    inputs: usize,
    /// Shots per `try_run_shots_arc` call, which the closed-loop client
    /// waits for before sending the next: a call lasts ~40 ms at either
    /// rate. A call ends only when both workers have finished, so each
    /// time the hypervisor stalls one worker's CPU near a call's end the
    /// call waits out the stall; longer calls make that a smaller share
    /// (with ~10 ms calls the rate fell about twice as fast as the CPU
    /// time stolen rose), and leave ~500 calls (a p99 with five beyond)
    /// in a 20 s run.
    call_shots: usize,
    /// Seeded shuffles of the inputs cut into calls, so the per-call
    /// latency ranges over `shuffles x inputs / call_shots` call contents.
    shuffles: usize,
}

fn sizing(p: f64) -> Sizing {
    if p <= 0.001 {
        Sizing {
            inputs: 16384,
            call_shots: 8192,
            shuffles: 4,
        }
    } else {
        Sizing {
            inputs: 8192,
            call_shots: 512,
            shuffles: 8,
        }
    }
}

/// One prepared call: its shots and their input indices.
struct Call {
    shots: Arc<[Shot]>,
    inputs: Vec<usize>,
}

/// Cuts seeded permutations of `shots` into calls.
fn calls(shots: &[Shot], sizing: &Sizing, seed: u64) -> Vec<Call> {
    let mut rng = ChaCha8Rng::seed_from_u64(shot_seed(seed, 1 << 40));
    let mut order: Vec<usize> = (0..shots.len()).collect();
    let mut calls = Vec::new();
    for _ in 0..sizing.shuffles {
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for chunk in order.chunks(sizing.call_shots) {
            calls.push(Call {
                shots: chunk.iter().map(|&i| shots[i].clone()).collect(),
                inputs: chunk.to_vec(),
            });
        }
    }
    calls
}

struct System {
    circuit: CompiledCircuit,
    pool: Arc<DecodePool>,
    pipeline: ShardedPipeline,
}

/// Compiles the graph, starts the pool and has every worker build its
/// backend.
fn set_up(p: f64, tracer: &mut Option<Tracer>) -> Result<(System, SetUpTimes), String> {
    let root = tracer.as_mut().map(|t| t.open("setup", None, 0));
    let t0 = Instant::now();
    let circuit = CircuitLevelCode::rotated(D, ROUNDS, p).compile();
    let t1 = Instant::now();
    let pool = Arc::new(DecodePool::new(WORKERS));
    let pipeline = ShardedPipeline::new(spec(), Arc::clone(circuit.graph()))
        .with_pool(Arc::clone(&pool))
        .with_shards(WORKERS);
    let t2 = Instant::now();
    // every participant of a job builds its backend on joining it
    let empty: Arc<[Shot]> = (0..4 * WORKERS)
        .map(|_| Shot {
            error: ErrorPattern::new(Vec::new()),
            syndrome: SyndromePattern::new(Vec::new()),
            observable: 0,
        })
        .collect();
    pipeline.run_shots_arc(empty);
    let t3 = Instant::now();
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        let (a, b, c, e) = (t.ns_at(t0), t.ns_at(t1), t.ns_at(t2), t.ns_at(t3));
        t.record("setup.graph", Some(root), 0, a, b);
        t.record("setup.pool_start", Some(root), 0, b, c);
        t.record("setup.warmup", Some(root), 0, c, e);
        t.set_end(root, e);
    }
    if pool.backends_built() != WORKERS as u64 {
        return Err(format!(
            "warm-up built {} backends, expected one per worker ({WORKERS})",
            pool.backends_built()
        ));
    }
    let times = SetUpTimes {
        total_s: (t3 - t0).as_secs_f64(),
        graph_s: (t1 - t0).as_secs_f64(),
    };
    Ok((
        System {
            circuit,
            pool,
            pipeline,
        },
        times,
    ))
}

/// What one timed region observed.
struct Timed {
    shots: u64,
    elapsed_s: f64,
    /// Per-call latency in µs (weighted by the call's shots for the rate),
    /// by slice of the timed region.
    call_us: Sliced,
    outcomes: Outcomes,
    builds: u64,
    complete: bool,
}

/// Runs calls round-robin over `calls`, at least `min_calls` of them and
/// for at least `seconds`; every outcome is judged against the reference.
fn timed(
    system: &System,
    calls: &[Call],
    reference: &Reference,
    min_calls: usize,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Timed {
    let builds_before = system.pool.backends_built();
    let mut outcomes = Outcomes::new(reference.observable.len());
    let mut call_us = Sliced::new(SLICE_S);
    let mut shots = 0u64;
    let mut complete = true;
    let start = Instant::now();
    let mut call = 0usize;
    loop {
        let c = &calls[call % calls.len()];
        let t0 = Instant::now();
        let results = system.pipeline.try_run_shots_arc(Arc::clone(&c.shots));
        let t1 = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            let (a, b) = (t.ns_at(t0), t.ns_at(t1));
            t.record("pipeline.run_shots_arc", None, call as u64, a, b);
        }
        call_us.push(
            (t1 - start).as_secs_f64(),
            (t1 - t0).as_secs_f64() * 1e6,
            c.inputs.len() as f64,
        );
        complete &= results.len() == c.inputs.len();
        for (k, result) in results.into_iter().enumerate() {
            complete &= result.as_ref().map_or(true, |o| o.shot_index == k);
            outcomes.judge(reference, c.inputs[k], result);
        }
        shots += c.inputs.len() as u64;
        call += 1;
        if call >= min_calls && secs_since(start) >= seconds {
            break;
        }
    }
    Timed {
        shots,
        elapsed_s: secs_since(start),
        call_us,
        outcomes,
        builds: system.pool.backends_built() - builds_before,
        complete,
    }
}

pub fn run(p: f64, opts: Opts) -> Result<Report, String> {
    let mut report = Report::new();
    let mut tracer = opts.trace.then(Tracer::new);

    let system = set_up_repeatedly(
        SETUP_REPS,
        "graph compile, pool start, every worker's backend built",
        &mut report,
        || set_up(p, &mut tracer),
    )?;

    let sizing = sizing(p);
    let call_shots = sizing.call_shots;
    let (shots, gen_s) = generate(&system.circuit, opts.seed, sizing.inputs);
    report.line(describe_inputs(&shots, gen_s));
    let graph = Arc::clone(system.circuit.graph());
    let reference = Reference::build(&graph, &shots, tracer.as_mut());
    let calls = calls(&shots, &sizing, opts.seed);
    // the first shuffle's calls carry every input once
    let pass = calls.len() / sizing.shuffles;

    // one untimed pass over every input so every worker's caches are warm
    let warm = timed(&system, &calls, &reference, pass, 0.0, None);
    // a traced run spends half its time untraced, for the overhead
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let ticks = CpuTicks::now();
    let run = timed(&system, &calls, &reference, pass, seconds, None);
    if let (Some(before), Some(after)) = (ticks, CpuTicks::now()) {
        report.line(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the timed region (/proc/stat; context for the host-time figures)",
            100.0 * before.steal_share(after)
        ));
    }
    let traced = tracer
        .as_mut()
        .map(|t| timed(&system, &calls, &reference, pass, seconds, Some(t)));

    report.attempted = run.outcomes.inputs.attempted();
    report.failed = run.outcomes.inputs.failed();
    report.correct = warm.complete
        && run.complete
        && run.outcomes.mismatched == 0
        && warm.outcomes.mismatched == 0;
    let sliced = run.call_us.finish();
    let (shots_per_s, lat) = (sliced.rate, sliced.pct);
    let how = format!("fast quartile of {} {SLICE_S} s slices", sliced.slices);
    report.line(format!(
        "shots_per_s        = {shots_per_s:.1} 1/s ({how}; whole run {:.1}: {} shots in {:.3} s; {WORKERS} workers, closed loop, {call_shots}-shot calls)",
        run.shots as f64 / run.elapsed_s,
        run.shots,
        run.elapsed_s
    ));
    report.line(format!(
        "latency_us_p50     = {:.1} us (per {call_shots}-shot call, submit to all outcomes; {how}; n={} calls)",
        lat.p50, lat.n
    ));
    report.line(format!(
        "latency_us_p99     = {:.1} us (per-slice p99, {how}; n={} calls)",
        lat.p99, lat.n
    ));
    run.outcomes.report_modeled(&mut report);
    report.line(run.outcomes.describe(run.shots));
    report.line(describe_inputs_failed(&run.outcomes.inputs));
    report.line(format!(
        "backends built inside the timed region: {} (counted, not excluded)",
        run.builds
    ));
    report.set("shots_per_s", shots_per_s);
    report.set("latency_us_p50", lat.p50);

    reference.report(&mut report);
    let single = reference.single_thread_rate;
    let efficiency = shots_per_s / (WORKERS as f64 * single);
    report.line(format!(
        "pipeline.efficiency = {efficiency:.3} ({shots_per_s:.1} shots/s / ({WORKERS} workers x {single:.1} single-thread shots/s))"
    ));
    report.set("pipeline.efficiency", efficiency);
    report.set("pipeline.backends_built", run.builds as f64);
    report.set("gen.input_us_per_shot", gen_s * 1e6 / sizing.inputs as f64);
    let overhead = match &traced {
        Some(t) => {
            let plain = run.elapsed_s / run.shots as f64;
            let with = t.elapsed_s / t.shots as f64;
            report.line(format!(
                "trace overhead: {:.3} us/shot traced vs {:.3} us/shot untraced (difference {:.3} us/shot)",
                with * 1e6,
                plain * 1e6,
                (with - plain) * 1e6
            ));
            100.0 * (with - plain) / plain
        }
        None => 0.0,
    };
    report.set("trace.overhead_pct", overhead);
    crate::finish_trace(&mut report, tracer.as_ref(), opts, "batch")?;
    Ok(report)
}
