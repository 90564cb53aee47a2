//! `window-d13-p001`: long memory experiments (2000 rounds per shot) pushed
//! round by round through `WindowedDecoder` as fast as the feeder accepts
//! them, window jobs on a 1-worker pool.

use crate::check::{check_committed, FaultTally, InputVerdicts};
use crate::common::{
    describe_inputs_failed, generate, set_up_repeatedly, spec, Opts, SetUpTimes, D, PAPER_CONTEXT,
};
use crate::report::Report;
use crate::stats::{mean, secs_since, Sliced};
use crate::trace::Tracer;
use mb_decoder::pipeline::DecodePool;
use mb_decoder::{LatencyBreakdown, WindowConfig, WindowedDecoder};
use mb_graph::circuit::CircuitLevelCode;
use mb_graph::syndrome::Shot;
use mb_graph::{DecodingGraph, ObservableMask, VertexIndex};
use std::sync::Arc;
use std::time::Instant;

/// Detector layers per shot.
const ROUNDS: usize = 2000;
/// Pool workers. The thread pushing rounds is busy too, so one worker
/// keeps the busy threads at two: on a 2-vCPU host a second worker only
/// made the three threads take turns (same rate, noisier, and a second
/// set of backend builds).
const WORKERS: usize = 1;
/// Distinct inputs, cycled through during the timed region.
const INPUTS: usize = 24;
/// Rounds each window commits, and context rounds on each side.
const COMMIT_ROUNDS: usize = 13;
const OVERLAP_ROUNDS: usize = 6;
/// Warm-up passes over the inputs: at least the first, which builds the
/// backends, and one more that builds none, unless the cap is reached.
const MAX_WARM_PASSES: usize = 6;
/// Set-ups per run. Each costs ~10 s (graph compile and backend builds) on
/// this workload, so it takes the median of fewer set-ups than the others
/// do.
const SETUP_REPS: usize = 2;
/// Committed corrections are drained every this many rounds.
const DRAIN_EVERY: usize = 64;
/// Push-time percentiles and the rate are taken per slice of this many
/// seconds (~20k pushes) and reported at the fast quartile (see [`Sliced`]).
const SLICE_S: f64 = 0.1;

struct System {
    pool: Arc<DecodePool>,
    decoder: WindowedDecoder,
    /// Warm-up wall seconds per backend built, times the workers building
    /// concurrently.
    build_s: f64,
    /// What the warm-up did.
    warmup: String,
}

/// One input, split into rounds, with its sorted defects.
struct Input {
    rounds: Vec<Vec<VertexIndex>>,
    defects: Vec<VertexIndex>,
    expected: ObservableMask,
}

fn prepare(graph: &DecodingGraph, shots: &[Shot]) -> Vec<Input> {
    shots
        .iter()
        .map(|shot| {
            let mut rounds = Vec::new();
            shot.syndrome.split_by_layer_into(graph, &mut rounds);
            Input {
                rounds,
                defects: shot.syndrome.defects.clone(),
                expected: shot.observable,
            }
        })
        .collect()
}

/// What decoding some shots observed.
struct Shots {
    shots: u64,
    rounds: u64,
    /// Push-round host time in ns (each push weighs 1/`ROUNDS` shot for
    /// the rate), by slice.
    push_ns: Sliced,
    finish_ns: Vec<f64>,
    typed_errors: u64,
    /// Outcome observable differs from the XOR of its committed pairs.
    mismatched: u64,
    wrong: FaultTally,
    inputs: InputVerdicts,
    windows: u64,
    seams: u64,
    max_resident: usize,
    work_ns: f64,
    breakdown: LatencyBreakdown,
}

impl Shots {
    fn failed(&self) -> u64 {
        self.typed_errors + self.mismatched + self.wrong.total()
    }
}

/// Decodes inputs round-robin: at least `min_shots` of them and for at
/// least `seconds`. Push and finish times are recorded when `timing`.
fn decode(
    system: &System,
    inputs: &[Input],
    min_shots: usize,
    seconds: f64,
    timing: bool,
    mut tracer: Option<&mut Tracer>,
) -> (Shots, f64) {
    let graph = system.decoder.graph();
    let mut out = Shots {
        shots: 0,
        rounds: 0,
        push_ns: Sliced::new(SLICE_S),
        finish_ns: Vec::new(),
        typed_errors: 0,
        mismatched: 0,
        wrong: FaultTally::default(),
        inputs: InputVerdicts::new(inputs.len()),
        windows: 0,
        seams: 0,
        max_resident: 0,
        work_ns: 0.0,
        breakdown: LatencyBreakdown::default(),
    };
    let start = Instant::now();
    let mut shot = 0usize;
    'shots: while shot < min_shots || secs_since(start) < seconds {
        let index = shot % inputs.len();
        let input = &inputs[index];
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("window.shot", None, shot as u64));
        let mut feeder = system.decoder.begin_shot(input.expected);
        let mut pairs = Vec::new();
        let mut observable = 0;
        for (r, round) in input.rounds.iter().enumerate() {
            let t0 = Instant::now();
            let pushed = feeder.try_push_round(round);
            if timing {
                let t1 = Instant::now();
                out.push_ns.push(
                    (t1 - start).as_secs_f64(),
                    (t1 - t0).as_nanos() as f64,
                    1.0 / ROUNDS as f64,
                );
                if let Some(t) = tracer.as_deref_mut() {
                    let (a, b) = (t.ns_at(t0), t.ns_at(t1));
                    t.record("window.push_round", root, shot as u64, a, b);
                }
            }
            if pushed.is_err() {
                out.typed_errors += 1;
                out.inputs.record(index, false);
                shot += 1;
                continue 'shots;
            }
            if r % DRAIN_EVERY == DRAIN_EVERY - 1 {
                for c in feeder.take_committed() {
                    pairs.push(c.pair);
                    observable ^= c.observable;
                }
            }
        }
        let t0 = Instant::now();
        feeder.flush();
        let tail = feeder.take_committed();
        let outcome = feeder.finish();
        let t1 = Instant::now();
        if timing {
            out.finish_ns.push((t1 - t0).as_nanos() as f64);
        }
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            let (a, b) = (t.ns_at(t0), t.ns_at(t1));
            t.record("window.finish", Some(root), shot as u64, a, b);
            t.set_end(root, b);
        }
        for c in tail {
            pairs.push(c.pair);
            observable ^= c.observable;
        }
        let verdict = if observable != outcome.observable {
            out.mismatched += 1;
            false
        } else if let Err(fault) = check_committed(graph, &input.defects, &pairs) {
            out.wrong.add(fault, 1);
            false
        } else {
            true
        };
        out.inputs.record(index, verdict);
        out.shots += 1;
        out.rounds += input.rounds.len() as u64;
        out.windows += outcome.windows_decoded;
        out.seams += outcome.seam_redecodes;
        out.max_resident = out.max_resident.max(outcome.max_resident_rounds);
        out.work_ns += outcome.work_ns;
        out.breakdown.hardware_cycles += outcome.breakdown.hardware_cycles;
        out.breakdown.bus_reads += outcome.breakdown.bus_reads;
        out.breakdown.bus_writes += outcome.breakdown.bus_writes;
        out.breakdown.cpu_obstacles += outcome.breakdown.cpu_obstacles;
        shot += 1;
    }
    (out, secs_since(start))
}

/// Compiles the graph, plans the windows, starts the pool and warms it
/// until every worker holds a backend for every window and seam graph the
/// inputs use. Input generation (on the first set-up, which has no inputs
/// yet) is excluded from the set-up time.
fn set_up(
    p: f64,
    seed: u64,
    inputs: &mut Option<(Vec<Input>, f64)>,
    tracer: &mut Option<Tracer>,
) -> Result<(System, SetUpTimes), String> {
    let root = tracer.as_mut().map(|t| t.open("setup", None, 0));
    let t0 = Instant::now();
    let circuit = CircuitLevelCode::rotated(D, ROUNDS, p).compile();
    let t1 = Instant::now();
    if inputs.is_none() {
        let (shots, gen_s) = generate(&circuit, seed, INPUTS);
        *inputs = Some((prepare(circuit.graph(), &shots), gen_s));
    }
    let t2 = Instant::now();
    let pool = Arc::new(DecodePool::new(WORKERS));
    let decoder = WindowedDecoder::new(
        spec(),
        Arc::clone(circuit.graph()),
        WindowConfig::new(COMMIT_ROUNDS, OVERLAP_ROUNDS),
    )
    .with_pool(Arc::clone(&pool));
    let t3 = Instant::now();
    let mut system = System {
        pool,
        decoder,
        build_s: 0.0,
        warmup: String::new(),
    };
    let (inputs, _) = inputs.as_ref().expect("generated above");
    let mut passes = 0;
    loop {
        let before = system.pool.backends_built();
        decode(&system, inputs, inputs.len(), 0.0, false, None);
        passes += 1;
        if system.pool.backends_built() == before || passes == MAX_WARM_PASSES {
            break;
        }
    }
    let t4 = Instant::now();
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        let ns = [t0, t1, t2, t3, t4].map(|i| t.ns_at(i));
        t.record("setup.graph", Some(root), 0, ns[0], ns[1]);
        t.record("input.generate", Some(root), 0, ns[1], ns[2]);
        t.record("setup.plan_and_pool", Some(root), 0, ns[2], ns[3]);
        t.record("setup.warmup", Some(root), 0, ns[3], ns[4]);
        t.set_end(root, ns[4]);
    }
    let built = system.pool.backends_built();
    system.warmup = format!(
        "last set-up: {passes} warm-up passes built {built} backends for {} distinct window/seam graphs x {WORKERS} workers",
        system.decoder.plan().distinct_graphs()
    );
    system.build_s = (t4 - t3).as_secs_f64() * WORKERS as f64 / built.max(1) as f64;
    let times = SetUpTimes {
        total_s: (t1 - t0 + (t4 - t2)).as_secs_f64(),
        graph_s: (t1 - t0).as_secs_f64(),
    };
    Ok((system, times))
}

pub fn run(p: f64, opts: Opts) -> Result<Report, String> {
    let mut report = Report::new();
    let mut tracer = opts.trace.then(Tracer::new);

    let mut inputs = None;
    let system = set_up_repeatedly(
        if opts.single_setup { 1 } else { SETUP_REPS },
        "graph compile, window plan, pool start, warm-up",
        &mut report,
        || set_up(p, opts.seed, &mut inputs, &mut tracer),
    )?;
    report.line(system.warmup.clone());
    let (inputs, gen_s) = inputs.expect("generated by the first set-up");
    let defects: usize = inputs.iter().map(|i| i.defects.len()).sum();
    report.line(format!(
        "inputs: {INPUTS} distinct {ROUNDS}-round shots generated in {gen_s:.3} s ({:.1} us/shot, outside set-up and timed regions); {:.2} defects/shot",
        gen_s * 1e6 / INPUTS as f64,
        defects as f64 / INPUTS as f64
    ));

    let pool = &system.pool;
    let builds_before = pool.backends_built();
    let jobs_before = pool.windows_decoded();
    let accel_before = (
        pool.accel_shots(),
        pool.accel_zero_defect_shots() + pool.accel_predecoded_shots(),
        pool.accel_pus_touched(),
    );
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (run, elapsed_s) = decode(&system, &inputs, inputs.len(), seconds, true, None);
    let builds = pool.backends_built() - builds_before;
    let jobs = pool.windows_decoded() - jobs_before;
    let accel_shots = pool.accel_shots() - accel_before.0;
    let fast = pool.accel_zero_defect_shots() + pool.accel_predecoded_shots() - accel_before.1;
    let pus = pool.accel_pus_touched() - accel_before.2;
    let traced = tracer
        .as_mut()
        .map(|t| decode(&system, &inputs, inputs.len(), seconds, true, Some(t)));

    let failed = run.failed();
    report.attempted = run.inputs.attempted();
    report.failed = run.inputs.failed();
    report.correct = run.mismatched == 0;
    let sliced = run.push_ns.finish();
    let (shots_per_s, push) = (sliced.rate, sliced.pct);
    let how = format!("fast quartile of {} {SLICE_S} s slices", sliced.slices);
    let rounds_per_s = shots_per_s * ROUNDS as f64;
    report.line(format!(
        "shots_per_s        = {shots_per_s:.3} 1/s ({how}; whole run {:.3}: {} shots of {ROUNDS} rounds in {elapsed_s:.3} s; {WORKERS}-worker pool, rounds pushed as fast as accepted)",
        run.shots as f64 / elapsed_s,
        run.shots
    ));
    report.line(format!(
        "rounds_per_s       = {rounds_per_s:.1} 1/s (shots_per_s x {ROUNDS})"
    ));
    report.line(format!(
        "latency_us_p50     = {:.3} us (push_us_p50: host time of one push_round call, backpressure included; {how}; n={})",
        push.p50 / 1e3, push.n
    ));
    report.line(format!(
        "latency_us_p99     = {:.3} us (push_us_p99: per-slice p99, {how}; n={})",
        push.p99 / 1e3,
        push.n
    ));
    let modeled = run.work_ns / jobs.max(1) as f64;
    report.line(format!(
        "modeled_ns_mean    = {modeled:.1} ns (Micro Blossom latency model, per window or seam job; n={jobs} jobs; {PAPER_CONTEXT})"
    ));
    report.line(format!(
        "failed_frac        = {:.6} ({} failed / {} attempted: typed errors {}, observable != XOR of committed pairs {}, wrong outputs {} [{}])",
        failed as f64 / run.shots.max(1) as f64,
        failed,
        run.shots,
        run.typed_errors,
        run.mismatched,
        run.wrong.total(),
        run.wrong.describe()
    ));
    report.line(describe_inputs_failed(&run.inputs));
    report.line(format!(
        "backends built inside the timed region: {builds} (counted, not excluded)"
    ));
    report.set("shots_per_s", shots_per_s);
    report.set("latency_us_p50", push.p50 / 1e3);
    report.set("modeled_ns_mean", modeled);

    // per-layer: pool counters and window outcomes over the timed region
    let per_job = accel_shots.max(1) as f64;
    report.line(format!(
        "predecoder.fast_path_rate = {fast} / {accel_shots} accelerator jobs"
    ));
    report.set("predecoder.fast_path_rate", fast as f64 / per_job);
    report.set("accel.pus_touched_per_shot", pus as f64 / per_job);
    report.set("accel.active_peak", pool.accel_active_peak() as f64);
    report.set(
        "accel.hw_cycles_per_shot",
        run.breakdown.hardware_cycles as f64 / per_job,
    );
    report.set(
        "accel.bus_reads_per_shot",
        run.breakdown.bus_reads as f64 / per_job,
    );
    report.set(
        "accel.bus_writes_per_shot",
        run.breakdown.bus_writes as f64 / per_job,
    );
    report.set(
        "primal.cpu_obstacles_per_shot",
        run.breakdown.cpu_obstacles as f64 / per_job,
    );
    report.set("setup.backend_build_s", system.build_s);
    report.set("pipeline.backends_built", builds as f64);
    report.set("gen.input_us_per_shot", gen_s * 1e6 / INPUTS as f64);
    let seam_ratio = run.seams as f64 / run.windows.max(1) as f64;
    report.line(format!(
        "window: {} seam re-decodes / {} windows, max resident rounds {}, finish {:.1} us mean, {} backends built in total",
        run.seams,
        run.windows,
        run.max_resident,
        mean(&run.finish_ns) / 1e3,
        pool.backends_built()
    ));
    report.set("window.seam_redecode_ratio", seam_ratio);
    report.set("window.max_resident_rounds", run.max_resident as f64);
    report.set("window.finish_us", mean(&run.finish_ns) / 1e3);
    report.set("window.backends_built", pool.backends_built() as f64);
    let overhead = match &traced {
        Some((t, t_elapsed)) => {
            let plain = elapsed_s / run.rounds as f64;
            let with = t_elapsed / t.rounds as f64;
            report.line(format!(
                "trace overhead: {:.3} us/round traced vs {:.3} us/round untraced (difference {:.3} us/round)",
                with * 1e6,
                plain * 1e6,
                (with - plain) * 1e6
            ));
            100.0 * (with - plain) / plain
        }
        None => 0.0,
    };
    report.set("trace.overhead_pct", overhead);
    crate::finish_trace(&mut report, tracer.as_ref(), opts, "window")?;
    Ok(report)
}
