//! `stream-d13-p001`: the batch-d13-p001 shot distribution driven open
//! loop through `StreamDecoder::begin_shot` → `RoundFeeder::push_round` →
//! `finish` on one pool worker, the generator on its own thread.

use crate::common::{
    describe_inputs, describe_inputs_failed, generate, set_up_repeatedly, spec, Opts, Outcomes,
    Reference, SetUpTimes, D, SETUP_REPS,
};
use crate::openloop::{drive, poisson_schedule, Record, Target};
use crate::report::Report;
use crate::stats::{mean, Percentiles, SliceSummary, Sliced};
use crate::trace::{SpanId, Tracer};
use mb_decoder::pipeline::{shot_seed, DecodePool};
use mb_decoder::{StreamDecoder, Ticket};
use mb_graph::circuit::{CircuitLevelCode, CompiledCircuit};
use mb_graph::VertexIndex;
use std::sync::Arc;
use std::time::Instant;

/// Detector layers per shot (as in `batch-d13-p001`).
const ROUNDS: usize = 13;
/// Distinct inputs; arrival `k` carries input `k mod INPUTS`.
const INPUTS: usize = 8192;
/// Poisson arrival rate, shots per second: the worker is ~15% busy, so a
/// burst of load from other tenants of a shared 2-vCPU host that slows it
/// two- or threefold raises latency without tipping the queue into an
/// unbounded backlog.
const RATE_PER_S: f64 = 10_000.0;
/// Latency percentiles are taken per slice of this many seconds of due
/// time (~500 shots) and reported at the fast quartile (see [`Sliced`]): a
/// host stall of a few milliseconds delays every shot due during it, and
/// short slices leave more of them clear of such stalls.
const SLICE_S: f64 = 0.05;

struct System {
    circuit: CompiledCircuit,
    pool: Arc<DecodePool>,
    stream: StreamDecoder,
}

/// Compiles the graph, starts a 1-worker pool and the stream on it, and
/// decodes one round-fed shot so the worker holds its backend.
fn set_up(p: f64, tracer: &mut Option<Tracer>) -> Result<(System, SetUpTimes), String> {
    let root = tracer.as_mut().map(|t| t.open("setup", None, 0));
    let t0 = Instant::now();
    let circuit = CircuitLevelCode::rotated(D, ROUNDS, p).compile();
    let t1 = Instant::now();
    let pool = Arc::new(DecodePool::new(1));
    let stream = StreamDecoder::builder(spec(), Arc::clone(circuit.graph()))
        .pool(Arc::clone(&pool))
        .workers(1)
        .start();
    let t2 = Instant::now();
    let feeder = stream
        .begin_shot(0)
        .map_err(|e| format!("warm-up begin_shot: {e}"))?;
    feeder
        .finish()
        .recv()
        .map_err(|e| format!("warm-up shot: {e}"))?;
    let t3 = Instant::now();
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        let (a, b, c, e) = (t.ns_at(t0), t.ns_at(t1), t.ns_at(t2), t.ns_at(t3));
        t.record("setup.graph", Some(root), 0, a, b);
        t.record("setup.pool_start", Some(root), 0, b, c);
        t.record("setup.warmup", Some(root), 0, c, e);
        t.set_end(root, e);
    }
    if pool.backends_built() != 1 {
        return Err(format!(
            "warm-up built {} backends, expected 1",
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
            stream,
        },
        times,
    ))
}

/// The stream under the open-loop generator.
struct StreamTarget<'a> {
    stream: &'a StreamDecoder,
    rounds: &'a [Vec<Vec<VertexIndex>>],
    expected: &'a [u64],
    reference: &'a Reference,
    origin: Instant,
    outcomes: Outcomes,
    tracer: Option<&'a mut Tracer>,
    /// Producer-side ns in begin/push/finish, per shot (traced runs only).
    ingest_ns: Vec<f64>,
    queue_depth_peak: usize,
}

impl Target for StreamTarget<'_> {
    type Pending = (Ticket, Option<SpanId>);

    fn now_ns(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn send(&mut self, arrival: usize) -> Option<Self::Pending> {
        let input = arrival % self.rounds.len();
        let t0 = Instant::now();
        let Ok(mut feeder) = self.stream.begin_shot(self.expected[input]) else {
            self.outcomes.typed_error(input);
            return None;
        };
        let t1 = Instant::now();
        for round in &self.rounds[input] {
            if feeder.push_round(round).is_err() {
                self.outcomes.typed_error(input);
                return None;
            }
        }
        let t2 = Instant::now();
        let ticket = feeder.finish();
        let t3 = Instant::now();
        let root = match self.tracer.as_deref_mut() {
            Some(t) => {
                let (a, b, c, e) = (t.ns_at(t0), t.ns_at(t1), t.ns_at(t2), t.ns_at(t3));
                let root = t.record("stream.shot", None, arrival as u64, a, e);
                t.record("stream.begin_shot", Some(root), arrival as u64, a, b);
                t.record("stream.push_rounds", Some(root), arrival as u64, b, c);
                t.record("stream.finish", Some(root), arrival as u64, c, e);
                self.ingest_ns.push((t3 - t0).as_nanos() as f64);
                self.queue_depth_peak = self.queue_depth_peak.max(self.stream.queue_depth());
                Some(root)
            }
            None => None,
        };
        Some((ticket, root))
    }

    fn poll(&mut self, arrival: usize, pending: &mut Self::Pending) -> Option<bool> {
        let result = pending.0.try_recv()?;
        if let (Some(t), Some(root)) = (self.tracer.as_deref_mut(), pending.1) {
            let now = t.now_ns();
            t.set_end(root, now);
        }
        let input = arrival % self.rounds.len();
        Some(self.outcomes.judge(self.reference, input, result))
    }
}

struct Run {
    record: Record,
    schedule: Vec<u64>,
    outcomes: Outcomes,
    ingest_ns: Vec<f64>,
    queue_depth_peak: usize,
    builds: u64,
    sent: usize,
}

fn open_loop(
    system: &System,
    rounds: &[Vec<Vec<VertexIndex>>],
    expected: &[u64],
    reference: &Reference,
    schedule: Vec<u64>,
    tracer: Option<&mut Tracer>,
) -> Run {
    let builds_before = system.pool.backends_built();
    let mut target = StreamTarget {
        stream: &system.stream,
        rounds,
        expected,
        reference,
        origin: Instant::now(),
        outcomes: Outcomes::new(reference.observable.len()),
        tracer,
        ingest_ns: Vec::new(),
        queue_depth_peak: 0,
    };
    let record = drive(&mut target, &schedule);
    Run {
        record,
        sent: schedule.len(),
        schedule,
        outcomes: target.outcomes,
        ingest_ns: target.ingest_ns,
        queue_depth_peak: target.queue_depth_peak,
        builds: system.pool.backends_built() - builds_before,
    }
}

/// Latency percentiles in µs, taken per `SLICE_S` slice of due time (see
/// [`Sliced`]).
fn stream_latency(run: &Run) -> SliceSummary {
    let (record, schedule) = (&run.record, &run.schedule);
    let mut samples: Vec<(u64, f64)> = record
        .latencies
        .iter()
        .map(|&(arrival, ns)| (schedule[arrival], ns / 1e3))
        .collect();
    samples.sort_unstable_by_key(|&(due, _)| due);
    let mut sliced = Sliced::new(SLICE_S);
    for (due, us) in samples {
        sliced.push(due as f64 / 1e9, us, 1.0);
    }
    sliced.finish()
}

pub fn run(p: f64, opts: Opts) -> Result<Report, String> {
    let mut report = Report::new();
    let mut tracer = opts.trace.then(Tracer::new);

    let system = set_up_repeatedly(
        if opts.single_setup { 1 } else { SETUP_REPS },
        "graph compile, pool and stream start, the worker's backend built",
        &mut report,
        || set_up(p, &mut tracer),
    )?;

    let (shots, gen_s) = generate(&system.circuit, opts.seed, INPUTS);
    report.line(describe_inputs(&shots, gen_s));
    let graph = Arc::clone(system.circuit.graph());
    let reference = Reference::build(&graph, &shots, tracer.as_mut());
    let rounds: Vec<Vec<Vec<VertexIndex>>> = shots
        .iter()
        .map(|shot| {
            let mut layers = Vec::new();
            shot.syndrome.split_by_layer_into(&graph, &mut layers);
            layers
        })
        .collect();
    let expected: Vec<u64> = shots.iter().map(|s| s.observable).collect();

    // untimed warm pass over every input, at the same rate
    let warm_schedule = poisson_schedule(
        shot_seed(opts.seed, 1 << 40),
        RATE_PER_S,
        INPUTS as f64 / RATE_PER_S,
    );
    let warm = open_loop(&system, &rounds, &expected, &reference, warm_schedule, None);
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let schedule = poisson_schedule(shot_seed(opts.seed, 1 << 41), RATE_PER_S, seconds);
    let run = open_loop(&system, &rounds, &expected, &reference, schedule, None);
    let traced = tracer.as_mut().map(|t| {
        let schedule = poisson_schedule(shot_seed(opts.seed, 1 << 42), RATE_PER_S, seconds);
        open_loop(&system, &rounds, &expected, &reference, schedule, Some(t))
    });
    let stats = system.stream.stats();

    let observed = run.record.latencies.len();
    report.attempted = run.outcomes.inputs.attempted();
    report.failed = run.outcomes.inputs.failed();
    report.correct = run.outcomes.mismatched == 0
        && warm.outcomes.mismatched == 0
        && observed + run.outcomes.typed_errors as usize >= run.sent;
    let elapsed_s = run.record.end_ns as f64 / 1e9;
    let shots_per_s = observed as f64 / elapsed_s;
    let sliced = stream_latency(&run);
    let (lat, how) = (
        sliced.pct,
        format!("fast quartile of {} {SLICE_S} s slices", sliced.slices),
    );
    report.line(format!(
        "shots_per_s        = {shots_per_s:.1} 1/s ({observed} outcomes in {elapsed_s:.3} s; open loop, Poisson arrivals at {RATE_PER_S} shots/s, 1 worker)"
    ));
    report.line(format!(
        "latency_us_p50     = {:.2} us (final round due -> outcome observed; {how}, by due time; n={})",
        lat.p50, lat.n
    ));
    let mut pooled: Vec<f64> = run
        .record
        .latencies
        .iter()
        .map(|&(_, ns)| ns / 1e3)
        .collect();
    let whole = Percentiles::of(&mut pooled);
    report.line(format!(
        "latency_us_p99     = {:.2} us (per-slice p99, {how}; n={}; whole run: p99 {:.2} us, max {:.2} us)",
        lat.p99,
        lat.n,
        whole.p99,
        pooled.last().copied().unwrap_or(0.0)
    ));
    run.outcomes.report_modeled(&mut report);
    report.line(run.outcomes.describe(run.sent as u64));
    report.line(describe_inputs_failed(&run.outcomes.inputs));
    report.line(format!(
        "backends built inside the timed region: {} (counted, not excluded)",
        run.builds
    ));
    report.set("shots_per_s", shots_per_s);
    report.set("latency_us_p50", lat.p50);

    reference.report(&mut report);
    report.set("pipeline.backends_built", run.builds as f64);
    report.set("gen.input_us_per_shot", gen_s * 1e6 / INPUTS as f64);
    let mut lag_us: Vec<f64> = run.record.lag_ns.iter().map(|ns| ns / 1e3).collect();
    let lag = Percentiles::of(&mut lag_us);
    report.line(format!(
        "gen.lag_us_p99 = {:.2} us (send time - due time; p50 {:.2} us; n={})",
        lag.p99, lag.p50, lag.n
    ));
    report.set("gen.lag_us_p99", lag.p99);
    report.line(format!(
        "stream: finish_p99_us {:?}, bank_switches {}, contexts_peak {}, rounds_routed {}, degraded {}, worker_panics {}",
        stats.finish_p99_us, stats.bank_switches, stats.contexts_peak, stats.rounds_routed, stats.degraded_shots, stats.worker_panics
    ));
    report.set("stream.finish_p99_us", stats.finish_p99_us.unwrap_or(0.0));
    report.set("stream.bank_switches", stats.bank_switches as f64);
    let (ingest_us, depth_peak, overhead) = match &traced {
        Some(t) => {
            let traced_lat = stream_latency(t).pct;
            report.line(format!(
                "trace overhead: latency p50 {:.2} us traced vs {:.2} us untraced (difference {:.2} us)",
                traced_lat.p50,
                lat.p50,
                traced_lat.p50 - lat.p50
            ));
            (
                mean(&t.ingest_ns) / 1e3,
                t.queue_depth_peak as f64,
                100.0 * (traced_lat.p50 - lat.p50) / lat.p50,
            )
        }
        None => (0.0, 0.0, 0.0),
    };
    report.set("stream.ingest_us", ingest_us);
    report.set("stream.queue_depth_peak", depth_peak);
    report.set("trace.overhead_pct", overhead);
    crate::finish_trace(&mut report, tracer.as_ref(), opts, "stream")?;
    Ok(report)
}
