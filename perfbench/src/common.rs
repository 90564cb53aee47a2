//! Pieces shared by the workloads: input generation, the direct reference
//! decode that every output is checked against, and outcome accounting.

use crate::check::{check_matching, Fault, FaultTally, InputVerdicts};
use crate::report::Report;
use crate::stats::{mean, median, secs_since};
use crate::trace::Tracer;
use mb_decoder::pipeline::{shot_rng, ShotOutcome};
use mb_decoder::{
    BackendSpec, DecodeError, DecoderBackend, LatencyBreakdown, MicroBlossomDecoder,
    ParityBlossomDecoder,
};
use mb_graph::circuit::CompiledCircuit;
use mb_graph::syndrome::Shot;
use mb_graph::{DecodingGraph, ObservableMask};
use std::sync::Arc;
use std::time::Instant;

/// Code distance of every workload (the paper's headline point).
pub const D: usize = 13;

/// How many times a run sets the system up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The decoder every workload serves: Micro Blossom in its full (default)
/// configuration, as `BackendSpec::micro_full` builds it on pool workers.
pub fn spec() -> BackendSpec {
    BackendSpec::micro_full(Some(D))
}

/// Times of one set-up, in seconds.
pub struct SetUpTimes {
    pub total_s: f64,
    pub graph_s: f64,
}

/// Sets the system up `reps` times, tearing each one down before the next,
/// and keeps the last. Reports `setup_s` (the median; `what` says what a
/// set-up covers) and `setup.graph_s`.
pub fn set_up_repeatedly<S>(
    reps: usize,
    what: &str,
    report: &mut Report,
    mut set_up: impl FnMut() -> Result<(S, SetUpTimes), String>,
) -> Result<S, String> {
    let mut total = Vec::new();
    let mut graph = Vec::new();
    let mut system = None;
    for _ in 0..reps {
        drop(system.take());
        let (built, times) = set_up()?;
        total.push(times.total_s);
        graph.push(times.graph_s);
        system = Some(built);
    }
    let list = format!("{total:.3?}");
    let setup_s = median(&mut total);
    report.line(format!(
        "setup_s            = {setup_s:.3} s (median of {reps} set-ups {list}: {what})"
    ));
    report.set("setup_s", setup_s);
    report.set("setup.graph_s", median(&mut graph));
    Ok(system.expect("at least one set-up"))
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up once instead of several times: for the stream and window
    /// sections of a traced `batch-d13-p001` run, which report layers only.
    pub single_setup: bool,
}

/// Samples `n` shots of `circuit`, shot `i` from `shot_rng(seed, i)`.
/// Returns the shots and the generation time in seconds.
pub fn generate(circuit: &CompiledCircuit, seed: u64, n: usize) -> (Vec<Shot>, f64) {
    let start = Instant::now();
    let sampler = circuit.sampler();
    let shots = (0..n)
        .map(|i| sampler.sample(&mut shot_rng(seed, i as u64)))
        .collect();
    (shots, secs_since(start))
}

/// One line describing generated inputs.
pub fn describe_inputs(shots: &[Shot], gen_s: f64) -> String {
    let n = shots.len().max(1) as f64;
    let defects: usize = shots.iter().map(|s| s.syndrome.defects.len()).sum();
    let empty = shots
        .iter()
        .filter(|s| s.syndrome.defects.is_empty())
        .count();
    format!(
        "inputs: {} distinct shots generated in {:.3} s ({:.1} us/shot, outside set-up and timed regions); {:.2} defects/shot, {:.1}% empty",
        shots.len(),
        gen_s,
        gen_s * 1e6 / n,
        defects as f64 / n,
        100.0 * empty as f64 / n
    )
}

/// The direct, single-threaded decode of every distinct input: the
/// observable each serving path must deliver, and the verdict of the output
/// checks on its matching.
#[derive(Debug, Default)]
pub struct Reference {
    pub observable: Vec<ObservableMask>,
    pub fault: Vec<Option<Fault>>,
    /// Seconds to build the direct Micro Blossom decoder.
    pub build_s: f64,
    /// Per-shot host time of `decode_matching`, split by path.
    pub fast_decode_ns: Vec<f64>,
    pub escalated_decode_ns: Vec<f64>,
    /// Per-shot host time of correction extraction.
    pub extract_ns: Vec<f64>,
    /// Shots per second of `DecoderBackend::decode` (decode plus
    /// extraction, what a pool worker does per shot) in a tight
    /// single-thread loop over every input.
    pub single_thread_rate: f64,
    /// Counter breakdown summed over every shot.
    pub breakdown: LatencyBreakdown,
    pub pus_touched: u64,
    pub active_peak: u64,
    pub accel_shots: u64,
    pub fast_shots: u64,
}

impl Reference {
    /// Decodes every shot directly with Micro Blossom (spans `shot` >
    /// `micro.decode_matching`, `extract.correction_observable`) and with
    /// the exact software reference (span `check.reference`), and checks
    /// each Micro Blossom matching.
    pub fn build(
        graph: &Arc<DecodingGraph>,
        shots: &[Shot],
        mut tracer: Option<&mut Tracer>,
    ) -> Self {
        let start = Instant::now();
        let build_span = tracer
            .as_deref_mut()
            .map(|t| t.open("setup.backend_build", None, 0));
        let mut micro = MicroBlossomDecoder::full(Arc::clone(graph), Some(D));
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), build_span) {
            t.close(id);
        }
        let mut reference = Self {
            build_s: secs_since(start),
            ..Self::default()
        };
        let mut parity = ParityBlossomDecoder::new(Arc::clone(graph));
        let fast_count = |m: &MicroBlossomDecoder| {
            let o = m
                .accel_observability()
                .expect("micro blossom has an accelerator");
            o.zero_defect_shots + o.predecoded_shots
        };
        let before = micro
            .accel_observability()
            .expect("micro blossom has an accelerator");
        for (i, shot) in shots.iter().enumerate() {
            let fast_before = fast_count(&micro);
            let root = tracer
                .as_deref_mut()
                .map(|t| t.open("shot", None, i as u64));
            let t0 = Instant::now();
            let (matching, breakdown) = micro.decode_matching(&shot.syndrome);
            let t1 = Instant::now();
            let observable = matching.correction_observable(graph);
            let t2 = Instant::now();
            if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
                let (a, b, c) = (t.ns_at(t0), t.ns_at(t1), t.ns_at(t2));
                t.record("micro.decode_matching", Some(root), i as u64, a, b);
                t.record("extract.correction_observable", Some(root), i as u64, b, c);
                t.set_end(root, c);
            }
            let decode_ns = (t1 - t0).as_nanos() as f64;
            if fast_count(&micro) > fast_before {
                reference.fast_decode_ns.push(decode_ns);
            } else {
                reference.escalated_decode_ns.push(decode_ns);
            }
            reference.extract_ns.push((t2 - t1).as_nanos() as f64);
            reference.breakdown.hardware_cycles += breakdown.hardware_cycles;
            reference.breakdown.bus_reads += breakdown.bus_reads;
            reference.breakdown.bus_writes += breakdown.bus_writes;
            reference.breakdown.cpu_obstacles += breakdown.cpu_obstacles;

            let check = tracer
                .as_deref_mut()
                .map(|t| t.open("check.reference", None, i as u64));
            let exact = parity
                .decode(&shot.syndrome)
                .matching
                .expect("parity blossom returns a matching");
            let weight = exact.weight(graph);
            let fault = check_matching(graph, &shot.syndrome.defects, &matching, weight).err();
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), check) {
                t.close(id);
            }
            reference.observable.push(observable);
            reference.fault.push(fault);
        }
        let after = micro
            .accel_observability()
            .expect("micro blossom has an accelerator");
        reference.pus_touched = after.pus_touched - before.pus_touched;
        reference.active_peak = after.active_peak;
        reference.accel_shots = after.accel_shots - before.accel_shots;
        reference.fast_shots = (after.zero_defect_shots + after.predecoded_shots)
            - (before.zero_defect_shots + before.predecoded_shots);
        // the loop above interleaves the reference decode, which evicts the
        // decoder's caches; time a pool worker's per-shot work on its own
        let start = Instant::now();
        for shot in shots {
            std::hint::black_box(micro.decode(&shot.syndrome));
        }
        reference.single_thread_rate = shots.len() as f64 / secs_since(start).max(1e-12);
        reference
    }

    /// Inputs whose direct matching failed a check, per fault kind.
    pub fn faulty_inputs(&self) -> FaultTally {
        let mut tally = FaultTally::default();
        for fault in self.fault.iter().flatten() {
            tally.add(*fault, 1);
        }
        tally
    }

    /// Report lines and per-layer metrics of the direct decode.
    pub fn report(&self, report: &mut Report) {
        let shots = self.accel_shots.max(1) as f64;
        report.line(format!(
            "direct decode ({} shots, 1 thread): fast path {} shots, {:.2} us mean decode_matching; escalated {} shots, {:.2} us mean; extraction {:.2} us/shot",
            self.observable.len(),
            self.fast_decode_ns.len(),
            mean(&self.fast_decode_ns) / 1e3,
            self.escalated_decode_ns.len(),
            mean(&self.escalated_decode_ns) / 1e3,
            mean(&self.extract_ns) / 1e3,
        ));
        report.line(format!(
            "direct checks: {} of {} inputs fail ({})",
            self.faulty_inputs().total(),
            self.observable.len(),
            self.faulty_inputs().describe()
        ));
        report.set("micro.decode_us.fast", mean(&self.fast_decode_ns) / 1e3);
        report.set(
            "micro.decode_us.escalated",
            mean(&self.escalated_decode_ns) / 1e3,
        );
        report.set("predecoder.fast_path_rate", self.fast_shots as f64 / shots);
        report.line(format!(
            "predecoder.fast_path_rate = {} / {} accelerator shots",
            self.fast_shots, self.accel_shots
        ));
        report.set(
            "accel.pus_touched_per_shot",
            self.pus_touched as f64 / shots,
        );
        report.set("accel.active_peak", self.active_peak as f64);
        report.set(
            "accel.hw_cycles_per_shot",
            self.breakdown.hardware_cycles as f64 / shots,
        );
        report.set(
            "accel.bus_reads_per_shot",
            self.breakdown.bus_reads as f64 / shots,
        );
        report.set(
            "accel.bus_writes_per_shot",
            self.breakdown.bus_writes as f64 / shots,
        );
        report.set(
            "primal.cpu_obstacles_per_shot",
            self.breakdown.cpu_obstacles as f64 / shots,
        );
        report.set("extract.us_per_shot", mean(&self.extract_ns) / 1e3);
        report.set("setup.backend_build_s", self.build_s);
    }
}

/// Running tally of delivered outcomes against the reference.
#[derive(Debug, Default)]
pub struct Outcomes {
    pub typed_errors: u64,
    pub degraded: u64,
    /// Delivered observable differs from the direct decode of its input.
    pub mismatched: u64,
    /// Delivered output whose (direct) matching failed an output check.
    pub wrong: FaultTally,
    /// The same judgements per distinct input.
    pub inputs: InputVerdicts,
    /// Modelled latency summed over delivered outcomes.
    modeled_sum_ns: f64,
    modeled_count: u64,
    /// Modelled latency per distinct input (it is a function of the input),
    /// kept per input so memory does not grow with the shots decoded.
    modeled_by_input: Vec<Option<f64>>,
}

impl Outcomes {
    pub fn new(inputs: usize) -> Self {
        Self {
            modeled_by_input: vec![None; inputs],
            inputs: InputVerdicts::new(inputs),
            ..Self::default()
        }
    }

    /// Counts a typed error in submitting input `input`.
    pub fn typed_error(&mut self, input: usize) {
        self.typed_errors += 1;
        self.inputs.record(input, false);
    }

    /// Judges one delivered outcome of input `input`; returns whether it is
    /// correct.
    pub fn judge(
        &mut self,
        reference: &Reference,
        input: usize,
        result: Result<ShotOutcome, DecodeError>,
    ) -> bool {
        let correct = self.judge_delivery(reference, input, result);
        self.inputs.record(input, correct);
        correct
    }

    fn judge_delivery(
        &mut self,
        reference: &Reference,
        input: usize,
        result: Result<ShotOutcome, DecodeError>,
    ) -> bool {
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(_) => {
                self.typed_errors += 1;
                return false;
            }
        };
        self.modeled_sum_ns += outcome.latency_ns;
        self.modeled_count += 1;
        self.modeled_by_input[input] = Some(outcome.latency_ns);
        if outcome.degraded {
            self.degraded += 1;
            return false;
        }
        if outcome.decoded_observable != reference.observable[input] {
            self.mismatched += 1;
            return false;
        }
        match reference.fault[input] {
            Some(fault) => {
                self.wrong.add(fault, 1);
                false
            }
            None => true,
        }
    }

    pub fn failed(&self) -> u64 {
        self.typed_errors + self.degraded + self.mismatched + self.wrong.total()
    }

    /// The `failed_frac` report line (per delivered shot).
    pub fn describe(&self, attempted: u64) -> String {
        format!(
            "failed_frac        = {:.6} ({} failed / {} attempted: typed errors {}, degraded {}, observable != direct decode {}, wrong outputs {} [{}])",
            self.failed() as f64 / attempted.max(1) as f64,
            self.failed(),
            attempted,
            self.typed_errors,
            self.degraded,
            self.mismatched,
            self.wrong.total(),
            self.wrong.describe()
        )
    }

    /// The modelled-latency report lines (the paper's figure is context
    /// only) and the `modeled_ns_mean` metric.
    pub fn report_modeled(&self, report: &mut Report) {
        let mean_ns = self.modeled_sum_ns / self.modeled_count.max(1) as f64;
        let mut per_input: Vec<f64> = self.modeled_by_input.iter().flatten().copied().collect();
        let pct = crate::stats::Percentiles::of(&mut per_input);
        report.line(format!(
            "modeled_ns_mean    = {mean_ns:.1} ns (Micro Blossom latency model, per shot, n={}; {PAPER_CONTEXT})",
            self.modeled_count
        ));
        report.line(format!(
            "modeled_ns_p99     = {:.1} ns (over the n={} distinct inputs delivered)",
            pct.p99, pct.n
        ));
        report.set("modeled_ns_mean", mean_ns);
    }
}

/// The report line of the result line's `attempted` and `failed`.
pub fn describe_inputs_failed(inputs: &InputVerdicts) -> String {
    format!(
        "failed inputs      = {} of {} distinct inputs delivered in the timed region (a failed input has at least one failed delivery; the result line's failed / attempted)",
        inputs.failed(),
        inputs.attempted()
    )
}

/// Printed beside every modelled latency.
pub const PAPER_CONTEXT: &str = "paper: 0.8 us at d=13, p=0.1%, for context only -- the model is unvalidated and CircuitNoiseParams::scaled(p) puts p/10 on each operation, so the two are not comparable";
