//! The repository's benchmark: d=13 circuit-level workloads driven through
//! the public entry points of `mb-decoder`, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed` before any timing. An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run (`--trace 1`)
//! records spans around the calls into each layer and prints the per-layer
//! metrics. Human-readable report lines come first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` for the workloads and metrics.

mod batch;
mod check;
mod common;
mod openloop;
mod report;
mod stats;
mod stream;
mod trace;
mod window;

use common::Opts;
use report::Report;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "batch-d13-p001",
    "batch-d13-p005",
    "stream-d13-p001",
    "window-d13-p001",
];

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        single_setup: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err(format!("--seconds {value}: must be in (0, 120]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, opts))
}

/// Writes the traced run's spans and adds the per-layer self-time lines.
pub fn finish_trace(
    report: &mut Report,
    tracer: Option<&trace::Tracer>,
    opts: Opts,
    workload: &str,
) -> Result<(), String> {
    let Some(tracer) = tracer else {
        return Ok(());
    };
    report.line("per-layer self time (span: count, total ms, self ms, self us per span):");
    for (name, layer) in tracer.layer_times() {
        report.line(format!(
            "  {name:<32} {:>9} {:>11.3} {:>11.3} {:>10.3}",
            layer.count,
            layer.total_ns as f64 / 1e6,
            layer.self_ns as f64 / 1e6,
            layer.self_ns as f64 / 1e3 / layer.count.max(1) as f64
        ));
    }
    let path = std::path::PathBuf::from("perfbench/out")
        .join(format!("spans-{workload}-seed{}.jsonl", opts.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.line(format!(
        "{} spans written to {}",
        tracer.len(),
        path.display()
    ));
    Ok(())
}

/// Run time of each layer section of a traced `batch-d13-p001` run.
const LAYER_SECTION_S: f64 = 4.0;

/// The stream and window layers, for a traced `batch-d13-p001` run: the
/// `stream-d13-p001` and `window-d13-p001` drives, set up once and run
/// for [`LAYER_SECTION_S`], contribute their `stream.*`, `gen.lag_*` and
/// `window.*` metrics and their output checks. (Their end-to-end figures
/// are too much at the mercy of a shared host's scheduler to hold a
/// bound; see `README.md`.)
fn layer_sections(report: &mut Report, opts: Opts) -> Result<(), String> {
    let opts = Opts {
        seconds: LAYER_SECTION_S,
        single_setup: true,
        ..opts
    };
    let stream = stream::run(0.001, opts)?;
    report.adopt(
        "layer section: stream-d13-p001 (set up once)",
        stream,
        &["stream.", "gen.lag_"],
    );
    let window = window::run(0.001, opts)?;
    report.adopt(
        "layer section: window-d13-p001 (set up once)",
        window,
        &["window."],
    );
    Ok(())
}

fn run(workload: &str, opts: Opts) -> Result<Report, String> {
    let mut report = match workload {
        "batch-d13-p001" if opts.trace => {
            let mut report = batch::run(0.001, opts)?;
            layer_sections(&mut report, opts)?;
            report
        }
        "batch-d13-p001" => batch::run(0.001, opts)?,
        "batch-d13-p005" => batch::run(0.005, opts)?,
        "stream-d13-p001" => stream::run(0.001, opts)?,
        "window-d13-p001" => window::run(0.001, opts)?,
        _ => unreachable!("workload names are checked when parsed"),
    };
    let rss = stats::peak_rss_mb().ok_or("peak RSS is not available (/proc/self/status)")?;
    report.line(format!("peak_rss_mb        = {rss:.1} MB"));
    report.set("peak_rss_mb", rss);
    Ok(report)
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {workload} seed={} seconds={} trace={} (available_parallelism={threads})",
        opts.seed, opts.seconds, opts.trace as u8
    );
    match run(&workload, opts).and_then(|report| report.print(opts.trace)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
