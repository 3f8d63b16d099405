//! `oneq-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! oneq-perfbench --workload <paper-suite|wide-sparse|serve-mixed>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`). Exits 1 when an output check fails, 2 on a
//! usage error. See README.md for the workloads and metrics.

mod compile;
mod reference;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 2023;
/// `--seconds` when not given: `run_seconds` in BENCHMARK.json, the
/// run length the bounds were measured on.
const DEFAULT_SECONDS: f64 = 30.0;
/// Every run measures a compile lane and then a serve lane; the serve
/// lane measures whole 1-s windows, leaves out the first and the last,
/// and needs a miss on every hot-set entry in the rest.
const MIN_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

const WORKLOADS: [&str; 3] = ["paper-suite", "wide-sparse", "serve-mixed"];

/// Named metric values in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            stats::valid_name(name) && stats::valid_unit(unit),
            "{name} [{unit}]"
        );
        self.0.push((name.to_string(), value, unit));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    if args.seconds < MIN_SECONDS {
        return Err(format!("--seconds must be at least {MIN_SECONDS}"));
    }
    Ok(args)
}

/// One run's result.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Metrics,
}

/// Runs `make` `SETUP_REPS` times and returns the last result with the
/// median set-up time in reference-normalised seconds: each set-up is
/// scaled by the reference kernel timed just before it.
fn repeated_setup<T>(mut make: impl FnMut() -> std::io::Result<T>) -> std::io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let scale = reference::NOMINAL_MS / reference::time_ms();
        let t = Instant::now();
        last = Some(make()?);
        let secs = t.elapsed().as_secs_f64();
        raw.push(secs);
        times.push(secs * scale);
    }
    eprintln!("raw: setup_s {:.6}", stats::median(&raw));
    Ok((last.expect("SETUP_REPS > 0"), stats::median(&times)))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The serve lane's share of a run; the compile lane gets the rest. Each
/// workload spends most of its run on the lane it is named for.
fn serve_share(workload: &str) -> f64 {
    if workload == "serve-mixed" {
        0.6
    } else {
        0.3
    }
}

/// The untraced run. Every workload runs both lanes, so every workload
/// reports every end-to-end metric: first the compile lane over its
/// compile inputs (`serve-mixed`: its corpus), then the serve lane over
/// the same sources as the hot set. `setup_s` times what the workload
/// needs before its main lane: building the compile inputs, or for
/// `serve-mixed` starting the server and filling it.
fn run_workload(args: &Args, out: &mut Outcome) -> std::io::Result<()> {
    let serve_seconds = args.seconds * serve_share(&args.workload);
    let (inputs, setup, setup_s) = if args.workload == "serve-mixed" {
        let corpus = serve::corpus();
        let (setup, setup_s) = repeated_setup(|| serve::start(corpus.clone(), serve::CLIENTS))?;
        (serve::hot_inputs(&corpus), Some(setup), setup_s)
    } else {
        let (inputs, setup_s) = repeated_setup(|| Ok(compile_inputs(args)))?;
        (inputs, None, setup_s)
    };
    out.metrics.push("setup_s", setup_s, "s");

    let timed = compile::run_timed(&inputs, args.seconds - serve_seconds);
    out.attempted += timed.attempted;
    out.failed += timed.failed;
    out.errors.extend(compile::check(
        &args.workload,
        args.seed,
        &inputs,
        &timed.outputs,
    ));
    compile::report(&timed, &mut out.metrics);
    // `peak_rss_mb` covers set-up and the workload's main lane. Taken
    // after the serial lane, the compile workloads' peak jumped between
    // two levels from run to run, so for them it is read here.
    let compile_peak_rss_mb = peak_rss_mb();

    // `serve-mixed`: two closed-loop clients, where hits and misses
    // contend. The compile workloads: the serial lane, one request at a
    // time, so one compile runs at a time there too.
    let (attempted, failed, errors, peak_rss_mb) = match setup {
        Some(setup) => {
            let served = serve::closed_loop(&setup, args.seed, serve_seconds, false);
            setup.handle.shutdown()?;
            serve::report(&served, inputs.len(), &mut out.metrics, &mut out.errors);
            (
                served.attempted,
                served.failed,
                served.errors,
                served.peak_rss_mb,
            )
        }
        None => {
            let setup = serve::start(serve::sources_of(&inputs), 1)?;
            let serial = serve::serial_lane(&setup, args.seed, serve_seconds)?;
            setup.handle.shutdown()?;
            serve::report_serial(&serial, &mut out.metrics, &mut out.errors);
            (
                serial.attempted,
                serial.failed,
                serial.errors,
                compile_peak_rss_mb,
            )
        }
    };
    out.metrics.push("peak_rss_mb", peak_rss_mb, "MB");
    out.attempted += attempted;
    out.failed += failed;
    out.errors.extend(errors);
    Ok(())
}

fn compile_inputs(args: &Args) -> Vec<compile::Input> {
    match args.workload.as_str() {
        "paper-suite" => compile::paper_suite(args.seed),
        _ => compile::wide_sparse(args.seed),
    }
}

/// The traced run: the compile lane over the workload's compile inputs
/// (`serve-mixed`: its corpus), then the service lane over the same
/// sources (`serve-mixed`: its closed loop), split as the untraced run.
fn run_traced(args: &Args, out: &mut Outcome) -> std::io::Result<()> {
    let serve_seconds = args.seconds * serve_share(&args.workload);
    let (inputs, sources, closed_loop) = if args.workload == "serve-mixed" {
        let corpus = serve::corpus();
        (
            serve::hot_inputs(&corpus),
            corpus,
            Some((args.seed, serve_seconds)),
        )
    } else {
        let inputs = compile_inputs(args);
        let sources = serve::sources_of(&inputs);
        (inputs, sources, None)
    };
    let mut tracer = trace::Tracer::new();
    let (attempted, failed) = compile::run_traced(
        &inputs,
        args.seconds - serve_seconds,
        &mut tracer,
        &mut out.metrics,
    );
    out.attempted += attempted;
    out.failed += failed;
    let (attempted, failed) = serve::run_traced_lane(
        sources,
        closed_loop,
        &mut tracer,
        &mut out.metrics,
        &mut out.errors,
    )?;
    out.attempted += attempted;
    out.failed += failed;
    write_trace(args, &tracer)
}

fn write_trace(args: &Args, tracer: &trace::Tracer) -> std::io::Result<()> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path)?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let run = if args.trace {
        run_traced(&args, &mut out)
    } else {
        run_workload(&args, &mut out)
    };
    if let Err(e) = run {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    for (name, value, _) in &out.metrics.0 {
        if !value.is_finite() {
            out.errors.push(format!("{name} was not measured"));
        }
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
