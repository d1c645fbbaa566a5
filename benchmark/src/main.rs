//! One repeatable benchmark for the PackageBuilder reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! builds the inputs, runs the workload, checks every answer and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `benchmark/README.md`.

mod clock;
mod json;
mod reference;
mod report;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use clock::{ms, Clock};
use json::Json;
use report::Metric;
use runner::{PassRecord, Runner, Tally};
use trace::Tracer;
use workloads::{BuildParams, DEFAULT_DATA_SEED, KINDS};

/// Untimed passes before measurement: the verification pass plus two full
/// passes. They fill the view cache, build and memoize partitionings and
/// trees, and spill paged columns; `scale_paged`'s first passes after a
/// spill run in a faster mode than its steady state, and these cover them.
const WARMUP_PASSES: usize = 3;

/// Set-ups per end-to-end run; `setup_s` is the fastest of them.
const SETUPS: usize = 3;

/// A traced run needs this many traced (and as many plain) passes.
const MIN_TRACED_PASSES: usize = 10;

/// Plain passes a traced run of `scale_paged` makes on two threads, after
/// [`TWO_THREAD_WARMUP`] unrecorded ones (the first passes after the switch
/// still run at one-thread speed).
const TWO_THREAD_PASSES: usize = 5;
const TWO_THREAD_WARMUP: usize = 2;

/// `run_seconds` of `BENCHMARK.json`: every workload makes at least 30
/// passes, and a full series of driver runs, each with its three set-ups,
/// fits the driver's time cap with a quarter to spare (README, "Load model").
const DEFAULT_SECONDS: f64 = 22.0;

/// Measured passes of each run `--smoke` makes.
const SMOKE_PASSES: usize = 3;

const USAGE: &str = "usage: pb-benchmark --workload <name> [--seed N] [--data-seed N] \
[--seconds S] [--trace 0|1] [--record]\n       \
pb-benchmark --smoke\nworkloads: session_small exact_branchy append_rebuild scale_paged";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    data_seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_DATA_SEED,
        data_seed: DEFAULT_DATA_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: '{text}' is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            // A negative seed is a seed too: take its bits.
            "--seed" => {
                let text = value("a number")?;
                args.seed = match text.parse::<i64>() {
                    Ok(signed) => signed as u64,
                    Err(_) => number(&flag, text)?,
                }
            }
            "--data-seed" => args.data_seed = number(&flag, value("a number")?)?,
            "--seconds" => args.seconds = number(&flag, value("a number")?)?,
            "--record" => args.record = true,
            "--smoke" => args.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// A fixed arithmetic-and-memory kernel timed between passes. Its time
/// moves with the host, not with the engine, so a reader can tell a slow
/// host from a slow program.
struct Calibration {
    buffer: Vec<u64>,
}

impl Calibration {
    fn new() -> Self {
        Calibration {
            buffer: vec![1; 1 << 18],
        }
    }

    fn run(&mut self, clock: &Clock) -> f64 {
        let start = clock.ns();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..24 {
            for slot in self.buffer.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = slot.wrapping_add(x);
            }
        }
        std::hint::black_box(&self.buffer);
        ms(clock.ns() - start)
    }
}

/// What one workload run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Writes a file under `out/`; a benchmark that cannot write its series
/// still reports its metrics.
fn write_out(name: &str, value: &Json) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(name);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, value.pretty()))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn series(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

/// A workload set up: tables, engine, the verification pass (compared with
/// the checked-in references unless they are being recorded) and the
/// remaining warm-up passes.
struct Setup {
    runner: Runner,
    quality_mean: f64,
    verification: PassRecord,
}

fn set_up(
    workload: &str,
    params: BuildParams,
    clock: &Clock,
    tally: Tally,
    record: bool,
) -> Result<Setup, String> {
    let instance = workloads::build(workload, params)
        .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?;
    let mut runner = Runner::new(instance, params.stream_seed, tally);
    let verification = runner.verification_pass(clock);
    let mut quality_mean = 1.0;
    if !record {
        let compared = reference::compare(
            workload,
            params.data_seed,
            &runner.instance.script,
            &verification.answers,
        )?;
        for note in &compared.notes {
            eprintln!("note: {note}");
        }
        for wrong in compared.wrong {
            runner.tally.fail(wrong);
        }
        quality_mean = compared.quality_mean;
        for _ in 1..WARMUP_PASSES {
            runner.pass(clock, None);
        }
    }
    Ok(Setup {
        runner,
        quality_mean,
        verification,
    })
}

/// `--record`: writes the verification pass's answers as the references.
fn record_references(
    workload: &str,
    params: BuildParams,
    clock: &Clock,
) -> Result<Outcome, String> {
    let setup = set_up(workload, params, clock, Tally::default(), true)?;
    let tally = &setup.runner.tally;
    if tally.failed > 0 {
        return Err(format!(
            "not recording: {} operation(s) failed: {}",
            tally.failed,
            tally.failures.join("; ")
        ));
    }
    let path = reference::record(
        workload,
        params.data_seed,
        &setup.runner.instance.script,
        &setup.verification.answers,
    )?;
    eprintln!("recorded {}", path.display());
    Ok(Outcome {
        attempted: tally.attempted,
        failed: 0,
        metrics: Vec::new(),
    })
}

/// The buffer pool is the out-of-core workload's alone: every one of its
/// passes must fault pages in, and no other workload may touch it.
fn check_pool_use(runner: &mut Runner, passes: &[PassRecord]) {
    let paged = runner.instance.engine.config().column_memory_budget == 0;
    for (pass, record) in passes.iter().enumerate() {
        let touched = record.pool.hits + record.pool.misses + record.pool.pages_spilled;
        if paged && record.pool.misses == 0 {
            runner
                .tally
                .fail(format!("pass {pass}: a paged workload missed no page"));
        } else if !paged && touched > 0 {
            runner.tally.fail(format!(
                "pass {pass}: {touched} buffer-pool operations in a resident workload"
            ));
        }
    }
}

fn run_workload(
    workload: &str,
    args: &Args,
    smoke: bool,
    clock: &Clock,
) -> Result<Outcome, String> {
    let nominal = workloads::nominal_pass_ms(workload)
        .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?;
    // Fixed work, never fixed time: `--seconds` only chooses the pass count.
    let budgeted = ((args.seconds * 1e3 / nominal).round() as usize).max(3);
    // A traced run splits its time: a traced pass with its probes costs about
    // two plain ones. The smoke run keeps everything short.
    let (plain_passes, traced_passes) = match (smoke, args.trace) {
        (true, true) => (SMOKE_PASSES, SMOKE_PASSES),
        (true, false) => (SMOKE_PASSES, 0),
        (false, true) => {
            let n = (budgeted / 3).max(MIN_TRACED_PASSES);
            (n, n)
        }
        (false, false) => (budgeted, 0),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = workloads::default_threads(workload, cores);
    let params = BuildParams {
        data_seed: args.data_seed,
        stream_seed: args.seed,
        threads,
        append_passes: WARMUP_PASSES + plain_passes + traced_passes,
    };
    if args.record {
        return record_references(workload, params, clock);
    }

    // Set-up is repeated so that one interference burst cannot move
    // `setup_s`; the last instance is the one measured. A traced run does
    // not report `setup_s` and sets up once.
    let setups = if args.trace || smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..setups {
        // Drop the previous instance first: two alive at once would double
        // the peak memory this run reports.
        let tally = last.take().map(|s| s.runner.tally).unwrap_or_default();
        let start = clock.ns();
        last = Some(set_up(workload, params, clock, tally, false)?);
        setup_s.push((clock.ns() - start) as f64 / 1e9);
    }
    let Setup {
        mut runner,
        quality_mean,
        ..
    } = last.expect("at least one set-up ran");

    // A run that has gone far beyond its budget (a host several times slower
    // than the definition host) stops instead of running into the driver's
    // timeout. Its work is no longer the fixed work, so the run fails.
    let deadline_ns = clock.ns() + (args.seconds * 4.0 * 1e9) as u64;
    let in_budget = || smoke || clock.ns() <= deadline_ns;
    let mut calibration = Calibration::new();
    let mut calib_ms = Vec::new();
    let mut plain: Vec<PassRecord> = Vec::new();
    while plain.len() < plain_passes && in_budget() {
        calib_ms.push(calibration.run(clock));
        plain.push(runner.pass(clock, None));
    }
    check_pool_use(&mut runner, &plain);

    let mut tracer = Tracer::new(*clock);
    let mut traced = Vec::new();
    while traced.len() < traced_passes && in_budget() {
        // Calibrate here too: the kernel sweeps the caches, and a traced
        // pass must start from the same state as a plain one.
        calibration.run(clock);
        let pass = traced.len();
        tracer.begin_pass(pass);
        let record = runner.pass(clock, Some(&mut tracer));
        traced.push((tracer.self_times(pass), record));
    }
    if plain.len() < plain_passes || traced.len() < traced_passes {
        runner.tally.fail(format!(
            "stopped far over budget after {} of {} passes",
            plain.len() + traced.len(),
            plain_passes + traced_passes
        ));
    }

    // `scale_paged` only: the same plain passes on two threads. Answers must
    // not change (the engine is bit-identical at every thread count); the
    // times show what contending for the buffer pool costs.
    let mut two_threads: Vec<PassRecord> = Vec::new();
    if let (true, Some(contended)) = (args.trace, workloads::contended_threads(workload)) {
        let warmup = if smoke { 0 } else { TWO_THREAD_WARMUP };
        runner.instance.engine.config_mut().num_threads = contended;
        for pass in 0..warmup + TWO_THREAD_PASSES.min(plain_passes) {
            let record = runner.pass(clock, None);
            if pass >= warmup {
                two_threads.push(record);
            }
        }
        runner.instance.engine.config_mut().num_threads = threads;
    }

    let kinds: Vec<&'static str> = runner.instance.script.iter().map(|op| op.kind).collect();
    let kind_series = kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let latencies = series(plain.iter().map(|p| ms(p.op_ns[i])));
            (kind.to_string(), latencies)
        })
        .collect();
    let pass_series = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("data_seed", Json::Num(args.data_seed as f64)),
        ("threads", Json::Num(threads as f64)),
        ("traced", Json::Bool(args.trace)),
        ("setup_s", series(setup_s.iter().copied())),
        ("pass_ms", series(plain.iter().map(|p| ms(p.pass_ns)))),
        ("calib_ms", series(calib_ms.iter().copied())),
        (
            "traced_pass_ms",
            series(traced.iter().map(|(t, _)| ms(t.root_ns))),
        ),
        ("kind_ms", Json::Obj(kind_series)),
    ]);
    write_out(&format!("passes.{workload}.json"), &pass_series);

    let metrics = if args.trace {
        write_out(&format!("trace.{workload}.json"), &tracer.to_json());
        report::per_layer(&report::TraceInputs {
            kinds,
            untraced: &plain,
            calib_ms: &calib_ms,
            traced: &traced,
            two_threads: &two_threads,
            cache: runner.instance.engine.view_cache().stats(),
        })
    } else {
        report::end_to_end(&setup_s, &plain, quality_mean)
    };

    let pass_ms: Vec<f64> = plain.iter().map(|p| ms(p.pass_ns)).collect();
    let spread = stats::median(&pass_ms) / report::pass_ms_best(&plain);
    if spread > 1.25 {
        eprintln!(
            "warning: the median pass took {spread:.2}x the undisturbed pass — \
             the host was busy; medians of this run mean little"
        );
    }
    for failure in &runner.tally.failures {
        eprintln!("FAILED {failure}");
    }
    Ok(Outcome {
        attempted: runner.tally.attempted,
        failed: runner.tally.failed,
        metrics,
    })
}

/// Checks a run's metrics against the lists in `BENCHMARK.json`: every
/// named metric present with its unit, and nothing unnamed.
fn check_names(contract: &Json, section: &str, metrics: &[Metric]) -> Vec<String> {
    let mut problems = Vec::new();
    let listed = contract.get(section).and_then(Json::as_arr).unwrap_or(&[]);
    for entry in listed {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        match metrics.iter().find(|(n, ..)| n == name) {
            None => problems.push(format!("{section}: {name} is not reported")),
            Some((_, _, got)) if *got != unit => {
                problems.push(format!("{section}: {name} has unit {got}, not {unit}"))
            }
            Some((_, value, _)) if !value.is_finite() => {
                problems.push(format!("{section}: {name} is not a number"))
            }
            Some(_) => {}
        }
    }
    for (name, ..) in metrics {
        let known = listed
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(name));
        if !known {
            problems.push(format!("{section}: {name} is reported but not listed"));
        }
    }
    problems
}

/// Every workload with [`SMOKE_PASSES`] measured passes, plain and traced, validated
/// against `BENCHMARK.json`.
fn smoke(args: &Args, clock: &Clock) -> Result<bool, String> {
    let contract_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let contract = std::fs::read_to_string(&contract_path)
        .map_err(|e| format!("{}: {e}", contract_path.display()))
        .and_then(|text| Json::parse(&text))?;
    let listed: Vec<&str> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = KINDS.iter().map(|(name, _)| *name).collect();
    let mut problems = Vec::new();
    if listed != ours {
        problems.push(format!(
            "BENCHMARK.json lists workloads {listed:?}, not {ours:?}"
        ));
    }
    for workload in ours {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = Args {
                trace,
                ..args.clone()
            };
            let outcome = run_workload(workload, &run, true, clock)?;
            if outcome.failed > 0 {
                problems.push(format!(
                    "{workload}: {} operation(s) failed",
                    outcome.failed
                ));
            }
            problems.extend(
                check_names(&contract, section, &outcome.metrics)
                    .into_iter()
                    .map(|p| format!("{workload}: {p}")),
            );
            eprintln!(
                "smoke {workload} {section}: {} operations, {} metrics",
                outcome.attempted,
                outcome.metrics.len()
            );
        }
    }
    for problem in &problems {
        eprintln!("SMOKE {problem}");
    }
    println!(
        "{}",
        Json::obj([
            ("smoke", Json::Bool(problems.is_empty())),
            ("problems", Json::Num(problems.len() as f64)),
        ])
        .render()
    );
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let clock = Clock::start();
    if args.smoke {
        return match smoke(&args, &clock) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match run_workload(workload, &args, false, &clock) {
        Ok(outcome) if args.record => {
            eprintln!("{} operations verified", outcome.attempted);
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            println!("{}", outcome.to_json().render());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
