//! The repository's benchmark (see `benchmark/README.md`).
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of standard output,
//!   one JSON object `{correct, attempted, failed, metrics}` — every
//!   end-to-end metric with `--trace 0`, every per-layer metric with
//!   `--trace 1`. This is what `BENCHMARK.json`'s `command` drives.
//! * without `--workload`, every workload runs in a fresh child process
//!   (end-to-end, then traced), every metric is printed by name with its unit,
//!   and the result is written to `benchmark/out/result.json`. `--repeat N`
//!   repeats the end-to-end runs over N seeds and prints min / median / max
//!   and spread against each bound; `--smoke` shrinks corpora and op counts.
//!
//! Any failed op — an error, a refusal, a timeout, or a reply that differs
//! from the oracle — makes the exit code non-zero.

mod deploy;
mod inputs;
mod json;
mod oracle;
mod procfs;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::{object, Value};
use run::{Outcome, Settings};
use spec::{Scale, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    emit_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        emit_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--emit-spec" => args.emit_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be at least 1".to_string());
    }
    Ok(args)
}

/// The contract's result line.
fn result_line(outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                object([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    object([
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn run_one(args: &Args, name: &str, epoch: Instant) -> ExitCode {
    let Some(workload) = spec::workload(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    let settings = Settings {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
    };
    let outcome = if args.trace {
        run::trace(&settings, Path::new(OUT_DIR), epoch)
    } else {
        run::measure(&settings)
    };
    println!(
        "# {name} seed={} seconds={} trace={} host_cores={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores()
    );
    for m in &outcome.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for finding in &outcome.findings {
        println!("finding: {finding}");
    }
    println!(
        "ops: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    println!("{}", result_line(&outcome).render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Run one workload in a fresh child process and parse its result line.
/// `Err` carries what went wrong; a failed op is reported by the child's own
/// `failed` count.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    json::parse(line).map_err(|e| {
        format!(
            "{workload} (seed {seed}, trace {}) exited with {} and no result line: {e}",
            u8::from(trace),
            output.status
        )
    })
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failed_ops(result: &Value) -> u64 {
    result.get("failed").and_then(Value::as_f64).unwrap_or(1.0) as u64
}

fn run_all(args: &Args) -> ExitCode {
    let started = Instant::now();
    let mut failed_total = 0u64;
    // workload -> one result per repeat, and the traced result.
    let mut end_to_end: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    let mut traced: BTreeMap<&str, Value> = BTreeMap::new();
    for repeat in 0..args.repeat {
        for w in &WORKLOADS {
            let seed = args.seed + repeat as u64;
            eprintln!(
                "[{:>6.1}s] {} seed {seed}",
                started.elapsed().as_secs_f64(),
                w.name
            );
            match child(args, w.name, seed, false) {
                Ok(result) => {
                    failed_total += failed_ops(&result);
                    end_to_end.entry(w.name).or_default().push(result);
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    for w in &WORKLOADS {
        eprintln!(
            "[{:>6.1}s] {} traced",
            started.elapsed().as_secs_f64(),
            w.name
        );
        match child(args, w.name, args.seed, true) {
            Ok(result) => {
                failed_total += failed_ops(&result);
                traced.insert(w.name, result);
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    println!(
        "== end-to-end (median of {} run(s), seeds {}..) ==",
        args.repeat, args.seed
    );
    println!("{:<24} {:>8}  {}", "metric", "unit", names.join("  "));
    let mut spread_rows = Vec::new();
    for m in &END_TO_END {
        let mut cells = Vec::new();
        for w in &names {
            let values: Vec<f64> = end_to_end[w]
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            cells.push(format!(
                "{:>width$.3}",
                stats::median(&values),
                width = w.len().max(10)
            ));
            if values.len() >= 2 {
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
                let spread = stats::spread(&values);
                spread_rows.push(format!(
                    "{:<22} {:<15} min {:>12.3}  median {:>12.3}  max {:>12.3}  spread {:>6.2}%  bound {:>4.0}%  {}",
                    m.name,
                    w,
                    lo,
                    stats::median(&values),
                    hi,
                    spread * 100.0,
                    m.bound * 100.0,
                    if spread <= m.bound / 3.0 { "steady" } else if spread <= m.bound { "within bound" } else { "OVER BOUND" },
                ));
            }
        }
        println!(
            "{:<24} {:>8}  {}   ({})",
            m.name,
            m.unit,
            cells.join("  "),
            m.what
        );
    }
    if !spread_rows.is_empty() {
        println!(
            "== spread over {} seeds: (q3 - q1) / median against the bound ==",
            args.repeat
        );
        for row in &spread_rows {
            println!("{row}");
        }
    }
    println!("== per-layer (traced run, seed {}) ==", args.seed);
    println!("{:<44} {:>6}  {}", "metric", "unit", names.join("  "));
    for m in &PER_LAYER {
        let cells: Vec<String> = names
            .iter()
            .map(|w| {
                let value = metric_value(&traced[w], m.name).unwrap_or(f64::NAN);
                format!("{:>width$.3}", value, width = w.len().max(10))
            })
            .collect();
        println!(
            "{:<44} {:>6}  {}   -> {}",
            m.name,
            m.unit,
            cells.join("  "),
            m.moves
        );
    }
    println!("failed ops: {failed_total}");

    let wall_s = started.elapsed().as_secs_f64();
    let per_workload = |map: &dyn Fn(&str) -> Value| {
        Value::Obj(names.iter().map(|w| (w.to_string(), map(w))).collect())
    };
    let document = object([
        (
            "header",
            object([
                ("host_cores", Value::Num(host_cores() as f64)),
                ("rustc", Value::Str(tool_line("rustc", &["-V"]))),
                (
                    "commit",
                    Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
                ("seed", Value::Num(args.seed as f64)),
                ("repeat", Value::Num(args.repeat as f64)),
                ("seconds", Value::Num(args.seconds as f64)),
                // Op counts relative to the issue's nominal (10 s) counts.
                ("op_count_factor", Value::Num(args.seconds as f64 / 10.0)),
                ("smoke", Value::Bool(args.smoke)),
                ("total_wall_s", Value::Num(wall_s)),
                ("failed_ops", Value::Num(failed_total as f64)),
            ]),
        ),
        (
            "end_to_end",
            per_workload(&|w| Value::Arr(end_to_end[w].clone())),
        ),
        ("per_layer", per_workload(&|w| traced[w].clone())),
    ]);
    let path = Path::new(OUT_DIR).join("result.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, document.render() + "\n"));
    match written {
        Ok(()) => eprintln!("wrote {} after {wall_s:.1} s", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        println!("{}", spec::benchmark_json().render());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(&args, name, epoch),
        None => run_all(&args),
    }
}
