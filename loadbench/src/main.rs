//! `loadbench`: the repository's one benchmark. Four workloads drive the
//! paper's APIs through the whole Gallery stack on a durable store; see
//! `README.md` beside this package.
//!
//! ```text
//! loadbench --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! loadbench --runs N --out FILE [--seed N] [--seconds S]
//! loadbench --compare A.json B.json [--benchmark BENCHMARK.json]
//! loadbench --selftest
//! ```

mod bench;
mod compare;
mod gen;
mod json;
mod layers;
mod memfs;
mod quiet;
mod recover;
mod run;
mod selftest;
mod shadow;
mod stack;
mod stats;
mod trace;

use bench::RunConfig;
use gen::{Sizes, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The common factor applied to the issue's dataset, cache and
/// cardinalities so that 92 driver runs fit in 57 minutes.
pub const DATASET_SCALE: f64 = 0.2;
/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
pub const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    runs: Option<u32>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: Option<PathBuf>,
    selftest: bool,
    recover_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = Some(
                    value(&mut it, flag)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=60.0).contains(&s) {
                    return Err("--seconds must be between 0.5 and 60".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.trace = true,
            "--trace-out" => args.trace_out = Some(value(&mut it, flag)?.into()),
            "--runs" => {
                args.runs = Some(
                    value(&mut it, flag)?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?,
                )
            }
            "--out" => args.out = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()))
            }
            "--benchmark" => args.benchmark = Some(value(&mut it, flag)?.into()),
            "--selftest" => args.selftest = true,
            "--recover-only" => args.recover_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Printed with every run: what the numbers depend on besides the code.
pub fn environment_line(seed: u64, seconds: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "environment nproc={nproc} fs_kind=memfs rustc=\"{}\" git_rev={} seed={seed} dataset_scale={DATASET_SCALE} seconds={seconds}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    println!("{}", environment_line(seed, seconds));
    let cfg = RunConfig {
        workload,
        seed,
        sizes: Sizes::fleet(DATASET_SCALE, seconds),
        traced: args.trace,
        // A traced run reports no set-up or recovery time, so it pays
        // for one of each only.
        setups: if args.trace { 1 } else { 5 },
        recoveries: if args.trace { 1 } else { 3 },
        recovery_time: Duration::from_millis(if args.trace { 0 } else { 2500 }),
        recover_in_process: false,
        trace_out: args.trace_out.clone(),
        patience: Duration::from_secs(4),
    };
    let result = bench::run_once(&cfg)?;
    println!(
        "workload {} seed {seed} plan {:016x}",
        workload.name(),
        result.plan_fingerprint
    );
    result.print_table(false);
    if args.trace {
        result.print_table(true);
    }
    println!("{}", result.result_line(args.trace));
    Ok(result.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.recover_only {
        return ExitCode::from(recover::child_main() as u8);
    } else if args.selftest {
        selftest::run()
    } else if let Some((a, b)) = &args.compare {
        compare::compare(a, b, args.benchmark.as_deref())
    } else if let Some(n) = args.runs {
        let out = args
            .out
            .clone()
            .unwrap_or_else(|| "loadbench-runs.json".into());
        compare::record_runs(
            n,
            &out,
            args.seed.unwrap_or(1),
            args.seconds.unwrap_or(DEFAULT_SECONDS),
        )
    } else {
        run_workload(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::from(2)
        }
    }
}
