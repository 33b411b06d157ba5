//! `bench`: the end-to-end benchmark's command line.
//!
//! ```text
//! bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
//! bench all --seed N [--seconds S] [--trace 0|1] [--out DIR]
//! bench compare BASE_DIR HEAD_DIR
//! ```
//!
//! One workload per process: `all` runs each workload in a child process
//! of its own. The last line of standard output is the run's JSON result;
//! the exit code is non-zero when any correctness gate fails.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use cws_bench_e2e::compare::compare;
use cws_bench_e2e::manifest::manifest;
use cws_bench_e2e::run::{run, self_time_table, write_files, RunConfig};
use cws_bench_e2e::workloads::Scale;

const USAGE: &str =
    "usage: bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     bench all --seed N [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     bench compare BASE_DIR HEAD_DIR";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: manifest().run_seconds,
        traced: false,
        out_dir: PathBuf::from("target/cws-bench"),
    };
    let mut seed = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(options.seconds.is_finite() && options.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => options.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    options.seed = seed.ok_or("--seed is required")?;
    Ok(options)
}

fn run_one(options: &Options, workload: &str) -> ExitCode {
    let config = RunConfig {
        workload: workload.to_string(),
        seed: options.seed,
        seconds: options.seconds,
        traced: options.traced,
        out_dir: options.out_dir.clone(),
        scale: Scale::Full,
    };
    let finished = match run(&config) {
        Ok(finished) => finished,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = &finished.report;
    if config.traced {
        eprint!("{}", self_time_table(&finished.tracers));
    }
    match write_files(&config, &finished) {
        Ok((result, trace)) => {
            eprintln!("[bench] wrote {}", result.display());
            if let Some(trace) = trace {
                eprintln!("[bench] wrote {}", trace.display());
            }
        }
        Err(error) => eprintln!("[bench] cannot write result files: {error}"),
    }
    for failure in report.failures() {
        eprintln!("[bench] GATE FAILED: {failure}");
    }
    println!(
        "# {workload} seed={} units={} trace={}",
        config.seed,
        finished.units,
        u8::from(config.traced)
    );
    print!("{}", report.human_lines());
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("error: cannot locate this executable: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for def in &manifest().workloads {
        let status = Command::new(&exe)
            .args(["--workload", &def.name, "--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&options.out_dir)
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{} ({status})", def.name)),
            Err(error) => failed.push(format!("{} ({error})", def.name)),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("[bench] failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [base, head] = &args[1..] else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            match compare(base.as_ref(), head.as_ref()) {
                Ok((table, any_worse)) => {
                    print!("{table}");
                    if any_worse {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::from(2)
                }
            }
        }
        Some("all") => match parse(&args[1..]) {
            Ok(options) if options.workload.is_none() => run_all(&options),
            Ok(_) => {
                eprintln!("error: `all` runs every workload; drop --workload\n{USAGE}");
                ExitCode::from(2)
            }
            Err(message) => {
                eprintln!("error: {message}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => match parse(&args) {
            Ok(options) => match options.workload.clone() {
                Some(workload) => run_one(&options, &workload),
                None => {
                    eprintln!("error: --workload is required\n{USAGE}");
                    ExitCode::from(2)
                }
            },
            Err(message) => {
                eprintln!("error: {message}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
