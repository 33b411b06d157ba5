//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments list
//! experiments all [--scale smoke|full] [--format text|json|csv] [--out DIR]
//! experiments <id>... [--scale smoke|full] [--format text|json|csv] [--out DIR]
//! ```
//!
//! Each experiment id corresponds to one table or figure of the paper (the
//! registry is `cws_eval::experiments`). Output goes to stdout; with
//! `--out DIR` each report is additionally written to `DIR/<id>.<ext>`.
//!
//! Run with `cargo run --release -p cws-eval --bin experiments -- list`.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use cws_eval::datasets::DatasetScale;
use cws_eval::experiments::{available_experiments, run_experiment};
use cws_eval::report::ExperimentReport;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

struct Options {
    ids: Vec<String>,
    scale: DatasetScale,
    format: Format,
    out_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut ids = Vec::new();
    let mut scale = DatasetScale::Full;
    let mut format = Format::Text;
    let mut out_dir = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale requires a value")?;
                scale = match value.as_str() {
                    "smoke" => DatasetScale::Smoke,
                    "full" => DatasetScale::Full,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--format" => {
                let value = iter.next().ok_or("--format requires a value")?;
                format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => {
                let value = iter.next().ok_or("--out requires a directory")?;
                out_dir = Some(PathBuf::from(value));
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => ids.push(other.to_string()),
        }
    }
    Ok(Options { ids, scale, format, out_dir })
}

fn render(report: &ExperimentReport, format: Format) -> String {
    match format {
        Format::Text => report.render_text(),
        Format::Json => report.to_json(),
        Format::Csv => report.to_csv(),
    }
}

fn extension(format: Format) -> &'static str {
    match format {
        Format::Text => "txt",
        Format::Json => "json",
        Format::Csv => "csv",
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "help" {
        eprintln!(
            "usage: experiments (list | all | <id>...) [--scale smoke|full] \
             [--format text|json|csv] [--out DIR]"
        );
        eprintln!("experiment ids: {}", available_experiments().join(", "));
        return ExitCode::SUCCESS;
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    if options.ids.iter().any(|id| id == "list") {
        for id in available_experiments() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<String> = if options.ids.iter().any(|id| id == "all") {
        available_experiments().into_iter().map(str::to_string).collect()
    } else {
        options.ids.clone()
    };
    if ids.is_empty() {
        eprintln!("error: no experiment ids given (try `list` or `all`)");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = &options.out_dir {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {error}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    for id in &ids {
        let started = std::time::Instant::now();
        let Some(report) = run_experiment(id, options.scale) else {
            eprintln!("error: unknown experiment id `{id}`");
            return ExitCode::FAILURE;
        };
        let rendered = render(&report, options.format);
        println!("{rendered}");
        eprintln!("[{id}] finished in {:.1?}", started.elapsed());
        if let Some(dir) = &options.out_dir {
            let path = dir.join(format!("{id}.{}", extension(options.format)));
            match std::fs::File::create(&path).and_then(|mut f| f.write_all(rendered.as_bytes())) {
                Ok(()) => eprintln!("[{id}] wrote {}", path.display()),
                Err(error) => {
                    eprintln!("error: cannot write {}: {error}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
