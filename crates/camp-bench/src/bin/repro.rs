//! `repro` — regenerate the CAMP paper's tables and figures.
//!
//! ```text
//! repro <experiment-id | all> [--scale small|medium|paper] [--out DIR] [--list]
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use camp_bench::{experiment_list, run_experiment_full, Scale};

fn usage() -> String {
    format!(
        "usage: repro <experiment-id | all> [--scale small|medium|paper] [--out DIR]\n\
         \x20            [--trace FILE] [--plot]\n\
         \n  experiments (an experiment's ids all print its tables):\n{}",
        experiment_list()
    )
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut experiment: Option<String> = None;
    let mut scale = Scale::Small;
    let mut out_dir: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut plot = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(value) = args.next().and_then(|v| Scale::parse(&v)) else {
                    eprintln!("--scale requires one of: small, medium, paper");
                    return ExitCode::FAILURE;
                };
                scale = value;
            }
            "--out" => {
                let Some(value) = args.next() else {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                };
                out_dir = Some(PathBuf::from(value));
            }
            "--trace" => {
                let Some(value) = args.next() else {
                    eprintln!("--trace requires a file");
                    return ExitCode::FAILURE;
                };
                trace_path = Some(PathBuf::from(value));
            }
            "--plot" => plot = true,
            "--list" | "-l" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_owned());
            }
            other => {
                eprintln!("unexpected argument `{other}`\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(experiment) = experiment else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };

    match run_experiment_full(
        &experiment,
        scale,
        out_dir.as_deref(),
        trace_path.as_deref(),
        plot,
    ) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
