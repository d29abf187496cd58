//! `perfbench --workload <app-evict|hot-read|wire-mix> --seed N
//! --seconds S --trace 0|1 --pamad PATH`
//!
//! Prints a table of every metric with its unit and sample count, then
//! the one-line JSON result as the last line of standard output. Exits
//! non-zero, printing no result, when the run itself cannot be carried
//! out.
//!
//! A traced run splits `--seconds` evenly between its traced phase and
//! the untraced phase it is compared with, so it lasts as long as an
//! untraced run.

use perfbench::{app_evict, hot_read, wire_mix};
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pamad: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, pamad: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--pamad" => a.pamad = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let outcome = match args.workload.as_str() {
        "app-evict" => {
            let inputs = app_evict::Inputs::generate(args.seed);
            Ok(app_evict::run(&inputs, seconds, args.trace))
        }
        "hot-read" => {
            let inputs = hot_read::Inputs::generate(args.seed);
            Ok(hot_read::run(&inputs, seconds, args.trace))
        }
        "wire-mix" => match &args.pamad {
            Some(bin) => {
                let inputs = wire_mix::Inputs::generate(args.seed);
                wire_mix::run(&inputs, bin, seconds, args.trace)
            }
            None => Err("wire-mix needs --pamad".to_string()),
        },
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(o) => o.print(&args.workload, args.trace),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
