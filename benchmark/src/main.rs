//! `nodb-benchmark` — the repo's one benchmark.
//!
//! ```text
//! nodb-benchmark run   [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                      [--smoke] [--out FILE.csv]
//! nodb-benchmark trace [same flags]            (= run --trace 1)
//! nodb-benchmark check [A.csv B.csv] [--workload NAME] [--seed N] [--seconds S]
//!                      [--smoke] [--write-bounds]
//! ```
//!
//! `run` spawns the real `nodb-server`, drives it over loopback TCP in a
//! closed loop and prints the end-to-end metrics; with `--trace 1` it
//! prints the per-layer metrics instead. Without `--workload` it runs all
//! six. See `README.md` beside this package.

mod check;
mod data;
mod layers;
mod oracle;
mod run;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;

use run::Config;
use wire::Res;
use workload::{spec_named, Spec, WORKLOADS};

const DEFAULT_ROWS: usize = 1_000_000;
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_ROWS: usize = 100_000;
const SMOKE_SECONDS: f64 = 2.5;

pub struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    write_bounds: bool,
    files: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: nodb-benchmark run|trace [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1] [--smoke] [--out FILE.csv]\n       \
         nodb-benchmark check [A.csv B.csv] [--workload NAME] [--seed N] [--seconds S] \
         [--smoke] [--write-bounds]\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        write_bounds: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("missing value for {arg}");
                usage()
            })
        };
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> T {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {flag}: {v:?}");
                usage()
            })
        }
        match arg.as_str() {
            "--workload" => {
                let name = value();
                parsed.workload = Some(spec_named(name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                }));
            }
            "--seed" => parsed.seed = number(arg, value()),
            "--seconds" => parsed.seconds = Some(number(arg, value())),
            "--trace" => parsed.trace = number::<u8>(arg, value()) != 0,
            "--out" => parsed.out = Some(value().into()),
            "--smoke" => parsed.smoke = true,
            "--write-bounds" => parsed.write_bounds = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                usage()
            }
            file => parsed.files.push(file.into()),
        }
    }
    if parsed.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        eprintln!("--seconds must be positive");
        usage()
    }
    parsed
}

impl Args {
    fn config(&self, seed: u64) -> Config {
        // The package is always built where it runs (`cargo run`), so the
        // manifest directory baked in at compile time is the checkout.
        let package = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = package
            .parent()
            .expect("benchmark/ sits in the repo")
            .to_owned();
        let out = package.join("out");
        let (rows, seconds) = if self.smoke {
            (SMOKE_ROWS, SMOKE_SECONDS)
        } else {
            (DEFAULT_ROWS, DEFAULT_SECONDS)
        };
        Config {
            root,
            seed,
            rows,
            seconds: self.seconds.unwrap_or(seconds),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            results_csv: self.out.clone().unwrap_or_else(|| out.join("results.csv")),
            out,
        }
    }
}

/// Run (or trace) the chosen workloads; true when every answer was right.
fn run_all(args: &Args, trace: bool) -> Res<bool> {
    let cfg = args.config(args.seed);
    std::fs::create_dir_all(&cfg.out)?;
    let mut all_correct = true;
    for spec in WORKLOADS
        .iter()
        .filter(|s| args.workload.is_none_or(|w| w.name == s.name))
    {
        let report = if trace {
            trace::trace_workload(&cfg, spec)?
        } else {
            run::run_workload(&cfg, spec)?
        };
        run::emit(&report, &cfg.results_csv)?;
        all_correct &= report.failed == 0 && report.attempted > 0;
    }
    Ok(all_correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        usage()
    };
    let args = parse_args(rest);
    let outcome = match command.as_str() {
        "run" => run_all(&args, args.trace),
        "trace" => run_all(&args, true),
        "check" => check::check(&args),
        _ => usage(),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("nodb-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
