//! `run`: the untraced end-to-end measurement of one workload, and what
//! `trace` shares with it (data, server build, answer checking, reports).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::data::{self, Columns, DataDir};
use crate::oracle::{self, Answer};
use crate::stats::{self, json_number, json_string};
use crate::wire::{self, Rearm, Res, Sample, ServerProc};
use crate::workload::{Spec, Workload};

/// A run is this many rounds, each on a freshly spawned server: set-up,
/// then its share of the window. That gives five samples of `setup_s`
/// and `peak_rss_mb` (reported as medians) and keeps one server process's
/// luck with placement and page layout from deciding a whole run; ops,
/// seconds and CPU time are pooled over the rounds.
const ROUNDS: usize = 5;

/// `(name, unit, better)` of the end-to-end metrics, as in `BENCHMARK.json`.
/// The seventh, `fail_ratio`, is always 0 on an accepted run, so the
/// result line carries it as `failed` / `attempted` instead.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("ops_per_s", "1/s", "higher"),
    ("lat_shape_p50_ms", "ms", "lower"),
    ("lat_tail_ms", "ms", "lower"),
    ("server_cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

pub struct Config {
    /// The repo checkout this benchmark was built in.
    pub root: PathBuf,
    /// `benchmark/out`: data files, traces, logs, result CSVs.
    pub out: PathBuf,
    pub seed: u64,
    pub rows: usize,
    pub seconds: f64,
    pub nproc: usize,
    /// Result CSV to append to.
    pub results_csv: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (ops, iterations, set-ups).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Everything a workload needs before a server starts.
pub struct Prepared {
    pub cols: Columns,
    pub data: DataDir,
    pub server_bin: PathBuf,
    pub datagen_s: f64,
    pub build_s: f64,
}

pub fn prepare(cfg: &Config) -> Res<Prepared> {
    let t = Instant::now();
    let cols = Columns::generate(cfg.seed, cfg.rows);
    let data = data::ensure_files(&cfg.out.join("data"), cfg.seed, &cols)?;
    let datagen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let server_bin = wire::build_server(&cfg.root)?;
    let build_s = t.elapsed().as_secs_f64();
    Ok(Prepared {
        cols,
        data,
        server_bin,
        datagen_s,
        build_s,
    })
}

/// The run header: what was measured, on what, with which settings.
pub fn print_header(cfg: &Config, spec: &Spec, clients: usize, prep: &Prepared, flags: &[String]) {
    let cmd_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(&cfg.root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    eprintln!(
        "# nodb-benchmark workload={} seed={} rows={} window_s={} clients={} nproc={}",
        spec.name, cfg.seed, cfg.rows, cfg.seconds, clients, cfg.nproc
    );
    eprintln!(
        "# commit={} rustc={:?}",
        cmd_line("git", &["rev-parse", "HEAD"]),
        cmd_line("rustc", &["-V"])
    );
    eprintln!(
        "# server: nodb-server --data <seed dir> {}",
        flags.join(" ")
    );
    eprintln!(
        "# datagen_s={:.3} (reused={}) build_s={:.3} wide.csv={} bytes",
        prep.datagen_s, prep.data.reused, prep.build_s, prep.data.wide_bytes
    );
}

/// Compare every sample with the naive evaluator's answer for its query;
/// returns how many ops failed (errors and wrong answers alike).
pub fn count_failures(w: &Workload, cols: &Columns, samples: &[Sample], nproc: usize) -> u64 {
    let mut used: Vec<usize> = samples.iter().map(|s| s.query).collect();
    used.sort_unstable();
    used.dedup();
    let chunk = used.len().div_ceil(nproc.max(1)).max(1);
    let expected: BTreeMap<usize, Answer> = std::thread::scope(|s| {
        let handles: Vec<_> = used
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&q| (q, oracle::evaluate(&w.queries[q], cols)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut failed = 0;
    for s in samples {
        if s.answer != Some(expected[&s.query]) {
            if failed < 5 {
                eprintln!(
                    "! wrong answer: {} -> {:?}, expected {:?}",
                    w.queries[s.query].sql(false),
                    s.answer,
                    expected[&s.query]
                );
            }
            failed += 1;
        }
    }
    failed
}

/// Latencies in ms, ascending, of the samples of one shape (or all).
pub fn latencies_ms(samples: &[Sample], shape: Option<usize>) -> Vec<f64> {
    stats::sorted(
        samples
            .iter()
            .filter(|s| s.answer.is_some() && shape.is_none_or(|sh| sh == s.shape))
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect(),
    )
}

/// `lat_shape_p50_ms`: the median latency of each op shape, averaged over
/// the shapes by their op counts. With one shape it is the plain median.
/// In a mix the plain median is no steady number: about half of
/// `cache_churn`'s ops are sub-millisecond hits and the rest 16 ms misses,
/// so it flips between the two modes with the hit ratio (27% spread
/// between rounds of the same code).
fn shape_weighted_median_ms(samples: &[Sample], spec: &Spec) -> f64 {
    let mut weighted = 0.0;
    let mut ops = 0;
    for shape in 0..spec.shapes.len() {
        let lat = latencies_ms(samples, Some(shape));
        weighted += stats::percentile_sorted(&lat, 50.0) * lat.len() as f64;
        ops += lat.len();
    }
    weighted / ops.max(1) as f64
}

pub fn clients_for(spec: &Spec, nproc: usize) -> usize {
    let clients = spec.clients.min(nproc);
    assert!(
        clients >= 1 && clients <= nproc,
        "client threads must fit nproc"
    );
    clients
}

/// One spawned, connected and warmed server.
pub struct Ready {
    pub server: ServerProc,
    pub conns: Vec<wire::Conn>,
    pub setup_s: f64,
}

pub fn set_up(cfg: &Config, prep: &Prepared, w: &Workload, rearm: &Rearm) -> Res<Ready> {
    let started = Instant::now();
    let server = ServerProc::spawn(
        &prep.server_bin,
        &prep.data.dir,
        cfg.nproc,
        w.spec.result_cache_mb,
        &cfg.out.join("server.log"),
    )?;
    let conns = wire::connect_and_warm(server.addr, w, clients_for(w.spec, cfg.nproc), rearm)?;
    Ok(Ready {
        server,
        conns,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

pub fn run_workload(cfg: &Config, spec: &'static Spec) -> Res<Report> {
    let prep = prepare(cfg)?;
    let w = Workload::new(spec, cfg.seed, cfg.rows);
    let rearm = Rearm::new(&prep.data.wide);

    // Each round is a fresh server: set-up, then its share of the window.
    let mut setups = Vec::with_capacity(ROUNDS);
    let mut peaks = Vec::with_capacity(ROUNDS);
    let mut samples = Vec::new();
    let (mut elapsed_s, mut server_cpu_ms, mut harness_cpu_ms) = (0.0, 0.0, 0.0);
    for round in 0..ROUNDS {
        let mut ready = set_up(cfg, &prep, &w, &rearm)?;
        if round == 0 {
            print_header(cfg, spec, ready.conns.len(), &prep, &ready.server.flags);
        }
        setups.push(ready.setup_s);
        let first_stream = round * ready.conns.len();
        let window = wire::run_window(
            ready.server.pid(),
            &mut ready.conns,
            &w,
            &rearm,
            cfg.seconds / ROUNDS as f64,
            first_stream,
        )?;
        peaks.push(ready.server.peak_rss_mb()?);
        drop(ready.conns);
        ready.server.stop()?;
        // How far the rounds of one run differ is the noise floor a
        // reader of the pooled numbers should know about.
        eprintln!(
            "# round {round}: {:.3} ops/s, server cpu {:.3} ms/op, peak rss {:.1} MiB, setup {:.3} s",
            window.samples.len() as f64 / window.elapsed_s,
            window.server_cpu_ms / window.samples.len().max(1) as f64,
            peaks[round],
            setups[round]
        );
        elapsed_s += window.elapsed_s;
        server_cpu_ms += window.server_cpu_ms;
        harness_cpu_ms += window.harness_cpu_ms;
        samples.extend(window.samples);
    }

    let failed = count_failures(&w, &prep.cols, &samples, cfg.nproc);
    let attempted = samples.len() as u64;
    let correct = attempted - failed;
    let lat = latencies_ms(&samples, None);
    eprintln!(
        "# {ROUNDS} windows, {elapsed_s:.3} s together, harness cpu share {:.3}",
        harness_cpu_ms / (elapsed_s * 1000.0 * cfg.nproc as f64)
    );
    let n = lat.len();
    // In the order of `END_TO_END`, which supplies names and units.
    let values = [
        (correct as f64 / elapsed_s, n),
        (shape_weighted_median_ms(&samples, spec), n),
        (stats::percentile_sorted(&lat, spec.tail_percentile), n),
        (server_cpu_ms / correct.max(1) as f64, n),
        (stats::median(&peaks), peaks.len()),
        (stats::median(&setups), setups.len()),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), (value, samples))| Metric::new(*name, unit, value, samples))
        .collect();
    Ok(Report {
        workload: spec.name,
        seed: cfg.seed,
        trace: false,
        attempted,
        failed,
        metrics,
    })
}

/// Print the report: a table on stderr, a row per metric appended to the
/// results CSV, and the one-line JSON object last on stdout.
pub fn emit(report: &Report, results_csv: &Path) -> Res<()> {
    eprintln!(
        "{:<44} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        eprintln!(
            "{:<44} {:>16.4} {:<8} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    eprintln!(
        "fail_ratio {} ({} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );

    let new_file = !results_csv.exists();
    if let Some(dir) = results_csv.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut csv = std::fs::File::options()
        .create(true)
        .append(true)
        .open(results_csv)?;
    let mut rows = String::new();
    if new_file {
        rows.push_str("workload,seed,trace,metric,unit,value,samples\n");
    }
    for m in &report.metrics {
        rows.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            report.workload,
            report.seed,
            u8::from(report.trace),
            m.name,
            m.unit,
            json_number(m.value),
            m.samples
        ));
    }
    csv.write_all(rows.as_bytes())?;

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    Ok(())
}
