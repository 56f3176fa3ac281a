//! `check`: do two sets of runs agree within the bounds?
//!
//! Takes two result CSVs (as `run --out` writes them) or makes two sets
//! itself, then prints per metric × workload the two medians, the
//! run-to-run spread of each set (quartile distance over median, as the
//! driver computes it) and the pairing's bound from `bounds.csv`. A
//! pairing whose spread exceeds the bound is `unresolved`, never
//! "unchanged".
//!
//! `BENCHMARK.json` has room for one bound per metric, so it carries the
//! largest of that metric's per-workload bounds; `bounds.csv` beside this
//! package keeps the bound of every pairing, and `check` judges by those.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::run::{self, END_TO_END};
use crate::stats::{json_number, json_string, median, relative_spread};
use crate::trace::per_layer_metrics;
use crate::wire::Res;
use crate::workload::WORKLOADS;
use crate::{Args, DEFAULT_SECONDS};

/// Runs of each workload in a set, on as many seeds: the fewest the
/// driver compares, and below two a spread does not exist.
const SET_RUNS: usize = 10;
/// No bound may exceed this share of the parent's median.
const MAX_BOUND: f64 = 0.25;
const MIN_BOUND: f64 = 0.05;
/// Bound of a pairing `bounds.csv` does not list yet.
const DEFAULT_BOUND: f64 = 0.10;

/// `(workload, metric) -> values`, end-to-end rows only.
type ResultSet = BTreeMap<(String, String), Vec<f64>>;
/// `(workload, metric) -> bound`.
type PairBounds = BTreeMap<(String, String), f64>;

fn bounds_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("bounds.csv")
}

fn load(path: &Path) -> Res<ResultSet> {
    let text = std::fs::read_to_string(path)?;
    let mut set = ResultSet::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let [workload, _seed, trace, metric, _unit, value, _samples] = f[..] else {
            return Err(format!("{}: malformed row {line:?}", path.display()).into());
        };
        if trace == "0" {
            set.entry((workload.to_owned(), metric.to_owned()))
                .or_default()
                .push(value.parse()?);
        }
    }
    Ok(set)
}

fn parse_bounds(text: &str) -> Res<PairBounds> {
    let mut bounds = PairBounds::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let [workload, metric, bound] = f[..] else {
            return Err(format!("bounds.csv: malformed row {line:?}").into());
        };
        bounds.insert((workload.to_owned(), metric.to_owned()), bound.parse()?);
    }
    Ok(bounds)
}

fn render_bounds(bounds: &PairBounds) -> String {
    let mut s = String::from("workload,metric,bound\n");
    for ((workload, metric), bound) in bounds {
        s.push_str(&format!("{workload},{metric},{}\n", json_number(*bound)));
    }
    s
}

/// The one bound per metric `BENCHMARK.json` has room for: the largest of
/// the metric's per-workload bounds.
fn metric_bounds(pairs: &PairBounds) -> BTreeMap<String, f64> {
    let mut bounds = BTreeMap::new();
    for ((_, metric), &bound) in pairs {
        let entry = bounds.entry(metric.clone()).or_insert(bound);
        *entry = f64::max(*entry, bound);
    }
    bounds
}

/// `BENCHMARK.json` from this package's own tables and the given bounds.
pub fn render_benchmark_json(bounds: &BTreeMap<String, f64>) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {},\n", DEFAULT_SECONDS as u64));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(name),
                json_string(unit),
                json_string(better),
                json_number(bounds.get(*name).copied().unwrap_or(DEFAULT_BOUND))
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        end_to_end.join(",\n")
    ));
    let per_layer: Vec<String> = per_layer_metrics()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(name),
                json_string(unit),
                json_string(better)
            )
        })
        .collect();
    s.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        per_layer.join(",\n")
    ));
    s
}

/// Run every chosen workload on `SET_RUNS` seeds, appending to `csv`.
fn run_set(args: &Args, csv: &Path) -> Res<()> {
    let _ = std::fs::remove_file(csv);
    for spec in WORKLOADS
        .iter()
        .filter(|s| args.workload.is_none_or(|w| w.name == s.name))
    {
        for seed in args.seed..args.seed + SET_RUNS as u64 {
            let cfg = args.config(seed);
            let report = run::run_workload(&cfg, spec)?;
            run::emit(&report, csv)?;
            if report.failed > 0 {
                return Err(format!("{} failed ops on seed {seed}", spec.name).into());
            }
        }
    }
    Ok(())
}

pub fn check(args: &Args) -> Res<bool> {
    let cfg = args.config(args.seed);
    std::fs::create_dir_all(&cfg.out)?;
    let (a, b) = match &args.files[..] {
        [a, b] => (load(a)?, load(b)?),
        [] => {
            // Two sets over the same seeds: what differs is the run.
            let (a, b) = (
                cfg.out.join("check-set1.csv"),
                cfg.out.join("check-set2.csv"),
            );
            run_set(args, &a)?;
            run_set(args, &b)?;
            (load(&a)?, load(&b)?)
        }
        _ => return Err("check takes two result files, or none to make both sets".into()),
    };

    let bounds = parse_bounds(&std::fs::read_to_string(bounds_path()).unwrap_or_default())?;
    let mut needed = PairBounds::new();
    let mut all_ok = true;
    println!(
        "{:<18} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "worse",
        "spreadA",
        "spreadB",
        "bound",
        "needs"
    );
    for (pair, va) in &a {
        let (workload, metric) = pair;
        let Some(vb) = b.get(pair) else {
            continue;
        };
        let Some((_, _, better)) = END_TO_END.iter().find(|(n, _, _)| n == metric) else {
            continue;
        };
        if va.len().min(vb.len()) < SET_RUNS {
            return Err(format!(
                "{workload} {metric}: {} and {} runs, a set needs {SET_RUNS}",
                va.len(),
                vb.len()
            )
            .into());
        }
        let (ma, mb) = (median(va), median(vb));
        // How much worse B's median is than A's, as a share of A's.
        let worse = match *better {
            "higher" => (ma - mb) / ma,
            _ => (mb - ma) / ma,
        };
        let (sa, sb) = (relative_spread(va), relative_spread(vb));
        let spread = sa.max(sb);
        let bound = bounds.get(pair).copied().unwrap_or(DEFAULT_BOUND);
        let verdict = if spread > bound {
            "unresolved"
        } else if worse > bound {
            "worse"
        } else {
            "agree"
        };
        all_ok &= verdict == "agree";
        // What two sets of the same code need: room for three spreads and
        // twice the shift between the sets.
        let need = (3.0 * spread).max(2.0 * worse.abs()).max(MIN_BOUND);
        let need = ((need * 100.0).ceil() / 100.0).min(MAX_BOUND);
        needed.insert(pair.clone(), need);
        println!(
            "{workload:<18} {metric:<22} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>7.1}% {:>7.1}% {:>5.0}% {:>5.0}%  {verdict}",
            worse * 100.0,
            sa * 100.0,
            sb * 100.0,
            bound * 100.0,
            need * 100.0
        );
    }
    if args.write_bounds {
        // Only meaningful when both sets ran the same code. Pairings the
        // sets do not hold (`--workload`) keep the bound they had.
        let mut bounds = bounds;
        bounds.extend(needed);
        std::fs::write(bounds_path(), render_bounds(&bounds))?;
        let manifest = cfg.root.join("BENCHMARK.json");
        std::fs::write(&manifest, render_benchmark_json(&metric_bounds(&bounds)))?;
        println!(
            "wrote {} and {} (needs = 3 x spread, 2 x shift; floor 5%, cap 25%)",
            bounds_path().display(),
            manifest.display()
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_bounds_round_trip_and_fold_to_the_largest_per_metric() {
        let mut pairs = PairBounds::new();
        pairs.insert(("warm_short".to_owned(), "ops_per_s".to_owned()), 0.07);
        pairs.insert(("fetch_drain".to_owned(), "ops_per_s".to_owned()), 0.12);
        pairs.insert(("fetch_drain".to_owned(), "setup_s".to_owned()), 0.25);
        assert_eq!(parse_bounds(&render_bounds(&pairs)).unwrap(), pairs);
        let per_metric = metric_bounds(&pairs);
        assert_eq!(per_metric["ops_per_s"], 0.12);
        assert_eq!(per_metric["setup_s"], 0.25);
        let json = render_benchmark_json(&per_metric);
        assert!(json.contains(
            "\"name\": \"ops_per_s\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.12}"
        ));
        assert!(json.len() < 64 * 1024);
    }

    #[test]
    fn rendered_names_and_lines_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let metrics = per_layer_metrics();
        let names = END_TO_END
            .iter()
            .map(|(n, u, _)| (*n, *u))
            .chain(metrics.iter().map(|(n, u, _)| (n.as_str(), *u)));
        for (name, unit) in names {
            assert!(name_ok(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|(n, u, b)| (*n, *u, *b) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn committed_bounds_cover_every_pairing_and_render_benchmark_json() {
        let pairs = parse_bounds(&std::fs::read_to_string(bounds_path()).expect("bounds.csv"))
            .expect("bounds.csv parses");
        for w in &WORKLOADS {
            for (metric, _, _) in END_TO_END {
                let bound = pairs[&(w.name.to_owned(), metric.to_owned())];
                assert!(
                    (MIN_BOUND..=MAX_BOUND).contains(&bound),
                    "{} {metric}",
                    w.name
                );
            }
        }
        assert_eq!(pairs.len(), WORKLOADS.len() * END_TO_END.len());
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, render_benchmark_json(&metric_bounds(&pairs)));
    }
}
