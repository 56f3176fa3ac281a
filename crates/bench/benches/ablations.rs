//! Ablations — design choices the paper calls out, measured.
//!
//! * **A1 one-column-per-trip** (§3.1.3): the paper tried loading operators
//!   that fetch one column per file pass and found them "much more
//!   expensive". We compare batched vs per-column trips.
//! * **A2 positional map** (§4.1.2/§4.1.5): tokenization-offset knowledge
//!   accumulated across queries lets later scans jump into rows. On/off
//!   comparison on a walk across a wide table's columns.
//! * **A3 robustness / monitor** (§5.5): a workload that keeps missing the
//!   fragment cache thrashes the file; the monitor escalates to column
//!   loads. File trips with and without the advisor.
//! * **A4 partial-load worst case** (§5.5): N queries each fetching a tiny
//!   sliver — partial loading pays N trips where one column load would do.

use nodb_bench::{dataset, ms, scratch_dir, time, to_where, Scale};
use nodb_core::{Engine, EngineConfig, LoadingStrategy};
use nodb_rawcsv::gen::selective_range;
use nodb_types::{CmpOp, ColPred, Conjunction};

fn main() {
    let scale = Scale::from_env();
    a1_one_column_per_trip(scale);
    a2_positional_map(scale);
    a3_monitor_escalation(scale);
    a4_partial_worst_case(scale);
    a5_engine_cracking(scale);
    println!("\n(done)");
}

fn a5_engine_cracking(scale: Scale) {
    let rows = scale.rows(1_000_000);
    println!("## A5 — adaptive indexing in the engine (database cracking on/off)");
    println!("## {rows} rows; 16 random 10%-selective range aggregations after load");
    let path = dataset(rows, 2, 25);
    let w = [16, 14, 14];
    nodb_bench::header(&["cracking", "first-query", "rest(total)"], &w);
    for cracking in [false, true] {
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
        cfg.use_cracking = cracking;
        cfg.store_dir = Some(scratch_dir(&format!("a5-{cracking}")));
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        let mut r = nodb_bench::rng(73);
        let mk = |rng: &mut rand::rngs::StdRng| {
            let f = selective_range(0, rows, 0.10, rng);
            format!("select sum(a2), count(*) from r where {}", to_where(&[f]))
        };
        let first_sql = mk(&mut r);
        let (_, first) = time(|| e.sql(&first_sql).unwrap());
        let (_, rest) = time(|| {
            for _ in 0..16 {
                let sql = mk(&mut r);
                e.sql(&sql).unwrap();
            }
        });
        nodb_bench::row(
            &[
                if cracking { "on" } else { "off" }.into(),
                ms(first),
                ms(rest),
            ],
            &w,
        );
    }
    println!();
}

fn a1_one_column_per_trip(scale: Scale) {
    let rows = scale.rows(500_000);
    let cols = 8;
    println!("## A1 — batched vs one-column-per-trip loading ({rows} rows x {cols} cols)");
    let path = dataset(rows, cols, 21);
    let sql = "select sum(a1),sum(a2),sum(a3),sum(a4),sum(a5),sum(a6) from r";

    let w = [22, 12, 10, 12];
    nodb_bench::header(&["mode", "time", "trips", "MB-read"], &w);
    for per_col in [false, true] {
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
        cfg.one_column_per_trip = per_col;
        cfg.store_dir = Some(scratch_dir(&format!("a1-{per_col}")));
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        let (out, t) = time(|| e.sql(sql).unwrap());
        nodb_bench::row(
            &[
                if per_col {
                    "one-column-per-trip"
                } else {
                    "batched (paper)"
                }
                .into(),
                ms(t),
                out.stats.work.file_trips.to_string(),
                format!("{:.1}", out.stats.work.bytes_read as f64 / 1e6),
            ],
            &w,
        );
    }
    println!();
}

fn a2_positional_map(scale: Scale) {
    let rows = scale.rows(500_000);
    let cols = 12;
    println!("## A2 — adaptive positional map on/off ({rows} rows x {cols} cols)");
    println!("## queries walk one column at a time, left to right (partial-v1 loads)");
    let path = dataset(rows, cols, 22);

    let w = [10, 14, 14];
    nodb_bench::header(&["column", "posmap-on", "posmap-off"], &w);
    let make = |on: bool| {
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::PartialLoadsV1);
        cfg.use_positional_map = on;
        cfg.store_dir = Some(scratch_dir(&format!("a2-{on}")));
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        e
    };
    let e_on = make(true);
    let e_off = make(false);
    let mut tot_on = 0f64;
    let mut tot_off = 0f64;
    for c in 0..cols {
        let sql = format!("select sum(a{}) from r where a1 >= 0", c + 1);
        let (o1, t_on) = time(|| e_on.sql(&sql).unwrap());
        let (o2, t_off) = time(|| e_off.sql(&sql).unwrap());
        assert_eq!(o1.rows, o2.rows);
        tot_on += t_on.as_secs_f64() * 1e3;
        tot_off += t_off.as_secs_f64() * 1e3;
        nodb_bench::row(&[format!("a{}", c + 1), ms(t_on), ms(t_off)], &w);
    }
    nodb_bench::row(
        &[
            "total".into(),
            format!("{tot_on:.2}"),
            format!("{tot_off:.2}"),
        ],
        &w,
    );
    let info = e_on.table_info("r").unwrap();
    println!("posmap memory: {:.2} MB\n", info.posmap_bytes as f64 / 1e6);
}

fn a3_monitor_escalation(scale: Scale) {
    let rows = scale.rows(200_000);
    println!("## A3 — robustness monitor (§5.5): disjoint 2-D boxes thrash partial loading");
    let path = dataset(rows, 4, 23);
    let w = [16, 12, 10, 12];
    nodb_bench::header(&["monitor", "total-time", "trips", "hit-rate"], &w);
    for monitor in [true, false] {
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::PartialLoadsV2);
        // 0 switches the advisor off.
        cfg.escalate_after_misses = if monitor { 3 } else { 0 };
        cfg.store_dir = Some(scratch_dir(&format!("a3-{monitor}")));
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        let mut r = nodb_bench::rng(31);
        let before = e.counters().snapshot();
        let (_, t) = time(|| {
            for _ in 0..12 {
                // Fresh disjoint 2-D boxes: the fragment cache never covers
                // the next query.
                let f1 = selective_range(0, rows, 0.02, &mut r);
                let f2 = selective_range(1, rows, 0.5, &mut r);
                let sql = format!(
                    "select sum(a1),avg(a2) from r where {}",
                    to_where(&[f1, f2])
                );
                e.sql(&sql).unwrap();
            }
        });
        let work = e.counters().snapshot().since(&before);
        let info = e.table_info("r").unwrap();
        nodb_bench::row(
            &[
                if monitor { "on (escalates)" } else { "off" }.into(),
                ms(t),
                work.file_trips.to_string(),
                format!("{:.2}", info.hit_rate),
            ],
            &w,
        );
    }
    println!();
}

fn a4_partial_worst_case(scale: Scale) {
    let rows = scale.rows(200_000);
    let n_queries = 40;
    println!("## A4 — partial loading worst case (§5.5): {n_queries} point queries");
    let path = dataset(rows, 4, 24);
    let w = [16, 12, 10];
    nodb_bench::header(&["strategy", "total-time", "trips"], &w);
    for strategy in [
        LoadingStrategy::PartialLoadsV2,
        LoadingStrategy::ColumnLoads,
    ] {
        let mut cfg = EngineConfig::with_strategy(strategy);
        cfg.escalate_after_misses = 0; // measure the raw worst case, no advisor rescue
        cfg.store_dir = Some(scratch_dir(&format!("a4-{}", strategy.label())));
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        let before = e.counters().snapshot();
        let (_, t) = time(|| {
            for q in 0..n_queries {
                // Each query fetches exactly one tuple: a1 = q.
                let filter = Conjunction::new(vec![ColPred::new(0, CmpOp::Eq, q as i64)]);
                let sql = format!("select sum(a2) from r where {}", to_where(&[filter]));
                e.sql(&sql).unwrap();
            }
        });
        let work = e.counters().snapshot().since(&before);
        nodb_bench::row(
            &[strategy.label().into(), ms(t), work.file_trips.to_string()],
            &w,
        );
    }
    println!();
}
