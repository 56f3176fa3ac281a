//! Behavioural assertions on the adaptive machinery: not just *what* each
//! policy answers but *how much work* it does — trips to the file, bytes
//! read, reuse of loaded state. These encode the paper's qualitative claims
//! as tests.

mod common;

use common::{engine_in, test_dir};
use nodb::core::{Engine, EngineConfig, LoadingStrategy};
use nodb::rawcsv::gen::write_unique_int_table;
use nodb::Value;

fn setup(name: &str, rows: usize, cols: usize) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = test_dir(name);
    let path = dir.join("t.csv");
    write_unique_int_table(&path, rows, cols, 42).unwrap();
    (dir, path)
}

#[test]
fn full_load_pays_once_up_front() {
    let (dir, path) = setup("fl", 2000, 6);
    let e = engine_in(&dir, LoadingStrategy::FullLoad);
    e.register_table("t", &path).unwrap();
    let q1 = e.sql("select sum(a1) from t").unwrap();
    // Every column parsed although one was referenced.
    assert_eq!(q1.stats.work.values_parsed, 2000 * 6);
    for sql in ["select sum(a5) from t", "select min(a6), max(a2) from t"] {
        let out = e.sql(sql).unwrap();
        assert_eq!(out.stats.work.file_trips, 0, "{sql}");
        assert_eq!(out.stats.work.values_parsed, 0);
    }
}

#[test]
fn external_scan_never_learns() {
    let (dir, path) = setup("ext", 1000, 4);
    let e = engine_in(&dir, LoadingStrategy::ExternalScan);
    e.register_table("t", &path).unwrap();
    let mut trips = Vec::new();
    for _ in 0..3 {
        let out = e.sql("select sum(a2) from t where a1 < 500").unwrap();
        trips.push((out.stats.work.file_trips, out.stats.work.values_parsed));
    }
    // Identical cost every time: the whole file, all columns.
    assert!(trips.iter().all(|&t| t == (1, 4000)), "{trips:?}");
    let info = e.table_info("t").unwrap();
    assert_eq!(info.store_bytes, 0, "keeps no state");
}

#[test]
fn column_loads_amortises_by_column() {
    let (dir, path) = setup("cl", 3000, 6);
    let e = engine_in(&dir, LoadingStrategy::ColumnLoads);
    e.register_table("t", &path).unwrap();
    // Query 1 loads a1, a2.
    let out = e.sql("select sum(a1), avg(a2) from t").unwrap();
    assert_eq!(out.stats.work.values_parsed, 6000);
    // Same columns: free.
    let out = e.sql("select max(a2) from t where a1 > 10").unwrap();
    assert_eq!(out.stats.work.file_trips, 0);
    // New column: one trip, only that column parsed.
    let out = e.sql("select sum(a6) from t").unwrap();
    assert_eq!(out.stats.work.file_trips, 1);
    assert_eq!(out.stats.work.values_parsed, 3000);
    let info = e.table_info("t").unwrap();
    assert_eq!(info.loaded_columns, vec![0, 1, 5]);
}

#[test]
fn partial_v2_reuses_fragments_and_fills_gaps() {
    let (dir, path) = setup("v2", 4000, 3);
    let e = engine_in(&dir, LoadingStrategy::PartialLoadsV2);
    e.register_table("t", &path).unwrap();
    // Load (1000, 2000).
    e.sql("select sum(a2) from t where a1 > 1000 and a1 < 2000")
        .unwrap();
    // Covered rerun and sub-range: no trips.
    for sql in [
        "select sum(a2) from t where a1 > 1000 and a1 < 2000",
        "select sum(a2) from t where a1 > 1200 and a1 < 1500",
    ] {
        let out = e.sql(sql).unwrap();
        assert_eq!(out.stats.work.file_trips, 0, "{sql}");
    }
    // Extending range: fetches only the gap (2000, 2500) — qualifying
    // values are 500 of 4000 rows; full-file row count is still tokenized
    // but only the gap's tuples are stored.
    let before = e.counters().snapshot();
    let out = e
        .sql("select sum(a2) from t where a1 > 1000 and a1 < 2500")
        .unwrap();
    assert_eq!(out.stats.work.file_trips, 1);
    let delta = e.counters().snapshot().since(&before);
    assert!(
        delta.rows_abandoned >= 3400,
        "gap scan abandons non-matching rows"
    );
    // Union now covers the wider range.
    let out = e
        .sql("select sum(a2) from t where a1 > 1100 and a1 < 2400")
        .unwrap();
    assert_eq!(out.stats.work.file_trips, 0);
}

#[test]
fn split_files_reads_shrink_per_column() {
    let (dir, path) = setup("sf", 3000, 10);
    let e = engine_in(&dir, LoadingStrategy::SplitFiles);
    e.register_table("t", &path).unwrap();
    let raw_len = std::fs::metadata(&path).unwrap().len();
    // First query: splits (reads whole file once, writes split files).
    let q1 = e.sql("select sum(a10) from t").unwrap();
    assert!(q1.stats.work.bytes_written > 0);
    // Second query on another column: reads just that column's file,
    // roughly raw_len / 10.
    let q2 = e.sql("select sum(a3) from t").unwrap();
    assert_eq!(q2.stats.work.file_trips, 1);
    assert!(
        q2.stats.work.bytes_read < raw_len / 5,
        "read {} of raw {}",
        q2.stats.work.bytes_read,
        raw_len
    );
    let info = e.table_info("t").unwrap();
    assert_eq!(info.segments, 10, "fully split");
}

#[test]
fn positional_map_reduces_tokenization() {
    let (dir, path) = setup("pm", 2000, 8);
    let run = |use_posmap: bool| -> u64 {
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::PartialLoadsV1);
        cfg.threads = 1;
        cfg.use_positional_map = use_posmap;
        cfg.store_dir = Some(dir.join(format!("store-pm-{use_posmap}")));
        let e = Engine::new(cfg);
        e.register_table("t", &path).unwrap();
        // Walk to a late column twice; the second scan benefits from the map.
        e.sql("select sum(a7) from t where a7 >= 0").unwrap();
        let out = e.sql("select sum(a8) from t where a8 >= 0").unwrap();
        out.stats.work.fields_tokenized
    };
    let with_map = run(true);
    let without = run(false);
    assert!(
        with_map * 3 < without,
        "posmap should skip leading fields: {with_map} vs {without}"
    );
}

#[test]
fn monitor_escalates_thrashing_workloads() {
    let (dir, path) = setup("mon", 3000, 4);
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::PartialLoadsV2);
    cfg.threads = 1;
    cfg.escalate_after_misses = 2;
    cfg.store_dir = Some(dir.join("store-mon"));
    let e = Engine::new(cfg);
    e.register_table("t", &path).unwrap();
    // Disjoint 2-D boxes: every query misses the fragment cache.
    for i in 0..5i64 {
        let lo = i * 300;
        let sql = format!(
            "select sum(a1) from t where a1 > {lo} and a1 < {} and a2 > 0 and a2 < 2999",
            lo + 200
        );
        e.sql(&sql).unwrap();
    }
    // After escalation the referenced columns are fully loaded...
    let info = e.table_info("t").unwrap();
    assert!(info.loaded_columns.contains(&0));
    assert!(info.loaded_columns.contains(&1));
    // ...and new disjoint boxes stop touching the file.
    let out = e
        .sql("select sum(a1) from t where a1 > 2500 and a1 < 2700 and a2 > 1 and a2 < 2998")
        .unwrap();
    assert_eq!(out.stats.work.file_trips, 0);
}

#[test]
fn eviction_keeps_budget_and_correctness() {
    let (dir, path) = setup("evict", 5000, 5);
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
    cfg.threads = 1;
    cfg.memory_budget = Some(90_000); // two 40 KB columns fit, five don't
    cfg.store_dir = Some(dir.join("store-ev"));
    let e = Engine::new(cfg);
    e.register_table("t", &path).unwrap();
    let mut expected = Vec::new();
    for c in 1..=5 {
        let out = e.sql(&format!("select sum(a{c}) from t")).unwrap();
        expected.push(out.rows[0][0].clone());
    }
    assert!(e.table_info("t").unwrap().store_bytes <= 90_000);
    assert!(e.counters().snapshot().tuples_evicted > 0);
    // Evicted columns reload transparently with the same results.
    for (i, want) in expected.iter().enumerate() {
        let out = e.sql(&format!("select sum(a{}) from t", i + 1)).unwrap();
        assert_eq!(&out.rows[0][0], want);
    }
}

#[test]
fn one_column_per_trip_costs_more_trips() {
    let (dir, path) = setup("percol", 1000, 5);
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
    cfg.threads = 1;
    cfg.one_column_per_trip = true;
    cfg.store_dir = Some(dir.join("store-pc"));
    let e = Engine::new(cfg);
    e.register_table("t", &path).unwrap();
    let out = e.sql("select sum(a1), sum(a3), sum(a5) from t").unwrap();
    assert_eq!(out.stats.work.file_trips, 3);
}

#[test]
fn cracking_through_the_engine_matches_scans() {
    let (dir, path) = setup("crack", 4000, 4);
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
    cfg.threads = 1;
    cfg.use_cracking = true;
    cfg.store_dir = Some(dir.join("store-crack"));
    let e = Engine::new(cfg);
    e.register_table("t", &path).unwrap();
    let scan = engine_in(&dir, LoadingStrategy::ColumnLoads);
    scan.register_table("t", &path).unwrap();
    // A sequence of overlapping/narrowing/multi-predicate queries: the
    // cracked engine must agree with the scanning engine on every one.
    let queries = [
        "select sum(a2), count(*) from t where a1 > 500 and a1 < 2500",
        "select sum(a2), count(*) from t where a1 > 500 and a1 < 2500",
        "select sum(a2) from t where a1 > 1000 and a1 < 1500 and a2 > 100",
        "select a2 from t where a1 = 777",
        "select min(a3), max(a3) from t where a1 >= 3990",
        "select a1 from t where a1 > 3995 order by a1",
    ];
    for sql in queries {
        let a = e.sql(sql).unwrap();
        let b = scan.sql(sql).unwrap();
        assert_eq!(a.rows, b.rows, "{sql}");
    }
}

#[test]
fn cracking_converges_to_cheaper_selections() {
    let (dir, path) = setup("crackperf", 50_000, 2);
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
    cfg.threads = 1;
    cfg.use_cracking = true;
    cfg.store_dir = Some(dir.join("store-cp"));
    let e = Engine::new(cfg);
    e.register_table("t", &path).unwrap();
    let range = "from t where a1 > 10000 and a1 < 15000";
    let touched = |e: &Engine| e.counters().snapshot().crack_rows_touched;
    // Warm: load + first crack. Splitting pieces at both bounds
    // partitions rows beyond the ones the range selects.
    let selected = match e.sql(&format!("select count(*) {range}")).unwrap().scalar() {
        Some(Value::Int(n)) => *n as u64,
        other => panic!("count(*) returned {other:?}"),
    };
    let first = touched(&e);
    assert!(first > selected, "first crack touched {first} rows");
    // Converged repeats split no further pieces: each handles exactly the
    // rows it selects — never more than the 50 000 a plain engine's scan
    // of the resident column examines for the same answer.
    for _ in 0..5 {
        e.sql(&format!("select sum(a2) {range}")).unwrap();
    }
    assert_eq!(touched(&e) - first, 5 * selected);
    assert!(selected <= 50_000);
    // The plain engine answers the same without any index work.
    let plain = engine_in(&dir, LoadingStrategy::ColumnLoads);
    plain.register_table("t", &path).unwrap();
    assert_eq!(
        plain.sql(&format!("select sum(a2) {range}")).unwrap().rows,
        e.sql(&format!("select sum(a2) {range}")).unwrap().rows
    );
    assert_eq!(touched(&plain), 0);
}

#[test]
fn cold_restart_via_persisted_columns() {
    let (dir, path) = setup("cold", 2000, 3);
    let e = engine_in(&dir, LoadingStrategy::FullLoad);
    e.register_table("t", &path).unwrap();
    let want = e.sql("select sum(a1), sum(a3) from t").unwrap().rows;
    let cold = dir.join("cold-store");
    assert_eq!(e.persist_table("t", &cold).unwrap(), 3);

    // "Restart": a fresh engine restores binary columns, no CSV parsing.
    let e2 = engine_in(&dir, LoadingStrategy::FullLoad);
    e2.register_table("t", &path).unwrap();
    assert_eq!(e2.restore_table("t", &cold).unwrap(), 3);
    let before = e2.counters().snapshot();
    let out = e2.sql("select sum(a1), sum(a3) from t").unwrap();
    assert_eq!(out.rows, want);
    assert_eq!(
        e2.counters().snapshot().since(&before).values_parsed,
        0,
        "no CSV re-parse after restore"
    );
}
