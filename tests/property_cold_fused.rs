//! Property tests for the cold first touch: for *any* generated table
//! (mixed dtypes, quoted or unquoted fields, NULLs, non-ASCII text) and
//! *any* projection, aggregate or join query (LIMIT/OFFSET, ORDER BY,
//! shifting predicates), an engine whose cold tables load through the
//! column loader and are then answered by the warm path must produce
//! byte-identical results to an `ExternalScan` engine, which re-parses
//! the file with `scan_bytes` on every query — at one thread and at
//! several, with morsel sizes that cut the file into many chunks. The
//! parallel engine must also leave the adaptive store and positional map
//! in exactly the state the same load leaves on one thread. Quoted files
//! take the loader's whole-file boundary source, unquoted ones the
//! one-pass chunk walk.

mod common;

use common::test_dir;
use nodb::core::{Engine, EngineConfig, LoadingStrategy};
use nodb::exec::DEFAULT_MORSEL_ROWS;
use proptest::prelude::*;

/// RFC-4180-quote a field when it needs it.
fn quote_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// One payload cell of the chosen dtype; string payloads exercise quoted
/// fields (embedded commas and quotes).
fn payload_cell(ty: u8, seed: u8) -> String {
    match ty % 3 {
        0 => (seed as i64 - 40).to_string(),
        1 => format!("{}.5", seed % 50),
        _ => quote_field(&match seed % 4 {
            0 => "x,y".to_owned(),
            1 => "he said \"hi\"".to_owned(),
            2 => format!("s{}", seed % 7),
            _ => "plain".to_owned(),
        }),
    }
}

/// One payload cell of an unquoted file: NULLs (empty fields), padded
/// numbers and non-ASCII text, never a delimiter inside a field.
fn unquoted_cell(ty: u8, seed: u8) -> String {
    if seed.is_multiple_of(11) {
        return String::new();
    }
    match ty % 3 {
        0 => format!(" {}", seed as i64 - 40),
        1 => format!("{}.25", seed % 50),
        _ => match seed % 4 {
            0 => "é中🦀".to_owned(),
            1 => "x y".to_owned(),
            2 => format!("s{}", seed % 7),
            _ => "plain".to_owned(),
        },
    }
}

/// The engines a case compares, all with the same dialect, the same
/// `morsel_rows` (an aggregate's float bits depend on it) and private
/// store dirs.
struct Engines {
    /// The reference: `ExternalScan` keeps no state and parses the whole
    /// file with `scan_bytes` on every query, so it shares no load code
    /// with the column loader.
    external: Engine,
    /// The column loader at threads = 1: its chunks run inline.
    serial: Engine,
    /// The column loader at threads > 1: its chunks run in parallel.
    par: Engine,
}

impl Engines {
    fn new(dir: &std::path::Path, quote: Option<u8>, threads: usize, morsel_rows: usize) -> Self {
        let engine = |strategy, threads, store: &str| {
            let mut cfg = EngineConfig::with_strategy(strategy).with_threads(threads);
            cfg.csv.quote = quote;
            cfg.morsel_rows = morsel_rows;
            cfg.store_dir = Some(dir.join(store));
            Engine::new(cfg)
        };
        Engines {
            external: engine(LoadingStrategy::ExternalScan, 1, "store-external"),
            serial: engine(LoadingStrategy::ColumnLoads, 1, "store-serial"),
            par: engine(LoadingStrategy::ColumnLoads, threads, "store-par"),
        }
    }

    fn register(&self, table: &str, path: &std::path::Path) {
        for e in [&self.external, &self.serial, &self.par] {
            e.register_table(table, path).unwrap();
        }
    }
}

/// Adaptive-store and positional-map state must match the one-thread
/// load's.
fn assert_state_matches(serial: &Engine, par: &Engine, table: &str) -> Result<(), TestCaseError> {
    let si = serial
        .table_info(table)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let pi = par
        .table_info(table)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(&pi.loaded_columns, &si.loaded_columns, "{}", table);
    prop_assert_eq!(pi.store_bytes, si.store_bytes, "{}", table);
    prop_assert_eq!(pi.posmap_bytes, si.posmap_bytes, "{}", table);
    Ok(())
}

/// Whether a cold load of a `rows`-row file runs more than one chunk.
/// A chunk is `morsel_rows` times the mean width of (at most) the first 64
/// rows, so with `morsel_rows < 64` every file of more rows than that is
/// cut at least once.
fn loads_parallel(rows: usize, morsel_rows: usize) -> bool {
    rows > morsel_rows && morsel_rows < 64
}

/// Run `sqls` on every engine and compare each one's rows with the
/// reference's. The first query runs cold on `par` and is then repeated
/// warm: the cold run must have counted exactly one more parallel pipeline
/// per table whose load was cut into chunks (`parallel_loads`) than its
/// warm repeat.
fn check_queries(e: &Engines, sqls: &[String], parallel_loads: u64) -> Result<(), TestCaseError> {
    let par = &e.par;
    for (i, sql) in sqls.iter().enumerate() {
        let expect = e
            .external
            .sql(sql)
            .map_err(|e| TestCaseError::fail(format!("external {sql}: {e}")))?;
        let serial = e
            .serial
            .sql(sql)
            .map_err(|e| TestCaseError::fail(format!("serial {sql}: {e}")))?;
        prop_assert_eq!(&serial.rows, &expect.rows, "serial {}", sql);
        let before = par.counters().snapshot();
        let got = par
            .sql(sql)
            .map_err(|e| TestCaseError::fail(format!("parallel {sql}: {e}")))?;
        prop_assert_eq!(&got.rows, &expect.rows, "{}", sql);
        if i == 0 {
            let cold = par.counters().snapshot().since(&before);
            let before = par.counters().snapshot();
            let warm_rows = par
                .sql(sql)
                .map_err(|e| TestCaseError::fail(format!("warm {sql}: {e}")))?;
            prop_assert_eq!(&warm_rows.rows, &expect.rows, "warm {}", sql);
            let warm = par.counters().snapshot().since(&before);
            prop_assert_eq!(warm.file_trips, 0, "warm {}", sql);
            prop_assert_eq!(
                cold.parallel_pipelines,
                warm.parallel_pipelines + parallel_loads,
                "{}: the cold load's parallel pass",
                sql
            );
        }
    }
    Ok(())
}

/// The benchmark's `adaptive_sequence` shape: a query on `(a1, a2)`, then
/// one on `(a2, a4)`. `a2` is loaded by then, so the second query loads
/// `a4` alone: one parallel trip, guided by the positional map the first
/// one left, that parses one value per row and leaves the state the same
/// load leaves on one thread.
#[test]
fn a_partly_loaded_column_set_loads_only_its_missing_column() {
    let dir = test_dir("cold_partly_loaded");
    let path = dir.join("t.csv");
    let rows = 2_000;
    common::write_int_table(&path, rows, 4);
    let e = Engines::new(&dir, None, 2, 64);
    e.register("t", &path);
    let sqls = [
        "select sum(a1), max(a2) from t where a1 > 100".to_owned(),
        "select sum(a2), max(a4), count(*) from t where a2 > 100".to_owned(),
    ];
    check_queries(&e, &sqls[..1], 1).unwrap();
    let before = e.par.counters().snapshot();
    check_queries(&e, &sqls[1..], 1).unwrap();
    // The cold run and its warm repeat, together.
    let second = e.par.counters().snapshot().since(&before);
    assert_eq!(second.file_trips, 1, "{second}");
    assert_eq!(second.values_parsed, rows as u64, "only a4 is parsed");
    assert_state_matches(&e.serial, &e.par, "t").unwrap();
}

/// `LIMIT l [OFFSET o]` and `ORDER BY` tails.
fn tail(order: Option<&str>, limit: Option<usize>, offset: Option<usize>) -> String {
    let mut tail = String::new();
    if let Some(o) = order {
        tail.push_str(&format!(" order by {o}"));
    }
    if let Some(l) = limit {
        tail.push_str(&format!(" limit {l}"));
        // The grammar only accepts OFFSET after LIMIT.
        if let Some(o) = offset {
            tail.push_str(&format!(" offset {o}"));
        }
    }
    tail
}

/// A single-table file: a1 small int key (filterable), a2 typed payload,
/// a3 row id.
fn single_table(seeds: &[u8], cell: impl Fn(u8) -> String) -> String {
    let mut csv = String::new();
    for (i, &s) in seeds.iter().enumerate() {
        csv.push_str(&format!("{},{},{}\n", s % 23, cell(s), i));
    }
    csv
}

#[allow(clippy::too_many_arguments)]
fn projection_case(
    tag: &str,
    quote: Option<u8>,
    csv: String,
    rows: usize,
    lo: i64,
    width: i64,
    threads: usize,
    morsel_rows: usize,
    tail: &str,
) -> Result<(), TestCaseError> {
    let dir = test_dir(&format!("coldproj_{tag}_{rows}_{morsel_rows}"));
    let path = dir.join("t.csv");
    std::fs::write(&path, csv).unwrap();
    let e = Engines::new(&dir, quote, threads, morsel_rows);
    e.register("t", &path);
    let sqls = [
        format!(
            "select a2, a3 from t where a1 > {lo} and a1 < {}{tail}",
            lo + width
        ),
        format!("select a3, a1 from t{tail}"),
        format!("select a1 from t where a3 >= {width}{tail}"),
    ];
    let parallel = u64::from(loads_parallel(rows, morsel_rows));
    check_queries(&e, &sqls, parallel)?;
    assert_state_matches(&e.serial, &e.par, "t")
}

fn aggregate_case(
    tag: &str,
    quote: Option<u8>,
    csv: String,
    rows: usize,
    lo: i64,
    threads: usize,
    morsel_rows: usize,
) -> Result<(), TestCaseError> {
    let dir = test_dir(&format!("coldagg_{tag}_{rows}_{morsel_rows}"));
    let path = dir.join("t.csv");
    std::fs::write(&path, csv).unwrap();
    let e = Engines::new(&dir, quote, threads, morsel_rows);
    e.register("t", &path);
    let sqls = [
        format!("select count(*), sum(a1), min(a2), max(a2), count(a2) from t where a1 > {lo}"),
        "select a1, count(*), sum(a3), min(a2) from t group by a1 order by a1".to_owned(),
        format!("select avg(a3), max(a1), count(*) from t where a3 >= {lo}"),
    ];
    let parallel = u64::from(loads_parallel(rows, morsel_rows));
    check_queries(&e, &sqls, parallel)?;
    assert_state_matches(&e.serial, &e.par, "t")
}

#[allow(clippy::too_many_arguments)]
fn join_case(
    tag: &str,
    quote: Option<u8>,
    left: &[u8],
    right: &[u8],
    cell: impl Fn(u8) -> String,
    key_gt: i64,
    val_lt: i64,
    threads: usize,
    morsel_rows: usize,
    tail: &str,
) -> Result<(), TestCaseError> {
    let dir = test_dir(&format!("coldjoin_{tag}_{}_{}", left.len(), right.len()));
    let r_path = dir.join("r.csv");
    let s_path = dir.join("s.csv");
    let mut rd = String::new();
    for &s in left {
        // r.a1: join key with duplicates, r.a2: typed payload.
        rd.push_str(&format!("{},{}\n", s % 17, cell(s)));
    }
    let mut sd = String::new();
    for (j, &s) in right.iter().enumerate() {
        // s.a1: join key, s.a2: int payload (exact aggregates).
        sd.push_str(&format!("{},{}\n", s % 17, j as i64 - 10));
    }
    std::fs::write(&r_path, rd).unwrap();
    std::fs::write(&s_path, sd).unwrap();
    let e = Engines::new(&dir, quote, threads, morsel_rows);
    e.register("r", &r_path);
    e.register("s", &s_path);
    let sqls = [
        format!("select r.a2, s.a2 from r join s on r.a1 = s.a1 where r.a1 > {key_gt}{tail}"),
        format!(
            "select count(*), sum(s.a2), min(s.a2) from r join s on r.a1 = s.a1 \
             where s.a2 < {val_lt}"
        ),
    ];
    let parallel = u64::from(loads_parallel(left.len(), morsel_rows))
        + u64::from(loads_parallel(right.len(), morsel_rows));
    check_queries(&e, &sqls, parallel)?;
    assert_state_matches(&e.serial, &e.par, "r")?;
    assert_state_matches(&e.serial, &e.par, "s")
}

/// `morsel_rows` of the unquoted twins: one row, a few rows, the default.
fn unquoted_morsel_rows() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1), Just(3), Just(DEFAULT_MORSEL_ROWS)]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case builds 3 engines and runs 3 queries
        .. ProptestConfig::default()
    })]

    /// Cold scalar projections over quoted files: loader vs `scan_bytes`
    /// parity, at one thread and several, over dtypes × quoted fields ×
    /// chunk splits × LIMIT/OFFSET/ORDER BY.
    #[test]
    fn cold_projection_parity(
        seeds in proptest::collection::vec(0u8..=255, 1..120),
        payload_ty in 0u8..3,
        lo in -2i64..24,
        width in 0i64..26,
        threads in 2usize..5,
        morsel_rows in 1usize..14,
        limit in proptest::option::of(0usize..30),
        offset in proptest::option::of(0usize..10),
        order in proptest::bool::ANY,
    ) {
        let csv = single_table(&seeds, |s| payload_cell(payload_ty, s));
        let tail = tail(order.then_some("a3 desc"), limit, offset);
        projection_case(
            "q", Some(b'"'), csv, seeds.len(), lo, width, threads, morsel_rows, &tail,
        )?;
    }

    /// The unquoted twin: the one-pass chunk walk, against the
    /// `ExternalScan` reference, at `morsel_rows` {1, 3, default}.
    #[test]
    fn cold_projection_parity_unquoted(
        seeds in proptest::collection::vec(0u8..=255, 1..120),
        payload_ty in 0u8..3,
        lo in -2i64..24,
        width in 0i64..26,
        threads in 2usize..5,
        morsel_rows in unquoted_morsel_rows(),
        limit in proptest::option::of(0usize..30),
        offset in proptest::option::of(0usize..10),
        order in proptest::bool::ANY,
    ) {
        let csv = single_table(&seeds, |s| unquoted_cell(payload_ty, s));
        let tail = tail(order.then_some("a3 desc"), limit, offset);
        projection_case("u", None, csv, seeds.len(), lo, width, threads, morsel_rows, &tail)?;
    }

    /// Cold aggregates and GROUP BY over unquoted files, with NULL and
    /// string payloads, at `morsel_rows` {1, 3, default}.
    #[test]
    fn cold_aggregate_parity_unquoted(
        seeds in proptest::collection::vec(0u8..=255, 1..120),
        payload_ty in 0u8..3,
        lo in -2i64..40,
        threads in 2usize..5,
        morsel_rows in unquoted_morsel_rows(),
    ) {
        let csv = single_table(&seeds, |s| unquoted_cell(payload_ty, s));
        aggregate_case("u", None, csv, seeds.len(), lo, threads, morsel_rows)?;
    }

    /// Cold joins over quoted files: loader vs `scan_bytes` parity (both
    /// sides loaded, then the warm join) over dtypes × quoted payloads ×
    /// chunk splits × LIMIT/OFFSET, for scalar and aggregate outputs.
    #[test]
    fn cold_join_parity(
        left in proptest::collection::vec(0u8..=255, 1..90),
        right in proptest::collection::vec(0u8..=255, 1..90),
        payload_ty in 0u8..3,
        key_gt in -2i64..17,
        val_lt in 0i64..80,
        threads in 2usize..5,
        morsel_rows in 1usize..14,
        limit in proptest::option::of(0usize..25),
        offset in proptest::option::of(0usize..8),
    ) {
        let tail = tail(None, limit, offset);
        join_case(
            "q", Some(b'"'), &left, &right, |s| payload_cell(payload_ty, s),
            key_gt, val_lt, threads, morsel_rows, &tail,
        )?;
    }

    /// The unquoted twin of the join property, at `morsel_rows`
    /// {1, 3, default}.
    #[test]
    fn cold_join_parity_unquoted(
        left in proptest::collection::vec(0u8..=255, 1..90),
        right in proptest::collection::vec(0u8..=255, 1..90),
        payload_ty in 0u8..3,
        key_gt in -2i64..17,
        val_lt in 0i64..80,
        threads in 2usize..5,
        morsel_rows in unquoted_morsel_rows(),
        limit in proptest::option::of(0usize..25),
        offset in proptest::option::of(0usize..8),
    ) {
        let tail = tail(None, limit, offset);
        join_case(
            "u", None, &left, &right, |s| unquoted_cell(payload_ty, s),
            key_gt, val_lt, threads, morsel_rows, &tail,
        )?;
    }
}
