//! Property tests for the cold first touch: for *any* generated table
//! (mixed dtypes, quoted or unquoted fields, NULLs, non-ASCII text) and
//! *any* projection, aggregate or join query (LIMIT/OFFSET, ORDER BY,
//! shifting predicates), a parallel engine, whose cold tables load in one
//! parallel pass and are then answered by the warm path, must produce
//! byte-identical results to a single-threaded engine's serial policy
//! load — across thread counts and morsel sizes that cut the file into
//! many chunks — and must leave the adaptive store and positional map in
//! exactly the state the serial load produces. Quoted files take the
//! loader's whole-file boundary source, unquoted ones the one-pass chunk
//! walk.

mod common;

use common::test_dir;
use nodb::core::{Engine, EngineConfig};
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

/// Serial reference engine (threads = 1, the policy load) and a parallel
/// engine (threads > 1, the one-pass loader), both with the same dialect,
/// the same `morsel_rows` (an aggregate's float bits depend on it) and
/// private store dirs.
fn engine_pair(
    dir: &std::path::Path,
    quote: Option<u8>,
    threads: usize,
    morsel_rows: usize,
) -> (Engine, Engine) {
    let mut serial_cfg = EngineConfig::default().with_threads(1);
    serial_cfg.csv.quote = quote;
    serial_cfg.morsel_rows = morsel_rows;
    serial_cfg.store_dir = Some(dir.join("store-serial"));
    let mut par_cfg = EngineConfig::default().with_threads(threads);
    par_cfg.csv.quote = quote;
    par_cfg.morsel_rows = morsel_rows;
    par_cfg.store_dir = Some(dir.join("store-par"));
    (Engine::new(serial_cfg), Engine::new(par_cfg))
}

/// Adaptive-store and positional-map state must match the serial load's.
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

/// Run `sqls` on both engines and compare the rows. The first query runs
/// cold on `par` and is then repeated warm: the cold run must have counted
/// exactly one more parallel pipeline per table whose load was cut into
/// chunks (`parallel_loads`) than its warm repeat.
fn check_queries(
    serial: &Engine,
    par: &Engine,
    sqls: &[String],
    parallel_loads: u64,
) -> Result<(), TestCaseError> {
    for (i, sql) in sqls.iter().enumerate() {
        let expect = serial
            .sql(sql)
            .map_err(|e| TestCaseError::fail(format!("serial {sql}: {e}")))?;
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
    let (serial, par) = engine_pair(&dir, quote, threads, morsel_rows);
    serial.register_table("t", &path).unwrap();
    par.register_table("t", &path).unwrap();
    let sqls = [
        format!(
            "select a2, a3 from t where a1 > {lo} and a1 < {}{tail}",
            lo + width
        ),
        format!("select a3, a1 from t{tail}"),
        format!("select a1 from t where a3 >= {width}{tail}"),
    ];
    let parallel = u64::from(loads_parallel(rows, morsel_rows));
    check_queries(&serial, &par, &sqls, parallel)?;
    assert_state_matches(&serial, &par, "t")
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
    let (serial, par) = engine_pair(&dir, quote, threads, morsel_rows);
    serial.register_table("t", &path).unwrap();
    par.register_table("t", &path).unwrap();
    let sqls = [
        format!("select count(*), sum(a1), min(a2), max(a2), count(a2) from t where a1 > {lo}"),
        "select a1, count(*), sum(a3), min(a2) from t group by a1 order by a1".to_owned(),
        format!("select avg(a3), max(a1), count(*) from t where a3 >= {lo}"),
    ];
    let parallel = u64::from(loads_parallel(rows, morsel_rows));
    check_queries(&serial, &par, &sqls, parallel)?;
    assert_state_matches(&serial, &par, "t")
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
    let (serial, par) = engine_pair(&dir, quote, threads, morsel_rows);
    for e in [&serial, &par] {
        e.register_table("r", &r_path).unwrap();
        e.register_table("s", &s_path).unwrap();
    }
    let sqls = [
        format!("select r.a2, s.a2 from r join s on r.a1 = s.a1 where r.a1 > {key_gt}{tail}"),
        format!(
            "select count(*), sum(s.a2), min(s.a2) from r join s on r.a1 = s.a1 \
             where s.a2 < {val_lt}"
        ),
    ];
    let parallel = u64::from(loads_parallel(left.len(), morsel_rows))
        + u64::from(loads_parallel(right.len(), morsel_rows));
    check_queries(&serial, &par, &sqls, parallel)?;
    assert_state_matches(&serial, &par, "r")?;
    assert_state_matches(&serial, &par, "s")
}

/// `morsel_rows` of the unquoted twins: one row, a few rows, the default.
fn unquoted_morsel_rows() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1), Just(3), Just(DEFAULT_MORSEL_ROWS)]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case builds 2 engines and runs 3 queries
        .. ProptestConfig::default()
    })]

    /// Cold scalar projections over quoted files: serial vs parallel
    /// parity over dtypes × quoted fields × chunk splits ×
    /// LIMIT/OFFSET/ORDER BY.
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

    /// The unquoted twin: the one-pass chunk walk, against the serial
    /// policy load, at `morsel_rows` {1, 3, default}.
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

    /// Cold joins over quoted files: serial vs parallel parity (both sides
    /// loaded, then the warm join) over dtypes × quoted payloads × chunk
    /// splits × LIMIT/OFFSET, for scalar and aggregate outputs.
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
