//! The session-centric query API end to end: prepared statements with `?`
//! parameters, the engine plan cache, streaming batches, LIMIT/OFFSET,
//! CREATE TABLE AS SELECT and results-as-tables.

mod common;

use std::sync::Arc;

use common::{engine_in, test_dir, write_int_table, write_mixed_table};
use nodb::core::{Engine, EngineConfig, LoadingStrategy, Session};
use nodb::types::Value;

fn session_over(name: &str, rows: usize) -> (std::path::PathBuf, Session) {
    let dir = test_dir(name);
    let path = dir.join("t.csv");
    write_int_table(&path, rows, 4);
    let e = Arc::new(engine_in(&dir, LoadingStrategy::ColumnLoads));
    e.register_table("t", &path).unwrap();
    (dir, e.session())
}

#[test]
fn prepared_bind_matches_engine_sql() {
    let (_d, s) = session_over("prep_match", 100);
    let stmt = s
        .prepare("select sum(a1), count(*) from t where a1 > ? and a1 < ?")
        .unwrap();
    assert_eq!(stmt.n_params(), 2);
    for (lo, hi) in [(0i64, 100), (100, 400), (-5, 1200)] {
        let bound = stmt.bind(&[Value::Int(lo), Value::Int(hi)]).unwrap();
        let got = bound.execute().unwrap();
        let want = s
            .engine()
            .sql(&format!(
                "select sum(a1), count(*) from t where a1 > {lo} and a1 < {hi}"
            ))
            .unwrap();
        assert_eq!(got.rows, want.rows, "({lo}, {hi})");
    }
}

#[test]
fn prepared_reexecution_does_no_front_end_work() {
    let (_d, s) = session_over("prep_amortize", 50);
    let stmt = s
        .prepare("select sum(a2) from t where a1 > ? and a1 < ?")
        .unwrap();
    // Warm both the adaptive store and the statement.
    stmt.execute(&[Value::Int(0), Value::Int(500)]).unwrap();

    let counters = s.engine().counters();
    let before = counters.snapshot();
    for hi in [100i64, 200, 300, 400] {
        stmt.execute(&[Value::Int(0), Value::Int(hi)]).unwrap();
    }
    let delta = counters.snapshot().since(&before);
    // Zero parse/plan work: re-execution neither hits nor misses the
    // plan cache (the plan is already in hand) and touches no file.
    assert_eq!(delta.plan_cache_hits, 0, "no cache lookups at all");
    assert_eq!(delta.plan_cache_misses, 0, "no replanning");
    assert_eq!(delta.file_trips, 0);
    assert_eq!(delta.values_parsed, 0);
}

#[test]
fn plan_cache_serves_unprepared_repeats() {
    let (_d, s) = session_over("plan_cache", 50);
    let counters = s.engine().counters();
    let q = "select sum(a1) from t where a1 > 5 and a1 < 900";

    let before = counters.snapshot();
    let first = s.sql(q).unwrap();
    let d1 = counters.snapshot().since(&before);
    assert_eq!(d1.plan_cache_misses, 1);
    assert_eq!(d1.plan_cache_hits, 0);

    let before = counters.snapshot();
    // Case and whitespace changes still hit: the key is normalized text.
    let second = s
        .sql("SELECT  sum(A1)\nFROM t WHERE a1 > 5 AND a1 < 900")
        .unwrap();
    let d2 = counters.snapshot().since(&before);
    assert_eq!(d2.plan_cache_hits, 1, "normalized repeat is a hit");
    assert_eq!(d2.plan_cache_misses, 0);
    assert_eq!(first.rows, second.rows);
}

#[test]
fn plan_cache_invalidated_by_file_edit() {
    let dir = test_dir("plan_cache_edit");
    let path = dir.join("t.csv");
    std::fs::write(&path, "1,2\n3,4\n").unwrap();
    let e = Arc::new(engine_in(&dir, LoadingStrategy::ColumnLoads));
    e.register_table("t", &path).unwrap();
    let q = "select sum(a1) from t";
    assert_eq!(e.sql(q).unwrap().scalar(), Some(&Value::Int(4)));
    assert_eq!(e.sql(q).unwrap().scalar(), Some(&Value::Int(4)));
    let warm = e.counters().snapshot();
    assert_eq!(warm.plan_cache_hits, 1);

    // Edit the raw file: schema is re-inferred, the cached plan is stale.
    std::fs::write(&path, "10,2,7\n30,4,7\n50,6,7\n").unwrap();
    let out = e.sql(q).unwrap();
    assert_eq!(out.scalar(), Some(&Value::Int(90)));
    let after = e.counters().snapshot().since(&warm);
    assert_eq!(after.plan_cache_misses, 1, "edit forced a replan");
    assert_eq!(after.plan_cache_hits, 0);
}

#[test]
fn prepared_survives_file_edit_by_replanning() {
    let dir = test_dir("prep_edit");
    let path = dir.join("t.csv");
    std::fs::write(&path, "1,10\n2,20\n3,30\n").unwrap();
    let e = Arc::new(engine_in(&dir, LoadingStrategy::ColumnLoads));
    e.register_table("t", &path).unwrap();
    let s = e.session();
    let stmt = s.prepare("select sum(a2) from t where a1 > ?").unwrap();
    assert_eq!(
        stmt.execute(&[Value::Int(1)]).unwrap().scalar(),
        Some(&Value::Int(50))
    );
    std::fs::write(&path, "1,100\n2,200\n3,300\n4,400\n").unwrap();
    assert_eq!(
        stmt.execute(&[Value::Int(1)]).unwrap().scalar(),
        Some(&Value::Int(900)),
        "edited data visible through the prepared statement"
    );
}

#[test]
fn bind_validates_arity_and_types() {
    let (_d, s) = session_over("bind_errors", 10);
    let stmt = s.prepare("select a1 from t where a1 > ?").unwrap();
    assert!(stmt.bind(&[]).is_err());
    assert!(stmt.bind(&[Value::Int(1), Value::Int(2)]).is_err());
    assert!(stmt.bind(&[Value::Str("x".into())]).is_err());
    assert!(stmt.bind(&[Value::Int(1)]).is_ok());
    // Unbound execution through the raw engine path errors too.
    let err = s
        .engine()
        .sql("select a1 from t where a1 > ?")
        .unwrap_err()
        .to_string();
    assert!(err.contains("unbound"), "{err}");
}

#[test]
fn streaming_batches_cover_result_in_order() {
    let (_d, s) = session_over("stream", 100);
    let s = s.with_batch_size(32);
    let mut stream = s.query("select a1, a2 from t order by a1").unwrap();
    assert_eq!(stream.columns(), &["a1", "a2"]);
    let mut sizes = Vec::new();
    let mut rows = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        assert_eq!(batch.schema.len(), 2);
        sizes.push(batch.len());
        rows.extend(batch.rows);
    }
    assert_eq!(sizes, vec![32, 32, 32, 4]);
    let want = s.sql("select a1, a2 from t order by a1").unwrap();
    assert_eq!(rows, want.rows);
}

/// The page view under the row API: `next_columns` hands a result out as
/// typed columns covering the same rows in the same order, and paging
/// done after the arming profile scope was left still lands in the
/// query's profile.
#[test]
fn column_pages_cover_result_and_profile_their_paging() {
    use nodb::types::profile::Phase;
    use nodb::{ProfileScope, ProfileSink};

    let (_d, s) = session_over("stream_cols", 100);
    let s = s.with_batch_size(32);
    let sql = "select a1, a2 + 1, 'k' from t where a1 > 10 order by a1 desc";
    let sink = ProfileSink::handle();
    let mut stream = {
        let _scope = ProfileScope::enter(Arc::clone(&sink));
        s.query(sql).unwrap()
    };
    let kernel_calls = |sink: &ProfileSink| {
        let prof = sink.snapshot();
        let calls = prof
            .phases()
            .find(|(p, _, _)| *p == Phase::WarmKernel)
            .map_or(0, |(_, _, calls)| calls);
        calls
    };
    assert_eq!(kernel_calls(&sink), 1, "the kernel itself");
    let mut rows = Vec::new();
    let mut pages = 0;
    while let Some(page) = stream.next_columns().unwrap() {
        let page = page.to_rows();
        assert!(page.len() <= 32);
        rows.extend(page);
        pages += 1;
    }
    assert_eq!(rows, s.sql(sql).unwrap().rows);
    assert_eq!(
        kernel_calls(&sink),
        1 + pages + 1,
        "one per page, one for the end"
    );
    assert_eq!(stream.stats().profile.phase_ns(Phase::WarmKernel), {
        sink.snapshot().phase_ns(Phase::WarmKernel)
    });
}

/// Aggregate, grouped and join+aggregate results are typed columns too:
/// for every such shape — cold through the parallel load and the serial
/// policy path, then warm — the `next_columns` pages hold exactly the
/// rows `Engine::sql` returns, and every page column has the type the
/// stream's schema advertises.
#[test]
fn computed_results_page_as_typed_columns() {
    let dir = test_dir("stream_computed");
    let (m, t) = (dir.join("m.csv"), dir.join("t.csv"));
    write_mixed_table(&m, 400);
    write_int_table(&t, 100, 2);
    let engine = |threads: usize| {
        let mut cfg = EngineConfig::default().with_threads(threads);
        cfg.store_dir = Some(dir.join(format!("store-{threads}")));
        cfg.morsel_rows = 64; // several partials to merge
        let e = Arc::new(Engine::new(cfg));
        e.register_table("m", &m).unwrap();
        e.register_table("t", &t).unwrap();
        e
    };
    let queries = [
        // Scalar arithmetic: a nullable int plus a float, a float times an int.
        "select a1, a2 + a3, a3 * 2 from m where a1 < 30 order by a1",
        "select min(a4) from m where a1 > 10",
        // CTAS pages the columns it registers.
        "create table c as select a4, a2 + a3 from m where a1 > 380",
        "select sum(a1), count(*), avg(a3), min(a2) from m where a1 > 10",
        // Nothing qualifies: NULLs of the advertised types, zero counts.
        "select sum(a1), min(a3), max(a4), count(a2), count(*) from m where a1 > 100000",
        "select min(a4), max(a4) from m",
        "select a4, count(*), sum(a2) from m group by a4 order by a4 desc limit 3 offset 1",
        // `a2` and `a4` both hold NULLs: each NULL key is its own group.
        "select a2, count(*), max(a4) from m group by a2",
        "select a4, a2, avg(a3) from m where a1 < 50 group by a2, a4 order by a2, a4 desc",
        "select a1, count(*) from m where a1 > 100000 group by a1",
        "select m.a4, sum(t.a2), count(*) from m join t on m.a1 = t.a1 where t.a2 > 5 group by m.a4",
        "select sum(m.a3), max(m.a4), count(*) from m join t on m.a1 = t.a1 limit 1",
    ];
    let reference = engine(1);
    let want: Vec<_> = queries
        .iter()
        .map(|sql| reference.sql(sql).unwrap().rows)
        .collect();
    assert_eq!(
        want[4],
        vec![vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Int(0),
            Value::Int(0)
        ]]
    );
    assert_eq!(want[6].len(), 3);
    assert!(want[7].iter().any(|r| r[0] == Value::Null));
    assert!(want[9].is_empty());
    assert!(want[10].len() > 1);

    // Drain a stream page by page, checking every page column against
    // the advertised schema.
    let typed_rows = |mut stream: nodb::QueryStream, at: &str| {
        let types: Vec<_> = stream
            .schema()
            .fields()
            .iter()
            .map(|f| f.data_type)
            .collect();
        let mut rows = Vec::new();
        while let Some(page) = stream.next_columns().unwrap() {
            assert!(page.n_rows() <= 2);
            let got: Vec<_> = page
                .columns()
                .iter()
                .map(|c| c.data().data_type())
                .collect();
            assert_eq!(got, types, "{at}");
            rows.extend(page.to_rows());
        }
        rows
    };
    for threads in [2, 1] {
        let s = engine(threads).session().with_batch_size(2);
        for pass in ["cold", "warm"] {
            for (sql, want) in queries.iter().zip(&want) {
                let at = format!("{sql} ({pass}, {threads} threads)");
                assert_eq!(&typed_rows(s.query(sql).unwrap(), &at), want, "{at}");
            }
            for sql in [
                "explain select a4, count(*) from m group by a4",
                "explain analyze select sum(a3) from m where a1 > 5",
            ] {
                let at = format!("{sql} ({pass}, {threads} threads)");
                assert!(!typed_rows(s.query(sql).unwrap(), &at).is_empty(), "{at}");
            }
        }
    }
}

/// `CREATE TABLE .. AS` registers the defining query's typed columns under
/// its stream's schema — nothing is re-inferred from values — so an empty
/// selection or an all-NULL column keeps the source types, and predicates
/// on the new table type-check like they do on the source.
#[test]
fn ctas_keeps_the_select_types_of_empty_and_all_null_results() {
    let dir = test_dir("ctas_types");
    let m = dir.join("m.csv");
    write_mixed_table(&m, 400);
    let e = Arc::new(engine_in(&dir, LoadingStrategy::ColumnLoads));
    e.register_table("m", &m).unwrap();
    let s = e.session();
    for (table, select) in [
        // Nothing qualifies.
        ("e", "select a3, a4 from m where a1 > 1000"),
        // Row 17 holds NULL in both `a2` (int) and `a4` (text).
        ("n", "select a4, a2 * 1.5, a3 from m where a1 = 17"),
    ] {
        let want = s.query(select).unwrap().schema().clone();
        s.sql(&format!("create table {table} as {select}")).unwrap();
        let got = e.table_info(table).unwrap().schema;
        assert_eq!(got, Some(want), "{select}");
    }
    let none = s.sql("select count(*) from e where a4 = 'z'").unwrap();
    assert_eq!(none.scalar(), Some(&Value::Int(0)));
    let nulls = s
        .sql("select count(*), count(a4), min(a2_1_5) from n where a3 > 0.5")
        .unwrap();
    assert_eq!(
        nulls.rows,
        vec![vec![Value::Int(1), Value::Int(0), Value::Null]]
    );
}

/// A plain aggregate's float result depends on the morsel boundaries only:
/// the same bits under every thread count, cold (first touch) or warm,
/// result cache on or off.
#[test]
fn float_aggregates_do_not_depend_on_threads_cold_warm_or_cache() {
    let dir = test_dir("float_agg_bits");
    let path = dir.join("f.csv");
    let mut csv = String::new();
    for i in 0..120_000u64 {
        let f = ((i * 7919) % 10_007) as f64 * 0.1 + 1e-7 * i as f64;
        // `{:?}` prints the shortest text that parses back to the same bits.
        csv.push_str(&format!("{i},{f:?}\n"));
    }
    std::fs::write(&path, csv).unwrap();
    let sql = "select sum(a2), avg(a2), min(a2), max(a2), count(*) from f";
    let bits = |row: &[Value]| -> Vec<u64> {
        row.iter()
            .map(|v| match v {
                Value::Float(x) => x.to_bits(),
                Value::Int(n) => *n as u64,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    };
    let mut want: Option<Vec<u64>> = None;
    for threads in [1, 2, 4] {
        for cache_bytes in [0, 4 << 20] {
            let mut cfg = EngineConfig::default().with_threads(threads);
            cfg.store_dir = Some(dir.join(format!("store-{threads}-{cache_bytes}")));
            cfg.result_cache_bytes = cache_bytes;
            let engine = Engine::new(cfg);
            engine.register_table("f", &path).unwrap();
            for pass in ["cold", "warm", "warm again"] {
                let rows = engine.sql(sql).unwrap().rows;
                assert_eq!(rows.len(), 1);
                let got = bits(&rows[0]);
                let ctx = format!("{threads} threads, cache {cache_bytes} B, {pass}");
                match &want {
                    None => want = Some(got),
                    Some(w) => assert_eq!(&got, w, "{ctx}"),
                }
            }
        }
    }
}

#[test]
fn float_join_aggregates_do_not_depend_on_threads_strategy_cold_warm_or_cache() {
    // Aggregates over a join fold on the probe workers, so their float
    // sums associate per probe morsel: the bits (and the order of the
    // groups) must not depend on the thread count, the loading strategy,
    // cold versus warm, or the result cache.
    let dir = test_dir("float_join_bits");
    let (fact, dim) = (dir.join("fact.csv"), dir.join("dim.csv"));
    let mut csv = String::new();
    for i in 0..70_000u64 {
        let f = ((i * 7919) % 10_007) as f64 * 0.1 + 1e-7 * i as f64;
        csv.push_str(&format!("{},{},{f:?}\n", (i * 31) % 5_000, i % 1_000));
    }
    std::fs::write(&fact, csv).unwrap();
    let mut csv = String::new();
    for k in 0..4_000u64 {
        let g = 1e-3 * k as f64 + 0.3;
        csv.push_str(&format!("{k},{},{g:?}\n", k % 7));
    }
    std::fs::write(&dim, csv).unwrap();
    let queries = [
        "select sum(fact.a3), avg(dim.a3), sum(fact.a3 * dim.a3), count(*) \
         from fact join dim on fact.a1 = dim.a1 where fact.a2 < 800",
        "select dim.a2, sum(fact.a3), max(fact.a3), count(*) \
         from fact join dim on fact.a1 = dim.a1 where dim.a3 < 3.5 group by dim.a2",
    ];
    let bits = |rows: &[Vec<Value>]| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Float(x) => x.to_bits(),
                        Value::Int(n) => *n as u64,
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect()
            })
            .collect()
    };
    let mut want: Vec<Option<Vec<Vec<u64>>>> = vec![None; queries.len()];
    for strategy in [
        LoadingStrategy::ColumnLoads,
        LoadingStrategy::FullLoad,
        LoadingStrategy::PartialLoadsV2,
    ] {
        // The single-threaded engines' state after the cold pass, per
        // result-cache size.
        let mut serial_state = Vec::new();
        for threads in [1, 2, 4] {
            for cache_bytes in [0, 4 << 20] {
                let mut cfg = EngineConfig::with_strategy(strategy).with_threads(threads);
                let tag = format!("{}-{threads}-{cache_bytes}", strategy.label());
                cfg.store_dir = Some(dir.join(format!("store-{tag}")));
                cfg.result_cache_bytes = cache_bytes;
                let engine = Engine::new(cfg);
                engine.register_table("fact", &fact).unwrap();
                engine.register_table("dim", &dim).unwrap();
                for pass in ["cold", "warm", "warm again"] {
                    for (q, sql) in queries.iter().enumerate() {
                        let got = bits(&engine.sql(sql).unwrap().rows);
                        let ctx = format!("query {q}, {tag}, {pass}");
                        match &want[q] {
                            None => want[q] = Some(got),
                            Some(w) => assert_eq!(&got, w, "{ctx}"),
                        }
                    }
                    // The passes ran parallel exactly when threads allow,
                    // and the cold pass (the parallel loader, for the
                    // column-loading strategies) left both stores and
                    // positional maps as the serial load did.
                    let parallel = engine.counters().snapshot().parallel_pipelines > 0;
                    assert_eq!(parallel, threads > 1, "{tag}: parallel pipelines");
                    if pass == "cold" {
                        let state = ["fact", "dim"].map(|t| {
                            let i = engine.table_info(t).unwrap();
                            (i.loaded_columns, i.store_bytes, i.posmap_bytes)
                        });
                        match serial_state.iter().find(|(b, _)| *b == cache_bytes) {
                            None => serial_state.push((cache_bytes, state)),
                            Some((_, s)) => assert_eq!(&state, s, "{tag}: cold-pass state"),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn stream_can_be_abandoned_early() {
    let (_d, s) = session_over("stream_abandon", 1000);
    let s = s.with_batch_size(10);
    let mut stream = s.query("select a1 from t").unwrap();
    let first = stream.next_batch().unwrap().unwrap();
    assert_eq!(first.len(), 10);
    assert_eq!(stream.rows_remaining(), 990);
    drop(stream); // no panic, no further work
}

#[test]
fn prepared_stream_with_limit_param() {
    let (_d, s) = session_over("stream_param", 100);
    let stmt = s
        .prepare("select a1 from t where a1 > ? order by a1 limit ?")
        .unwrap();
    let mut stream = stmt.stream(&[Value::Int(10), Value::Int(7)]).unwrap();
    let mut n = 0;
    while let Some(batch) = stream.next_batch().unwrap() {
        n += batch.len();
    }
    assert_eq!(n, 7);
}

#[test]
fn limit_offset_paginates() {
    let dir = test_dir("limit_offset");
    let path = dir.join("t.csv");
    std::fs::write(&path, "5\n3\n1\n4\n2\n").unwrap();
    let e = engine_in(&dir, LoadingStrategy::ColumnLoads);
    e.register_table("t", &path).unwrap();
    let page1 = e.sql("select a1 from t order by a1 limit 2").unwrap();
    let page2 = e
        .sql("select a1 from t order by a1 limit 2 offset 2")
        .unwrap();
    let page3 = e
        .sql("select a1 from t order by a1 limit 2 offset 4")
        .unwrap();
    assert_eq!(page1.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    assert_eq!(page2.rows, vec![vec![Value::Int(3)], vec![Value::Int(4)]]);
    assert_eq!(page3.rows, vec![vec![Value::Int(5)]]);
    // Offset past the end is empty, not an error.
    let empty = e
        .sql("select a1 from t order by a1 limit 5 offset 9")
        .unwrap();
    assert!(empty.rows.is_empty());
    // Grouped results paginate too.
    let grouped = e
        .sql("select a1, count(*) from t group by a1 order by a1 limit 2 offset 1")
        .unwrap();
    assert_eq!(
        grouped.rows,
        vec![
            vec![Value::Int(2), Value::Int(1)],
            vec![Value::Int(3), Value::Int(1)],
        ]
    );
}

#[test]
fn create_table_as_select_is_immediately_queryable() {
    let (_d, s) = session_over("ctas", 50);
    s.sql("create table hot as select a1, a2 + a3 as heat from t where a1 > 500")
        .unwrap();
    let counters = s.engine().counters();
    let before = counters.snapshot();
    let out = s.sql("select count(*), min(heat) from hot").unwrap();
    let want = s
        .sql("select count(*), min(a2 + a3) from t where a1 > 500")
        .unwrap();
    assert_eq!(out.rows, want.rows);
    // The result table is served from memory: no raw-file work at all.
    let delta = counters.snapshot().since(&before);
    assert_eq!(delta.file_trips, 0, "no file trip for the result table");
    assert_eq!(delta.values_parsed, 0);
    assert!(s.engine().table_names().contains(&"hot".to_owned()));
}

#[test]
fn register_result_sanitises_labels() {
    let (_d, s) = session_over("reg_result", 20);
    let out = s
        .sql("select a1, sum(a2), count(*) from t group by a1 order by a1 limit 5")
        .unwrap();
    s.register_result("summary", &out).unwrap();
    // `sum(a2)` became `sum_a2`, `count(*)` became `count`.
    let back = s
        .sql("select a1, sum_a2, count from summary order by a1")
        .unwrap();
    assert_eq!(back.rows.len(), 5);
    assert_eq!(back.rows[0][1], out.rows[0][1]);
    // Re-registering a result table replaces it.
    s.register_result("summary", &out).unwrap();
    // Shadowing a file-backed table is refused.
    let err = s.register_result("t", &out).unwrap_err().to_string();
    assert!(err.contains("raw file"), "{err}");
}

#[test]
fn recreated_result_table_invalidates_cached_plans() {
    let (_d, s) = session_over("recreate_result", 20);
    s.sql("create table v as select a1 as x, a2 as y from t where a1 < 500")
        .unwrap();
    let first = s.sql("select sum(y) from v").unwrap();
    let want_y = s.sql("select sum(a2) from t where a1 < 500").unwrap();
    assert_eq!(first.scalar(), want_y.scalar());
    // Re-create `v` with the column order swapped: `y` is now ordinal 0.
    // A stale cached plan would read the old ordinal (now `x`).
    s.sql("create table v as select a2 as y, a1 as x from t where a1 < 500")
        .unwrap();
    let second = s.sql("select sum(y) from v").unwrap();
    assert_eq!(second.scalar(), want_y.scalar(), "plan was re-resolved");
}

#[test]
fn memory_budget_never_evicts_result_tables() {
    let dir = test_dir("budget_resident");
    let path = dir.join("t.csv");
    write_int_table(&path, 1000, 3);
    let mut cfg = EngineConfig::default().with_threads(1);
    cfg.memory_budget = Some(4_000); // far below one 8 KB column
    cfg.store_dir = Some(dir.join("store"));
    let e = Arc::new(Engine::new(cfg));
    e.register_table("t", &path).unwrap();
    let s = e.session();
    // The result table itself (1000 × 8 B) exceeds the budget: eviction
    // exempting resident tables is the only reason its *data* survives
    // (count(*) would survive regardless — it reads no columns).
    s.sql("create table keep as select a1 from t").unwrap();
    let want = s.sql("select sum(a1) from keep").unwrap();
    // Hammer the raw table so eviction runs repeatedly...
    for _ in 0..3 {
        s.sql("select sum(a2) from t").unwrap();
        s.sql("select sum(a3) from t").unwrap();
    }
    assert!(e.counters().snapshot().tuples_evicted > 0, "budget active");
    // ...the resident result table still answers from memory.
    let again = s.sql("select sum(a1) from keep").unwrap();
    assert_eq!(again.scalar(), want.scalar());
}

#[test]
fn ctas_with_leading_comment_and_newline() {
    let (_d, s) = session_over("ctas_comment", 10);
    s.sql("-- keep the hot rows\ncreate\n  table hot as select a1 from t where a1 < 500")
        .unwrap();
    assert!(s.engine().table_names().contains(&"hot".to_owned()));
    let n = s.sql("-- count them\nselect count(*) from hot").unwrap();
    assert!(n.scalar().is_some());
}

#[test]
fn rebound_table_name_does_not_reuse_stale_plans() {
    let dir = test_dir("rebind");
    let two = dir.join("two.csv");
    let three = dir.join("three.csv");
    std::fs::write(&two, "1,2\n3,4\n").unwrap();
    std::fs::write(&three, "10,20,30\n40,50,60\n").unwrap();
    let e = engine_in(&dir, LoadingStrategy::ColumnLoads);
    e.register_table("d", &two).unwrap();
    assert_eq!(
        e.sql("select sum(a1) from d").unwrap().scalar(),
        Some(&Value::Int(4))
    );
    // Re-bind the same name to a different file: the cached plan must
    // not survive the swap (global epochs make the collision impossible).
    assert!(e.unregister_table("d"));
    e.register_table("d", &three).unwrap();
    assert_eq!(
        e.sql("select sum(a1) from d").unwrap().scalar(),
        Some(&Value::Int(50))
    );
    assert_eq!(
        e.sql("select sum(a3) from d").unwrap().scalar(),
        Some(&Value::Int(90)),
        "new schema's third column resolves"
    );
}

#[test]
fn same_stem_tables_keep_separate_derived_state() {
    let dir = test_dir("same_stem");
    std::fs::create_dir_all(dir.join("a")).unwrap();
    std::fs::create_dir_all(dir.join("b")).unwrap();
    std::fs::write(dir.join("a/data.csv"), "1,2\n3,4\n").unwrap();
    std::fs::write(dir.join("b/data.csv"), "10,20,30\n40,50,60\n").unwrap();
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::SplitFiles);
    cfg.threads = 1;
    cfg.store_dir = Some(dir.join("store"));
    let e = Engine::new(cfg);
    e.register_table("t1", dir.join("a/data.csv")).unwrap();
    e.register_table("t2", dir.join("b/data.csv")).unwrap();
    assert_eq!(
        e.sql("select sum(a2) from t1").unwrap().scalar(),
        Some(&Value::Int(6))
    );
    assert_eq!(
        e.sql("select sum(a3) from t2").unwrap().scalar(),
        Some(&Value::Int(90))
    );
    // Unregistering t1 must not delete t2's same-stem split files.
    assert!(e.unregister_table("t1"));
    assert_eq!(
        e.sql("select sum(a1) from t2").unwrap().scalar(),
        Some(&Value::Int(50))
    );
}

#[test]
fn result_tables_join_against_raw_tables() {
    let (_d, s) = session_over("result_join", 30);
    s.sql("create table picks as select a1 as k from t where a1 < 300")
        .unwrap();
    let joined = s
        .sql("select count(*) from t join picks on t.a1 = picks.k")
        .unwrap();
    let direct = s.sql("select count(*) from t where a1 < 300").unwrap();
    assert_eq!(joined.scalar(), direct.scalar());
}

#[test]
fn explain_reports_strategy_and_loader_state() {
    let dir = test_dir("explain_api");
    let path = dir.join("t.csv");
    std::fs::write(&path, "1,2,3\n4,5,6\n").unwrap();
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::PartialLoadsV2);
    cfg.threads = 1;
    cfg.store_dir = Some(dir.join("store"));
    let e = Engine::new(cfg);
    e.register_table("t", &path).unwrap();

    let cold = e.explain("select sum(a1) from t where a2 > 2").unwrap();
    assert!(cold.contains("-- strategy: partial-v2"), "{cold}");
    assert!(cold.contains("0 of 2 referenced columns loaded"), "{cold}");
    assert!(cold.contains("missing columns [0, 1]"), "{cold}");

    // Warm the store with full column loads, then explain again.
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
    cfg.threads = 1;
    cfg.store_dir = Some(dir.join("store2"));
    let e = Engine::new(cfg);
    e.register_table("t", &path).unwrap();
    e.sql("select sum(a1) from t where a2 > 2").unwrap();
    let warm = e.explain("select sum(a1) from t where a2 > 2").unwrap();
    assert!(warm.contains("-- strategy: column-loads"), "{warm}");
    assert!(warm.contains("2 of 2 referenced columns loaded"), "{warm}");
    assert!(warm.contains("no file trip needed"), "{warm}");
    // Explain shows the new offset/limit plan steps.
    let paged = e
        .explain("select a1 from t order by a1 limit 3 offset 1")
        .unwrap();
    assert!(paged.contains("Limit 3 offset 1"), "{paged}");
}

#[test]
fn unregister_drops_split_files_on_disk() {
    let dir = test_dir("unregister_cleanup");
    let path = dir.join("t.csv");
    write_int_table(&path, 50, 3);
    let store = dir.join("store");
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::SplitFiles);
    cfg.threads = 1;
    cfg.store_dir = Some(store.clone());
    let e = Engine::new(cfg);
    e.register_table("t", &path).unwrap();
    e.sql("select sum(a3) from t").unwrap();
    // Derived files live in a per-table subdirectory of the store dir.
    let store = store.join("t");
    let split_files = |dir: &std::path::Path| -> Vec<String> {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .map(|en| en.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.contains(".g") && n.ends_with(".csv"))
                    .collect()
            })
            .unwrap_or_default()
    };
    assert!(!split_files(&store).is_empty(), "splitting wrote files");
    assert!(e.unregister_table("t"));
    assert!(
        split_files(&store).is_empty(),
        "unregister removed derived files: {:?}",
        split_files(&store)
    );
    assert!(path.exists(), "original raw file untouched");
}

#[test]
fn sessions_share_the_engine_across_threads() {
    let (_d, s) = session_over("threads", 200);
    let engine = Arc::clone(s.engine());
    let stmt = Arc::new(
        s.prepare("select count(*) from t where a1 > ? and a1 < ?")
            .unwrap(),
    );
    let mut handles = Vec::new();
    for i in 0..8i64 {
        let stmt = Arc::clone(&stmt);
        handles.push(std::thread::spawn(move || {
            let out = stmt
                .execute(&[Value::Int(i * 10), Value::Int(i * 10 + 500)])
                .unwrap();
            out.scalar().cloned()
        }));
    }
    for h in handles {
        assert!(h.join().unwrap().is_some());
    }
    drop(engine);
}
