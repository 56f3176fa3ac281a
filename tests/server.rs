//! Integration tests for the concurrent query server: wire parity with
//! the in-process session API, concurrent clients, admission control
//! and graceful shutdown.

mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use nodb::{Client, Engine, EngineConfig, Error, LoadingStrategy, NodbServer, ServerConfig, Value};

/// Engine over two deterministic tables `r` (2000×4) and `s` (500×2),
/// stored inside `dir`.
fn engine_with_tables(dir: &std::path::Path, threads: usize) -> Arc<Engine> {
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(threads);
    cfg.store_dir = Some(dir.join(format!("store-t{threads}")));
    let engine = Arc::new(Engine::new(cfg));
    let r = dir.join("r.csv");
    let s = dir.join("s.csv");
    if !r.exists() {
        common::write_int_table(&r, 2000, 4);
        common::write_int_table(&s, 500, 2);
    }
    engine.register_table("r", &r).unwrap();
    engine.register_table("s", &s).unwrap();
    engine
}

fn serve(engine: Arc<Engine>, cfg: ServerConfig) -> NodbServer {
    NodbServer::bind(engine, "127.0.0.1:0", cfg).expect("bind ephemeral port")
}

/// The acceptance criterion: PREPARE/EXECUTE a parameterised query over
/// TCP and FETCH paged batches whose concatenation is identical to the
/// in-process `Session` result for the same SQL.
#[test]
fn prepare_execute_fetch_matches_in_process() {
    let dir = common::test_dir("srv_parity");
    let engine = engine_with_tables(&dir, 2);
    let server = serve(
        Arc::clone(&engine),
        ServerConfig {
            batch_rows: 7, // force many pages
            ..ServerConfig::default()
        },
    );

    let sql = "select a1, a2 + a3 from r where a1 > ? and a1 < ? order by a1";
    let bound = "select a1, a2 + a3 from r where a1 > 100 and a1 < 900 order by a1";
    let expected = engine.session().sql(bound).unwrap();
    assert!(
        expected.rows.len() > 20,
        "want a multi-page result, got {} rows",
        expected.rows.len()
    );

    let mut client = Client::connect(server.local_addr()).unwrap();
    let stmt = client.prepare(sql).unwrap();
    assert_eq!(stmt.n_params, 2);
    let mut cursor = client
        .execute(stmt, &[Value::Int(100), Value::Int(900)])
        .unwrap();
    assert_eq!(cursor.labels(), expected.columns);

    let mut pages = 0usize;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    while let Some(batch) = client.fetch(&mut cursor).unwrap() {
        assert!(batch.rows.len() <= 7, "page larger than batch_rows");
        pages += 1;
        rows.extend(batch.rows);
    }
    assert!(pages >= 3, "expected multiple pages, got {pages}");
    assert_eq!(rows, expected.rows);

    // Re-execute with different binds: same statement, fresh cursor.
    let expected2 = engine
        .session()
        .sql("select a1, a2 + a3 from r where a1 > 500 and a1 < 600 order by a1")
        .unwrap();
    let mut cursor2 = client
        .execute(stmt, &[Value::Int(500), Value::Int(600)])
        .unwrap();
    assert_eq!(client.fetch_all(&mut cursor2).unwrap(), expected2.rows);

    client.quit().unwrap();
    server.shutdown();
}

/// Every query shape the engine serves — cold scans, warm repeats,
/// aggregates, GROUP BY, joins, CTAS — gives the same answer over the
/// wire as in process.
#[test]
fn query_shapes_match_in_process() {
    let dir = common::test_dir("srv_shapes");
    let engine = engine_with_tables(&dir, 2);
    let server = serve(Arc::clone(&engine), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let shapes = [
        "select sum(a1), min(a2), max(a3), avg(a4), count(*) from r where a1 > 10",
        "select a1, a2 from r where a1 > 100 and a1 < 300 order by a1 limit 50",
        "select a1, sum(a2), count(*) from r where a2 > 50 group by a1 order by a1 limit 20",
        "select count(*) from r join s on r.a1 = s.a1",
    ];
    for sql in shapes {
        let expected = engine.session().sql(sql).unwrap();
        let (labels, rows) = client.query_all(sql).unwrap();
        assert_eq!(labels, expected.columns, "labels for {sql}");
        assert_eq!(rows, expected.rows, "rows for {sql}");
    }

    // CTAS over the wire: returns the materialised rows and registers
    // the table for follow-up queries on the same connection.
    let expected = engine
        .session()
        .sql("select a1, sum(a2) from r group by a1 order by a1 limit 10")
        .unwrap();
    let (_, rows) = client
        .query_all(
            "create table top10 as select a1, sum(a2) from r group by a1 order by a1 limit 10",
        )
        .unwrap();
    assert_eq!(rows, expected.rows);
    let (_, count) = client.query_all("select count(*) from top10").unwrap();
    assert_eq!(count, vec![vec![Value::Int(10)]]);

    client.quit().unwrap();
    server.shutdown();
}

/// Observability surface over the wire: latency histograms ride STATS as
/// self-describing extras, a `--slow-query-ms 0` server counts every
/// query as slow, and `EXPLAIN [ANALYZE]` travels through the ordinary
/// query path as rows of plan text.
#[test]
fn latency_histograms_slow_queries_and_explain_over_the_wire() {
    let dir = common::test_dir("srv_observe");
    let engine = engine_with_tables(&dir, 2);
    let server = serve(
        Arc::clone(&engine),
        ServerConfig {
            // Threshold 0: every query crosses it, so the slow-query
            // path (profile arming, fingerprinting, counting) runs
            // deterministically.
            slow_query_ms: Some(0),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (_, rows) = client
        .query_all("select a1, sum(a2) from r where a1 > 10 group by a1 order by a1 limit 5")
        .unwrap();
    assert_eq!(rows.len(), 5);
    let stmt = client
        .prepare("select count(*) from r where a1 > ?")
        .unwrap();
    let mut cursor = client.execute(stmt, &[Value::Int(100)]).unwrap();
    assert_eq!(client.fetch_all(&mut cursor).unwrap().len(), 1);

    let (snap, extras) = client.stats_full().unwrap();
    // Both the QUERY and the EXECUTE crossed the 0ms threshold.
    assert!(snap.slow_queries >= 2, "{snap}");
    // Sparse histogram extras: at least the query/execute/fetch series
    // have one nonzero bucket each, and the client-side rebuild agrees
    // with the recorded counts.
    let series = nodb::latency_from_extras(&extras);
    for want in ["query", "execute", "fetch"] {
        let (_, buckets) = series
            .iter()
            .find(|(n, _)| n == want)
            .unwrap_or_else(|| panic!("no {want} latency series in {extras:?}"));
        let count: u64 = buckets.iter().sum();
        assert!(count >= 1, "{want} histogram empty");
        let p99 = nodb::types::profile::percentile_from_buckets(buckets, 99.0);
        assert!(
            p99.is_some(),
            "{want} percentile undefined with {count} samples"
        );
    }

    // EXPLAIN over the wire: a one-column result of plan lines, nothing
    // executed (still served through the standard cursor machinery).
    let (labels, rows) = client.query_all("explain select sum(a1) from r").unwrap();
    assert_eq!(labels, vec!["plan".to_owned()]);
    assert!(
        rows.iter()
            .any(|r| matches!(&r[0], Value::Str(s) if s.contains("AdaptiveLoad"))),
        "{rows:?}"
    );
    // EXPLAIN ANALYZE executes and appends measured phase lines.
    let (_, rows) = client
        .query_all("explain analyze select a1, count(*) from r where a1 > 42 group by a1")
        .unwrap();
    assert!(
        rows.iter()
            .any(|r| matches!(&r[0], Value::Str(s) if s.starts_with("-- analyze: rows="))),
        "{rows:?}"
    );
    assert!(
        rows.iter()
            .any(|r| matches!(&r[0], Value::Str(s) if s.starts_with("-- phase "))),
        "{rows:?}"
    );

    client.quit().unwrap();
    server.shutdown();
}

/// A SQL error is a typed response, not a dropped connection.
#[test]
fn errors_keep_the_connection_usable() {
    let dir = common::test_dir("srv_errors");
    let engine = engine_with_tables(&dir, 1);
    let server = serve(engine, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client.query("select frobnicate from nowhere") {
        Err(Error::Schema(_)) | Err(Error::Sql(_)) => {}
        other => panic!("expected a typed sql/schema error, got {other:?}"),
    }
    // Unknown statement / cursor ids are typed execution errors.
    let bogus = nodb::RemoteStatement {
        id: 999,
        n_params: 0,
    };
    assert!(matches!(client.execute(bogus, &[]), Err(Error::Exec(_))));

    let (_, rows) = client.query_all("select count(*) from r").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2000)]]);

    // A redundant HELLO is a typed error but not a dropped connection.
    // (Driven through the raw protocol: the typed client cannot send it.)
    let (_, rows) = client.query_all("select count(*) from s").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(500)]]);
    client.quit().unwrap();
    server.shutdown();
}

/// One connection cannot pin unbounded server memory: open cursors are
/// capped with a typed BUSY, and cancelling frees capacity.
#[test]
fn per_connection_cursor_cap() {
    let dir = common::test_dir("srv_cap");
    let engine = engine_with_tables(&dir, 1);
    let server = serve(engine, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut cursors = Vec::new();
    for _ in 0..64 {
        cursors.push(client.query("select a1 from r").unwrap());
    }
    match client.query("select a1 from r") {
        Err(Error::Busy(msg)) => assert!(msg.contains("cursors"), "message: {msg}"),
        other => panic!("expected Busy at the cursor cap, got {other:?}"),
    }
    client.cancel(&mut cursors[0]).unwrap();
    let mut freed = client.query("select a1 from r").unwrap();
    assert!(!client.fetch_all(&mut freed).unwrap().is_empty());
    client.quit().unwrap();
    server.shutdown();
}

/// N client threads fire mixed cold/warm/grouped/join queries at one
/// server; every answer must match the single-threaded in-process
/// result computed on an identical engine.
#[test]
fn concurrent_clients_match_single_threaded_execution() {
    let dir = common::test_dir("srv_concurrent");
    // Reference: a fully serial engine over the same files.
    let reference = engine_with_tables(&dir, 1);
    let shapes = [
        "select sum(a1), count(*) from r where a1 > 250",
        "select a1, a2 from r where a1 > 100 and a1 < 160 order by a1",
        "select a1, sum(a2), count(*) from r where a2 > 500 group by a1 order by a1 limit 30",
        "select count(*) from r join s on r.a1 = s.a1",
        "select min(a3), max(a4) from r where a2 < 700",
    ];
    let expected: Vec<_> = shapes
        .iter()
        .map(|sql| reference.session().sql(sql).unwrap().rows)
        .collect();

    let engine = engine_with_tables(&dir, 2);
    let server = serve(
        engine,
        ServerConfig {
            max_connections: 6,
            max_queued: 8,
            batch_rows: 64,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    const CLIENTS: usize = 6;
    const ROUNDS: usize = 4;
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    // Stagger shapes so cold loads race different shapes.
                    let i = (t + round) % shapes.len();
                    let (_, rows) = client.query_all(shapes[i]).unwrap();
                    assert_eq!(rows, expected[i], "client {t} round {round}: {}", shapes[i]);
                }
                client.quit().unwrap();
            });
        }
    });

    let snap = server.engine().counters().snapshot();
    assert!(
        snap.connections_accepted >= CLIENTS as u64,
        "expected >= {CLIENTS} accepted connections, got {}",
        snap.connections_accepted
    );
    assert!(
        snap.requests_served as usize >= CLIENTS * (ROUNDS + 2),
        "expected handshake+queries+quit per client, got {}",
        snap.requests_served
    );
    server.shutdown();
}

/// Beyond `max_connections` + `max_queued`, connections are refused
/// with a typed BUSY error and counted in `busy_rejections`.
#[test]
fn busy_rejection_when_admission_queue_full() {
    let dir = common::test_dir("srv_busy");
    let engine = engine_with_tables(&dir, 1);
    let server = serve(
        Arc::clone(&engine),
        ServerConfig {
            max_connections: 1,
            max_queued: 0,
            ..ServerConfig::default()
        },
    );

    // First client is admitted and holds the only worker (the completed
    // handshake proves a worker picked it up).
    let mut held = Client::connect(server.local_addr()).unwrap();

    // Now every further connection must be refused, typed.
    match Client::connect(server.local_addr()) {
        Err(Error::Busy(msg)) => assert!(msg.contains("queue full"), "message: {msg}"),
        other => panic!("expected Err(Busy), got {other:?}"),
    }
    match Client::connect(server.local_addr()) {
        Err(Error::Busy(_)) => {}
        other => panic!("expected Err(Busy), got {other:?}"),
    }

    let stats = held.stats().unwrap();
    assert_eq!(stats.busy_rejections, 2);
    assert_eq!(stats.connections_accepted, 1);

    // Releasing the worker lets the next client in.
    held.quit().unwrap();
    let mut next = loop {
        match Client::connect(server.local_addr()) {
            Ok(c) => break c,
            Err(Error::Busy(_)) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    let (_, rows) = next.query_all("select count(*) from r").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2000)]]);
    next.quit().unwrap();
    server.shutdown();
}

/// Memory pressure at the accept loop: a pool at ≥ 95% of its cap sheds
/// new connections with a typed `ResourceExhausted`, counted in
/// `conns_shed` — not in `busy_rejections` (queue-full refusals) and
/// not in `queries_shed` (queries the memory governor killed) — and
/// admission recovers the moment the memory comes back.
#[test]
fn memory_saturated_pool_sheds_connections_typed_and_counted() {
    let dir = common::test_dir("srv_mem_shed");
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.store_dir = Some(dir.join("store"));
    cfg.engine_mem_bytes = Some(1 << 20);
    let engine = Arc::new(Engine::new(cfg));
    let r = dir.join("r.csv");
    common::write_int_table(&r, 100, 2);
    engine.register_table("r", &r).unwrap();
    let server = serve(Arc::clone(&engine), ServerConfig::default());

    // A watcher connected before the squeeze, to read STATS during it.
    let mut watcher = Client::connect(server.local_addr()).unwrap();

    // Pin the pool above the 95% admission threshold from outside any
    // query, as an embedded caller holding a long-lived guard would.
    let hog = nodb::types::MemoryGuard::new(None, Some(engine.memory_pool().clone()));
    hog.charge((1 << 20) * 97 / 100).unwrap();

    match Client::connect(server.local_addr()) {
        Err(Error::ResourceExhausted(msg)) => {
            assert!(msg.contains("memory"), "message: {msg}")
        }
        other => panic!("expected Err(ResourceExhausted), got {other:?}"),
    }
    let stats = watcher.stats().unwrap();
    assert_eq!(stats.conns_shed, 1, "stats: {stats:?}");
    assert_eq!(stats.busy_rejections, 0, "a shed is not a BUSY refusal");
    assert_eq!(stats.queries_shed, 0, "no query ran, so none was shed");

    // Releasing the reservation un-sheds admission immediately.
    drop(hog);
    let mut ok = Client::connect(server.local_addr()).unwrap();
    let (_, rows) = ok.query_all("select count(*) from r").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(100)]]);
    ok.quit().unwrap();
    watcher.quit().unwrap();
    server.shutdown();
}

/// Graceful shutdown: a client mid-pagination finishes every page (no
/// request dropped mid-batch), new queries are refused with BUSY, and
/// once the drain completes the listener is gone.
#[test]
fn graceful_shutdown_drains_in_flight_pagination() {
    let dir = common::test_dir("srv_shutdown");
    let engine = engine_with_tables(&dir, 2);
    let server = serve(
        Arc::clone(&engine),
        ServerConfig {
            batch_rows: 16,
            idle_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let sql = "select a1, a2, a3 from r where a1 > 0 order by a1";
    let expected = engine.session().sql(sql).unwrap();
    assert!(expected.rows.len() > 100, "want a long pagination");

    let mut client = Client::connect(addr).unwrap();
    let mut cursor = client.query(sql).unwrap();
    let first = client.fetch(&mut cursor).unwrap().expect("first page");
    assert_eq!(first.rows.len(), 16);

    // Begin the drain while the cursor is mid-flight.
    let drain = std::thread::spawn(move || server.shutdown());
    // Wait until the server is actually draining: new work gets BUSY.
    loop {
        match client.query("select count(*) from r") {
            Err(Error::Busy(msg)) => {
                assert!(msg.contains("shutting down"), "message: {msg}");
                break;
            }
            Ok(mut c) => {
                // Raced ahead of the flag: throw the cursor away and retry.
                client.cancel(&mut c).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    // The in-flight cursor still pages out completely.
    let mut rows = first.rows;
    rows.extend(client.fetch_all(&mut cursor).unwrap());
    assert_eq!(rows, expected.rows, "drain dropped rows mid-batch");

    drain.join().unwrap();
    // Listener is gone: connect now fails at the TCP level.
    assert!(matches!(Client::connect(addr), Err(Error::Io(_))));
}

/// Shutdown cannot be held hostage: a client that owes a fetch but
/// stops making drain progress is dropped after `idle_timeout`, so
/// `shutdown()` returns while that client is still blocked, and the
/// client's next request fails on the closed connection.
#[test]
fn shutdown_bounded_when_client_stops_draining() {
    let dir = common::test_dir("srv_stall");
    let engine = engine_with_tables(&dir, 1);
    let server = serve(
        engine,
        ServerConfig {
            batch_rows: 16,
            idle_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let (stalled_tx, stalled_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let staller = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut cursor = client.query("select a1 from r order by a1").unwrap();
        let _ = client.fetch(&mut cursor).unwrap();
        // Owe the rest of the cursor but never fetch it.
        stalled_tx.send(()).unwrap();
        resume_rx.recv().unwrap();
        client.stats()
    });
    stalled_rx.recv().expect("staller opened its cursor");

    let (shut_tx, shut_rx) = mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        shut_tx.send(()).unwrap();
    });
    // The timeout only guards against a hang; the assertion is that
    // shutdown returns at all while the staller is still blocked.
    shut_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown returned while the staller was still blocked");
    shutdown.join().unwrap();
    resume_tx.send(()).unwrap();
    assert!(
        staller.join().unwrap().is_err(),
        "the drain budget closed the staller's connection"
    );
}

/// Idle connections are reaped after `idle_timeout`, freeing their
/// worker for queued clients.
#[test]
fn idle_connections_time_out() {
    let dir = common::test_dir("srv_idle");
    let engine = engine_with_tables(&dir, 1);
    let server = serve(
        engine,
        ServerConfig {
            max_connections: 1,
            max_queued: 4,
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    );

    let mut idler = Client::connect(server.local_addr()).unwrap();
    let _ = idler.stats().unwrap();
    // Stop talking; the server should reap us and admit the next client
    // (who sat in the queue the whole time).
    let mut next = Client::connect(server.local_addr()).unwrap();
    let (_, rows) = next.query_all("select count(*) from r").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2000)]]);
    next.quit().unwrap();

    // The idler's connection is dead: the next request fails.
    assert!(idler.stats().is_err());
    server.shutdown();
}

/// STATS over the wire reflects engine work done for this server's
/// queries (work counters travel the wire intact).
#[test]
fn stats_reflect_server_work() {
    let dir = common::test_dir("srv_stats");
    let engine = engine_with_tables(&dir, 1);
    let server = serve(engine, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let before = client.stats().unwrap();
    let _ = client
        .query_all("select sum(a1) from r where a1 > 3")
        .unwrap();
    let after = client.stats().unwrap();
    let delta = after.since(&before);
    assert!(delta.requests_served >= 2, "query + fetch at minimum");
    assert!(
        after.bytes_read > 0,
        "cold load work should appear in wire stats"
    );
    client.quit().unwrap();
    server.shutdown();
}

/// An opted-in `RetryPolicy` rides out a BUSY refusal: the first attempt
/// is turned away by admission control, the retry (after the slot frees)
/// lands, and the admitted connection works end to end. Without a
/// policy, the same refusal surfaces immediately as `Error::Busy`.
#[test]
fn connect_retry_rides_out_busy_server() {
    use nodb::{ConnectOptions, RetryPolicy};

    let dir = common::test_dir("srv_retry");
    let engine = engine_with_tables(&dir, 1);
    let server = serve(
        engine,
        ServerConfig {
            max_connections: 1,
            max_queued: 0,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // One client fills the only slot.
    let hog = Client::connect(addr).unwrap();

    // No policy: typed BUSY right away.
    assert!(matches!(Client::connect(addr), Err(Error::Busy(_))));

    // Free the slot shortly; the retrying connect should outlast us.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        hog.quit().unwrap();
    });

    let opts = ConnectOptions {
        connect_timeout: Some(Duration::from_secs(2)),
        retry: Some(RetryPolicy {
            max_retries: 8,
            initial_backoff: Duration::from_millis(40),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 7,
        }),
        ..ConnectOptions::default()
    };
    let mut client = Client::connect_with(addr, &opts).unwrap();
    release.join().unwrap();

    let (_, rows) = client.query_all("select count(*) from r").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2000)]]);
    client.quit().unwrap();
    server.shutdown();
}

/// Paging parity for the columnar FETCH path: projections mixing column
/// refs, literals, arithmetic, NULLs, ORDER BY and LIMIT/OFFSET drain to
/// exactly `Session::sql(..).rows` at every page size — from a
/// first-touch cold table and again warm, with the result cache off and
/// on (where the repeat is an exact hit, served from the shared cached
/// columns, and must page identically).
#[test]
fn columnar_pages_drain_to_the_in_process_rows() {
    let dir = common::test_dir("srv_col_pages");
    let table = dir.join("m.csv");
    common::write_mixed_table(&table, 400);
    let queries = [
        "select a1, a4, 7, 'k', a2 + a1, a3 * 2, a2 from m where a1 >= 10 order by a3 desc, a1 limit 300 offset 5",
        "select a4, a1 - a2, a3 from m",
        "select a2, a4 from m where a1 < 390 order by a4, a1",
        "select a1 from m where a1 > 1000",
    ];
    let reference = {
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(1);
        cfg.store_dir = Some(dir.join("store-ref"));
        let engine = Arc::new(Engine::new(cfg));
        engine.register_table("m", &table).unwrap();
        engine.session()
    };
    let expected: Vec<_> = queries
        .iter()
        .map(|sql| reference.sql(sql).unwrap())
        .collect();
    assert_eq!(expected[0].rows.len(), 300);
    assert!(expected[1].rows.iter().any(|r| r[1] == Value::Null));

    for batch_rows in [1usize, 7, 1024] {
        for cache_bytes in [0usize, 4 << 20] {
            let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
            cfg.store_dir = Some(dir.join(format!("store-{batch_rows}-{cache_bytes}")));
            cfg.result_cache_bytes = cache_bytes;
            let engine = Arc::new(Engine::new(cfg));
            engine.register_table("m", &table).unwrap();
            let server = serve(
                Arc::clone(&engine),
                ServerConfig {
                    batch_rows,
                    ..ServerConfig::default()
                },
            );
            let mut client = Client::connect(server.local_addr()).unwrap();
            // Pass 0 touches the table cold (and misses the cache);
            // pass 1 is warm (and an exact hit when the cache is on).
            for pass in 0..2 {
                let before = engine.counters().snapshot();
                for (sql, want) in queries.iter().zip(&expected) {
                    let mut cursor = client.query(sql).unwrap();
                    assert_eq!(cursor.labels(), want.columns, "{sql}");
                    let mut rows = Vec::new();
                    while let Some(page) = client.fetch(&mut cursor).unwrap() {
                        assert!(page.rows.len() <= batch_rows, "{sql}");
                        rows.extend(page.rows);
                    }
                    assert_eq!(
                        rows, want.rows,
                        "{sql} (batch_rows={batch_rows} cache={cache_bytes} pass={pass})"
                    );
                }
                let delta = engine.counters().snapshot().since(&before);
                let hits = if cache_bytes > 0 && pass == 1 {
                    queries.len() as u64
                } else {
                    0
                };
                assert_eq!(delta.result_cache_hits, hits, "pass {pass}");
            }
            client.quit().unwrap();
            server.shutdown();
        }
    }
}

/// Aggregate and grouped results leave the server through the columnar
/// page encoder: speaking the protocol by hand, every `BATCH` payload is
/// byte for byte what `Response::Batch` encodes from the same rows of the
/// in-process result, page boundaries and `done` flag included.
#[test]
fn computed_results_batch_bytes_match_the_row_encoding() {
    use nodb::server::framing::{read_frame, write_frame};
    use nodb::server::{Request, Response, PROTOCOL_VERSION};

    let dir = common::test_dir("srv_computed_bytes");
    let table = dir.join("m.csv");
    common::write_mixed_table(&table, 400);
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.store_dir = Some(dir.join("store"));
    let engine = Arc::new(Engine::new(cfg));
    engine.register_table("m", &table).unwrap();
    let batch_rows = 3;
    let server = serve(
        Arc::clone(&engine),
        ServerConfig {
            batch_rows,
            ..ServerConfig::default()
        },
    );

    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut roundtrip = |req: Request| {
        write_frame(&mut sock, &req.encode()).unwrap();
        read_frame(&mut sock).unwrap().expect("a response frame")
    };
    let hello = roundtrip(Request::Hello {
        version: PROTOCOL_VERSION,
    });
    assert!(matches!(
        Response::decode(&hello).unwrap(),
        Response::HelloOk { .. }
    ));
    for sql in [
        "select a4, a2, count(*), avg(a3), max(a4) from m group by a4, a2 order by a4 desc, a2",
        "select sum(a1), min(a3), max(a4), count(a2) from m where a1 > 100000",
    ] {
        let want = engine.session().sql(sql).unwrap().rows;
        let cursor = match Response::decode(&roundtrip(Request::Query { sql: sql.into() })) {
            Ok(Response::Cursor { id, .. }) => id,
            other => panic!("{sql}: expected a cursor, got {other:?}"),
        };
        let pages: Vec<&[Vec<Value>]> = want.chunks(batch_rows).collect();
        for (i, rows) in pages.iter().enumerate() {
            let expected = Response::Batch {
                done: i + 1 == pages.len(),
                rows: rows.to_vec(),
            }
            .encode();
            assert_eq!(
                roundtrip(Request::Fetch { cursor }),
                expected,
                "{sql} page {i}"
            );
        }
    }
    roundtrip(Request::Quit);
    server.shutdown();
}

/// A CTAS cursor advertises the column types its defining SELECT
/// advertises — also when nothing qualifies or a column holds only NULLs —
/// and pages the same rows.
#[test]
fn ctas_cursor_advertises_the_select_types() {
    let dir = common::test_dir("srv_ctas_types");
    let table = dir.join("m.csv");
    common::write_mixed_table(&table, 400);
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.store_dir = Some(dir.join("store"));
    let engine = Arc::new(Engine::new(cfg));
    engine.register_table("m", &table).unwrap();
    let server = serve(engine, ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let dtypes = |c: &nodb::RemoteCursor| c.columns.iter().map(|d| d.dtype).collect::<Vec<_>>();
    for (i, select) in [
        "select a3, a4 from m where a1 > 1000",
        // Row 17 holds NULL in both `a2` (int) and `a4` (text).
        "select a4, a2 * 1.5, a3 from m where a1 = 17",
        "select a4, sum(a3), min(a4) from m group by a4",
    ]
    .into_iter()
    .enumerate()
    {
        let mut plain = client.query(select).unwrap();
        let want = dtypes(&plain);
        let want_rows = client.fetch_all(&mut plain).unwrap();
        let mut ctas = client
            .query(&format!("create table t{i} as {select}"))
            .unwrap();
        assert_eq!(dtypes(&ctas), want, "{select}");
        assert_eq!(client.fetch_all(&mut ctas).unwrap(), want_rows, "{select}");
    }
    client.quit().unwrap();
    server.shutdown();
}

/// What an open cursor pins stays in the query's memory reservation
/// until the cursor goes away: a CANCEL mid-drain and a connection
/// dropped mid-drain both hand it back to the pool.
#[test]
fn abandoned_cursors_release_their_reservation() {
    let dir = common::test_dir("srv_cursor_release");
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.store_dir = Some(dir.join("store"));
    cfg.engine_mem_bytes = Some(256 << 20);
    cfg.morsel_rows = 256; // the 2000-row filter runs morsel-parallel and meters its positions
    cfg.result_cache_bytes = 4 << 20; // the captured columns are metered too
    let engine = Arc::new(Engine::new(cfg));
    let r = dir.join("r.csv");
    common::write_int_table(&r, 2000, 4);
    engine.register_table("r", &r).unwrap();
    let server = serve(
        Arc::clone(&engine),
        ServerConfig {
            batch_rows: 16,
            ..ServerConfig::default()
        },
    );
    let pool = engine.memory_pool();
    let idle = pool.reserved();
    let released = || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.reserved() != idle && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        pool.reserved() == idle
    };

    // Warm the table so both cursors below run the same (warm) path.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .query_all("select count(*) from r where a2 >= 0")
        .unwrap();
    assert!(released(), "a drained query holds nothing");

    let mut cursor = client
        .query("select a1, a2, a3 from r where a2 > 10")
        .unwrap();
    assert_eq!(client.fetch(&mut cursor).unwrap().unwrap().rows.len(), 16);
    assert!(pool.reserved() > idle, "an open cursor pins its columns");
    client.cancel(&mut cursor).unwrap();
    assert!(released(), "CANCEL mid-drain released the reservation");

    let mut cursor = client.query("select a1, a3 from r where a2 > 20").unwrap();
    assert_eq!(client.fetch(&mut cursor).unwrap().unwrap().rows.len(), 16);
    assert!(pool.reserved() > idle);
    drop(client);
    assert!(released(), "a dropped connection released the reservation");

    server.shutdown();
}

/// Read-ahead never asks past the last page: a full drain of P pages
/// costs the QUERY plus exactly P FETCHes, for an empty result, exactly
/// one page, a whole number of pages and a ragged last page.
#[test]
fn full_drain_sends_one_fetch_per_page() {
    let dir = common::test_dir("srv_read_ahead_count");
    let engine = engine_with_tables(&dir, 1);
    let server = serve(
        engine,
        ServerConfig {
            batch_rows: 8,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (sql, n_rows) in [
        ("select a1 from r where a1 < 0", 0),
        ("select a1 from r order by a1 limit 8", 8),
        ("select a1, a2 from r order by a1 limit 24", 24),
        ("select a1, a3 from r order by a1 limit 21", 21),
    ] {
        let before = client.stats().unwrap();
        let (_, rows) = client.query_all(sql).unwrap();
        assert_eq!(rows.len(), n_rows, "{sql}");
        let pages = n_rows.div_ceil(8).max(1) as u64;
        let served = client.stats().unwrap().since(&before).requests_served;
        // The STATS that took `before`, the QUERY, one FETCH per page.
        assert_eq!(served, 2 + pages, "{sql}");
    }

    // Mid-drain, the next page's FETCH has already been served.
    let before = client.stats().unwrap();
    let mut cursor = client.query("select a1 from r order by a1").unwrap();
    client.fetch(&mut cursor).unwrap().expect("first page");
    let served = client.stats().unwrap().since(&before).requests_served;
    assert_eq!(
        served,
        1 + 1 + 2,
        "STATS, QUERY, the fetch and its read-ahead"
    );
    client.cancel(&mut cursor).unwrap();
    client.quit().unwrap();
    server.shutdown();
}

/// Read-ahead pages are kept per cursor: two cursors fetched alternately
/// on one connection, with QUERY, STATS and PREPARE sent while a page is
/// in flight, page out exactly what separate drains return.
#[test]
fn interleaved_cursors_and_requests_page_out_without_holes() {
    let dir = common::test_dir("srv_read_ahead_interleave");
    let engine = engine_with_tables(&dir, 2);
    let server = serve(
        engine,
        ServerConfig {
            batch_rows: 8,
            ..ServerConfig::default()
        },
    );
    let sql_a = "select a1, a2 from r where a1 < 300 order by a1, a2";
    let sql_b = "select a3 from r where a2 > 700 order by a3";
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, want_a) = client.query_all(sql_a).unwrap();
    let (_, want_b) = client.query_all(sql_b).unwrap();
    assert!(
        want_a.len() > 40 && want_b.len() > 40,
        "want many pages each"
    );

    let mut a = client.query(sql_a).unwrap();
    let mut b = client.query(sql_b).unwrap();
    let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
    for round in 0.. {
        let page_a = client.fetch(&mut a).unwrap();
        let page_b = client.fetch(&mut b).unwrap();
        if page_a.is_none() && page_b.is_none() {
            break;
        }
        got_a.extend(page_a.into_iter().flat_map(|p| p.rows));
        got_b.extend(page_b.into_iter().flat_map(|p| p.rows));
        // Other requests, each settling the page `b` left in flight.
        match round {
            1 => {
                let (_, rows) = client.query_all("select count(*) from r").unwrap();
                assert_eq!(rows, vec![vec![Value::Int(2000)]]);
            }
            2 => assert!(client.stats().unwrap().requests_served > 0),
            3 => {
                let stmt = client.prepare("select a1 from r where a1 = ?").unwrap();
                assert_eq!(stmt.n_params, 1);
                client.close(stmt).unwrap();
            }
            _ => {}
        }
    }
    assert_eq!(got_a, want_a);
    assert_eq!(got_b, want_b);
    client.quit().unwrap();
    server.shutdown();
}

/// A page read ahead and never returned holds no server memory once the
/// cursor goes: CANCEL with the page received but not yet returned, and
/// a client dropped with the page still in flight, both hand the
/// cursor's reservation back to the pool.
#[test]
fn read_ahead_pages_release_on_cancel_and_drop() {
    let dir = common::test_dir("srv_read_ahead_release");
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.store_dir = Some(dir.join("store"));
    cfg.engine_mem_bytes = Some(256 << 20);
    cfg.morsel_rows = 256;
    let engine = Arc::new(Engine::new(cfg));
    let r = dir.join("r.csv");
    common::write_int_table(&r, 2000, 4);
    engine.register_table("r", &r).unwrap();
    let server = serve(
        Arc::clone(&engine),
        ServerConfig {
            batch_rows: 16,
            ..ServerConfig::default()
        },
    );
    let pool = engine.memory_pool();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.query_all("select count(*) from r").unwrap();
    let idle = pool.reserved();
    let released = || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.reserved() != idle && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        pool.reserved() == idle
    };

    let mut cursor = client.query("select a1, a2 from r where a2 > 10").unwrap();
    client.fetch(&mut cursor).unwrap().expect("first page");
    // STATS files the in-flight page under the cursor before it runs.
    client.stats().unwrap();
    assert!(pool.reserved() > idle, "an open cursor pins its columns");
    client.cancel(&mut cursor).unwrap();
    assert!(
        client.fetch(&mut cursor).unwrap().is_none(),
        "page discarded"
    );
    assert!(released(), "CANCEL with a page read ahead released it");

    let mut cursor = client.query("select a1, a3 from r where a2 > 20").unwrap();
    client.fetch(&mut cursor).unwrap().expect("first page");
    assert!(pool.reserved() > idle);
    drop(client);
    assert!(
        released(),
        "dropping the client with a page in flight released it"
    );
    server.shutdown();
}
