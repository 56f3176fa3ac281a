//! Fault-injection tests: arm failpoints at the engine's trip sites
//! (file read, tokenizer phase 1, morsel scan, store materialisation,
//! wire frame I/O) and prove the system degrades gracefully — typed
//! errors surface, sessions and connections stay usable, and the
//! adaptive state stays consistent.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use nodb::core::{Engine, EngineConfig, LoadingStrategy};
use nodb::types::failpoints::{self, Action};
use nodb::{Client, Error, NodbServer, ServerConfig, Value};

/// The failpoint registry is process-global; every test in this binary
/// serialises on this and starts from a disarmed state.
static FP_LOCK: Mutex<()> = Mutex::new(());

fn fp_guard() -> MutexGuard<'static, ()> {
    let g = FP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    failpoints::disarm_all();
    g
}

/// Disarms everything on drop so a panicking assertion cannot leak an
/// armed failpoint into the next test.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        failpoints::disarm_all();
    }
}

fn engine_with_table(dir: &std::path::Path, threads: usize) -> Arc<Engine> {
    engine_with_table_cfg(dir, |cfg| cfg.threads = threads)
}

fn engine_with_table_cfg(
    dir: &std::path::Path,
    tweak: impl FnOnce(&mut EngineConfig),
) -> Arc<Engine> {
    engine_with_width(dir, 3, tweak)
}

/// An engine over `t`, a 1 200-row integer table `cols` columns wide.
fn engine_with_width(
    dir: &std::path::Path,
    cols: usize,
    tweak: impl FnOnce(&mut EngineConfig),
) -> Arc<Engine> {
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.store_dir = Some(dir.join("store"));
    tweak(&mut cfg);
    let engine = Arc::new(Engine::new(cfg));
    let t = dir.join("t.csv");
    common::write_int_table(&t, 1200, cols);
    engine.register_table("t", &t).unwrap();
    engine
}

/// An injected read failure surfaces as a typed error, and after
/// disarming the engine serves the same query correctly — no catalog or
/// store state was poisoned by the failed cold load.
#[test]
fn read_file_failure_is_typed_and_recoverable() {
    let _g = fp_guard();
    let _d = Disarm;
    let dir = common::test_dir("fp_read_file");
    let engine = engine_with_table(&dir, 2);

    failpoints::arm("rawcsv.read_file", Action::fail());
    let err = engine.sql("select sum(a1) from t").unwrap_err();
    assert!(matches!(err, Error::Exec(_)), "got {err:?}");
    assert!(err.to_string().contains("rawcsv.read_file"));
    assert!(failpoints::hits("rawcsv.read_file") >= 1);

    failpoints::disarm_all();
    let out = engine.sql("select count(*) from t").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(1200)]]);
}

/// A failure injected mid-pipeline (at a morsel boundary, after some
/// morsels already succeeded) stops the peers and leaves the store
/// consistent: the post-recovery answer matches a never-faulted engine.
#[test]
fn mid_scan_failure_leaves_consistent_state() {
    let _g = fp_guard();
    let _d = Disarm;
    // Small morsels: the 1200-row scan splits into ~19 morsels, so
    // `.after(2)` fails mid-pipeline with completed morsels behind it.
    let dir = common::test_dir("fp_mid_scan");
    let engine = engine_with_table_cfg(&dir, |cfg| cfg.morsel_rows = 64);

    let reference = {
        let dir2 = common::test_dir("fp_mid_scan_ref");
        let clean = engine_with_table_cfg(&dir2, |cfg| cfg.morsel_rows = 64);
        clean
            .sql("select sum(a2), count(*) from t where a1 > 50")
            .unwrap()
            .rows
    };

    // Let a couple of morsels through first, then fail.
    failpoints::arm("rawcsv.morsel", Action::fail().after(2));
    let err = engine
        .sql("select sum(a2), count(*) from t where a1 > 50")
        .unwrap_err();
    assert!(matches!(err, Error::Exec(_)), "got {err:?}");

    failpoints::disarm_all();
    let out = engine
        .sql("select sum(a2), count(*) from t where a1 > 50")
        .unwrap();
    assert_eq!(out.rows, reference);
}

/// Phase-1 (row-start discovery) and store-materialisation trips also
/// surface typed errors and recover. Materialise only runs on the
/// policy path, so that half uses a strategy the fused cold pipeline
/// does not cover.
#[test]
fn phase1_and_materialize_trips_recover() {
    let _g = fp_guard();
    let _d = Disarm;
    let dir = common::test_dir("fp_phase1");
    let fused = engine_with_table(&dir, 2);
    let dir2 = common::test_dir("fp_materialize");
    let policy = engine_with_table_cfg(&dir2, |cfg| {
        cfg.strategy = LoadingStrategy::PartialLoadsV2;
    });

    for (site, engine) in [("rawcsv.phase1", &fused), ("store.materialize", &policy)] {
        failpoints::arm(site, Action::fail());
        let err = engine.sql("select sum(a1) from t").unwrap_err();
        assert!(
            err.to_string().contains(site),
            "{site}: wrong error {err:?}"
        );
        failpoints::disarm(site);
        let out = engine.sql("select count(*) from t").unwrap();
        assert_eq!(
            out.rows,
            vec![vec![Value::Int(1200)]],
            "{site}: post-recovery"
        );
    }
}

/// A query that fails server-side from an injected fault answers a typed
/// ERR frame and the connection stays usable for the next query.
#[test]
fn server_connection_survives_injected_query_failure() {
    let _g = fp_guard();
    let _d = Disarm;
    let dir = common::test_dir("fp_server_conn");
    let engine = engine_with_table(&dir, 2);
    let server = NodbServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    failpoints::arm("rawcsv.read_file", Action::fail());
    let err = client.query("select sum(a1) from t").unwrap_err();
    assert!(matches!(err, Error::Exec(_)), "got {err:?}");
    failpoints::disarm_all();

    // Same connection, next request: served normally.
    let (_, rows) = client.query_all("select count(*) from t").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1200)]]);
    client.quit().unwrap();
    server.shutdown();
}

/// A delay failpoint makes a scan slow enough for a deadline to fire
/// mid-query: the server answers a typed Timeout ERR, frees the worker,
/// and the connection serves the next request.
#[test]
fn server_deadline_fires_mid_slow_query() {
    let _g = fp_guard();
    let _d = Disarm;
    let dir = common::test_dir("fp_server_deadline");
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.morsel_rows = 64; // many morsels => many delay trips + steal checks
    cfg.store_dir = Some(dir.join("store"));
    let engine = Arc::new(Engine::new(cfg));
    let t = dir.join("t.csv");
    common::write_int_table(&t, 2000, 3);
    engine.register_table("t", &t).unwrap();
    let server = NodbServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            query_deadline_ms: Some(60),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 2 000 rows / 64 per morsel = 32 morsels x 20ms each: far past the
    // 60ms deadline.
    failpoints::arm("rawcsv.morsel", Action::delay_ms(20));
    let err = client
        .query("select sum(a2) from t where a1 > 3")
        .unwrap_err();
    assert!(matches!(err, Error::Timeout(_)), "got {err:?}");
    // The abort happened within a morsel or two of the deadline, not after
    // the whole scan. Counted in morsels, not milliseconds: the deadline
    // passes no slower than the injected delays do, so a loaded machine
    // cannot trip more morsels before it fires (~3 per worker).
    let morsels = failpoints::hits("rawcsv.morsel");
    assert!(
        morsels < 16,
        "query ran on despite the deadline: {morsels} of 32 morsels"
    );
    failpoints::disarm_all();

    assert!(client.stats().unwrap().queries_timed_out >= 1);
    let (_, rows) = client.query_all("select count(*) from t").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2000)]]);
    client.quit().unwrap();
    server.shutdown();
}

/// Wire-level fault: an injected write failure on the server side kills
/// that response, but a reconnecting client gets served — the server
/// survives its own I/O faults.
#[test]
fn wire_write_fault_does_not_kill_the_server() {
    let _g = fp_guard();
    let _d = Disarm;
    let dir = common::test_dir("fp_wire");
    let engine = engine_with_table(&dir, 2);
    let server = NodbServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();

    // Fail one write_frame (the server's HELLO_OK), let everything else
    // through. The client sees a dropped connection.
    failpoints::arm("wire.write_frame", Action::fail().after(1));
    let r = Client::connect(server.local_addr());
    failpoints::disarm_all();
    assert!(r.is_err(), "handshake should have failed");

    // The server took no damage: a fresh connection works end to end.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, rows) = client.query_all("select count(*) from t").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1200)]]);
    client.quit().unwrap();
    server.shutdown();
}

/// CANCEL_QUERY from a second connection aborts a running scan within a
/// morsel: the victim gets a typed Cancelled error promptly (not after
/// the full scan), its connection and worker stay usable, and the
/// cancellation is visible in STATS.
#[test]
fn cancel_query_aborts_running_scan_and_frees_worker() {
    let _g = fp_guard();
    let _d = Disarm;
    let dir = common::test_dir("fp_cancel_query");
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.morsel_rows = 64;
    cfg.store_dir = Some(dir.join("store"));
    let engine = Arc::new(Engine::new(cfg));
    let t = dir.join("t.csv");
    common::write_int_table(&t, 2000, 3);
    engine.register_table("t", &t).unwrap();
    let server = NodbServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // 2 000 rows / 64 per morsel = 32 morsels x 40ms: an uncancelled run
    // takes >= 640ms even with both workers scanning.
    failpoints::arm("rawcsv.morsel", Action::delay_ms(40));

    let (tx, rx) = std::sync::mpsc::channel();
    let victim = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        tx.send(a.session_id()).unwrap();
        let err = a.query("select sum(a2) from t where a1 > 3").unwrap_err();
        (a, err)
    });

    let session_a = rx.recv().unwrap();
    // Let the victim's scan actually start before shooting it down.
    std::thread::sleep(Duration::from_millis(120));
    let mut b = Client::connect(addr).unwrap();
    let at_cancel = failpoints::hits("rawcsv.morsel");
    b.cancel_query(session_a).unwrap();

    let (mut a, err) = victim.join().unwrap();
    // Counted in morsels, not milliseconds, so a slow machine cannot make
    // a prompt abort look late: each worker finishes the morsel it is in
    // and maybe one more before it sees the cancel, and the scan never
    // gets near its 32 morsels.
    let morsels = failpoints::hits("rawcsv.morsel");
    failpoints::disarm_all();
    assert!(matches!(err, Error::Cancelled(_)), "got {err:?}");
    assert!(
        morsels < 32 && morsels - at_cancel <= 6,
        "cancel did not abort the scan promptly: {morsels} morsels, {at_cancel} before the cancel"
    );

    // The victim's connection survived and its worker is free again.
    let (_, rows) = a.query_all("select count(*) from t").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2000)]]);
    assert!(b.stats().unwrap().queries_cancelled >= 1);
    a.quit().unwrap();
    b.quit().unwrap();
    server.shutdown();
}

/// A client that vanishes mid-query (socket dropped, no QUIT) does not
/// strand its worker: the reactor sees the EOF/HUP readiness event on
/// the half-closed socket and cancels the running query.
#[test]
fn disconnect_mid_query_is_detected_and_cancelled() {
    let _g = fp_guard();
    let _d = Disarm;
    let dir = common::test_dir("fp_disconnect");
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.morsel_rows = 64;
    cfg.store_dir = Some(dir.join("store"));
    let engine = Arc::new(Engine::new(cfg));
    let t = dir.join("t.csv");
    common::write_int_table(&t, 2000, 3);
    engine.register_table("t", &t).unwrap();
    let server =
        NodbServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();

    // Slow scan: ~32 morsels x 40ms, so the query is still running long
    // after the socket dies.
    failpoints::arm("rawcsv.morsel", Action::delay_ms(40));

    // Speak the wire protocol by hand so we can abandon the socket
    // without the client's orderly QUIT.
    use nodb::server::framing::{read_frame, write_frame};
    use nodb::server::{Request, Response, PROTOCOL_VERSION};
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut sock,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(),
    )
    .unwrap();
    let payload = read_frame(&mut sock).unwrap().expect("hello response");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::HelloOk { .. }
    ));
    write_frame(
        &mut sock,
        &Request::Query {
            sql: "select sum(a2) from t where a1 > 3".into(),
        }
        .encode(),
    )
    .unwrap();
    drop(sock); // vanish mid-query

    // HUP-driven: the reactor reacts to the disconnect event itself (no
    // polling watchdog), re-tripping cancellation every ~20ms until the
    // query registers; the cancelled query shows up in the engine's
    // counters well before the scan could have finished.
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    loop {
        if engine.counters().snapshot().queries_cancelled >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "reactor never cancelled the orphaned query on HUP"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    failpoints::disarm_all();

    // The freed worker serves the next connection normally.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, rows) = client.query_all("select count(*) from t").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(2000)]]);
    client.quit().unwrap();
    server.shutdown();
}

/// The env grammar arms failpoints for whole-process CI runs:
/// `NODB_FAILPOINTS=site=fail;site2=delay:MS`. (The parse itself is unit
/// tested in nodb-types; this exercises the documented entry point.)
#[test]
fn env_arming_round_trips() {
    let _g = fp_guard();
    let _d = Disarm;
    std::env::set_var("NODB_FAILPOINTS", "test.env.site=delay:1");
    failpoints::init_from_env();
    std::env::remove_var("NODB_FAILPOINTS");
    let start = std::time::Instant::now();
    assert!(failpoints::trip("test.env.site").is_ok());
    assert!(start.elapsed() >= Duration::from_millis(1));
    assert_eq!(failpoints::hits("test.env.site"), 1);
}

/// The robustness acceptance test: on one live server, an injected
/// panic mid-scan kills exactly one query with a typed INTERNAL error,
/// a per-query memory budget overrun kills a second with a typed
/// RESOURCE_EXHAUSTED error, and the *same* server then answers a
/// correct probe query over the same table — no worker died, no state
/// was poisoned, and both kills are visible in STATS.
#[test]
fn injected_panic_and_oom_each_kill_one_query_pool_keeps_serving() {
    let _g = fp_guard();
    let _d = Disarm;
    let dir = common::test_dir("fp_panic_oom");
    // A pushdown strategy and an 8 KiB per-query budget: far below a
    // ~1000-group hash table's metered entries, comfortably above what a
    // COUNT(*) charges.
    let engine = engine_with_table_cfg(&dir, |cfg| {
        cfg.threads = 2;
        cfg.strategy = LoadingStrategy::PartialLoadsV2;
        cfg.query_mem_bytes = Some(8 * 1024);
    });
    let server =
        NodbServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Kill 1: a panic injected at the store-materialisation step of the
    // scan unwinds to the session firewall, which converts it to a
    // typed internal error; the worker thread survives.
    failpoints::arm("store.materialize", Action::panic());
    let mut victim = Client::connect(addr).unwrap();
    let err = victim.query_all("select sum(a2) from t").unwrap_err();
    assert!(matches!(err, Error::Internal(_)), "got {err:?}");
    assert!(err.to_string().contains("panicked"), "got {err}");
    failpoints::disarm_all();
    // The panicked query's connection is still usable for cheap work.
    let (_, rows) = victim.query_all("select count(*) from t").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1200)]]);

    // Kill 2: a GROUP BY with ~1000 distinct keys overruns the
    // per-query budget at the metered group-table site and is shed
    // with a typed error.
    let mut hog = Client::connect(addr).unwrap();
    let err = hog
        .query_all("select a1, sum(a2) from t group by a1")
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");

    // Probe: the same server still answers correctly on the same table.
    let mut probe = Client::connect(addr).unwrap();
    let (_, rows) = probe
        .query_all("select count(*) from t where a1 > 3")
        .unwrap();
    let expected = engine
        .sql("select count(*) from t where a1 > 3")
        .unwrap()
        .rows;
    assert_eq!(rows, expected);

    // Both kills are observable: the firewall counted the contained
    // panic, the governor counted the shed query.
    let stats = probe.stats().unwrap();
    assert!(stats.panics_contained >= 1, "stats: {stats:?}");
    assert!(stats.queries_shed >= 1, "stats: {stats:?}");

    victim.quit().unwrap();
    hog.quit().unwrap();
    probe.quit().unwrap();
    server.shutdown();
}

/// What a failed or cancelled load must leave of table `t`: its loaded
/// columns, store bytes and positional-map bytes.
fn table_state(engine: &Engine) -> (Vec<usize>, usize, usize) {
    let info = engine.table_info("t").unwrap();
    (info.loaded_columns, info.store_bytes, info.posmap_bytes)
}

/// A parallel one-pass load that fails mid-file, or is cancelled
/// mid-file, installs nothing: no column, no row count, no positional-map
/// change, whether the table was fully cold, already partly loaded (the
/// second load runs from the posmap the first left) or the query's own
/// column set partly loaded (the third). Every byte the load's workers
/// charged is handed back, and the next query is correct.
#[test]
fn failed_or_cancelled_parallel_load_leaves_the_table_as_it_was() {
    let _g = fp_guard();
    let _d = Disarm;
    let reference = {
        let dir = common::test_dir("fp_load_abort_ref");
        let clean = engine_with_width(&dir, 4, |cfg| cfg.morsel_rows = 64);
        let a = clean.sql("select sum(a1), count(*) from t").unwrap().rows;
        let b = clean.sql("select sum(a3), min(a2) from t").unwrap().rows;
        let c = clean.sql("select sum(a2), max(a4) from t").unwrap().rows;
        (a, b, c)
    };
    let dir = common::test_dir("fp_load_abort");
    // Small chunks (~64 rows each, ~19 in all) and a metered pool, so the
    // abort lands between chunks and the workers' buffer charges count.
    let engine = engine_with_width(&dir, 4, |cfg| {
        cfg.morsel_rows = 64;
        cfg.engine_mem_bytes = Some(1 << 30);
    });
    let session = nodb::Session::new(Arc::clone(&engine));

    for (sql, want) in [
        ("select sum(a1), count(*) from t", &reference.0),
        // a3 is cold while a1 is loaded: a load guided by the posmap.
        ("select sum(a3), min(a2) from t", &reference.1),
        // a2 is loaded and a4 is cold: the load reads a4 alone.
        ("select sum(a2), max(a4) from t", &reference.2),
    ] {
        // Ensure the schema is known, so the state below is comparable.
        let _ = engine.sql("select count(*) from t").unwrap();
        let before = table_state(&engine);

        failpoints::arm("rawcsv.morsel", Action::fail().after(2));
        let err = session.sql(sql).unwrap_err();
        assert!(matches!(err, Error::Exec(_)), "{sql}: got {err:?}");
        assert!(failpoints::hits("rawcsv.morsel") >= 3, "{sql}");
        failpoints::disarm_all();
        assert_eq!(table_state(&engine), before, "{sql}: failed load");
        assert_eq!(engine.memory_pool().reserved(), 0, "{sql}: failed load");

        // A zero delay only counts the chunks: the cancel lands after
        // some of them ran and before the last one.
        failpoints::arm("rawcsv.morsel", Action::delay_ms(0));
        let token = nodb::CancelToken::new();
        token.cancel_after_checks(4);
        let err = session.sql_with_guard(sql, &token).unwrap_err();
        let chunks_run = failpoints::hits("rawcsv.morsel");
        failpoints::disarm_all();
        assert!(matches!(err, Error::Cancelled(_)), "{sql}: got {err:?}");
        assert!(
            (1..10).contains(&chunks_run),
            "{sql}: {chunks_run} chunks ran"
        );
        assert_eq!(table_state(&engine), before, "{sql}: cancelled load");
        assert_eq!(engine.memory_pool().reserved(), 0, "{sql}: cancelled load");

        assert_eq!(&session.sql(sql).unwrap().rows, want, "{sql}");
        assert_ne!(
            table_state(&engine),
            before,
            "{sql}: the good load installs"
        );
    }

    // Parts parked when the load stops: on three workers, the first chunk
    // to reach `rawcsv.phase1` sleeps there while its two peers run ahead,
    // so every chunk they finish above it parks its part in the appender.
    // The failure, or the cancel, lands with those parts parked.
    let dir = common::test_dir("fp_load_abort_parked");
    let engine = engine_with_width(&dir, 4, |cfg| {
        cfg.threads = 3;
        cfg.morsel_rows = 16; // ~75 chunks
        cfg.engine_mem_bytes = Some(1 << 30);
    });
    let session = nodb::Session::new(Arc::clone(&engine));
    let (sql, want) = ("select sum(a1), count(*) from t", &reference.0);
    let before = table_state(&engine);

    failpoints::arm("rawcsv.phase1", Action::delay_ms(100).times(1));
    failpoints::arm("rawcsv.morsel", Action::fail().after(12));
    let err = session.sql(sql).unwrap_err();
    assert!(matches!(err, Error::Exec(_)), "parked, failed: got {err:?}");
    assert!(failpoints::hits("rawcsv.morsel") >= 13);
    failpoints::disarm_all();
    assert_eq!(table_state(&engine), before, "parked, failed");
    assert_eq!(engine.memory_pool().reserved(), 0, "parked, failed");

    failpoints::arm("rawcsv.phase1", Action::delay_ms(100).times(1));
    failpoints::arm("rawcsv.morsel", Action::delay_ms(0));
    let token = nodb::CancelToken::new();
    token.cancel_after_checks(12);
    let err = session.sql_with_guard(sql, &token).unwrap_err();
    let chunks_run = failpoints::hits("rawcsv.morsel");
    failpoints::disarm_all();
    assert!(
        matches!(err, Error::Cancelled(_)),
        "parked, cancelled: got {err:?}"
    );
    assert!((2..75).contains(&chunks_run), "{chunks_run} chunks ran");
    assert_eq!(table_state(&engine), before, "parked, cancelled");
    assert_eq!(engine.memory_pool().reserved(), 0, "parked, cancelled");

    assert_eq!(
        &session.sql(sql).unwrap().rows,
        want,
        "after the parked loads"
    );
    assert_ne!(table_state(&engine), before, "the good load installs");
}
