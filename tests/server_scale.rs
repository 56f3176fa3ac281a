//! Scale and fairness tests for the readiness-multiplexed server.
//!
//! The reactor's contract is that a *parked* connection costs a slot,
//! not a thread: a thousand idle sessions are served by `workers + 1`
//! threads, and a connection that pipelines a heavy FETCH drain cannot
//! monopolise the worker pool because the scheduler runs exactly one
//! request per connection per round.
#![cfg(unix)]

mod common;

use std::io::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use nodb::core::{Engine, EngineConfig, LoadingStrategy};
use nodb::server::framing::read_frame;
use nodb::server::{Request, Response, PROTOCOL_VERSION};
use nodb::types::failpoints::{self, Action};
use nodb::{Client, NodbServer, ServerConfig, Value};

/// Both tests count threads / arm process-global failpoints, so they
/// must not overlap inside one test binary.
static SCALE_LOCK: Mutex<()> = Mutex::new(());

fn scale_guard() -> MutexGuard<'static, ()> {
    SCALE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Disarms everything on drop so a panicking assertion cannot leak an
/// armed failpoint into the other test.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        failpoints::disarm_all();
    }
}

fn engine_with_table(dir: &std::path::Path, rows: usize) -> Arc<Engine> {
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(1);
    cfg.store_dir = Some(dir.join("store"));
    let engine = Arc::new(Engine::new(cfg));
    let t = dir.join("t.csv");
    common::write_int_table(&t, rows, 3);
    engine.register_table("t", &t).unwrap();
    engine
}

/// OS-reported thread count of this process (the test harness and the
/// server together). Linux only; elsewhere the scale test still runs
/// the workload but skips the thread-count assertion.
#[cfg(target_os = "linux")]
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(not(target_os = "linux"))]
fn thread_count() -> Option<usize> {
    None
}

/// The headline scale claim: 1000 idle connections park on the reactor
/// while 8 active clients run real queries against a 4-worker server,
/// and the process thread count stays O(workers) — not O(connections).
/// The server's own STATS must reconcile: every connection accepted,
/// the idle ones reported parked.
#[test]
fn thousand_parked_connections_cost_no_threads() {
    let _g = scale_guard();
    // Ask the OS for headroom: CI soft fd limits are often 1024, far
    // below two sockets per connection. Scale down only if the hard
    // limit really is that small.
    let fd_limit = polling::raise_nofile_limit().unwrap_or(1024);
    let idle_target: usize = if fd_limit >= 2300 {
        1000
    } else {
        (fd_limit as usize / 2).saturating_sub(150).max(64)
    };

    let dir = common::test_dir("srv_scale");
    let engine = engine_with_table(&dir, 500);
    engine.sql("select count(*) from t").unwrap(); // warm the store
    let server = NodbServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: idle_target + 64,
            max_queued: 16,
            workers: 4,
            idle_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let baseline = thread_count();

    // Park a thousand sessions: each one completes its HELLO handshake
    // (so it held a worker for exactly one request) and then goes idle.
    let mut parked: Vec<Client> = Vec::with_capacity(idle_target);
    for _ in 0..idle_target {
        parked.push(Client::connect(addr).expect("idle client connects"));
    }

    if let (Some(before), Some(now)) = (baseline, thread_count()) {
        // Session-per-connection would need ~idle_target new threads
        // here. The reactor needs zero: the only allowed growth is
        // transient helpers (rejectors, harness noise).
        assert!(
            now <= before + 32,
            "{idle_target} parked connections grew the thread count \
             {before} -> {now}; parked connections must not cost threads"
        );
    }

    // Eight active clients drive queries through the 4-worker pool
    // while the thousand parked connections stay open around them.
    let workers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("active client connects");
                for lo in [100i64, 300, 500, 700] {
                    let (_, rows) = c
                        .query_all(&format!("select count(*) from t where a1 > {lo}"))
                        .unwrap();
                    assert_eq!(rows.len(), 1);
                    assert!(matches!(rows[0][0], Value::Int(_)));
                }
                let (_, rows) = c.query_all("select count(*) from t").unwrap();
                assert_eq!(rows, vec![vec![Value::Int(500)]]);
                c.quit().unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().expect("active client thread");
    }

    if let (Some(before), Some(now)) = (baseline, thread_count()) {
        assert!(
            now <= before + 32,
            "thread count grew {before} -> {now} after the active phase"
        );
    }

    // STATS reconciliation, through the server itself: every connection
    // was accepted (idle + 8 active + this one), and all idle sessions
    // are reported parked right now (the STATS connection is the only
    // one executing).
    let mut stats_client = Client::connect(addr).unwrap();
    let snap = stats_client.stats().unwrap();
    assert!(
        snap.connections_accepted >= idle_target as u64 + 9,
        "accepted {} connections, expected at least {}",
        snap.connections_accepted,
        idle_target + 9
    );
    assert!(
        snap.conns_parked >= idle_target as u64,
        "STATS reports {} parked, expected at least {idle_target}",
        snap.conns_parked
    );
    assert!(
        snap.conns_parked <= idle_target as u64 + 1,
        "STATS reports {} parked with only {} connections open",
        snap.conns_parked,
        idle_target + 1
    );
    stats_client.quit().unwrap();

    // The parked sockets drop without QUIT; the reactor reaps them via
    // EOF, and shutdown drains cleanly regardless.
    drop(parked);
    server.shutdown();
    assert_eq!(engine.counters().snapshot().conns_parked, 0);
}

/// Raw length-prefixed frame bytes, built without [`write_frame`] so the
/// `wire.write_frame` failpoint (armed below to make every *served*
/// response cost a fixed delay) does not slow the test's own sends.
fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// Fairness: one connection pipelines a 100-frame FETCH drain at a
/// single-worker server; four short sessions arrive behind it and must
/// be answered in a bounded number of scheduler rounds — not after the
/// whole drain. The worker serves exactly one request per connection
/// per round, so each short round trip waits for at most one heavy
/// request, never all of them.
#[test]
fn pipelined_heavy_drain_does_not_starve_short_queries() {
    let _g = scale_guard();
    let _d = Disarm;
    failpoints::disarm_all();
    let dir = common::test_dir("srv_fair");
    let engine = engine_with_table(&dir, 500);
    // Expected result, and a warm store: short queries must not pay a
    // cold load while the clock runs.
    let expected = engine
        .session()
        .sql("select a1 from t order by a1")
        .unwrap();
    let server = NodbServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            batch_rows: 4, // 500 rows / 4 per page >> the 100-FETCH burst
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Heavy session: handshake and open the cursor at full speed.
    let mut heavy = std::net::TcpStream::connect(addr).unwrap();
    heavy
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
    }
    .encode();
    heavy.write_all(&raw_frame(&hello)).unwrap();
    let resp = read_frame(&mut heavy).unwrap().expect("hello response");
    assert!(matches!(
        Response::decode(&resp).unwrap(),
        Response::HelloOk { .. }
    ));
    let query = Request::Query {
        sql: "select a1 from t order by a1".to_owned(),
    }
    .encode();
    heavy.write_all(&raw_frame(&query)).unwrap();
    let resp = read_frame(&mut heavy).unwrap().expect("cursor response");
    let cursor = match Response::decode(&resp).unwrap() {
        Response::Cursor { id, .. } => id,
        other => panic!("expected cursor, got {other:?}"),
    };

    // Every response the server writes from here on costs 10ms of the
    // one worker, and counts one `wire.write_frame` hit: the pipelined
    // burst is BURST frames of worker time, a short session needs ~4.
    const BURST: usize = 100;
    const DELAY_MS: u64 = 10;
    failpoints::arm("wire.write_frame", Action::delay_ms(DELAY_MS));
    let mut burst = Vec::new();
    for _ in 0..BURST {
        burst.extend_from_slice(&raw_frame(&Request::Fetch { cursor }.encode()));
    }
    heavy.write_all(&burst).unwrap();

    // Four short sessions arrive *behind* the queued burst.
    std::thread::sleep(Duration::from_millis(50));
    let shorts: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("short client connects");
                let (_, rows) = c.query_all("select count(*) from t").unwrap();
                assert_eq!(rows, vec![vec![Value::Int(500)]]);
                c.quit().unwrap();
                failpoints::hits("wire.write_frame")
            })
        })
        .collect();
    for s in shorts {
        let frames = s.join().expect("short client thread");
        // Round-robin bound, counted in frames the one worker wrote
        // before this session returned: ~5 own round trips, each
        // waiting out at most one heavy response plus its own. Draining
        // the burst first would take >= BURST frames.
        assert!(
            frames < 70,
            "a short session returned only after {frames} frames behind a \
             pipelined heavy drain; the scheduler let one connection \
             monopolise the worker"
        );
    }

    // The heavy drain itself lost nothing to the interleaving: the
    // burst's batches concatenate to an exact prefix of the result.
    failpoints::disarm_all();
    let mut drained: Vec<Vec<Value>> = Vec::new();
    for _ in 0..BURST {
        let resp = read_frame(&mut heavy).unwrap().expect("batch response");
        match Response::decode(&resp).unwrap() {
            Response::Batch { done, rows } => {
                assert!(!done, "burst must not exhaust the 125-page cursor");
                assert_eq!(rows.len(), 4);
                drained.extend(rows);
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }
    assert_eq!(drained.len(), BURST * 4);
    assert_eq!(drained[..], expected.rows[..BURST * 4]);

    let quit = Request::Quit.encode();
    heavy.write_all(&raw_frame(&quit)).unwrap();
    let resp = read_frame(&mut heavy).unwrap().expect("quit response");
    assert!(matches!(Response::decode(&resp).unwrap(), Response::Ok));
    drop(heavy);
    server.shutdown();
}
