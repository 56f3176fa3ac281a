//! Property test: cancellation is *stateless*. Cancelling a query at an
//! arbitrary point — any morsel steal, any serial-row check — must leave
//! the engine's catalog, adaptive store and positional map either
//! untouched or in a valid loaded state, so the next uncancelled query
//! returns exactly what it would have returned had the cancelled query
//! never run.
//!
//! The cancel point is driven deterministically with
//! [`CancelToken::cancel_after_checks`], so every counterexample
//! replays.

mod common;

use common::test_dir;
use proptest::prelude::*;

use nodb::core::{Engine, EngineConfig, LoadingStrategy};
use nodb::types::Value;
use nodb::CancelToken;

/// Strategies with materially different cold-load write paths: full
/// column loads, cached partial fragments, and per-column split files.
const STRATEGIES: [LoadingStrategy; 3] = [
    LoadingStrategy::ColumnLoads,
    LoadingStrategy::PartialLoadsV2,
    LoadingStrategy::SplitFiles,
];

/// The four cold pipeline shapes: aggregate, projection, join, GROUP BY
/// (cancelled mid-morsel-loop or mid-merge of the grouped partials).
fn shapes() -> [String; 4] {
    [
        "select sum(a1), count(*), min(a2) from t where a2 > 40".to_owned(),
        "select a1, a3 from t where a1 > 20 and a1 < 160 order by a1 limit 64".to_owned(),
        "select count(*) from t join u on t.a1 = u.a1".to_owned(),
        "select a2, count(*), sum(a1), max(a3) from t where a3 < 150 group by a2".to_owned(),
    ]
}

fn engine_for(dir: &std::path::Path, strategy: LoadingStrategy, tag: &str) -> Engine {
    let mut cfg = EngineConfig::with_strategy(strategy).with_threads(2);
    // Tiny morsels: many steals per query, so cancel-after-N-checks
    // lands mid-pipeline instead of before or after it.
    cfg.morsel_rows = 16;
    cfg.store_dir = Some(dir.join(format!("store-{}-{tag}", strategy.label())));
    Engine::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    #[test]
    fn cancelled_query_leaves_no_trace(
        rows in proptest::collection::vec(
            proptest::collection::vec(0i64..200, 3), 40..200),
        shape in 0usize..4,
        cancel_after in 1u64..60,
    ) {
        let dir = test_dir(&format!("prop_cancel_{}_{shape}_{cancel_after}", rows.len()));
        let t = dir.join("t.csv");
        let u = dir.join("u.csv");
        let mut csv = String::new();
        for r in &rows {
            csv.push_str(&format!("{},{},{}\n", r[0], r[1], r[2]));
        }
        std::fs::write(&t, &csv).unwrap();
        let mut ucsv = String::new();
        for r in rows.iter().take(50) {
            ucsv.push_str(&format!("{},{}\n", r[0], r[1]));
        }
        std::fs::write(&u, ucsv).unwrap();
        let sql = &shapes()[shape];

        for strategy in STRATEGIES {
            // Reference: an engine that never sees cancellation.
            let clean = engine_for(&dir, strategy, "clean");
            clean.register_table("t", &t).unwrap();
            clean.register_table("u", &u).unwrap();
            let expected = clean.sql(sql).unwrap().rows;

            // Victim: same query, token tripping at check #cancel_after.
            let victim = engine_for(&dir, strategy, "victim");
            victim.register_table("t", &t).unwrap();
            victim.register_table("u", &u).unwrap();
            let session = nodb::Session::new(std::sync::Arc::new(victim));
            let token = CancelToken::new();
            token.cancel_after_checks(cancel_after);
            match session.sql_with_guard(sql, &token) {
                // Too few checks before completion: result must be right.
                Ok(out) => prop_assert_eq!(
                    &out.rows, &expected,
                    "{}: uncancelled run disagrees", strategy.label()
                ),
                Err(nodb::Error::Cancelled(_)) => {}
                Err(e) => return Err(TestCaseError::fail(format!(
                    "{}: expected Cancelled, got {e}", strategy.label()
                ))),
            }

            // The load-bearing assertion: after the (possibly) cancelled
            // attempt, the same engine answers identically to the clean
            // engine — whatever partial state the abort left behind is
            // either absent or valid.
            let after = session.sql(sql).unwrap().rows;
            prop_assert_eq!(
                &after, &expected,
                "{}: state corrupted by cancellation at check {}",
                strategy.label(), cancel_after
            );
            // And an unrelated shape over the same table still agrees.
            let probe = "select sum(a3), count(*) from t where a1 >= 0";
            let clean_probe = clean.sql(probe).unwrap().rows;
            let victim_probe = session.sql(probe).unwrap().rows;
            prop_assert_eq!(&victim_probe, &clean_probe,
                "{}: probe disagrees after cancellation", strategy.label());
        }
    }
}

/// Deterministic (non-prop) regression: a timed-out cold scan surfaces
/// `Error::Timeout`, bumps the timeout counter, and leaves the engine
/// usable.
#[test]
fn timeout_mid_cold_scan_is_clean() {
    let dir = test_dir("cancel_timeout_clean");
    let t = dir.join("t.csv");
    common::write_int_table(&t, 3000, 3);
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(2);
    cfg.morsel_rows = 32;
    cfg.store_dir = Some(dir.join("store"));
    let engine = std::sync::Arc::new(Engine::new(cfg));
    engine.register_table("t", &t).unwrap();
    let session = nodb::Session::new(std::sync::Arc::clone(&engine));

    let token = CancelToken::new();
    token.set_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
    let err = session
        .sql_with_guard("select sum(a1) from t where a2 > 10", &token)
        .unwrap_err();
    assert!(matches!(err, nodb::Error::Timeout(_)), "got {err:?}");
    assert_eq!(engine.counters().snapshot().queries_timed_out, 1);

    // Engine still answers, and correctly.
    let out = session.sql("select count(*) from t where a1 >= 0").unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(3000)]], "{out:?}");
}

/// Deterministic regression: an explicit cancel bumps the cancelled
/// counter and an already-expired token deadline bumps the timed-out one.
#[test]
fn default_deadline_and_counters_apply() {
    let dir = test_dir("cancel_default_deadline");
    let t = dir.join("t.csv");
    // Big enough that the serial scan's amortised CancelCheck (one poll
    // per 4096 rows) actually fires on a single-threaded engine.
    common::write_int_table(&t, 9000, 3);

    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(1);
    cfg.store_dir = Some(dir.join("store"));
    let engine = std::sync::Arc::new(Engine::new(cfg));
    engine.register_table("t", &t).unwrap();
    let session = nodb::Session::new(std::sync::Arc::clone(&engine));

    // A 0 ms deadline: the guarded query times out instantly.
    let err = session
        .sql_with_guard(
            "select sum(a1) from t",
            &CancelToken::with_timeout(std::time::Duration::ZERO),
        )
        .unwrap_err();
    assert!(matches!(err, nodb::Error::Timeout(_)), "got {err:?}");

    // A pre-cancelled token surfaces Cancelled (its own state wins).
    let token = CancelToken::new();
    token.cancel();
    let err = session
        .sql_with_guard("select sum(a1) from t", &token)
        .unwrap_err();
    assert!(matches!(err, nodb::Error::Cancelled(_)), "got {err:?}");

    let snap = engine.counters().snapshot();
    assert_eq!(snap.queries_timed_out, 1);
    assert_eq!(snap.queries_cancelled, 1);

    // Unguarded queries carry no deadline.
    assert!(session.sql("select count(*) from t").is_ok());
}
