//! Property test for the semantic result cache: a cache-enabled engine
//! must be indistinguishable — row for row, byte for byte — from a
//! cache-disabled engine running every query cold.
//!
//! Each case generates a mixed-type table (int, float, string), a
//! workload of range queries — scalar projections, plain aggregates and
//! GROUP BYs — in wide→narrow pairs (so both the exact-hit and, for the
//! scalar shape, the subsumption path are exercised, across ORDER BY /
//! LIMIT / OFFSET variations), and interleaved file rewrites that must
//! invalidate everything cached. An optional tiny byte budget turns eviction churn
//! on; parity must survive that too.

mod common;

use common::test_dir;
use nodb::core::{Engine, EngineConfig, LoadingStrategy};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Scalar,
    Aggregate,
    Grouped,
}

#[derive(Debug, Clone)]
struct GenQuery {
    shape: Shape,
    /// Predicate column: 0 = int, 1 = float, 2 = string.
    col: usize,
    lo: i64,
    width: i64,
    /// How far the narrowed twin shrinks into the wide range.
    shrink: i64,
    order_by: Option<(usize, bool)>,
    limit: Option<usize>,
    offset: usize,
}

impl GenQuery {
    /// Render one member of the pair: the wide range, or a strictly
    /// contained one (`narrow`) that a cached wide result subsumes.
    fn sql(&self, narrow: bool) -> String {
        let (lo, hi) = if narrow {
            (self.lo + self.shrink, self.lo + self.width - self.shrink)
        } else {
            (self.lo, self.lo + self.width)
        };
        let pred = match self.col {
            0 => format!("a1 > {lo} and a1 < {hi}"),
            1 => format!("a2 > {lo}.5 and a2 < {hi}.5"),
            _ => format!("a3 > 's{lo:03}' and a3 < 's{hi:03}'"),
        };
        let mut sql = match self.shape {
            Shape::Scalar => format!("select a1, a2, a3 from t where {pred}"),
            Shape::Aggregate => {
                format!("select sum(a1), avg(a2), min(a3), max(a3), count(*) from t where {pred}")
            }
            Shape::Grouped => {
                format!("select a3, count(*), sum(a1), max(a2) from t where {pred} group by a3")
            }
        };
        if let Some((c, desc)) = self.order_by {
            // An aggregate query may only order by a GROUP BY column.
            let key = match self.shape {
                Shape::Scalar => Some(c + 1),
                Shape::Aggregate => None,
                Shape::Grouped => Some(3),
            };
            if let Some(key) = key {
                sql.push_str(&format!(
                    " order by a{key}{}",
                    if desc { " desc" } else { "" }
                ));
            }
        }
        // The grammar only admits OFFSET after LIMIT.
        if let Some(l) = self.limit {
            sql.push_str(&format!(" limit {l}"));
            if self.offset > 0 {
                sql.push_str(&format!(" offset {}", self.offset));
            }
        }
        sql
    }
}

fn arb_query() -> impl Strategy<Value = GenQuery> {
    (
        prop_oneof![
            Just(Shape::Scalar),
            Just(Shape::Aggregate),
            Just(Shape::Grouped)
        ],
        0usize..3,
        -2i64..90,
        4i64..40,
        1i64..2,
        proptest::option::of((0usize..3, any::<bool>())),
        proptest::option::of(0usize..12),
        0usize..4,
    )
        .prop_map(
            |(shape, col, lo, width, shrink, order_by, limit, offset)| GenQuery {
                shape,
                col,
                lo,
                width,
                shrink,
                order_by,
                limit,
                offset,
            },
        )
}

/// Render the generated rows as CSV: `int,float,string` per row, with a
/// generation-dependent perturbation so rewrites genuinely change values.
fn csv_of(rows: &[Vec<i64>], generation: i64) -> String {
    let mut csv = String::new();
    for r in rows {
        let a1 = r[0] + generation * 7;
        csv.push_str(&format!(
            "{a1},{}.5,s{:03}\n",
            r[1],
            (r[2] + generation) % 100
        ));
    }
    csv
}

fn engine(dir: &std::path::Path, tag: &str, cache_bytes: usize) -> Engine {
    // ColumnLoads keeps referenced columns fully resident so the
    // subsumption (family) path actually gets captured.
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
    cfg.threads = 1;
    cfg.store_dir = Some(dir.join(format!("store-{tag}")));
    cfg.result_cache_bytes = cache_bytes;
    Engine::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs 2 engines × ~3 passes × N queries
        .. ProptestConfig::default()
    })]

    #[test]
    fn cached_answers_are_byte_identical_to_cold_rescans(
        rows in proptest::collection::vec(
            proptest::collection::vec(0i64..100, 3), 1..100),
        queries in proptest::collection::vec(arb_query(), 1..6),
        // Indices (mod queries) after which the raw file is rewritten.
        rewrites in proptest::collection::vec(0usize..6, 0..3),
        // Some cases run with a tiny budget: eviction churn, same answers.
        tiny_budget in any::<bool>(),
    ) {
        let dir = test_dir(&format!("prop_rc_{}_{}", rows.len(), queries.len()));
        let path = dir.join("t.csv");
        std::fs::write(&path, csv_of(&rows, 0)).unwrap();

        let budget = if tiny_budget { 4 << 10 } else { 1 << 20 };
        let cached = engine(&dir, "cached", budget);
        let cold = engine(&dir, "cold", 0);
        cached.register_table("t", &path).unwrap();
        cold.register_table("t", &path).unwrap();

        let mut generation = 0i64;
        for (qi, q) in queries.iter().enumerate() {
            if rewrites.contains(&qi) {
                generation += 1;
                std::fs::write(&path, csv_of(&rows, generation)).unwrap();
            }
            // Wide, wide again (repeat hit), then the contained narrow
            // range (subsumption hit) — every answer checked against the
            // cache-disabled engine.
            for (pass, sql) in [q.sql(false), q.sql(false), q.sql(true)]
                .into_iter()
                .enumerate()
            {
                let before = cached.counters().snapshot();
                let want = cold.sql(&sql).map_err(|e| {
                    TestCaseError::fail(format!("cold failed on {sql}: {e}"))
                })?;
                let got = cached.sql(&sql).map_err(|e| {
                    TestCaseError::fail(format!("cached failed on {sql}: {e}"))
                })?;
                prop_assert_eq!(
                    &got.rows, &want.rows,
                    "divergence on {} (generation {})", sql, generation
                );
                prop_assert_eq!(&got.columns, &want.columns);
                // With a roomy budget the workload shape guarantees the
                // cache paths fire: the repeated wide query is an exact
                // hit, the contained narrow one is served either way
                // when it is scalar (only scalar shapes subsume).
                if !tiny_budget && (pass == 1 || (pass == 2 && q.shape == Shape::Scalar)) {
                    let d = cached.counters().snapshot().since(&before);
                    prop_assert_eq!(
                        d.result_cache_hits + d.result_cache_subsumed_hits, 1,
                        "pass {} of {} was not served from cache", pass, sql
                    );
                }
            }
        }
        // The cache saw traffic; with the tiny budget it must also have
        // stayed within it.
        let used = cached.result_cache().bytes_used();
        prop_assert!(used <= budget, "cache over budget: {} > {}", used, budget);
    }
}

/// Replacing a result table (`CREATE TABLE ... AS` over an existing name)
/// must atomically invalidate every cached result that depended on it —
/// the cached engine may never answer from the old incarnation.
#[test]
fn ctas_replacement_parity_with_cold_engine() {
    let dir = test_dir("prop_rc_ctas");
    let path = dir.join("t.csv");
    common::write_int_table(&path, 200, 3);
    let cached = engine(&dir, "cached", 1 << 20);
    let cold = engine(&dir, "cold", 0);
    cached.register_table("t", &path).unwrap();
    cold.register_table("t", &path).unwrap();

    let probe = "select a1, a2 from u where a1 > 100 and a1 < 600 order by a1, a2 limit 20";
    for cut in [300, 500, 700] {
        let ctas = format!("create table u as select a1, a2 from t where a1 < {cut}");
        cached.sql(&ctas).unwrap();
        cold.sql(&ctas).unwrap();
        // Twice: the second round must be a cache hit on the *new* table.
        for _ in 0..2 {
            let want = cold.sql(probe).unwrap();
            let got = cached.sql(probe).unwrap();
            assert_eq!(got.rows, want.rows, "stale rows after CTAS cut={cut}");
        }
    }
    assert!(
        cached.counters().snapshot().result_cache_hits >= 1,
        "the repeat probes should have hit the cache"
    );
}
