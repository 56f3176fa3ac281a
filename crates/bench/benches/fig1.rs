//! Figure 1 — "DB vs. Unix tools".
//!
//! Panel (a): loading/initialization cost vs input size (DB only; Awk has
//! none). Panel (b): per-query processing cost vs input size for Awk,
//! cold DB, hot DB and Index DB (database cracking). The workload is the
//! paper's Q1 over a 4-attribute unique-integer table, 10% selective:
//!
//! ```sql
//! select sum(a1),min(a4),max(a3),avg(a2)
//! from R where a1>v1 and a1<v2 and a2>v3 and a2<v4
//! ```
//!
//! Paper shape to reproduce: loading dominates DB first-query cost and
//! grows with size; Awk is flat per query but every query pays it; hot DB
//! beats Awk clearly at the larger sizes; Index DB (after cracking
//! converges) beats hot DB.

use nodb_baselines::ScriptEngine;
use nodb_bench::{dataset, engine, ms, q1_sql, rng, time, Scale};
use nodb_core::LoadingStrategy;
use nodb_exec::{AggFunc, AggSpec};
use nodb_rawcsv::gen::selective_range;
use nodb_store::CrackedColumn;
use nodb_types::{Schema, Value, ValueRef, WorkCounters};

fn main() {
    let scale = Scale::from_env();
    let sizes: Vec<usize> = match scale {
        Scale::Smoke => vec![10_000, 50_000],
        Scale::Small => vec![100_000, 500_000, 1_000_000, 2_000_000],
        Scale::Full => vec![1_000_000, 5_000_000, 10_000_000],
    };
    println!("## Figure 1 — DB vs Unix tools (Q1, 4 int columns, 10% selective)");
    println!("## scale={scale:?}; times in ms\n");

    println!("### (a) Loading / initialization cost");
    let w = [12, 12, 14, 14];
    nodb_bench::header(&["rows", "awk-load", "db-load", "csv-MB"], &w);
    for &rows in &sizes {
        let path = dataset(rows, 4, 1);
        let e = engine(LoadingStrategy::FullLoad, &format!("fig1a-{rows}"));
        e.register_table("r", &path).unwrap();
        let before = e.counters().snapshot();
        // The load is triggered by (and charged to) the first query.
        let (_, load) = time(|| e.sql("select count(*) from r").unwrap());
        let work = e.counters().snapshot().since(&before);
        nodb_bench::row(
            &[
                rows.to_string(),
                "0.00".into(),
                ms(load),
                format!("{:.1}", work.bytes_read as f64 / 1e6),
            ],
            &w,
        );
        // Persist for the cold-run measurement below.
        e.persist_table("r", &nodb_bench::scratch_dir(&format!("fig1-cold-{rows}")))
            .unwrap();
    }

    println!("\n### (b) Query processing cost");
    let w = [12, 12, 12, 12, 12, 12];
    nodb_bench::header(
        &["rows", "awk", "perl", "cold-db", "hot-db", "index-db"],
        &w,
    );
    for &rows in &sizes {
        let path = dataset(rows, 4, 1);
        let schema = Schema::ints(4);
        let mut r = rng(rows as u64);
        let sql = q1_sql("r", rows, 0.10, &mut r);

        // Awk: one streaming pass, every query.
        let awk = ScriptEngine::awk();
        let specs = [
            AggSpec::on_col(AggFunc::Sum, 0),
            AggSpec::on_col(AggFunc::Min, 3),
            AggSpec::on_col(AggFunc::Max, 2),
            AggSpec::on_col(AggFunc::Avg, 1),
        ];
        // Same predicates the SQL used (same seed stream).
        let mut r2 = rng(rows as u64);
        let f1 = selective_range(0, rows, 0.10, &mut r2);
        let f2 = selective_range(1, rows, 1.0, &mut r2);
        let filter =
            nodb_types::Conjunction::new(f1.preds.iter().chain(&f2.preds).cloned().collect());
        let c = WorkCounters::new();
        let (awk_out, awk_t) = time(|| {
            awk.aggregate_query(&path, &schema, &specs, &filter, &c)
                .unwrap()
        });

        // Perl: materialises every field of every row (§2.2: "two times
        // slower than the Awk scripts").
        let (perl_out, perl_t) = time(|| {
            ScriptEngine::perl()
                .aggregate_query(&path, &schema, &specs, &filter, &c)
                .unwrap()
        });
        assert_eq!(perl_out, awk_out);

        // Cold DB: fresh engine restoring persisted binary columns, then
        // the query (deserialisation replaces CSV parsing).
        let cold_dir = nodb_bench::data_dir().join(format!("scratch-fig1-cold-{rows}"));
        let e_cold = engine(LoadingStrategy::FullLoad, &format!("fig1b-cold-{rows}"));
        e_cold.register_table("r", &path).unwrap();
        let (_, cold_t) = time(|| {
            e_cold.restore_table("r", &cold_dir).unwrap();
            e_cold.sql(&sql).unwrap()
        });

        // Hot DB: same engine, data resident.
        let (hot_out, hot_t) = time(|| e_cold.sql(&sql).unwrap());
        assert_eq!(hot_out.rows[0][0], awk_out[0], "awk vs db disagree");

        // Index DB: database cracking on a1 (the selective predicate),
        // tuple reconstruction through the rowid permutation. Crack with a
        // few warm-up queries first (adaptive indexing converges with use).
        let cols: Vec<Vec<i64>> = (0..4)
            .map(|c| {
                nodb_store::read_column(&cold_dir.join(format!("col{c}.bin")), &WorkCounters::new())
                    .unwrap()
                    .as_i64_slice()
                    .unwrap()
                    .to_vec()
            })
            .collect();
        let mut cracked = CrackedColumn::new(cols[0].clone());
        let mut warm = rng(rows as u64 + 99);
        for _ in 0..8 {
            let c = selective_range(0, rows, 0.10, &mut warm);
            let iv = c.to_box().unwrap().by_col[&0].clone();
            cracked.select(&iv).unwrap();
        }
        let iv = f1.to_box().unwrap().by_col[&0].clone();
        let a2_range = f2.to_box().unwrap().by_col[&1].clone();
        let (index_out, index_t) = time(|| {
            let (vals, rowids) = cracked.select(&iv).unwrap();
            // Residual a2 filter + Q1 aggregates via tuple reconstruction.
            let mut sum_a1 = 0i64;
            let mut min_a4 = i64::MAX;
            let mut max_a3 = i64::MIN;
            let mut sum_a2 = 0f64;
            let mut n = 0u64;
            for (v, rid) in vals.iter().zip(rowids) {
                let a2 = cols[1][*rid as usize];
                if !a2_range.contains(ValueRef::Int(a2)) {
                    continue;
                }
                sum_a1 += *v;
                min_a4 = min_a4.min(cols[3][*rid as usize]);
                max_a3 = max_a3.max(cols[2][*rid as usize]);
                sum_a2 += a2 as f64;
                n += 1;
            }
            (sum_a1, min_a4, max_a3, sum_a2 / n as f64)
        });
        assert_eq!(
            Value::Int(index_out.0),
            hot_out.rows[0][0],
            "index db disagrees"
        );

        nodb_bench::row(
            &[
                rows.to_string(),
                ms(awk_t),
                ms(perl_t),
                ms(cold_t),
                ms(hot_t),
                ms(index_t),
            ],
            &w,
        );
    }

    println!("\n### First-query totals (load + query) — the §2.1 point");
    let w = [12, 16, 18];
    nodb_bench::header(&["rows", "awk-first", "db-first(load+q)"], &w);
    for &rows in &sizes {
        let path = dataset(rows, 4, 1);
        let schema = Schema::ints(4);
        let mut r2 = rng(rows as u64);
        let f1 = selective_range(0, rows, 0.10, &mut r2);
        let c = WorkCounters::new();
        let (_, awk_t) = time(|| {
            ScriptEngine::awk()
                .aggregate_query(&path, &schema, &[AggSpec::on_col(AggFunc::Sum, 0)], &f1, &c)
                .unwrap()
        });
        let mut r3 = rng(rows as u64);
        let sql = q1_sql("r", rows, 0.10, &mut r3);
        let e = engine(LoadingStrategy::FullLoad, &format!("fig1c-{rows}"));
        e.register_table("r", &path).unwrap();
        let (_, db_first) = time(|| e.sql(&sql).unwrap());
        nodb_bench::row(&[rows.to_string(), ms(awk_t), ms(db_first)], &w);
    }
    println!("\n(done)");
}
