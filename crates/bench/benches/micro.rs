//! Criterion micro-benchmarks for the core primitives.
//!
//! * tokenizer throughput (full parse vs projected vs pushdown);
//! * database cracking vs full scan per range query, plus racing range
//!   queries under one whole-column lock vs the partitioned index;
//! * the three kernel strategies (A4 of DESIGN.md): columnar,
//!   volcano and fused-hybrid execution of the paper's Q1 shape;
//! * serial vs morsel-parallel pairs (cold scan, cold projection, cold
//!   join, filtered aggregate, GROUP BY, hash join) whose ratios land in
//!   `NODB_BENCH_JSON`;
//! * hash vs merge join position generation;
//! * result-cache pairs (exact repeat miss vs hit, contained-range rescan
//!   vs subsumed serve) whose ratios land in `NODB_BENCH_JSON`;
//! * wire-server throughput: one client vs four concurrent clients
//!   issuing the same total query count over TCP (the ratio measures
//!   how well session-per-connection workers overlap);
//! * cancellation overhead: a hot per-row-checked kernel with no ambient
//!   cancel token vs under an armed token + deadline (the `off`/`on`
//!   ratio proves cooperative cancellation costs ~nothing);
//! * profile overhead: the full warm `Engine::sql` path with no ambient
//!   `ProfileSink` vs under an armed `ProfileScope` (the `off`/`on`
//!   ratio proves disabled phase probes cost ~nothing).

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use nodb_exec::{
    aggregate, filter_positions, fused_filter_aggregate, hash_join_positions, merge_join_positions,
    parallel_filter_aggregate, parallel_group_aggregate, parallel_hash_join_positions, AggFunc,
    AggSpec, AggregateOp, ColumnsScan, FilterOp, DEFAULT_MORSEL_ROWS,
};
use nodb_rawcsv::gen::Permutation;
use nodb_rawcsv::tokenizer::{scan_bytes, scan_morsels, CsvOptions, ScanSpec};
use nodb_store::{CrackedColumn, PartitionedCracked};
use nodb_types::{CmpOp, ColPred, ColumnData, Conjunction, Schema, WorkCounters};

fn csv_bytes(rows: usize, cols: usize) -> Vec<u8> {
    let perms: Vec<Permutation> = (0..cols)
        .map(|c| Permutation::new(rows as u64, 9 + c as u64))
        .collect();
    let mut out = String::with_capacity(rows * cols * 8);
    for i in 0..rows {
        for (c, p) in perms.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            out.push_str(&p.apply(i as u64).to_string());
        }
        out.push('\n');
    }
    out.into_bytes()
}

fn bench_tokenizer(c: &mut Criterion) {
    let rows = 100_000;
    let data = csv_bytes(rows, 8);
    let schema = Schema::ints(8);
    let opts = CsvOptions {
        threads: 1,
        ..CsvOptions::default()
    };
    let mut g = c.benchmark_group("tokenizer");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("parse_all_8_cols", |b| {
        b.iter(|| {
            let counters = WorkCounters::new();
            scan_bytes(
                &data,
                &opts,
                &ScanSpec {
                    schema: &schema,
                    needed: (0..8).collect(),
                    pushdown: None,
                },
                None,
                &counters,
            )
            .unwrap()
        })
    });
    g.bench_function("parse_first_2_cols", |b| {
        b.iter(|| {
            let counters = WorkCounters::new();
            scan_bytes(
                &data,
                &opts,
                &ScanSpec {
                    schema: &schema,
                    needed: vec![0, 1],
                    pushdown: None,
                },
                None,
                &counters,
            )
            .unwrap()
        })
    });
    let filter = Conjunction::new(vec![
        ColPred::new(0, CmpOp::Gt, 0i64),
        ColPred::new(0, CmpOp::Lt, (rows / 10) as i64),
    ]);
    g.bench_function("pushdown_10pct", |b| {
        b.iter(|| {
            let counters = WorkCounters::new();
            scan_bytes(
                &data,
                &opts,
                &ScanSpec {
                    schema: &schema,
                    needed: vec![1],
                    pushdown: Some(&filter),
                },
                None,
                &counters,
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_cracking(c: &mut Criterion) {
    let n = 1_000_000usize;
    let perm = Permutation::new(n as u64, 5);
    let vals: Vec<i64> = (0..n as u64).map(|i| perm.apply(i) as i64).collect();
    let mut g = c.benchmark_group("cracking");
    g.sample_size(10);
    let iv = Conjunction::new(vec![
        ColPred::new(0, CmpOp::Gt, (n / 3) as i64),
        ColPred::new(0, CmpOp::Lt, (n / 3 + n / 10) as i64),
    ])
    .to_box()
    .unwrap()
    .by_col[&0]
        .clone();
    g.bench_function("full_scan_range", |b| {
        b.iter(|| {
            vals.iter()
                .filter(|&&v| v > (n / 3) as i64 && v < (n / 3 + n / 10) as i64)
                .sum::<i64>()
        })
    });
    g.bench_function("cracked_after_convergence", |b| {
        // Pre-crack with the query bounds; steady-state selection is a
        // contiguous slice sum.
        let mut cracked = CrackedColumn::new(vals.clone());
        cracked.select(&iv).unwrap();
        b.iter(|| {
            let (vs, _) = cracked.select(&iv).unwrap();
            vs.iter().sum::<i64>()
        })
    });

    // Racing range queries: the old single-lock design (every query
    // serializes on one whole-column mutex) vs the partitioned index
    // (each partition cracks under its own lock). Same query batch, same
    // thread count; the serial ÷ parallel ratio lands in `speedups`.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let make_queries = || -> Vec<(i64, i64)> {
        (0..48)
            .map(|q: i64| {
                let lo = (q * 19_997) % (n as i64 - 20_000);
                (lo, lo + 2_000 + (q * 131) % 10_000)
            })
            .collect()
    };
    let queries = make_queries();
    let iv_of = |lo: i64, hi: i64| {
        Conjunction::new(vec![
            ColPred::new(0, CmpOp::Gt, lo),
            ColPred::new(0, CmpOp::Lt, hi),
        ])
        .to_box()
        .unwrap()
        .by_col[&0]
            .clone()
    };
    g.bench_function("concurrent_queries/serial", |b| {
        b.iter(|| {
            let locked = std::sync::Mutex::new(CrackedColumn::new(vals.clone()));
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (locked, queries, iv_of) = (&locked, &queries, &iv_of);
                    s.spawn(move || {
                        let mut acc = 0i64;
                        for (lo, hi) in queries.iter().skip(t).step_by(threads) {
                            let mut c = locked.lock().unwrap();
                            let (vs, ids) = c.select(&iv_of(*lo, *hi)).unwrap();
                            // Copy out under the lock, as the engine's old
                            // single-lock access path did.
                            let (vs, ids) = (vs.to_vec(), ids.to_vec());
                            acc += vs.len() as i64 + ids.len() as i64;
                        }
                        acc
                    });
                }
            })
        })
    });
    g.bench_function("concurrent_queries/parallel", |b| {
        b.iter(|| {
            let index = PartitionedCracked::new(vals.clone(), threads.max(2) * 2);
            std::thread::scope(|s| {
                for t in 0..threads {
                    let (index, queries, iv_of) = (&index, &queries, &iv_of);
                    s.spawn(move || {
                        let mut acc = 0i64;
                        for (lo, hi) in queries.iter().skip(t).step_by(threads) {
                            let (vs, ids) = index.select(&iv_of(*lo, *hi)).unwrap();
                            acc += vs.len() as i64 + ids.len() as i64;
                        }
                        acc
                    });
                }
            })
        })
    });
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let n = 1_000_000usize;
    let mut cols: BTreeMap<usize, ColumnData> = BTreeMap::new();
    for k in 0..4 {
        let perm = Permutation::new(n as u64, 40 + k as u64);
        cols.insert(
            k,
            ColumnData::from_i64((0..n as u64).map(|i| perm.apply(i) as i64).collect()),
        );
    }
    let conj = Conjunction::new(vec![
        ColPred::new(0, CmpOp::Gt, 0i64),
        ColPred::new(0, CmpOp::Lt, (n / 10) as i64),
        ColPred::new(1, CmpOp::Gt, -1i64),
    ]);
    let specs = vec![
        AggSpec::on_col(AggFunc::Sum, 0),
        AggSpec::on_col(AggFunc::Min, 3),
        AggSpec::on_col(AggFunc::Max, 2),
        AggSpec::on_col(AggFunc::Avg, 1),
    ];
    let mut g = c.benchmark_group("kernels_q1");
    g.sample_size(10);
    g.bench_function("columnar", |b| {
        b.iter(|| {
            let pos = filter_positions(&cols, n, &conj).unwrap();
            aggregate(&cols, n, Some(&pos), &specs).unwrap()
        })
    });
    g.bench_function("hybrid_fused", |b| {
        b.iter(|| fused_filter_aggregate(&cols, n, &conj, &specs).unwrap())
    });
    g.bench_function("volcano", |b| {
        b.iter(|| {
            let scan = ColumnsScan::new(&cols, 4, n);
            let filter = FilterOp::new(scan, conj.clone());
            let mut agg = AggregateOp::new(filter, specs.clone());
            nodb_exec::collect(&mut agg).unwrap()
        })
    });
    g.finish();
}

/// Serial vs morsel-parallel pairs for the perf trajectory: the
/// `<name>/serial` ÷ `<name>/parallel` ratios land in the `speedups`
/// section of `NODB_BENCH_JSON` output (`BENCH_micro.json` in CI). On a
/// single-core machine the ratios sit near 1.0; they scale with cores.
fn bench_parallel(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let morsel_rows = 16_384;

    // Fig1-style cold scan: tokenize + parse every referenced column of a
    // raw CSV byte buffer, no cached state.
    let rows = 200_000;
    let data = csv_bytes(rows, 4);
    let schema = Schema::ints(4);
    let filter = Conjunction::new(vec![
        ColPred::new(0, CmpOp::Gt, 0i64),
        ColPred::new(0, CmpOp::Lt, (rows / 2) as i64),
    ]);
    let specs = vec![
        AggSpec::on_col(AggFunc::Sum, 0),
        AggSpec::on_col(AggFunc::Min, 3),
        AggSpec::on_col(AggFunc::Max, 2),
        AggSpec::on_col(AggFunc::Avg, 1),
    ];
    let mut g = c.benchmark_group("parallel");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(data.len() as u64));
    let spec = ScanSpec {
        schema: &schema,
        needed: (0..4).collect(),
        pushdown: None,
    };
    g.bench_function("cold_scan/serial", |b| {
        let opts = CsvOptions {
            threads: 1,
            ..CsvOptions::default()
        };
        b.iter(|| {
            // The serial cold path: merge one ScanOutput, then filter and
            // aggregate it single-threaded.
            let counters = WorkCounters::new();
            let out = scan_bytes(&data, &opts, &spec, None, &counters).unwrap();
            let pos = filter_positions(&out.columns, rows, &filter).unwrap();
            aggregate(&out.columns, rows, Some(&pos), &specs).unwrap()
        })
    });
    g.bench_function("cold_scan/parallel", |b| {
        let opts = CsvOptions {
            threads,
            ..CsvOptions::default()
        };
        b.iter(|| {
            let counters = WorkCounters::new();
            // Morsel pipeline: per-worker filter + partial aggregation
            // overlapping with tokenization (what the engine's cold
            // aggregate path runs).
            let partials: std::sync::Mutex<Vec<(usize, Vec<nodb_exec::Accumulator>)>> =
                std::sync::Mutex::new(Vec::new());
            scan_morsels(
                &data,
                &opts,
                &spec,
                None,
                &counters,
                morsel_rows,
                &|_w, morsel| {
                    let cols = nodb_exec::OrdinalCols::new(&spec.needed, &morsel.columns);
                    let n = morsel.rowids.len();
                    let pos = filter_positions(&cols, n, &filter)?;
                    let mut accs: Vec<nodb_exec::Accumulator> = specs
                        .iter()
                        .map(|s| nodb_exec::Accumulator::new(s.func))
                        .collect();
                    nodb_exec::accumulate_into(&cols, n, Some(&pos), &specs, &mut accs)?;
                    partials.lock().unwrap().push((morsel.index, accs));
                    Ok(())
                },
            )
            .unwrap();
            let mut parts = partials.into_inner().unwrap();
            parts.sort_by_key(|(i, _)| *i);
            let mut merged: Vec<nodb_exec::Accumulator> = specs
                .iter()
                .map(|s| nodb_exec::Accumulator::new(s.func))
                .collect();
            for (_, accs) in parts {
                for (m, a) in merged.iter_mut().zip(accs) {
                    m.merge(a).unwrap();
                }
            }
            merged
                .iter()
                .map(|a| a.finish().unwrap())
                .collect::<Vec<_>>()
        })
    });

    // Warm filtered aggregate over loaded columns (the post-load kernel).
    let n = 1_000_000usize;
    let mut cols: BTreeMap<usize, ColumnData> = BTreeMap::new();
    for k in 0..4 {
        let perm = Permutation::new(n as u64, 70 + k as u64);
        cols.insert(
            k,
            ColumnData::from_i64((0..n as u64).map(|i| perm.apply(i) as i64).collect()),
        );
    }
    let warm_filter = Conjunction::new(vec![
        ColPred::new(0, CmpOp::Gt, 0i64),
        ColPred::new(0, CmpOp::Lt, (n / 2) as i64),
    ]);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("filtered_agg/serial", |b| {
        b.iter(|| fused_filter_aggregate(&cols, n, &warm_filter, &specs).unwrap())
    });
    g.bench_function("filtered_agg/parallel", |b| {
        b.iter(|| {
            parallel_filter_aggregate(&cols, n, &warm_filter, &specs, threads, morsel_rows).unwrap()
        })
    });

    // Warm grouped aggregation: the typed kernel morsel by morsel on one
    // worker (inline) vs on stealing workers (identical output).
    let mut gcols: BTreeMap<usize, ColumnData> = BTreeMap::new();
    gcols.insert(
        0,
        ColumnData::from_i64((0..n as i64).map(|i| (i * 37) % 997).collect()),
    );
    gcols.insert(1, cols[&1].clone());
    let group_specs = vec![
        AggSpec::on_col(AggFunc::Sum, 1),
        AggSpec::on_col(AggFunc::Max, 1),
        AggSpec::count_star(),
    ];
    let group_filter = Conjunction::new(vec![ColPred::new(1, CmpOp::Gt, (n / 10) as i64)]);
    g.bench_function("group_by/serial", |b| {
        b.iter(|| {
            parallel_group_aggregate(
                &gcols,
                n,
                &group_filter,
                &[0],
                &group_specs,
                1,
                morsel_rows,
                0,
            )
            .unwrap()
        })
    });
    g.bench_function("group_by/parallel", |b| {
        b.iter(|| {
            parallel_group_aggregate(
                &gcols,
                n,
                &group_filter,
                &[0],
                &group_specs,
                threads,
                morsel_rows,
                0,
            )
            .unwrap()
        })
    });

    // Flat-table hash join build + probe.
    let jn = 500_000usize;
    let pl = Permutation::new(jn as u64, 81);
    let pr = Permutation::new(jn as u64, 82);
    let left = ColumnData::from_i64((0..jn as u64).map(|i| pl.apply(i) as i64).collect());
    let right = ColumnData::from_i64((0..jn as u64).map(|i| pr.apply(i) as i64).collect());
    g.throughput(Throughput::Elements(jn as u64));
    g.bench_function("join/serial", |b| {
        b.iter(|| hash_join_positions(&left, &right).unwrap())
    });
    g.bench_function("join/parallel", |b| {
        b.iter(|| parallel_hash_join_positions(&left, &right, threads, morsel_rows).unwrap())
    });

    // Fused cold projection: tokenize + filter + project, either as one
    // merged scan followed by serial filtering/projection (the old cold
    // scalar path) or with per-worker projection emitters consuming
    // tokenizer morsels directly (the engine's fused path).
    let exprs = vec![
        nodb_exec::Expr::Col(1),
        nodb_exec::Expr::Binary {
            op: nodb_exec::ArithOp::Add,
            left: Box::new(nodb_exec::Expr::Col(0)),
            right: Box::new(nodb_exec::Expr::Col(2)),
        },
    ];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("cold_projection/serial", |b| {
        let opts = CsvOptions {
            threads: 1,
            ..CsvOptions::default()
        };
        b.iter(|| {
            let counters = WorkCounters::new();
            let out = scan_bytes(&data, &opts, &spec, None, &counters).unwrap();
            let pos = filter_positions(&out.columns, rows, &filter).unwrap();
            nodb_exec::project_columns(&out.columns, &pos, &exprs).unwrap()
        })
    });
    g.bench_function("cold_projection/parallel", |b| {
        let opts = CsvOptions {
            threads,
            ..CsvOptions::default()
        };
        b.iter(|| {
            let counters = WorkCounters::new();
            let partials: std::sync::Mutex<Vec<(usize, nodb_exec::ProjectPartial)>> =
                std::sync::Mutex::new(Vec::new());
            scan_morsels(
                &data,
                &opts,
                &spec,
                None,
                &counters,
                morsel_rows,
                &|_w, morsel| {
                    let partial = nodb_exec::cold_project_morsel(
                        &spec.needed,
                        &morsel,
                        &filter,
                        Some(&exprs),
                    )?;
                    partials.lock().unwrap().push((morsel.index, partial));
                    Ok(())
                },
            )
            .unwrap();
            let mut parts = partials.into_inner().unwrap();
            parts.sort_by_key(|(i, _)| *i);
            nodb_exec::stitch_cold_projection(parts.into_iter().map(|(_, p)| p).collect())
        })
    });

    // Fused cold join: tokenize both sides and join, either as two merged
    // scans followed by a serial hash join, or with build morsels
    // hash-partitioned and probe morsels probing as they parse.
    let jrows = 100_000;
    let build_data = csv_bytes(jrows, 2);
    let probe_data = {
        let p = Permutation::new(jrows as u64, 91);
        let mut out = String::with_capacity(jrows * 14);
        for i in 0..jrows {
            out.push_str(&p.apply(i as u64).to_string());
            out.push(',');
            out.push_str(&(i * 3).to_string());
            out.push('\n');
        }
        out.into_bytes()
    };
    let jschema = Schema::ints(2);
    let jspec = ScanSpec {
        schema: &jschema,
        needed: vec![0, 1],
        pushdown: None,
    };
    g.throughput(Throughput::Elements(jrows as u64));
    g.bench_function("cold_join/serial", |b| {
        let opts = CsvOptions {
            threads: 1,
            ..CsvOptions::default()
        };
        b.iter(|| {
            let counters = WorkCounters::new();
            let l = scan_bytes(&build_data, &opts, &jspec, None, &counters).unwrap();
            let r = scan_bytes(&probe_data, &opts, &jspec, None, &counters).unwrap();
            hash_join_positions(&l.columns[&0], &r.columns[&0]).unwrap()
        })
    });
    g.bench_function("cold_join/parallel", |b| {
        let opts = CsvOptions {
            threads,
            ..CsvOptions::default()
        };
        // Per-morsel build entries and probe pair chunks, tagged with the
        // morsel index for the deterministic stitch.
        type BuildParts = Vec<(usize, Vec<(i64, usize)>)>;
        type PairChunks = Vec<(usize, Vec<(usize, usize)>)>;
        b.iter(|| {
            let counters = WorkCounters::new();
            let build: std::sync::Mutex<BuildParts> = std::sync::Mutex::new(Vec::new());
            scan_morsels(
                &build_data,
                &opts,
                &jspec,
                None,
                &counters,
                morsel_rows,
                &|_w, morsel| {
                    let local: Vec<usize> = (0..morsel.rowids.len()).collect();
                    let parts = nodb_exec::cold_join_build_morsel(
                        &morsel.columns[0],
                        &local,
                        morsel.first_row,
                    );
                    build.lock().unwrap().push((morsel.index, parts));
                    Ok(())
                },
            )
            .unwrap();
            let mut parts = build.into_inner().unwrap();
            parts.sort_by_key(|(i, _)| *i);
            let parts: Vec<Vec<(i64, usize)>> = parts.into_iter().map(|(_, p)| p).collect();
            let tables = nodb_exec::JoinTable::from_morsels(&parts).unwrap();
            let chunks: std::sync::Mutex<PairChunks> = std::sync::Mutex::new(Vec::new());
            scan_morsels(
                &probe_data,
                &opts,
                &jspec,
                None,
                &counters,
                morsel_rows,
                &|_w, morsel| {
                    let local: Vec<usize> = (0..morsel.rowids.len()).collect();
                    let pairs = tables.probe_morsel(&morsel.columns[0], &local, morsel.first_row);
                    chunks.lock().unwrap().push((morsel.index, pairs));
                    Ok(())
                },
            )
            .unwrap();
            let mut chunks = chunks.into_inner().unwrap();
            chunks.sort_by_key(|(i, _)| *i);
            chunks
                .into_iter()
                .flat_map(|(_, c)| c)
                .collect::<Vec<(usize, usize)>>()
        })
    });
    g.finish();
}

fn bench_joins(c: &mut Criterion) {
    let n = 300_000usize;
    let pl = Permutation::new(n as u64, 61);
    let pr = Permutation::new(n as u64, 62);
    let left = ColumnData::from_i64((0..n as u64).map(|i| pl.apply(i) as i64).collect());
    let right = ColumnData::from_i64((0..n as u64).map(|i| pr.apply(i) as i64).collect());
    let mut g = c.benchmark_group("joins");
    g.sample_size(10);
    type JoinFn = fn(&ColumnData, &ColumnData) -> nodb_types::Result<Vec<(usize, usize)>>;
    let variants: [(&str, JoinFn); 2] = [
        ("hash", hash_join_positions),
        ("merge", merge_join_positions),
    ];
    for (name, f) in variants {
        g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            b.iter(|| f(&left, &right).unwrap())
        });
    }
    g.finish();
}

/// Prepared-vs-raw repeat queries: the parse/plan amortization win of the
/// session API. Three variants run the same warm Q1-shaped aggregate:
///
/// * `raw_nocache` — `Engine::sql` with the plan cache disabled: every
///   execution pays lex + parse + name resolution + planning;
/// * `cached_sql`  — `Engine::sql` with the default plan cache: repeat
///   text skips the front end after the first miss;
/// * `prepared`    — `Prepared::bind` + execute: zero front-end work and
///   no cache lookup, only parameter substitution.
fn bench_prepared_vs_raw(c: &mut Criterion) {
    use nodb_core::{Engine, EngineConfig, LoadingStrategy, Session};
    use nodb_types::Value;
    use std::sync::Arc;

    // Small warm table: execution is cheap, so the front-end share (what
    // preparation amortises away) dominates the per-query cost.
    let rows = 5_000;
    let dir = std::env::temp_dir().join("nodb-micro-prepared");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r.csv");
    std::fs::write(&path, csv_bytes(rows, 4)).unwrap();

    let engine_with = |cache: usize| {
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
        cfg.store_dir = Some(dir.join(format!("store-{cache}")));
        cfg.plan_cache_capacity = cache;
        let e = Arc::new(Engine::new(cfg));
        e.register_table("r", &path).unwrap();
        // Warm the adaptive store so only the front end differs.
        e.sql("select sum(a1),min(a4),max(a3),avg(a2) from r where a1 > 10 and a1 < 5000")
            .unwrap();
        e
    };
    let sql = "select sum(a1),min(a4),max(a3),avg(a2) from r where a1 > 10 and a1 < 5000";

    let mut g = c.benchmark_group("prepared_vs_raw");
    g.sample_size(20);

    let raw = engine_with(0);
    g.bench_function("q1/raw_nocache", |b| b.iter(|| raw.sql(sql).unwrap()));

    let cached = engine_with(128);
    g.bench_function("q1/cached_sql", |b| b.iter(|| cached.sql(sql).unwrap()));

    let session = Session::new(engine_with(128));
    let stmt = session
        .prepare("select sum(a1),min(a4),max(a3),avg(a2) from r where a1 > ? and a1 < ?")
        .unwrap();
    let params = [Value::Int(10), Value::Int(5000)];
    g.bench_function("q1/prepared", |b| {
        b.iter(|| stmt.bind(&params).unwrap().execute().unwrap())
    });

    // Front-end-bound shape: `count(*)` executes in nanoseconds (the row
    // count is already known), so the three variants isolate exactly the
    // lex/parse/plan cost that preparation and the plan cache amortise.
    let count = "select count(*) from r";
    g.bench_function("count_star/raw_nocache", |b| {
        b.iter(|| raw.sql(count).unwrap())
    });
    g.bench_function("count_star/cached_sql", |b| {
        b.iter(|| cached.sql(count).unwrap())
    });
    let count_stmt = session.prepare(count).unwrap();
    g.bench_function("count_star/prepared", |b| {
        b.iter(|| count_stmt.bind(&[]).unwrap().execute().unwrap())
    });

    // The front end in isolation: per repeat execution, raw SQL pays
    // lex + parse + resolve + plan; a prepared statement pays bind()
    // (a plan clone plus parameter substitution).
    let mut schemas: BTreeMap<String, nodb_types::Schema> = BTreeMap::new();
    schemas.insert("r".to_owned(), nodb_types::Schema::ints(4));
    let schemas: std::collections::HashMap<String, nodb_types::Schema> =
        schemas.into_iter().collect();
    g.bench_function("front_end/parse_plan", |b| {
        b.iter(|| nodb_sql::plan_sql(sql, &schemas).unwrap())
    });
    let param_plan = nodb_sql::plan_sql(
        "select sum(a1),min(a4),max(a3),avg(a2) from r where a1 > ? and a1 < ?",
        &schemas,
    )
    .unwrap();
    g.bench_function("front_end/bind", |b| {
        b.iter(|| param_plan.bind(&params).unwrap())
    });
    g.finish();
}

/// Result-cache speedups for the perf trajectory: `repeat_query/miss` ÷
/// `repeat_query/hit` is the exact-repeat win (a miss pays warm execution
/// plus capture; a hit replays the materialized rows), and
/// `subsumed_range/rescan` ÷ `subsumed_range/cached` is the subsumption
/// win (a fresh scan of the table vs re-filtering a cached superset).
/// Both ratios land in the `speedups` section of `NODB_BENCH_JSON`.
fn bench_result_cache(c: &mut Criterion) {
    use nodb_core::{Engine, EngineConfig, LoadingStrategy};

    let rows = 200_000;
    let dir = std::env::temp_dir().join("nodb-micro-rcache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r.csv");
    std::fs::write(&path, csv_bytes(rows, 4)).unwrap();

    // ColumnLoads keeps referenced columns fully resident, so misses run
    // the warm relational path and subsumable results get captured.
    let engine_with = |tag: &str, cache_bytes: usize| {
        let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(1);
        cfg.store_dir = Some(dir.join(format!("store-{tag}")));
        cfg.result_cache_bytes = cache_bytes;
        let e = Engine::new(cfg);
        e.register_table("r", &path).unwrap();
        e
    };
    let repeat = "select a1, a2 from r where a1 > 1000 and a1 < 50000 order by a1 limit 100";
    // The wide range qualifies ~2% of the table: the subsumed serve
    // re-filters those few cached rows where the rescan walks all 200k.
    let wide = "select a1, a2 from r where a1 > 19000 and a1 < 23000";
    let narrow = "select a1, a2 from r where a1 > 20000 and a1 < 22000 order by a1 limit 100";

    let mut g = c.benchmark_group("cache");
    g.sample_size(20);

    let e = engine_with("repeat", 64 << 20);
    e.sql(repeat).unwrap(); // warm the store so the miss measures execution, not loading
    g.bench_function("repeat_query/miss", |b| {
        b.iter(|| {
            e.result_cache().clear();
            e.sql(repeat).unwrap()
        })
    });
    e.sql(repeat).unwrap(); // install the entry the hits replay
    g.bench_function("repeat_query/hit", |b| b.iter(|| e.sql(repeat).unwrap()));

    // Rescan baseline on a cache-disabled engine: what the contained
    // range costs when nothing can be reused.
    let cold = engine_with("rescan", 0);
    cold.sql(narrow).unwrap();
    g.bench_function("subsumed_range/rescan", |b| {
        b.iter(|| cold.sql(narrow).unwrap())
    });

    // Cached: the wide σ range is materialized once; every narrow query
    // is answered by re-filtering its rows (the narrow result itself is
    // never installed — served queries bypass capture — so each iteration
    // measures the subsumption path, not an exact repeat).
    let subs = engine_with("subsumed", 64 << 20);
    subs.sql(wide).unwrap();
    g.bench_function("subsumed_range/cached", |b| {
        b.iter(|| subs.sql(narrow).unwrap())
    });
    let snap = subs.counters().snapshot();
    assert!(
        snap.result_cache_subsumed_hits > 0,
        "subsumed_range/cached must be served by subsumption (hits={} subsumed={} misses={})",
        snap.result_cache_hits,
        snap.result_cache_subsumed_hits,
        snap.result_cache_misses,
    );
    g.finish();
}

/// Wire-server throughput: the same total number of warm queries issued
/// by one client vs spread over four concurrent clients. The engine runs
/// with `threads = 1` so the ratio isolates *connection* concurrency
/// (session-per-connection workers overlapping request handling), not
/// intra-query morsel parallelism. On a single-core machine the two are
/// equivalent work and the ratio is ~1.
fn bench_server(c: &mut Criterion) {
    use nodb_core::{Engine, EngineConfig, LoadingStrategy};
    use nodb_server::{Client, NodbServer, ServerConfig};
    use std::sync::Arc;

    let rows = 200_000;
    let dir = std::env::temp_dir().join("nodb-micro-server");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r.csv");
    std::fs::write(&path, csv_bytes(rows, 4)).unwrap();

    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(1);
    cfg.store_dir = Some(dir.join("store"));
    let engine = Arc::new(Engine::new(cfg));
    engine.register_table("r", &path).unwrap();
    let sql = "select sum(a1), count(*) from r where a1 > 1000 and a1 < 150000";
    engine.sql(sql).unwrap(); // warm the store so clients measure serving, not loading

    let server = NodbServer::bind(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 8,
            max_queued: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    const TOTAL_QUERIES: usize = 16;
    const CLIENTS: usize = 4;
    let mut g = c.benchmark_group("server");
    g.sample_size(10);
    g.throughput(Throughput::Elements(TOTAL_QUERIES as u64));
    g.bench_function("throughput/serial", |b| {
        b.iter(|| {
            let mut client = Client::connect(addr).unwrap();
            for _ in 0..TOTAL_QUERIES {
                client.query_all(sql).unwrap();
            }
            client.quit().unwrap();
        })
    });
    g.bench_function("throughput/parallel", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..CLIENTS {
                    scope.spawn(|| {
                        let mut client = Client::connect(addr).unwrap();
                        for _ in 0..TOTAL_QUERIES / CLIENTS {
                            client.query_all(sql).unwrap();
                        }
                        client.quit().unwrap();
                    });
                }
            })
        })
    });
    g.finish();
    server.shutdown();
}

/// Governance-overhead pairs over the same hot grouped aggregation (the
/// kernel polls the cancel token and charges its group state once per
/// morsel): no ambient cancel token vs an installed `CancelScope` with
/// a live (far-future) deadline, and no ambient memory guard vs an
/// installed `MemoryScope` with an ample budget. The `off` ÷ `on`
/// ratios land in the `speedups` section of `NODB_BENCH_JSON`; the
/// cooperative checks and the metering are in budget while both stay
/// within a few percent of 1.
fn bench_robustness(c: &mut Criterion) {
    use nodb_types::{CancelScope, CancelToken};

    let n = 1_000_000;
    let mut cols: BTreeMap<usize, ColumnData> = BTreeMap::new();
    cols.insert(
        0,
        ColumnData::from_i64((0..n as i64).map(|i| (i * 37) % 997).collect()),
    );
    let perm = Permutation::new(n as u64, 11);
    cols.insert(
        1,
        ColumnData::from_i64((0..n as u64).map(|i| perm.apply(i) as i64).collect()),
    );
    let specs = vec![
        AggSpec::on_col(AggFunc::Sum, 1),
        AggSpec::on_col(AggFunc::Max, 1),
        AggSpec::count_star(),
    ];
    let filter = Conjunction::new(vec![ColPred::new(1, CmpOp::Gt, (n / 10) as i64)]);

    let mut g = c.benchmark_group("robustness");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("cancel_overhead/off", |b| {
        b.iter(|| {
            parallel_group_aggregate(&cols, n, &filter, &[0], &specs, 1, DEFAULT_MORSEL_ROWS, 0)
                .unwrap()
        })
    });
    g.bench_function("cancel_overhead/on", |b| {
        let token = CancelToken::new();
        token.set_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        let _scope = CancelScope::enter(token);
        b.iter(|| {
            parallel_group_aggregate(&cols, n, &filter, &[0], &specs, 1, DEFAULT_MORSEL_ROWS, 0)
                .unwrap()
        })
    });

    // Memory-metering pair: the same kernel (whose group state charges
    // per morsel and per merged partial) with no
    // ambient guard vs under an installed `MemoryScope` with an ample
    // budget — every charge site takes the full metered path: the
    // thread-local read, the guard CAS and the pool reservation.
    g.bench_function("mem_guard_overhead/off", |b| {
        b.iter(|| {
            parallel_group_aggregate(&cols, n, &filter, &[0], &specs, 1, DEFAULT_MORSEL_ROWS, 0)
                .unwrap()
        })
    });
    g.bench_function("mem_guard_overhead/on", |b| {
        use nodb_types::resource::{MemoryGuard, MemoryPool, MemoryScope};
        let pool = MemoryPool::new(Some(16 << 30));
        let guard = MemoryGuard::new(Some(8 << 30), Some(pool));
        let _scope = MemoryScope::enter(guard);
        b.iter(|| {
            parallel_group_aggregate(&cols, n, &filter, &[0], &specs, 1, DEFAULT_MORSEL_ROWS, 0)
                .unwrap()
        })
    });
    g.finish();
}

/// Profile-probe pair: the full warm `Engine::sql` path — plan cache,
/// result-cache lookup, warm kernel, stats assembly, every one of which
/// carries a phase probe — with no ambient `ProfileSink` (each probe is
/// a single thread-local read that finds nothing) vs under an installed
/// `ProfileScope` (each phase guard stamps `Instant`s and folds its
/// self-time into the sink). The `off` ÷ `on` ratio lands in the
/// `speedups` section of `NODB_BENCH_JSON`; disabled probes are free
/// while both stay within a few percent of 1.
fn bench_observability(c: &mut Criterion) {
    use nodb_core::{Engine, EngineConfig, LoadingStrategy};
    use nodb_types::{ProfileScope, ProfileSink};
    use std::sync::Arc;

    let rows = 50_000;
    let dir = std::env::temp_dir().join("nodb-micro-profile");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r.csv");
    std::fs::write(&path, csv_bytes(rows, 4)).unwrap();

    // ColumnLoads keeps the referenced columns resident and the result
    // cache is off, so every iteration runs the probed warm path end to
    // end rather than replaying a cached answer.
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads).with_threads(1);
    cfg.store_dir = Some(dir.join("store"));
    cfg.result_cache_bytes = 0;
    let e = Engine::new(cfg);
    e.register_table("r", &path).unwrap();
    let sql = "select a1, count(*) from r where a2 > 1000 group by a1 order by a1 limit 50";
    e.sql(sql).unwrap(); // warm the store so iterations measure execution

    let mut g = c.benchmark_group("observability");
    g.sample_size(20);
    g.bench_function("profile_overhead/off", |b| b.iter(|| e.sql(sql).unwrap()));
    g.bench_function("profile_overhead/on", |b| {
        let sink = ProfileSink::handle();
        let _scope = ProfileScope::enter(Arc::clone(&sink));
        b.iter(|| e.sql(sql).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tokenizer,
    bench_cracking,
    bench_kernels,
    bench_parallel,
    bench_joins,
    bench_prepared_vs_raw,
    bench_result_cache,
    bench_server,
    bench_robustness,
    bench_observability
);
criterion_main!(benches);
