//! Per-layer rates measured on this box by calling each layer's public
//! functions directly over the generated data: the numbers the end-to-end
//! latencies are made of, with a memory-bandwidth roofline beside them.
//! Layers are the crate names.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nodb::exec::{
    filter_positions, parallel_filter_aggregate, parallel_group_aggregate,
    parallel_hash_join_positions, project_rows, AggFunc, AggSpec, Expr, DEFAULT_MORSEL_ROWS,
};
use nodb::rawcsv::tokenizer::find_row_starts;
use nodb::rawcsv::{
    infer_file, infer_from_bytes, read_file, scan_bytes, CsvOptions, PositionalMap, ScanSpec,
};
use nodb::server::Response;
use nodb::store::CrackedColumn;
use nodb::types::{drive_morsels, CmpOp, ColPred, ColumnData, Conjunction};
use nodb::{Client, Engine, EngineConfig, NodbServer, ProfileScope, ProfileSink, ServerConfig};
use nodb::{Schema, Value, WorkCounters};

use crate::data::{Col, Columns, S1_VALUES};
use crate::oracle::{Item, Query};
use crate::stats::median;
use crate::wire::Res;

/// The tokenizer scans run over a prefix of `wide.csv` this long (cut at
/// a row start): well above L2, and short enough to repeat.
const SCAN_PREFIX_BYTES: usize = 16 << 20;

/// Repeat `f` for at least `min_iters` and until `budget` is spent;
/// return the median seconds per call and the call count. `f` returns
/// the time it wants counted, so set-up inside it stays untimed.
fn median_secs(
    budget: Duration,
    min_iters: usize,
    mut f: impl FnMut() -> Duration,
) -> (f64, usize) {
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min_iters || (started.elapsed() < budget && secs.len() < 100_000) {
        secs.push(f().as_secs_f64());
    }
    (median(&secs), secs.len())
}

/// A per-layer metric as measured: name, value, samples behind it. The
/// unit comes from the registry in `trace::per_layer_metrics`.
pub type Measured = (String, f64, usize);

pub fn measured(name: impl Into<String>, value: f64, samples: usize) -> Measured {
    (name.into(), value, samples)
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

fn range_conj(col: usize, lo: i64, hi: i64) -> Conjunction {
    Conjunction::new(vec![
        ColPred::new(col, CmpOp::Gt, lo),
        ColPred::new(col, CmpOp::Lt, hi),
    ])
}

pub struct Layers<'a> {
    pub cols: &'a Columns,
    pub wide: &'a Path,
    pub dim: &'a Path,
    pub scratch: &'a Path,
    pub nproc: usize,
    /// Time budget per measured function.
    pub budget: Duration,
}

impl Layers<'_> {
    pub fn measure(&self) -> Res<Vec<Measured>> {
        let mut out = Vec::new();
        self.roofline_and_rawcsv(&mut out)?;
        self.store(&mut out);
        self.exec(&mut out)?;
        self.sql(&mut out)?;
        self.core(&mut out)?;
        self.server(&mut out)?;
        self.types(&mut out)?;
        Ok(out)
    }

    fn roofline_and_rawcsv(&self, out: &mut Vec<Measured>) -> Res<()> {
        let counters = WorkCounters::new();
        let opts = CsvOptions {
            threads: self.nproc,
            ..CsvOptions::default()
        };
        let bytes = read_file(self.wide, &counters)?;
        let gb = bytes.len() as f64 / 1e9;

        let mut dst = vec![0u8; bytes.len()];
        let (s, n) = median_secs(self.budget, 3, || timed(|| dst.copy_from_slice(&bytes)));
        out.push(measured("roofline.memcpy_gb_per_s", gb / s, n));
        drop(dst);
        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| bytes.iter().filter(|&&b| b == b'\n').count())
        });
        let newline_gb_per_s = gb / s;
        out.push(measured(
            "roofline.newline_count_gb_per_s",
            newline_gb_per_s,
            n,
        ));

        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| read_file(self.wide, &counters).expect("wide.csv was just read"))
        });
        out.push(measured("rawcsv.read_file_gb_per_s", gb / s, n));
        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| find_row_starts(&bytes, &opts, &counters).expect("no failpoint armed"))
        });
        out.push(measured("rawcsv.phase1_gb_per_s", gb / s, n));
        out.push(measured(
            "rawcsv.phase1_share_of_roofline",
            gb / s / newline_gb_per_s,
            n,
        ));

        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| infer_file(self.wide, &opts, 64, &counters).expect("wide.csv has a schema"))
        });
        out.push(measured("rawcsv.infer_schema_ms", s * 1e3, n));

        // Phase 2 over a prefix of the data rows, header cut off.
        let inferred = infer_from_bytes(&bytes, &opts, 64)?;
        let schema = inferred.schema;
        let body = &bytes[inferred.data_start as usize..];
        let cut = match body.get(..SCAN_PREFIX_BYTES) {
            Some(prefix) => prefix
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1),
            None => body.len(),
        };
        let body = &body[..cut];
        let mb = body.len() as f64 / 1e6;
        let scan = |needed: Vec<usize>,
                    pushdown: Option<&Conjunction>,
                    pm: Option<&mut PositionalMap>| {
            let spec = ScanSpec {
                schema: &schema,
                needed,
                pushdown,
            };
            timed(|| scan_bytes(body, &opts, &spec, pm, &counters).expect("generated CSV parses"))
        };
        let (s, n) = median_secs(self.budget, 3, || {
            scan((0..schema.len()).collect(), None, None)
        });
        out.push(measured("rawcsv.scan_all_cols_mb_per_s", mb / s, n));
        let (s, n) = median_secs(self.budget, 3, || scan(vec![0, 1], None, None));
        out.push(measured("rawcsv.scan_2_cols_mb_per_s", mb / s, n));
        let rows = self.cols.rows as i64;
        let tenth = range_conj(0, rows / 3, rows / 3 + rows / 10);
        let (s, n) = median_secs(self.budget, 3, || scan(vec![1], Some(&tenth), None));
        out.push(measured("rawcsv.scan_pushdown_mb_per_s", mb / s, n));
        // a4 through the positional map a scan of a3 left behind: the
        // adaptive sequence's second window.
        let mut after_a3 = PositionalMap::new();
        scan(vec![2], None, Some(&mut after_a3));
        let (s, n) = median_secs(self.budget, 3, || {
            let mut pm = after_a3.clone();
            scan(vec![3], None, Some(&mut pm))
        });
        out.push(measured("rawcsv.posmap_rescan_mb_per_s", mb / s, n));
        Ok(())
    }

    fn store(&self, out: &mut Vec<Measured>) {
        let rows = self.cols.rows as i64;
        let a1 = &self.cols.a[0];
        let interval = |lo: i64, hi: i64| {
            range_conj(0, lo, hi)
                .to_box()
                .expect("a range is a box")
                .by_col[&0]
                .clone()
        };
        let first = interval(rows / 3, rows / 3 + rows / 100);
        let (s, n) = median_secs(self.budget, 3, || {
            let mut cracked = CrackedColumn::new(a1.clone());
            timed(|| cracked.select(&first).map(|(v, _)| v.len()))
        });
        out.push(measured("store.crack_select_first_ms", s * 1e3, n));

        // 256 ranges of 0.1%, spread over the domain: one pass cracks the
        // column into its converged shape, the timed passes select from it.
        let width = (rows / 1000).max(2);
        let pool: Vec<(i64, i64)> = (0..256)
            .map(|i| {
                let lo = (i * 7919 * width) % (rows - width);
                (lo, lo + width)
            })
            .collect();
        let mut cracked = CrackedColumn::new(a1.clone());
        for &(lo, hi) in &pool {
            cracked.select(&interval(lo, hi));
        }
        let mut next = 0;
        let (s, n) = median_secs(self.budget, 256, || {
            let (lo, hi) = pool[next % pool.len()];
            next += 1;
            let iv = interval(lo, hi);
            timed(|| cracked.select(&iv).map(|(v, _)| v.iter().sum::<i64>()))
        });
        out.push(measured("store.crack_select_converged_us", s * 1e6, n));
        out.push(measured(
            "store.crack_pieces",
            cracked.piece_count() as f64,
            1,
        ));

        let mut column = BTreeMap::new();
        column.insert(0, ColumnData::from_i64(a1.clone()));
        let mut next = 0;
        let (s, n) = median_secs(self.budget, 16, || {
            let (lo, hi) = pool[next % pool.len()];
            next += 1;
            let conj = range_conj(0, lo, hi);
            timed(|| filter_positions(&column, a1.len(), &conj).expect("int range filter"))
        });
        out.push(measured("store.scan_select_us", s * 1e6, n));
    }

    /// The resident columns of `wide` as the kernels take them, keyed by
    /// ordinal in file order.
    fn wide_columns(&self, wanted: &[Col]) -> BTreeMap<usize, ColumnData> {
        let c = self.cols;
        wanted
            .iter()
            .map(|&col| {
                let data = match col {
                    Col::F1 => {
                        ColumnData::from_f64(c.f1_eighths.iter().map(|&e| e as f64 / 8.0).collect())
                    }
                    Col::S1 => ColumnData::from_strings(
                        c.s1.iter()
                            .map(|&i| S1_VALUES[usize::from(i)].to_owned())
                            .collect(),
                    ),
                    other => ColumnData::from_i64(c.int_col(other).to_vec()),
                };
                (ordinal(col), data)
            })
            .collect()
    }

    fn exec(&self, out: &mut Vec<Measured>) -> Res<()> {
        let n_rows = self.cols.rows;
        let rows = n_rows as i64;
        let mrows = n_rows as f64 / 1e6;
        let (threads, morsel) = (self.nproc, DEFAULT_MORSEL_ROWS);
        let always = Conjunction::new(Vec::new());

        let cols = self.wide_columns(&[Col::A(3), Col::A(4), Col::F1]);
        let conj = range_conj(ordinal(Col::A(4)), rows / 3, rows / 3 + rows * 3 / 10);
        let specs = [
            AggSpec::on_col(AggFunc::Sum, ordinal(Col::A(3))),
            AggSpec::on_col(AggFunc::Avg, ordinal(Col::F1)),
        ];
        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| parallel_filter_aggregate(&cols, n_rows, &conj, &specs, threads, morsel))
        });
        out.push(measured("exec.filter_agg_mrows_per_s", mrows / s, n));

        let cols = self.wide_columns(&[Col::GLo, Col::A(5)]);
        let specs = [
            AggSpec::count_star(),
            AggSpec::on_col(AggFunc::Sum, ordinal(Col::A(5))),
        ];
        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| {
                let key = [ordinal(Col::GLo)];
                parallel_group_aggregate(&cols, n_rows, &always, &key, &specs, threads, morsel, 0)
            })
        });
        out.push(measured("exec.group_lo_mrows_per_s", mrows / s, n));

        let cols = self.wide_columns(&[Col::S1, Col::F1]);
        let specs = [
            AggSpec::count_star(),
            AggSpec::on_col(AggFunc::Avg, ordinal(Col::F1)),
        ];
        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| {
                let key = [ordinal(Col::S1)];
                parallel_group_aggregate(&cols, n_rows, &always, &key, &specs, threads, morsel, 0)
            })
        });
        out.push(measured("exec.group_str_mrows_per_s", mrows / s, n));

        let g_hi = ColumnData::from_i64(self.cols.g_hi.clone());
        let dim_k = ColumnData::from_i64(self.cols.dim_k.clone());
        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| parallel_hash_join_positions(&g_hi, &dim_k, threads, morsel))
        });
        out.push(measured("exec.join_build_probe_mrows_per_s", mrows / s, n));

        let drained = [Col::A(1), Col::A(2), Col::F1, Col::S1];
        let cols = self.wide_columns(&drained);
        let fifth = Conjunction::new(vec![ColPred::new(ordinal(Col::A(1)), CmpOp::Lt, rows / 5)]);
        let positions = filter_positions(&cols, n_rows, &fifth)?;
        let exprs: Vec<Expr> = drained.iter().map(|&c| Expr::Col(ordinal(c))).collect();
        let (s, n) = median_secs(self.budget, 3, || {
            timed(|| project_rows(&cols, &positions, &exprs))
        });
        out.push(measured(
            "exec.project_rows_mrows_per_s",
            positions.len() as f64 / 1e6 / s,
            n,
        ));
        Ok(())
    }

    fn sql(&self, out: &mut Vec<Measured>) -> Res<()> {
        let counters = WorkCounters::new();
        let opts = CsvOptions::default();
        let mut schemas: HashMap<String, Schema> = HashMap::new();
        schemas.insert(
            "wide".to_owned(),
            infer_file(self.wide, &opts, 64, &counters)?.schema,
        );
        let q = Query::range_agg(&[Item::Count, Item::Sum(Col::A(2))], Col::A(1), 1000, 2000);
        let text = q.sql(false);
        let (s, n) = median_secs(self.budget, 100, || {
            timed(|| nodb::sql::plan_sql(&text, &schemas))
        });
        out.push(measured("sql.parse_plan_us", s * 1e6, n));
        let plan = nodb::sql::plan_sql(&q.sql(true), &schemas)?;
        let params = q.params();
        let (s, n) = median_secs(self.budget, 100, || timed(|| plan.bind(&params)));
        out.push(measured("sql.bind_ns", s * 1e9, n));
        Ok(())
    }

    fn engine(&self, result_cache_bytes: usize) -> Res<Engine> {
        let mut cfg = EngineConfig::default().with_threads(self.nproc);
        cfg.result_cache_bytes = result_cache_bytes;
        let engine = Engine::new(cfg);
        engine.register_table("wide", self.wide)?;
        engine.register_table("dim", self.dim)?;
        Ok(engine)
    }

    fn core(&self, out: &mut Vec<Measured>) -> Res<()> {
        // One of cache_churn's ranges: a miss runs the warm scan and
        // captures ~rows/500 result rows, a hit replays them.
        let rows = self.cols.rows as i64;
        let churn = Query::range_agg(
            &[Item::Col(Col::A(2)), Item::Col(Col::A(3))],
            Col::A(1),
            rows / 2,
            rows / 2 + (rows / 500).max(8),
        )
        .sql(false);
        let engine = self.engine(64 << 20)?;
        engine.sql(&churn)?;
        let mut hits = Vec::new();
        let (miss, n) = median_secs(self.budget, 5, || {
            engine.result_cache().clear();
            let miss = timed(|| engine.sql(&churn).expect("warm churn query"));
            hits.push(timed(|| engine.sql(&churn).expect("cached churn query")).as_secs_f64());
            miss
        });
        out.push(measured("core.result_cache_hit_us", median(&hits) * 1e6, n));
        out.push(measured("core.result_cache_miss_capture_us", miss * 1e6, n));
        Ok(())
    }

    fn server(&self, out: &mut Vec<Measured>) -> Res<()> {
        // A full BATCH page of fetch_drain's four typed columns.
        let c = self.cols;
        let rows: Vec<Vec<Value>> = (0..1024)
            .map(|i| {
                vec![
                    Value::Int(c.a[0][i]),
                    Value::Int(c.a[1][i]),
                    Value::Float(c.f1_eighths[i] as f64 / 8.0),
                    Value::Str(S1_VALUES[usize::from(c.s1[i])].to_owned()),
                ]
            })
            .collect();
        let page = Response::Batch { done: false, rows };
        let (s, n) = median_secs(self.budget, 10, || timed(|| page.encode()));
        out.push(measured(
            "server.encode_batch_mrows_per_s",
            1024.0 / 1e6 / s,
            n,
        ));
        let encoded = page.encode();
        let (s, n) = median_secs(self.budget, 10, || timed(|| Response::decode(&encoded)));
        out.push(measured(
            "server.decode_batch_mrows_per_s",
            1024.0 / 1e6 / s,
            n,
        ));

        // The floor under every op: QUERY + FETCH of `count(*)` on a
        // resident one-row table, over loopback to an in-process server.
        let one = self.scratch.join("one.csv");
        std::fs::write(&one, "a1,a2\n1,2\n")?;
        let engine = Arc::new(Engine::new(
            EngineConfig::default().with_threads(self.nproc),
        ));
        engine.register_table("one", &one)?;
        let server = NodbServer::bind(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: self.nproc,
                ..ServerConfig::default()
            },
        )?;
        let mut client = Client::connect(server.local_addr())?;
        client.query_all("SELECT count(*) FROM one")?;
        let (s, n) = median_secs(self.budget, 100, || {
            timed(|| client.query_all("SELECT count(*) FROM one"))
        });
        client.quit()?;
        server.shutdown();
        out.push(measured("server.min_roundtrip_us", s * 1e6, n));
        Ok(())
    }

    fn types(&self, out: &mut Vec<Measured>) -> Res<()> {
        // One empty morsel per worker: what is left is spawn and join.
        let (s, n) = median_secs(self.budget, 100, || {
            timed(|| drive_morsels(self.nproc, 1, self.nproc, |_| (), |_, _, _| Ok(()), |_| ()))
        });
        out.push(measured("types.drive_morsels_spawn_us", s * 1e6, n));

        // warm_analytic's filter-aggregate with the PR 10 profile armed
        // and not, interleaved so drift hits both sides alike.
        let rows = self.cols.rows as i64;
        let sql = Query::range_agg(
            &[Item::Sum(Col::A(3)), Item::Avg(Col::F1)],
            Col::A(4),
            rows / 3,
            rows / 3 + rows * 3 / 10,
        )
        .sql(false);
        let engine = self.engine(0)?;
        engine.sql(&sql)?;
        let mut on = Vec::new();
        let (off, n) = median_secs(self.budget * 4, 20, || {
            let off = timed(|| engine.sql(&sql).expect("warm filter-aggregate"));
            let _scope = ProfileScope::enter(ProfileSink::handle());
            on.push(timed(|| engine.sql(&sql).expect("warm filter-aggregate")).as_secs_f64());
            off
        });
        out.push(measured(
            "types.profile_overhead_ratio",
            median(&on) / off,
            n,
        ));
        Ok(())
    }
}

/// Ordinal of a `wide` column in file order.
fn ordinal(c: Col) -> usize {
    match c {
        Col::A(n) => usize::from(n) - 1,
        Col::GLo => 6,
        Col::F1 => 8,
        Col::S1 => 9,
        Col::DimD1 => panic!("d1 is a column of dim"),
    }
}
