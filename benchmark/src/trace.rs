//! `trace`: the per-layer view of one workload.
//!
//! Three measurements, none of which feeds an end-to-end metric:
//!
//! 1. the layer rates of [`crate::layers`];
//! 2. a short untraced window against a spawned server, for the deltas of
//!    the server's own STATS counters and the per-shape client latencies;
//! 3. a single-threaded replay of the workload's first ops against twin
//!    in-process engines — one called directly under a PR 10
//!    `ProfileScope`, one behind an in-process `NodbServer` on loopback —
//!    with a span recorded by this file around every public call. The
//!    program itself gets no new probe.
//!
//! Spans are kept in memory and written to `out/trace-<workload>.jsonl`
//! when the replay ends. A span's self time is its duration minus its
//! children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nodb::server::Response;
use nodb::types::profile::{percentile_from_buckets, Phase, HIST_BUCKETS};
use nodb::{
    latency_from_extras, Engine, EngineConfig, NodbServer, Prepared, ProfileScope, ProfileSink,
    ServerConfig, Session,
};

use crate::layers::{measured, Layers, Measured};
use crate::oracle::AnswerBuilder;
use crate::run::{self, Config, Metric, Report};
use crate::stats::{json_string, median, percentile_sorted};
use crate::wire::{self, Conn, Rearm, Res, Sample};
use crate::workload::{Op, Spec, Workload, WORKLOADS};

/// The layers a share is reported for, then what no span explains.
const LAYERS: [&str; 6] = ["rawcsv", "store", "exec", "sql", "core", "server"];
const UNATTRIBUTED: &str = "unattributed";

/// PR 10 phases the in-process engine can report, with the layer each
/// self-time is charged to. `cold_pipeline` is the fused tokenize +
/// per-morsel operator loop driven by `rawcsv::scan_morsels`; `load` is
/// what remains of an adaptive load after its tokenizer phases, i.e.
/// filling the store. (`wire_serialize` only exists server-side.)
const PHASES: [(Phase, &str); 12] = [
    (Phase::Plan, "sql"),
    (Phase::ResultCacheLookup, "core"),
    (Phase::ResultCacheCapture, "core"),
    (Phase::Tokenize1, "rawcsv"),
    (Phase::Tokenize2, "rawcsv"),
    (Phase::ColdPipeline, "rawcsv"),
    (Phase::Load, "store"),
    (Phase::Cracking, "store"),
    (Phase::WarmKernel, "exec"),
    (Phase::GroupMerge, "exec"),
    (Phase::JoinBuild, "exec"),
    (Phase::JoinProbe, "exec"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based; 0 means "no parent".
    pub id: u32,
    pub parent: u32,
    /// The op (request) this span belongs to.
    pub op: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, op: u32, name: &str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let now = self.now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            op,
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = self.now();
    }

    fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Attach durations measured elsewhere (the PR 10 phase self-times)
    /// as children of a closed span, laid end to end from its start: the
    /// profile records how long each phase ran, not when.
    pub fn add_children(&mut self, parent: u32, children: &[(String, u64)]) {
        let (op, mut at) = (self.span(parent).op, self.span(parent).start_ns);
        for (name, ns) in children {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent,
                op,
                name: name.clone(),
                start_ns: at,
                end_ns: at + ns,
            });
            at += ns;
        }
    }

    /// Self time per span: duration minus the direct children's, which on
    /// one thread never overlap. Saturating, because phase children come
    /// from another clock than their parent.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.op,
                json_string(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// `(name, unit, better)` of every per-layer metric, in report order.
/// A metric that does not apply to the traced workload reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| m.push((name.to_owned(), unit, better));
    add("roofline.memcpy_gb_per_s", "GB/s", "higher");
    add("roofline.newline_count_gb_per_s", "GB/s", "higher");
    add("rawcsv.read_file_gb_per_s", "GB/s", "higher");
    add("rawcsv.phase1_gb_per_s", "GB/s", "higher");
    add("rawcsv.phase1_share_of_roofline", "ratio", "higher");
    add("rawcsv.infer_schema_ms", "ms", "lower");
    add("rawcsv.scan_all_cols_mb_per_s", "MB/s", "higher");
    add("rawcsv.scan_2_cols_mb_per_s", "MB/s", "higher");
    add("rawcsv.scan_pushdown_mb_per_s", "MB/s", "higher");
    add("rawcsv.posmap_rescan_mb_per_s", "MB/s", "higher");
    add("rawcsv.bytes_read_per_op", "bytes", "lower");
    add("rawcsv.fields_tokenized_per_op", "count", "lower");
    add("rawcsv.values_parsed_per_op", "count", "lower");
    add("store.crack_select_first_ms", "ms", "lower");
    add("store.crack_select_converged_us", "us", "lower");
    add("store.crack_pieces", "count", "lower");
    add("store.scan_select_us", "us", "lower");
    add("exec.filter_agg_mrows_per_s", "Mrows/s", "higher");
    add("exec.group_lo_mrows_per_s", "Mrows/s", "higher");
    add("exec.group_str_mrows_per_s", "Mrows/s", "higher");
    add("exec.join_build_probe_mrows_per_s", "Mrows/s", "higher");
    add("exec.project_rows_mrows_per_s", "Mrows/s", "higher");
    add("sql.parse_plan_us", "us", "lower");
    add("sql.bind_ns", "ns", "lower");
    add("core.result_cache_hit_us", "us", "lower");
    add("core.result_cache_miss_capture_us", "us", "lower");
    add("core.engine_ms", "ms", "lower");
    for (phase, _) in PHASES {
        add(&format!("core.phase.{}_ms", phase.label()), "ms", "lower");
    }
    add("core.unattributed_ms", "ms", "lower");
    add("core.plan_cache_hit_ratio", "ratio", "higher");
    add("core.result_cache_hit_ratio", "ratio", "higher");
    add("core.result_cache_subsumed_ratio", "ratio", "higher");
    add("core.result_cache_evictions_per_op", "count", "lower");
    add("core.morsels_per_op", "count", "lower");
    add("core.parallel_pipelines_per_op", "count", "lower");
    add("server.encode_batch_mrows_per_s", "Mrows/s", "higher");
    add("server.decode_batch_mrows_per_s", "Mrows/s", "higher");
    add("server.min_roundtrip_us", "us", "lower");
    add("server.first_page_ms", "ms", "lower");
    add("server.wire_bytes_per_row", "bytes", "lower");
    add("server.wire_share_ms", "ms", "lower");
    add("server.queue_wait_p50_us", "us", "lower");
    add("server.queue_wait_p99_us", "us", "lower");
    add("server.fetch_p50_us", "us", "lower");
    add("server.reactor_wakeups_per_op", "count", "lower");
    add("server.frames_partial_per_op", "count", "lower");
    add("types.drive_morsels_spawn_us", "us", "lower");
    add("types.profile_overhead_ratio", "ratio", "lower");
    for spec in &WORKLOADS {
        for shape in spec.shapes {
            add(&format!("client.{shape}.lat_p50_ms"), "ms", "lower");
        }
    }
    add("client.lat_p99_ms", "ms", "lower");
    add("client.harness_cpu_share", "ratio", "lower");
    add("client.tracing_overhead_ratio", "ratio", "lower");
    for layer in LAYERS.iter().chain([&UNATTRIBUTED]) {
        add(&format!("trace.share.{layer}"), "%", "lower");
    }
    m
}

/// The twin engines of the replay, configured as `nodb-server` is.
struct Twins {
    session: Session,
    prepared: Option<Prepared>,
    server: NodbServer,
    conn: Conn,
}

impl Twins {
    /// Start both twins and send each the warm-up queries once.
    fn start(
        cfg: &Config,
        prep: &run::Prepared,
        w: &Workload,
        samples: &mut Vec<Sample>,
    ) -> Res<Twins> {
        let engine = || -> Res<Arc<Engine>> {
            let mut ec = EngineConfig::default().with_threads(cfg.nproc);
            ec.result_cache_bytes = w.spec.result_cache_mb.unwrap_or(0) << 20;
            let e = Engine::new(ec);
            e.register_table("dim", &prep.data.dim)?;
            e.register_table("wide", &prep.data.wide)?;
            Ok(Arc::new(e))
        };
        let batch_rows = ServerConfig::default().batch_rows;
        let session = Session::new(engine()?).with_batch_size(batch_rows);
        let prepared = match &w.prepared_sql {
            Some(sql) => Some(session.prepare(sql)?),
            None => None,
        };
        let server = NodbServer::bind(
            engine()?,
            "127.0.0.1:0",
            ServerConfig {
                workers: cfg.nproc,
                ..ServerConfig::default()
            },
        )?;
        let conn = Conn::open(server.local_addr(), w)?;
        let mut twins = Twins {
            session,
            prepared,
            server,
            conn,
        };
        for &query in &w.warmup_queries() {
            let op = Op {
                query,
                shape: 0,
                prepared: false,
                rearm: false,
            };
            samples.push(twins.engine_op(w, op).0);
            samples.push(twins.conn.run(w, op));
        }
        Ok(twins)
    }

    /// `op` on the in-process engine under an armed profile, through the
    /// calls the server makes for it: open a stream, pull it batch by
    /// batch. Returns the sample and the profile's phase self-times.
    fn engine_op(&self, w: &Workload, op: Op) -> (Sample, Vec<(String, u64)>) {
        let q = &w.queries[op.query];
        let sink = ProfileSink::handle();
        let started = Instant::now();
        let batches = (|| -> nodb::Result<Vec<Vec<Vec<nodb::Value>>>> {
            let _scope = ProfileScope::enter(Arc::clone(&sink));
            let mut stream = match (op.prepared, &self.prepared) {
                (true, Some(stmt)) => stmt.stream(&q.params())?,
                _ => self.session.query(&q.sql(false))?,
            };
            let mut batches = Vec::new();
            while let Some(batch) = stream.next_batch()? {
                batches.push(batch.rows);
            }
            Ok(batches)
        })();
        let latency_ns = started.elapsed().as_nanos() as u64;
        let phases = sink
            .snapshot()
            .phases()
            .map(|(phase, ns, _calls)| (format!("phase.{}", phase.label()), ns))
            .collect();
        let answer = batches.ok().map(|batches| {
            let mut b = AnswerBuilder::default();
            for batch in &batches {
                b.push_values(batch);
            }
            b.finish()
        });
        (
            Sample {
                query: op.query,
                shape: op.shape,
                latency_ns,
                answer,
            },
            phases,
        )
    }

    /// `op` over the wire with a span around every client call. Returns
    /// the sample plus the rows and re-encoded BATCH bytes it drained.
    fn traced_wire_op(
        &mut self,
        w: &Workload,
        op: Op,
        id: u32,
        t: &mut Tracer,
    ) -> (Sample, u64, u64) {
        let q = &w.queries[op.query];
        let client = &mut self.conn.client;
        let span = t.enter(id, "server.wire_op");
        let pages = (|| -> nodb::Result<Vec<Vec<Vec<nodb::Value>>>> {
            let mut cursor = match (op.prepared, self.conn.stmt) {
                (true, Some(stmt)) => {
                    let s = t.enter(id, "client.execute");
                    let c = client.execute(stmt, &q.params());
                    t.exit(s);
                    c?
                }
                _ => {
                    let s = t.enter(id, "client.query");
                    let c = client.query(&q.sql(false));
                    t.exit(s);
                    c?
                }
            };
            let mut pages = Vec::new();
            loop {
                let s = t.enter(id, "client.fetch");
                let page = client.fetch(&mut cursor);
                t.exit(s);
                match page? {
                    Some(batch) => pages.push(batch.rows),
                    None => return Ok(pages),
                }
            }
        })();
        t.exit(span);
        let latency_ns = t.span(span).duration();
        let (mut rows, mut bytes) = (0u64, 0u64);
        let answer = pages.ok().map(|pages| {
            let mut b = AnswerBuilder::default();
            for page in pages {
                b.push_values(&page);
                rows += page.len() as u64;
                // What the server put on the wire for this page: the
                // frame's length prefix plus the encoded BATCH.
                bytes += 4 + Response::Batch {
                    done: false,
                    rows: page,
                }
                .encode()
                .len() as u64;
            }
            b.finish()
        });
        (
            Sample {
                query: op.query,
                shape: op.shape,
                latency_ns,
                answer,
            },
            rows,
            bytes,
        )
    }

    fn stop(self) -> Res<()> {
        self.conn.client.quit()?;
        self.server.shutdown();
        Ok(())
    }
}

/// Means over the replayed ops, in ns.
struct Accounting {
    ops: usize,
    wire_ns: f64,
    engine_ns: f64,
    /// Phase self-time by layer.
    layer_ns: BTreeMap<&'static str, f64>,
    phase_ns: BTreeMap<&'static str, f64>,
    /// `core.engine_sql` self time: inside the engine, outside any phase.
    engine_self_ns: f64,
}

fn account(t: &Tracer) -> Accounting {
    let own = t.self_times();
    let mut a = Accounting {
        ops: 0,
        wire_ns: 0.0,
        engine_ns: 0.0,
        layer_ns: BTreeMap::new(),
        phase_ns: BTreeMap::new(),
        engine_self_ns: 0.0,
    };
    for (s, &own_ns) in t.spans.iter().zip(&own) {
        match s.name.as_str() {
            "server.wire_op" => {
                a.ops += 1;
                a.wire_ns += s.duration() as f64;
            }
            "core.engine_sql" => {
                a.engine_ns += s.duration() as f64;
                a.engine_self_ns += own_ns as f64;
            }
            name => {
                if let Some(label) = name.strip_prefix("phase.") {
                    if let Some((phase, layer)) = PHASES.iter().find(|(p, _)| p.label() == label) {
                        *a.layer_ns.entry(layer).or_default() += own_ns as f64;
                        *a.phase_ns.entry(phase.label()).or_default() += own_ns as f64;
                    }
                }
            }
        }
    }
    let n = a.ops.max(1) as f64;
    a.wire_ns /= n;
    a.engine_ns /= n;
    a.engine_self_ns /= n;
    a.layer_ns.values_mut().for_each(|v| *v /= n);
    a.phase_ns.values_mut().for_each(|v| *v /= n);
    a
}

/// Shares of the mean wire op, in percent, per layer and unattributed.
/// `server` is what the wire op took beyond its in-process twin; by that
/// definition the shares add up to the op's span.
fn shares(a: &Accounting) -> Vec<(&'static str, f64)> {
    let pct = |ns: f64| 100.0 * ns / a.wire_ns.max(1.0);
    let mut out: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&layer| {
            let ns = match layer {
                "server" => a.wire_ns - a.engine_ns,
                l => a.layer_ns.get(l).copied().unwrap_or(0.0),
            };
            (layer, pct(ns))
        })
        .collect();
    out.push((UNATTRIBUTED, pct(a.engine_self_ns)));
    out
}

fn print_accounting(spec: &Spec, a: &Accounting, shares: &[(&'static str, f64)]) {
    eprintln!(
        "# trace accounting for {}: {} ops, mean wire op {:.3} ms, in-process twin {:.3} ms",
        spec.name,
        a.ops,
        a.wire_ns / 1e6,
        a.engine_ns / 1e6
    );
    for (layer, pct) in shares {
        eprintln!("#   {layer:<14} {pct:>7.2} %");
    }
    let total: f64 = shares.iter().map(|(_, p)| p).sum();
    eprintln!("#   {:<14} {total:>7.2} %", "sum");
    let unattributed = shares.last().map_or(0.0, |(_, p)| *p);
    if unattributed > 10.0 {
        eprintln!("# warning: {unattributed:.1} % of the op is in no phase and no wire span");
    }
    let largest = shares[..LAYERS.len()]
        .iter()
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .map_or("", |(l, _)| l);
    if !spec.intended_layers.contains(&largest) {
        eprintln!(
            "# warning: {} was chosen to stress {:?}, but its largest share is {largest}",
            spec.name, spec.intended_layers
        );
    }
}

/// Replay ops from the start of client 0's stream on both twins until
/// `budget` is spent and the stream is at a sequence boundary. With a
/// tracer, every call is wrapped in spans; without, only the wire twin
/// runs, as the untraced baseline for the tracing overhead.
fn replay(
    twins: &mut Twins,
    w: &Workload,
    rearm: &Rearm,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Res<(Vec<Sample>, Vec<Sample>, u64, u64)> {
    let mut stream = w.stream(0);
    let (mut engine_samples, mut wire_samples) = (Vec::new(), Vec::new());
    let (mut rows, mut bytes) = (0, 0);
    let started = Instant::now();
    let mut id = 0;
    while started.elapsed() < budget || !stream.at_boundary() {
        let op = stream.next_op();
        id += 1;
        if op.rearm {
            rearm.bump()?;
        }
        match tracer.as_deref_mut() {
            None => wire_samples.push(twins.conn.run(w, op)),
            Some(t) => {
                let root = t.enter(id, w.spec.shapes[op.shape]);
                // Alternate which twin goes first, so neither always
                // finds the file and the caches as the other left them.
                for twin in [id % 2, (id + 1) % 2] {
                    if twin == 0 {
                        let span = t.enter(id, "core.engine_sql");
                        let (sample, phases) = twins.engine_op(w, op);
                        t.exit(span);
                        t.add_children(span, &phases);
                        engine_samples.push(sample);
                    } else {
                        let (sample, r, b) = twins.traced_wire_op(w, op, id, t);
                        wire_samples.push(sample);
                        rows += r;
                        bytes += b;
                    }
                }
                t.exit(root);
            }
        }
    }
    Ok((engine_samples, wire_samples, rows, bytes))
}

/// Bucket-wise difference of one latency series between two STATS reads.
fn histogram_delta(
    before: &[(String, u64)],
    after: &[(String, u64)],
    series: &str,
) -> [u64; HIST_BUCKETS] {
    let find = |extras: &[(String, u64)]| {
        latency_from_extras(extras)
            .into_iter()
            .find(|(name, _)| name == series)
            .map_or([0; HIST_BUCKETS], |(_, buckets)| buckets)
    };
    let (b, a) = (find(before), find(after));
    std::array::from_fn(|i| a[i].saturating_sub(b[i]))
}

/// Per-op deltas of the server's own STATS over an untraced window, the
/// per-shape client latencies and the harness's CPU share.
fn window_metrics(window: &wire::Window, spec: &Spec, nproc: usize) -> Vec<Measured> {
    let n = window.samples.len();
    let ops = n.max(1) as f64;
    let d = window.stats_after.0.since(&window.stats_before.0);
    let mut out: Vec<Measured> = [
        ("rawcsv.bytes_read_per_op", d.bytes_read),
        ("rawcsv.fields_tokenized_per_op", d.fields_tokenized),
        ("rawcsv.values_parsed_per_op", d.values_parsed),
        (
            "core.result_cache_evictions_per_op",
            d.result_cache_evictions,
        ),
        ("core.morsels_per_op", d.morsels_dispatched),
        ("core.parallel_pipelines_per_op", d.parallel_pipelines),
        ("server.reactor_wakeups_per_op", d.reactor_wakeups),
        ("server.frames_partial_per_op", d.frames_partial),
    ]
    .into_iter()
    .map(|(name, total)| measured(name, total as f64 / ops, n))
    .collect();
    let plans = d.plan_cache_hits + d.plan_cache_misses;
    let lookups = d.result_cache_hits + d.result_cache_subsumed_hits + d.result_cache_misses;
    for (name, num, den) in [
        ("core.plan_cache_hit_ratio", d.plan_cache_hits, plans),
        ("core.result_cache_hit_ratio", d.result_cache_hits, lookups),
        (
            "core.result_cache_subsumed_ratio",
            d.result_cache_subsumed_hits,
            lookups,
        ),
    ] {
        out.push(measured(name, num as f64 / den.max(1) as f64, n));
    }
    for (name, series, p) in [
        ("server.queue_wait_p50_us", "queue_wait", 50.0),
        ("server.queue_wait_p99_us", "queue_wait", 99.0),
        ("server.fetch_p50_us", "fetch", 50.0),
    ] {
        let buckets = histogram_delta(&window.stats_before.1, &window.stats_after.1, series);
        let us = percentile_from_buckets(&buckets, p).unwrap_or(0);
        out.push(measured(
            name,
            us as f64,
            buckets.iter().sum::<u64>() as usize,
        ));
    }
    for (i, shape) in spec.shapes.iter().enumerate() {
        let lat = run::latencies_ms(&window.samples, Some(i));
        out.push(measured(
            format!("client.{shape}.lat_p50_ms"),
            percentile_sorted(&lat, 50.0),
            lat.len(),
        ));
    }
    let lat = run::latencies_ms(&window.samples, None);
    let p99 = if lat.len() >= 1000 {
        percentile_sorted(&lat, 99.0)
    } else {
        0.0
    };
    out.push(measured("client.lat_p99_ms", p99, lat.len()));
    out.push(measured(
        "client.harness_cpu_share",
        window.harness_cpu_ms / (window.elapsed_s * 1000.0 * nproc as f64),
        n,
    ));
    out
}

/// What the traced replay's spans say: the in-process engine's time and
/// phases, the wire's share, the layer shares and the first page.
fn span_metrics(tracer: &Tracer, spec: &Spec, engine_samples: &[Sample]) -> Vec<Measured> {
    let a = account(tracer);
    let shares = shares(&a);
    print_accounting(spec, &a, &shares);
    let n = a.ops;
    let mut out = vec![
        measured("core.engine_ms", median(&latencies(engine_samples)), n),
        measured("core.unattributed_ms", a.engine_self_ns / 1e6, n),
        measured("server.wire_share_ms", (a.wire_ns - a.engine_ns) / 1e6, n),
    ];
    for (phase, _) in PHASES {
        let ns = a.phase_ns.get(phase.label()).copied().unwrap_or(0.0);
        out.push(measured(
            format!("core.phase.{}_ms", phase.label()),
            ns / 1e6,
            n,
        ));
    }
    for (layer, pct) in &shares {
        out.push(measured(format!("trace.share.{layer}"), *pct, n));
    }
    // First page: from the request frame to the first BATCH decoded.
    let first_page_ms: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "server.wire_op")
        .filter_map(|op| {
            let first_fetch = tracer
                .spans
                .iter()
                .find(|s| s.parent == op.id && s.name == "client.fetch")?;
            Some((first_fetch.end_ns - op.start_ns) as f64 / 1e6)
        })
        .collect();
    out.push(measured("server.first_page_ms", median(&first_page_ms), n));
    out
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ns as f64 / 1e6).collect()
}

pub fn trace_workload(cfg: &Config, spec: &'static Spec) -> Res<Report> {
    let prep = run::prepare(cfg)?;
    let w = Workload::new(spec, cfg.seed, cfg.rows);
    let rearm = Rearm::new(&prep.data.wide);
    let mut all_samples: Vec<Sample> = Vec::new();

    // 1. Layer rates.
    let mut found = Layers {
        cols: &prep.cols,
        wide: &prep.data.wide,
        dim: &prep.data.dim,
        scratch: &cfg.out,
        nproc: cfg.nproc,
        budget: Duration::from_secs_f64(cfg.seconds * 0.01),
    }
    .measure()?;

    // 2. Untraced window against the real server: counters and clients.
    let mut ready = run::set_up(cfg, &prep, &w, &rearm)?;
    run::print_header(cfg, spec, ready.conns.len(), &prep, &ready.server.flags);
    let window = wire::run_window(
        ready.server.pid(),
        &mut ready.conns,
        &w,
        &rearm,
        cfg.seconds * 0.3,
        0,
    )?;
    drop(ready.conns);
    ready.server.stop()?;
    found.extend(window_metrics(&window, spec, cfg.nproc));
    all_samples.extend(window.samples);

    // 3. Twin replay: an untraced pass, then the traced one on fresh
    // twins, so both start from the same engine state.
    let mut twins = Twins::start(cfg, &prep, &w, &mut all_samples)?;
    let (_, untraced, _, _) = replay(
        &mut twins,
        &w,
        &rearm,
        Duration::from_secs_f64(cfg.seconds * 0.1),
        None,
    )?;
    twins.stop()?;
    let mut twins = Twins::start(cfg, &prep, &w, &mut all_samples)?;
    let mut tracer = Tracer::new();
    let (engine_samples, wire_samples, rows, bytes) = replay(
        &mut twins,
        &w,
        &rearm,
        Duration::from_secs_f64(cfg.seconds * 0.3),
        Some(&mut tracer),
    )?;
    twins.stop()?;
    tracer.write_jsonl(&cfg.out.join(format!("trace-{}.jsonl", spec.name)))?;
    found.extend(span_metrics(&tracer, spec, &engine_samples));
    found.push(measured(
        "server.wire_bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
        rows as usize,
    ));
    // Same ops, same kind of twin, with and without spans around the calls.
    let common = untraced.len().min(wire_samples.len());
    found.push(measured(
        "client.tracing_overhead_ratio",
        median(&latencies(&wire_samples[..common]))
            / median(&latencies(&untraced[..common])).max(1e-9),
        common,
    ));
    all_samples.extend(untraced);
    all_samples.extend(engine_samples);
    all_samples.extend(wire_samples);

    // Report in registry order, with the registry's units; what does not
    // apply to this workload reads 0.
    let mut found: BTreeMap<String, (f64, usize)> = found
        .into_iter()
        .map(|(name, value, samples)| (name, (value, samples)))
        .collect();
    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit, _)| {
            let (value, samples) = found.remove(&name).unwrap_or((0.0, 0));
            Metric::new(name, unit, value, samples)
        })
        .collect();
    assert!(
        found.is_empty(),
        "unregistered per-layer metrics: {:?}",
        found.keys()
    );
    Ok(Report {
        workload: spec.name,
        seed: cfg.seed,
        trace: true,
        attempted: all_samples.len() as u64,
        failed: run::count_failures(&w, &prep.cols, &all_samples, cfg.nproc),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let root = t.enter(1, "op");
        let child = t.enter(1, "core.engine_sql");
        t.exit(child);
        t.exit(root);
        // Pin the clock readings so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 1000;
        t.spans[1].start_ns = 100;
        t.spans[1].end_ns = 700;
        t.add_children(
            child,
            &[
                ("phase.plan".to_owned(), 50),
                ("phase.warm_kernel".to_owned(), 450),
            ],
        );
        assert_eq!(t.spans[2].parent, child);
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (100, 150));
        assert_eq!((t.spans[3].start_ns, t.spans[3].end_ns), (150, 600));
        assert_eq!(t.self_times(), vec![400, 100, 50, 450]);
    }

    #[test]
    fn shares_add_up_to_the_wire_op() {
        let mut t = Tracer::new();
        for op in 1..=2 {
            let root = t.enter(op, "cold");
            let e = t.enter(op, "core.engine_sql");
            t.exit(e);
            let w = t.enter(op, "server.wire_op");
            t.exit(w);
            t.exit(root);
            // Pin the clock readings: engine 40 ns, wire 100 ns.
            let at = |id: u32| id as usize - 1;
            (t.spans[at(e)].start_ns, t.spans[at(e)].end_ns) = (0, 40);
            (t.spans[at(w)].start_ns, t.spans[at(w)].end_ns) = (40, 140);
            t.add_children(e, &[("phase.cold_pipeline".to_owned(), 10)]);
        }
        let a = account(&t);
        assert_eq!(a.ops, 2);
        let shares = shares(&a);
        assert_eq!(shares[0], ("rawcsv", 10.0));
        assert_eq!(shares[5], ("server", 60.0));
        assert_eq!(shares[6], (UNATTRIBUTED, 30.0));
        let total: f64 = shares.iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn per_layer_names_are_unique_and_fit_the_contract() {
        let m = per_layer_metrics();
        assert!(m.len() <= 128, "{} metrics", m.len());
        let mut names: Vec<&str> = m.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), m.len());
        for (name, unit, _) in &m {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
    }
}
