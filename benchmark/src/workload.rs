//! The six workloads: what each sends, in which mix, and why it exists.
//!
//! A workload is a catalog of distinct queries (so each expected answer is
//! computed once) plus a seeded per-client stream of ops over it. All
//! loops are closed: a client sends its next request only after the
//! previous answer is fully decoded.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::Col;
use crate::oracle::{Item, Query};

/// Parameter sets per query template.
const POOL: usize = 256;
/// Distinct ranges `cache_churn` draws from, and how many of the most
/// popular ones are classed as expected hits (about what fits the
/// server's 8 MiB result cache together).
const CHURN_RANGES: usize = 2000;
const CHURN_HOT: usize = 80;
/// `adaptive_sequence`: six windows of twenty queries over shifting
/// column pairs.
const ADAPTIVE_WINDOW: usize = 20;
const ADAPTIVE_PAIRS: [(Col, Col); 6] = [
    (Col::A(1), Col::A(2)),
    (Col::A(3), Col::A(4)),
    (Col::A(5), Col::A(6)),
    (Col::A(1), Col::A(4)),
    (Col::A(2), Col::F1),
    (Col::A(3), Col::A(6)),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdFirstTouch,
    AdaptiveSequence,
    WarmShort,
    WarmAnalytic,
    FetchDrain,
    CacheChurn,
}

pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Client connections, one thread each; capped at `nproc` at run time.
    pub clients: usize,
    /// The `lat_tail_ms` percentile: the highest with at least ten
    /// samples beyond it in a 15 s run at seed speed.
    pub tail_percentile: f64,
    /// `--result-cache-mb` for the server; the cache is off otherwise.
    pub result_cache_mb: Option<usize>,
    /// Op classes reported as `client.<shape>.lat_p50_ms`.
    pub shapes: &'static [&'static str],
    /// The layers expected to hold the largest share of an op's time; the
    /// trace warns when the measured split says otherwise.
    pub intended_layers: &'static [&'static str],
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        kind: Kind::ColdFirstTouch,
        name: "cold_first_touch",
        why: "1 client; file re-armed by mtime before each 10% range aggregate: the paper's data-to-query time, all rawcsv + fused cold pipeline (tail p90)",
        clients: 1,
        tail_percentile: 90.0,
        result_cache_mb: None,
        shapes: &["cold"],
        intended_layers: &["rawcsv"],
    },
    Spec {
        kind: Kind::AdaptiveSequence,
        name: "adaptive_sequence",
        why: "1 client; 120 range aggregates in six windows over shifting column pairs from a re-armed file: posmap-guided partial loads then warm scans (tail p90)",
        clients: 1,
        // Six ops of a sequence (the re-armed one and five that load a new
        // column) are slow: 5% of the ops. p95 is the edge between them
        // and the fast ones, and spread 12% between seeds.
        tail_percentile: 90.0,
        result_cache_mb: None,
        shapes: &["first_touch", "converged"],
        intended_layers: &["rawcsv", "exec"],
    },
    Spec {
        kind: Kind::WarmShort,
        name: "warm_short",
        why: "2 clients; resident table, 0.1% range aggregates as EXECUTE/QUERY plus count(*): front end, thread spawns and reactor dispatch are most of the time (tail p99)",
        clients: 2,
        tail_percentile: 99.0,
        result_cache_mb: None,
        shapes: &["exec_prepared", "query_adhoc", "count_star"],
        intended_layers: &["exec", "server", "sql"],
    },
    Spec {
        kind: Kind::WarmAnalytic,
        name: "warm_analytic",
        why: "2 clients; resident tables, 30% filter-aggregate, two GROUP BYs and a join with few result rows: exec kernels dominate, wire and front end are noise (tail p90)",
        clients: 2,
        tail_percentile: 90.0,
        result_cache_mb: None,
        shapes: &["filter_agg", "group_lo", "group_str", "join"],
        intended_layers: &["exec"],
    },
    Spec {
        kind: Kind::FetchDrain,
        name: "fetch_drain",
        why: "1 client; a 20% four-column projection FETCHed to exhaustion page by page: projection into rows, BATCH encode, framing and reactor writes (tail p90)",
        clients: 1,
        tail_percentile: 90.0,
        result_cache_mb: None,
        shapes: &["drain"],
        intended_layers: &["server", "exec"],
    },
    Spec {
        kind: Kind::CacheChurn,
        name: "cache_churn",
        why: "2 clients; Zipf(1.0) over 2000 ranges against an 8 MiB result cache, 10% drill-downs into the last range: lookup, capture, eviction, subsumption (tail p95)",
        clients: 2,
        tail_percentile: 95.0,
        result_cache_mb: Some(8),
        shapes: &["hit", "subsumed", "miss"],
        intended_layers: &["core", "exec", "server"],
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One request of the closed loop: `QUERY` or `EXECUTE`, then `FETCH`
/// until the cursor is done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Workload::queries`].
    pub query: usize,
    /// Index into [`Spec::shapes`].
    pub shape: usize,
    /// `EXECUTE` of the prepared template instead of `QUERY` text.
    pub prepared: bool,
    /// Bump `wide.csv`'s mtime first (untimed), so the catalog drops all
    /// derived state and the op runs cold.
    pub rearm: bool,
}

/// Zipf(s = 1.0) over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / k as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

pub struct Workload {
    pub spec: &'static Spec,
    seed: u64,
    /// Every distinct query an op can send.
    pub queries: Vec<Query>,
    /// Template each connection PREPAREs in set-up, if the mix has
    /// `EXECUTE` ops.
    pub prepared_sql: Option<String>,
    zipf: Option<Zipf>,
}

/// `POOL` ranges covering `share` of the domain each, at seeded places.
fn range_pool(rng: &mut StdRng, rows: i64, share: f64) -> Vec<(i64, i64)> {
    let width = ((rows as f64 * share) as i64).max(2);
    (0..POOL)
        .map(|_| {
            let lo = rng.gen_range(0..rows - width);
            (lo, lo + width)
        })
        .collect()
}

impl Workload {
    pub fn new(spec: &'static Spec, seed: u64, rows: usize) -> Workload {
        let rows = rows as i64;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x776f_726b_6c6f_6164);
        let mut queries = Vec::new();
        let mut prepared_sql = None;
        let mut zipf = None;
        match spec.kind {
            Kind::ColdFirstTouch => {
                for (lo, hi) in range_pool(&mut rng, rows, 0.10) {
                    queries.push(Query::range_agg(
                        &[Item::Sum(Col::A(1)), Item::Avg(Col::A(2))],
                        Col::A(1),
                        lo,
                        hi,
                    ));
                }
            }
            Kind::AdaptiveSequence => {
                // Widths step evenly through 1-10% of the table, in a
                // seeded order: every seed's sequence does the same
                // amount of work, at different places.
                for (x, y) in ADAPTIVE_PAIRS {
                    let mut shares: Vec<f64> = (0..ADAPTIVE_WINDOW)
                        .map(|i| 0.01 + 0.09 * i as f64 / (ADAPTIVE_WINDOW - 1) as f64)
                        .collect();
                    for i in (1..shares.len()).rev() {
                        shares.swap(i, rng.gen_range(0..=i));
                    }
                    for share in shares {
                        let width = ((rows as f64 * share) as i64).max(2);
                        let lo = rng.gen_range(0..rows - width);
                        queries.push(Query::range_agg(
                            &[Item::Sum(x), Item::Avg(y)],
                            x,
                            lo,
                            lo + width,
                        ));
                    }
                }
            }
            Kind::WarmShort => {
                let select = [Item::Count, Item::Sum(Col::A(2))];
                for (lo, hi) in range_pool(&mut rng, rows, 0.001) {
                    queries.push(Query::range_agg(&select, Col::A(1), lo, hi));
                }
                prepared_sql = Some(queries[0].sql(true));
                queries.push(Query {
                    select: vec![Item::Count],
                    range: None,
                    group_by: None,
                    join_dim: false,
                });
            }
            Kind::WarmAnalytic => {
                for (lo, hi) in range_pool(&mut rng, rows, 0.30) {
                    queries.push(Query::range_agg(
                        &[Item::Sum(Col::A(3)), Item::Avg(Col::F1)],
                        Col::A(4),
                        lo,
                        hi,
                    ));
                }
                queries.push(Query {
                    select: vec![Item::Col(Col::GLo), Item::Count, Item::Sum(Col::A(5))],
                    range: None,
                    group_by: Some(Col::GLo),
                    join_dim: false,
                });
                queries.push(Query {
                    select: vec![Item::Col(Col::S1), Item::Count, Item::Avg(Col::F1)],
                    range: None,
                    group_by: Some(Col::S1),
                    join_dim: false,
                });
                for _ in 0..POOL {
                    let hi = rng.gen_range(rows / 5..rows * 3 / 5);
                    queries.push(Query {
                        select: vec![Item::Count, Item::Sum(Col::DimD1)],
                        range: Some((Col::A(1), None, hi)),
                        group_by: None,
                        join_dim: true,
                    });
                }
            }
            Kind::FetchDrain => {
                queries.push(Query {
                    select: [Col::A(1), Col::A(2), Col::F1, Col::S1]
                        .map(Item::Col)
                        .to_vec(),
                    range: Some((Col::A(1), None, rows / 5)),
                    group_by: None,
                    join_dim: false,
                });
            }
            Kind::CacheChurn => {
                let select = [Item::Col(Col::A(2)), Item::Col(Col::A(3))];
                let width = (rows / 500).max(8);
                // Rank r is the range starting at a seeded offset; widths
                // are fixed so every result has about the same size.
                let mut ranges = Vec::with_capacity(CHURN_RANGES);
                for _ in 0..CHURN_RANGES {
                    let lo = rng.gen_range(0..rows - width);
                    ranges.push((lo, lo + width));
                    queries.push(Query::range_agg(&select, Col::A(1), lo, lo + width));
                }
                // Query CHURN_RANGES + r drills into range r.
                for &(lo, hi) in &ranges {
                    let cut_lo = rng.gen_range(1..width / 4);
                    let cut_hi = rng.gen_range(1..width / 4);
                    queries.push(Query::range_agg(
                        &select,
                        Col::A(1),
                        lo + cut_lo,
                        hi - cut_hi,
                    ));
                }
                zipf = Some(Zipf::new(CHURN_RANGES));
            }
        }
        Workload {
            spec,
            seed,
            queries,
            prepared_sql,
            zipf,
        }
    }

    /// Ops a stream yields before it is back at a point where the run may
    /// stop: only whole adaptive sequences count.
    pub fn sequence_len(&self) -> usize {
        match self.spec.kind {
            Kind::AdaptiveSequence => ADAPTIVE_PAIRS.len() * ADAPTIVE_WINDOW,
            _ => 1,
        }
    }

    /// Queries worth sending once, untimed, before the window: one per
    /// template, so tables are resident and the templates planned.
    pub fn warmup_queries(&self) -> Vec<usize> {
        match self.spec.kind {
            // One cold op pages the file in; the adaptive sequence starts
            // from a re-armed file anyway.
            Kind::ColdFirstTouch | Kind::AdaptiveSequence | Kind::FetchDrain => vec![0],
            Kind::WarmShort => vec![0, POOL],
            Kind::WarmAnalytic => vec![0, POOL, POOL + 1, POOL + 2],
            Kind::CacheChurn => vec![CHURN_RANGES - 1],
        }
    }

    pub fn stream(&self, client: usize) -> OpStream<'_> {
        OpStream {
            w: self,
            rng: StdRng::seed_from_u64(
                self.seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            issued: 0,
            block: Vec::new(),
            last_rank: None,
        }
    }
}

pub struct OpStream<'a> {
    w: &'a Workload,
    rng: StdRng,
    issued: usize,
    /// Op classes left in the current block of a mixed workload.
    block: Vec<usize>,
    /// `cache_churn`: the range this client drew last, which a
    /// drill-down op narrows.
    last_rank: Option<usize>,
}

impl OpStream<'_> {
    pub fn next_op(&mut self) -> Op {
        let slot = self.next_slot();
        let rng = &mut self.rng;
        let n = self.issued;
        self.issued += 1;
        let adhoc = |query, shape| Op {
            query,
            shape,
            prepared: false,
            rearm: false,
        };
        match self.w.spec.kind {
            Kind::ColdFirstTouch => Op {
                rearm: true,
                ..adhoc(rng.gen_range(0..POOL), 0)
            },
            Kind::AdaptiveSequence => {
                let at = n % self.w.sequence_len();
                Op {
                    rearm: at == 0,
                    ..adhoc(at, usize::from(at != 0))
                }
            }
            Kind::WarmShort => match slot {
                0 => Op {
                    prepared: true,
                    ..adhoc(rng.gen_range(0..POOL), 0)
                },
                1 => adhoc(rng.gen_range(0..POOL), 1),
                _ => adhoc(POOL, 2),
            },
            Kind::WarmAnalytic => match slot {
                0 => adhoc(rng.gen_range(0..POOL), 0),
                1 => adhoc(POOL, 1),
                2 => adhoc(POOL + 1, 2),
                _ => adhoc(POOL + 2 + rng.gen_range(0..POOL), 3),
            },
            Kind::FetchDrain => adhoc(0, 0),
            Kind::CacheChurn => match self.last_rank {
                Some(rank) if slot == 1 => adhoc(CHURN_RANGES + rank, 1),
                _ => {
                    let rank = self
                        .w
                        .zipf
                        .as_ref()
                        .expect("churn has a sampler")
                        .sample(rng);
                    self.last_rank = Some(rank);
                    adhoc(rank, if rank < CHURN_HOT { 0 } else { 2 })
                }
            },
        }
    }

    /// The mixed workloads deal their op classes from blocks that hold
    /// each class exactly as often as the mix says, in a seeded order. A
    /// class drawn independently per op would be 40% of the ops only on
    /// average, and with a 6x cost ratio between classes that sampling
    /// noise alone moved `ops_per_s` by several percent between seeds.
    fn next_slot(&mut self) -> usize {
        let counts: &[usize] = match self.w.spec.kind {
            // EXECUTE : QUERY : count(*) = 50 : 30 : 20.
            Kind::WarmShort => &[5, 3, 2],
            // filter_agg : group_lo : group_str : join = 40 : 25 : 15 : 20.
            Kind::WarmAnalytic => &[8, 5, 3, 4],
            // Zipf draw : drill-down = 90 : 10.
            Kind::CacheChurn => &[9, 1],
            _ => return 0,
        };
        if self.block.is_empty() {
            for (slot, &count) in counts.iter().enumerate() {
                self.block.extend(std::iter::repeat_n(slot, count));
            }
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..=i));
            }
        }
        self.block.pop().expect("just refilled")
    }

    /// True between sequences (always, for workloads without sequences).
    pub fn at_boundary(&self) -> bool {
        self.issued.is_multiple_of(self.w.sequence_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(2000);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        assert!(a.iter().all(|&r| r < 2000));
        // Under Zipf(1.0) over 2000 ranks, rank 0 draws about 12% and the
        // first 80 ranks about 60% of the samples.
        let first = a.iter().filter(|&&r| r == 0).count();
        let hot = a.iter().filter(|&&r| r < CHURN_HOT).count();
        assert!((400..800).contains(&first), "rank 0 drew {first}");
        assert!((2700..3300).contains(&hot), "hot ranks drew {hot}");
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_per_client() {
        for spec in &WORKLOADS {
            let w = Workload::new(spec, 5, 10_000);
            let take = |client| {
                let mut s = w.stream(client);
                (0..300).map(|_| s.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(take(0), take(0), "{}", spec.name);
            for op in take(0) {
                assert!(op.query < w.queries.len());
                assert!(op.shape < spec.shapes.len());
            }
            if !matches!(spec.kind, Kind::AdaptiveSequence | Kind::FetchDrain) {
                assert_ne!(take(0), take(1), "{}", spec.name);
            }
            for &q in &w.warmup_queries() {
                assert!(q < w.queries.len());
            }
        }
    }

    #[test]
    fn mixes_are_exact_per_block() {
        let w = Workload::new(spec_named("warm_analytic").unwrap(), 3, 10_000);
        let mut s = w.stream(1);
        let mut per_shape = [0; 4];
        for _ in 0..200 {
            per_shape[s.next_op().shape] += 1;
        }
        assert_eq!(per_shape, [80, 50, 30, 40]);
        let w = Workload::new(spec_named("cache_churn").unwrap(), 3, 100_000);
        let mut s = w.stream(0);
        let drills = (0..1000).filter(|_| s.next_op().shape == 1).count();
        // Exactly one per block of ten, except when it is the very first op.
        assert!((99..=100).contains(&drills), "{drills} drill-downs");
    }

    #[test]
    fn adaptive_sequence_rearms_once_and_stops_on_whole_sequences() {
        let w = Workload::new(spec_named("adaptive_sequence").unwrap(), 1, 10_000);
        let mut s = w.stream(0);
        assert!(s.at_boundary());
        let ops: Vec<Op> = (0..240).map(|_| s.next_op()).collect();
        assert!(s.at_boundary());
        assert_eq!(ops.iter().filter(|o| o.rearm).count(), 2);
        assert_eq!(ops.iter().filter(|o| o.shape == 0).count(), 2);
        assert_eq!(ops[..120], ops[120..]);
    }

    #[test]
    fn churn_drill_downs_sit_strictly_inside_their_range() {
        let w = Workload::new(spec_named("cache_churn").unwrap(), 9, 100_000);
        assert_eq!(w.queries.len(), 2 * CHURN_RANGES);
        for (i, sub) in w.queries[CHURN_RANGES..].iter().enumerate() {
            let (_, Some(lo), hi) = w.queries[i].range.unwrap() else {
                panic!()
            };
            let (_, Some(slo), shi) = sub.range.unwrap() else {
                panic!()
            };
            assert!(lo < slo && shi < hi && slo < shi);
        }
    }
}
