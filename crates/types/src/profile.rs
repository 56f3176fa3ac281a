//! Query-level execution profiling: ambient phase timers, per-worker
//! morsel aggregates, and fixed-bucket log2 latency histograms.
//!
//! The paper's adaptive engine makes *policy* decisions (what to load,
//! which kernel, what to cache) per query — and the ROADMAP's self-tuning
//! policy engine needs to observe what each decision cost. This module is
//! that observe layer:
//!
//! * [`ProfileSink`] — an atomic accumulator for one query's execution
//!   profile: per-[`Phase`] self-times, morsel aggregates (morsels,
//!   steals, rows, bytes), the loading-strategy label and the
//!   result-cache outcome.
//! * [`ProfileScope`] — installs a sink as the `profile` field of the
//!   calling thread's [`QueryContext`], exactly like
//!   [`CancelScope`](crate::CancelScope) does for the token:
//!   instrumentation sites call [`time`] / [`note_cache`] /
//!   [`note_strategy`] unconditionally, and when no sink is installed
//!   each site costs one thread-local read and a branch — no clock call,
//!   no allocation.
//! * [`QueryProfile`] — the final snapshot attached to `QueryStats`,
//!   rendered by `EXPLAIN ANALYZE` and the server's slow-query log.
//! * [`LatencyHistogram`] — fixed-bucket log2 histogram (microsecond
//!   samples) used by the wire server for per-opcode latencies and
//!   queue-wait; percentiles are derived from bucket counts on the
//!   *client* side, so the wire carries only `(bucket, count)` pairs.
//!
//! # Phase accounting is exclusive (self-time)
//!
//! Phase timers nest: entering a phase pauses the enclosing phase's
//! clock, so each recorded duration is the phase's *own* time with inner
//! phases subtracted. Disjoint self-times sum to at most the query's wall
//! clock — which is what makes an `EXPLAIN ANALYZE` breakdown add up.
//! Timers run only on the thread that entered the scope (the query's
//! coordinating thread); the morsel driver's workers carry the same sink
//! with timers off and contribute *counts* (morsels, steals, rows,
//! bytes), never overlapping wall-clock time.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::context::{self, ContextGuard, QueryContext};

/// One timed section of query execution.
///
/// The variants mirror the engine's layers: front end, result cache,
/// loading (the parallel cold load, tokenizer phases, cracking), warm
/// kernels and their merges, and wire serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Plan-cache lookup plus (on a miss) lex + parse + name resolution.
    Plan = 0,
    /// Result-cache lookup (exact + subsumption probes).
    ResultCacheLookup,
    /// Result-cache capture after execution.
    ResultCacheCapture,
    /// Tokenizer phase 1: locating row boundaries as a pass of its own
    /// (about 0 on an unquoted cold load, whose chunk walk finds them).
    Tokenize1,
    /// Tokenizer phase 2: walking rows to the maximum referenced column
    /// (policy loads and pure tokenization scans; the parallel cold
    /// load's walk is part of [`Phase::ColdPipeline`]).
    Tokenize2,
    /// The parallel cold load: one pass per byte chunk that reads, splits
    /// and parses the raw file into the store.
    ColdPipeline,
    /// Adaptive loading on the policy path: reading and scanning raw
    /// files into the store.
    Load,
    /// Adaptive-index cracking (partition select + piece splits).
    Cracking,
    /// Warm relational kernels over resident columns.
    WarmKernel,
    /// Merging per-worker group-aggregation partials.
    GroupMerge,
    /// Building hash-join tables.
    JoinBuild,
    /// Probing hash-join tables.
    JoinProbe,
    /// Serializing result rows for the wire.
    WireSerialize,
}

/// Number of [`Phase`] variants (sizes the per-phase arrays).
pub const PHASE_COUNT: usize = 13;

impl Phase {
    /// Every phase, in declaration (reporting) order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Plan,
        Phase::ResultCacheLookup,
        Phase::ResultCacheCapture,
        Phase::Tokenize1,
        Phase::Tokenize2,
        Phase::ColdPipeline,
        Phase::Load,
        Phase::Cracking,
        Phase::WarmKernel,
        Phase::GroupMerge,
        Phase::JoinBuild,
        Phase::JoinProbe,
        Phase::WireSerialize,
    ];

    /// Short stable label used in `EXPLAIN ANALYZE` output and the
    /// slow-query log.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::ResultCacheLookup => "result_cache_lookup",
            Phase::ResultCacheCapture => "result_cache_capture",
            Phase::Tokenize1 => "tokenize1",
            Phase::Tokenize2 => "tokenize2",
            Phase::ColdPipeline => "cold_pipeline",
            Phase::Load => "load",
            Phase::Cracking => "cracking",
            Phase::WarmKernel => "warm_kernel",
            Phase::GroupMerge => "group_merge",
            Phase::JoinBuild => "join_build",
            Phase::JoinProbe => "join_probe",
            Phase::WireSerialize => "wire_serialize",
        }
    }
}

/// How the result cache answered (or didn't answer) a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum CacheOutcome {
    /// No lookup happened (cache disabled, or non-SELECT).
    #[default]
    Bypass = 0,
    /// Lookup ran and found nothing usable.
    Miss,
    /// Exact entry served the query.
    Hit,
    /// A cached superset was re-filtered to serve the query.
    SubsumedHit,
}

impl CacheOutcome {
    /// Stable label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Bypass => "bypass",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Hit => "hit",
            CacheOutcome::SubsumedHit => "subsumed_hit",
        }
    }

    fn from_u8(v: u8) -> CacheOutcome {
        match v {
            1 => CacheOutcome::Miss,
            2 => CacheOutcome::Hit,
            3 => CacheOutcome::SubsumedHit,
            _ => CacheOutcome::Bypass,
        }
    }
}

/// Atomic accumulator for one query's execution profile.
///
/// Shared (`Arc`) between the query's coordinating thread — which owns
/// the phase timers via the ambient scope — and worker threads, which
/// fold in morsel aggregates through [`ProfileSink::add_morsels`] /
/// [`ProfileSink::add_steal`]. All fields are monotonic adds; the final
/// [`ProfileSink::snapshot`] is taken after the query completes.
#[derive(Debug, Default)]
pub struct ProfileSink {
    phase_ns: [AtomicU64; PHASE_COUNT],
    phase_hits: [AtomicU64; PHASE_COUNT],
    morsels: AtomicU64,
    steals: AtomicU64,
    rows: AtomicU64,
    bytes: AtomicU64,
    cache: AtomicU8,
    strategy: Mutex<Option<String>>,
}

/// Shared handle to a [`ProfileSink`].
pub type ProfileHandle = Arc<ProfileSink>;

impl ProfileSink {
    /// A fresh, empty sink behind a shareable handle.
    pub fn handle() -> ProfileHandle {
        Arc::new(ProfileSink::default())
    }

    /// Add `ns` nanoseconds of self-time (and one hit) to `phase`.
    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
        self.phase_hits[phase as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Extend `phase`'s self-time without counting a hit (used when a
    /// nested phase pauses and resumes its parent).
    fn extend_phase_ns(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// Fold in one completed morsel: `rows` rows produced from `bytes`
    /// input bytes. Called from worker threads.
    pub fn add_morsels(&self, morsels: u64, rows: u64, bytes: u64) {
        self.morsels.fetch_add(morsels, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count one cross-worker morsel steal.
    pub fn add_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` cross-worker morsel steals.
    pub fn add_steals(&self, n: u64) {
        self.steals.fetch_add(n, Ordering::Relaxed);
    }

    /// Fold in input bytes consumed (tokenizer byte spans).
    pub fn add_bytes(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record the result-cache outcome (last write wins).
    pub fn set_cache(&self, outcome: CacheOutcome) {
        self.cache.store(outcome as u8, Ordering::Relaxed);
    }

    /// Record the loading-strategy label (last write wins).
    pub fn set_strategy(&self, label: &str) {
        *self.strategy.lock().unwrap_or_else(|e| e.into_inner()) = Some(label.to_owned());
    }

    /// Snapshot the accumulated profile.
    pub fn snapshot(&self) -> QueryProfile {
        let mut phase_ns = [0u64; PHASE_COUNT];
        let mut phase_hits = [0u64; PHASE_COUNT];
        for i in 0..PHASE_COUNT {
            phase_ns[i] = self.phase_ns[i].load(Ordering::Relaxed);
            phase_hits[i] = self.phase_hits[i].load(Ordering::Relaxed);
        }
        QueryProfile {
            phase_ns,
            phase_hits,
            morsels: self.morsels.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            cache: CacheOutcome::from_u8(self.cache.load(Ordering::Relaxed)),
            strategy: self
                .strategy
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }
}

/// A query's completed execution profile.
///
/// Phase times are *self-times* (inner phases subtracted), so
/// [`QueryProfile::total_phase_ns`] is at most the query's wall clock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Per-phase self-time in nanoseconds, indexed by `Phase as usize`.
    pub phase_ns: [u64; PHASE_COUNT],
    /// Per-phase completion counts, indexed by `Phase as usize`.
    pub phase_hits: [u64; PHASE_COUNT],
    /// Morsels executed across all workers.
    pub morsels: u64,
    /// Morsels taken from another worker's natural share.
    pub steals: u64,
    /// Rows produced by morsel work.
    pub rows: u64,
    /// Input bytes consumed by morsel work.
    pub bytes: u64,
    /// Result-cache outcome.
    pub cache: CacheOutcome,
    /// Loading-strategy label, when the engine recorded one.
    pub strategy: Option<String>,
}

impl QueryProfile {
    /// Phases with nonzero time or hits, as `(phase, ns, hits)`, in
    /// reporting order.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, u64, u64)> + '_ {
        Phase::ALL.iter().filter_map(move |&p| {
            let (ns, hits) = (self.phase_ns[p as usize], self.phase_hits[p as usize]);
            (ns > 0 || hits > 0).then_some((p, ns, hits))
        })
    }

    /// Sum of all phase self-times, in nanoseconds.
    pub fn total_phase_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Self-time of one phase, in nanoseconds.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// True when nothing was recorded (profiling was off).
    pub fn is_empty(&self) -> bool {
        self.total_phase_ns() == 0 && self.phase_hits.iter().all(|&h| h == 0) && self.morsels == 0
    }
}

impl std::fmt::Display for QueryProfile {
    /// Compact one-line rendering used by the slow-query log:
    /// `plan=12.3us cold_pipeline=4.5ms ... morsels=12 steals=2 rows=100 bytes=4096`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (p, ns, _) in self.phases() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{}={}", p.label(), fmt_ns(ns))?;
        }
        if !first {
            write!(f, " ")?;
        }
        write!(
            f,
            "morsels={} steals={} rows={} bytes={}",
            self.morsels, self.steals, self.rows, self.bytes
        )
    }
}

/// Human-friendly duration: nanoseconds rendered at ns/us/ms/s scale.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Installs a sink as the thread's ambient profile for a lexical scope: a
/// one-field overlay on the [`QueryContext`]. The previous profile (if
/// any) is restored on drop, so nested scopes compose; timers still open
/// then are closed into this scope's sink. Only the installing thread's
/// timers record — driver workers carry the sink for their counts but run
/// with timers off.
#[derive(Debug)]
#[must_use = "the profile is uninstalled when the scope drops"]
pub struct ProfileScope {
    _ctx: ContextGuard,
}

impl ProfileScope {
    /// Install `sink` as the current thread's ambient profile.
    pub fn enter(sink: ProfileHandle) -> ProfileScope {
        ProfileScope {
            _ctx: QueryContext {
                profile: Some(sink),
                ..QueryContext::current()
            }
            .enter(),
        }
    }
}

/// The ambient sink, cloned out of the context so no sink call runs
/// under its borrow.
fn ambient_sink() -> Option<ProfileHandle> {
    context::with(|c| c.ctx.profile.clone())
}

/// An open phase timer; closing it (drop) records the phase's self-time.
/// When no ambient profile is installed this is an armed=false no-op that
/// never touched the clock.
pub struct PhaseGuard {
    armed: bool,
}

/// Start timing `phase` on the current thread. One thread-local read and
/// a branch when profiling is off (or on a driver worker). Pauses the
/// enclosing phase's clock while this one is open, so recorded times are
/// exclusive.
pub fn phase(p: Phase) -> PhaseGuard {
    let opened = context::with(|cur| {
        let (Some(sink), Some(timers)) = (&cur.ctx.profile, &mut cur.timers) else {
            return None;
        };
        let now = Instant::now();
        let paused = timers.last_mut().map(|(parent, start)| {
            let elapsed = now.duration_since(*start).as_nanos() as u64;
            *start = now;
            (*parent, elapsed)
        });
        timers.push((p, now));
        Some((Arc::clone(sink), paused))
    });
    let Some((sink, paused)) = opened else {
        return PhaseGuard { armed: false };
    };
    if let Some((parent, elapsed)) = paused {
        sink.extend_phase_ns(parent, elapsed);
    }
    PhaseGuard { armed: true }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let closed = context::with(|cur| {
            let sink = cur.ctx.profile.as_ref()?;
            let timers = cur.timers.as_mut()?;
            let (p, start) = timers.pop()?;
            let now = Instant::now();
            // Resume the parent's clock from now.
            if let Some((_, pstart)) = timers.last_mut() {
                *pstart = now;
            }
            Some((
                Arc::clone(sink),
                p,
                now.duration_since(start).as_nanos() as u64,
            ))
        });
        if let Some((sink, p, ns)) = closed {
            sink.add_phase_ns(p, ns);
        }
    }
}

/// Run `f` under a [`phase`] timer.
pub fn time<T>(p: Phase, f: impl FnOnce() -> T) -> T {
    let _guard = phase(p);
    f()
}

/// Record the result-cache outcome into the ambient profile, if any.
pub fn note_cache(outcome: CacheOutcome) {
    if let Some(sink) = ambient_sink() {
        sink.set_cache(outcome);
    }
}

/// Record the loading-strategy label into the ambient profile, if any.
pub fn note_strategy(label: &str) {
    if let Some(sink) = ambient_sink() {
        sink.set_strategy(label);
    }
}

/// Fold input bytes consumed into the ambient profile, if any — callable
/// from driver workers, which carry the caller's sink.
pub fn add_bytes(bytes: u64) {
    if let Some(sink) = ambient_sink() {
        sink.add_bytes(bytes);
    }
}

// ---------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------

/// Number of buckets in a [`LatencyHistogram`].
///
/// Bucket 0 holds the sample value 0; bucket `b` (1..=26) holds samples
/// in `[2^(b-1), 2^b - 1]` microseconds; the top bucket (27) saturates,
/// holding everything from `2^26` µs (≈ 67 s) up.
pub const HIST_BUCKETS: usize = 28;

/// Fixed-bucket log2 latency histogram over microsecond samples.
///
/// Recording is one `leading_zeros` and one relaxed atomic increment —
/// cheap enough for every request. The wire carries `(bucket, count)`
/// pairs; percentiles come from [`percentile_from_buckets`] wherever the
/// counts land (the client, a dashboard, a test).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// The bucket index a microsecond sample lands in.
    pub fn bucket_of(micros: u64) -> usize {
        if micros == 0 {
            0
        } else {
            ((64 - micros.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive `[lo, hi]` microsecond range of a bucket.
    pub fn bucket_range(bucket: usize) -> (u64, u64) {
        match bucket {
            0 => (0, 0),
            b if b < HIST_BUCKETS - 1 => (1u64 << (b - 1), (1u64 << b) - 1),
            _ => (1u64 << (HIST_BUCKETS - 2), u64::MAX),
        }
    }

    /// Record one microsecond sample.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duration.
    pub fn record(&self, d: std::time::Duration) {
        self.record_micros(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Current bucket counts.
    pub fn snapshot(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// The `p`-th percentile (0 < p <= 100) derived from log2 bucket counts,
/// or `None` for an empty histogram.
///
/// Returns the *inclusive upper edge* of the bucket containing the
/// rank-`ceil(p/100 · total)` sample — a conservative (never
/// under-reported) microsecond estimate. The saturating top bucket
/// reports its lower edge, i.e. "at least `2^26` µs".
pub fn percentile_from_buckets(buckets: &[u64], p: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let rank = rank.min(total);
    let mut cum = 0u64;
    for (b, &count) in buckets.iter().enumerate() {
        cum += count;
        if cum >= rank {
            let (lo, hi) = LatencyHistogram::bucket_range(b);
            return Some(if hi == u64::MAX { lo } else { hi });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_sites_are_inert() {
        assert!(ambient_sink().is_none());
        // No scope installed: timers, notes and `time` are no-ops.
        let g = phase(Phase::Plan);
        drop(g);
        note_cache(CacheOutcome::Hit);
        note_strategy("x");
        assert_eq!(time(Phase::WarmKernel, || 7), 7);
        assert!(ambient_sink().is_none());
    }

    #[test]
    fn scope_installs_and_restores() {
        let sink = ProfileSink::handle();
        {
            let _scope = ProfileScope::enter(Arc::clone(&sink));
            assert!(ambient_sink().is_some());
            time(Phase::Plan, || std::thread::sleep(Duration::from_millis(2)));
            note_strategy("adaptive");
            note_cache(CacheOutcome::Miss);
        }
        assert!(ambient_sink().is_none());
        let p = sink.snapshot();
        assert!(p.phase_ns(Phase::Plan) >= 1_000_000, "{p:?}");
        assert_eq!(p.phase_hits[Phase::Plan as usize], 1);
        assert_eq!(p.strategy.as_deref(), Some("adaptive"));
        assert_eq!(p.cache, CacheOutcome::Miss);
    }

    #[test]
    fn nested_scopes_compose() {
        let outer = ProfileSink::handle();
        let inner = ProfileSink::handle();
        let _o = ProfileScope::enter(Arc::clone(&outer));
        {
            let _i = ProfileScope::enter(Arc::clone(&inner));
            time(Phase::Plan, || {});
        }
        // Back to the outer scope after the inner drops.
        time(Phase::WarmKernel, || {});
        assert_eq!(inner.snapshot().phase_hits[Phase::Plan as usize], 1);
        assert_eq!(outer.snapshot().phase_hits[Phase::Plan as usize], 0);
        assert_eq!(outer.snapshot().phase_hits[Phase::WarmKernel as usize], 1);
    }

    #[test]
    fn nested_phases_record_exclusive_time() {
        let sink = ProfileSink::handle();
        let _scope = ProfileScope::enter(Arc::clone(&sink));
        let wall = Instant::now();
        time(Phase::Load, || {
            std::thread::sleep(Duration::from_millis(4));
            time(Phase::Cracking, || {
                std::thread::sleep(Duration::from_millis(4))
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let p = sink.snapshot();
        let load = p.phase_ns(Phase::Load);
        let crack = p.phase_ns(Phase::Cracking);
        // Each phase saw its own sleeps...
        assert!(load >= 5_000_000, "load={load}");
        assert!(crack >= 3_000_000, "crack={crack}");
        // ...and the exclusive sum never exceeds wall clock.
        assert!(
            p.total_phase_ns() <= wall_ns,
            "sum {} > wall {}",
            p.total_phase_ns(),
            wall_ns
        );
    }

    #[test]
    fn worker_counts_fold_through_shared_handle() {
        let sink = ProfileSink::handle();
        let _scope = ProfileScope::enter(Arc::clone(&sink));
        let handle = ambient_sink().expect("ambient installed");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&handle);
                s.spawn(move || {
                    h.add_morsels(3, 300, 4096);
                    h.add_steal();
                });
            }
        });
        let p = sink.snapshot();
        assert_eq!(p.morsels, 12);
        assert_eq!(p.steals, 4);
        assert_eq!(p.rows, 1200);
        assert_eq!(p.bytes, 16384);
    }

    #[test]
    fn profile_display_lists_nonzero_phases() {
        let sink = ProfileSink::handle();
        sink.add_phase_ns(Phase::Plan, 1_500);
        sink.add_morsels(2, 10, 100);
        let s = sink.snapshot().to_string();
        assert!(s.contains("plan=1.5us"), "{s}");
        assert!(s.contains("morsels=2 steals=0 rows=10 bytes=100"), "{s}");
        assert!(!s.contains("warm_kernel"), "{s}");
    }

    #[test]
    fn error_unwind_closes_open_timers() {
        let sink = ProfileSink::handle();
        {
            let _scope = ProfileScope::enter(Arc::clone(&sink));
            let _g = phase(Phase::Load);
            // Scope dropped with the timer still open (early return).
        }
        assert_eq!(sink.snapshot().phase_hits[Phase::Load as usize], 1);
    }

    // -- histogram -----------------------------------------------------

    #[test]
    fn bucket_edges_are_exact() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        for b in 1..HIST_BUCKETS - 1 {
            let (lo, hi) = LatencyHistogram::bucket_range(b);
            assert_eq!(LatencyHistogram::bucket_of(lo), b, "lo edge of {b}");
            assert_eq!(LatencyHistogram::bucket_of(hi), b, "hi edge of {b}");
            assert_ne!(LatencyHistogram::bucket_of(hi + 1), b, "past hi of {b}");
        }
    }

    #[test]
    fn top_bucket_saturates() {
        let h = LatencyHistogram::new();
        h.record_micros(1 << 26);
        h.record_micros(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap[HIST_BUCKETS - 1], 2);
        // Percentile of a saturated histogram reports the top bucket's
        // lower edge ("at least this much").
        assert_eq!(percentile_from_buckets(&snap, 99.0), Some(1 << 26));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(percentile_from_buckets(&h.snapshot(), 50.0), None);
        assert_eq!(percentile_from_buckets(&h.snapshot(), 99.0), None);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let h = LatencyHistogram::new();
        h.record_micros(100); // bucket 7: [64, 127]
        let snap = h.snapshot();
        for p in [1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile_from_buckets(&snap, p), Some(127), "p{p}");
        }
    }

    #[test]
    fn percentiles_walk_cumulative_counts() {
        let h = LatencyHistogram::new();
        // 90 fast samples (bucket 1: [1,1]) and 10 slow (bucket 11:
        // [1024, 2047]).
        for _ in 0..90 {
            h.record_micros(1);
        }
        for _ in 0..10 {
            h.record_micros(1500);
        }
        let snap = h.snapshot();
        assert_eq!(percentile_from_buckets(&snap, 50.0), Some(1));
        assert_eq!(percentile_from_buckets(&snap, 90.0), Some(1));
        assert_eq!(percentile_from_buckets(&snap, 95.0), Some(2047));
        assert_eq!(percentile_from_buckets(&snap, 99.0), Some(2047));
    }

    #[test]
    fn duration_recording_converts_to_micros() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_millis(3)); // 3000 us -> bucket 12
        assert_eq!(h.snapshot()[LatencyHistogram::bucket_of(3000)], 1);
    }

    proptest::proptest! {
        /// Every recorded sample lands in the bucket whose range
        /// contains it.
        #[test]
        fn samples_land_in_containing_bucket(micros in proptest::prelude::any::<u64>()) {
            let b = LatencyHistogram::bucket_of(micros);
            let (lo, hi) = LatencyHistogram::bucket_range(b);
            proptest::prop_assert!(lo <= micros && micros <= hi,
                "sample {} outside bucket {} range [{}, {}]", micros, b, lo, hi);
            let h = LatencyHistogram::new();
            h.record_micros(micros);
            proptest::prop_assert_eq!(h.snapshot()[b], 1);
        }
    }
}
