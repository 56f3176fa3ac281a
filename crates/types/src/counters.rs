//! Work counters.
//!
//! Wall-clock comparisons between loading strategies are noisy on shared
//! machines, and the paper's claims are really about *work avoided*: bytes
//! not read, fields not tokenized, values not parsed, trips to the raw file
//! not taken. Every substrate increments these counters so the benchmark
//! harnesses can print them next to elapsed time.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe work counters. Cheap to share via `Arc`; increments use
/// relaxed ordering (they are statistics, not synchronization).
#[derive(Debug, Default)]
pub struct WorkCounters {
    /// Bytes read from raw files (CSV and split segments).
    pub bytes_read: AtomicU64,
    /// Bytes written to disk (split files, persisted columns).
    pub bytes_written: AtomicU64,
    /// Rows whose boundaries were located (tokenization phase 1).
    pub rows_tokenized: AtomicU64,
    /// Individual fields located within rows (tokenization phase 2).
    pub fields_tokenized: AtomicU64,
    /// Fields converted from text to a typed value.
    pub values_parsed: AtomicU64,
    /// Distinct trips to a raw file triggered by queries.
    pub file_trips: AtomicU64,
    /// Rows abandoned early because a pushed-down predicate failed.
    pub rows_abandoned: AtomicU64,
    /// Tuples evicted from the adaptive store under memory pressure.
    pub tuples_evicted: AtomicU64,
    /// Queries whose plan came from the engine plan cache (no parse/plan).
    pub plan_cache_hits: AtomicU64,
    /// Queries that had to be parsed and planned from scratch.
    pub plan_cache_misses: AtomicU64,
    /// Morsels dispatched to parallel pipeline workers.
    pub morsels_dispatched: AtomicU64,
    /// Parallel (multi-worker) pipeline executions. Divide a serial rerun's
    /// elapsed time by a parallel run's to estimate the speedup these
    /// bought.
    pub parallel_pipelines: AtomicU64,
    /// Cold scalar projections served by the fused tokenizer→operator
    /// pipeline (filtering and projection overlapped with parsing instead
    /// of waiting for the store load).
    pub fused_cold_projections: AtomicU64,
    /// Cold hash joins whose build and probe consumed tokenizer morsels
    /// directly instead of blocking on both store loads.
    pub fused_cold_joins: AtomicU64,
    /// TCP connections the query server admitted into its serve queue.
    /// Connections refused by admission control count under
    /// `busy_rejections` (queue full) or `conns_shed` (memory pressure)
    /// instead — except a connection admitted here and then refused
    /// because shutdown began before a worker picked it up, which
    /// appears in both this and `busy_rejections`.
    pub connections_accepted: AtomicU64,
    /// Wire-protocol requests the server answered (every request that got
    /// a response frame, including error responses).
    pub requests_served: AtomicU64,
    /// Connections refused with a typed `BUSY` error because the admission
    /// queue was full or the server was shutting down.
    pub busy_rejections: AtomicU64,
    /// Queries answered verbatim from the result cache (an identical plan
    /// ran before and its final rows were still cached and fresh).
    pub result_cache_hits: AtomicU64,
    /// Queries answered by re-filtering a cached superset result whose
    /// recorded selection interval contains the new query's range.
    pub result_cache_subsumed_hits: AtomicU64,
    /// Queries that consulted the result cache and found nothing usable.
    pub result_cache_misses: AtomicU64,
    /// Entries evicted from the result cache to respect its byte budget
    /// or entry cap.
    pub result_cache_evictions: AtomicU64,
    /// Queries aborted by an explicit cancel request (CANCEL over the
    /// wire, client disconnect, or an in-process token fired by a caller).
    pub queries_cancelled: AtomicU64,
    /// Queries aborted because their deadline expired.
    pub queries_timed_out: AtomicU64,
    /// Queries shed with a typed `ResourceExhausted` error because they
    /// exceeded their per-query memory budget or the engine-wide pool
    /// was exhausted even after the degradation ladder ran.
    pub queries_shed: AtomicU64,
    /// Connections the accept loop shed because the engine memory pool
    /// sat near its cap (including connections dropped without a reply
    /// when the rejector-thread budget was spent). Kept apart from
    /// `queries_shed` — a shed connection never ran a query — and from
    /// `busy_rejections`, which count queue-full refusals, so each
    /// diagnostic answers one question.
    pub conns_shed: AtomicU64,
    /// High-water mark (bytes) of the engine memory pool's total
    /// reservation — a gauge recorded via max, not a monotonic count.
    pub mem_reserved_peak: AtomicU64,
    /// Worker or executor panics caught at an isolation boundary (the
    /// server request firewall, the session guard, or a parallel pool's
    /// join) and converted into a typed `Internal` error instead of
    /// aborting the process.
    pub panics_contained: AtomicU64,
    /// Gauge, not a count: connections currently parked on the server
    /// reactor — admitted, idle, and costing zero threads until bytes
    /// arrive. Recorded via store after every reactor state change.
    pub conns_parked: AtomicU64,
    /// Times the reactor's `poll(2)` call returned (readiness, timeout
    /// or wakeup pipe). The per-request ratio says how well wakeups
    /// batch: far more wakeups than requests means tiny reads.
    pub reactor_wakeups: AtomicU64,
    /// Readiness events that ended with an incomplete frame still
    /// buffered (the peer's frame was torn across TCP segments). High
    /// values are normal for large frames on small socket buffers.
    pub frames_partial: AtomicU64,
    /// Queries whose server-side elapsed time crossed the configured
    /// `slow_query_ms` threshold and were written to the slow-query log.
    pub slow_queries: AtomicU64,
    /// Rows adaptive-index selections physically handled: every row of a
    /// piece a crack partitioned, plus every qualifying row copied out.
    /// A range that has converged splits nothing, so a repeat adds
    /// exactly its result size — the deterministic statement of "cracked
    /// selects get cheaper", where a plain scan touches every row.
    pub crack_rows_touched: AtomicU64,
}

impl WorkCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to `bytes_read`.
    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to `bytes_written`.
    pub fn add_bytes_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to `rows_tokenized`.
    pub fn add_rows_tokenized(&self, n: u64) {
        self.rows_tokenized.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to `fields_tokenized`.
    pub fn add_fields_tokenized(&self, n: u64) {
        self.fields_tokenized.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to `values_parsed`.
    pub fn add_values_parsed(&self, n: u64) {
        self.values_parsed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one trip to a raw file.
    pub fn add_file_trip(&self) {
        self.file_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to `rows_abandoned`.
    pub fn add_rows_abandoned(&self, n: u64) {
        self.rows_abandoned.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to `tuples_evicted`.
    pub fn add_tuples_evicted(&self, n: u64) {
        self.tuples_evicted.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one plan-cache hit.
    pub fn add_plan_cache_hit(&self) {
        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one plan-cache miss.
    pub fn add_plan_cache_miss(&self) {
        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to `morsels_dispatched`.
    pub fn add_morsels_dispatched(&self, n: u64) {
        self.morsels_dispatched.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one parallel pipeline execution.
    pub fn add_parallel_pipeline(&self) {
        self.parallel_pipelines.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fused cold projection.
    pub fn add_fused_cold_projection(&self) {
        self.fused_cold_projections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fused cold join.
    pub fn add_fused_cold_join(&self) {
        self.fused_cold_joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one admitted server connection.
    pub fn add_connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one served wire request.
    pub fn add_request_served(&self) {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one BUSY rejection.
    pub fn add_busy_rejection(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one exact result-cache hit.
    pub fn add_result_cache_hit(&self) {
        self.result_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one subsumed result-cache hit.
    pub fn add_result_cache_subsumed_hit(&self) {
        self.result_cache_subsumed_hits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record one result-cache miss.
    pub fn add_result_cache_miss(&self) {
        self.result_cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` result-cache evictions.
    pub fn add_result_cache_evictions(&self, n: u64) {
        self.result_cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one cancelled query.
    pub fn add_query_cancelled(&self) {
        self.queries_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one timed-out query.
    pub fn add_query_timed_out(&self) {
        self.queries_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one memory-shed query.
    pub fn add_query_shed(&self) {
        self.queries_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one memory-shed connection.
    pub fn add_conn_shed(&self) {
        self.conns_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise `mem_reserved_peak` to `bytes` if it is higher than the
    /// recorded peak (gauge semantics: max, not add).
    pub fn record_mem_reserved_peak(&self, bytes: u64) {
        self.mem_reserved_peak.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Record one contained panic.
    pub fn add_panic_contained(&self) {
        self.panics_contained.fetch_add(1, Ordering::Relaxed);
    }

    /// Set the parked-connections gauge (store semantics: the reactor
    /// publishes its current count, it does not accumulate).
    pub fn set_conns_parked(&self, n: u64) {
        self.conns_parked.store(n, Ordering::Relaxed);
    }

    /// Record one reactor wakeup.
    pub fn add_reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one readiness event that left a torn frame buffered.
    pub fn add_frame_partial(&self) {
        self.frames_partial.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one query logged as slow.
    pub fn add_slow_query(&self) {
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` rows partitioned or copied out by a cracking select.
    pub fn add_crack_rows_touched(&self, n: u64) {
        self.crack_rows_touched.fetch_add(n, Ordering::Relaxed);
    }

    /// Capture the current values.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            rows_tokenized: self.rows_tokenized.load(Ordering::Relaxed),
            fields_tokenized: self.fields_tokenized.load(Ordering::Relaxed),
            values_parsed: self.values_parsed.load(Ordering::Relaxed),
            file_trips: self.file_trips.load(Ordering::Relaxed),
            rows_abandoned: self.rows_abandoned.load(Ordering::Relaxed),
            tuples_evicted: self.tuples_evicted.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            morsels_dispatched: self.morsels_dispatched.load(Ordering::Relaxed),
            parallel_pipelines: self.parallel_pipelines.load(Ordering::Relaxed),
            fused_cold_projections: self.fused_cold_projections.load(Ordering::Relaxed),
            fused_cold_joins: self.fused_cold_joins.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            result_cache_hits: self.result_cache_hits.load(Ordering::Relaxed),
            result_cache_subsumed_hits: self.result_cache_subsumed_hits.load(Ordering::Relaxed),
            result_cache_misses: self.result_cache_misses.load(Ordering::Relaxed),
            result_cache_evictions: self.result_cache_evictions.load(Ordering::Relaxed),
            queries_cancelled: self.queries_cancelled.load(Ordering::Relaxed),
            queries_timed_out: self.queries_timed_out.load(Ordering::Relaxed),
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
            conns_shed: self.conns_shed.load(Ordering::Relaxed),
            mem_reserved_peak: self.mem_reserved_peak.load(Ordering::Relaxed),
            panics_contained: self.panics_contained.load(Ordering::Relaxed),
            conns_parked: self.conns_parked.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            frames_partial: self.frames_partial.load(Ordering::Relaxed),
            slow_queries: self.slow_queries.load(Ordering::Relaxed),
            crack_rows_touched: self.crack_rows_touched.load(Ordering::Relaxed),
        }
    }

    /// Reset everything to zero (used between benchmark phases).
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.rows_tokenized.store(0, Ordering::Relaxed);
        self.fields_tokenized.store(0, Ordering::Relaxed);
        self.values_parsed.store(0, Ordering::Relaxed);
        self.file_trips.store(0, Ordering::Relaxed);
        self.rows_abandoned.store(0, Ordering::Relaxed);
        self.tuples_evicted.store(0, Ordering::Relaxed);
        self.plan_cache_hits.store(0, Ordering::Relaxed);
        self.plan_cache_misses.store(0, Ordering::Relaxed);
        self.morsels_dispatched.store(0, Ordering::Relaxed);
        self.parallel_pipelines.store(0, Ordering::Relaxed);
        self.fused_cold_projections.store(0, Ordering::Relaxed);
        self.fused_cold_joins.store(0, Ordering::Relaxed);
        self.connections_accepted.store(0, Ordering::Relaxed);
        self.requests_served.store(0, Ordering::Relaxed);
        self.busy_rejections.store(0, Ordering::Relaxed);
        self.result_cache_hits.store(0, Ordering::Relaxed);
        self.result_cache_subsumed_hits.store(0, Ordering::Relaxed);
        self.result_cache_misses.store(0, Ordering::Relaxed);
        self.result_cache_evictions.store(0, Ordering::Relaxed);
        self.queries_cancelled.store(0, Ordering::Relaxed);
        self.queries_timed_out.store(0, Ordering::Relaxed);
        self.queries_shed.store(0, Ordering::Relaxed);
        self.conns_shed.store(0, Ordering::Relaxed);
        self.mem_reserved_peak.store(0, Ordering::Relaxed);
        self.panics_contained.store(0, Ordering::Relaxed);
        self.conns_parked.store(0, Ordering::Relaxed);
        self.reactor_wakeups.store(0, Ordering::Relaxed);
        self.frames_partial.store(0, Ordering::Relaxed);
        self.slow_queries.store(0, Ordering::Relaxed);
        self.crack_rows_touched.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of [`WorkCounters`] at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// See [`WorkCounters::bytes_read`].
    pub bytes_read: u64,
    /// See [`WorkCounters::bytes_written`].
    pub bytes_written: u64,
    /// See [`WorkCounters::rows_tokenized`].
    pub rows_tokenized: u64,
    /// See [`WorkCounters::fields_tokenized`].
    pub fields_tokenized: u64,
    /// See [`WorkCounters::values_parsed`].
    pub values_parsed: u64,
    /// See [`WorkCounters::file_trips`].
    pub file_trips: u64,
    /// See [`WorkCounters::rows_abandoned`].
    pub rows_abandoned: u64,
    /// See [`WorkCounters::tuples_evicted`].
    pub tuples_evicted: u64,
    /// See [`WorkCounters::plan_cache_hits`].
    pub plan_cache_hits: u64,
    /// See [`WorkCounters::plan_cache_misses`].
    pub plan_cache_misses: u64,
    /// See [`WorkCounters::morsels_dispatched`].
    pub morsels_dispatched: u64,
    /// See [`WorkCounters::parallel_pipelines`].
    pub parallel_pipelines: u64,
    /// See [`WorkCounters::fused_cold_projections`].
    pub fused_cold_projections: u64,
    /// See [`WorkCounters::fused_cold_joins`].
    pub fused_cold_joins: u64,
    /// See [`WorkCounters::connections_accepted`].
    pub connections_accepted: u64,
    /// See [`WorkCounters::requests_served`].
    pub requests_served: u64,
    /// See [`WorkCounters::busy_rejections`].
    pub busy_rejections: u64,
    /// See [`WorkCounters::result_cache_hits`].
    pub result_cache_hits: u64,
    /// See [`WorkCounters::result_cache_subsumed_hits`].
    pub result_cache_subsumed_hits: u64,
    /// See [`WorkCounters::result_cache_misses`].
    pub result_cache_misses: u64,
    /// See [`WorkCounters::result_cache_evictions`].
    pub result_cache_evictions: u64,
    /// See [`WorkCounters::queries_cancelled`].
    pub queries_cancelled: u64,
    /// See [`WorkCounters::queries_timed_out`].
    pub queries_timed_out: u64,
    /// See [`WorkCounters::queries_shed`].
    pub queries_shed: u64,
    /// See [`WorkCounters::conns_shed`].
    pub conns_shed: u64,
    /// See [`WorkCounters::mem_reserved_peak`].
    pub mem_reserved_peak: u64,
    /// See [`WorkCounters::panics_contained`].
    pub panics_contained: u64,
    /// See [`WorkCounters::conns_parked`].
    pub conns_parked: u64,
    /// See [`WorkCounters::reactor_wakeups`].
    pub reactor_wakeups: u64,
    /// See [`WorkCounters::frames_partial`].
    pub frames_partial: u64,
    /// See [`WorkCounters::slow_queries`].
    pub slow_queries: u64,
    /// See [`WorkCounters::crack_rows_touched`].
    pub crack_rows_touched: u64,
}

impl CountersSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero so a
    /// mid-interval `reset` never produces nonsense.
    pub fn since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            rows_tokenized: self.rows_tokenized.saturating_sub(earlier.rows_tokenized),
            fields_tokenized: self
                .fields_tokenized
                .saturating_sub(earlier.fields_tokenized),
            values_parsed: self.values_parsed.saturating_sub(earlier.values_parsed),
            file_trips: self.file_trips.saturating_sub(earlier.file_trips),
            rows_abandoned: self.rows_abandoned.saturating_sub(earlier.rows_abandoned),
            tuples_evicted: self.tuples_evicted.saturating_sub(earlier.tuples_evicted),
            plan_cache_hits: self.plan_cache_hits.saturating_sub(earlier.plan_cache_hits),
            plan_cache_misses: self
                .plan_cache_misses
                .saturating_sub(earlier.plan_cache_misses),
            morsels_dispatched: self
                .morsels_dispatched
                .saturating_sub(earlier.morsels_dispatched),
            parallel_pipelines: self
                .parallel_pipelines
                .saturating_sub(earlier.parallel_pipelines),
            fused_cold_projections: self
                .fused_cold_projections
                .saturating_sub(earlier.fused_cold_projections),
            fused_cold_joins: self
                .fused_cold_joins
                .saturating_sub(earlier.fused_cold_joins),
            connections_accepted: self
                .connections_accepted
                .saturating_sub(earlier.connections_accepted),
            requests_served: self.requests_served.saturating_sub(earlier.requests_served),
            busy_rejections: self.busy_rejections.saturating_sub(earlier.busy_rejections),
            result_cache_hits: self
                .result_cache_hits
                .saturating_sub(earlier.result_cache_hits),
            result_cache_subsumed_hits: self
                .result_cache_subsumed_hits
                .saturating_sub(earlier.result_cache_subsumed_hits),
            result_cache_misses: self
                .result_cache_misses
                .saturating_sub(earlier.result_cache_misses),
            result_cache_evictions: self
                .result_cache_evictions
                .saturating_sub(earlier.result_cache_evictions),
            queries_cancelled: self
                .queries_cancelled
                .saturating_sub(earlier.queries_cancelled),
            queries_timed_out: self
                .queries_timed_out
                .saturating_sub(earlier.queries_timed_out),
            queries_shed: self.queries_shed.saturating_sub(earlier.queries_shed),
            conns_shed: self.conns_shed.saturating_sub(earlier.conns_shed),
            // A gauge, not a count: the interval's peak is simply the
            // later snapshot's peak (zero if it never rose).
            mem_reserved_peak: self
                .mem_reserved_peak
                .saturating_sub(earlier.mem_reserved_peak),
            panics_contained: self
                .panics_contained
                .saturating_sub(earlier.panics_contained),
            // Also a gauge: the interval's parked count is the later
            // sample, floored at zero against the earlier one.
            conns_parked: self.conns_parked.saturating_sub(earlier.conns_parked),
            reactor_wakeups: self.reactor_wakeups.saturating_sub(earlier.reactor_wakeups),
            frames_partial: self.frames_partial.saturating_sub(earlier.frames_partial),
            slow_queries: self.slow_queries.saturating_sub(earlier.slow_queries),
            crack_rows_touched: self
                .crack_rows_touched
                .saturating_sub(earlier.crack_rows_touched),
        }
    }

    /// Every counter as a `(name, value)` pair, in wire order. This is
    /// the single source of truth for the self-describing STATS
    /// encoding: the server encodes exactly these pairs, the client
    /// decodes by name, and the drift-guard test asserts the list stays
    /// in lockstep with the struct fields — a counter added to the
    /// struct but not here fails the build's tests, not a production
    /// debugging session.
    pub fn named_fields(&self) -> [(&'static str, u64); 32] {
        [
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
            ("rows_tokenized", self.rows_tokenized),
            ("fields_tokenized", self.fields_tokenized),
            ("values_parsed", self.values_parsed),
            ("file_trips", self.file_trips),
            ("rows_abandoned", self.rows_abandoned),
            ("tuples_evicted", self.tuples_evicted),
            ("plan_cache_hits", self.plan_cache_hits),
            ("plan_cache_misses", self.plan_cache_misses),
            ("morsels_dispatched", self.morsels_dispatched),
            ("parallel_pipelines", self.parallel_pipelines),
            ("fused_cold_projections", self.fused_cold_projections),
            ("fused_cold_joins", self.fused_cold_joins),
            ("connections_accepted", self.connections_accepted),
            ("requests_served", self.requests_served),
            ("busy_rejections", self.busy_rejections),
            ("result_cache_hits", self.result_cache_hits),
            (
                "result_cache_subsumed_hits",
                self.result_cache_subsumed_hits,
            ),
            ("result_cache_misses", self.result_cache_misses),
            ("result_cache_evictions", self.result_cache_evictions),
            ("queries_cancelled", self.queries_cancelled),
            ("queries_timed_out", self.queries_timed_out),
            ("queries_shed", self.queries_shed),
            ("conns_shed", self.conns_shed),
            ("mem_reserved_peak", self.mem_reserved_peak),
            ("panics_contained", self.panics_contained),
            ("conns_parked", self.conns_parked),
            ("reactor_wakeups", self.reactor_wakeups),
            ("frames_partial", self.frames_partial),
            ("slow_queries", self.slow_queries),
            ("crack_rows_touched", self.crack_rows_touched),
        ]
    }
}

impl fmt::Display for CountersSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read={}B written={}B rows_tok={} fields_tok={} parsed={} trips={} abandoned={} evicted={} plan_hits={} plan_misses={} morsels={} par_pipelines={} fused_proj={} fused_joins={} conns={} reqs={} busy={} rc_hits={} rc_subsumed={} rc_misses={} rc_evicted={} cancelled={} timed_out={} shed={} conns_shed={} mem_peak={}B panics={} parked={} wakeups={} torn={} slow={} crack_rows={}",
            self.bytes_read,
            self.bytes_written,
            self.rows_tokenized,
            self.fields_tokenized,
            self.values_parsed,
            self.file_trips,
            self.rows_abandoned,
            self.tuples_evicted,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.morsels_dispatched,
            self.parallel_pipelines,
            self.fused_cold_projections,
            self.fused_cold_joins,
            self.connections_accepted,
            self.requests_served,
            self.busy_rejections,
            self.result_cache_hits,
            self.result_cache_subsumed_hits,
            self.result_cache_misses,
            self.result_cache_evictions,
            self.queries_cancelled,
            self.queries_timed_out,
            self.queries_shed,
            self.conns_shed,
            self.mem_reserved_peak,
            self.panics_contained,
            self.conns_parked,
            self.reactor_wakeups,
            self.frames_partial,
            self.slow_queries,
            self.crack_rows_touched,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn increments_show_up_in_snapshot() {
        let c = WorkCounters::new();
        c.add_bytes_read(10);
        c.add_bytes_read(5);
        c.add_file_trip();
        c.add_values_parsed(3);
        let s = c.snapshot();
        assert_eq!(s.bytes_read, 15);
        assert_eq!(s.file_trips, 1);
        assert_eq!(s.values_parsed, 3);
        assert_eq!(s.bytes_written, 0);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let c = WorkCounters::new();
        c.add_rows_tokenized(100);
        let before = c.snapshot();
        c.add_rows_tokenized(42);
        c.add_file_trip();
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.rows_tokenized, 42);
        assert_eq!(delta.file_trips, 1);
    }

    #[test]
    fn since_saturates_after_reset() {
        let c = WorkCounters::new();
        c.add_bytes_read(100);
        let before = c.snapshot();
        c.reset();
        c.add_bytes_read(1);
        let delta = c.snapshot().since(&before);
        assert_eq!(delta.bytes_read, 0);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Arc::new(WorkCounters::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.add_fields_tokenized(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().fields_tokenized, 8000);
    }

    #[test]
    fn display_mentions_every_counter() {
        let s = CountersSnapshot {
            bytes_read: 1,
            file_trips: 2,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("read=1B"));
        assert!(text.contains("trips=2"));
    }

    #[test]
    fn mem_peak_is_a_max_gauge() {
        let c = WorkCounters::new();
        c.add_query_shed();
        c.add_panic_contained();
        c.record_mem_reserved_peak(100);
        c.record_mem_reserved_peak(50);
        let s = c.snapshot();
        assert_eq!(s.queries_shed, 1);
        assert_eq!(s.panics_contained, 1);
        assert_eq!(s.mem_reserved_peak, 100, "lower sample never shrinks peak");
        c.record_mem_reserved_peak(200);
        assert_eq!(c.snapshot().mem_reserved_peak, 200);
    }

    #[test]
    fn named_fields_cover_every_counter_exactly_once() {
        // Exhaustive struct literal: adding a counter to the snapshot
        // without updating this test fails to compile, and the checks
        // below then force `named_fields` to keep up.
        let s = CountersSnapshot {
            bytes_read: 1,
            bytes_written: 2,
            rows_tokenized: 3,
            fields_tokenized: 4,
            values_parsed: 5,
            file_trips: 6,
            rows_abandoned: 7,
            tuples_evicted: 8,
            plan_cache_hits: 9,
            plan_cache_misses: 10,
            morsels_dispatched: 11,
            parallel_pipelines: 12,
            fused_cold_projections: 13,
            fused_cold_joins: 14,
            connections_accepted: 15,
            requests_served: 16,
            busy_rejections: 17,
            result_cache_hits: 18,
            result_cache_subsumed_hits: 19,
            result_cache_misses: 20,
            result_cache_evictions: 21,
            queries_cancelled: 22,
            queries_timed_out: 23,
            queries_shed: 24,
            conns_shed: 25,
            mem_reserved_peak: 26,
            panics_contained: 27,
            conns_parked: 28,
            reactor_wakeups: 29,
            frames_partial: 30,
            slow_queries: 31,
            crack_rows_touched: 32,
        };
        let fields = s.named_fields();
        // The Debug rendering names every struct field; if the struct
        // grows past the named list, the counts diverge here.
        let debug_fields = format!("{s:?}").matches(": ").count();
        assert_eq!(fields.len(), debug_fields, "named_fields misses a field");
        // Each distinct value 1..=n appears exactly once: no field is
        // listed twice or mapped to the wrong struct member.
        let mut values: Vec<u64> = fields.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=fields.len() as u64).collect::<Vec<_>>());
        // Names are unique too.
        let mut names: Vec<&str> = fields.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate counter name");
    }

    #[test]
    fn server_counters_snapshot_and_diff() {
        let c = WorkCounters::new();
        c.add_connection_accepted();
        c.add_request_served();
        c.add_request_served();
        let before = c.snapshot();
        c.add_busy_rejection();
        c.add_request_served();
        let delta = c.snapshot().since(&before);
        assert_eq!(before.connections_accepted, 1);
        assert_eq!(before.requests_served, 2);
        assert_eq!(delta.busy_rejections, 1);
        assert_eq!(delta.requests_served, 1);
        assert_eq!(delta.connections_accepted, 0);
    }
}
