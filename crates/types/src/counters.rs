//! Work counters.
//!
//! Wall-clock comparisons between loading strategies are noisy on shared
//! machines, and the paper's claims are really about *work avoided*: bytes
//! not read, fields not tokenized, values not parsed, trips to the raw file
//! not taken. Every substrate increments these counters so the benchmark
//! harnesses can print them next to elapsed time.
//!
//! The counter list is declared once, in the `work_counters!` invocation
//! below: one entry per counter names its field, how it is recorded, its
//! `Display` label and its doc. Everything that walks the list — the
//! atomic struct, its recording methods, `snapshot`, `reset`, the plain
//! [`CountersSnapshot`], `since`, `named_fields` (the STATS wire order),
//! `set` (the STATS decoder) and `Display` — is generated from it, in
//! declaration order.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Generates [`WorkCounters`] and [`CountersSnapshot`] from one list of
/// `name: kind => method, "label";` entries. `kind` is how `method`
/// records: `add` adds its argument, `one` adds 1, `max` raises a gauge to
/// its argument, `set` stores its argument into a gauge. `label` is the
/// entry's `Display` format (one `{}` for the value).
macro_rules! work_counters {
    ($(
        $(#[doc = $doc:literal])+
        $name:ident: $kind:ident => $method:ident, $label:literal;
    )+) => {
        /// Thread-safe work counters. Cheap to share via `Arc`; increments
        /// use relaxed ordering (they are statistics, not synchronization).
        #[derive(Debug, Default)]
        pub struct WorkCounters {
            $($(#[doc = $doc])+ pub $name: AtomicU64,)+
        }

        impl WorkCounters {
            $(work_counters!(@method $kind $method $name);)+

            /// Capture the current values.
            pub fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Reset everything to zero (used between benchmark phases).
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        /// An immutable copy of [`WorkCounters`] at one point in time.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CountersSnapshot {
            $(
                #[doc = concat!("See [`WorkCounters::", stringify!($name), "`].")]
                pub $name: u64,
            )+
        }

        impl CountersSnapshot {
            /// Component-wise difference `self - earlier`, saturating at
            /// zero so a mid-interval `reset` never produces nonsense. The
            /// gauges (`mem_reserved_peak`, `conns_parked`) are subtracted
            /// like the counts.
            pub fn since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
                CountersSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }

            /// Every counter as a `(name, value)` pair, in declaration
            /// order — the STATS wire order. The server encodes exactly
            /// these pairs and the client decodes them by name with
            /// [`CountersSnapshot::set`].
            pub fn named_fields(&self) -> [(&'static str, u64); [$(stringify!($name)),+].len()] {
                [$((stringify!($name), self.$name)),+]
            }

            /// Set the counter called `name` to `v`. Returns `false`, and
            /// changes nothing, for a name this build does not declare
            /// (a STATS extension field, or a counter a newer server
            /// added).
            pub fn set(&mut self, name: &str, v: u64) -> bool {
                match name {
                    $(stringify!($name) => self.$name = v,)+
                    _ => return false,
                }
                true
            }
        }

        impl fmt::Display for CountersSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&[$(format!($label, self.$name)),+].join(" "))
            }
        }
    };
    (@method add $method:ident $name:ident) => {
        #[doc = concat!("Add `n` to `", stringify!($name), "`.")]
        pub fn $method(&self, n: u64) {
            self.$name.fetch_add(n, Ordering::Relaxed);
        }
    };
    (@method one $method:ident $name:ident) => {
        #[doc = concat!("Add one to `", stringify!($name), "`.")]
        pub fn $method(&self) {
            self.$name.fetch_add(1, Ordering::Relaxed);
        }
    };
    (@method max $method:ident $name:ident) => {
        #[doc = concat!("Raise the `", stringify!($name), "` gauge to `n` if `n` is higher (max, not add).")]
        pub fn $method(&self, n: u64) {
            self.$name.fetch_max(n, Ordering::Relaxed);
        }
    };
    (@method set $method:ident $name:ident) => {
        #[doc = concat!("Set the `", stringify!($name), "` gauge to `n` (store, not add).")]
        pub fn $method(&self, n: u64) {
            self.$name.store(n, Ordering::Relaxed);
        }
    };
}

work_counters! {
    /// Bytes read from raw files (CSV and split segments).
    bytes_read: add => add_bytes_read, "read={}B";
    /// Bytes written to disk (split files, persisted columns).
    bytes_written: add => add_bytes_written, "written={}B";
    /// Rows whose boundaries were located (tokenization phase 1).
    rows_tokenized: add => add_rows_tokenized, "rows_tok={}";
    /// Individual fields located within rows (tokenization phase 2).
    fields_tokenized: add => add_fields_tokenized, "fields_tok={}";
    /// Fields converted from text to a typed value.
    values_parsed: add => add_values_parsed, "parsed={}";
    /// Distinct trips to a raw file triggered by queries.
    file_trips: one => add_file_trip, "trips={}";
    /// Rows abandoned early because a pushed-down predicate failed.
    rows_abandoned: add => add_rows_abandoned, "abandoned={}";
    /// Tuples evicted from the adaptive store under memory pressure.
    tuples_evicted: add => add_tuples_evicted, "evicted={}";
    /// Queries whose plan came from the engine plan cache (no parse/plan).
    plan_cache_hits: one => add_plan_cache_hit, "plan_hits={}";
    /// Queries that had to be parsed and planned from scratch.
    plan_cache_misses: one => add_plan_cache_miss, "plan_misses={}";
    /// Morsels dispatched to parallel pipeline workers.
    morsels_dispatched: add => add_morsels_dispatched, "morsels={}";
    /// Parallel (multi-worker) pipeline executions. Divide a serial rerun's
    /// elapsed time by a parallel run's to estimate the speedup these
    /// bought.
    parallel_pipelines: one => add_parallel_pipeline, "par_pipelines={}";
    /// TCP connections the query server admitted into its serve queue.
    /// Connections refused by admission control count under
    /// `busy_rejections` (queue full) or `conns_shed` (memory pressure)
    /// instead — except a connection admitted here and then refused
    /// because shutdown began before a worker picked it up, which
    /// appears in both this and `busy_rejections`.
    connections_accepted: one => add_connection_accepted, "conns={}";
    /// Wire-protocol requests the server answered (every request that got
    /// a response frame, including error responses).
    requests_served: one => add_request_served, "reqs={}";
    /// Connections refused with a typed `BUSY` error because the admission
    /// queue was full or the server was shutting down.
    busy_rejections: one => add_busy_rejection, "busy={}";
    /// Queries answered verbatim from the result cache (an identical plan
    /// ran before and its final rows were still cached and fresh).
    result_cache_hits: one => add_result_cache_hit, "rc_hits={}";
    /// Queries answered by re-filtering a cached superset result whose
    /// recorded selection interval contains the new query's range.
    result_cache_subsumed_hits: one => add_result_cache_subsumed_hit, "rc_subsumed={}";
    /// Queries that consulted the result cache and found nothing usable.
    result_cache_misses: one => add_result_cache_miss, "rc_misses={}";
    /// Entries evicted from the result cache to respect its byte budget
    /// or entry cap.
    result_cache_evictions: add => add_result_cache_evictions, "rc_evicted={}";
    /// Queries aborted by an explicit cancel request (CANCEL over the
    /// wire, client disconnect, or an in-process token fired by a caller).
    queries_cancelled: one => add_query_cancelled, "cancelled={}";
    /// Queries aborted because their deadline expired.
    queries_timed_out: one => add_query_timed_out, "timed_out={}";
    /// Queries shed with a typed `ResourceExhausted` error because they
    /// exceeded their per-query memory budget or the engine-wide pool
    /// was exhausted even after the degradation ladder ran.
    queries_shed: one => add_query_shed, "shed={}";
    /// Connections the accept loop shed because the engine memory pool
    /// sat near its cap (including connections dropped without a reply
    /// when the rejector-thread budget was spent). Kept apart from
    /// `queries_shed` — a shed connection never ran a query — and from
    /// `busy_rejections`, which count queue-full refusals, so each
    /// diagnostic answers one question.
    conns_shed: one => add_conn_shed, "conns_shed={}";
    /// High-water mark (bytes) of the engine memory pool's total
    /// reservation — a gauge recorded via max, not a monotonic count.
    mem_reserved_peak: max => record_mem_reserved_peak, "mem_peak={}B";
    /// Worker or executor panics caught at an isolation boundary (the
    /// server request firewall, the session guard, or a parallel pool's
    /// join) and converted into a typed `Internal` error instead of
    /// aborting the process.
    panics_contained: one => add_panic_contained, "panics={}";
    /// Gauge, not a count: connections currently parked on the server
    /// reactor — admitted, idle, and costing zero threads until bytes
    /// arrive. Recorded via store after every reactor state change.
    conns_parked: set => set_conns_parked, "parked={}";
    /// Times the reactor's `poll(2)` call returned (readiness, timeout
    /// or wakeup pipe). The per-request ratio says how well wakeups
    /// batch: far more wakeups than requests means tiny reads.
    reactor_wakeups: one => add_reactor_wakeup, "wakeups={}";
    /// Readiness events that ended with an incomplete frame still
    /// buffered (the peer's frame was torn across TCP segments). High
    /// values are normal for large frames on small socket buffers.
    frames_partial: one => add_frame_partial, "torn={}";
    /// Queries whose server-side elapsed time crossed the configured
    /// `slow_query_ms` threshold and were written to the slow-query log.
    slow_queries: one => add_slow_query, "slow={}";
    /// Rows adaptive-index selections physically handled: every row of a
    /// piece a crack partitioned, plus every qualifying row copied out.
    /// A range that has converged splits nothing, so a repeat adds
    /// exactly its result size — the deterministic statement of "cracked
    /// selects get cheaper", where a plain scan touches every row.
    crack_rows_touched: add => add_crack_rows_touched, "crack_rows={}";
}

impl WorkCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
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

    /// Counter *i* (in declaration order) set to *i* + 1, through
    /// [`CountersSnapshot::set`].
    fn numbered() -> CountersSnapshot {
        let mut s = CountersSnapshot::default();
        for (i, (name, _)) in CountersSnapshot::default()
            .named_fields()
            .iter()
            .enumerate()
        {
            assert!(
                s.set(name, i as u64 + 1),
                "declared name {name} not settable"
            );
        }
        s
    }

    #[test]
    fn named_fields_cover_every_counter_exactly_once() {
        let s = numbered();
        let fields = s.named_fields();
        // The Debug rendering names every struct field; if the struct
        // grows past the named list, the counts diverge here.
        let debug_fields = format!("{s:?}").matches(": ").count();
        assert_eq!(fields.len(), debug_fields, "named_fields misses a field");
        // `set` and `named_fields` agree on every name and position: value
        // i + 1 reads back at position i, and no field was written twice.
        for (i, &(name, v)) in fields.iter().enumerate() {
            assert_eq!(v, i as u64 + 1, "{name}");
        }
        // Names are unique, and unknown ones are refused without a write.
        let mut names: Vec<&str> = fields.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate counter name");
        let mut t = s;
        assert!(!t.set("lat_query_b3", 99));
        assert_eq!(t, s);
    }

    /// The `Display` text is an operator interface (CI greps `conns=` and
    /// `parked=`): pinned byte for byte.
    #[test]
    fn display_mentions_every_counter() {
        assert_eq!(
            numbered().to_string(),
            "read=1B written=2B rows_tok=3 fields_tok=4 parsed=5 trips=6 abandoned=7 \
             evicted=8 plan_hits=9 plan_misses=10 morsels=11 par_pipelines=12 conns=13 \
             reqs=14 busy=15 rc_hits=16 rc_subsumed=17 rc_misses=18 rc_evicted=19 \
             cancelled=20 timed_out=21 shed=22 conns_shed=23 mem_peak=24B panics=25 \
             parked=26 wakeups=27 torn=28 slow=29 crack_rows=30"
        );
    }

    #[test]
    fn recording_kinds() {
        let c = WorkCounters::new();
        c.set_conns_parked(5);
        c.set_conns_parked(3);
        c.add_crack_rows_touched(4);
        c.add_crack_rows_touched(4);
        let s = c.snapshot();
        assert_eq!(s.conns_parked, 3, "a set gauge keeps the last sample");
        assert_eq!(s.crack_rows_touched, 8);
        c.reset();
        assert_eq!(c.snapshot(), CountersSnapshot::default());
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
