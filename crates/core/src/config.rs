//! Engine configuration.

use std::path::PathBuf;

use nodb_exec::DEFAULT_MORSEL_ROWS;
use nodb_rawcsv::CsvOptions;

/// Which adaptive loading policy the engine runs (paper §3–§4). Each policy
/// is one curve in Figures 1, 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadingStrategy {
    /// Load every column of the table on first touch — classic DBMS
    /// behaviour, the "MonetDB" curve.
    FullLoad,
    /// Never load: re-tokenize the whole file for every query — the
    /// "MySQL CSV engine" curve (reads and parses every column of every
    /// row, keeps no state).
    ExternalScan,
    /// Load only the referenced columns, fully, on first miss — the
    /// "Column Loads" curve.
    ColumnLoads,
    /// Push selections into loading, return qualifying tuples only, and
    /// *discard* them after the query — "Partial Loads V1" (Figure 3).
    PartialLoadsV1,
    /// Push selections into loading and *cache* qualifying tuples as
    /// fragments in the adaptive store, with box-coverage reuse and 1-D
    /// fetch-missing-only refinement — "Partial Loads V2" (Figure 4).
    PartialLoadsV2,
    /// Column loads over dynamically split per-column files ("file
    /// cracking") — the "Split Files" curve (Figure 4).
    SplitFiles,
}

impl LoadingStrategy {
    /// Human-readable label used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            LoadingStrategy::FullLoad => "full-load",
            LoadingStrategy::ExternalScan => "external-scan",
            LoadingStrategy::ColumnLoads => "column-loads",
            LoadingStrategy::PartialLoadsV1 => "partial-v1",
            LoadingStrategy::PartialLoadsV2 => "partial-v2",
            LoadingStrategy::SplitFiles => "split-files",
        }
    }
}

/// Rows sampled for schema inference on a table's first touch.
pub(crate) const INFER_SAMPLE_ROWS: usize = 64;

/// Rows per [`RowBatch`] a [`Session`](crate::Session) streams unless
/// [`Session::with_batch_size`](crate::Session::with_batch_size) says
/// otherwise.
///
/// [`RowBatch`]: nodb_store::RowBatch
pub(crate) const DEFAULT_BATCH_SIZE: usize = 1024;

/// Entries in the engine plan cache keyed by normalized SQL text.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 128;

/// Entry cap of the engine result cache, independent of its byte budget
/// ([`EngineConfig::result_cache_bytes`]): bounds bookkeeping for
/// workloads of many tiny results.
pub(crate) const RESULT_CACHE_MAX_ENTRIES: usize = 1024;

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The adaptive loading policy.
    pub strategy: LoadingStrategy,
    /// Worker threads for every parallel stage — tokenization, the
    /// morsel-driven scan→filter→aggregate pipeline, parallel selection
    /// vectors and partitioned join builds. `1` forces fully serial
    /// execution. [`Engine::new`](crate::Engine::new) propagates this into
    /// `csv.threads` so there is exactly one knob to turn.
    pub threads: usize,
    /// Rows per morsel in the parallel pipeline. Smaller morsels balance
    /// skew better; larger ones amortise dispatch. The default (32 Ki rows)
    /// keeps a morsel's working set cache-resident.
    pub morsel_rows: usize,
    /// CSV dialect and tokenizer options.
    pub csv: CsvOptions,
    /// Per-table memory budget for the adaptive store, in bytes. `None`
    /// disables eviction (§5.1.3 "purely memory resident" without limits).
    pub memory_budget: Option<usize>,
    /// Directory for engine-generated files (split segments, persisted
    /// columns). Defaults to `<file dir>/.nodb` per table when `None`.
    pub store_dir: Option<PathBuf>,
    /// Maintain and exploit the adaptive positional map (ablation A2
    /// disables it to measure its contribution).
    pub use_positional_map: bool,
    /// Load one column per file trip instead of batching all missing
    /// columns into a single trip (the paper found this "much more
    /// expensive" — ablation A1 measures it).
    pub one_column_per_trip: bool,
    /// Build and use database-cracking indexes (the paper's reference 12,
    /// Figure 1's "Index DB") for range selections over fully loaded
    /// integer columns. Cracked copies live in the adaptive store and are
    /// refined as a side effect of every selection.
    pub use_cracking: bool,
    /// Consecutive fragment misses on the same column set before the
    /// workload monitor / robustness advisor (§5.5) escalates partial
    /// loading to full column loads. `0` switches the advisor off.
    pub escalate_after_misses: u32,
    /// Byte budget of the engine result cache, which answers repeated
    /// (and range-subsumed) SELECTs from materialised results instead of
    /// re-running them. `0` disables the cache entirely — the default, so
    /// every query exercises the adaptive loading machinery unless a
    /// deployment opts in (`nodb-server --result-cache-mb`).
    pub result_cache_bytes: usize,
    /// Per-query memory budget for query-execution state (join build
    /// tables, group tables, projection buffers, result-cache captures),
    /// in bytes. A query whose charged allocations exceed this is shed
    /// with [`Error::ResourceExhausted`](nodb_types::Error::ResourceExhausted)
    /// (wire code 14) — its neighbours keep running. `None` (the
    /// default) disables per-query metering.
    pub query_mem_bytes: Option<usize>,
    /// Engine-wide cap on the sum of all running queries' charged
    /// execution state, in bytes. Before shedding, the engine runs its
    /// degradation ladder: shrink the result cache, then evict the
    /// adaptive store toward floor. `None` (the default) disables the
    /// pool cap (peak usage is still tracked in `mem_reserved_peak`).
    pub engine_mem_bytes: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: LoadingStrategy::ColumnLoads,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            csv: CsvOptions::default(),
            memory_budget: None,
            store_dir: None,
            use_positional_map: true,
            one_column_per_trip: false,
            use_cracking: false,
            escalate_after_misses: 3,
            result_cache_bytes: 0,
            query_mem_bytes: None,
            engine_mem_bytes: None,
        }
    }
}

impl EngineConfig {
    /// Config with a given loading strategy, defaults elsewhere.
    pub fn with_strategy(strategy: LoadingStrategy) -> Self {
        EngineConfig {
            strategy,
            ..EngineConfig::default()
        }
    }

    /// Set the worker-thread count for every parallel stage (tokenizer and
    /// execution pipeline alike).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.csv.threads = self.threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_adaptive() {
        let c = EngineConfig::default();
        assert_eq!(c.strategy, LoadingStrategy::ColumnLoads);
        assert!(c.use_positional_map);
        assert!(!c.one_column_per_trip);
        assert!(c.memory_budget.is_none());
        assert!(c.threads >= 1);
        assert!(c.morsel_rows >= 1);
        assert_eq!(c.result_cache_bytes, 0, "result cache is opt-in");
        assert!(c.query_mem_bytes.is_none(), "memory metering is opt-in");
        assert!(c.engine_mem_bytes.is_none());
    }

    #[test]
    fn with_threads_syncs_csv_options() {
        let c = EngineConfig::default().with_threads(3);
        assert_eq!(c.threads, 3);
        assert_eq!(c.csv.threads, 3);
        let c = EngineConfig::default().with_threads(0);
        assert_eq!(c.threads, 1, "clamped to at least one worker");
    }

    #[test]
    fn labels_unique() {
        let all = [
            LoadingStrategy::FullLoad,
            LoadingStrategy::ExternalScan,
            LoadingStrategy::ColumnLoads,
            LoadingStrategy::PartialLoadsV1,
            LoadingStrategy::PartialLoadsV2,
            LoadingStrategy::SplitFiles,
        ];
        let labels: std::collections::HashSet<&str> = all.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
