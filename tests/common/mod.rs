//! Shared helpers for the integration tests.
//!
//! Each integration-test binary compiles this module independently, so
//! helpers unused by one binary are still used by another.
#![allow(dead_code)]

use std::path::PathBuf;

use nodb::core::{Engine, EngineConfig, LoadingStrategy};

/// All six loading strategies.
pub const ALL_STRATEGIES: [LoadingStrategy; 6] = [
    LoadingStrategy::FullLoad,
    LoadingStrategy::ExternalScan,
    LoadingStrategy::ColumnLoads,
    LoadingStrategy::PartialLoadsV1,
    LoadingStrategy::PartialLoadsV2,
    LoadingStrategy::SplitFiles,
];

/// Fresh temp dir for one test.
pub fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nodb_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Engine with a strategy, single-threaded tokenizer (deterministic
/// counters), store dir inside `dir`.
pub fn engine_in(dir: &std::path::Path, strategy: LoadingStrategy) -> Engine {
    let mut cfg = EngineConfig::with_strategy(strategy);
    cfg.threads = 1;
    cfg.store_dir = Some(dir.join(format!("store-{}", strategy.label())));
    Engine::new(cfg)
}

/// Write a deterministic `rows x cols` integer table where cell (r, c) =
/// `(r * 31 + c * 17 + r % (c + 2)) % 1000` — repeatable, with duplicates,
/// suitable for grouping.
pub fn write_int_table(path: &std::path::Path, rows: usize, cols: usize) {
    let mut s = String::new();
    for r in 0..rows {
        for c in 0..cols {
            if c > 0 {
                s.push(',');
            }
            let v = (r * 31 + c * 17 + r % (c + 2)) % 1000;
            s.push_str(&v.to_string());
        }
        s.push('\n');
    }
    std::fs::write(path, s).expect("write table");
}

/// A table mixing every column type with NULLs, empty-looking and
/// non-ASCII text: `a1` int, `a2` int with NULLs, `a3` float, `a4` text
/// with NULLs.
pub fn write_mixed_table(path: &std::path::Path, rows: usize) {
    const WORDS: [&str; 5] = ["alpha", "é中🦀", "", "b c", "z"];
    let mut s = String::new();
    for r in 0..rows {
        let a2 = if r % 7 == 3 {
            String::new()
        } else {
            ((r * 13) % 101).to_string()
        };
        s.push_str(&format!(
            "{r},{a2},{}.{},{}\n",
            (r * 37) % 50,
            (r % 4) * 25,
            WORDS[r % WORDS.len()]
        ));
    }
    std::fs::write(path, s).expect("write table");
}
