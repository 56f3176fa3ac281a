//! # nodb-rawcsv — the raw-file substrate
//!
//! Everything the NoDB vision needs from flat files, built from scratch:
//!
//! * [`load`] — the row tokenizer (the paper's adaptive loading operator,
//!   §3.2): one per-row kernel that walks a row only to its last needed
//!   column, starts from positional-map hints, tests pushed-down
//!   predicates as their fields are parsed and abandons a row at the first
//!   failure. [`load_columns`] runs it over a file in one parallel pass per
//!   byte chunk, straight into typed columns, with no whole-file buffer:
//!   every loading strategy's read. [`scan_bytes`] runs it over bytes in
//!   memory;
//! * [`tokenizer`] — what the kernel shares: the CSV dialect, phase 1
//!   (row boundaries), the field walker and parsers, and [`scan_bytes`];
//! * [`posmap`] — the adaptive positional map accumulating row/field byte
//!   offsets as a side effect of every scan (§4.1.5);
//! * [`split`] — dynamic file splitting, a.k.a. "file cracking" (§4):
//!   per-column segment files produced while tokenizing, tracked in a
//!   [`split::SegmentCatalog`];
//! * [`schema`] — automatic schema discovery on first touch (§5.6);
//! * [`gen`] — workload generators reproducing the paper's unique-integer
//!   tables without materialising permutations in memory.

pub mod bytes;
pub mod gen;
pub mod load;
pub mod posmap;
pub mod schema;
pub mod split;
pub mod tokenizer;

pub use load::{load_columns, LoadSpec, Loaded};
pub use posmap::PositionalMap;
pub use schema::{infer_file, infer_from_bytes, InferredSchema};
pub use split::{Segment, SegmentCatalog};
pub use tokenizer::{read_file, scan_bytes, scan_file, CsvOptions, ScanOutput, ScanSpec};
