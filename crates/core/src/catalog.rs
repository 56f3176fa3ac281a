//! The catalog: linked raw files and their derived state.
//!
//! Registering a table is "the only requirement from the user: a link to the
//! raw data files". Everything else — schema, positional map, split-file
//! catalog, adaptive store contents — is derived lazily and can be dropped
//! at any time. A fingerprint (length + mtime) detects out-of-band edits to
//! the raw file; on mismatch all derived state is discarded and the schema
//! re-inferred (§5.4's simple update story: the user may "edit the data with
//! a text editor directly at any time and fire a query again").

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use parking_lot::RwLock;

use nodb_rawcsv::{CsvOptions, PositionalMap, SegmentCatalog};
use nodb_store::TableData;
use nodb_types::{ColumnData, Error, Result, Schema, WorkCounters};

use crate::config::INFER_SAMPLE_ROWS;
use crate::monitor::TableMonitor;

/// Process-wide schema-epoch source. Epochs must be unique across every
/// table that ever existed, not merely monotonic per entry: the plan
/// cache and prepared statements compare epochs to detect that a name was
/// re-bound (unregister + register, or a re-created result table), and a
/// per-entry counter restarting at 1 would collide with the old entry's.
fn next_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Filesystem-safe directory component for a table key. The Rust API
/// accepts arbitrary registration names, so a name containing path
/// separators or `..` must not steer derived files (or unregister-time
/// deletion) outside the store directory: alphanumerics, `_` and `-`
/// pass through, everything else becomes `_`, and a rewritten name gets
/// a hash suffix so distinct keys cannot collide.
fn dir_component(key: &str) -> String {
    let safe: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if safe == key {
        safe
    } else {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        format!("{safe}-{h:016x}")
    }
}

/// Fingerprint of a raw file for change detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// File length in bytes.
    pub len: u64,
    /// Modification time.
    pub mtime: Option<SystemTime>,
}

impl Fingerprint {
    /// Read the fingerprint of a file.
    pub fn of(path: &Path) -> Result<Fingerprint> {
        let md = std::fs::metadata(path)?;
        Ok(Fingerprint {
            len: md.len(),
            mtime: md.modified().ok(),
        })
    }
}

/// Everything the engine knows about one linked file.
#[derive(Debug)]
pub struct TableEntry {
    /// Table name (as registered).
    pub name: String,
    /// Path of the raw file.
    pub path: PathBuf,
    /// Directory for generated artefacts (split segments).
    pub store_dir: PathBuf,
    /// Inferred schema + header information (populated on first touch).
    pub schema_info: Option<SchemaInfo>,
    /// Fingerprint at the time derived state was built.
    pub fingerprint: Option<Fingerprint>,
    /// The adaptive positional map.
    pub posmap: PositionalMap,
    /// Split-file segment catalog (always present; single original segment
    /// until the SplitFiles policy cracks it).
    pub segments: Option<SegmentCatalog>,
    /// Per-segment positional maps, keyed by segment path.
    pub segment_posmaps: std::collections::HashMap<PathBuf, PositionalMap>,
    /// The adaptive store contents for this table.
    pub store: TableData,
    /// Workload monitor state (§5.5).
    pub monitor: TableMonitor,
    /// Memory-resident result table: no backing raw file; the adaptive
    /// store holds every column (results-as-data, `CREATE TABLE AS` /
    /// `register_result`).
    pub resident: bool,
    /// Bumped whenever the schema is (re-)inferred — cached plans resolved
    /// against an older epoch are stale.
    pub schema_epoch: u64,
}

/// Inferred schema plus layout facts about the raw file.
#[derive(Debug, Clone)]
pub struct SchemaInfo {
    /// The schema.
    pub schema: Schema,
    /// Whether row 0 is a header (data starts at `data_start`).
    pub has_header: bool,
    /// Byte offset of the first data row.
    pub data_start: u64,
    /// Mean bytes per data row in the inference sample.
    pub row_bytes: u64,
}

impl TableEntry {
    fn new(name: String, path: PathBuf, store_dir: PathBuf) -> TableEntry {
        TableEntry {
            name,
            path,
            store_dir,
            schema_info: None,
            fingerprint: None,
            posmap: PositionalMap::new(),
            segments: None,
            segment_posmaps: std::collections::HashMap::new(),
            store: TableData::new(),
            monitor: TableMonitor::default(),
            resident: false,
            schema_epoch: 0,
        }
    }

    /// A memory-resident result table: schema known up front, every column
    /// fully loaded into the adaptive store, no raw file behind it.
    pub fn resident(name: String, schema: Schema, columns: Vec<Arc<ColumnData>>) -> TableEntry {
        let n_rows = columns.first().map(|c| c.len()).unwrap_or(0) as u64;
        let mut entry = TableEntry::new(name, PathBuf::new(), PathBuf::new());
        entry.resident = true;
        entry.schema_epoch = next_epoch();
        entry.schema_info = Some(SchemaInfo {
            schema,
            has_header: false,
            data_start: 0,
            row_bytes: 1,
        });
        entry.store.set_nrows(n_rows);
        for (c, col) in columns.into_iter().enumerate() {
            entry.store.insert_full(c, col, 0);
        }
        entry
    }

    /// Ensure schema and fingerprint are current, (re)inferring after file
    /// edits. Returns `true` when derived state was invalidated.
    pub fn ensure_current(&mut self, csv: &CsvOptions, counters: &WorkCounters) -> Result<bool> {
        if self.resident {
            return Ok(false);
        }
        let fp = Fingerprint::of(&self.path)?;
        let changed = self.fingerprint != Some(fp);
        if changed {
            self.invalidate();
            // Infer schema from a bounded prefix of the file.
            let info = nodb_rawcsv::infer_file(&self.path, csv, INFER_SAMPLE_ROWS, counters)?;
            self.schema_info = Some(SchemaInfo {
                schema: info.schema,
                has_header: info.has_header,
                data_start: info.data_start,
                row_bytes: info.row_bytes,
            });
            self.fingerprint = Some(fp);
            self.schema_epoch = next_epoch();
        }
        Ok(changed)
    }

    /// Drop all derived state (file changed).
    pub fn invalidate(&mut self) {
        self.store.clear();
        self.posmap.clear();
        self.segment_posmaps.clear();
        if let Some(seg) = &mut self.segments {
            let ncols = self
                .schema_info
                .as_ref()
                .map(|s| s.schema.len())
                .unwrap_or(0);
            let _ = seg.reset(&self.path, ncols);
        }
        self.segments = None;
        self.schema_info = None;
        self.fingerprint = None;
        self.monitor = TableMonitor::default();
        nodb_types::resource::release_free_memory();
    }

    /// The schema (must be ensured first).
    pub fn schema(&self) -> Result<&Schema> {
        self.schema_info
            .as_ref()
            .map(|s| &s.schema)
            .ok_or_else(|| Error::schema(format!("table {:?} not yet analysed", self.name)))
    }

    /// Byte offset of the first data row (0 without a header).
    pub fn data_start(&self) -> u64 {
        self.schema_info.as_ref().map(|s| s.data_start).unwrap_or(0)
    }

    /// Mean bytes per data row in the inference sample (1 before it).
    pub fn row_bytes(&self) -> u64 {
        self.schema_info.as_ref().map_or(1, |s| s.row_bytes)
    }

    /// Delete every engine-generated file derived from this table: split
    /// segments recorded in the segment catalog, plus any stale
    /// `<stem>.g<gen>.col<c>.csv` splits from earlier registrations still
    /// sitting in this table's store directory (which is private to the
    /// table — see [`Catalog::register`]). The original raw file is never
    /// touched. Returns the number of files removed.
    pub fn drop_derived_files(&self) -> usize {
        let mut removed = 0;
        if let Some(segs) = &self.segments {
            for seg in segs.segments() {
                if !seg.is_original && std::fs::remove_file(&seg.path).is_ok() {
                    removed += 1;
                }
            }
        }
        // Stale splits from previous registrations of the same file use
        // the `<stem>.g<generation>.` prefix in the store dir.
        let stem = self
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !stem.is_empty() {
            let prefix = format!("{stem}.g");
            if let Ok(entries) = std::fs::read_dir(&self.store_dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if name.starts_with(&prefix)
                        && name.ends_with(".csv")
                        && std::fs::remove_file(entry.path()).is_ok()
                    {
                        removed += 1;
                    }
                }
            }
        }
        // The per-table directory itself, when now empty.
        let _ = std::fs::remove_dir(&self.store_dir);
        removed
    }

    /// The segment catalog, creating the initial single-segment cover.
    pub fn segments_mut(&mut self) -> Result<&mut SegmentCatalog> {
        if self.segments.is_none() {
            let ncols = self.schema()?.len();
            self.segments = Some(SegmentCatalog::new(&self.path, ncols, &self.store_dir));
        }
        Ok(self.segments.as_mut().expect("just created"))
    }
}

/// The table catalog.
#[derive(Default)]
pub struct Catalog {
    tables: std::collections::HashMap<String, Arc<RwLock<TableEntry>>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Link a raw file under a table name. Nothing is read yet — schema
    /// inference happens on first query ("zero initialization overhead").
    pub fn register(
        &mut self,
        name: &str,
        path: impl Into<PathBuf>,
        store_dir: Option<&Path>,
    ) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(Error::schema(format!("table {name:?} already registered")));
        }
        let path = path.into();
        // Each table gets its own subdirectory for derived files: split
        // segments are named after the raw file's stem, so two tables
        // registered from same-stem files (`/a/data.csv`, `/b/data.csv`)
        // sharing one store dir would otherwise overwrite each other's
        // splits — and unregister-time cleanup could not tell them apart.
        let subdir = dir_component(&key);
        let dir = match store_dir {
            Some(d) => d.join(&subdir),
            None => path
                .parent()
                .unwrap_or_else(|| Path::new("."))
                .join(".nodb")
                .join(&subdir),
        };
        self.tables.insert(
            key,
            Arc::new(RwLock::new(TableEntry::new(name.to_owned(), path, dir))),
        );
        Ok(())
    }

    /// Remove a table link (derived state is dropped with it).
    pub fn unregister(&mut self, name: &str) -> bool {
        self.remove(name).is_some()
    }

    /// Remove a table link, handing back its entry (so callers can clean
    /// up on-disk derived state outside the catalog lock).
    pub fn remove(&mut self, name: &str) -> Option<Arc<RwLock<TableEntry>>> {
        self.tables.remove(&name.to_ascii_lowercase())
    }

    /// Register a memory-resident result table. Replaces a previous
    /// *result* table of the same name (exploration loops re-create
    /// them); refuses to shadow a file-backed table.
    pub fn register_result(
        &mut self,
        name: &str,
        schema: Schema,
        columns: Vec<Arc<ColumnData>>,
    ) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if let Some(existing) = self.tables.get(&key) {
            if !existing.read().resident {
                return Err(Error::schema(format!(
                    "table {name:?} is registered to a raw file; unregister it first"
                )));
            }
        }
        self.tables.insert(
            key,
            Arc::new(RwLock::new(TableEntry::resident(
                name.to_owned(),
                schema,
                columns,
            ))),
        );
        Ok(())
    }

    /// Look up a table entry.
    pub fn get(&self, name: &str) -> Result<Arc<RwLock<TableEntry>>> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| {
                let mut known: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
                known.sort_unstable();
                Error::schema(format!("unknown table {name:?}; registered: {known:?}"))
            })
    }

    /// Registered table names (lowercase), sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(name: &str, content: &str) -> (PathBuf, Catalog) {
        let dir = std::env::temp_dir().join(format!("nodb_catalog_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, content).unwrap();
        let mut cat = Catalog::new();
        cat.register("t", &path, Some(&dir.join("store"))).unwrap();
        (path, cat)
    }

    #[test]
    fn register_and_lookup() {
        let (_p, cat) = setup("lookup", "1,2\n");
        assert!(cat.get("t").is_ok());
        assert!(cat.get("T").is_ok(), "case-insensitive");
        let e = cat.get("missing").unwrap_err().to_string();
        assert!(e.contains("registered"), "{e}");
        assert_eq!(cat.table_names(), vec!["t"]);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let (p, mut cat) = setup("dup", "1\n");
        assert!(cat.register("T", &p, None).is_err());
    }

    #[test]
    fn schema_inferred_on_ensure() {
        let (_p, cat) = setup("infer", "1,2.5,x\n2,3.5,y\n");
        let entry = cat.get("t").unwrap();
        let mut e = entry.write();
        assert!(e.schema_info.is_none());
        let c = WorkCounters::new();
        let changed = e.ensure_current(&CsvOptions::default(), &c).unwrap();
        assert!(changed);
        assert_eq!(e.schema().unwrap().len(), 3);
        // Second ensure: no change.
        let changed = e.ensure_current(&CsvOptions::default(), &c).unwrap();
        assert!(!changed);
    }

    #[test]
    fn file_edit_invalidates() {
        let (p, cat) = setup("edit", "1,2\n3,4\n");
        let entry = cat.get("t").unwrap();
        let c = WorkCounters::new();
        {
            let mut e = entry.write();
            e.ensure_current(&CsvOptions::default(), &c).unwrap();
            e.store
                .insert_full(0, nodb_types::ColumnData::from_i64(vec![1, 3]), 1);
            assert!(e.store.has_full(0));
        }
        // Rewrite the file with different content (length changes).
        std::fs::write(&p, "9,9,9\n8,8,8\n7,7,7\n").unwrap();
        {
            let mut e = entry.write();
            let changed = e.ensure_current(&CsvOptions::default(), &c).unwrap();
            assert!(changed);
            assert!(!e.store.has_full(0), "derived state dropped");
            assert_eq!(e.schema().unwrap().len(), 3, "schema re-inferred");
        }
    }

    #[test]
    fn unregister_removes() {
        let (_p, mut cat) = setup("unreg", "1\n");
        assert!(cat.unregister("T"));
        assert!(!cat.unregister("t"));
        assert!(cat.get("t").is_err());
    }

    #[test]
    fn segments_created_lazily() {
        let (_p, cat) = setup("segs", "1,2,3\n");
        let entry = cat.get("t").unwrap();
        let mut e = entry.write();
        let c = WorkCounters::new();
        e.ensure_current(&CsvOptions::default(), &c).unwrap();
        let segs = e.segments_mut().unwrap();
        assert_eq!(segs.segments().len(), 1);
        assert_eq!(segs.segments()[0].cols, vec![0, 1, 2]);
    }
}
