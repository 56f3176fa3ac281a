//! Dynamic file splitting — "file cracking" (paper §4).
//!
//! Going back to a monolithic flat file costs two things: re-reading bytes
//! that belong to columns the query does not want (§4.1.1) and re-tokenizing
//! every attribute that precedes the target in each row (§4.1.2). Splitting
//! fixes both: while a load tokenizes rows anyway, it writes one new file per
//! *tokenized* column plus a single "rest" file holding the untokenized tail
//! ("one new flat file for each attribute we tokenized and one flat file for
//! all attributes we did not tokenize").
//!
//! The [`SegmentCatalog`] tracks which file currently holds which columns.
//! Splitting is *recursive*: a rest file is itself a segment and can be split
//! by a later query, so parse work per column strictly decreases over the
//! workload — the learning property of §4.1.5.
//!
//! All splitting copies raw field bytes verbatim (quotes included), so split
//! files remain ordinary CSV readable by the same tokenizer, and row order —
//! hence rowid alignment — is preserved across every segment.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use nodb_types::{Error, MorselRange, Result, Schema, WorkCounters};

use crate::tokenizer::{field_end, find_row_starts, map_chunks, read_file, CsvOptions};

/// One physical file holding a contiguous subset of the original columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Path of the backing file.
    pub path: PathBuf,
    /// Original column ordinals stored in this file, in file order.
    pub cols: Vec<usize>,
    /// Whether this segment is the original user file (never deleted).
    pub is_original: bool,
}

impl Segment {
    /// Number of columns in the segment.
    pub fn width(&self) -> usize {
        self.cols.len()
    }
}

/// The catalog of segments covering one table's columns.
#[derive(Debug, Clone)]
pub struct SegmentCatalog {
    /// Directory where generated split files live.
    dir: PathBuf,
    /// Name stem for generated files.
    stem: String,
    /// Disjoint cover of all original columns.
    segments: Vec<Segment>,
    /// Monotone counter for unique file names.
    generation: u64,
}

impl SegmentCatalog {
    /// A catalog with a single segment: the original file holding all
    /// `ncols` columns. Split files will be created in `dir`.
    pub fn new(original: &Path, ncols: usize, dir: &Path) -> SegmentCatalog {
        let stem = original
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "table".to_owned());
        SegmentCatalog {
            dir: dir.to_path_buf(),
            stem,
            segments: vec![Segment {
                path: original.to_path_buf(),
                cols: (0..ncols).collect(),
                is_original: true,
            }],
            generation: 0,
        }
    }

    /// All segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Locate the segment holding `col`: returns `(segment index, local
    /// column index within the segment)`.
    pub fn locate(&self, col: usize) -> Option<(usize, usize)> {
        for (si, seg) in self.segments.iter().enumerate() {
            if let Some(li) = seg.cols.iter().position(|&c| c == col) {
                return Some((si, li));
            }
        }
        None
    }

    /// Schema restricted to one segment's columns (projection of the full
    /// table schema in segment file order).
    pub fn segment_schema(&self, seg_idx: usize, full: &Schema) -> Result<Schema> {
        let seg = self
            .segments
            .get(seg_idx)
            .ok_or_else(|| Error::schema(format!("no segment {seg_idx}")))?;
        full.project(&seg.cols)
    }

    /// Has any splitting happened yet?
    pub fn is_split(&self) -> bool {
        self.segments.len() > 1 || !self.segments[0].is_original
    }

    /// Split segment `seg_idx`: local columns `0..=upto_local` each become a
    /// single-column file; the remaining tail columns (if any) become one
    /// "rest" file. Returns the indices of the new segments covering the old
    /// one. No-op (returning the segment itself) when the segment is already
    /// a single column.
    ///
    /// `bytes` must be the current content of the segment file (callers have
    /// usually just read it for a load; passing it avoids a second read).
    pub fn split_segment(
        &mut self,
        seg_idx: usize,
        upto_local: usize,
        bytes: &[u8],
        opts: &CsvOptions,
        counters: &WorkCounters,
    ) -> Result<Vec<usize>> {
        let seg = self
            .segments
            .get(seg_idx)
            .ok_or_else(|| Error::schema(format!("no segment {seg_idx}")))?
            .clone();
        let width = seg.width();
        if width <= 1 {
            return Ok(vec![seg_idx]);
        }
        let upto = upto_local.min(width - 1);

        std::fs::create_dir_all(&self.dir)?;
        self.generation += 1;
        let gen = self.generation;

        // Per-output in-memory buffers: "pointers to the values of each
        // column are collected into arrays and once all tokenization is
        // finished, they are written in one go in one separate file per
        // column" (§4.2). Buffering then writing once is far cheaper than
        // millions of tiny writes.
        let est = bytes.len() / (width + 1).max(1) + 16;
        let mut col_paths: Vec<PathBuf> = Vec::with_capacity(upto + 1);
        for li in 0..=upto {
            let p = self
                .dir
                .join(format!("{}.g{}.col{}.csv", self.stem, gen, seg.cols[li]));
            col_paths.push(p);
        }
        let rest_cols: Vec<usize> = seg.cols[upto + 1..].to_vec();
        let rest_path = (!rest_cols.is_empty()).then(|| {
            self.dir.join(format!(
                "{}.g{}.rest{}-{}.csv",
                self.stem,
                gen,
                rest_cols[0],
                rest_cols[rest_cols.len() - 1]
            ))
        });
        // Walk every row, copying raw field bytes into the buffers. Rows
        // are cut into one chunk per thread on the morsel driver (like
        // scan phase 2); each chunk fills private buffers which are
        // concatenated in row order at write time.
        let starts = find_row_starts(bytes, opts, counters)?;
        let nrows = starts.len();
        let threads = opts.threads.clamp(1, nrows.max(1));
        let want_rest = rest_path.is_some();
        type SplitChunk = (Vec<Vec<u8>>, Vec<u8>, u64);
        let chunk_work = |range: MorselRange| -> Result<SplitChunk> {
            let est_chunk = est / threads + 16;
            let mut bufs: Vec<Vec<u8>> =
                (0..=upto).map(|_| Vec::with_capacity(est_chunk)).collect();
            let mut rest: Vec<u8> = Vec::new();
            let mut fields: u64 = 0;
            for r in range.lo..range.hi {
                let start = starts[r] as usize;
                let next = starts
                    .get(r + 1)
                    .map(|&s| s as usize)
                    .unwrap_or(bytes.len());
                let rowb = &bytes[start..next];
                let mut pos = 0usize;
                for (li, buf) in bufs.iter_mut().enumerate() {
                    let fe = field_end(rowb, pos, opts.delimiter, opts.quote);
                    fields += 1;
                    buf.extend_from_slice(&rowb[pos..fe]);
                    buf.push(b'\n');
                    if rowb.get(fe) == Some(&opts.delimiter) {
                        pos = fe + 1;
                    } else if li < upto {
                        return Err(Error::parse(format!(
                            "row {r} of segment {:?} has only {} fields; cannot split to column {}",
                            seg.path,
                            li + 1,
                            upto
                        )));
                    } else {
                        pos = fe; // row exhausted exactly at the boundary
                    }
                }
                if want_rest {
                    // Raw tail: from the current position to the row's end.
                    let mut end = pos;
                    while end < rowb.len() && rowb[end] != b'\n' && rowb[end] != b'\r' {
                        // Skip quoted tails verbatim (may embed newlines).
                        if opts.quote == Some(rowb[end]) {
                            end = field_end(rowb, end, opts.delimiter, opts.quote);
                        } else {
                            end += 1;
                        }
                    }
                    rest.extend_from_slice(&rowb[pos..end]);
                    rest.push(b'\n');
                }
            }
            Ok((bufs, rest, fields))
        };
        let chunks = map_chunks(nrows, if nrows < 4096 { 1 } else { threads }, chunk_work)?;
        for (_, _, fields) in &chunks {
            counters.add_fields_tokenized(*fields);
        }
        let mut written: u64 = 0;
        for (li, p) in col_paths.iter().enumerate() {
            let mut w = BufWriter::with_capacity(1 << 18, File::create(p)?);
            for (bufs, _, _) in &chunks {
                w.write_all(&bufs[li])?;
                written += bufs[li].len() as u64;
            }
            w.flush()?;
        }
        if let Some(p) = &rest_path {
            let mut w = BufWriter::with_capacity(1 << 18, File::create(p)?);
            for (_, rest, _) in &chunks {
                w.write_all(rest)?;
                written += rest.len() as u64;
            }
            w.flush()?;
        }
        counters.add_bytes_written(written);

        // Rebuild the catalog entry: replace seg_idx with the new segments.
        let mut new_segments: Vec<Segment> = Vec::with_capacity(upto + 2);
        for (li, p) in col_paths.into_iter().enumerate() {
            new_segments.push(Segment {
                path: p,
                cols: vec![seg.cols[li]],
                is_original: false,
            });
        }
        if let Some(p) = rest_path {
            new_segments.push(Segment {
                path: p,
                cols: rest_cols,
                is_original: false,
            });
        }
        let n_new = new_segments.len();
        self.segments.splice(seg_idx..=seg_idx, new_segments);
        Ok((seg_idx..seg_idx + n_new).collect())
    }

    /// Split the segment containing `col` so that `col` ends up in its own
    /// single-column file; reads the segment from disk. Returns the new
    /// single-column segment index.
    pub fn split_for_column(
        &mut self,
        col: usize,
        opts: &CsvOptions,
        counters: &WorkCounters,
    ) -> Result<usize> {
        let (si, li) = self
            .locate(col)
            .ok_or_else(|| Error::schema(format!("column {col} not in catalog")))?;
        if self.segments[si].width() == 1 {
            return Ok(si);
        }
        let bytes = read_file(&self.segments[si].path, counters)?;
        let new = self.split_segment(si, li, &bytes, opts, counters)?;
        // `col` is the li-th new single-column segment.
        Ok(new[li])
    }

    /// Delete all generated (non-original) segment files. The catalog resets
    /// to the original single segment covering `ncols` columns.
    pub fn reset(&mut self, original: &Path, ncols: usize) -> Result<()> {
        for seg in &self.segments {
            if !seg.is_original {
                let _ = std::fs::remove_file(&seg.path);
            }
        }
        self.segments = vec![Segment {
            path: original.to_path_buf(),
            cols: (0..ncols).collect(),
            is_original: true,
        }];
        Ok(())
    }

    /// Total bytes of generated split files currently on disk.
    pub fn split_bytes_on_disk(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| !s.is_original)
            .filter_map(|s| std::fs::metadata(&s.path).ok())
            .map(|m| m.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{read_file, scan_bytes, ScanSpec};
    use nodb_types::Schema;

    fn opts() -> CsvOptions {
        CsvOptions {
            threads: 1,
            ..CsvOptions::default()
        }
    }

    fn setup(data: &str, name: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("nodb_split_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let orig = dir.join("orig.csv");
        std::fs::write(&orig, data).unwrap();
        (dir, orig)
    }

    #[test]
    fn initial_catalog_is_one_original_segment() {
        let (dir, orig) = setup("1,2,3\n", "init");
        let cat = SegmentCatalog::new(&orig, 3, &dir);
        assert_eq!(cat.segments().len(), 1);
        assert!(cat.segments()[0].is_original);
        assert!(!cat.is_split());
        assert_eq!(cat.locate(2), Some((0, 2)));
        assert_eq!(cat.locate(3), None);
    }

    #[test]
    fn split_produces_per_column_and_rest_files() {
        let (dir, orig) = setup("1,2,3,4\n5,6,7,8\n", "basic");
        let mut cat = SegmentCatalog::new(&orig, 4, &dir);
        let c = WorkCounters::new();
        let bytes = std::fs::read(&orig).unwrap();
        let new = cat.split_segment(0, 1, &bytes, &opts(), &c).unwrap();
        // cols 0 and 1 single files, rest file with cols 2,3.
        assert_eq!(new, vec![0, 1, 2]);
        assert_eq!(cat.segments().len(), 3);
        assert_eq!(cat.segments()[0].cols, vec![0]);
        assert_eq!(cat.segments()[1].cols, vec![1]);
        assert_eq!(cat.segments()[2].cols, vec![2, 3]);
        let col0 = std::fs::read_to_string(&cat.segments()[0].path).unwrap();
        assert_eq!(col0, "1\n5\n");
        let rest = std::fs::read_to_string(&cat.segments()[2].path).unwrap();
        assert_eq!(rest, "3,4\n7,8\n");
        assert!(c.snapshot().bytes_written > 0);
        assert!(cat.is_split());
    }

    #[test]
    fn split_everything_leaves_no_rest() {
        let (dir, orig) = setup("1,2\n3,4\n", "norest");
        let mut cat = SegmentCatalog::new(&orig, 2, &dir);
        let c = WorkCounters::new();
        let bytes = std::fs::read(&orig).unwrap();
        let new = cat.split_segment(0, 1, &bytes, &opts(), &c).unwrap();
        assert_eq!(new.len(), 2);
        assert_eq!(cat.segments().len(), 2);
        assert!(cat.segments().iter().all(|s| s.width() == 1));
    }

    #[test]
    fn recursive_split_of_rest_file() {
        let (dir, orig) = setup("1,2,3,4\n5,6,7,8\n", "recursive");
        let mut cat = SegmentCatalog::new(&orig, 4, &dir);
        let c = WorkCounters::new();
        let bytes = std::fs::read(&orig).unwrap();
        cat.split_segment(0, 0, &bytes, &opts(), &c).unwrap(); // col0 + rest(1,2,3)
        assert_eq!(cat.segments()[1].cols, vec![1, 2, 3]);
        // Now split the rest segment for col 2.
        let si = cat.split_for_column(2, &opts(), &c).unwrap();
        assert_eq!(cat.segments()[si].cols, vec![2]);
        let col2 = std::fs::read_to_string(&cat.segments()[si].path).unwrap();
        assert_eq!(col2, "3\n7\n");
        // Catalog still covers all 4 columns exactly once.
        let mut all: Vec<usize> = cat.segments().iter().flat_map(|s| s.cols.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn split_single_column_segment_is_noop() {
        let (dir, orig) = setup("1\n2\n", "noop");
        let mut cat = SegmentCatalog::new(&orig, 1, &dir);
        let c = WorkCounters::new();
        let si = cat.split_for_column(0, &opts(), &c).unwrap();
        assert_eq!(si, 0);
        assert_eq!(cat.segments().len(), 1);
        assert_eq!(c.snapshot().bytes_written, 0);
    }

    #[test]
    fn split_files_scannable_and_row_aligned() {
        let (dir, orig) = setup("10,20,30\n11,21,31\n12,22,32\n", "aligned");
        let full = Schema::ints(3);
        let mut cat = SegmentCatalog::new(&orig, 3, &dir);
        let c = WorkCounters::new();
        let si = cat.split_for_column(1, &opts(), &c).unwrap();
        let seg_schema = cat.segment_schema(si, &full).unwrap();
        assert_eq!(seg_schema.len(), 1);
        let bytes = read_file(&cat.segments()[si].path, &c).unwrap();
        let out = scan_bytes(
            &bytes,
            &opts(),
            &ScanSpec {
                schema: &seg_schema,
                needed: vec![0],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.columns[&0].as_i64_slice().unwrap(), &[20, 21, 22]);
        assert_eq!(out.rowids, vec![0, 1, 2]);
    }

    #[test]
    fn nulls_round_trip_through_split() {
        // Row 1 has an empty col-0 field; the single-column file must keep
        // the row (blank line) so rowids stay aligned.
        let (dir, orig) = setup("1,2\n,4\n5,6\n", "nulls");
        let full = Schema::ints(2);
        let mut cat = SegmentCatalog::new(&orig, 2, &dir);
        let c = WorkCounters::new();
        let si = cat.split_for_column(0, &opts(), &c).unwrap();
        let seg_schema = cat.segment_schema(si, &full).unwrap();
        let mut o = opts();
        o.skip_blank_rows = false;
        let bytes = read_file(&cat.segments()[si].path, &c).unwrap();
        let out = scan_bytes(
            &bytes,
            &o,
            &ScanSpec {
                schema: &seg_schema,
                needed: vec![0],
                pushdown: None,
            },
            None,
            &c,
        )
        .unwrap();
        assert_eq!(out.rows_scanned, 3);
        assert_eq!(out.columns[&0].get(0), nodb_types::Value::Int(1));
        assert_eq!(out.columns[&0].get(1), nodb_types::Value::Null);
        assert_eq!(out.columns[&0].get(2), nodb_types::Value::Int(5));
    }

    #[test]
    fn short_row_split_is_an_error() {
        let (dir, orig) = setup("1,2,3\n4\n", "short");
        let mut cat = SegmentCatalog::new(&orig, 3, &dir);
        let c = WorkCounters::new();
        let bytes = std::fs::read(&orig).unwrap();
        assert!(cat.split_segment(0, 2, &bytes, &opts(), &c).is_err());
    }

    #[test]
    fn reset_removes_generated_files() {
        let (dir, orig) = setup("1,2\n", "reset");
        let mut cat = SegmentCatalog::new(&orig, 2, &dir);
        let c = WorkCounters::new();
        cat.split_for_column(1, &opts(), &c).unwrap();
        let generated: Vec<PathBuf> = cat
            .segments()
            .iter()
            .filter(|s| !s.is_original)
            .map(|s| s.path.clone())
            .collect();
        assert!(!generated.is_empty());
        assert!(cat.split_bytes_on_disk() > 0);
        cat.reset(&orig, 2).unwrap();
        assert!(!cat.is_split());
        for p in generated {
            assert!(!p.exists(), "{p:?} should be deleted");
        }
        assert!(orig.exists());
    }

    #[test]
    fn quoted_fields_survive_splitting() {
        let (dir, orig) = setup("\"a,b\",1,\"x\"\n\"c\",2,\"y,z\"\n", "quoted");
        let mut o = opts();
        o.quote = Some(b'"');
        let mut cat = SegmentCatalog::new(&orig, 3, &dir);
        let c = WorkCounters::new();
        let bytes = std::fs::read(&orig).unwrap();
        cat.split_segment(0, 0, &bytes, &o, &c).unwrap();
        let col0 = std::fs::read_to_string(&cat.segments()[0].path).unwrap();
        assert_eq!(col0, "\"a,b\"\n\"c\"\n"); // raw bytes preserved
        let rest = std::fs::read_to_string(&cat.segments()[1].path).unwrap();
        assert_eq!(rest, "1,\"x\"\n2,\"y,z\"\n");
    }
}
