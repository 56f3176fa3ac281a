//! Automatic schema discovery (paper §5.6).
//!
//! "When the user links a collection of flat files to the database, a schema
//! should be defined. Ideally, this should be done without any input from
//! the user." We map each file to one table, infer per-column types from a
//! sample of rows (int64 → float64 → str promotion), and detect a header row
//! heuristically. This runs once, on the first query that touches the file.

use std::path::Path;

use nodb_types::{DataType, Error, Field, Result, Schema, WorkCounters};

use crate::tokenizer::{field_end, find_row_starts, parse_field, CsvOptions};

/// Result of schema inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredSchema {
    /// The inferred schema. Columns are named from the header when one is
    /// detected, else `a1..aN` (the paper's convention).
    pub schema: Schema,
    /// Whether the first row was judged to be a header (and must be skipped
    /// when loading — callers slice it off via [`InferredSchema::data_start`]).
    pub has_header: bool,
    /// Byte offset where data rows begin (0 without a header).
    pub data_start: u64,
    /// How many data rows were examined.
    pub sampled_rows: usize,
    /// Mean bytes per sampled data row (at least 1): what a loader sizes
    /// its byte chunks by.
    pub row_bytes: u64,
}

/// Infer a schema from the leading rows of `bytes`.
pub fn infer_from_bytes(
    bytes: &[u8],
    opts: &CsvOptions,
    max_sample_rows: usize,
) -> Result<InferredSchema> {
    let counters = WorkCounters::new(); // inference work is not charged to queries
    let starts = find_row_starts(bytes, opts, &counters)?;
    if starts.is_empty() {
        return Err(Error::schema("cannot infer schema from an empty file"));
    }
    let sample_end = starts.len().min(max_sample_rows.max(2));
    let rows: Vec<Vec<&[u8]>> = (0..sample_end)
        .map(|r| {
            let start = starts[r] as usize;
            let next = starts
                .get(r + 1)
                .map(|&s| s as usize)
                .unwrap_or(bytes.len());
            split_row(&bytes[start..next], opts)
        })
        .collect();

    let arity = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    if arity == 0 {
        return Err(Error::schema("no fields found in sample rows"));
    }

    // Infer types over all sampled rows first (header included).
    let all_types: Vec<DataType> = (0..arity)
        .map(|c| infer_column_type(rows.iter().filter_map(|r| r.get(c).copied()), opts))
        .collect();
    // ... and over data rows only (header excluded).
    let data_types: Vec<DataType> = if rows.len() > 1 {
        (0..arity)
            .map(|c| infer_column_type(rows.iter().skip(1).filter_map(|r| r.get(c).copied()), opts))
            .collect()
    } else {
        all_types.clone()
    };

    // Header heuristic: the first row has a non-numeric cell above an
    // otherwise-numeric column. (An all-string table can't be told apart;
    // we default to "no header" — the paper's tables are numeric.)
    let first = &rows[0];
    let has_header = rows.len() > 1
        && data_types.iter().enumerate().any(|(c, ty)| {
            ty.is_numeric()
                && first.get(c).is_some_and(|f| {
                    !f.is_empty() && parse_field(f, DataType::Float64, opts.quote).is_err()
                })
        });

    let types = if has_header { data_types } else { all_types };
    let mut fields = Vec::with_capacity(arity);
    for (c, &ty) in types.iter().enumerate() {
        let name = if has_header {
            first
                .get(c)
                .and_then(|f| parse_field(f, DataType::Str, opts.quote).ok())
                .and_then(|v| v.as_str().map(sanitize_name))
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| format!("a{}", c + 1))
        } else {
            format!("a{}", c + 1)
        };
        fields.push(Field::new(name, ty));
    }
    // De-duplicate header names by suffixing ordinals.
    for i in 0..fields.len() {
        let mut name = fields[i].name.clone();
        let mut bump = 1;
        while fields[..i].iter().any(|f| f.name == name) {
            bump += 1;
            name = format!("{}_{bump}", fields[i].name);
        }
        fields[i].name = name;
    }

    let data_start = if has_header {
        starts.get(1).copied().unwrap_or(bytes.len() as u64)
    } else {
        0
    };
    let sampled_rows = sample_end - usize::from(has_header);
    let sample_bytes = starts
        .get(sample_end)
        .copied()
        .unwrap_or(bytes.len() as u64)
        .saturating_sub(data_start);
    Ok(InferredSchema {
        schema: Schema::new(fields)?,
        has_header,
        data_start,
        sampled_rows,
        row_bytes: (sample_bytes / sampled_rows.max(1) as u64).max(1),
    })
}

/// Infer a schema from a file on disk (reads only what it needs via a
/// bounded prefix, falling back to the whole file for short inputs).
pub fn infer_file(
    path: &Path,
    opts: &CsvOptions,
    max_sample_rows: usize,
    counters: &WorkCounters,
) -> Result<InferredSchema> {
    use std::io::Read;
    // Sampling the first 1 MiB is enough for any realistic row size; if the
    // prefix has fewer than 2 complete rows we read more.
    let mut f = std::fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut cap = (1usize << 20).min(file_len as usize);
    loop {
        let mut buf = vec![0u8; cap];
        f.read_exact(&mut buf)?;
        counters.add_bytes_read(cap as u64);
        // Truncate to the last complete row unless we hold the whole file.
        let usable = if (cap as u64) < file_len {
            match buf.iter().rposition(|&b| b == b'\n') {
                Some(p) => p + 1,
                None => 0,
            }
        } else {
            cap
        };
        if usable > 0 {
            match infer_from_bytes(&buf[..usable], opts, max_sample_rows) {
                Ok(s) => return Ok(s),
                Err(e) if (cap as u64) >= file_len => return Err(e),
                Err(_) => {}
            }
        } else if (cap as u64) >= file_len {
            return Err(Error::schema("cannot infer schema from an empty file"));
        }
        cap = (cap * 4).min(file_len as usize);
        f = std::fs::File::open(path)?;
    }
}

/// Split one row buffer into raw field slices (terminators excluded).
fn split_row<'a>(rowb: &'a [u8], opts: &CsvOptions) -> Vec<&'a [u8]> {
    let mut fields = Vec::new();
    let mut pos = 0usize;
    loop {
        let fe = field_end(rowb, pos, opts.delimiter, opts.quote);
        fields.push(&rowb[pos..fe]);
        if rowb.get(fe) == Some(&opts.delimiter) {
            pos = fe + 1;
        } else {
            break;
        }
    }
    fields
}

/// Narrowest type that parses every sampled field (nulls/empties ignored).
fn infer_column_type<'a>(
    fields: impl Iterator<Item = &'a [u8]> + Clone,
    opts: &CsvOptions,
) -> DataType {
    let mut ty = DataType::Int64;
    for f in fields.clone() {
        if f.is_empty() {
            continue;
        }
        if parse_field(f, ty, opts.quote).is_ok() {
            continue;
        }
        ty = match ty {
            DataType::Int64 => {
                if parse_field(f, DataType::Float64, opts.quote).is_ok() {
                    DataType::Float64
                } else {
                    return DataType::Str;
                }
            }
            DataType::Float64 => return DataType::Str,
            DataType::Str => DataType::Str,
        };
    }
    ty
}

/// Make a header cell usable as a column name.
fn sanitize_name(raw: &str) -> String {
    let cleaned: String = raw
        .trim()
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    cleaned.trim_matches('_').to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> CsvOptions {
        CsvOptions {
            threads: 1,
            ..CsvOptions::default()
        }
    }

    #[test]
    fn all_int_table_no_header() {
        let s = infer_from_bytes(b"1,2,3\n4,5,6\n", &opts(), 100).unwrap();
        assert!(!s.has_header);
        assert_eq!(s.data_start, 0);
        assert_eq!(s.schema.to_string(), "(a1 int64, a2 int64, a3 int64)");
    }

    #[test]
    fn row_bytes_is_the_mean_sampled_data_row() {
        // The header is not a data row: two data rows of 4 and 7 bytes.
        let s = infer_from_bytes(b"id,n\n1,2\n10,200\n", &opts(), 100).unwrap();
        assert!(s.has_header);
        assert_eq!(s.row_bytes, 5);
        let s = infer_from_bytes(b"7\n", &opts(), 100).unwrap();
        assert_eq!(s.row_bytes, 2);
    }

    #[test]
    fn float_promotion() {
        let s = infer_from_bytes(b"1,2.5\n2,3\n", &opts(), 100).unwrap();
        assert_eq!(s.schema.field(0).unwrap().data_type, DataType::Int64);
        assert_eq!(s.schema.field(1).unwrap().data_type, DataType::Float64);
    }

    #[test]
    fn string_fallback() {
        let s = infer_from_bytes(b"1,x\n2,y\n", &opts(), 100).unwrap();
        assert_eq!(s.schema.field(1).unwrap().data_type, DataType::Str);
    }

    #[test]
    fn header_detected_on_numeric_columns() {
        let s = infer_from_bytes(b"id,score\n1,2.5\n2,3.5\n", &opts(), 100).unwrap();
        assert!(s.has_header);
        assert_eq!(s.schema.field(0).unwrap().name, "id");
        assert_eq!(s.schema.field(1).unwrap().name, "score");
        assert_eq!(s.schema.field(0).unwrap().data_type, DataType::Int64);
        assert_eq!(s.data_start, 9); // after "id,score\n"
    }

    #[test]
    fn all_string_table_defaults_to_no_header() {
        let s = infer_from_bytes(b"name,city\nalice,paris\n", &opts(), 100).unwrap();
        assert!(!s.has_header);
        assert_eq!(s.schema.field(0).unwrap().name, "a1");
    }

    #[test]
    fn nulls_do_not_break_inference() {
        let s = infer_from_bytes(b"1,\n,2\n3,4\n", &opts(), 100).unwrap();
        assert_eq!(s.schema.field(0).unwrap().data_type, DataType::Int64);
        assert_eq!(s.schema.field(1).unwrap().data_type, DataType::Int64);
    }

    #[test]
    fn ragged_rows_use_max_arity() {
        let s = infer_from_bytes(b"1,2\n3,4,5\n", &opts(), 100).unwrap();
        assert_eq!(s.schema.len(), 3);
    }

    #[test]
    fn duplicate_header_names_deduplicated() {
        let s = infer_from_bytes(b"x,x,x\n1,2,3\n", &opts(), 100).unwrap();
        assert!(s.has_header);
        let names: Vec<&str> = s.schema.fields().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["x", "x_2", "x_3"]);
    }

    #[test]
    fn header_name_sanitization() {
        let s = infer_from_bytes(b"User ID,Total $\n1,2\n", &opts(), 100).unwrap();
        assert!(s.has_header);
        assert_eq!(s.schema.field(0).unwrap().name, "user_id");
        assert_eq!(s.schema.field(1).unwrap().name, "total");
    }

    #[test]
    fn empty_file_is_an_error() {
        assert!(infer_from_bytes(b"", &opts(), 100).is_err());
        assert!(infer_from_bytes(b"\n\n", &opts(), 100).is_err());
    }

    #[test]
    fn single_row_file_is_data_not_header() {
        let s = infer_from_bytes(b"1,2,3\n", &opts(), 100).unwrap();
        assert!(!s.has_header);
        assert_eq!(s.schema.len(), 3);
    }

    #[test]
    fn sample_cap_respected() {
        // Type switch after the cap is not observed: col is str only in
        // row 5, but we sample 3 rows → inferred int.
        let s = infer_from_bytes(b"1\n2\n3\n4\nxyz\n", &opts(), 3).unwrap();
        assert_eq!(s.schema.field(0).unwrap().data_type, DataType::Int64);
        assert_eq!(s.sampled_rows, 3);
    }

    #[test]
    fn infer_file_reads_prefix_only() {
        let dir = std::env::temp_dir().join("nodb_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.csv");
        let mut data = String::new();
        for i in 0..100_000 {
            data.push_str(&format!("{i},{}\n", i * 2));
        }
        std::fs::write(&path, &data).unwrap();
        let c = WorkCounters::new();
        let s = infer_file(&path, &opts(), 10, &c).unwrap();
        assert_eq!(s.schema.len(), 2);
        assert!(
            c.snapshot().bytes_read < data.len() as u64,
            "inference should not read the whole file"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quoted_headers() {
        let mut o = opts();
        o.quote = Some(b'"');
        let s = infer_from_bytes(b"\"user id\",\"n\"\n1,2\n", &o, 100).unwrap();
        assert!(s.has_header);
        assert_eq!(s.schema.field(0).unwrap().name, "user_id");
    }
}
