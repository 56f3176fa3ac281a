//! Seeded data generator. The server only ever sees the two CSV files;
//! the in-memory columns stay with the benchmark for the naive oracle.
//!
//! `wide.csv`: `a1..a6` unique-int permutations of `0..rows`, `g_lo`
//! (100 distinct ints), `g_hi` (`rows / 10` distinct ints, the join key),
//! `f1` (float, 3 decimals) and `s1` (16 distinct short strings).
//! `dim.csv`: `k` (permutation of `0..rows / 10`), `d1` int, `d2` string.
//!
//! `f1` values are multiples of 1/8 below 1000, so every float sum over
//! the table is exact in an `f64` whatever the summation order: the
//! oracle can demand bit-equal aggregates from a parallel engine.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bump when the generated bytes change for a given `(seed, rows)`.
const GENERATOR_VERSION: u32 = 1;

pub const S1_VALUES: [&str; 16] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima", "mike", "november", "oscar", "papa",
];

pub const G_LO_DISTINCT: i64 = 100;

/// Column of `wide` or `dim`, as the oracle and the SQL renderer name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Col {
    A(u8),
    GLo,
    F1,
    S1,
    DimD1,
}

impl Col {
    pub fn name(self) -> &'static str {
        match self {
            Col::A(1) => "a1",
            Col::A(2) => "a2",
            Col::A(3) => "a3",
            Col::A(4) => "a4",
            Col::A(5) => "a5",
            Col::A(6) => "a6",
            Col::A(n) => panic!("wide has a1..a6, not a{n}"),
            Col::GLo => "g_lo",
            Col::F1 => "f1",
            Col::S1 => "s1",
            Col::DimD1 => "d1",
        }
    }
}

/// The generated tables, column-wise.
pub struct Columns {
    pub rows: usize,
    pub dim_rows: usize,
    pub a: [Vec<i64>; 6],
    pub g_lo: Vec<i64>,
    pub g_hi: Vec<i64>,
    /// `f1` in eighths: the value is `f1_eighths[i] / 8`.
    pub f1_eighths: Vec<i64>,
    /// Index into [`S1_VALUES`].
    pub s1: Vec<u8>,
    pub dim_k: Vec<i64>,
    pub dim_d1: Vec<i64>,
    pub dim_d2: Vec<u8>,
}

impl Columns {
    pub fn generate(seed: u64, rows: usize) -> Columns {
        assert!(rows >= 1000, "the workloads need at least 1000 rows");
        let dim_rows = rows / 10;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e6f_6462_6265_6e63);
        let a = std::array::from_fn(|_| permutation(&mut rng, rows));
        let g_lo = (0..rows).map(|_| rng.gen_range(0..G_LO_DISTINCT)).collect();
        let g_hi = (0..rows)
            .map(|_| rng.gen_range(0..dim_rows as i64))
            .collect();
        let f1_eighths = (0..rows).map(|_| rng.gen_range(0..8000i64)).collect();
        let s1 = (0..rows).map(|_| rng.gen_range(0..16u8)).collect();
        let dim_k = permutation(&mut rng, dim_rows);
        let dim_d1 = (0..dim_rows).map(|_| rng.gen_range(0..1000i64)).collect();
        let dim_d2 = (0..dim_rows).map(|_| rng.gen_range(0..16u8)).collect();
        Columns {
            rows,
            dim_rows,
            a,
            g_lo,
            g_hi,
            f1_eighths,
            s1,
            dim_k,
            dim_d1,
            dim_d2,
        }
    }

    pub fn int_col(&self, c: Col) -> &[i64] {
        match c {
            Col::A(n) => &self.a[usize::from(n) - 1],
            Col::GLo => &self.g_lo,
            other => panic!("{other:?} is not an int column of wide"),
        }
    }

    fn wide_csv(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.rows * 64);
        out.extend_from_slice(b"a1,a2,a3,a4,a5,a6,g_lo,g_hi,f1,s1\n");
        for i in 0..self.rows {
            for col in &self.a {
                push_int(&mut out, col[i]);
                out.push(b',');
            }
            push_int(&mut out, self.g_lo[i]);
            out.push(b',');
            push_int(&mut out, self.g_hi[i]);
            out.push(b',');
            push_eighths(&mut out, self.f1_eighths[i]);
            out.push(b',');
            out.extend_from_slice(S1_VALUES[usize::from(self.s1[i])].as_bytes());
            out.push(b'\n');
        }
        out
    }

    fn dim_csv(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.dim_rows * 24);
        out.extend_from_slice(b"k,d1,d2\n");
        for i in 0..self.dim_rows {
            push_int(&mut out, self.dim_k[i]);
            out.push(b',');
            push_int(&mut out, self.dim_d1[i]);
            out.push(b',');
            out.extend_from_slice(S1_VALUES[usize::from(self.dim_d2[i])].as_bytes());
            out.push(b'\n');
        }
        out
    }
}

fn permutation(rng: &mut StdRng, n: usize) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

fn push_int(out: &mut Vec<u8>, v: i64) {
    debug_assert!(v >= 0);
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut v = v as u64;
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn push_eighths(out: &mut Vec<u8>, eighths: i64) {
    push_int(out, eighths / 8);
    out.push(b'.');
    let frac = (eighths % 8) * 125;
    out.extend_from_slice(&[
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
}

/// FNV-1a over the file bytes, 8 at a time: a content fingerprint for the
/// manifest, not a cryptographic hash.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The data files of one seed on disk.
pub struct DataDir {
    /// Directory handed to `nodb-server --data`: `wide.csv` and `dim.csv`.
    pub dir: PathBuf,
    pub wide: PathBuf,
    pub dim: PathBuf,
    pub wide_bytes: u64,
    /// True when a matching manifest let this run skip the write.
    pub reused: bool,
}

fn manifest_text(seed: u64, cols: &Columns, wide: &[u8], dim: &[u8]) -> String {
    let mut m = String::new();
    let _ = writeln!(m, "generator_version={GENERATOR_VERSION}");
    let _ = writeln!(m, "seed={seed}");
    let _ = writeln!(m, "rows={}", cols.rows);
    let _ = writeln!(m, "dim_rows={}", cols.dim_rows);
    let _ = writeln!(m, "wide_bytes={}", wide.len());
    let _ = writeln!(m, "wide_hash={:016x}", content_hash(wide));
    let _ = writeln!(m, "dim_bytes={}", dim.len());
    let _ = writeln!(m, "dim_hash={:016x}", content_hash(dim));
    m
}

/// Write `wide.csv`, `dim.csv` and `manifest.txt` under `root/<seed>/`,
/// or reuse them when the manifest there describes exactly these bytes.
pub fn ensure_files(root: &Path, seed: u64, cols: &Columns) -> std::io::Result<DataDir> {
    let dir = root.join(seed.to_string());
    let wide = dir.join("wide.csv");
    let dim = dir.join("dim.csv");
    let manifest = dir.join("manifest.txt");

    // A stale manifest from another row count or generator version never
    // matches, because the expected text is rebuilt from this run's bytes.
    let wide_csv = cols.wide_csv();
    let dim_csv = cols.dim_csv();
    let expected = manifest_text(seed, cols, &wide_csv, &dim_csv);
    let on_disk_matches = std::fs::read_to_string(&manifest).is_ok_and(|m| m == expected)
        && std::fs::read(&wide).is_ok_and(|b| b == wide_csv)
        && std::fs::read(&dim).is_ok_and(|b| b == dim_csv);
    if !on_disk_matches {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(&wide, &wide_csv)?;
        std::fs::write(&dim, &dim_csv)?;
        std::fs::write(&manifest, expected)?;
    }
    Ok(DataDir {
        dir,
        wide,
        dim,
        wide_bytes: wide_csv.len() as u64,
        reused: on_disk_matches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = Columns::generate(7, 2000);
        let b = Columns::generate(7, 2000);
        let c = Columns::generate(8, 2000);
        assert_eq!(a.wide_csv(), b.wide_csv());
        assert_eq!(a.dim_csv(), b.dim_csv());
        assert_ne!(a.wide_csv(), c.wide_csv());
    }

    #[test]
    fn columns_have_the_documented_shape() {
        let c = Columns::generate(1, 5000);
        for col in &c.a {
            let mut sorted = col.clone();
            sorted.sort_unstable();
            assert!(sorted.iter().copied().eq(0..5000));
        }
        assert!(c.g_lo.iter().all(|&v| (0..G_LO_DISTINCT).contains(&v)));
        assert!(c.g_hi.iter().all(|&v| (0..500).contains(&v)));
        let mut k = c.dim_k.clone();
        k.sort_unstable();
        assert!(k.iter().copied().eq(0..500));
    }

    #[test]
    fn floats_print_with_three_exact_decimals() {
        let mut out = Vec::new();
        push_eighths(&mut out, 8 * 417 + 3);
        assert_eq!(out, b"417.375");
        out.clear();
        push_eighths(&mut out, 0);
        assert_eq!(out, b"0.000");
    }
}
