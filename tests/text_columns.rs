//! Text columns against a naive reference: every answer the engine gives
//! over text — comparisons, grouping, MIN/MAX, a join, ORDER BY, a CTAS
//! and a paged projection — equals the same question asked of plain
//! `Vec<Option<String>>` rows one at a time, under every thread count,
//! morsel size and result-cache setting, cold and warm.
//!
//! The tables are generated CSVs whose text columns hold 1, 16 and about
//! as many distinct values as rows, with NULLs, empty strings, quoted
//! fields holding commas, newlines and `""`, and non-ASCII text. Small
//! morsels cut the cold load into many chunks, each interning into its own
//! dictionary before the parts merge.

mod common;

use std::cmp::Ordering;
use std::sync::Arc;

use common::test_dir;
use nodb::core::{Engine, EngineConfig};
use nodb::types::Value;

/// The 16 values of the mid-cardinality column.
const WORDS: [&str; 16] = [
    "",
    "a",
    "b",
    "ab",
    "b,c",
    "line\nbreak",
    "say \"hi\"",
    "é",
    "日本",
    "zz",
    "Ab",
    "a b",
    " lead",
    "trail ",
    "ü,\"x\"\n",
    "m",
];

type Cell = Option<String>;

/// One row of `t`: `a1` id, `a2` small int key, then text of 1, 16 and
/// about `n` distinct values.
struct Row {
    id: i64,
    key: i64,
    one: Cell,
    mid: Cell,
    all: Cell,
}

/// One row of `u`, the join partner: `a1` id, `a2` text over `WORDS` plus
/// words `t` lacks, `a3` text over some of `t`'s near-distinct values.
struct URow {
    id: i64,
    word: Cell,
    tag: Cell,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn generate(seed: u64, n: usize) -> (Vec<Row>, Vec<URow>) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut t = Vec::with_capacity(n);
    for i in 0..n {
        let r = rng.next();
        let null = |m: u64, k: u64| (r >> k).is_multiple_of(m);
        // About all distinct: every tenth row repeats its predecessor's
        // value, every seventh carries non-ASCII.
        let base = if i % 10 == 9 { i - 1 } else { i };
        let all = format!(
            "r{:03}{}",
            base * 7 % 1000,
            if base % 7 == 3 { "é" } else { "" }
        );
        t.push(Row {
            id: i as i64,
            key: (r % 5) as i64,
            one: (!null(5, 8)).then(|| "só".to_owned()),
            mid: (!null(9, 16)).then(|| WORDS[(r >> 24) as usize % WORDS.len()].to_owned()),
            all: (!null(13, 32)).then_some(all),
        });
    }
    let extra = ["only in u", "ä", "b,c "];
    let mut u = Vec::new();
    for i in 0..n / 3 {
        let r = rng.next();
        let word = match r % 20 {
            0 | 1 => None,
            2..=4 => Some(extra[(r >> 8) as usize % extra.len()].to_owned()),
            _ => Some(WORDS[(r >> 8) as usize % WORDS.len()].to_owned()),
        };
        let tag = match r >> 16 & 3 {
            0 => None,
            1 => Some(format!("q{i}")),
            _ => t[(r >> 20) as usize % n].all.clone(),
        };
        u.push(URow {
            id: i as i64,
            word,
            tag,
        });
    }
    (t, u)
}

/// A CSV field: NULL is an empty unquoted field; text is quoted when it
/// must be (empty, or holding a comma, newline or quote) and now and then
/// when it need not be.
fn field(cell: &Cell, rng: &mut Rng) -> String {
    match cell {
        None => String::new(),
        Some(s) if s.is_empty() || s.contains([',', '\n', '"']) || rng.next().is_multiple_of(3) => {
            format!("\"{}\"", s.replace('"', "\"\""))
        }
        Some(s) => s.clone(),
    }
}

fn write_tables(dir: &std::path::Path, t: &[Row], u: &[URow]) {
    let mut rng = Rng(7);
    let mut csv = String::new();
    for r in t {
        csv.push_str(&format!("{},{}", r.id, r.key));
        for c in [&r.one, &r.mid, &r.all] {
            csv.push(',');
            csv.push_str(&field(c, &mut rng));
        }
        csv.push('\n');
    }
    std::fs::write(dir.join("t.csv"), csv).unwrap();
    let mut csv = String::new();
    for r in u {
        let (word, tag) = (field(&r.word, &mut rng), field(&r.tag, &mut rng));
        csv.push_str(&format!("{},{word},{tag}\n", r.id));
    }
    std::fs::write(dir.join("u.csv"), csv).unwrap();
}

fn text(c: &Cell) -> Value {
    c.as_ref().map_or(Value::Null, |s| Value::Str(s.clone()))
}

/// SQL's `col op lit` on text: NULL never passes.
fn cmp(c: &Cell, op: &str, lit: &str) -> bool {
    let Some(s) = c else { return false };
    let o = s.as_str().cmp(lit);
    match op {
        "=" => o == Ordering::Equal,
        "<>" => o != Ordering::Equal,
        "<" => o == Ordering::Less,
        "<=" => o != Ordering::Greater,
        ">" => o == Ordering::Greater,
        ">=" => o != Ordering::Less,
        _ => unreachable!("{op}"),
    }
}

/// `select key, count(*), min(a1) ... group by key`, groups in the order
/// their first row appears.
fn grouped<K: PartialEq + Clone>(
    rows: impl Iterator<Item = (K, i64)>,
    out: impl Fn(&K, i64, i64) -> Vec<Value>,
) -> Vec<Vec<Value>> {
    let mut groups: Vec<(K, i64, i64)> = Vec::new();
    for (k, id) in rows {
        match groups.iter_mut().find(|g| g.0 == k) {
            Some(g) => {
                g.1 += 1;
                g.2 = g.2.min(id);
            }
            None => groups.push((k, 1, id)),
        }
    }
    groups.iter().map(|(k, n, m)| out(k, *n, *m)).collect()
}

/// MIN or MAX of text cells, NULL when there is none.
fn extreme<'a>(cells: impl Iterator<Item = &'a Cell>, max: bool) -> Value {
    let best = cells.flatten().fold(None::<&String>, |b, s| match b {
        Some(b) if (s > b) != max || s == b => Some(b),
        _ => Some(s),
    });
    best.map_or(Value::Null, |s| Value::Str(s.clone()))
}

/// The questions, each with the reference answer. `sorted` marks answers
/// whose row order SQL leaves open (a join's groups); both sides are
/// compared sorted.
struct Question {
    sql: String,
    want: Vec<Vec<Value>>,
    sorted: bool,
}

fn ids(rows: impl Iterator<Item = i64>) -> Vec<Vec<Value>> {
    rows.map(|id| vec![Value::Int(id)]).collect()
}

fn questions(t: &[Row], u: &[URow]) -> Vec<Question> {
    let mut qs = Vec::new();
    let mut ask = |sql: String, want: Vec<Vec<Value>>| {
        qs.push(Question {
            sql,
            want,
            sorted: false,
        })
    };
    // Equality, including the empty string, non-ASCII, a quoted comma and
    // text no row holds.
    for w in ["", "b,c", "é", "日本", "missing", "a"] {
        ask(
            format!("select a1 from t where a4 = '{w}' order by a1"),
            ids(t.iter().filter(|r| cmp(&r.mid, "=", w)).map(|r| r.id)),
        );
    }
    ask(
        "select a1 from t where a3 = 'só' and a2 = 1 order by a1".into(),
        ids(t
            .iter()
            .filter(|r| cmp(&r.one, "=", "só") && r.key == 1)
            .map(|r| r.id)),
    );
    // Inequality and open ranges; NULLs never pass.
    ask(
        "select a1 from t where a4 <> 'a' and a2 < 4 order by a1".into(),
        ids(t
            .iter()
            .filter(|r| cmp(&r.mid, "<>", "a") && r.key < 4)
            .map(|r| r.id)),
    );
    ask(
        "select a1, a5 from t where a5 < 'r2' order by a1".into(),
        t.iter()
            .filter(|r| cmp(&r.all, "<", "r2"))
            .map(|r| vec![Value::Int(r.id), text(&r.all)])
            .collect(),
    );
    ask(
        "select a1 from t where a4 >= 'b' order by a1".into(),
        ids(t.iter().filter(|r| cmp(&r.mid, ">=", "b")).map(|r| r.id)),
    );
    // Range conjunctions on one and on two text columns, a hole, and a
    // contradiction.
    ask(
        "select a1 from t where a4 >= 'a' and a4 < 'b,c' and a4 <> 'ab' and a5 > 'r1' order by a1"
            .into(),
        ids(t
            .iter()
            .filter(|r| {
                cmp(&r.mid, ">=", "a")
                    && cmp(&r.mid, "<", "b,c")
                    && cmp(&r.mid, "<>", "ab")
                    && cmp(&r.all, ">", "r1")
            })
            .map(|r| r.id)),
    );
    ask(
        "select a1 from t where a4 > 'z' and a4 < 'a' order by a1".into(),
        Vec::new(),
    );
    // GROUP BY text alone (every cardinality, NULL a group of its own) and
    // with an int key.
    let count_min = |k: &Value, n: i64, m: i64| vec![k.clone(), Value::Int(n), Value::Int(m)];
    for (col, pick) in [
        ("a3", (|r: &Row| text(&r.one)) as fn(&Row) -> Value),
        ("a4", |r| text(&r.mid)),
        ("a5", |r| text(&r.all)),
    ] {
        ask(
            format!("select {col}, count(*), min(a1) from t group by {col}"),
            grouped(t.iter().map(|r| (pick(r), r.id)), count_min),
        );
    }
    ask(
        "select a4, count(*), min(a1) from t where a2 < 3 group by a4".into(),
        grouped(
            t.iter().filter(|r| r.key < 3).map(|r| (text(&r.mid), r.id)),
            count_min,
        ),
    );
    ask(
        "select a4, a2, count(*), min(a1) from t group by a4, a2".into(),
        grouped(
            t.iter().map(|r| ((text(&r.mid), r.key), r.id)),
            |(k, key), n, m| vec![k.clone(), Value::Int(*key), Value::Int(n), Value::Int(m)],
        ),
    );
    // MIN/MAX of text, plain, filtered to nothing, and grouped.
    let minmax = |rows: &[&Row]| {
        vec![
            extreme(rows.iter().map(|r| &r.mid), false),
            extreme(rows.iter().map(|r| &r.mid), true),
            extreme(rows.iter().map(|r| &r.all), false),
            extreme(rows.iter().map(|r| &r.all), true),
            extreme(rows.iter().map(|r| &r.one), true),
            Value::Int(rows.iter().filter(|r| r.mid.is_some()).count() as i64),
        ]
    };
    let all: Vec<&Row> = t.iter().collect();
    let sql = "select min(a4), max(a4), min(a5), max(a5), max(a3), count(a4) from t";
    ask(sql.into(), vec![minmax(&all)]);
    let two: Vec<&Row> = t.iter().filter(|r| r.key == 2).collect();
    ask(format!("{sql} where a2 = 2"), vec![minmax(&two)]);
    ask(format!("{sql} where a1 < 0"), vec![minmax(&[])]);
    let mut keys: Vec<i64> = Vec::new();
    for r in t {
        if !keys.contains(&r.key) {
            keys.push(r.key);
        }
    }
    ask(
        "select a2, min(a4), max(a5) from t group by a2".into(),
        keys.iter()
            .map(|&k| {
                let g: Vec<&Row> = t.iter().filter(|r| r.key == k).collect();
                vec![
                    Value::Int(k),
                    extreme(g.iter().map(|r| &r.mid), false),
                    extreme(g.iter().map(|r| &r.all), true),
                ]
            })
            .collect(),
    );
    // ORDER BY text: NULLs first ascending, last descending; ties by a1.
    let mut by_mid: Vec<&Row> = t.iter().collect();
    by_mid.sort_by(|a, b| a.mid.cmp(&b.mid).then(a.id.cmp(&b.id)));
    ask(
        "select a4, a1 from t order by a4, a1".into(),
        by_mid
            .iter()
            .map(|r| vec![text(&r.mid), Value::Int(r.id)])
            .collect(),
    );
    let mut by_all: Vec<&Row> = t.iter().filter(|r| r.key < 2).collect();
    by_all.sort_by(|a, b| b.all.cmp(&a.all).then(a.id.cmp(&b.id)));
    ask(
        "select a5, a1 from t where a2 < 2 order by a5 desc, a1".into(),
        by_all
            .iter()
            .map(|r| vec![text(&r.all), Value::Int(r.id)])
            .collect(),
    );
    // Joins on text: NULLs never match; words one side lacks match nothing.
    let pairs = |on: fn(&Row, &URow) -> bool| -> Vec<(&Row, &URow)> {
        t.iter()
            .flat_map(|r| u.iter().filter(move |v| on(r, v)).map(move |v| (r, v)))
            .collect()
    };
    let by_word = pairs(|r, v| r.mid.is_some() && r.mid == v.word);
    let by_tag = pairs(|r, v| r.all.is_some() && r.all == v.tag);
    for (on, matched) in [("t.a4 = u.a2", &by_word), ("t.a5 = u.a3", &by_tag)] {
        let sum = |f: fn(&(&Row, &URow)) -> i64| match matched.is_empty() {
            true => Value::Null,
            false => Value::Int(matched.iter().map(f).sum()),
        };
        ask(
            format!("select count(*), sum(t.a1), sum(u.a1) from t join u on {on}"),
            vec![vec![
                Value::Int(matched.len() as i64),
                sum(|(r, _)| r.id),
                sum(|(_, v)| v.id),
            ]],
        );
    }
    let mut per_word = grouped(
        by_word.iter().map(|(r, v)| (text(&v.word), r.id)),
        |k, n, _| vec![k.clone(), Value::Int(n)],
    );
    per_word.sort_by(|a, b| a[0].total_cmp(&b[0]));
    qs.push(Question {
        sql: "select u.a2, count(*) from t join u on t.a4 = u.a2 group by u.a2".into(),
        want: per_word,
        sorted: true,
    });
    qs
}

/// The engine's answer to `q`, in the order `q` compares it.
fn answer(engine: &Engine, q: &Question) -> Vec<Vec<Value>> {
    let mut rows = engine
        .sql(&q.sql)
        .unwrap_or_else(|e| panic!("{}: {e}", q.sql))
        .rows;
    if q.sorted {
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    }
    rows
}

/// A CTAS of a text projection, read back by a GROUP BY and a filtered,
/// ordered projection; then a paged projection of `t`.
fn check_derived(engine: &Arc<Engine>, t: &[Row], ctx: &str) {
    engine
        .sql("create table p as select a1, a4, a5 from t where a2 < 3")
        .unwrap();
    let kept: Vec<&Row> = t.iter().filter(|r| r.key < 3).collect();
    let want = grouped(kept.iter().map(|r| (text(&r.mid), r.id)), |k, n, _| {
        vec![k.clone(), Value::Int(n)]
    });
    let got = engine
        .sql("select a4, count(*) from p group by a4")
        .unwrap();
    assert_eq!(got.rows, want, "{ctx}: CTAS group");
    let want: Vec<Vec<Value>> = kept
        .iter()
        .filter(|r| cmp(&r.all, ">=", "r5"))
        .map(|r| vec![Value::Int(r.id), text(&r.all)])
        .collect();
    let got = engine
        .sql("select a1, a5 from p where a5 >= 'r5' order by a1")
        .unwrap();
    assert_eq!(got.rows, want, "{ctx}: CTAS filter");

    let mut stream = engine
        .session()
        .with_batch_size(7)
        .query("select a1, a4, a5, a3 from t where a2 <> 1 order by a1")
        .unwrap();
    let mut got = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        assert!(batch.rows.len() <= 7, "{ctx}: page size");
        got.extend(batch.rows);
    }
    let want: Vec<Vec<Value>> = t
        .iter()
        .filter(|r| r.key != 1)
        .map(|r| vec![Value::Int(r.id), text(&r.mid), text(&r.all), text(&r.one)])
        .collect();
    assert_eq!(got, want, "{ctx}: pages");
}

fn engine(
    dir: &std::path::Path,
    threads: usize,
    morsel_rows: Option<usize>,
    cache: usize,
) -> Arc<Engine> {
    let mut cfg = EngineConfig::default().with_threads(threads);
    cfg.csv.quote = Some(b'"');
    if let Some(m) = morsel_rows {
        cfg.morsel_rows = m;
    }
    cfg.result_cache_bytes = cache;
    let tag = format!("{threads}-{morsel_rows:?}-{cache}");
    cfg.store_dir = Some(dir.join(format!("store-{tag}")));
    let engine = Arc::new(Engine::new(cfg));
    engine.register_table("t", dir.join("t.csv")).unwrap();
    engine.register_table("u", dir.join("u.csv")).unwrap();
    engine
}

#[test]
fn text_answers_equal_the_row_at_a_time_reference() {
    for (seed, n) in [(1u64, 420usize), (2, 97)] {
        let dir = test_dir(&format!("text_columns_{seed}"));
        let (t, u) = generate(seed, n);
        write_tables(&dir, &t, &u);
        let qs = questions(&t, &u);
        // Bytes of the loaded table: one value over the whole grid.
        let mut loaded_bytes = None;
        for threads in [1, 2, 5] {
            for morsel_rows in [Some(1), Some(3), None] {
                for cache in [0, 4 << 20] {
                    let ctx = format!(
                        "seed {seed}, {threads} threads, morsel {morsel_rows:?}, cache {cache}"
                    );
                    // Cold: each question is the first touch of a fresh
                    // engine.
                    for q in &qs {
                        let e = engine(&dir, threads, morsel_rows, cache);
                        assert_eq!(answer(&e, q), q.want, "{ctx}, cold: {}", q.sql);
                    }
                    // Warm: one engine, every question twice.
                    let e = engine(&dir, threads, morsel_rows, cache);
                    e.sql("select count(a3), count(a4), count(a5) from t")
                        .unwrap();
                    let bytes = e.table_info("t").unwrap().store_bytes;
                    assert_eq!(
                        *loaded_bytes.get_or_insert(bytes),
                        bytes,
                        "{ctx}: store bytes"
                    );
                    for pass in ["warm", "warm again"] {
                        for q in &qs {
                            assert_eq!(answer(&e, q), q.want, "{ctx}, {pass}: {}", q.sql);
                        }
                    }
                    check_derived(&e, &t, &ctx);
                }
            }
        }
    }
}

/// The loader's text columns, at every thread count and chunk size, equal
/// a row-at-a-time build cell for cell and in bytes.
#[test]
fn loaded_text_columns_take_the_same_bytes_whatever_the_threads() {
    use nodb::rawcsv::{infer_file, load_columns, CsvOptions, LoadSpec};
    let dir = test_dir("text_columns_bytes");
    let (t, u) = generate(3, 2000);
    write_tables(&dir, &t, &u);
    let path = dir.join("t.csv");
    let mut want = None;
    for threads in [1, 2, 5] {
        for chunk_bytes in [1, 64, 1000, 1 << 20] {
            let opts = CsvOptions {
                threads,
                quote: Some(b'"'),
                ..CsvOptions::default()
            };
            let counters = nodb::types::WorkCounters::new();
            let inferred = infer_file(&path, &opts, 1000, &counters).unwrap();
            let loaded = load_columns(
                &LoadSpec {
                    path: &path,
                    data_start: inferred.data_start,
                    schema: &inferred.schema,
                    needed: &[2, 3, 4],
                    chunk_bytes,
                },
                &opts,
                None,
                &counters,
            )
            .unwrap();
            let cells: Vec<Vec<Value>> = loaded
                .columns
                .iter()
                .map(|c| c.iter_values().collect())
                .collect();
            let reference: Vec<Vec<Value>> = vec![
                t.iter().map(|r| text(&r.one)).collect(),
                t.iter().map(|r| text(&r.mid)).collect(),
                t.iter().map(|r| text(&r.all)).collect(),
            ];
            assert_eq!(cells, reference, "{threads} threads, chunk {chunk_bytes}");
            let bytes: Vec<usize> = loaded.columns.iter().map(|c| c.approx_bytes()).collect();
            assert_eq!(
                want.get_or_insert_with(|| bytes.clone()),
                &bytes,
                "{threads} threads, chunk {chunk_bytes}"
            );
        }
    }
}
