//! `nodb-client` — run SQL against a running `nodb-server`, print CSV.
//!
//! ```text
//! nodb-client ADDR SQL [SQL ...]
//! nodb-client ADDR --stats
//! nodb-client ADDR --cancel SESSION
//! ```
//!
//! Each statement runs in order on one connection; results are printed
//! as CSV (header row of output labels, then data rows), statements
//! separated by a blank line. Rows are written page by page as they
//! arrive, so a large result streams through in bounded memory. On
//! connect the session id is announced on stderr (`# session N`) so
//! scripts can aim `--cancel` at it. `--stats`
//! prints the server's work-counter snapshot followed by a `MEM` row
//! (peak reservation, shed queries, shed connections, contained
//! panics), a `CACHE` row
//! breaking out the result-cache counters, and one `LATENCY` row per
//! histogram series the server published (`query`, `execute`, `fetch`,
//! `queue_wait`) with p50/p95/p99 derived client-side from the wire's
//! log2 buckets. `--cancel SESSION` aborts the
//! query currently running on another connection's session — its query
//! fails with a typed `cancelled` error within one morsel and its
//! connection stays usable. Exit status is non-zero on any error —
//! including a typed BUSY refusal when the server's admission queue is
//! full.

use std::io::{BufWriter, Write};

use nodb::{Client, Value};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, rest) = match args.split_first() {
        Some((addr, rest)) if !rest.is_empty() => (addr.clone(), rest.to_vec()),
        _ => {
            eprintln!(
                "usage: nodb-client ADDR SQL [SQL ...] | nodb-client ADDR --stats \
                 | nodb-client ADDR --cancel SESSION"
            );
            std::process::exit(2);
        }
    };

    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    // Scripts cancelling a long query grab the victim's id from here.
    eprintln!("# session {}", client.session_id());

    if rest.len() == 2 && rest[0] == "--cancel" {
        let session: u64 = rest[1].parse().unwrap_or_else(|_| {
            eprintln!("invalid session id: {:?}", rest[1]);
            std::process::exit(2);
        });
        if let Err(e) = client.cancel_query(session) {
            eprintln!("cancel failed: {e}");
            std::process::exit(1);
        }
        println!("cancelled session {session}");
        let _ = client.quit();
        return;
    }

    if rest.len() == 1 && rest[0] == "--stats" {
        match client.stats_full() {
            Ok((s, extras)) => {
                println!("{s}");
                println!(
                    "MEM reserved_peak={}B queries_shed={} conns_shed={} panics_contained={}",
                    s.mem_reserved_peak, s.queries_shed, s.conns_shed, s.panics_contained,
                );
                println!(
                    "CACHE hits={} subsumed_hits={} misses={} evictions={}",
                    s.result_cache_hits,
                    s.result_cache_subsumed_hits,
                    s.result_cache_misses,
                    s.result_cache_evictions,
                );
                // Percentiles are derived here, from the sparse log2
                // buckets the server shipped — it never computes them.
                for (series, buckets) in nodb::latency_from_extras(&extras) {
                    let count: u64 = buckets.iter().sum();
                    let pct = |p: f64| {
                        nodb::types::profile::percentile_from_buckets(&buckets, p)
                            .map(|us| format!("{us}us"))
                            .unwrap_or_else(|| "-".to_owned())
                    };
                    println!(
                        "LATENCY {series} count={count} p50={} p95={} p99={}",
                        pct(50.0),
                        pct(95.0),
                        pct(99.0),
                    );
                }
            }
            Err(e) => {
                eprintln!("stats failed: {e}");
                std::process::exit(1);
            }
        }
        let _ = client.quit();
        return;
    }

    let mut out = BufWriter::new(std::io::stdout().lock());
    if let Err(e) = write_statements(&mut client, &rest, &mut out) {
        // Whatever was written before the failure still goes out.
        let _ = out.flush();
        eprintln!("query failed: {e}");
        std::process::exit(1);
    }
    let _ = client.quit();
}

/// Run each statement in order, writing each result as CSV with a
/// blank line between results.
fn write_statements(
    client: &mut Client,
    sqls: &[String],
    out: &mut impl Write,
) -> nodb::Result<()> {
    for (i, sql) in sqls.iter().enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        write_csv(client, sql, out)?;
    }
    out.flush()?;
    Ok(())
}

/// Run `sql` and write its result to `out` as CSV, page by page as the
/// pages arrive: the client holds one page (plus the one it reads
/// ahead), never the whole result.
fn write_csv(client: &mut Client, sql: &str, out: &mut impl Write) -> nodb::Result<()> {
    let mut cursor = client.query(sql)?;
    let labels: Vec<String> = cursor.labels().iter().map(|l| csv_field(l)).collect();
    writeln!(out, "{}", labels.join(","))?;
    while let Some(batch) = client.fetch(&mut cursor)? {
        for row in &batch.rows {
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    out.write_all(b",")?;
                }
                match v {
                    Value::Null => {}
                    Value::Str(s) => out.write_all(csv_field(s).as_bytes())?,
                    other => write!(out, "{other}")?,
                }
            }
            out.write_all(b"\n")?;
        }
    }
    Ok(())
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}
