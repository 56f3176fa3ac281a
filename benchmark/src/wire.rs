//! The end-to-end side: build and spawn the real `nodb-server`, drive it
//! over loopback TCP with `nodb::Client` in a closed loop, and read the
//! server's CPU time and peak memory from `/proc`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant, SystemTime};

use nodb::{Client, CountersSnapshot, RemoteStatement};

use crate::oracle::{Answer, AnswerBuilder};
use crate::workload::{Kind, Op, Workload};

/// Linux reports process times in units of 1/USER_HZ seconds, and
/// USER_HZ is 100 on every supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Build `nodb-server` from the repo at `root` (a no-op when fresh) and
/// return the path of the binary. Uses the same target directory rules as
/// the cargo that built this benchmark: `CARGO_TARGET_DIR` if set.
pub fn build_server(root: &Path) -> Res<PathBuf> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--bin", "nodb-server"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("building nodb-server failed: {status}").into());
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("nodb-server");
    if !bin.is_file() {
        return Err(format!("no server binary at {}", bin.display()).into());
    }
    Ok(bin)
}

/// `utime + stime` of a process in milliseconds, exited threads included.
pub fn process_cpu_ms(pid: u32) -> Res<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name is parenthesised and may hold spaces; fields are
    // counted after the closing parenthesis (state is field 3).
    let rest = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11).ok_or("short /proc stat")?.parse::<f64>()?
        + fields.get(12).ok_or("short /proc stat")?.parse::<f64>()?;
    Ok(ticks * 1000.0 / TICKS_PER_SECOND)
}

/// A running `nodb-server` child. Stops when stdin closes; `Drop` kills
/// it if `stop` was never reached. The child inherits the benchmark's
/// environment unchanged: the server is measured as it is deployed.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    pub flags: Vec<String>,
}

impl ServerProc {
    pub fn spawn(
        bin: &Path,
        data_dir: &Path,
        nproc: usize,
        result_cache_mb: Option<usize>,
        log: &Path,
    ) -> Res<ServerProc> {
        let mut flags = vec![
            "--listen".to_owned(),
            "127.0.0.1:0".to_owned(),
            "--threads".to_owned(),
            nproc.to_string(),
            "--workers".to_owned(),
            nproc.to_string(),
        ];
        if let Some(mb) = result_cache_mb {
            flags.push("--result-cache-mb".to_owned());
            flags.push(mb.to_string());
        }
        let mut child = Command::new(bin)
            .arg("--data")
            .arg(data_dir)
            .args(&flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(log)?)
            .spawn()?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("nodb-server listening on ")
            .and_then(|a| a.parse().ok());
        let mut server = ServerProc {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            flags,
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => {
                let _ = server.child.kill();
                let _ = server.child.wait();
                Err(format!("server did not announce its address, said {line:?}").into())
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `VmHWM`, the peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> Res<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Close stdin, which makes the server drain and exit, and wait for it.
    pub fn stop(mut self) -> Res<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}").into())
                };
            }
            if Instant::now() > deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err("server did not exit within 20 s of stdin closing".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Re-arms `wide.csv`: each call moves its mtime one second further, so
/// the catalog fingerprint changes and all derived state is dropped.
pub struct Rearm {
    path: PathBuf,
    base: SystemTime,
    bumps: AtomicU64,
}

impl Rearm {
    pub fn new(path: &Path) -> Rearm {
        Rearm {
            path: path.to_owned(),
            base: SystemTime::now(),
            bumps: AtomicU64::new(0),
        }
    }

    pub fn bump(&self) -> std::io::Result<()> {
        let n = self.bumps.fetch_add(1, Ordering::Relaxed) + 1;
        std::fs::File::options()
            .write(true)
            .open(&self.path)?
            .set_modified(self.base + Duration::from_secs(n))
    }
}

/// One completed (or failed) op as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub query: usize,
    pub shape: usize,
    pub latency_ns: u64,
    /// `None` when the server answered an error or the connection broke.
    pub answer: Option<Answer>,
}

/// One client connection with its prepared template.
pub struct Conn {
    pub client: Client,
    pub stmt: Option<RemoteStatement>,
}

impl Conn {
    pub fn open(addr: SocketAddr, w: &Workload) -> Res<Conn> {
        let mut client = Client::connect(addr)?;
        let stmt = match &w.prepared_sql {
            Some(sql) => Some(client.prepare(sql)?),
            None => None,
        };
        Ok(Conn { client, stmt })
    }

    /// Send `op` and drain its cursor. The latency runs from the first
    /// request frame to the last response frame decoded; hashing the
    /// answer happens after the clock stops.
    pub fn run(&mut self, w: &Workload, op: Op) -> Sample {
        let q = &w.queries[op.query];
        let (sql, params) = (q.sql(false), q.params());
        let started = Instant::now();
        let pages = (|| -> nodb::Result<Vec<Vec<Vec<nodb::Value>>>> {
            let mut cursor = match (op.prepared, self.stmt) {
                (true, Some(stmt)) => self.client.execute(stmt, &params)?,
                _ => self.client.query(&sql)?,
            };
            let mut pages = Vec::new();
            while let Some(batch) = self.client.fetch(&mut cursor)? {
                pages.push(batch.rows);
            }
            Ok(pages)
        })();
        let latency_ns = started.elapsed().as_nanos() as u64;
        let answer = pages.ok().map(|pages| {
            let mut b = AnswerBuilder::default();
            // A global aggregate comes back as exactly one row, so an
            // empty drain is a (wrong) zero-row answer, not a panic.
            for page in &pages {
                b.push_values(page);
            }
            b.finish()
        });
        Sample {
            query: op.query,
            shape: op.shape,
            latency_ns,
            answer,
        }
    }
}

/// Connect `clients` connections and run the untimed warm-up on the
/// first: every template once per round until the server's `bytes_read`
/// stops growing (tables resident, plans cached), and for `cache_churn`
/// enough ops to fill the result cache.
pub fn connect_and_warm(
    addr: SocketAddr,
    w: &Workload,
    clients: usize,
    rearm: &Rearm,
) -> Res<Vec<Conn>> {
    let mut conns = Vec::with_capacity(clients);
    for _ in 0..clients {
        conns.push(Conn::open(addr, w)?);
    }
    let first = &mut conns[0];
    let mut read_before = first.client.stats()?.bytes_read;
    for round in 0..6 {
        for &query in &w.warmup_queries() {
            let prepared = w.prepared_sql.is_some() && query == 0;
            let s = first.run(
                w,
                Op {
                    query,
                    shape: 0,
                    prepared,
                    rearm: false,
                },
            );
            if s.answer.is_none() {
                return Err(format!("warm-up query {query} of {} failed", w.spec.name).into());
            }
        }
        let read = first.client.stats()?.bytes_read;
        if round > 0 && read == read_before {
            break;
        }
        read_before = read;
    }
    if w.spec.kind == Kind::CacheChurn {
        let mut stream = w.stream(usize::MAX - 1);
        for _ in 0..150 {
            let op = stream.next_op();
            if first.run(w, op).answer.is_none() {
                return Err("cache warm-up op failed".into());
            }
        }
    }
    // Both cold workloads start their window from a re-armed file.
    if matches!(w.spec.kind, Kind::ColdFirstTouch | Kind::AdaptiveSequence) {
        rearm.bump()?;
    }
    Ok(conns)
}

/// What one timed window produced.
pub struct Window {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    pub server_cpu_ms: f64,
    pub harness_cpu_ms: f64,
    pub stats_before: (CountersSnapshot, Vec<(String, u64)>),
    pub stats_after: (CountersSnapshot, Vec<(String, u64)>),
}

/// Run the closed loop for `seconds`: one thread per connection, each
/// drawing ops from its own seeded stream (`first_stream` and up, so
/// successive windows of a run send different ops). A client stops at the first
/// sequence boundary after the deadline, so every op in flight finishes
/// and only whole adaptive sequences are counted.
pub fn run_window(
    server_pid: u32,
    conns: &mut [Conn],
    w: &Workload,
    rearm: &Rearm,
    seconds: f64,
    first_stream: usize,
) -> Res<Window> {
    let stats_before = conns[0].client.stats_full()?;
    let barrier = Barrier::new(conns.len() + 1);
    let window = Duration::from_secs_f64(seconds);
    let (per_client, started, server_cpu0, harness_cpu0) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut stream = w.stream(first_stream + i);
                    let mut samples = Vec::new();
                    barrier.wait();
                    let started = Instant::now();
                    while started.elapsed() < window || !stream.at_boundary() {
                        let op = stream.next_op();
                        let sample = if op.rearm && rearm.bump().is_err() {
                            Sample {
                                query: op.query,
                                shape: op.shape,
                                latency_ns: 0,
                                answer: None,
                            }
                        } else {
                            conn.run(w, op)
                        };
                        let broken = sample.answer.is_none();
                        samples.push(sample);
                        if broken {
                            // A typed error leaves the connection usable,
                            // but a workload is chosen so that no op
                            // fails: stop and let the run report it.
                            break;
                        }
                    }
                    (samples, Instant::now())
                })
            })
            .collect();
        let server_cpu0 = process_cpu_ms(server_pid);
        let harness_cpu0 = process_cpu_ms(std::process::id());
        barrier.wait();
        let started = Instant::now();
        let per_client: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_client, started, server_cpu0, harness_cpu0)
    });
    let server_cpu_ms = process_cpu_ms(server_pid)? - server_cpu0?;
    let harness_cpu_ms = process_cpu_ms(std::process::id())? - harness_cpu0?;
    let ended = per_client
        .iter()
        .map(|(_, end)| *end)
        .max()
        .expect("at least one client");
    let stats_after = conns[0].client.stats_full()?;
    Ok(Window {
        samples: per_client.into_iter().flat_map(|(s, _)| s).collect(),
        elapsed_s: (ended - started).as_secs_f64(),
        server_cpu_ms,
        harness_cpu_ms,
        stats_before,
        stats_after,
    })
}
