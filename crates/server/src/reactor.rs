//! The readiness reactor: every connection socket multiplexed onto one
//! `poll(2)` loop, with a small fixed worker pool executing decoded
//! requests.
//!
//! The old model dedicated one thread to each admitted connection for
//! its whole life, so the concurrent-client ceiling was the thread
//! count. Here a single reactor thread owns all sockets in non-blocking
//! mode: an idle connection *parks* on the reactor costing zero threads
//! (the `conns_parked` gauge counts them), and only a connection whose
//! [`FrameDecoder`] holds a complete request occupies a worker. The
//! per-connection state machine is
//!
//! ```text
//!            bytes arrive, frame incomplete
//!              ┌────────┐
//!              ▼        │ (frames_partial++)
//!          ┌────────────┴─┐  complete frame   ┌─────────┐
//!   ──────►│    Parked    │ ────────────────► │  Ready  │──┐
//!  install └──────────────┘                   └─────────┘  │ popped by
//!              ▲   ▲                                       │ a worker
//!              │   │ response fits the socket buffer       ▼
//!              │   │  ┌────────────────────────────┬─────────────┐
//!              │   └──┤                            │  Executing  │
//!              │      │   Writing (backpressure)   └─────────────┘
//!              │      └──────────┬─────────────────  response
//!              │    out buffer   │                   enqueued
//!              └─────────────────┘
//!                 drained (or straight back to Ready when more
//!                 frames are already decoded — see fairness below)
//! ```
//!
//! **Fairness.** A worker executes exactly one request per dispatch and
//! then re-queues the connection at the *tail* of the ready queue if
//! more frames are pending, so sessions round-robin into the pool: one
//! client pipelining hundreds of FETCHes advances one page per
//! scheduler round while short queries from other sessions interleave.
//!
//! **Disconnects.** The reactor keeps `POLLIN` interest on executing
//! connections; a client that vanishes mid-query surfaces as EOF/HUP
//! and trips the running query's [`CancelToken`](nodb_types::CancelToken)
//! through the same [`Registry`] that serves `CANCEL_QUERY` — this
//! replaces the retired 50 ms disconnect-watchdog thread.
//!
//! **Backpressure.** Responses append to a per-connection out-buffer
//! flushed opportunistically; what does not fit the socket buffer waits
//! for `POLLOUT` (the `Writing` state) instead of blocking a worker. A
//! peer that floods requests without reading replies is throttled by
//! a cap on decoded-but-unserved bytes: past it the reactor drops read
//! interest until workers catch up.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use nodb_core::Engine;
use nodb_types::{failpoints, Error};
use polling::{PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

use crate::conn::{Conn, ConnCtx, Flow};
use crate::framing::{write_frame, FrameDecoder, FRAME_HEADER_BYTES, MAX_FRAME_BYTES};
use crate::metrics::ServerMetrics;
use crate::protocol::{Request, Response, PROTOCOL_VERSION};
use crate::server::{Registry, ServerConfig};

/// Cap on concurrent rejection helper threads. Under a connect flood the
/// reply nicety is dropped beyond this (streams just close) so overload
/// cannot turn into unbounded thread creation.
const MAX_REJECTORS: usize = 32;

/// Fraction of [`EngineConfig::engine_mem_bytes`](nodb_core::EngineConfig::engine_mem_bytes)
/// at which admission starts shedding new connections. Uncapped pools
/// never report saturation.
const MEM_ADMISSION_FRACTION: f64 = 0.95;

/// Read chunk per `read(2)` call while draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// Per-connection budget of decoded-but-unserved request bytes. Past
/// it the reactor stops reading the socket (kernel backpressure does
/// the rest) until workers drain the backlog.
const READ_BUFFER_BUDGET: usize = 1 << 20;

/// Poll timeout when no connection deadline is nearer: the reactor
/// sleeps, and any state change (worker completion, stop(), a new
/// readiness event) wakes it through the self-pipe.
const IDLE_POLL_MS: u32 = 10_000;

/// Poll-timeout cap while a vanished client's query is still executing:
/// its cancel may have raced query registration, so the sweep re-trips
/// it on this cadence until the worker finishes.
const GONE_RETRY_MS: u32 = 20;

/// Where a connection lives in its lifecycle. `Ready` and `Executing`
/// connections are the only ones that can occupy a worker; everything
/// else costs no thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Idle on the reactor; no complete frame decoded.
    Parked,
    /// A complete frame is decoded and the slot index is in the ready
    /// queue awaiting a worker.
    Ready,
    /// A worker is executing one request; the slot's `Conn` is checked
    /// out. The reactor never closes a slot in this state.
    Executing,
    /// The response out-buffer did not fit the socket buffer; waiting
    /// for `POLLOUT`.
    Writing,
}

/// One admitted connection, owned by the reactor (and briefly by a
/// worker while `Executing`).
struct ConnSlot {
    stream: TcpStream,
    state: SlotState,
    decoder: FrameDecoder,
    /// Encoded response bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// `None` exactly while a worker holds the `Conn` (`Executing`).
    conn: Option<Conn>,
    shook_hands: bool,
    session_id: u64,
    last_activity: Instant,
    /// When this connection first observed the drain; reset only by
    /// requests that make drain progress (FETCH/CANCEL).
    drain_since: Option<Instant>,
    /// EOF or a hard socket error was seen; sticky.
    peer_gone: bool,
    /// Close once the out-buffer flushes (QUIT, fatal protocol error,
    /// nothing owed during drain).
    close_after_flush: bool,
    /// When this slot entered the ready queue; a worker turns the gap
    /// into the queue-wait histogram sample on checkout.
    ready_at: Option<Instant>,
}

impl ConnSlot {
    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// What to do with a slot after its socket event is handled; computed
/// under the slot borrow, applied after it ends.
enum Act {
    None,
    Close,
    Promote,
    Park,
}

enum Flush {
    /// Out-buffer fully flushed.
    Done,
    /// Socket buffer full; wait for `POLLOUT`.
    Pending,
    /// Write error; the connection is dead.
    Broken,
}

/// Flush as much of the out-buffer as the socket accepts.
fn flush_slot(slot: &mut ConnSlot, now: Instant) -> Flush {
    while slot.has_pending_out() {
        match (&slot.stream).write(&slot.out[slot.out_pos..]) {
            Ok(0) => return Flush::Broken,
            Ok(n) => {
                slot.out_pos += n;
                slot.last_activity = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Flush::Broken,
        }
    }
    if slot.has_pending_out() {
        Flush::Pending
    } else {
        slot.out.clear();
        slot.out_pos = 0;
        Flush::Done
    }
}

/// Shared state behind the reactor's one mutex. Workers and the reactor
/// thread coordinate exclusively through this plus the condvar.
struct Inner {
    /// Slot-indexed connections; `None` slots are free.
    conns: Vec<Option<ConnSlot>>,
    /// Free slot indices for reuse.
    free: Vec<usize>,
    /// Slot indices with a decoded frame awaiting a worker, in
    /// round-robin order.
    ready: VecDeque<usize>,
    /// Admitted connections waiting for a live slot (`connections_accepted`
    /// already counted).
    queued: VecDeque<TcpStream>,
    /// Live connections (slots occupied).
    live: usize,
    /// Live connections in `Parked` state (the `conns_parked` gauge).
    parked: usize,
    /// The reactor exited; workers should too.
    done: bool,
}

/// The multiplexing core shared by the reactor thread, the worker pool
/// and [`NodbServer`](crate::NodbServer).
pub(crate) struct Reactor {
    pub(crate) engine: Arc<Engine>,
    pub(crate) cfg: ServerConfig,
    pub(crate) registry: Arc<Registry>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) shutdown: AtomicBool,
    inner: Mutex<Inner>,
    ready_cv: Condvar,
    /// Write side of the self-pipe; one byte wakes the reactor out of
    /// `poll`.
    wake_tx: UnixStream,
    rejectors: AtomicUsize,
}

impl Reactor {
    pub(crate) fn new(
        engine: Arc<Engine>,
        cfg: ServerConfig,
        registry: Arc<Registry>,
        wake_tx: UnixStream,
    ) -> Reactor {
        Reactor {
            engine,
            cfg,
            registry,
            metrics: Arc::new(ServerMetrics::new()),
            shutdown: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                conns: Vec::new(),
                free: Vec::new(),
                ready: VecDeque::new(),
                queued: VecDeque::new(),
                live: 0,
                parked: 0,
                done: false,
            }),
            ready_cv: Condvar::new(),
            wake_tx,
            rejectors: AtomicUsize::new(0),
        }
    }

    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Wake the reactor out of `poll`. Best-effort: a full pipe means a
    /// wakeup is already pending.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    fn publish_parked(&self, inner: &Inner) {
        self.engine.counters().set_conns_parked(inner.parked as u64);
    }

    /// Refuse `stream` with a typed BUSY error frame, off-thread and
    /// bounded (see [`MAX_REJECTORS`]).
    pub(crate) fn busy_reject(self: &Arc<Self>, stream: TcpStream, why: &str) {
        self.engine.counters().add_busy_rejection();
        self.reject(stream, Error::busy(why));
    }

    /// Refuse `stream` because the engine memory pool is near its cap:
    /// typed `ResourceExhausted`, counted under `conns_shed` alone so
    /// each counter stays singly attributable.
    fn shed_reject(self: &Arc<Self>, stream: TcpStream, why: &str) {
        self.engine.counters().add_conn_shed();
        self.reject(stream, Error::resource_exhausted(why));
    }

    fn reject(self: &Arc<Self>, stream: TcpStream, err: Error) {
        if self.rejectors.fetch_add(1, Ordering::SeqCst) < MAX_REJECTORS {
            let r = Arc::clone(self);
            std::thread::spawn(move || {
                reject_on(stream, &err);
                r.rejectors.fetch_sub(1, Ordering::SeqCst);
            });
        } else {
            // Rejector budget spent: the socket closes with no reply,
            // but the refusal was already counted.
            self.rejectors.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Admission: memory-pressure shed, then the live/queued caps, then
    /// a slot.
    fn on_accept(self: &Arc<Self>, inner: &mut Inner, stream: TcpStream) {
        if self.engine.memory_pool().saturated(MEM_ADMISSION_FRACTION) {
            self.shed_reject(stream, "engine memory budget exhausted; retry later");
            return;
        }
        if inner.live >= self.cfg.max_connections {
            if inner.queued.len() >= self.cfg.max_queued {
                self.busy_reject(stream, "admission queue full; retry later");
            } else {
                self.engine.counters().add_connection_accepted();
                inner.queued.push_back(stream);
            }
            return;
        }
        self.engine.counters().add_connection_accepted();
        self.install(inner, stream);
    }

    /// Park a freshly admitted connection on the reactor.
    fn install(&self, inner: &mut Inner, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let session_id = self.registry.next_session_id();
        let ctx = ConnCtx {
            registry: Arc::clone(&self.registry),
            session_id,
            query_deadline: self
                .cfg
                .query_deadline_ms
                .map(std::time::Duration::from_millis),
            metrics: Arc::clone(&self.metrics),
            slow_query_ms: self.cfg.slow_query_ms,
        };
        let conn = Conn::new(
            self.engine.session().with_batch_size(self.cfg.batch_rows),
            ctx,
        );
        let slot = ConnSlot {
            stream,
            state: SlotState::Parked,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            conn: Some(conn),
            shook_hands: false,
            session_id,
            last_activity: Instant::now(),
            drain_since: None,
            peer_gone: false,
            close_after_flush: false,
            ready_at: None,
        };
        let idx = inner.free.pop().unwrap_or_else(|| {
            inner.conns.push(None);
            inner.conns.len() - 1
        });
        inner.conns[idx] = Some(slot);
        inner.live += 1;
        inner.parked += 1;
        self.publish_parked(inner);
    }

    /// Tear a slot down and promote queued accepts into the freed
    /// capacity. Never called on an `Executing` slot — the owning
    /// worker finishes first and closes it itself.
    fn close_slot(self: &Arc<Self>, inner: &mut Inner, idx: usize) {
        let Some(slot) = inner.conns[idx].take() else {
            return;
        };
        if slot.state == SlotState::Parked {
            inner.parked -= 1;
        }
        let _ = slot.stream.shutdown(Shutdown::Both);
        inner.live -= 1;
        inner.free.push(idx);
        while inner.live < self.cfg.max_connections {
            let Some(s) = inner.queued.pop_front() else {
                break;
            };
            if self.shutdown.load(Ordering::SeqCst) {
                self.busy_reject(s, "server shutting down");
                continue;
            }
            self.install(inner, s);
        }
        self.publish_parked(inner);
    }

    /// Move a slot (Parked/Writing/Executing) into the ready queue.
    fn promote(&self, inner: &mut Inner, idx: usize) {
        let was_parked = {
            let slot = inner.conns[idx].as_mut().expect("promote live slot");
            let was_parked = slot.state == SlotState::Parked;
            slot.state = SlotState::Ready;
            slot.ready_at = Some(Instant::now());
            was_parked
        };
        if was_parked {
            inner.parked -= 1;
            self.publish_parked(inner);
        }
        inner.ready.push_back(idx);
        self.ready_cv.notify_one();
    }

    /// Park a slot that was Writing or Executing.
    fn park(&self, inner: &mut Inner, idx: usize) {
        inner.conns[idx].as_mut().expect("park live slot").state = SlotState::Parked;
        inner.parked += 1;
        self.publish_parked(inner);
    }

    /// Drain readable bytes into the slot's decoder. Sets `peer_gone`
    /// on EOF or a hard error; counts torn frames.
    fn drain_readable(&self, slot: &mut ConnSlot) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            if slot.decoder.buffered_bytes() > READ_BUFFER_BUDGET {
                break;
            }
            match (&slot.stream).read(&mut buf) {
                Ok(0) => {
                    slot.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    slot.decoder.feed(&buf[..n]);
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    slot.peer_gone = true;
                    break;
                }
            }
        }
        if slot.decoder.has_partial() {
            self.engine.counters().add_frame_partial();
        }
    }

    /// Close overdue connections: idle reap in normal operation, the
    /// bounded drain during shutdown, and re-trip cancellation for
    /// vanished clients whose query still executes (their cancel may
    /// have raced query registration).
    fn sweep(self: &Arc<Self>, inner: &mut Inner, now: Instant, draining: bool) {
        for idx in 0..inner.conns.len() {
            let close = {
                let Some(slot) = inner.conns[idx].as_mut() else {
                    continue;
                };
                match slot.state {
                    SlotState::Executing => {
                        if slot.peer_gone {
                            self.registry.cancel(slot.session_id);
                        }
                        false
                    }
                    SlotState::Ready => false,
                    SlotState::Parked | SlotState::Writing => {
                        if slot.peer_gone
                            && slot.state == SlotState::Parked
                            && !slot.decoder.has_ready()
                        {
                            true
                        } else if draining {
                            // The drain contract: finish what the client
                            // is owed, then close instead of waiting out
                            // its idle timeout; a client that stops
                            // making progress is dropped after the
                            // idle_timeout budget.
                            let owes = slot.conn.as_ref().is_none_or(|c| c.has_open_cursors())
                                || slot.has_pending_out()
                                || slot.decoder.has_ready();
                            let since = *slot.drain_since.get_or_insert(now);
                            !owes || now.duration_since(since) >= self.cfg.idle_timeout
                        } else {
                            now.duration_since(slot.last_activity) >= self.cfg.idle_timeout
                        }
                    }
                }
            };
            if close {
                self.close_slot(inner, idx);
            }
        }
    }

    /// The reactor event loop. Exits once shutdown is requested and
    /// every connection has drained (or been dropped for stalling);
    /// workers are released through `Inner::done`.
    pub(crate) fn run(self: &Arc<Self>, listener: TcpListener, wake_rx: UnixStream) {
        let mut listener = Some(listener);
        let mut fds: Vec<PollFd> = Vec::new();
        // Parallel to the conn entries of `fds`: (slot index, raw fd).
        // The fd double-checks identity — a worker may close a slot and
        // a queued connection may reuse its index between polls.
        let mut map: Vec<(usize, i32)> = Vec::new();
        loop {
            // Build phase: sweep deadlines, decide exit, rebuild the
            // interest set and the next poll timeout.
            let (listener_pos, conn_base, timeout) = {
                let mut inner = self.lock_inner();
                let draining = self.shutdown.load(Ordering::SeqCst);
                if draining && listener.take().is_some() {
                    // Stop accepting the moment the drain begins;
                    // connections still waiting in the admission
                    // queue are refused, not served.
                    let pending: Vec<TcpStream> = inner.queued.drain(..).collect();
                    for s in pending {
                        self.busy_reject(s, "server shutting down");
                    }
                }
                let now = Instant::now();
                self.sweep(&mut inner, now, draining);
                if draining && inner.live == 0 && inner.queued.is_empty() {
                    inner.done = true;
                    self.engine.counters().set_conns_parked(0);
                    self.ready_cv.notify_all();
                    return;
                }
                fds.clear();
                map.clear();
                fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
                let listener_pos = listener.as_ref().map(|l| {
                    fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                    fds.len() - 1
                });
                let conn_base = fds.len();
                let mut next_deadline: Option<Instant> = None;
                let mut gone_executing = false;
                for (idx, entry) in inner.conns.iter().enumerate() {
                    let Some(slot) = entry else { continue };
                    let mut ev = 0i16;
                    if !slot.peer_gone && slot.decoder.buffered_bytes() <= READ_BUFFER_BUDGET {
                        ev |= POLLIN;
                    }
                    if slot.has_pending_out() {
                        ev |= POLLOUT;
                    }
                    if ev != 0 {
                        fds.push(PollFd::new(slot.stream.as_raw_fd(), ev));
                        map.push((idx, slot.stream.as_raw_fd()));
                    }
                    match slot.state {
                        SlotState::Parked | SlotState::Writing => {
                            let dl = if draining {
                                slot.drain_since.unwrap_or(now) + self.cfg.idle_timeout
                            } else {
                                slot.last_activity + self.cfg.idle_timeout
                            };
                            next_deadline = Some(next_deadline.map_or(dl, |d| d.min(dl)));
                        }
                        // Ready counts too: the EOF may land while the
                        // frame still waits for a worker, and cancel
                        // can only be tripped once it starts executing.
                        SlotState::Executing | SlotState::Ready if slot.peer_gone => {
                            gone_executing = true;
                        }
                        _ => {}
                    }
                }
                let mut timeout = match next_deadline {
                    // +1ms rounds up so the deadline has actually passed
                    // when the sweep next runs.
                    Some(t) => {
                        t.saturating_duration_since(now)
                            .as_millis()
                            .min(u128::from(IDLE_POLL_MS)) as u32
                            + 1
                    }
                    None => IDLE_POLL_MS,
                };
                if gone_executing {
                    timeout = timeout.min(GONE_RETRY_MS);
                }
                (listener_pos, conn_base, timeout)
            };
            // Poll phase: block (unlocked) until readiness, deadline or
            // a wake byte.
            let _ = polling::wait(&mut fds, Some(timeout));
            self.engine.counters().add_reactor_wakeup();
            // Event phase: accepts, reads, writes, promotions.
            {
                let mut inner = self.lock_inner();
                if fds[0].revents != 0 {
                    let mut sink = [0u8; 256];
                    while let Ok(n) = (&wake_rx).read(&mut sink) {
                        if n < sink.len() {
                            break;
                        }
                    }
                }
                if let (Some(pos), Some(l)) = (listener_pos, listener.as_ref()) {
                    if fds[pos].revents != 0 {
                        loop {
                            match l.accept() {
                                Ok((s, _)) => self.on_accept(&mut inner, s),
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                                Err(_) => break,
                            }
                        }
                    }
                }
                let now = Instant::now();
                for (i, &(idx, fd)) in map.iter().enumerate() {
                    let re = fds[conn_base + i].revents;
                    if re == 0 {
                        continue;
                    }
                    let act = {
                        let Some(slot) = inner.conns.get_mut(idx).and_then(|s| s.as_mut()) else {
                            continue;
                        };
                        if slot.stream.as_raw_fd() != fd {
                            continue;
                        }
                        let mut broken = false;
                        if re & POLLOUT != 0 && slot.has_pending_out() {
                            broken = matches!(flush_slot(slot, now), Flush::Broken);
                        }
                        if !broken
                            && re & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
                            && !slot.peer_gone
                        {
                            self.drain_readable(slot);
                        }
                        if broken {
                            Act::Close
                        } else {
                            if slot.peer_gone && slot.state == SlotState::Executing {
                                // HUP-driven cancellation: the client
                                // vanished while its query runs.
                                self.registry.cancel(slot.session_id);
                            }
                            match slot.state {
                                SlotState::Parked => {
                                    if slot.decoder.has_ready() {
                                        Act::Promote
                                    } else if slot.peer_gone {
                                        Act::Close
                                    } else {
                                        Act::None
                                    }
                                }
                                SlotState::Writing if !slot.has_pending_out() => {
                                    if slot.close_after_flush {
                                        Act::Close
                                    } else if slot.decoder.has_ready() {
                                        Act::Promote
                                    } else if slot.peer_gone {
                                        Act::Close
                                    } else {
                                        Act::Park
                                    }
                                }
                                _ => Act::None,
                            }
                        }
                    };
                    match act {
                        Act::None => {}
                        Act::Close => self.close_slot(&mut inner, idx),
                        Act::Promote => self.promote(&mut inner, idx),
                        Act::Park => self.park(&mut inner, idx),
                    }
                }
            }
        }
    }

    /// One worker: block on the ready queue, execute exactly one
    /// request, hand the connection back to the reactor. Exits when the
    /// reactor sets `Inner::done`.
    pub(crate) fn worker_loop(self: &Arc<Self>) {
        let counters = self.engine.counters();
        // The response frame under construction: length prefix, then the
        // payload encoded in place. Swapped with the slot's (flushed,
        // empty) out-buffer on hand-back, so the two allocations
        // circulate instead of one being made per response.
        let mut reply: Vec<u8> = Vec::new();
        loop {
            let (idx, frame, mut conn, shook_hands, session_id, ready_at) = {
                let mut inner = self.lock_inner();
                let idx = loop {
                    if let Some(i) = inner.ready.pop_front() {
                        let valid = inner
                            .conns
                            .get(i)
                            .and_then(|s| s.as_ref())
                            .is_some_and(|s| s.state == SlotState::Ready);
                        if valid {
                            break i;
                        }
                        continue;
                    }
                    if inner.done {
                        return;
                    }
                    inner = self.ready_cv.wait(inner).unwrap_or_else(|p| p.into_inner());
                };
                let slot = inner.conns[idx].as_mut().expect("ready slot is live");
                slot.state = SlotState::Executing;
                (
                    idx,
                    slot.decoder.next_frame(),
                    slot.conn.take(),
                    slot.shook_hands,
                    slot.session_id,
                    slot.ready_at.take(),
                )
            };
            // ---- unlocked execution ----
            let req_started = Instant::now();
            if let Some(t) = ready_at {
                self.metrics.queue_wait.record(req_started - t);
            }
            let draining = self.shutdown.load(Ordering::SeqCst);
            let mut close = false;
            let mut shook = shook_hands;
            let mut advances_drain = false;
            // The same frame-intake failpoint site the blocking reader
            // tripped; delay/fail actions run without the reactor lock.
            let intake = failpoints::trip("wire.read_frame").and(frame);
            // Which latency series this request lands in, if any.
            let mut latency = None;
            reply.clear();
            reply.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
            let resp = match intake {
                // Framing broke (oversized frame, injected fault): the
                // byte stream can't be trusted any more — answer a typed
                // error and close.
                Err(e) => {
                    close = true;
                    Some(Response::from_error(&e))
                }
                // Spurious dispatch; nothing to do.
                Ok(None) => None,
                Ok(Some(payload)) => match Request::decode(&payload) {
                    // Frames are self-delimiting, so a message-level
                    // decode error poisons only that request — unless
                    // the handshake never completed.
                    Err(e) => {
                        counters.add_request_served();
                        if !shook {
                            close = true;
                        }
                        Some(Response::from_error(&e))
                    }
                    Ok(req) if !shook => {
                        let r = match req {
                            Request::Hello { version } if version == PROTOCOL_VERSION => {
                                shook = true;
                                Response::HelloOk {
                                    version: PROTOCOL_VERSION,
                                    batch_rows: self.cfg.batch_rows as u32,
                                    session: session_id,
                                }
                            }
                            Request::Hello { version } => {
                                Response::from_error(&Error::protocol(format!(
                                    "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
                                )))
                            }
                            _ => Response::from_error(&Error::protocol(
                                "expected HELLO before any request",
                            )),
                        };
                        counters.add_request_served();
                        if !shook {
                            close = true;
                        }
                        Some(r)
                    }
                    Ok(req) => {
                        advances_drain =
                            matches!(req, Request::Fetch { .. } | Request::Cancel { .. });
                        latency = match &req {
                            Request::Query { .. } => Some(&self.metrics.query),
                            Request::Execute { .. } => Some(&self.metrics.execute),
                            Request::Fetch { .. } => Some(&self.metrics.fetch),
                            _ => None,
                        };
                        let c = conn.as_mut().expect("conn checked out with slot");
                        // Panic firewall: a panic anywhere in request
                        // handling kills this *request* with a typed
                        // INTERNAL error; the worker and slot survive.
                        // The handler encodes its response into the
                        // reply itself (a FETCH page straight from the
                        // cursor's columns).
                        let handled =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                c.handle(req, draining, &mut reply)
                            }));
                        counters.add_request_served();
                        match handled {
                            Ok(flow) => {
                                if flow == Flow::Close {
                                    close = true;
                                }
                                None
                            }
                            Err(payload) => {
                                counters.add_panic_contained();
                                reply.truncate(FRAME_HEADER_BYTES);
                                Some(Response::from_error(&Error::from_panic(
                                    "request handling",
                                    payload,
                                )))
                            }
                        }
                    }
                },
            };
            if let Some(r) = resp {
                r.encode_into(&mut reply);
            }
            if let (Some(c), Some(hist)) = (conn.as_mut(), latency) {
                let elapsed = req_started.elapsed();
                hist.record(elapsed);
                c.finish_request(elapsed);
            }
            // Every payload starts with its opcode byte, so a reply that
            // grew past its header carries a response.
            let responding = reply.len() > FRAME_HEADER_BYTES;
            let mut payload_len = reply.len() - FRAME_HEADER_BYTES;
            if payload_len > MAX_FRAME_BYTES as usize {
                // The response outgrew the frame limit (a huge
                // batch_rows over wide rows). Send a typed error the
                // client can see, then close: for a BATCH the page's
                // rows were already consumed from the cursor, and
                // letting the client fetch the *next* page would
                // silently hole the result.
                let err = Response::from_error(&Error::exec(format!(
                    "response exceeded the frame limit (outgoing frame of {payload_len} bytes exceeds the {MAX_FRAME_BYTES} byte limit); lower ServerConfig::batch_rows"
                )));
                reply.truncate(FRAME_HEADER_BYTES);
                err.encode_into(&mut reply);
                payload_len = reply.len() - FRAME_HEADER_BYTES;
                close = true;
            }
            reply[..FRAME_HEADER_BYTES].copy_from_slice(&(payload_len as u32).to_le_bytes());
            // The write-side failpoint site, tripped per response like
            // the blocking path; a fault kills the connection, not the
            // server.
            let write_fault = responding && failpoints::trip("wire.write_frame").is_err();
            // ---- hand the connection back ----
            let now = Instant::now();
            let mut inner = self.lock_inner();
            let slot = inner.conns[idx].as_mut().expect("executing slot is pinned");
            slot.conn = conn;
            slot.shook_hands = shook;
            slot.last_activity = now;
            if draining {
                if advances_drain {
                    slot.drain_since = Some(now);
                } else {
                    slot.drain_since.get_or_insert(now);
                }
                let owes = slot.conn.as_ref().is_none_or(|c| c.has_open_cursors());
                if !owes {
                    close = true;
                }
            }
            if write_fault {
                self.close_slot(&mut inner, idx);
                drop(inner);
                self.wake();
                continue;
            }
            if responding {
                if slot.out.is_empty() {
                    std::mem::swap(&mut slot.out, &mut reply);
                } else {
                    slot.out.extend_from_slice(&reply);
                }
            }
            if close {
                slot.close_after_flush = true;
            }
            match flush_slot(slot, now) {
                Flush::Broken => self.close_slot(&mut inner, idx),
                Flush::Pending => {
                    slot.state = SlotState::Writing;
                }
                Flush::Done => {
                    if slot.close_after_flush || (slot.peer_gone && !slot.decoder.has_ready()) {
                        self.close_slot(&mut inner, idx);
                    } else if slot.decoder.has_ready() {
                        // Round-robin fairness: one request served, back
                        // to the tail of the queue behind other ready
                        // sessions.
                        self.promote(&mut inner, idx);
                    } else {
                        self.park(&mut inner, idx);
                    }
                }
            }
            drop(inner);
            // Interest sets changed (POLLOUT wanted, read backpressure
            // lifted, a slot freed): let the reactor rebuild.
            self.wake();
        }
    }
}

/// Best-effort refusal reply on a not-yet-admitted stream. One bounded
/// read consumes the client's HELLO if it has arrived — closing a
/// socket with unread bytes in its receive buffer sends an RST that
/// would discard our reply before the client reads it. A single `read`
/// call (not a frame loop) keeps the worst case at one 100 ms timeout.
fn reject_on(mut stream: TcpStream, err: &Error) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(100)));
    let mut hello = [0u8; 256];
    let _ = stream.read(&mut hello);
    let frame = Response::from_error(err).encode();
    let _ = write_frame(&mut stream, &frame);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);
}
