//! Per-query memory governance: allocation meters, an engine-wide
//! reservation pool, and typed shedding.
//!
//! The paper's §5.1.3 lifetime management promises operation *within a
//! storage budget*, but the adaptive store's byte budget only covers
//! cached columns — query-execution state (join build tables, GROUP BY
//! accumulators, projection buffers, result-cache captures) grows with
//! the data and, on a server shared by every client, a single
//! pathological query could OOM-kill the process. This module bounds
//! that state:
//!
//! * [`MemoryPool`] — the engine-wide reservation pool. Every running
//!   query's charges reserve from it; an optional cap
//!   (`EngineConfig::engine_mem_bytes`) bounds the sum. Before refusing
//!   a reservation the pool runs its registered *reclaimer* (the
//!   engine's degradation ladder: shrink the result cache, then evict
//!   the adaptive store toward floor) and retries once; only then does
//!   it shed with [`Error::ResourceExhausted`].
//! * [`MemoryGuard`] — one query's allocation meter, charged at the
//!   allocation sites that actually grow with data. An optional
//!   per-query cap (`EngineConfig::query_mem_bytes`) sheds the one
//!   offending query, never its neighbours. Dropping the guard (all
//!   clones) releases the query's whole reservation back to the pool.
//! * the ambient meter — the `memory` field of the thread's
//!   [`QueryContext`](crate::QueryContext): the session entry points
//!   install the query's guard there, the morsel driver installs the
//!   caller's context on its workers, and deep allocation sites charge
//!   via [`charge_current`] without threading a handle through operator
//!   signatures. With no guard installed every charge is a no-op —
//!   embedded callers that configure no budgets pay nothing.
//!
//! Charges are *approximate and amortised*: sites charge whole batches
//! (a morsel's columns, a join partition, a captured result) rather
//! than per row, so the meter costs one atomic add per chunk of real
//! allocation. The bench pair `robustness/mem_guard_overhead/{off,on}`
//! keeps that claim honest.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::context;
use crate::error::{Error, Result};

/// Bytes the engine tries to free per reclaim call beyond the immediate
/// need, so a pool under sustained pressure does not re-run the ladder
/// for every subsequent small charge.
const RECLAIM_SLACK_BYTES: usize = 1 << 20;

/// The degradation ladder: given a byte target, free what you can and
/// return how many bytes were actually released.
pub type Reclaimer = dyn Fn(usize) -> usize + Send + Sync;

#[derive(Default)]
struct PoolInner {
    /// Sum of live reservations across every running query.
    reserved: AtomicUsize,
    /// High-water mark of `reserved` (diagnostics; drives the
    /// `mem_reserved_peak` counter).
    peak: AtomicUsize,
    /// Engine-wide cap; `usize::MAX` means uncapped.
    cap: usize,
    /// Bytes the reclaimer has freed while the pool was over cap. The
    /// reclaimer frees *cache* memory the pool does not meter (result
    /// cache, adaptive-store columns), so a successful reclaim cannot
    /// lower `reserved`; instead the freed bytes raise the pool's
    /// effective cap — genuinely vacated address space the metered
    /// reservations may now occupy. Retired (reset to zero) as soon as
    /// `reserved` falls back under the nominal cap, so the configured
    /// budget is enforced afresh once pressure subsides. Without this
    /// credit a reclaim-satisfied pool would sit permanently over cap:
    /// every later charge would re-run the whole ladder and admission
    /// control would report saturation even though memory was freed.
    credit: AtomicUsize,
    /// The engine's degradation ladder, consulted before shedding. Held
    /// as an `Arc` so callers clone it out and invoke it *outside* this
    /// mutex: the ladder can take table locks and block, and a wedged
    /// ladder must not stall every other over-cap charge engine-wide.
    reclaimer: Mutex<Option<Arc<Reclaimer>>>,
}

/// The engine-wide memory reservation pool. Cheap to clone (an `Arc`);
/// every [`MemoryGuard`] of the engine shares one.
#[derive(Clone)]
pub struct MemoryPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for MemoryPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryPool")
            .field("reserved", &self.reserved())
            .field("cap", &self.cap())
            .finish()
    }
}

impl MemoryPool {
    /// A pool capped at `cap` bytes (`None` = uncapped: the pool still
    /// meters, for the peak diagnostic, but never refuses).
    pub fn new(cap: Option<usize>) -> MemoryPool {
        MemoryPool {
            inner: Arc::new(PoolInner {
                cap: cap.unwrap_or(usize::MAX),
                ..PoolInner::default()
            }),
        }
    }

    /// Register the degradation ladder run before the pool sheds.
    /// Replaces any previous reclaimer.
    pub fn set_reclaimer(&self, f: Box<Reclaimer>) {
        *lock_unpoisoned(&self.inner.reclaimer) = Some(Arc::from(f));
    }

    /// Bytes currently reserved across all running queries.
    pub fn reserved(&self) -> usize {
        self.inner.reserved.load(Ordering::Relaxed)
    }

    /// High-water mark of [`MemoryPool::reserved`] since construction.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// The cap, if one was configured.
    pub fn cap(&self) -> Option<usize> {
        (self.inner.cap != usize::MAX).then_some(self.inner.cap)
    }

    /// Bytes of reclaim credit currently raising the effective cap
    /// (diagnostics; zero whenever the pool is within its nominal cap).
    pub fn reclaim_credit(&self) -> usize {
        self.inner.credit.load(Ordering::Relaxed)
    }

    /// The cap the pool enforces right now: the configured cap plus any
    /// outstanding reclaim credit (cache bytes the ladder freed that the
    /// metered reservations may occupy until pressure subsides).
    fn effective_cap(&self) -> usize {
        self.inner
            .cap
            .saturating_add(self.inner.credit.load(Ordering::Relaxed))
    }

    /// Is the pool at (or beyond) `fraction` of its effective cap?
    /// Always false when uncapped. The server's admission control
    /// consults this to shed *new work* with a typed error while memory
    /// is scarce — reclaim credit counts as headroom, so a pool whose
    /// ladder has freed real memory stops shedding immediately rather
    /// than until enough queries happen to finish.
    pub fn saturated(&self, fraction: f64) -> bool {
        self.inner.cap != usize::MAX
            && self.reserved() as f64 >= self.effective_cap() as f64 * fraction
    }

    /// Reserve `bytes`, running the reclaimer once if the effective cap
    /// would be exceeded. On refusal nothing stays reserved.
    fn reserve(&self, bytes: usize) -> Result<()> {
        let Err(reserved) = self.reserve_if_fits(bytes) else {
            return Ok(());
        };
        // Over cap: run the degradation ladder (shrink result cache,
        // evict adaptive store), asking for the overshoot plus slack.
        // What the ladder frees becomes reclaim credit — it raised no
        // meter, but the memory is genuinely vacated — so this charge
        // and subsequent ones are re-checked against cap + credit, and
        // sustained pressure within the slack never re-runs the ladder.
        // The reclaimer is cloned out and invoked outside the mutex: it
        // may block on table locks, and a slow ladder must not stall
        // every other over-cap charge behind this lock.
        let needed = reserved
            .saturating_add(bytes)
            .saturating_sub(self.effective_cap())
            .saturating_add(RECLAIM_SLACK_BYTES);
        let reclaimer = lock_unpoisoned(&self.inner.reclaimer).clone();
        let freed = reclaimer.map(|f| f(needed)).unwrap_or(0);
        if freed > 0 {
            self.inner.credit.fetch_add(freed, Ordering::Relaxed);
        }
        // Try again: concurrent releases while the ladder ran also make
        // room.
        self.reserve_if_fits(bytes).map_err(|reserved| {
            Error::resource_exhausted(format!(
                "engine memory pool exhausted: {} reserved + {} requested > {} cap \
                 (after reclaiming {} bytes)",
                reserved, bytes, self.inner.cap, freed
            ))
        })
    }

    /// Reserve `bytes` only if they fit the effective cap: a refused
    /// request is never counted, so neither a concurrent refusal nor
    /// [`MemoryPool::saturated`] ever sees it. On refusal, returns the
    /// reservation that left no room.
    fn reserve_if_fits(&self, bytes: usize) -> std::result::Result<(), usize> {
        let mut cur = self.inner.reserved.load(Ordering::Relaxed);
        loop {
            let now = cur.saturating_add(bytes);
            if now > self.effective_cap() {
                return Err(cur);
            }
            match self.inner.reserved.compare_exchange_weak(
                cur,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(now, Ordering::Relaxed);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn release(&self, bytes: usize) {
        let prev = self.inner.reserved.fetch_sub(bytes, Ordering::Relaxed);
        // Pressure subsided: once the metered reservations fit the
        // nominal cap again, retire any reclaim credit so the configured
        // budget is enforced afresh (the caches the ladder emptied will
        // refill). A racing reserve may observe the credit drop and shed
        // where it could have squeaked by — benign, and only possible
        // right at the cap boundary.
        if prev.saturating_sub(bytes) <= self.inner.cap
            && self.inner.credit.load(Ordering::Relaxed) != 0
        {
            self.inner.credit.store(0, Ordering::Relaxed);
        }
    }
}

struct GuardInner {
    /// Bytes this query has charged and not released.
    used: AtomicUsize,
    /// Per-query cap; `usize::MAX` means uncapped.
    cap: usize,
    /// The engine pool the query reserves from, if any.
    pool: Option<MemoryPool>,
}

impl Drop for GuardInner {
    fn drop(&mut self) {
        // The query is over (every clone of its guard is gone): hand the
        // whole reservation back, however the query exited — including
        // a panic unwinding through the firewall.
        if let Some(pool) = &self.pool {
            pool.release(self.used.load(Ordering::Relaxed));
        }
    }
}

/// One query's allocation meter. Clones share the meter; the query's
/// reservation returns to the pool when the last clone drops.
#[derive(Clone)]
pub struct MemoryGuard {
    inner: Arc<GuardInner>,
}

impl std::fmt::Debug for MemoryGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryGuard")
            .field("used", &self.used())
            .field(
                "cap",
                &(self.inner.cap != usize::MAX).then_some(self.inner.cap),
            )
            .finish()
    }
}

impl MemoryGuard {
    /// A guard capped at `cap` bytes (`None` = uncapped), reserving from
    /// `pool` (if given).
    pub fn new(cap: Option<usize>, pool: Option<MemoryPool>) -> MemoryGuard {
        MemoryGuard {
            inner: Arc::new(GuardInner {
                used: AtomicUsize::new(0),
                cap: cap.unwrap_or(usize::MAX),
                pool,
            }),
        }
    }

    /// Bytes currently charged to this query.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Charge `bytes` of freshly allocated query state. Fails with
    /// [`Error::ResourceExhausted`] when the query cap or the engine
    /// pool refuses; on failure nothing stays charged.
    pub fn charge(&self, bytes: usize) -> Result<()> {
        if bytes == 0 {
            return Ok(());
        }
        let prev = self.inner.used.fetch_add(bytes, Ordering::Relaxed);
        let now = prev.saturating_add(bytes);
        if now > self.inner.cap {
            self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(Error::resource_exhausted(format!(
                "query exceeded its memory budget: {} used + {} requested > {} \
                 (EngineConfig::query_mem_bytes)",
                prev, bytes, self.inner.cap
            )));
        }
        if let Some(pool) = &self.inner.pool {
            if let Err(e) = pool.reserve(bytes) {
                self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Return `bytes` previously charged (state freed mid-query, e.g. a
    /// drained spill vector). Saturating: over-release never underflows.
    pub fn release(&self, bytes: usize) {
        let mut cur = self.inner.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.inner.used.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if let Some(pool) = &self.inner.pool {
                        pool.release(cur - next);
                    }
                    return;
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Charge the current thread's ambient guard (the `memory` field of its
/// [`QueryContext`](crate::QueryContext)); a no-op when none is installed
/// (the common unbudgeted case: one thread-local read). The guard is
/// cloned out first: the charge may run the reclaim ladder, which may read
/// the context itself.
pub fn charge_current(bytes: usize) -> Result<()> {
    match context::with(|c| c.ctx.memory.clone()) {
        Some(g) => g.charge(bytes),
        None => Ok(()),
    }
}

/// Return `bytes` charged through [`charge_current`] once the state they
/// paid for is freed; a no-op when no guard is installed.
pub fn release_current(bytes: usize) {
    if bytes == 0 {
        return;
    }
    if let Some(g) = context::with(|c| c.ctx.memory.clone()) {
        g.release(bytes);
    }
}

/// Lock that shrugs off poisoning: the protected state (the reclaimer
/// slot) is valid after any observer panic, and memory governance must
/// keep working after a contained panic — that is its whole point.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Rough heap footprint of a `Vec` of fixed-size elements.
pub fn vec_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

/// Hand the pages the allocator holds free back to the OS. Call it after
/// dropping a large amount of long-lived state at once (a table's loaded
/// columns and positional map): glibc keeps such memory in the arena of
/// whichever worker thread allocated it, so without a trim every reload
/// of an edited file leaves the process bigger than the last. A no-op on
/// other allocators.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            // int malloc_trim(size_t pad);
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes the allocator's own locks and only
        // releases pages no allocation occupies; it has no precondition.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_guard_never_refuses() {
        let g = MemoryGuard::new(None, None);
        g.charge(usize::MAX / 2).unwrap();
        g.charge(usize::MAX / 2).unwrap();
        assert!(g.used() > 0);
    }

    #[test]
    fn query_cap_sheds_and_rolls_back() {
        let g = MemoryGuard::new(Some(1000), None);
        g.charge(600).unwrap();
        let err = g.charge(600).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        // The refused charge left nothing behind.
        assert_eq!(g.used(), 600);
        g.charge(400).unwrap();
    }

    #[test]
    fn release_is_saturating() {
        let g = MemoryGuard::new(Some(100), None);
        g.charge(50).unwrap();
        g.release(500);
        assert_eq!(g.used(), 0);
        g.charge(100).unwrap();
    }

    #[test]
    fn pool_caps_across_guards_and_drop_releases() {
        let pool = MemoryPool::new(Some(1000));
        let a = MemoryGuard::new(None, Some(pool.clone()));
        let b = MemoryGuard::new(None, Some(pool.clone()));
        a.charge(700).unwrap();
        let err = b.charge(700).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
        assert_eq!(pool.reserved(), 700);
        drop(a);
        assert_eq!(pool.reserved(), 0, "guard drop returns its reservation");
        b.charge(700).unwrap();
        assert_eq!(pool.peak(), 700);
    }

    #[test]
    fn reclaimer_runs_before_shedding() {
        use std::sync::atomic::AtomicUsize;
        let pool = MemoryPool::new(Some(1000));
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        // A ladder that always reports having freed plenty.
        pool.set_reclaimer(Box::new(move |need| {
            c.fetch_add(1, Ordering::SeqCst);
            need
        }));
        let g = MemoryGuard::new(None, Some(pool.clone()));
        g.charge(1500).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Back under the nominal cap: the reclaim credit retires, so the
        // next overshoot consults the ladder again — now one that frees
        // nothing, and the pool sheds.
        g.release(1500);
        assert_eq!(pool.reclaim_credit(), 0);
        pool.set_reclaimer(Box::new(|_| 0));
        let err = g.charge(1500).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
        assert_eq!(pool.reserved(), 0, "refused charge leaves nothing behind");
    }

    #[test]
    fn reclaim_credit_amortises_the_ladder() {
        use std::sync::atomic::AtomicUsize;
        let pool = MemoryPool::new(Some(1000));
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        pool.set_reclaimer(Box::new(move |need| {
            c.fetch_add(1, Ordering::SeqCst);
            need
        }));
        let g = MemoryGuard::new(None, Some(pool.clone()));
        g.charge(1500).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(pool.reclaim_credit() > 0);
        // Sustained over-cap operation within the freed slack: the
        // credit absorbs further charges without re-running the ladder,
        // and admission control no longer reports saturation — the
        // memory really was freed.
        for _ in 0..8 {
            g.charge(100).unwrap();
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "ladder ran once, not per charge"
        );
        assert!(!pool.saturated(0.95), "freed memory counts as headroom");
    }

    #[test]
    fn reclaim_credit_retires_when_pressure_subsides() {
        use std::sync::atomic::AtomicUsize;
        let pool = MemoryPool::new(Some(1000));
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        pool.set_reclaimer(Box::new(move |need| {
            c.fetch_add(1, Ordering::SeqCst);
            need
        }));
        let g = MemoryGuard::new(None, Some(pool.clone()));
        g.charge(1500).unwrap();
        assert!(pool.reclaim_credit() > 0);
        // Dropping back under the nominal cap retires the credit: the
        // configured budget governs again, so the next overshoot runs
        // the ladder anew instead of riding stale credit forever.
        g.release(1000);
        assert_eq!(pool.reserved(), 500);
        assert_eq!(pool.reclaim_credit(), 0);
        g.charge(1000).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    /// Four workers that each ask for more than the room left, over and
    /// over at once: every refusal reports a reservation within the cap
    /// (the other workers' refused requests are never counted), and the
    /// pool ends empty.
    #[test]
    fn concurrent_refusals_never_count_as_reserved() {
        use std::sync::Barrier;
        const CAP: usize = 49_152;
        let pool = MemoryPool::new(Some(CAP));
        let held = MemoryGuard::new(None, Some(pool.clone()));
        held.charge(20_000).unwrap();
        let start = Barrier::new(4);
        // Workers only record: one panicking at the barrier would leave
        // the others waiting there for good.
        let refusals: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut seen = Vec::new();
                        for _ in 0..200 {
                            start.wait();
                            let g = MemoryGuard::new(None, Some(pool.clone()));
                            let text = match g.charge(CAP - 20_000 + 1) {
                                Ok(()) => "accepted".to_owned(),
                                Err(e) => e.to_string(),
                            };
                            // The reservation the refusal reports.
                            seen.push(
                                text.split("pool exhausted: ")
                                    .nth(1)
                                    .and_then(|t| t.split(' ').next())
                                    .and_then(|n| n.parse().ok())
                                    .unwrap_or(usize::MAX),
                            );
                            seen.push(pool.reserved());
                        }
                        seen
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert_eq!(refusals.len(), 1600);
        assert!(refusals.iter().all(|&r| r <= CAP), "{refusals:?}");
        assert!(pool.peak() <= CAP, "{}", pool.peak());
        drop(held);
        assert_eq!(pool.reserved(), 0);
    }

    fn meter(g: &MemoryGuard) -> crate::ContextGuard {
        crate::QueryContext {
            memory: Some(g.clone()),
            ..crate::QueryContext::current()
        }
        .enter()
    }

    #[test]
    fn ambient_guard_installs_and_restores() {
        assert!(crate::QueryContext::current().memory.is_none());
        charge_current(1 << 30).unwrap(); // no guard: no-op
        release_current(1 << 30);
        let g = MemoryGuard::new(Some(100), None);
        {
            let _scope = meter(&g);
            charge_current(60).unwrap();
            assert!(charge_current(60).is_err());
            release_current(60);
            assert_eq!(g.used(), 0);
            // Nested scope shadows, then restores.
            let g2 = MemoryGuard::new(None, None);
            {
                let _inner = meter(&g2);
                charge_current(500).unwrap();
            }
            assert_eq!(g2.used(), 500);
            charge_current(10).unwrap();
        }
        assert_eq!(g.used(), 10);
        assert!(crate::QueryContext::current().memory.is_none());
    }

    #[test]
    fn reclaim_ladder_may_read_the_context_mid_charge() {
        // The ladder runs inside `charge_current`; it opening a phase (a
        // mutable use of the same thread-local) must not double-borrow.
        let pool = MemoryPool::new(Some(100));
        pool.set_reclaimer(Box::new(|need| {
            let _p = crate::profile::phase(crate::Phase::Load);
            assert!(crate::QueryContext::current().memory.is_some());
            need
        }));
        let g = MemoryGuard::new(None, Some(pool));
        let _profile = crate::ProfileScope::enter(crate::ProfileSink::handle());
        let _scope = meter(&g);
        charge_current(500).unwrap();
        assert_eq!(g.used(), 500);
    }

    #[test]
    fn saturation_feeds_admission_control() {
        let pool = MemoryPool::new(Some(1000));
        assert!(!pool.saturated(0.9));
        let g = MemoryGuard::new(None, Some(pool.clone()));
        g.charge(950).unwrap();
        assert!(pool.saturated(0.9));
        assert!(!MemoryPool::new(None).saturated(0.0));
    }
}
