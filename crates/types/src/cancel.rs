//! Cooperative query cancellation and deadlines.
//!
//! A [`CancelToken`] is a shared atomic flag plus an optional monotonic
//! deadline. Long-running loops *cooperate*: the morsel driver
//! ([`drive_morsels`](crate::drive_morsels)) consults the token before
//! every steal, and serial paths (the group merge, join builds, cracked
//! selects, the tokenizer's quoted phase-1) poll an amortised
//! [`CancelCheck`] every few thousand rows. Cancellation therefore lands
//! within one morsel (or [`CHECK_INTERVAL_ROWS`] rows) of the request —
//! the steal points the morsel design gives us for free are exactly the
//! cancellation points Leis et al. promised.
//!
//! Tokens travel *ambiently*, as the `cancel` field of the thread's
//! [`QueryContext`]: an entry point (the session, the server's
//! per-connection worker) installs it, and every loop below it —
//! tokenizer, store, exec — picks it up without a single signature
//! changing. The morsel driver installs the caller's context on each of
//! its workers, so stealing workers observe the token too. When none is
//! installed, every check is one thread-local read and a branch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::context::{self, ContextGuard, QueryContext};
use crate::error::{Error, Result};

/// Serial loops poll their [`CancelCheck`] once per this many rows: small
/// enough that cancellation latency stays well under a millisecond of
/// work, large enough that the amortised cost is a counter decrement.
pub const CHECK_INTERVAL_ROWS: usize = 4096;

/// Deadlines are stored as nanoseconds since this process-wide epoch so
/// the token stays a lock-free bundle of atomics. `u64::MAX` = no
/// deadline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Set when the cancellation was a deadline expiry, so the surfaced
    /// error distinguishes [`Error::Timeout`] from [`Error::Cancelled`].
    timed_out: AtomicBool,
    /// Deadline in nanos since [`epoch`]; `NO_DEADLINE` when unset.
    deadline_nanos: AtomicU64,
    /// Deterministic test hook: when non-zero, each [`CancelToken::check`]
    /// decrements it and trips the token on reaching zero. Lets proptests
    /// cancel at an exact, reproducible check ordinal instead of racing a
    /// timer thread.
    auto_cancel_after: AtomicU64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            cancelled: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            deadline_nanos: AtomicU64::new(NO_DEADLINE),
            auto_cancel_after: AtomicU64::new(0),
        }
    }
}

/// A shared cancel flag + optional monotonic deadline for one query.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same state.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh token: not cancelled, no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that times out `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() + timeout);
        t
    }

    /// Request cancellation. Idempotent; takes effect at the next check.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Set (or overwrite) the absolute deadline.
    pub fn set_deadline(&self, at: Instant) {
        let nanos = at.saturating_duration_since(epoch()).as_nanos() as u64;
        self.inner
            .deadline_nanos
            .store(nanos.min(NO_DEADLINE - 1), Ordering::Release);
    }

    /// Set the deadline only if none is set yet — lets a server-wide
    /// default apply without clobbering a caller's tighter deadline.
    pub fn set_deadline_if_unset(&self, at: Instant) {
        let nanos = at.saturating_duration_since(epoch()).as_nanos() as u64;
        let _ = self.inner.deadline_nanos.compare_exchange(
            NO_DEADLINE,
            nanos.min(NO_DEADLINE - 1),
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// Trip the token after `n` more [`CancelToken::check`] calls
    /// (deterministic fault injection for tests). `0` disables.
    pub fn cancel_after_checks(&self, n: u64) {
        self.inner.auto_cancel_after.store(n, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called (or a deadline fired)?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Poll the token: `Err(Cancelled)` after a cancel request,
    /// `Err(Timeout)` once the deadline has passed, `Ok(())` otherwise.
    pub fn check(&self) -> Result<()> {
        if self.inner.auto_cancel_after.load(Ordering::Relaxed) > 0
            && self.inner.auto_cancel_after.fetch_sub(1, Ordering::AcqRel) == 1
        {
            self.cancel();
        }
        if self.inner.cancelled.load(Ordering::Acquire) {
            return if self.inner.timed_out.load(Ordering::Acquire) {
                Err(Error::Timeout("query deadline exceeded".into()))
            } else {
                Err(Error::Cancelled("query cancelled".into()))
            };
        }
        let deadline = self.inner.deadline_nanos.load(Ordering::Acquire);
        if deadline != NO_DEADLINE {
            let now = Instant::now().saturating_duration_since(epoch()).as_nanos() as u64;
            if now >= deadline {
                self.inner.timed_out.store(true, Ordering::Release);
                self.cancel();
                return Err(Error::Timeout("query deadline exceeded".into()));
            }
        }
        Ok(())
    }

    /// Did the token trip on its deadline (vs an explicit cancel)?
    pub fn timed_out(&self) -> bool {
        self.inner.timed_out.load(Ordering::Acquire)
    }
}

/// Installs a token as the current thread's ambient cancel token: a
/// one-field overlay on the [`QueryContext`], restored on drop, so
/// nested scopes compose.
#[derive(Debug)]
#[must_use = "the token is uninstalled when the scope drops"]
pub struct CancelScope {
    _ctx: ContextGuard,
}

impl CancelScope {
    /// Install `token` for the current thread until the guard drops.
    pub fn enter(token: CancelToken) -> CancelScope {
        CancelScope {
            _ctx: QueryContext {
                cancel: Some(token),
                ..QueryContext::current()
            }
            .enter(),
        }
    }
}

/// Amortised cancellation polling for serial row loops.
///
/// Captures the ambient token once at construction; [`CancelCheck::tick`]
/// then costs a subtraction per call and consults the token only every
/// [`CHECK_INTERVAL_ROWS`] processed rows. With no ambient token the
/// whole thing is a dead branch.
#[derive(Debug)]
pub struct CancelCheck {
    token: Option<CancelToken>,
    budget: usize,
}

impl Default for CancelCheck {
    fn default() -> Self {
        CancelCheck::new()
    }
}

impl CancelCheck {
    /// Capture the current thread's ambient token (if any).
    pub fn new() -> CancelCheck {
        CancelCheck {
            token: context::with(|c| c.ctx.cancel.clone()),
            budget: CHECK_INTERVAL_ROWS,
        }
    }

    /// Account `rows` processed rows; polls the token once the interval
    /// is exhausted. Returns the token's verdict.
    #[inline]
    pub fn tick(&mut self, rows: usize) -> Result<()> {
        let Some(token) = &self.token else {
            return Ok(());
        };
        self.budget = self.budget.saturating_sub(rows.max(1));
        if self.budget == 0 {
            self.budget = CHECK_INTERVAL_ROWS;
            token.check()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_checks_clean() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert!(!t.timed_out());
    }

    #[test]
    fn cancel_surfaces_typed_error() {
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(t.check(), Err(Error::Cancelled(_))));
        assert!(t.is_cancelled());
        assert!(!t.timed_out());
    }

    #[test]
    fn expired_deadline_surfaces_timeout() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(t.check(), Err(Error::Timeout(_))));
        assert!(t.timed_out());
        // And the cancelled flag is latched for cheap observers.
        assert!(t.is_cancelled());
    }

    #[test]
    fn with_timeout_eventually_fires() {
        let t = CancelToken::with_timeout(Duration::from_millis(5));
        assert!(t.check().is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(t.check(), Err(Error::Timeout(_))));
    }

    #[test]
    fn set_deadline_if_unset_keeps_tighter_existing() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() - Duration::from_millis(1));
        // A later, laxer server default must not override the expired one.
        t.set_deadline_if_unset(Instant::now() + Duration::from_secs(3600));
        assert!(matches!(t.check(), Err(Error::Timeout(_))));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancel_after_checks_is_deterministic() {
        let t = CancelToken::new();
        t.cancel_after_checks(3);
        assert!(t.check().is_ok());
        assert!(t.check().is_ok());
        assert!(matches!(t.check(), Err(Error::Cancelled(_))));
    }

    fn check_current() -> Result<()> {
        match QueryContext::current().cancel {
            Some(t) => t.check(),
            None => Ok(()),
        }
    }

    #[test]
    fn scope_installs_and_restores() {
        assert!(QueryContext::current().cancel.is_none());
        let t = CancelToken::new();
        {
            let _guard = CancelScope::enter(t.clone());
            assert!(QueryContext::current().cancel.is_some());
            t.cancel();
            assert!(matches!(check_current(), Err(Error::Cancelled(_))));
            // Nested scope shadows, then restores the outer token.
            {
                let _inner = CancelScope::enter(CancelToken::new());
                assert!(check_current().is_ok());
            }
            assert!(matches!(check_current(), Err(Error::Cancelled(_))));
        }
        assert!(QueryContext::current().cancel.is_none());
        assert!(check_current().is_ok());
    }

    #[test]
    fn cancel_check_polls_on_interval() {
        let t = CancelToken::new();
        let _guard = CancelScope::enter(t.clone());
        let mut check = CancelCheck::new();
        t.cancel();
        // Under one interval of rows: not yet observed.
        assert!(check.tick(10).is_ok());
        // Crossing the interval observes the cancel.
        assert!(check.tick(CHECK_INTERVAL_ROWS).is_err());
    }

    #[test]
    fn cancel_check_without_token_is_free() {
        let mut check = CancelCheck::new();
        for _ in 0..10 {
            assert!(check.tick(usize::MAX).is_ok());
        }
    }
}
