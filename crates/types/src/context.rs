//! The one per-query context every engine thread carries.
//!
//! A query's ambient state — its [`CancelToken`], its [`MemoryGuard`] and
//! its [`ProfileHandle`] — travels as one [`QueryContext`] in one
//! thread-local. An entry point (a session, the server's connection
//! worker, a test) installs it with [`QueryContext::enter`]; every loop
//! below it — tokenizer, store, exec — reads it through
//! [`QueryContext::current`] or the per-field accessors
//! ([`CancelCheck::new`](crate::CancelCheck::new),
//! [`charge_current`](crate::resource::charge_current),
//! [`profile::phase`](crate::profile::phase)) without a signature
//! changing. The morsel driver ([`drive_morsels`](crate::drive_morsels)),
//! the only place an engine crate starts a thread, captures the context
//! once and installs it on each of its workers, so a worker cannot miss
//! one of the three.
//!
//! The thread-local also holds the coordinating thread's stack of open
//! phase timers. Driver workers run with timers off: a `profile::phase`
//! opened inside a morsel step records nothing, so phase self-times stay
//! disjoint and sum to at most the query's wall clock. Entering a context
//! with the same profile sink (a cancel or memory overlay) keeps the open
//! timers, so phases nest across it; a new sink starts its own stack and
//! closes whatever is still open into that sink when its scope ends.
//!
//! No accessor holds the thread-local's borrow across a call into the
//! guard, token or sink: a charge that runs the pool's reclaim ladder may
//! itself read the context.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use crate::cancel::CancelToken;
use crate::profile::{Phase, ProfileHandle};
use crate::resource::MemoryGuard;

/// The ambient state of one query: what it is cancelled by, what it is
/// charged to, and where its profile goes. Every field is optional; an
/// empty context (nothing installed) costs every accessor one
/// thread-local read and a branch.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    /// Cooperative cancellation and deadline.
    pub cancel: Option<CancelToken>,
    /// Per-query allocation meter.
    pub memory: Option<MemoryGuard>,
    /// Execution-profile sink.
    pub profile: Option<ProfileHandle>,
}

/// What the thread-local holds: the installed context plus the open phase
/// timers, innermost last (`None` on a driver worker: timers off).
#[derive(Debug)]
pub(crate) struct Installed {
    pub(crate) ctx: QueryContext,
    pub(crate) timers: Option<Vec<(Phase, Instant)>>,
}

std::thread_local! {
    static CURRENT: RefCell<Installed> = const {
        RefCell::new(Installed {
            ctx: QueryContext {
                cancel: None,
                memory: None,
                profile: None,
            },
            timers: Some(Vec::new()),
        })
    };
}

/// Run `f` on this thread's installed state. `f` must not call into a
/// guard, token or sink (clone what it needs out instead).
pub(crate) fn with<R>(f: impl FnOnce(&mut Installed) -> R) -> R {
    CURRENT.with(|c| f(&mut c.borrow_mut()))
}

impl QueryContext {
    /// The context installed on the current thread (empty if none).
    pub fn current() -> QueryContext {
        with(|i| i.ctx.clone())
    }

    /// Install this context on the current thread until the guard drops;
    /// the previous one is restored then, so nested scopes compose.
    pub fn enter(self) -> ContextGuard {
        install(self, true)
    }

    /// Install this context on a driver worker: phase timers stay off.
    pub(crate) fn enter_worker(self) -> ContextGuard {
        install(self, false)
    }
}

fn install(ctx: QueryContext, timers_on: bool) -> ContextGuard {
    with(|cur| {
        let carry = timers_on
            && match (&cur.ctx.profile, &ctx.profile) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (a, b) => a.is_none() && b.is_none(),
            };
        let timers = match (timers_on, carry) {
            (false, _) => None,
            (true, true) => cur.timers.take(),
            (true, false) => Some(Vec::new()),
        };
        let prev = std::mem::replace(cur, Installed { ctx, timers });
        ContextGuard {
            prev: Some(prev),
            carry,
        }
    })
}

/// RAII guard of [`QueryContext::enter`]: restores the previous context
/// on drop.
#[derive(Debug)]
#[must_use = "the context is uninstalled when the guard drops"]
pub struct ContextGuard {
    prev: Option<Installed>,
    /// The open timers were handed over from `prev` and go back to it.
    carry: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let Some(mut prev) = self.prev.take() else {
            return;
        };
        let carry = self.carry;
        let left = with(|cur| {
            if carry {
                prev.timers = cur.timers.take();
            }
            std::mem::replace(cur, prev)
        });
        // Close any timer an error unwound past: its elapsed time still
        // lands in the sink being left.
        if let (Some(sink), Some(timers)) = (left.ctx.profile, left.timers) {
            let now = Instant::now();
            for (p, start) in timers.into_iter().rev() {
                sink.add_phase_ns(p, now.duration_since(start).as_nanos() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{self, ProfileSink};

    #[test]
    fn same_sink_overlay_keeps_the_enclosing_timer() {
        let sink = ProfileSink::handle();
        let _scope = QueryContext {
            profile: Some(Arc::clone(&sink)),
            ..QueryContext::default()
        }
        .enter();
        {
            let _outer = profile::phase(Phase::Load);
            let _overlay = QueryContext {
                cancel: Some(CancelToken::new()),
                ..QueryContext::current()
            }
            .enter();
            // The overlay nests inside `Load`: its open timer came along,
            // so the inner phase pauses it.
            assert_eq!(with(|c| c.timers.as_ref().map(Vec::len)), Some(1));
            let _inner = profile::phase(Phase::Tokenize1);
            assert_eq!(with(|c| c.timers.as_ref().map(Vec::len)), Some(2));
        }
        assert_eq!(with(|c| c.timers.as_ref().map(Vec::len)), Some(0));
        let p = sink.snapshot();
        assert_eq!(p.phase_hits[Phase::Load as usize], 1);
        assert_eq!(p.phase_hits[Phase::Tokenize1 as usize], 1);
    }
}
