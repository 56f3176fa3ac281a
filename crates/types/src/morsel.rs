//! The morsel-stealing driver: the one thread source of the engine.
//!
//! Morsel-driven parallelism (Leis et al., SIGMOD 2014) splits an input
//! into fixed-size ranges that worker threads *steal* from a shared atomic
//! counter. [`drive_morsels`] is the only place an engine crate (types,
//! rawcsv, exec, store, sql, core) starts a thread outside its tests: the
//! tokenizer's phase 1 newline split and phase 2 chunk scans, the cold
//! loader's byte chunks, file splitting and every post-load operator all
//! schedule through it, directly or through the ordered
//! wrapper [`map_morsels`]. The scheduling semantics (steal order,
//! lowest-morsel-error-wins cancellation, panic containment, worker clamping)
//! therefore exist once, and so does the propagation of the caller's
//! [`QueryContext`] to the workers.
//!
//! Call-site-specific behaviour stays at the call site, passed in as
//! closures:
//!
//! * `init(worker)` builds per-worker state (e.g. the tokenizer's local
//!   counter batch) before the worker steals its first morsel;
//! * `step(state, worker, range)` processes one stolen morsel — this is
//!   where callers tokenize, filter, aggregate, record positional-map
//!   entries, or stash per-morsel results;
//! * `flush(state)` runs once per worker after its last steal (e.g. the
//!   counter-flush hook that batches atomic counter updates).
//!
//! Error semantics: the error of the *lowest* failing morsel wins, so
//! which error a query reports depends on the input, not on the schedule.
//! Once morsel `f` has failed, workers skip every morsel above `f` (they
//! stop at their next steal), while morsels below `f` — all stolen before
//! it — still run and may replace the error with their own. `flush` still
//! runs for each started worker. Cancellation, an expired deadline and a
//! panicking worker (which becomes `Error::Internal`) record as if morsel
//! 0 had failed, so they stop every worker at its next steal.
//!
//! Context: the driver captures the calling thread's [`QueryContext`]
//! once and installs it on each worker it spawns, so a step sees the
//! caller's cancel token, memory guard and profile sink ambiently. Phase
//! timers stay off on workers (they belong to the coordinating thread).
//! The driver polls the token before every steal through the
//! same failure slot, so a CANCEL, an expired deadline or a
//! detected client disconnect stops every worker within one morsel and
//! surfaces as `Error::Cancelled` / `Error::Timeout`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::context::QueryContext;
use crate::error::{Error, Result};

/// One stolen unit of work: morsel `index` covers items `[lo, hi)` of the
/// driven input. Indexes ascend with the range, giving consumers a
/// deterministic merge order regardless of worker scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselRange {
    /// Morsel ordinal (0-based, ascending by range).
    pub index: usize,
    /// First item (inclusive).
    pub lo: usize,
    /// Last item (exclusive).
    pub hi: usize,
}

/// Number of morsels needed to cover `n_items` at `per_morsel` each.
pub fn morsel_count(n_items: usize, per_morsel: usize) -> usize {
    n_items.div_ceil(per_morsel.max(1))
}

/// Run `step` over every morsel of `n_items` (`per_morsel` items each) on
/// up to `threads` stealing workers. Workers are clamped to the morsel
/// count; zero or one worker runs the loop inline on the calling thread
/// (no scope, no spawn). See the module docs for the hook and context
/// contract.
pub fn drive_morsels<S, I, F, D>(
    n_items: usize,
    per_morsel: usize,
    threads: usize,
    init: I,
    step: F,
    flush: D,
) -> Result<()>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, MorselRange) -> Result<()> + Sync,
    D: Fn(S) + Sync,
{
    let per_morsel = per_morsel.max(1);
    let n_morsels = morsel_count(n_items, per_morsel);
    let workers = threads.max(1).min(n_morsels.max(1));

    let next = AtomicUsize::new(0);
    // Lowest morsel index that failed so far, `usize::MAX` while none has.
    let lowest_failed = AtomicUsize::new(usize::MAX);
    let failure: Mutex<Option<(usize, Error)>> = Mutex::new(None);
    // The caller's context, captured once; the inline path already runs
    // under it, spawned workers install it.
    let ctx = QueryContext::current();

    // The lowest failing morsel's error wins (the earlier one on a tie); a
    // poisoned lock (a step panicked on another worker while storing its
    // error) must not turn into a second panic here — recover the inner
    // value and keep going.
    let record_failure = |index: usize, e: Error| {
        let mut slot = failure.lock().unwrap_or_else(|p| p.into_inner());
        if slot.as_ref().is_none_or(|(lowest, _)| index < *lowest) {
            *slot = Some((index, e));
        }
        lowest_failed.fetch_min(index, Ordering::Relaxed);
    };

    let run_worker = |worker: usize| {
        let mut state = init(worker);
        // Per-worker aggregates, folded into the shared profile sink in
        // one batch after the loop (no per-morsel atomics).
        let (mut p_morsels, mut p_items, mut p_steals) = (0u64, 0u64, 0u64);
        loop {
            if let Some(t) = &ctx.cancel {
                if let Err(e) = t.check() {
                    record_failure(0, e);
                    break;
                }
            }
            // Indexes are handed out in ascending order, so once a steal
            // lands above a failed morsel every later one would too.
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n_morsels || index > lowest_failed.load(Ordering::Relaxed) {
                break;
            }
            let range = MorselRange {
                index,
                lo: index * per_morsel,
                hi: ((index + 1) * per_morsel).min(n_items),
            };
            if ctx.profile.is_some() {
                p_morsels += 1;
                p_items += (range.hi - range.lo) as u64;
                // A morsel is "stolen" when it lands outside the worker's
                // round-robin share — a worker that fell behind had its
                // share taken by a faster sibling.
                if workers > 1 && index % workers != worker {
                    p_steals += 1;
                }
            }
            if let Err(e) = step(&mut state, worker, range) {
                record_failure(index, e);
                break;
            }
        }
        if let Some(p) = &ctx.profile {
            if p_morsels > 0 {
                p.add_morsels(p_morsels, p_items, 0);
                p.add_steals(p_steals);
            }
        }
        flush(state);
    };

    if workers <= 1 {
        run_worker(0);
    } else {
        // A panicking worker must not take the process down: catch the
        // unwind on the worker thread itself and convert it to a typed
        // internal error through the same failure slot, recorded as morsel
        // 0 so every sibling stops at its next steal, and the scope never
        // observes a panic.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (run_worker, record_failure, ctx) = (&run_worker, &record_failure, &ctx);
                    s.spawn(move || {
                        let _ctx = ctx.clone().enter_worker();
                        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            run_worker(w)
                        }));
                        if let Err(payload) = caught {
                            record_failure(0, Error::from_panic("morsel worker", payload));
                        }
                    })
                })
                .collect();
            // Join each worker: a join waits for the thread to exit, so
            // its teardown does not overlap the caller's next stage (the
            // scope alone returns once the closures end).
            for h in handles {
                let _ = h.join();
            }
        });
    }

    match failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Run `f` over every morsel of `n_items` (`per_morsel` items each) on up
/// to `threads` stealing workers and return the results in morsel index
/// order, regardless of scheduling. [`drive_morsels`] with one ordered
/// result slot per morsel; the lowest failing morsel's error wins.
pub fn map_morsels<T, F>(n_items: usize, per_morsel: usize, threads: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(MorselRange) -> Result<T> + Sync,
{
    let mut slots: Vec<Mutex<Option<T>>> = Vec::new();
    slots.resize_with(morsel_count(n_items, per_morsel), || Mutex::new(None));
    drive_morsels(
        n_items,
        per_morsel,
        threads,
        |_worker| (),
        |_state, _worker, r| {
            let v = f(r)?;
            *slots[r.index].lock().unwrap_or_else(|p| p.into_inner()) = Some(v);
            Ok(())
        },
        |_state| {},
    )?;
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .ok_or_else(|| Error::internal("morsel result missing"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_item_exactly_once() {
        for (n, per, threads) in [
            (0, 10, 4),
            (1, 1, 1),
            (100, 7, 3),
            (64, 64, 8),
            (1000, 1, 4),
        ] {
            let seen = Mutex::new(vec![0u32; n]);
            drive_morsels(
                n,
                per,
                threads,
                |_w| (),
                |_s, _w, r| {
                    assert_eq!(r.lo, r.index * per);
                    assert!(r.hi <= n && r.lo < r.hi || n == 0);
                    let mut seen = seen.lock().unwrap();
                    for i in r.lo..r.hi {
                        seen[i] += 1;
                    }
                    Ok(())
                },
                |_s| {},
            )
            .unwrap();
            assert!(
                seen.into_inner().unwrap().iter().all(|&c| c == 1),
                "n={n} per={per} threads={threads}"
            );
        }
    }

    #[test]
    fn first_error_wins_and_flush_runs_per_worker() {
        let flushed = AtomicU64::new(0);
        let err = drive_morsels(
            100,
            10,
            4,
            |_w| 0u64,
            |state, _w, r| {
                *state += 1;
                if r.index == 5 {
                    Err(Error::exec("boom"))
                } else {
                    Ok(())
                }
            },
            |state| {
                // Every started worker flushes, even after a failure.
                let _ = state;
                flushed.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
        assert!(flushed.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn single_thread_runs_in_index_order() {
        let order = Mutex::new(Vec::new());
        drive_morsels(
            30,
            10,
            1,
            |_w| (),
            |_s, w, r| {
                assert_eq!(w, 0);
                order.lock().unwrap().push(r.index);
                Ok(())
            },
            |_s| {},
        )
        .unwrap();
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn ambient_cancel_stops_all_workers_within_a_morsel() {
        use crate::cancel::{CancelScope, CancelToken};
        let token = CancelToken::new();
        let _guard = CancelScope::enter(token.clone());
        let processed = AtomicU64::new(0);
        let err = drive_morsels(
            10_000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                processed.fetch_add(1, Ordering::Relaxed);
                if r.index == 3 {
                    token.cancel();
                }
                Ok(())
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)), "got {err:?}");
        // Each of the 4 workers finishes at most the morsel it was on
        // when the flag flipped — nowhere near the 1000-morsel total.
        assert!(
            processed.load(Ordering::Relaxed) < 100,
            "workers kept stealing after cancel: {} morsels",
            processed.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn expired_deadline_surfaces_timeout_from_driver() {
        use crate::cancel::{CancelScope, CancelToken};
        use std::time::{Duration, Instant};
        let token = CancelToken::new();
        token.set_deadline(Instant::now() - Duration::from_millis(1));
        let _guard = CancelScope::enter(token);
        let err = drive_morsels(100, 10, 2, |_w| (), |_s, _w, _r| Ok(()), |_s| {}).unwrap_err();
        assert!(matches!(err, Error::Timeout(_)), "got {err:?}");
    }

    #[test]
    fn no_ambient_token_runs_to_completion() {
        // Sanity for the common path: nothing installed, nothing cancels.
        let n = AtomicU64::new(0);
        drive_morsels(
            100,
            10,
            4,
            |_w| (),
            |_s, _w, _r| {
                n.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
            |_s| {},
        )
        .unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn worker_panic_surfaces_as_typed_internal_error() {
        let err = drive_morsels(
            1000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                if r.index == 7 {
                    panic!("injected worker crash");
                }
                Ok(())
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(
            matches!(&err, Error::Internal(m) if m.contains("injected worker crash")),
            "got {err:?}"
        );
        // The pool is not wedged: the same driver runs again cleanly.
        drive_morsels(100, 10, 4, |_w| (), |_s, _w, _r| Ok(()), |_s| {}).unwrap();
    }

    #[test]
    fn typed_error_beats_competing_panic() {
        // A typed step error and a worker panic race; whichever records
        // first wins, and either way the result is a typed error — never
        // an abort.
        let err = drive_morsels(
            1000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                if r.index == 3 {
                    return Err(Error::exec("typed failure"));
                }
                if r.index == 4 {
                    panic!("racing panic");
                }
                Ok(())
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(
            matches!(err, Error::Exec(_) | Error::Internal(_)),
            "got {err:?}"
        );
    }

    fn metered(guard: &crate::MemoryGuard) -> crate::ContextGuard {
        QueryContext {
            memory: Some(guard.clone()),
            ..QueryContext::current()
        }
        .enter()
    }

    #[test]
    fn ambient_memory_guard_reaches_workers() {
        use crate::resource::{self, MemoryGuard};
        let guard = MemoryGuard::new(None, None);
        let _scope = metered(&guard);
        drive_morsels(
            1000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                // Workers see the installing thread's guard ambiently.
                resource::charge_current(r.hi - r.lo)?;
                Ok(())
            },
            |_s| {},
        )
        .unwrap();
        assert_eq!(guard.used(), 1000);

        // And a capped guard sheds from inside the pool as a typed error.
        let small = MemoryGuard::new(Some(100), None);
        let _scope2 = metered(&small);
        let err = drive_morsels(
            1000,
            10,
            4,
            |_w| (),
            |_s, _w, r| {
                resource::charge_current(r.hi - r.lo)?;
                Ok(())
            },
            |_s| {},
        )
        .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");
    }

    #[test]
    fn workers_carry_the_installers_context_with_timers_off() {
        use crate::cancel::{CancelScope, CancelToken};
        use crate::profile::{self, Phase, ProfileScope, ProfileSink};
        use crate::resource::MemoryGuard;
        use std::sync::Arc;

        let token = CancelToken::new();
        let guard = MemoryGuard::new(None, None);
        let sink = ProfileSink::handle();
        let outer = CancelToken::new();
        outer.cancel();
        let _outer = CancelScope::enter(outer.clone());
        {
            let _profile = ProfileScope::enter(Arc::clone(&sink));
            let _query = QueryContext {
                cancel: Some(token.clone()),
                memory: Some(guard.clone()),
                ..QueryContext::current()
            }
            .enter();
            let caller = std::thread::current().id();
            let on_workers = AtomicU64::new(0);
            let wall = std::time::Instant::now();
            {
                let _coordinator = profile::phase(Phase::Load);
                drive_morsels(
                    1000,
                    10,
                    4,
                    |_w| (),
                    |_s, _w, _r| {
                        let ctx = QueryContext::current();
                        // The query's live token, not the cancelled outer one.
                        assert!(ctx.cancel.is_some_and(|t| !t.is_cancelled()));
                        let mem = ctx.memory.expect("guard reaches the worker");
                        mem.charge(1)?;
                        let prof = ctx.profile.expect("sink reaches the worker");
                        assert!(Arc::ptr_eq(&prof, &sink));
                        if std::thread::current().id() != caller {
                            on_workers.fetch_add(1, Ordering::Relaxed);
                        }
                        // A timer opened inside a step records nothing:
                        // phase time belongs to the coordinating thread.
                        let _p = profile::phase(Phase::WarmKernel);
                        std::thread::sleep(std::time::Duration::from_micros(50));
                        Ok(())
                    },
                    |_s| {},
                )
                .unwrap();
            }
            let wall_ns = wall.elapsed().as_nanos() as u64;
            assert_eq!(on_workers.load(Ordering::Relaxed), 100);
            assert_eq!(guard.used(), 100);
            let p = sink.snapshot();
            assert_eq!(p.phase_hits[Phase::WarmKernel as usize], 0);
            assert_eq!(p.phase_ns(Phase::WarmKernel), 0);
            assert_eq!(p.phase_hits[Phase::Load as usize], 1);
            assert!(p.total_phase_ns() <= wall_ns, "{p:?} vs wall {wall_ns}");
            assert_eq!(p.morsels, 100);
            // Back on the caller: the query's context is still installed.
            let ctx = QueryContext::current();
            assert!(Arc::ptr_eq(ctx.profile.as_ref().unwrap(), &sink));
            assert!(ctx.memory.is_some());
        }
        // Leaving the nested scopes restores the outer token alone.
        let ctx = QueryContext::current();
        assert!(ctx.profile.is_none() && ctx.memory.is_none());
        assert!(ctx.cancel.expect("outer token").is_cancelled());
    }

    #[test]
    fn ambient_profile_collects_morsel_aggregates() {
        use crate::profile::{ProfileScope, ProfileSink};
        let sink = ProfileSink::handle();
        let _scope = ProfileScope::enter(std::sync::Arc::clone(&sink));
        drive_morsels(1000, 10, 4, |_w| (), |_s, _w, _r| Ok(()), |_s| {}).unwrap();
        let p = sink.snapshot();
        assert_eq!(p.morsels, 100);
        assert_eq!(p.rows, 1000);
        drop(_scope);
        assert!(QueryContext::current().profile.is_none());
        // Without a scope the driver records nothing new.
        drive_morsels(100, 10, 4, |_w| (), |_s, _w, _r| Ok(()), |_s| {}).unwrap();
        assert_eq!(sink.snapshot().morsels, 100);
    }

    #[test]
    fn map_morsels_returns_results_in_morsel_order() {
        let out = map_morsels(1000, 7, 4, |r| Ok((r.index, r.lo, r.hi))).unwrap();
        assert_eq!(out.len(), morsel_count(1000, 7));
        for (i, &(index, lo, hi)) in out.iter().enumerate() {
            assert_eq!((index, lo, hi), (i, i * 7, ((i + 1) * 7).min(1000)));
        }
        let err = map_morsels(100, 10, 4, |r| {
            if r.index == 7 {
                Err(Error::exec("boom"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn lowest_failing_morsel_wins_whatever_the_schedule() {
        // With several workers, morsel 3 holds its worker until morsel 7
        // has failed, so 7 fails first in time; 3's error is still the
        // answer, and the morsels below 3 all ran.
        for threads in [1, 2, 8] {
            let ran_below = AtomicU64::new(0);
            let seven_failed = std::sync::atomic::AtomicBool::new(false);
            let err = map_morsels(200, 10, threads, |r| {
                match r.index {
                    0..=2 => {
                        ran_below.fetch_add(1, Ordering::Relaxed);
                    }
                    3 => {
                        while threads > 1 && !seven_failed.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        return Err(Error::exec("morsel 3"));
                    }
                    7 => {
                        seven_failed.store(true, Ordering::SeqCst);
                        return Err(Error::exec("morsel 7"));
                    }
                    _ => {}
                }
                Ok(r.index)
            })
            .unwrap_err();
            assert_eq!(
                err.to_string(),
                Error::exec("morsel 3").to_string(),
                "threads={threads}"
            );
            assert_eq!(ran_below.load(Ordering::Relaxed), 3, "threads={threads}");
        }
    }

    #[test]
    fn worker_state_is_private() {
        // Each worker's state accumulates only its own steals; the total
        // across flushes equals the morsel count.
        let total = AtomicU64::new(0);
        drive_morsels(
            1000,
            10,
            8,
            |_w| 0u64,
            |state, _w, _r| {
                *state += 1;
                Ok(())
            },
            |state| {
                total.fetch_add(state, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }
}
