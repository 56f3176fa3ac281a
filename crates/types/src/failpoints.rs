//! A std-only failpoint registry for fault-injection tests.
//!
//! A *failpoint* is a named trip site compiled into a hot path — file
//! reads, tokenizer phase boundaries, store materialisation, wire frame
//! I/O — that does nothing in normal operation but can be armed (by test
//! code via [`arm`], or through the `NODB_FAILPOINTS` environment
//! variable via [`init_from_env`]) to inject a delay, an error, or both.
//! Tests use them to prove the engine degrades gracefully when the world
//! misbehaves mid-pipeline: typed errors surface, peer workers stop,
//! connections stay usable, and store/posmap/catalog state stays
//! consistent.
//!
//! Disarmed cost is one relaxed atomic load: the global armed *count*
//! gates the registry lookup, so production binaries pay nothing for the
//! instrumentation.
//!
//! `NODB_FAILPOINTS` grammar (`;`-separated): `site=fail`,
//! `site=delay:MS`, `site=delay-fail:MS`, `site=panic`, each optionally
//! suffixed `@after:N` to trip only from the N+1-th hit on. Example:
//!
//! ```text
//! NODB_FAILPOINTS="rawcsv.read_file=fail;rawcsv.morsel=delay:20@after:3"
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::error::{Error, Result};

/// What an armed failpoint does when hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Action {
    /// Sleep this long before (maybe) failing. Used to make a query
    /// deliberately slow so tests can cancel it mid-flight.
    pub delay_ms: u64,
    /// Return an injected [`Error::Exec`] from the trip site.
    pub fail: bool,
    /// Panic at the trip site (after any delay) instead of returning an
    /// error — exercises the panic firewall: the process must survive
    /// and answer the request with a typed `Internal` error.
    pub panic: bool,
    /// Skip this many hits before the action takes effect.
    pub after: u64,
    /// Act on this many hits past the skipped ones, then let every later
    /// hit through untouched (`None`: act on every one).
    pub times: Option<u64>,
}

impl Action {
    /// An action that fails immediately.
    pub fn fail() -> Action {
        Action {
            fail: true,
            ..Action::default()
        }
    }

    /// An action that only delays.
    pub fn delay_ms(ms: u64) -> Action {
        Action {
            delay_ms: ms,
            ..Action::default()
        }
    }

    /// Delay then fail.
    pub fn delay_fail_ms(ms: u64) -> Action {
        Action {
            delay_ms: ms,
            fail: true,
            ..Action::default()
        }
    }

    /// An action that panics at the trip site.
    pub fn panic() -> Action {
        Action {
            panic: true,
            ..Action::default()
        }
    }

    /// Defer the action until `n` hits have passed through untouched.
    pub fn after(mut self, n: u64) -> Action {
        self.after = n;
        self
    }

    /// Act on `n` hits only (past any [`after`](Action::after) ones): a
    /// delay of one worker alone, say, while its peers run on.
    pub fn times(mut self, n: u64) -> Action {
        self.times = Some(n);
        self
    }
}

#[derive(Debug)]
struct State {
    action: Action,
    hits: u64,
}

/// Number of currently armed failpoints. Zero (the production state)
/// short-circuits every [`trip`] to a single relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static Mutex<HashMap<String, State>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, State>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, HashMap<String, State>> {
    registry().lock().unwrap_or_else(|p| p.into_inner())
}

/// Arm `site` with `action` (replacing any previous arming).
pub fn arm(site: &str, action: Action) {
    let mut reg = lock_registry();
    if reg
        .insert(site.to_owned(), State { action, hits: 0 })
        .is_none()
    {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Disarm `site`; no-op if it was not armed.
pub fn disarm(site: &str) {
    if lock_registry().remove(site).is_some() {
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Disarm every failpoint (test teardown).
pub fn disarm_all() {
    let mut reg = lock_registry();
    let n = reg.len();
    reg.clear();
    ARMED.fetch_sub(n, Ordering::SeqCst);
}

/// How many times `site` has been hit while armed.
pub fn hits(site: &str) -> u64 {
    lock_registry().get(site).map(|s| s.hits).unwrap_or(0)
}

/// The trip site: call this from instrumented code. Disarmed (the common
/// case) it is one relaxed atomic load. Armed, it sleeps and/or returns
/// the injected error per the site's [`Action`].
#[inline]
pub fn trip(site: &str) -> Result<()> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    trip_armed(site)
}

#[cold]
fn trip_armed(site: &str) -> Result<()> {
    let action = {
        let mut reg = lock_registry();
        let Some(state) = reg.get_mut(site) else {
            return Ok(());
        };
        state.hits += 1;
        let past = state.hits.saturating_sub(state.action.after);
        if past == 0 || state.action.times.is_some_and(|n| past > n) {
            return Ok(());
        }
        state.action
    };
    if action.delay_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(action.delay_ms));
    }
    if action.panic {
        panic!("failpoint '{site}' injected panic");
    }
    if action.fail {
        return Err(Error::exec(format!("failpoint '{site}' injected failure")));
    }
    Ok(())
}

/// Arm failpoints from the `NODB_FAILPOINTS` environment variable (see
/// the module docs for the grammar). Unparsable entries are skipped —
/// a fault-injection harness must not itself take the process down.
/// Called by engine and server construction so env-armed CI runs need no
/// code changes.
pub fn init_from_env() {
    let Ok(spec) = std::env::var("NODB_FAILPOINTS") else {
        return;
    };
    for entry in spec.split(';').filter(|s| !s.trim().is_empty()) {
        let Some((site, rest)) = entry.trim().split_once('=') else {
            continue;
        };
        let rest = rest.trim();
        let (action_str, after) = match rest.split_once("@after:") {
            Some((a, n)) => (a, n.trim().parse().unwrap_or(0)),
            None => (rest, 0),
        };
        let action = if action_str == "fail" {
            Action::fail()
        } else if action_str == "panic" {
            Action::panic()
        } else if let Some(ms) = action_str.strip_prefix("delay-fail:") {
            match ms.parse() {
                Ok(ms) => Action::delay_fail_ms(ms),
                Err(_) => continue,
            }
        } else if let Some(ms) = action_str.strip_prefix("delay:") {
            match ms.parse() {
                Ok(ms) => Action::delay_ms(ms),
                Err(_) => continue,
            }
        } else {
            continue;
        };
        arm(site.trim(), action.after(after));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The registry is process-global; tests serialise on this so one
    /// test's arming never leaks into another's assertions.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        disarm_all();
        g
    }

    #[test]
    fn disarmed_trip_is_ok() {
        let _g = guard();
        assert!(trip("nowhere").is_ok());
    }

    #[test]
    fn armed_fail_injects_typed_error() {
        let _g = guard();
        arm("t.fail", Action::fail());
        let err = trip("t.fail").unwrap_err();
        assert!(matches!(err, Error::Exec(_)));
        assert!(err.to_string().contains("t.fail"));
        assert_eq!(hits("t.fail"), 1);
        disarm("t.fail");
        assert!(trip("t.fail").is_ok());
    }

    #[test]
    fn after_skips_initial_hits() {
        let _g = guard();
        arm("t.after", Action::fail().after(2));
        assert!(trip("t.after").is_ok());
        assert!(trip("t.after").is_ok());
        assert!(trip("t.after").is_err());
        arm("t.times", Action::fail().after(1).times(2));
        let failed: Vec<bool> = (0..5).map(|_| trip("t.times").is_err()).collect();
        assert_eq!(failed, [false, true, true, false, false]);
        assert_eq!(hits("t.after"), 3);
        disarm_all();
    }

    #[test]
    fn delay_sleeps_without_failing() {
        let _g = guard();
        arm("t.delay", Action::delay_ms(15));
        let start = std::time::Instant::now();
        assert!(trip("t.delay").is_ok());
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
        disarm_all();
    }

    #[test]
    fn panic_action_panics_at_the_trip_site() {
        let _g = guard();
        arm("t.panic", Action::panic().after(1));
        assert!(trip("t.panic").is_ok(), "first hit skipped by @after");
        let payload =
            std::panic::catch_unwind(|| trip("t.panic")).expect_err("second hit must panic");
        let e = Error::from_panic("test boundary", payload);
        assert!(
            matches!(&e, Error::Internal(m) if m.contains("t.panic")),
            "got {e:?}"
        );
        disarm_all();
    }

    #[test]
    fn env_grammar_parses() {
        let _g = guard();
        // Drive the parser directly on entries to avoid process-global
        // env mutation racing other tests.
        std::env::set_var(
            "NODB_FAILPOINTS",
            "a=fail; b=delay:7 ;c=delay-fail:9@after:2;junk;bad=wat;d=delay:x;e=panic@after:5",
        );
        init_from_env();
        std::env::remove_var("NODB_FAILPOINTS");
        let reg = lock_registry();
        assert_eq!(reg.get("a").unwrap().action, Action::fail());
        assert_eq!(reg.get("b").unwrap().action, Action::delay_ms(7));
        assert_eq!(
            reg.get("c").unwrap().action,
            Action::delay_fail_ms(9).after(2)
        );
        assert!(!reg.contains_key("junk"));
        assert!(!reg.contains_key("bad"));
        assert!(!reg.contains_key("d"));
        assert_eq!(reg.get("e").unwrap().action, Action::panic().after(5));
        drop(reg);
        disarm_all();
    }
}
