//! Deterministic fault injection for the durability path.
//!
//! Every durability-critical I/O site calls [`check`] with its site
//! name before performing the operation. A site can be armed to fire on
//! its `n`-th hit with one of three actions:
//!
//! * `error` — the operation reports an I/O failure; the WAL rolls the
//!   file back to the pre-operation length and the statement fails
//!   cleanly (the engine stays usable).
//! * `short` — a short write: a PRNG-chosen strict prefix of the bytes
//!   reaches the file before the failure; the WAL rolls back as above.
//! * `crash` — a simulated process death mid-operation: a strict prefix
//!   of the in-flight bytes is left on disk (the unsynced suffix is
//!   "lost in the page cache"), the manager is poisoned so every later
//!   durability call fails, and the test must reopen from disk.
//!
//! Arming is either programmatic ([`set`]) or via the environment:
//!
//! ```text
//! MDUCK_FAILPOINTS="wal.append.payload=crash@3,ckpt.rename=error@1"
//! MDUCK_FAILPOINT_SEED=42   # optional; defaults to 0xD0C5EED
//! ```
//!
//! The registry (armed sites, hit counts, seed) is per thread: a site
//! armed on one thread never fires on another, so tests running in
//! parallel cannot trip each other's statements. WAL appends and
//! checkpoints run on the thread that executes the statement, never in
//! a morsel worker, so arming the statement's own thread covers every
//! site it reaches. The environment variables seed each thread's
//! registry on its first use.
//!
//! Short-write lengths are derived from the in-repo PRNG seeded by
//! `(seed, site hash, hit index)`, so a given configuration replays the
//! same torn bytes on every run. Triggers are one-shot: after firing,
//! the site disarms itself so recovery on reopen is not re-injected.

use std::cell::RefCell;
use std::collections::HashMap;

use mduck_prng::{RngCore, SeedableRng, SplitMix64};

/// The full catalog of durability failpoint sites.
pub const SITES: &[&str] = &[
    "wal.open.read",
    "wal.recover.truncate",
    "wal.append.header",
    "wal.append.payload",
    "wal.append.sync",
    "ckpt.write",
    "ckpt.sync",
    "ckpt.rename",
    "ckpt.truncate_wal",
];

const DEFAULT_SEED: u64 = 0xD0C5EED;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Plain I/O error; nothing reaches the file.
    Error,
    /// A strict prefix of the bytes reaches the file, then an error.
    ShortWrite,
    /// Simulated process death: torn bytes stay on disk, the manager is
    /// poisoned, and only a reopen recovers.
    Crash,
}

/// The verdict [`check`] hands back to the I/O site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailDecision {
    Proceed,
    /// Fire with `action`; `raw` is the deterministic PRNG draw the
    /// site uses to pick a torn-prefix length (`raw % len`).
    Fail { action: FailAction, raw: u64 },
}

struct SiteState {
    /// `(action, fire_on_hit)` — 1-based hit index; one-shot.
    armed: Option<(FailAction, u64)>,
    hits: u64,
}

struct FailRegistry {
    sites: HashMap<String, SiteState>,
    seed: u64,
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_action(s: &str) -> Option<FailAction> {
    match s {
        "error" => Some(FailAction::Error),
        "short" => Some(FailAction::ShortWrite),
        "crash" => Some(FailAction::Crash),
        _ => None,
    }
}

/// Run `f` on the calling thread's registry, seeding it from the
/// environment on first use.
fn with_registry<R>(f: impl FnOnce(&mut FailRegistry) -> R) -> R {
    thread_local! {
        static REG: RefCell<FailRegistry> = RefCell::new(FailRegistry::from_env());
    }
    REG.with(|reg| f(&mut reg.borrow_mut()))
}

impl FailRegistry {
    fn from_env() -> Self {
        let seed = std::env::var("MDUCK_FAILPOINT_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(DEFAULT_SEED);
        let mut reg = FailRegistry { sites: HashMap::new(), seed };
        if let Ok(spec) = std::env::var("MDUCK_FAILPOINTS") {
            apply_spec(&mut reg, &spec);
        }
        reg
    }
}

fn apply_spec(reg: &mut FailRegistry, spec: &str) {
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let Some((site, rest)) = entry.split_once('=') else { continue };
        let (action_str, at) = match rest.split_once('@') {
            Some((a, n)) => (a, n.parse::<u64>().unwrap_or(1).max(1)),
            None => (rest, 1),
        };
        if let Some(action) = parse_action(action_str.trim()) {
            reg.sites.insert(
                site.trim().to_string(),
                SiteState { armed: Some((action, at)), hits: 0 },
            );
        }
    }
}

/// Consult (and count) the failpoint at `site`. Never blocks on I/O.
pub fn check(site: &str) -> FailDecision {
    with_registry(|reg| {
        let seed = reg.seed;
        let state = reg
            .sites
            .entry(site.to_string())
            .or_insert(SiteState { armed: None, hits: 0 });
        state.hits += 1;
        if let Some((action, at)) = state.armed {
            if state.hits == at {
                state.armed = None; // one-shot
                let mut rng = SplitMix64::seed_from_u64(seed ^ fnv1a(site) ^ state.hits);
                let raw = rng.next_u64();
                mduck_obs::metrics::metrics().wal_failpoint_trips.inc(1);
                return FailDecision::Fail { action, raw };
            }
        }
        FailDecision::Proceed
    })
}

/// Arm `site` to fire `action` on its `after`-th hit (1-based, one-shot).
pub fn set(site: &str, action: FailAction, after: u64) {
    with_registry(|reg| {
        reg.sites.insert(
            site.to_string(),
            SiteState { armed: Some((action, after.max(1))), hits: 0 },
        );
    })
}

/// Disarm every site and zero all hit counters.
pub fn clear_all() {
    with_registry(|reg| reg.sites.clear())
}

/// Per-site hit totals since the last clear, sorted by name.
pub fn hit_counts() -> Vec<(String, u64)> {
    with_registry(|reg| {
        let mut out: Vec<(String, u64)> =
            reg.sites.iter().map(|(k, v)| (k.clone(), v.hits)).collect();
        out.sort();
        out
    })
}

/// Override the PRNG seed (tests); env `MDUCK_FAILPOINT_SEED` sets the
/// initial value.
pub fn set_seed(seed: u64) {
    with_registry(|reg| reg.seed = seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is per thread and the harness runs each test on a
    // thread of its own, so tests cannot see each other's sites.

    #[test]
    fn one_shot_fires_on_exact_hit() {
        clear_all();
        set("test.site.a", FailAction::Error, 3);
        assert_eq!(check("test.site.a"), FailDecision::Proceed);
        assert_eq!(check("test.site.a"), FailDecision::Proceed);
        match check("test.site.a") {
            FailDecision::Fail { action, .. } => assert_eq!(action, FailAction::Error),
            other => panic!("expected fire, got {other:?}"),
        }
        // One-shot: disarmed afterwards.
        assert_eq!(check("test.site.a"), FailDecision::Proceed);
        clear_all();
    }

    #[test]
    fn raw_draw_is_deterministic_in_seed_site_and_hit() {
        clear_all();
        set_seed(99);
        set("test.site.b", FailAction::ShortWrite, 2);
        let _ = check("test.site.b");
        let first = check("test.site.b");
        clear_all();
        set_seed(99);
        set("test.site.b", FailAction::ShortWrite, 2);
        let _ = check("test.site.b");
        let second = check("test.site.b");
        assert_eq!(first, second);
        clear_all();
        set_seed(DEFAULT_SEED);
    }

    #[test]
    fn sites_armed_on_one_thread_stay_quiet_on_another() {
        clear_all();
        set("test.site.c", FailAction::Crash, 1);
        let elsewhere = std::thread::spawn(|| check("test.site.c")).join();
        assert_eq!(elsewhere.ok(), Some(FailDecision::Proceed));
        assert!(matches!(check("test.site.c"), FailDecision::Fail { .. }));
        clear_all();
    }

    #[test]
    fn spec_parsing() {
        let mut reg = FailRegistry { sites: HashMap::new(), seed: 0 };
        apply_spec(&mut reg, "a.b=crash@3, c.d=error ,bogus,e=nope@2");
        assert_eq!(reg.sites.len(), 2);
        assert_eq!(reg.sites["a.b"].armed, Some((FailAction::Crash, 3)));
        assert_eq!(reg.sites["c.d"].armed, Some((FailAction::Error, 1)));
    }
}
