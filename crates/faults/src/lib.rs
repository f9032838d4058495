//! # adj-faults — cooperative cancellation and deterministic fault injection
//!
//! Two small, dependency-free building blocks the execution stack shares:
//!
//! * [`CancelToken`] — a cooperative cancellation flag with an optional
//!   deadline. The executor threads a token through the HCube routing
//!   loops and the Leapfrog row sinks and polls it every few thousand
//!   rows; [`CancelToken::none`] is a one-branch no-op for callers that
//!   never cancel, so the single-query library path pays nothing.
//! * [`FaultPlan`] / [`inject`] — a deterministic, optionally seeded fault
//!   plan that injects panics, delays, or cancellations at named
//!   [`FaultSite`]s inside the pipeline. Disabled (the default), every
//!   [`inject`] call is one relaxed atomic load; tests [`install`] a plan,
//!   run the workload, and drop the [`InstalledFaults`] guard to disarm.
//!
//! Injected panics unwind via [`std::panic::resume_unwind`] with a
//! `String` payload — they skip the global panic hook (no stderr noise in
//! chaos tests) and carry a recognizable message for the worker-failure
//! report to surface.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a [`CancelToken::check`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// `true` when the token's deadline elapsed; `false` for an explicit
    /// [`CancelToken::cancel`] (caller-driven or fault-injected).
    pub deadline: bool,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.deadline {
            write!(f, "deadline exceeded")
        } else {
            write!(f, "cancelled")
        }
    }
}

impl std::error::Error for Cancelled {}

/// Token state: live → cancelled (explicitly) or expired (deadline).
const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const EXPIRED: u8 = 2;

#[derive(Debug)]
struct Inner {
    state: AtomicU8,
    deadline: Option<Instant>,
}

/// A cooperative cancellation token: an atomic flag plus an optional
/// deadline, shared by cloning. [`CancelToken::none`] carries no state at
/// all — checking it is a single branch — so the token can be threaded
/// unconditionally through the execution stack.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// The inert token: never cancels, never expires, checks in one branch.
    pub const fn none() -> Self {
        CancelToken { inner: None }
    }

    /// A token with no deadline, cancellable via [`CancelToken::cancel`].
    pub fn manual() -> Self {
        CancelToken { inner: Some(Arc::new(Inner { state: AtomicU8::new(LIVE), deadline: None })) }
    }

    /// A token that expires at `deadline` (and stays cancellable).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner { state: AtomicU8::new(LIVE), deadline: Some(deadline) })),
        }
    }

    /// A token that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Whether this token can ever report cancellation (i.e. it is not
    /// [`CancelToken::none`]).
    pub fn is_cancellable(&self) -> bool {
        self.inner.is_some()
    }

    /// Requests cancellation. No-op on [`CancelToken::none`] and after the
    /// deadline already expired (the first cause wins).
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            let _ =
                inner.state.compare_exchange(LIVE, CANCELLED, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    /// Polls the token: `Ok(())` while live, [`Cancelled`] once cancelled
    /// or past the deadline. The first failure cause is sticky — a token
    /// that expired keeps reporting `deadline: true` even if `cancel` is
    /// called later, and vice versa.
    pub fn check(&self) -> Result<(), Cancelled> {
        let Some(inner) = &self.inner else { return Ok(()) };
        match inner.state.load(Ordering::Relaxed) {
            LIVE => {}
            CANCELLED => return Err(Cancelled { deadline: false }),
            _ => return Err(Cancelled { deadline: true }),
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                let _ = inner.state.compare_exchange(
                    LIVE,
                    EXPIRED,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // Re-read: a racing `cancel` may have won; its cause sticks.
                return match inner.state.load(Ordering::Relaxed) {
                    CANCELLED => Err(Cancelled { deadline: false }),
                    _ => Err(Cancelled { deadline: true }),
                };
            }
        }
        Ok(())
    }
}

/// Named places inside the pipeline where a [`FaultPlan`] can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The HCube shuffle's per-row routing loop (coordinator thread).
    ShuffleRoute,
    /// A worker's per-partition trie sort + build.
    TrieBuild,
    /// A worker's Leapfrog enumeration sink, and each morsel of the
    /// planner's sampling walks.
    JoinEnumerate,
    /// The heavy section of a mutation batch (overlay apply + cache patch).
    MutationApply,
    /// The coordinator's per-batch transport send (encode + delivery).
    TransportSend,
    /// A worker's per-batch transport receive (decode + append).
    TransportRecv,
}

/// All sites, for seeded plans and exhaustive test matrices.
pub const ALL_SITES: [FaultSite; 6] = [
    FaultSite::ShuffleRoute,
    FaultSite::TrieBuild,
    FaultSite::JoinEnumerate,
    FaultSite::MutationApply,
    FaultSite::TransportSend,
    FaultSite::TransportRecv,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::ShuffleRoute => 0,
            FaultSite::TrieBuild => 1,
            FaultSite::JoinEnumerate => 2,
            FaultSite::MutationApply => 3,
            FaultSite::TransportSend => 4,
            FaultSite::TransportRecv => 5,
        }
    }
}

/// What an armed fault does when its site is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Unwind with a recognizable `String` payload (skips the panic hook).
    Panic,
    /// Sleep, simulating a straggling worker or a stalled coordinator.
    Delay(Duration),
    /// Cancel the token threaded through the site.
    Cancel,
}

#[derive(Debug, Clone, Copy)]
struct FaultArm {
    site: FaultSite,
    /// Fire on the `nth` (0-based) hit of `site` after installation.
    nth: u64,
    action: FaultAction,
    fired: bool,
}

/// A deterministic fault plan: a set of (site, nth-hit, action) arms. Each
/// arm fires exactly once; hits are counted per site from the moment the
/// plan is [`install`]ed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    arms: Vec<FaultArm>,
}

impl FaultPlan {
    /// An empty plan (installs the counters but fires nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arm: perform `action` on the `nth` (0-based) hit of `site`.
    pub fn on(mut self, site: FaultSite, nth: u64, action: FaultAction) -> Self {
        self.arms.push(FaultArm { site, nth, action, fired: false });
        self
    }

    /// Panic on the `nth` hit of `site`.
    pub fn panic_at(self, site: FaultSite, nth: u64) -> Self {
        self.on(site, nth, FaultAction::Panic)
    }

    /// Cancel the site's token on the `nth` hit of `site`.
    pub fn cancel_at(self, site: FaultSite, nth: u64) -> Self {
        self.on(site, nth, FaultAction::Cancel)
    }

    /// Sleep `delay` on the `nth` hit of `site`.
    pub fn delay_at(self, site: FaultSite, nth: u64, delay: Duration) -> Self {
        self.on(site, nth, FaultAction::Delay(delay))
    }

    /// A deterministic pseudo-random plan: `arms` faults drawn from `seed`
    /// over all sites, with panic/cancel actions and small nth offsets.
    /// Identical seeds produce identical plans — the chaos matrix reruns
    /// under a second seed in CI to widen coverage without flaking.
    pub fn seeded(seed: u64, arms: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..arms {
            let site = ALL_SITES[(rng.next() % ALL_SITES.len() as u64) as usize];
            let nth = rng.next() % 3;
            let action = match rng.next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Cancel,
                _ => FaultAction::Delay(Duration::from_micros(rng.next() % 500)),
            };
            plan = plan.on(site, nth, action);
        }
        plan
    }
}

/// A tiny deterministic PRNG (SplitMix64) so seeded plans need no
/// dependencies.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[derive(Debug)]
struct ActivePlan {
    arms: Vec<FaultArm>,
    hits: [u64; ALL_SITES.len()],
}

/// Fast gate: a single relaxed load on the hot path while no plan is
/// installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<ActivePlan>> = Mutex::new(None);
/// Serializes tests that install fault plans: the injector is global, so
/// two concurrent installations would see each other's faults.
static TEST_GATE: Mutex<()> = Mutex::new(());

fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    // A panicking injection site can poison these locks by design; the
    // guarded state is always consistent (counter bumps + flag flips).
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Guard returned by [`install`]: the plan stays armed until it drops.
/// Holds a global test gate so concurrent installers serialize.
#[derive(Debug)]
pub struct InstalledFaults {
    _gate: MutexGuard<'static, ()>,
}

impl InstalledFaults {
    /// Per-site hit counts since installation (for assertions on reach).
    pub fn hits(&self, site: FaultSite) -> u64 {
        recover(ACTIVE.lock()).as_ref().map_or(0, |a| a.hits[site.index()])
    }

    /// Whether every arm of the installed plan has fired.
    pub fn all_fired(&self) -> bool {
        recover(ACTIVE.lock()).as_ref().is_some_and(|a| a.arms.iter().all(|arm| arm.fired))
    }
}

impl Drop for InstalledFaults {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *recover(ACTIVE.lock()) = None;
    }
}

/// Arms `plan` globally and returns the disarming guard. Tests holding the
/// guard are serialized process-wide (the injector is a global).
#[must_use = "faults disarm when the guard drops"]
pub fn install(plan: FaultPlan) -> InstalledFaults {
    let gate = recover(TEST_GATE.lock());
    *recover(ACTIVE.lock()) = Some(ActivePlan { arms: plan.arms, hits: [0; ALL_SITES.len()] });
    ENABLED.store(true, Ordering::SeqCst);
    InstalledFaults { _gate: gate }
}

/// The injection point the pipeline calls at each named site. Disabled
/// (no installed plan) this is one relaxed atomic load. Armed, it counts
/// the hit and performs at most one matching action: panicking via
/// [`panic::resume_unwind`] (hook-free, `String` payload), sleeping, or
/// cancelling `token`.
#[inline]
pub fn inject(site: FaultSite, token: &CancelToken) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    inject_armed(site, token);
}

#[cold]
fn inject_armed(site: FaultSite, token: &CancelToken) {
    let action = {
        let mut guard = recover(ACTIVE.lock());
        let Some(active) = guard.as_mut() else { return };
        let hit = active.hits[site.index()];
        active.hits[site.index()] += 1;
        let arm =
            active.arms.iter_mut().find(|arm| !arm.fired && arm.site == site && arm.nth == hit);
        match arm {
            Some(arm) => {
                arm.fired = true;
                Some(arm.action)
            }
            None => None,
        }
    };
    // The lock is released before acting: a panic here must not poison the
    // injector, and a delay must not serialize unrelated sites.
    match action {
        None => {}
        Some(FaultAction::Panic) => {
            panic::resume_unwind(Box::new(format!("injected fault: panic at {site:?}")))
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(FaultAction::Cancel) => token.cancel(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_cancels() {
        let t = CancelToken::none();
        assert!(!t.is_cancellable());
        t.cancel();
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn manual_cancel_is_sticky_and_shared() {
        let t = CancelToken::manual();
        assert_eq!(t.check(), Ok(()));
        let clone = t.clone();
        clone.cancel();
        assert_eq!(t.check(), Err(Cancelled { deadline: false }));
        assert_eq!(t.check(), Err(Cancelled { deadline: false }));
    }

    #[test]
    fn deadline_expiry_reports_deadline_cause() {
        let t = CancelToken::with_timeout(Duration::from_millis(5));
        assert_eq!(t.check(), Ok(()));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(t.check(), Err(Cancelled { deadline: true }));
        // The cause is sticky even after an explicit cancel.
        t.cancel();
        assert_eq!(t.check(), Err(Cancelled { deadline: true }));
    }

    #[test]
    fn explicit_cancel_beats_a_later_deadline() {
        let t = CancelToken::with_timeout(Duration::from_millis(5));
        t.cancel();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(t.check(), Err(Cancelled { deadline: false }));
    }

    #[test]
    fn inject_is_inert_without_a_plan() {
        // No install: nothing fires, nothing counts.
        inject(FaultSite::ShuffleRoute, &CancelToken::none());
    }

    #[test]
    fn armed_panic_fires_once_on_the_nth_hit() {
        let faults = install(FaultPlan::new().panic_at(FaultSite::TrieBuild, 2));
        let token = CancelToken::none();
        inject(FaultSite::TrieBuild, &token);
        inject(FaultSite::TrieBuild, &token);
        let caught = std::panic::catch_unwind(|| inject(FaultSite::TrieBuild, &token));
        let payload = caught.expect_err("third hit must panic");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("TrieBuild"), "{message}");
        // Fired arms stay quiet afterwards.
        inject(FaultSite::TrieBuild, &token);
        assert_eq!(faults.hits(FaultSite::TrieBuild), 4);
        assert!(faults.all_fired());
    }

    #[test]
    fn cancel_action_cancels_the_site_token() {
        let _faults = install(FaultPlan::new().cancel_at(FaultSite::JoinEnumerate, 0));
        let token = CancelToken::manual();
        inject(FaultSite::JoinEnumerate, &token);
        assert_eq!(token.check(), Err(Cancelled { deadline: false }));
    }

    #[test]
    fn dropping_the_guard_disarms() {
        {
            let _faults = install(FaultPlan::new().panic_at(FaultSite::MutationApply, 0));
        }
        inject(FaultSite::MutationApply, &CancelToken::none()); // must not panic
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(0xF00D, 6);
        let b = FaultPlan::seeded(0xF00D, 6);
        let c = FaultPlan::seeded(0xBEEF, 6);
        let key =
            |p: &FaultPlan| p.arms.iter().map(|a| (a.site, a.nth, a.action)).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c), "different seeds should differ (these do)");
        assert_eq!(a.arms.len(), 6);
    }
}
