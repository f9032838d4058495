//! Admission control: bounded concurrency and per-query memory budgets.
//!
//! The simulated cluster enforces per-worker memory during shuffles
//! (reproducing the paper's OOM bars), but that check fires *mid-flight*,
//! after shuffle work is already sunk, and under concurrency many admitted
//! queries can each be individually in-budget while collectively far over
//! it. The admission controller moves both decisions to the front door:
//!
//! * **Concurrency**: at most `max_concurrent` queries execute at once.
//!   Arrivals beyond that either wait on a condition variable
//!   ([`AdmissionPolicy::Queue`], FIFO-ish, bounded) or are turned away
//!   immediately ([`AdmissionPolicy::Reject`]) — the classic thread-pool
//!   versus load-shedding trade-off.
//! * **Memory**: the cluster-wide budget
//!   (`memory_limit_bytes × num_workers`) divided by `max_concurrent` gives
//!   each admitted query an equal share; a query whose *estimated* input
//!   footprint exceeds its share is rejected before any work happens. The
//!   estimate is the total bytes of the relations the query references.
//!   Every served execution joins over one trie per relation, indexed
//!   whole, so the estimate is a lower bound on what the query's indexes
//!   hold, and any query it rejects would genuinely have breached the
//!   budget.
//!
//! Permits are RAII: dropping an [`AdmissionPermit`] releases the slot and
//! wakes one waiter.

use crate::ServiceError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Acquires the occupancy lock, recovering from poison. The lock guards
/// two counters and two high-water marks — all updated atomically enough
/// that any interrupted critical section leaves them valid — and the
/// service isolates panics to their query, so refusing admission forever
/// after one caught panic would be strictly worse than recovering.
fn lock_recovering(m: &Mutex<Occupancy>) -> MutexGuard<'_, Occupancy> {
    m.lock().unwrap_or_else(|e| {
        m.clear_poison();
        e.into_inner()
    })
}

/// Policy for arrivals beyond the concurrency limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the caller until a slot frees, up to `max_waiting` concurrent
    /// waiters; further arrivals are rejected.
    Queue {
        /// Maximum number of queries waiting for a slot.
        max_waiting: usize,
        /// Longest a caller may wait for a slot before being shed with
        /// [`ServiceError::QueueTimeout`]; `None` waits indefinitely. A
        /// saturated service with a timeout can never park callers
        /// forever.
        timeout: Option<Duration>,
    },
    /// Never wait: reject as soon as all execution slots are busy.
    Reject,
}

/// Counters describing admission behaviour since service start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries granted an execution slot.
    pub admitted: u64,
    /// Queries rejected because execution and waiting capacity were full.
    pub rejected_capacity: u64,
    /// Queries rejected because their memory estimate exceeded the
    /// per-query budget.
    pub rejected_memory: u64,
    /// Queries shed because they waited out the queue timeout.
    pub timed_out: u64,
    /// Queries currently executing.
    pub running: usize,
    /// Queries currently waiting for a slot.
    pub waiting: usize,
    /// High-water mark of `running`.
    pub peak_running: usize,
    /// High-water mark of `waiting`.
    pub peak_waiting: usize,
}

#[derive(Debug, Default)]
struct Occupancy {
    running: usize,
    waiting: usize,
    peak_running: usize,
    peak_waiting: usize,
}

/// The gate every query passes before touching the cluster.
#[derive(Debug)]
pub struct AdmissionController {
    max_concurrent: usize,
    policy: AdmissionPolicy,
    occupancy: Mutex<Occupancy>,
    freed: Condvar,
    admitted: AtomicU64,
    rejected_capacity: AtomicU64,
    rejected_memory: AtomicU64,
    timed_out: AtomicU64,
}

impl AdmissionController {
    /// Creates a controller admitting `max_concurrent` queries at once
    /// (clamped to ≥ 1).
    pub fn new(max_concurrent: usize, policy: AdmissionPolicy) -> Self {
        AdmissionController {
            max_concurrent: max_concurrent.max(1),
            policy,
            occupancy: Mutex::new(Occupancy::default()),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected_capacity: AtomicU64::new(0),
            rejected_memory: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
        }
    }

    /// The concurrency limit.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// Requests an execution slot, waiting if the policy allows it (up to
    /// the queue timeout, when one is configured).
    pub fn admit(&self) -> Result<AdmissionPermit<'_>, ServiceError> {
        let (max_waiting, timeout) = match self.policy {
            AdmissionPolicy::Reject => (0, None),
            AdmissionPolicy::Queue { max_waiting, timeout } => (max_waiting, timeout),
        };
        self.admit_bounded(max_waiting, timeout)
    }

    /// [`AdmissionController::admit`] with an explicit per-call timeout
    /// (overriding the policy's) — lets one controller serve callers with
    /// different patience, and lets the race stress tests pit a
    /// short-deadline waiter against a long one.
    pub fn admit_with_timeout(
        &self,
        timeout: Option<Duration>,
    ) -> Result<AdmissionPermit<'_>, ServiceError> {
        let max_waiting = match self.policy {
            AdmissionPolicy::Reject => 0,
            AdmissionPolicy::Queue { max_waiting, .. } => max_waiting,
        };
        self.admit_bounded(max_waiting, timeout)
    }

    fn admit_bounded(
        &self,
        max_waiting: usize,
        timeout: Option<Duration>,
    ) -> Result<AdmissionPermit<'_>, ServiceError> {
        let mut occ = lock_recovering(&self.occupancy);
        if occ.running >= self.max_concurrent {
            if occ.waiting >= max_waiting {
                self.rejected_capacity.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::RejectedCapacity {
                    running: occ.running,
                    waiting: occ.waiting,
                });
            }
            occ.waiting += 1;
            occ.peak_waiting = occ.peak_waiting.max(occ.waiting);
            let deadline = timeout.map(|t| (t, Instant::now() + t));
            while occ.running >= self.max_concurrent {
                occ = match deadline {
                    None => self.freed.wait(occ).unwrap_or_else(|e| {
                        self.occupancy.clear_poison();
                        e.into_inner()
                    }),
                    Some((configured, deadline)) => {
                        let now = Instant::now();
                        if now >= deadline {
                            occ.waiting -= 1;
                            let reraise = occ.waiting > 0;
                            self.timed_out.fetch_add(1, Ordering::Relaxed);
                            drop(occ);
                            // Lost-notification hand-off: `notify_one` from a
                            // concurrent release may have chosen *this*
                            // waiter, which is now leaving without taking
                            // the slot. Without re-raising, the freed slot
                            // would sit idle while another waiter sleeps out
                            // its full timeout (or forever, with `None`) —
                            // the leaked-slot race. A spurious wake-up is
                            // harmless: woken waiters re-check `running`
                            // under the lock.
                            if reraise {
                                self.freed.notify_one();
                            }
                            return Err(ServiceError::QueueTimeout { timeout: configured });
                        }
                        let (occ, _timed_out) =
                            self.freed.wait_timeout(occ, deadline - now).unwrap_or_else(|e| {
                                self.occupancy.clear_poison();
                                e.into_inner()
                            });
                        occ
                    }
                };
            }
            occ.waiting -= 1;
        }
        occ.running += 1;
        occ.peak_running = occ.peak_running.max(occ.running);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit { controller: self })
    }

    /// Records a memory-budget rejection (decided by the service, which
    /// owns the size estimate) so the stats tell one story.
    pub fn note_memory_rejection(&self) {
        self.rejected_memory.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> AdmissionStats {
        let occ = lock_recovering(&self.occupancy);
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_capacity: self.rejected_capacity.load(Ordering::Relaxed),
            rejected_memory: self.rejected_memory.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            running: occ.running,
            waiting: occ.waiting,
            peak_running: occ.peak_running,
            peak_waiting: occ.peak_waiting,
        }
    }

    fn release(&self) {
        let mut occ = lock_recovering(&self.occupancy);
        debug_assert!(occ.running > 0, "release without matching admit");
        occ.running -= 1;
        drop(occ);
        self.freed.notify_one();
    }
}

/// An execution slot; dropping it releases the slot and wakes one waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.controller.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn admits_up_to_limit_then_rejects_under_reject_policy() {
        let c = AdmissionController::new(2, AdmissionPolicy::Reject);
        let p1 = c.admit().unwrap();
        let _p2 = c.admit().unwrap();
        let err = c.admit().unwrap_err();
        assert!(matches!(err, ServiceError::RejectedCapacity { running: 2, waiting: 0 }));
        drop(p1);
        let _p3 = c.admit().expect("slot freed by drop");
        let s = c.stats();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.rejected_capacity, 1);
        assert_eq!(s.peak_running, 2);
    }

    #[test]
    fn queue_policy_blocks_then_proceeds() {
        let c = Arc::new(AdmissionController::new(
            1,
            AdmissionPolicy::Queue { max_waiting: 4, timeout: None },
        ));
        let order = Arc::new(AtomicUsize::new(0));
        let permit = c.admit().unwrap();
        let t = {
            let c = Arc::clone(&c);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let _p = c.admit().unwrap(); // blocks until the main permit drops
                order.fetch_add(1, Ordering::SeqCst);
            })
        };
        // Let the thread reach the wait; it must not have been admitted.
        while c.stats().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(order.load(Ordering::SeqCst), 0);
        drop(permit);
        t.join().unwrap();
        assert_eq!(order.load(Ordering::SeqCst), 1);
        let s = c.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.peak_waiting, 1);
        assert_eq!(s.running, 0);
    }

    #[test]
    fn queue_timeout_sheds_the_waiter() {
        let timeout = Duration::from_millis(20);
        let c = AdmissionController::new(
            1,
            AdmissionPolicy::Queue { max_waiting: 4, timeout: Some(timeout) },
        );
        let _held = c.admit().unwrap();
        let t0 = Instant::now();
        let err = c.admit().unwrap_err();
        assert!(matches!(err, ServiceError::QueueTimeout { .. }), "{err}");
        assert!(err.is_rejection());
        assert!(t0.elapsed() >= timeout, "must actually wait the timeout out");
        let s = c.stats();
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.waiting, 0, "a shed waiter must leave the queue");
        assert_eq!(s.admitted, 1);
    }

    #[test]
    fn queue_timeout_admits_when_slot_frees_in_time() {
        let c = Arc::new(AdmissionController::new(
            1,
            AdmissionPolicy::Queue { max_waiting: 4, timeout: Some(Duration::from_secs(30)) },
        ));
        let permit = c.admit().unwrap();
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.admit().map(drop))
        };
        while c.stats().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(permit);
        waiter.join().unwrap().expect("slot freed well before the timeout");
        assert_eq!(c.stats().timed_out, 0);
    }

    #[test]
    fn queue_overflow_rejects() {
        let c = Arc::new(AdmissionController::new(
            1,
            AdmissionPolicy::Queue { max_waiting: 1, timeout: None },
        ));
        let permit = c.admit().unwrap();
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || drop(c.admit().unwrap()))
        };
        while c.stats().waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // slot busy + queue full → immediate rejection
        assert!(c.admit().unwrap_err().is_rejection());
        drop(permit);
        waiter.join().unwrap();
        assert_eq!(c.stats().rejected_capacity, 1);
    }

    /// Stress regression for the lost-notification/leaked-slot race: a
    /// waiter that times out concurrently with a permit release may consume
    /// the release's `notify_one`. Without the hand-off re-notify, the
    /// remaining (long-timeout) waiter would sleep its whole timeout while
    /// the slot sat free. Here the long waiter must always be admitted
    /// promptly once the holder drops — across many racy iterations where
    /// the short waiter's deadline coincides with the release.
    #[test]
    fn timeout_racing_a_release_never_strands_the_slot() {
        for round in 0..60u64 {
            let c = Arc::new(AdmissionController::new(
                1,
                AdmissionPolicy::Queue { max_waiting: 8, timeout: Some(Duration::from_secs(30)) },
            ));
            let holder = c.admit().unwrap();
            // A short-timeout waiter whose deadline races the release below.
            let short = {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    c.admit_with_timeout(Some(Duration::from_micros(200 + round * 37))).map(drop)
                })
            };
            // A long-timeout waiter that must not be stranded.
            let long = {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    let permit = c.admit();
                    (permit.map(drop), t0.elapsed())
                })
            };
            // Let at least one waiter park, then release right around the
            // short waiter's deadline so the notify and its timeout race.
            while c.stats().waiting == 0 && c.stats().timed_out == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_micros(200 + round * 37));
            drop(holder);
            let _ = short.join().unwrap();
            let (long_result, waited) = long.join().unwrap();
            long_result.expect("long waiter must get the freed slot");
            assert!(
                waited < Duration::from_secs(10),
                "round {round}: long waiter stalled {waited:?} with a free slot"
            );
            let s = c.stats();
            assert_eq!(s.waiting, 0, "round {round}: no ghost waiters");
            assert_eq!(s.running, 0, "round {round}: slot returned");
        }
    }

    #[test]
    fn poisoned_admission_lock_recovers() {
        let c = AdmissionController::new(1, AdmissionPolicy::Reject);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = c.occupancy.lock().unwrap();
            panic!("poison the occupancy lock");
        }));
        assert!(c.occupancy.is_poisoned());
        // Admission, release, and stats all recover instead of wedging.
        let p = c.admit().expect("admission must survive a poisoned lock");
        drop(p);
        assert!(!c.occupancy.is_poisoned(), "recovery must clear the poison");
        let s = c.stats();
        assert_eq!(s.admitted, 1);
        assert_eq!(s.running, 0);
    }

    #[test]
    fn concurrency_never_exceeds_limit() {
        let c = Arc::new(AdmissionController::new(
            3,
            AdmissionPolicy::Queue { max_waiting: 64, timeout: None },
        ));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..16 {
                let c = Arc::clone(&c);
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                s.spawn(move || {
                    for _ in 0..20 {
                        let _p = c.admit().unwrap();
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(200));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak={}", peak.load(Ordering::SeqCst));
        assert_eq!(c.stats().admitted, 16 * 20);
        assert_eq!(c.stats().running, 0);
    }
}
