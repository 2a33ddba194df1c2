//! Time source abstraction.
//!
//! Gallery orders instance versions by creation time (§3.4.1, Fig 4) and
//! rules reference `created_time` (Listing 1). Production uses the system
//! clock; tests and the discrete-event simulator need a controllable one.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

pub use gallery_telemetry::{Clock, SystemClock};

/// Milliseconds since the UNIX epoch.
pub type TimestampMs = i64;

/// Manually advanced clock for deterministic tests and simulations. Each
/// `now_ms` call returns a strictly increasing value (ties broken by an
/// internal tick) so records created "at the same time" still have a
/// stable order.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    inner: Arc<ManualInner>,
}

/// Two atomics rather than a lock: the set time and the last reading
/// handed out. Readings stay strictly increasing under any interleaving
/// because the last reading only moves through `fetch_update`.
#[derive(Debug, Default)]
struct ManualInner {
    now: AtomicI64,
    last_issued: AtomicI64,
}

impl ManualClock {
    pub fn new(start_ms: TimestampMs) -> Self {
        ManualClock {
            inner: Arc::new(ManualInner {
                now: AtomicI64::new(start_ms),
                last_issued: AtomicI64::new(start_ms - 1),
            }),
        }
    }

    /// Advance the clock by `delta_ms`.
    pub fn advance(&self, delta_ms: TimestampMs) {
        self.inner.now.fetch_add(delta_ms, Ordering::SeqCst);
    }

    /// Set the clock to an absolute time.
    pub fn set(&self, now_ms: TimestampMs) {
        self.inner.now.store(now_ms, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> TimestampMs {
        let now = self.inner.now.load(Ordering::SeqCst);
        next_after(&self.inner.last_issued, now)
    }
}

/// Hand out `now`, or one past the last reading if `now` is not later,
/// and remember it as the last reading.
fn next_after(last: &AtomicI64, now: TimestampMs) -> TimestampMs {
    let step = |prev: TimestampMs| now.max(prev.saturating_add(1));
    match last.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |prev| Some(step(prev))) {
        Ok(prev) | Err(prev) => step(prev),
    }
}

/// A way to wait. Retry backoff needs to sleep between attempts;
/// production sleeps for real, tests and the chaos experiment advance a
/// [`ManualClock`] instead so a thousand retries cost zero wall time.
pub trait Sleeper: Send + Sync {
    fn sleep_ms(&self, ms: u64);
}

/// Really blocks the thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemSleeper;

impl Sleeper for SystemSleeper {
    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// "Sleeps" by advancing a [`ManualClock`]: simulated time passes, wall
/// time does not. Pair it with the same clock the code under test reads.
#[derive(Debug, Clone)]
pub struct SimulatedSleeper {
    clock: ManualClock,
}

impl SimulatedSleeper {
    pub fn new(clock: ManualClock) -> Self {
        SimulatedSleeper { clock }
    }
}

impl Sleeper for SimulatedSleeper {
    fn sleep_ms(&self, ms: u64) {
        self.clock.advance(ms as TimestampMs);
    }
}

/// Wraps any clock so consecutive reads are strictly increasing (ties get
/// +1 ms). Gallery applies this to every clock it is given: record
/// ordering ("latest instance", "current stage", "production pointer")
/// relies on distinct creation timestamps, and wall clocks tie within a
/// millisecond under load.
pub struct MonotonicClock {
    inner: Arc<dyn Clock>,
    last: AtomicI64,
}

impl MonotonicClock {
    pub fn wrap(inner: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(MonotonicClock {
            inner,
            last: AtomicI64::new(i64::MIN),
        })
    }
}

impl Clock for MonotonicClock {
    fn now_ms(&self) -> TimestampMs {
        next_after(&self.last, self.inner.now_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_plausible() {
        let t = SystemClock.now_ms();
        // after 2020-01-01 and before 2100
        assert!(t > 1_577_836_800_000);
        assert!(t < 4_102_444_800_000);
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new(1000);
        let a = c.now_ms();
        c.advance(500);
        let b = c.now_ms();
        assert!(b >= a + 500);
    }

    #[test]
    fn manual_clock_is_strictly_monotone() {
        let c = ManualClock::new(0);
        let mut prev = c.now_ms();
        for _ in 0..10 {
            let t = c.now_ms();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn manual_clock_shared_across_clones() {
        let c = ManualClock::new(0);
        let c2 = c.clone();
        c.advance(100);
        assert!(c2.now_ms() >= 100);
    }

    #[test]
    fn simulated_sleeper_advances_clock_not_wall_time() {
        let clock = ManualClock::new(0);
        let sleeper = SimulatedSleeper::new(clock.clone());
        let wall_start = std::time::Instant::now();
        sleeper.sleep_ms(3_600_000); // one simulated hour
        assert!(clock.now_ms() >= 3_600_000);
        assert!(wall_start.elapsed() < std::time::Duration::from_secs(1));
    }
}

#[cfg(test)]
mod monotonic_tests {
    use super::*;

    /// A clock frozen at one instant.
    struct Frozen;
    impl Clock for Frozen {
        fn now_ms(&self) -> TimestampMs {
            1_000
        }
    }

    #[test]
    fn monotonic_breaks_ties() {
        let clock = MonotonicClock::wrap(Arc::new(Frozen));
        let a = clock.now_ms();
        let b = clock.now_ms();
        let c = clock.now_ms();
        assert!(a < b && b < c);
        assert_eq!(a, 1_000);
    }

    #[test]
    fn monotonic_readings_are_distinct_across_threads() {
        let clock = MonotonicClock::wrap(Arc::new(Frozen));
        let start = std::sync::Barrier::new(4);
        let mut readings: Vec<TimestampMs> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..250).map(|_| clock.now_ms()).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        readings.sort_unstable();
        readings.dedup();
        assert_eq!(readings.len(), 1_000, "every reading is handed out once");
        assert_eq!(readings[0], 1_000);
        assert_eq!(readings[999], 1_999);
    }

    #[test]
    fn monotonic_follows_advancing_clock() {
        let manual = ManualClock::new(5_000);
        let clock = MonotonicClock::wrap(Arc::new(manual.clone()));
        let a = clock.now_ms();
        manual.advance(10_000);
        let b = clock.now_ms();
        assert!(b >= 15_000, "jumps forward with the inner clock: {b}");
        assert!(b > a);
    }
}
