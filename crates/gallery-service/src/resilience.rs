//! Client-side resilience: retries with deterministic jittered backoff,
//! per-call deadlines, and per-endpoint circuit breaking.
//!
//! Gallery's service tier is stateless and horizontally replicated (§4.1),
//! so any individual call can fail transiently — a replica restarting, a
//! queue hiccup, a dropped response. The client absorbs those with a
//! bounded retry loop. Three rules keep retries safe and non-amplifying:
//!
//! 1. **Only transport failures retry.** A [`crate::messages::Response::Err`]
//!    is a verdict from the server: retrying it would re-ask a question
//!    that was already answered. See [`crate::client::ClientError::is_retryable`].
//! 2. **Mutating requests carry idempotency keys.** A lost *response*
//!    (the [`gallery_store::fault::sites::RPC_RECV`] case) leaves the
//!    client unable to tell whether the server applied the write; the
//!    keyed envelope lets the server replay the recorded response instead
//!    of re-applying.
//! 3. **Breakers stop retry storms.** When an endpoint's recent failure
//!    rate crosses a threshold the breaker opens and calls fail fast
//!    without touching the wire, then a half-open probe tests recovery.
//!
//! Everything is driven by an injectable [`Clock`] and [`Sleeper`] so
//! tests and the chaos experiment run in simulated time: a thousand
//! backoff sleeps cost zero wall-clock seconds.

use gallery_core::clock::{Clock, Sleeper, TimestampMs};
use gallery_sync::locks::{OrderedMutex, OrderedMutexGuard};
use gallery_sync::rank;
use gallery_telemetry::{kinds, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Exponential backoff with bounded, seed-deterministic jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry, un-jittered.
    pub base_delay_ms: u64,
    /// Cap on any single delay.
    pub max_delay_ms: u64,
    /// Growth factor per retry.
    pub multiplier: f64,
    /// Fraction of each delay that is randomized ("equal jitter"): 0.0
    /// keeps the full deterministic delay, 1.0 randomizes all of it.
    pub jitter: f64,
    /// Budget for the whole call including backoff; when the next sleep
    /// would cross it, the call gives up with the last error.
    pub deadline_ms: Option<u64>,
}

impl RetryPolicy {
    /// One attempt, no waiting: the baseline arm of the chaos experiment.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            multiplier: 1.0,
            jitter: 0.0,
            deadline_ms: None,
        }
    }

    /// Sensible default: 4 attempts, 10ms → 20ms → 40ms (±half), 5s budget.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 1_000,
            multiplier: 2.0,
            jitter: 0.5,
            deadline_ms: Some(5_000),
        }
    }

    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Un-jittered delay before retry number `retry` (0-based).
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let raw = self.base_delay_ms as f64 * self.multiplier.powi(retry as i32);
        (raw as u64).min(self.max_delay_ms)
    }

    /// Jittered delay before retry number `retry`. Equal-jitter: the fixed
    /// `(1 - jitter)` share always elapses, the rest is uniform random —
    /// bounded below (no thundering zero-delay herd) and above (never more
    /// than the full exponential step).
    pub fn delay_ms(&self, retry: u32, rng: &mut StdRng) -> u64 {
        let full = self.backoff_ms(retry);
        if self.jitter <= 0.0 || full == 0 {
            return full;
        }
        let fixed = (full as f64 * (1.0 - self.jitter.clamp(0.0, 1.0))) as u64;
        let spread = full - fixed;
        fixed
            + if spread > 0 {
                rng.gen_range(0..=spread)
            } else {
                0
            }
    }

    /// The full delay schedule a call with this policy and seed would use
    /// if every attempt failed. Same seed ⇒ same schedule.
    pub fn schedule(&self, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.max_attempts.saturating_sub(1))
            .map(|retry| self.delay_ms(retry, &mut rng))
            .collect()
    }
}

/// Breaker tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window of recent call outcomes per endpoint.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_calls: usize,
    /// Open when `failures / outcomes >= failure_threshold`.
    pub failure_threshold: f64,
    /// How long an open breaker rejects before allowing a half-open probe.
    pub open_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            min_calls: 8,
            failure_threshold: 0.5,
            open_ms: 1_000,
        }
    }
}

/// Breaker state machine: Closed → Open → HalfOpen → {Closed, Open}.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; outcomes are recorded.
    Closed,
    /// Calls fail fast until `open_ms` elapses.
    Open,
    /// One probe call is in flight; its outcome decides the next state.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label used in telemetry events, metric labels, and
    /// the CLI.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug)]
struct EndpointBreaker {
    state: BreakerState,
    // true = failure
    outcomes: VecDeque<bool>,
    opened_at: TimestampMs,
    probe_in_flight: bool,
    transitions: Vec<(BreakerState, TimestampMs)>,
}

impl EndpointBreaker {
    fn new() -> Self {
        EndpointBreaker {
            state: BreakerState::Closed,
            outcomes: VecDeque::new(),
            opened_at: 0,
            probe_in_flight: false,
            transitions: Vec::new(),
        }
    }

    fn transition(&mut self, next: BreakerState, now: TimestampMs) {
        self.state = next;
        self.transitions.push((next, now));
    }
}

/// Per-endpoint circuit breakers sharing one config and clock. Endpoints
/// are keyed by [`crate::messages::Request::method_name`]; a storm on
/// `uploadModel` never blocks `getModel`.
///
/// Only *transport-classified* failures count against the breaker: a
/// server that answers "no such model" is a healthy server.
pub struct CircuitBreaker {
    config: BreakerConfig,
    clock: Arc<dyn Clock>,
    endpoints: OrderedMutex<HashMap<String, EndpointBreaker>>,
    telemetry: Arc<Telemetry>,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        CircuitBreaker {
            config,
            clock,
            endpoints: OrderedMutex::new(rank::BREAKER, HashMap::new()),
            telemetry: Arc::clone(gallery_telemetry::global()),
        }
    }

    /// Record state transitions into `telemetry` instead of the global
    /// bundle (`gallery_breaker_transitions_total` plus a
    /// `breaker.transition` event per flip).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Count and report one state flip. Called with the endpoint map
    /// locked; both telemetry sinks use their own leaf locks, so there is
    /// no ordering hazard.
    fn note_transition(&self, endpoint: &str, next: BreakerState, now: TimestampMs) {
        self.telemetry
            .registry()
            .counter(
                "gallery_breaker_transitions_total",
                &[("endpoint", endpoint), ("to", next.as_str())],
            )
            .inc();
        self.telemetry.events().emit(
            kinds::BREAKER_TRANSITION,
            vec![
                ("endpoint", endpoint.to_string().into()),
                ("to", next.as_str().into()),
                ("at_ms", now.to_string().into()),
            ],
        );
    }

    /// Ask to place a call on `endpoint`. `false` means fail fast without
    /// touching the wire. An open breaker past its cool-down flips to
    /// half-open and admits exactly one probe.
    pub fn admit(&self, endpoint: &str) -> bool {
        let now = self.clock.now_ms();
        let mut endpoints = self.endpoints.lock();
        let b = endpoints
            .entry(endpoint.to_owned())
            .or_insert_with(EndpointBreaker::new);
        match b.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= b.opened_at + self.config.open_ms as TimestampMs {
                    b.transition(BreakerState::HalfOpen, now);
                    b.probe_in_flight = true;
                    self.note_transition(endpoint, BreakerState::HalfOpen, now);
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if b.probe_in_flight {
                    false
                } else {
                    b.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Record the outcome of an admitted call.
    pub fn record(&self, endpoint: &str, success: bool) {
        let now = self.clock.now_ms();
        let mut endpoints = self.endpoints.lock();
        let b = endpoints
            .entry(endpoint.to_owned())
            .or_insert_with(EndpointBreaker::new);
        match b.state {
            BreakerState::HalfOpen => {
                b.probe_in_flight = false;
                if success {
                    b.outcomes.clear();
                    b.transition(BreakerState::Closed, now);
                    self.note_transition(endpoint, BreakerState::Closed, now);
                } else {
                    b.opened_at = now;
                    b.transition(BreakerState::Open, now);
                    self.note_transition(endpoint, BreakerState::Open, now);
                }
            }
            BreakerState::Closed => {
                b.outcomes.push_back(!success);
                while b.outcomes.len() > self.config.window {
                    b.outcomes.pop_front();
                }
                let n = b.outcomes.len();
                if n >= self.config.min_calls {
                    let failures = b.outcomes.iter().filter(|&&f| f).count();
                    if failures as f64 / n as f64 >= self.config.failure_threshold {
                        b.opened_at = now;
                        b.transition(BreakerState::Open, now);
                        self.note_transition(endpoint, BreakerState::Open, now);
                    }
                }
            }
            // A late outcome for a call admitted before the breaker
            // opened: ignore, the window restarts on recovery.
            BreakerState::Open => {}
        }
    }

    pub fn state(&self, endpoint: &str) -> BreakerState {
        self.endpoints
            .lock()
            .get(endpoint)
            .map(|b| b.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Transition log for an endpoint: (new state, at clock ms).
    pub fn transitions(&self, endpoint: &str) -> Vec<(BreakerState, TimestampMs)> {
        self.endpoints
            .lock()
            .get(endpoint)
            .map(|b| b.transitions.clone())
            .unwrap_or_default()
    }

    /// Total transitions across all endpoints (chaos report metric).
    pub fn transition_count(&self) -> usize {
        self.endpoints
            .lock()
            .values()
            .map(|b| b.transitions.len())
            .sum()
    }
}

/// Counters the retry loop maintains; snapshot via [`Resilience::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Logical calls issued through the resilient path.
    pub calls: u64,
    /// Physical attempts placed on the wire.
    pub attempts: u64,
    /// Attempts beyond the first.
    pub retries: u64,
    /// Calls rejected without touching the wire (breaker open).
    pub breaker_rejections: u64,
    /// Calls abandoned because the deadline budget ran out.
    pub deadline_exhausted: u64,
    /// Total simulated/real backoff slept, ms.
    pub backoff_ms_total: u64,
}

/// Bundle of retry policy, breaker, clock, sleeper, RNG, and idempotency
/// key source that [`crate::client::GalleryClient::with_resilience`]
/// attaches to a client.
pub struct Resilience {
    policy: RetryPolicy,
    breaker: Option<CircuitBreaker>,
    clock: Arc<dyn Clock>,
    sleeper: Arc<dyn Sleeper>,
    rng: OrderedMutex<StdRng>,
    key_prefix: String,
    key_counter: AtomicU64,
    stats: OrderedMutex<ResilienceStats>,
    telemetry: Arc<Telemetry>,
}

impl Resilience {
    /// `seed` drives both jitter and the idempotency key prefix, so a
    /// fixed seed makes an entire client run reproducible.
    pub fn new(
        policy: RetryPolicy,
        clock: Arc<dyn Clock>,
        sleeper: Arc<dyn Sleeper>,
        seed: u64,
    ) -> Self {
        Resilience {
            policy,
            breaker: None,
            clock,
            sleeper,
            rng: OrderedMutex::new(rank::RETRY_RNG, StdRng::seed_from_u64(seed)),
            key_prefix: format!("c{seed:x}"),
            key_counter: AtomicU64::new(0),
            stats: OrderedMutex::new(rank::RESILIENCE_STATS, ResilienceStats::default()),
            telemetry: Arc::clone(gallery_telemetry::global()),
        }
    }

    /// Attach a circuit breaker (sharing this bundle's clock and
    /// telemetry).
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(
            CircuitBreaker::new(config, Arc::clone(&self.clock))
                .with_telemetry(Arc::clone(&self.telemetry)),
        );
        self
    }

    /// Record retry-loop telemetry into an explicit bundle instead of the
    /// global one. Also re-points an already-attached breaker, so the
    /// builder order relative to [`Resilience::with_breaker`] does not
    /// matter.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        if let Some(b) = self.breaker.take() {
            self.breaker = Some(b.with_telemetry(Arc::clone(&telemetry)));
        }
        self.telemetry = telemetry;
        self
    }

    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    pub fn sleeper(&self) -> &Arc<dyn Sleeper> {
        &self.sleeper
    }

    /// Mint a fresh idempotency key. Unique per logical operation; the
    /// *same* key is re-sent on every retry of that operation.
    pub fn next_key(&self) -> String {
        let n = self.key_counter.fetch_add(1, Ordering::Relaxed);
        format!("{}-{n}", self.key_prefix)
    }

    /// Jittered delay for retry number `retry` of the current call.
    pub fn next_delay_ms(&self, retry: u32) -> u64 {
        self.policy.delay_ms(retry, &mut self.rng.lock())
    }

    pub fn stats(&self) -> ResilienceStats {
        *self.stats.lock()
    }

    pub(crate) fn stats_mut(&self) -> OrderedMutexGuard<'_, ResilienceStats> {
        self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gallery_core::clock::ManualClock;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 10,
            max_delay_ms: 100,
            multiplier: 2.0,
            jitter: 0.0,
            deadline_ms: None,
        };
        assert_eq!(p.backoff_ms(0), 10);
        assert_eq!(p.backoff_ms(1), 20);
        assert_eq!(p.backoff_ms(2), 40);
        assert_eq!(p.backoff_ms(3), 80);
        assert_eq!(p.backoff_ms(4), 100); // capped, not 160
        assert_eq!(p.backoff_ms(9), 100);
    }

    #[test]
    fn jitter_stays_within_equal_jitter_bounds() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::standard()
        };
        let mut rng = StdRng::seed_from_u64(42);
        for retry in 0..3 {
            let full = p.backoff_ms(retry);
            for _ in 0..200 {
                let d = p.delay_ms(retry, &mut rng);
                assert!(d >= full / 2, "delay {d} below fixed share of {full}");
                assert!(d <= full, "delay {d} above full step {full}");
            }
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = RetryPolicy::standard().with_max_attempts(6);
        assert_eq!(p.schedule(123), p.schedule(123));
        assert_ne!(p.schedule(123), p.schedule(124)); // overwhelmingly likely
        assert_eq!(p.schedule(123).len(), 5);
    }

    #[test]
    fn zero_jitter_schedule_is_exact() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 1_000,
            multiplier: 2.0,
            jitter: 0.0,
            deadline_ms: None,
        };
        assert_eq!(p.schedule(0), vec![10, 20, 40]);
    }

    fn breaker_on(clock: &ManualClock) -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig {
                window: 8,
                min_calls: 4,
                failure_threshold: 0.5,
                open_ms: 1_000,
            },
            Arc::new(clock.clone()),
        )
    }

    #[test]
    fn breaker_opens_on_failure_rate() {
        let clock = ManualClock::new(0);
        let b = breaker_on(&clock);
        for _ in 0..3 {
            assert!(b.admit("uploadModel"));
            b.record("uploadModel", false);
            assert_eq!(b.state("uploadModel"), BreakerState::Closed); // below min_calls
        }
        assert!(b.admit("uploadModel"));
        b.record("uploadModel", false);
        assert_eq!(b.state("uploadModel"), BreakerState::Open);
        assert!(!b.admit("uploadModel")); // fail fast
    }

    #[test]
    fn breaker_half_open_probe_recovers() {
        let clock = ManualClock::new(0);
        let b = breaker_on(&clock);
        for _ in 0..4 {
            b.admit("m");
            b.record("m", false);
        }
        assert_eq!(b.state("m"), BreakerState::Open);
        // Before the cool-down: still rejecting.
        clock.advance(500);
        assert!(!b.admit("m"));
        // After: one probe admitted, concurrent calls still rejected.
        clock.advance(600);
        assert!(b.admit("m"));
        assert_eq!(b.state("m"), BreakerState::HalfOpen);
        assert!(!b.admit("m"));
        b.record("m", true);
        assert_eq!(b.state("m"), BreakerState::Closed);
        assert!(b.admit("m"));
        // Transition log tells the whole story.
        let states: Vec<BreakerState> = b.transitions("m").iter().map(|(s, _)| *s).collect();
        assert_eq!(
            states,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ]
        );
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        let clock = ManualClock::new(0);
        let b = breaker_on(&clock);
        for _ in 0..4 {
            b.admit("m");
            b.record("m", false);
        }
        clock.advance(2_000);
        assert!(b.admit("m")); // probe
        b.record("m", false);
        assert_eq!(b.state("m"), BreakerState::Open);
        assert!(!b.admit("m"));
        // It can still recover after another cool-down.
        clock.advance(2_000);
        assert!(b.admit("m"));
        b.record("m", true);
        assert_eq!(b.state("m"), BreakerState::Closed);
    }

    #[test]
    fn breaker_successes_keep_it_closed() {
        let clock = ManualClock::new(0);
        let b = breaker_on(&clock);
        for _ in 0..50 {
            assert!(b.admit("m"));
            b.record("m", true);
        }
        // An evenly spread sub-threshold failure mix stays closed too:
        // every third call fails, so any window holds at most 3/8 failures.
        for i in 0..24 {
            assert!(b.admit("m"));
            b.record("m", i % 3 != 0);
        }
        assert_eq!(b.state("m"), BreakerState::Closed);
    }

    #[test]
    fn breaker_endpoints_are_independent() {
        let clock = ManualClock::new(0);
        let b = breaker_on(&clock);
        for _ in 0..4 {
            b.admit("broken");
            b.record("broken", false);
        }
        assert_eq!(b.state("broken"), BreakerState::Open);
        assert!(b.admit("healthy"));
        assert_eq!(b.state("healthy"), BreakerState::Closed);
    }

    #[test]
    fn keys_are_unique_and_seed_scoped() {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new(0));
        let r = Resilience::new(
            RetryPolicy::standard(),
            clock,
            Arc::new(gallery_core::clock::SystemSleeper),
            7,
        );
        let a = r.next_key();
        let b = r.next_key();
        assert_ne!(a, b);
        assert!(a.starts_with("c7-"));
    }
}
