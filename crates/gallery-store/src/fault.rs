//! Deterministic fault injection for consistency experiments (E10).
//!
//! The paper (§3.5) prescribes blob-first write ordering so that "if the
//! model blob of a model instance is saved but the metadata fails to save,
//! then the model instance will not be available in the system". To test
//! that property we need controllable failures at each write site.

use gallery_sync::locks::OrderedMutex;
use gallery_sync::rank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Sites where a fault can be injected. Names are stable strings so that
/// experiments can configure them from the command line.
pub mod sites {
    pub const BLOB_PUT: &str = "blob.put";
    pub const BLOB_GET: &str = "blob.get";
    pub const BLOB_DELETE: &str = "blob.delete";
    pub const META_INSERT: &str = "meta.insert";
    pub const META_QUERY: &str = "meta.query";
    pub const WAL_APPEND: &str = "wal.append";
    pub const RPC_SEND: &str = "rpc.send";
    pub const RPC_RECV: &str = "rpc.recv";
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Fail with the given probability per call.
    Probability(f64),
    /// Fail exactly on the nth call (0-based), then never again.
    NthCall(u64),
    /// Fail the first n calls, then never again.
    FirstN(u64),
    /// Fail every call.
    Always,
}

#[derive(Debug, Default)]
struct SiteState {
    mode: Option<Mode>,
    calls: u64,
    fired: u64,
}

/// A shareable fault plan. Cloning shares state.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<OrderedMutex<FaultPlanInner>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            inner: Arc::new(OrderedMutex::new(
                rank::FAULT_PLAN,
                FaultPlanInner::default(),
            )),
        }
    }
}

#[derive(Debug)]
struct FaultPlanInner {
    sites: HashMap<String, SiteState>,
    rng: StdRng,
}

impl Default for FaultPlanInner {
    fn default() -> Self {
        FaultPlanInner {
            sites: HashMap::new(),
            rng: StdRng::seed_from_u64(0xFA17),
        }
    }
}

impl FaultPlan {
    /// A plan that never injects faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Seed the internal RNG (probabilistic faults become reproducible).
    pub fn with_seed(seed: u64) -> Self {
        let plan = Self::default();
        plan.inner.lock().rng = StdRng::seed_from_u64(seed);
        plan
    }

    /// Fail calls at `site` with probability `p`.
    pub fn fail_with_probability(&self, site: &str, p: f64) -> &Self {
        self.inner.lock().sites.insert(
            site.to_owned(),
            SiteState {
                mode: Some(Mode::Probability(p.clamp(0.0, 1.0))),
                ..Default::default()
            },
        );
        self
    }

    /// Fail exactly the `n`th (0-based) call at `site`.
    pub fn fail_nth_call(&self, site: &str, n: u64) -> &Self {
        self.inner.lock().sites.insert(
            site.to_owned(),
            SiteState {
                mode: Some(Mode::NthCall(n)),
                ..Default::default()
            },
        );
        self
    }

    /// Fail the first `n` calls at `site`, then let every later call
    /// through. This is the canonical "transient outage" shape for retry
    /// tests: an operation retried more than `n` times always succeeds.
    pub fn fail_first_n(&self, site: &str, n: u64) -> &Self {
        self.inner.lock().sites.insert(
            site.to_owned(),
            SiteState {
                mode: Some(Mode::FirstN(n)),
                ..Default::default()
            },
        );
        self
    }

    /// Fail every call at `site`.
    pub fn fail_always(&self, site: &str) -> &Self {
        self.inner.lock().sites.insert(
            site.to_owned(),
            SiteState {
                mode: Some(Mode::Always),
                ..Default::default()
            },
        );
        self
    }

    /// Stop injecting at `site`.
    pub fn clear(&self, site: &str) {
        self.inner.lock().sites.remove(site);
    }

    /// Record a call at `site`; returns `true` if the call should fail.
    pub fn should_fail(&self, site: &str) -> bool {
        let mut inner = self.inner.lock();
        let FaultPlanInner { sites, rng } = &mut *inner;
        let Some(state) = sites.get_mut(site) else {
            return false;
        };
        let Some(mode) = state.mode else { return false };
        let n = state.calls;
        state.calls += 1;
        let fail = match mode {
            Mode::Probability(p) => rng.gen_bool(p),
            Mode::NthCall(target) => n == target,
            Mode::FirstN(count) => n < count,
            Mode::Always => true,
        };
        if fail {
            state.fired += 1;
        }
        fail
    }

    /// How many times faults actually fired at `site`.
    pub fn fired(&self, site: &str) -> u64 {
        self.inner
            .lock()
            .sites
            .get(site)
            .map(|s| s.fired)
            .unwrap_or(0)
    }

    /// How many calls were observed at `site`.
    pub fn calls(&self, site: &str) -> u64 {
        self.inner
            .lock()
            .sites
            .get(site)
            .map(|s| s.calls)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let p = FaultPlan::none();
        for _ in 0..100 {
            assert!(!p.should_fail(sites::BLOB_PUT));
        }
    }

    #[test]
    fn always_fails() {
        let p = FaultPlan::none();
        p.fail_always(sites::META_INSERT);
        assert!(p.should_fail(sites::META_INSERT));
        assert!(p.should_fail(sites::META_INSERT));
        assert_eq!(p.fired(sites::META_INSERT), 2);
    }

    #[test]
    fn nth_call_fails_once() {
        let p = FaultPlan::none();
        p.fail_nth_call(sites::BLOB_PUT, 2);
        assert!(!p.should_fail(sites::BLOB_PUT));
        assert!(!p.should_fail(sites::BLOB_PUT));
        assert!(p.should_fail(sites::BLOB_PUT));
        assert!(!p.should_fail(sites::BLOB_PUT));
        assert_eq!(p.fired(sites::BLOB_PUT), 1);
        assert_eq!(p.calls(sites::BLOB_PUT), 4);
    }

    #[test]
    fn first_n_fails_then_recovers() {
        let p = FaultPlan::none();
        p.fail_first_n(sites::RPC_SEND, 3);
        assert!(p.should_fail(sites::RPC_SEND));
        assert!(p.should_fail(sites::RPC_SEND));
        assert!(p.should_fail(sites::RPC_SEND));
        assert!(!p.should_fail(sites::RPC_SEND));
        assert!(!p.should_fail(sites::RPC_SEND));
        assert_eq!(p.fired(sites::RPC_SEND), 3);
        assert_eq!(p.calls(sites::RPC_SEND), 5);
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let run = |seed| {
            let p = FaultPlan::with_seed(seed);
            p.fail_with_probability(sites::WAL_APPEND, 0.5);
            (0..64)
                .map(|_| p.should_fail(sites::WAL_APPEND))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // overwhelmingly likely
    }

    #[test]
    fn clear_stops_faults() {
        let p = FaultPlan::none();
        p.fail_always(sites::BLOB_GET);
        assert!(p.should_fail(sites::BLOB_GET));
        p.clear(sites::BLOB_GET);
        assert!(!p.should_fail(sites::BLOB_GET));
    }

    #[test]
    fn sites_are_independent() {
        let p = FaultPlan::none();
        p.fail_always(sites::BLOB_PUT);
        assert!(p.should_fail(sites::BLOB_PUT));
        assert!(!p.should_fail(sites::META_INSERT));
    }
}
