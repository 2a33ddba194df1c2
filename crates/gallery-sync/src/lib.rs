//! Rank-checked synchronization for Gallery.
//!
//! The repo's answer to "nothing enforces the lock order": every lock in
//! the workspace is an [`OrderedMutex`] /
//! [`OrderedRwLock`] / [`OrderedCondvar`] carrying a declared [`Rank`]
//! from the closed table in [`rank`]. In debug/test builds (or whenever
//! [`checker::enable`] is called) each acquisition is validated against a
//! thread-local held-rank stack and recorded into a process-wide
//! acquired-before graph; violations surface as stable `GLnnnn`
//! diagnostics ([`diag::codes`]) rendered in the same rustc style as the
//! rule language's `RLnnnn` layer. Release builds pay one relaxed atomic
//! load per acquisition.
//!
//! The crate depends on nothing else in the workspace, so every other
//! crate — `gallery-telemetry` at the bottom of the stack included — takes
//! its locks from here.
//!
//! Consumers:
//! - `gallery-core` re-exports this crate as `gallery_core::sync`.
//! - `Probe{"lockgraph"}` and `gallery lockgraph [--dot]` dump
//!   [`checker::report`].
//! - `gallery-store::testkit::schedule` installs a seeded perturbation
//!   hook via [`checker::set_acquire_hook`].
//! - E22 (`exp_locklint`) runs a seeded mutant corpus against the checker
//!   and gates CI on clean-tree silence plus the catch rate.

pub mod checker;
pub mod diag;
pub mod locks;
pub mod rank;

pub use checker::{io_section, report, LockReport};
pub use diag::{codes, Diagnostic, Severity};
pub use locks::{
    OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock, OrderedRwLockReadGuard,
    OrderedRwLockWriteGuard,
};
pub use rank::Rank;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The checker's graph and violation log are process-global; tests
    /// that assert on them must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn ascending_acquisition_is_clean() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let a = OrderedMutex::new(rank::GATE, 1u32);
        let b = OrderedMutex::new(rank::CATALOG, 2u32);
        let c = OrderedMutex::new(rank::stripe(3), 3u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
            let _gc = c.lock();
            assert_eq!(checker::held_ranks().len(), 3);
        }
        assert_eq!(checker::held_ranks().len(), 0);
        let report = checker::report();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.acquisitions >= 3);
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn descending_acquisition_records_inversion() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let queue = OrderedMutex::new(rank::COMMIT_QUEUE, ());
        let stripe = OrderedMutex::new(rank::stripe(0), ());
        {
            let _gq = queue.lock();
            let _gs = stripe.lock();
        }
        let report = checker::report();
        assert_eq!(report.codes(), vec![codes::INVERSION]);
        let d = &report.diagnostics[0];
        assert_eq!(
            d.locks,
            vec!["CommitQueue".to_string(), "Stripe[0]".to_string()]
        );
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn out_of_order_release_is_legal() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let a = OrderedMutex::new(rank::GATE, ());
        let b = OrderedMutex::new(rank::CATALOG, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // outer released first — fine, stack pops by match
        assert_eq!(checker::held_ranks().len(), 1);
        drop(gb);
        assert!(checker::report().is_clean());
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn disabled_checking_is_passthrough() {
        let _g = serial();
        checker::disable();
        checker::reset();
        let queue = OrderedMutex::new(rank::COMMIT_QUEUE, ());
        let stripe = OrderedMutex::new(rank::stripe(0), ());
        {
            let _gq = queue.lock();
            let _gs = stripe.lock();
            assert_eq!(checker::held_ranks().len(), 0);
        }
        assert!(checker::report().is_clean());
        assert_eq!(checker::report().acquisitions, 0);
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn rwlock_read_and_write_both_tracked() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let catalog = OrderedRwLock::new(rank::CATALOG, 7u32);
        {
            let r = catalog.read();
            assert_eq!(*r, 7);
            assert_eq!(checker::held_ranks().len(), 1);
        }
        {
            let mut w = catalog.write();
            *w = 8;
        }
        assert_eq!(*catalog.read(), 8);
        assert!(checker::report().is_clean());
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn condvar_wait_releases_rank_and_reacquires() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let m = OrderedMutex::new(rank::COMMIT_QUEUE, false);
        let cv = OrderedCondvar::new();
        let guard = m.lock();
        let (guard, timed_out) = cv.wait_timeout(guard, std::time::Duration::from_millis(1));
        assert!(timed_out.timed_out());
        assert!(!*guard);
        assert_eq!(checker::held_ranks().len(), 1);
        drop(guard);
        assert!(checker::report().is_clean());
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn opposite_orders_across_calls_form_a_cycle() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let wal = OrderedMutex::new(rank::WAL, ());
        let oplog = OrderedMutex::new(rank::OPLOG, ());
        {
            let _a = wal.lock();
            let _b = oplog.lock();
        }
        {
            let _b = oplog.lock();
            let _a = wal.lock(); // inversion — and closes the cycle
        }
        let report = checker::report();
        let codes_seen = report.codes();
        assert!(codes_seen.contains(&codes::INVERSION));
        assert!(codes_seen.contains(&codes::CYCLE));
        let cycle = report
            .diagnostics
            .iter()
            .find(|d| d.code == codes::CYCLE)
            .expect("cycle diagnostic");
        assert!(cycle.locks.contains(&"Wal".to_string()));
        assert!(cycle.locks.contains(&"Oplog".to_string()));
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn io_section_flags_foreign_ranks_only() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let stripe = OrderedMutex::new(rank::stripe(1), ());
        let wal = OrderedMutex::new(rank::WAL, ());
        {
            // The real write path: stripe + wal held across fsync — allowed.
            let _gs = stripe.lock();
            let _gw = wal.lock();
            io_section("wal.fsync", || {});
        }
        assert!(checker::report().is_clean());
        assert_eq!(checker::held_across_io_total(), 1);
        {
            let queue = OrderedMutex::new(rank::COMMIT_QUEUE, ());
            let _gq = queue.lock();
            io_section("wal.fsync", || {});
        }
        let report = checker::report();
        assert_eq!(report.codes(), vec![codes::HELD_ACROSS_FSYNC]);
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn undeclared_rank_is_flagged() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let rogue = OrderedMutex::new(Rank::new(77, "Rogue"), ());
        drop(rogue.lock());
        let report = checker::report();
        assert_eq!(report.codes(), vec![codes::UNDECLARED]);
        checker::reset();
        checker::reset_mode();
    }

    #[test]
    fn acquire_hook_fires_per_acquisition() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let h = hits.clone();
        checker::set_acquire_hook(Some(std::sync::Arc::new(move |_r: &Rank| {
            h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        })));
        let m = OrderedMutex::new(rank::GATE, ());
        drop(m.lock());
        drop(m.lock());
        checker::set_acquire_hook(None);
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 2);
        checker::reset();
        checker::reset_mode();
    }

    /// A panic while a lock is held poisons the raw `std` lock; the
    /// wrappers hand the data back instead of an error, for the mutex and
    /// for both halves of the reader-writer lock.
    #[test]
    fn locks_recover_from_poison() {
        let _g = serial();
        let m = std::sync::Arc::new(OrderedMutex::new(rank::GATE, 0u32));
        let rw = std::sync::Arc::new(OrderedRwLock::new(rank::CATALOG, 0u32));
        let poison = |f: Box<dyn FnOnce() + Send>| {
            let joined = std::thread::spawn(f).join();
            assert!(joined.is_err(), "the holder must have panicked");
        };
        {
            let m = std::sync::Arc::clone(&m);
            poison(Box::new(move || {
                let mut g = m.lock();
                *g += 1;
                panic!("poison the mutex");
            }));
        }
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        {
            let rw = std::sync::Arc::clone(&rw);
            poison(Box::new(move || {
                let _r = rw.read();
                panic!("panic under the read lock");
            }));
        }
        assert_eq!(*rw.read(), 0);
        {
            let rw = std::sync::Arc::clone(&rw);
            poison(Box::new(move || {
                let mut w = rw.write();
                *w = 5;
                panic!("poison the rwlock");
            }));
        }
        assert_eq!(*rw.read(), 5);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 6);
        assert_eq!(checker::held_ranks().len(), 0);
    }

    #[test]
    fn report_renders_text_and_dot() {
        let _g = serial();
        checker::enable();
        checker::reset();
        let a = OrderedMutex::new(rank::GATE, ());
        let b = OrderedMutex::new(rank::CATALOG, ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let report = checker::report();
        let text = report.render_text();
        assert!(text.contains("clean: no lock-order diagnostics"));
        assert!(text.contains("Gate -> Catalog"));
        let dot = report.render_dot();
        assert!(dot.starts_with("digraph lockgraph {"));
        assert!(dot.contains("\"Gate\" -> \"Catalog\""));
        checker::reset();
        checker::reset_mode();
    }
}
