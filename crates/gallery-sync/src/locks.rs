//! Rank-checked lock wrappers.
//!
//! Replacements for `std::sync::{Mutex, RwLock, Condvar}` that
//! recover from poisoning: a lock poisoned by a panicking holder yields
//! its data rather than an error. Each wrapper
//! carries a [`Rank`]; when checking is on ([`crate::checker::enabled`])
//! every acquisition is validated against the thread's held-rank stack
//! and folded into the process-wide acquired-before graph. When checking
//! is off the wrappers cost one relaxed atomic load over the raw lock.
//!
//! All checker bookkeeping runs *outside* the raw lock's critical
//! section: the held-stack push happens before the raw acquire (the
//! stack is thread-local, so nobody can observe the early entry while
//! the thread blocks) and the pop happens after the raw guard is
//! dropped. Checking therefore never lengthens a lock hold, so it never
//! amplifies contention — its cost is pure per-thread straight-line work.

use crate::checker;
use crate::rank::Rank;
use std::sync;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// The blocking acquire every wrapper shares: check the rank, then try
/// the raw lock first so the uncontended path pays no clock reads; only a
/// genuinely blocking acquire is timed into the lock-wait total. Returns
/// the raw guard and whether the checker tracks it.
#[inline]
fn acquire<G>(
    rank: &Rank,
    mixed: u64,
    try_raw: impl FnOnce() -> sync::TryLockResult<G>,
    block_raw: impl FnOnce() -> sync::LockResult<G>,
) -> (G, bool) {
    let checking = checker::enabled();
    if checking {
        checker::before_acquire(rank, mixed);
    }
    let guard = match try_raw() {
        Ok(g) => g,
        Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
        Err(sync::TryLockError::WouldBlock) => {
            let started = checking.then(Instant::now);
            let g = block_raw().unwrap_or_else(PoisonError::into_inner);
            if let Some(started) = started {
                checker::note_wait(started.elapsed());
            }
            g
        }
    };
    (guard, checking)
}

// ---------------------------------------------------------------------------
// OrderedMutex
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub struct OrderedMutex<T: ?Sized> {
    rank: Rank,
    /// [`checker::mixed_key`]\(rank\), precomputed once at construction.
    mixed: u64,
    inner: sync::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    pub const fn new(rank: Rank, value: T) -> Self {
        OrderedMutex {
            rank,
            mixed: checker::mixed_key(&rank),
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let (guard, tracked) = acquire(
            &self.rank,
            self.mixed,
            || self.inner.try_lock(),
            || self.inner.lock(),
        );
        OrderedMutexGuard {
            lock: self,
            tracked,
            guard: Some(guard),
        }
    }
}

pub struct OrderedMutexGuard<'a, T: ?Sized> {
    lock: &'a OrderedMutex<T>,
    tracked: bool,
    /// `None` only transiently inside [`OrderedCondvar::wait`], which
    /// hands the raw guard to the condvar and defuses this one.
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            None => unreachable!("ordered mutex guard used after condvar handoff"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            None => unreachable!("ordered mutex guard used after condvar handoff"),
        }
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the raw lock first, then pop the held stack: waiters
        // wake without paying for the checker's bookkeeping.
        self.guard = None;
        if self.tracked {
            checker::on_release(&self.lock.rank, self.lock.mixed);
        }
    }
}

// ---------------------------------------------------------------------------
// OrderedCondvar
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
pub struct OrderedCondvar {
    inner: sync::Condvar,
}

pub use std::sync::WaitTimeoutResult;

impl OrderedCondvar {
    pub const fn new() -> Self {
        OrderedCondvar {
            inner: sync::Condvar::new(),
        }
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Atomically release the guard's mutex and park. Checks condvar
    /// hygiene (GL0302: no rank *after* the paired mutex may be held
    /// while waiting), pops the mutex rank for the duration of the wait,
    /// and re-runs the full acquisition protocol on wakeup.
    pub fn wait<'a, T>(&self, guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        let (lock, raw) = Self::detach(guard);
        let raw = self.inner.wait(raw).unwrap_or_else(PoisonError::into_inner);
        Self::reattach(lock, raw)
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: OrderedMutexGuard<'a, T>,
        dur: Duration,
    ) -> (OrderedMutexGuard<'a, T>, WaitTimeoutResult) {
        let (lock, raw) = Self::detach(guard);
        let (raw, timed_out) = self
            .inner
            .wait_timeout(raw, dur)
            .unwrap_or_else(PoisonError::into_inner);
        (Self::reattach(lock, raw), timed_out)
    }

    fn detach<'a, T>(
        mut guard: OrderedMutexGuard<'a, T>,
    ) -> (&'a OrderedMutex<T>, sync::MutexGuard<'a, T>) {
        let lock = guard.lock;
        if guard.tracked {
            checker::on_condvar_wait(&lock.rank);
            checker::on_release(&lock.rank, lock.mixed);
            guard.tracked = false;
        }
        let raw = match guard.guard.take() {
            Some(g) => g,
            None => unreachable!("ordered mutex guard already detached"),
        };
        (lock, raw)
    }

    fn reattach<'a, T>(
        lock: &'a OrderedMutex<T>,
        raw: sync::MutexGuard<'a, T>,
    ) -> OrderedMutexGuard<'a, T> {
        // Wakeup re-acquires the mutex; restore the held stack without
        // re-running the full check (redundant after the wait-time
        // hygiene check, and this runs inside the re-acquired critical
        // section). Wait time while parked is deliberately not credited
        // to lock contention.
        let checking = checker::enabled();
        if checking {
            checker::reattach_after_wait(&lock.rank, lock.mixed);
        }
        OrderedMutexGuard {
            lock,
            tracked: checking,
            guard: Some(raw),
        }
    }
}

// ---------------------------------------------------------------------------
// OrderedRwLock
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub struct OrderedRwLock<T: ?Sized> {
    rank: Rank,
    /// [`checker::mixed_key`]\(rank\), precomputed once at construction.
    mixed: u64,
    inner: sync::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    pub const fn new(rank: Rank, value: T) -> Self {
        OrderedRwLock {
            rank,
            mixed: checker::mixed_key(&rank),
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        let (guard, tracked) = acquire(
            &self.rank,
            self.mixed,
            || self.inner.try_read(),
            || self.inner.read(),
        );
        OrderedRwLockReadGuard {
            lock: self,
            tracked,
            guard: Some(guard),
        }
    }

    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let (guard, tracked) = acquire(
            &self.rank,
            self.mixed,
            || self.inner.try_write(),
            || self.inner.write(),
        );
        OrderedRwLockWriteGuard {
            lock: self,
            tracked,
            guard: Some(guard),
        }
    }
}

pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    lock: &'a OrderedRwLock<T>,
    tracked: bool,
    /// `Some` for the guard's whole life; taken in `Drop` so the raw
    /// read lock releases before the held-stack pop.
    guard: Option<sync::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            None => unreachable!("ordered rwlock read guard already released"),
        }
    }
}

impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.guard = None;
        if self.tracked {
            checker::on_release(&self.lock.rank, self.lock.mixed);
        }
    }
}

pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a OrderedRwLock<T>,
    tracked: bool,
    /// `Some` for the guard's whole life; taken in `Drop` so the raw
    /// write lock releases before the held-stack pop.
    guard: Option<sync::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            None => unreachable!("ordered rwlock write guard already released"),
        }
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            None => unreachable!("ordered rwlock write guard already released"),
        }
    }
}

impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.guard = None;
        if self.tracked {
            checker::on_release(&self.lock.rank, self.lock.mixed);
        }
    }
}
