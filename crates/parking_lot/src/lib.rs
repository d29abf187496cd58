//! Minimal, dependency-free stand-in for `parking_lot`.
//!
//! The build environment has no crates.io access, so this vendors the
//! subset of the API the workspace uses: [`Mutex`] and [`RwLock`] with
//! `parking_lot` semantics — `lock()`/`read()`/`write()` return guards
//! directly (no `Result`), and a panic while holding a lock does not
//! poison it for later users.
//!
//! Like the real `parking_lot`, a waiter spins before it sleeps. Every
//! blocking acquisition first makes one `try_*` attempt, which is all an
//! uncontended lock ever costs. On contention it waits in three phases,
//! timed from the first failed attempt:
//!
//! 1. **spin** — for 2 µs, retry `try_*` between exponentially growing
//!    bursts of [`std::hint::spin_loop`];
//! 2. **yield** — until 50 µs have passed, retry between
//!    [`std::thread::yield_now`] calls, which lets an oversubscribed
//!    holder run;
//! 3. **block** — fall back to the blocking `std::sync` call, which
//!    sleeps in the kernel until the holder wakes it.
//!
//! The budget is several times the common hold in `pama-kv`: a shard's
//! policy-lock drain of about 17 deferred hits takes about 3 µs, longer
//! than the hundred-odd `pause`s `std` spins before it sleeps, so a
//! waiter that only used `std` would mostly pay a kernel sleep and a
//! wake-up. A rare long hold of the policy lock, such as a PAMA
//! value-window rebuild (0.3–0.4 ms), outlasts the budget and its
//! waiters, the shard's writers, sleep. A shard's data lock is held
//! for less: a reader's hit, or a writer's record and byte write. A
//! process limited to one CPU ([`std::thread::available_parallelism`], which
//! reads the affinity mask, read once) skips straight to blocking: a
//! spinning waiter there only delays the holder.

#![warn(missing_docs)]

use std::sync::{self, OnceLock, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// How long a contended waiter spins between `try_*` attempts before it
/// starts yielding its CPU instead.
const SPIN_PHASE: Duration = Duration::from_micros(2);

/// How long a contended waiter retries, spinning then yielding, before
/// it blocks in the kernel.
const WAIT_BUDGET: Duration = Duration::from_micros(50);

/// The longest `spin_loop` burst between two attempts.
const MAX_BURST: u32 = 64;

/// Whether a contended waiter may spin: only with more than one CPU to
/// run on, where the holder can make progress meanwhile.
fn may_spin() -> bool {
    static MULTI_CPU: OnceLock<bool> = OnceLock::new();
    *MULTI_CPU.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// Takes a lock: one `try_acquire`, and on contention the spin, yield
/// and block phases of the module docs.
#[inline]
fn acquire<G>(mut try_acquire: impl FnMut() -> Option<G>, block: impl FnOnce() -> G) -> G {
    match try_acquire() {
        Some(guard) => guard,
        None => wait(try_acquire, block),
    }
}

#[cold]
fn wait<G>(mut try_acquire: impl FnMut() -> Option<G>, block: impl FnOnce() -> G) -> G {
    if may_spin() {
        let start = Instant::now();
        let mut burst = 1;
        loop {
            let waited = start.elapsed();
            if waited >= WAIT_BUDGET {
                break;
            }
            if waited < SPIN_PHASE {
                for _ in 0..burst {
                    std::hint::spin_loop();
                }
                burst = (burst * 2).min(MAX_BURST);
            } else {
                std::thread::yield_now();
            }
            if let Some(guard) = try_acquire() {
                return guard;
            }
        }
    }
    block()
}

/// A `try_*` result with poisoning ignored: `None` only when the lock
/// is taken.
fn unpoisoned<G>(r: sync::TryLockResult<G>) -> Option<G> {
    match r {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A mutual-exclusion lock whose `lock` never returns `Err`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, spinning, then yielding, then blocking until
    /// it is available. Ignores poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        acquire(|| self.try_lock(), || self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquires the lock only if it is free right now. Ignores
    /// poisoning.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        unpoisoned(self.0.try_lock())
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose accessors never return `Err`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, spinning, then yielding, then
    /// blocking until no writer holds or awaits the lock. Ignores
    /// poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        acquire(|| self.try_read(), || self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquires exclusive write access, spinning, then yielding, then
    /// blocking until the lock is free. Ignores poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        acquire(|| self.try_write(), || self.0.write().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquires shared read access only if no writer holds or awaits
    /// the lock right now. Ignores poisoning.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        unpoisoned(self.0.try_read())
    }

    /// Acquires exclusive write access only if the lock is entirely
    /// free right now: no reader or writer holds it. Ignores poisoning.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        unpoisoned(self.0.try_write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_survives_panic_while_held() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 5; // must not panic despite the poisoned std mutex
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1]);
        assert_eq!(l.read().len(), 1);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn try_variants_report_contention() {
        let m = Mutex::new(5);
        {
            let _g = m.lock();
            assert!(m.try_lock().is_none());
        }
        assert_eq!(*m.try_lock().unwrap(), 5);

        let l = RwLock::new(1);
        {
            let _w = l.write();
            assert!(l.try_write().is_none());
            assert!(l.try_read().is_none());
        }
        {
            let _r = l.read();
            assert!(l.try_write().is_none());
            // another reader is fine
            assert_eq!(*l.try_read().unwrap(), 1);
        }
        *l.try_write().unwrap() += 1;
        assert_eq!(*l.read(), 2);
    }

    /// Two fields a writer keeps equal.
    #[derive(Default)]
    struct Pair {
        a: u64,
        b: u64,
    }

    #[test]
    fn contended_readers_and_writers_see_whole_writes() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 50_000;
        let lock = RwLock::new(Pair::default());
        let m = Mutex::new(0u64);
        let start = Barrier::new(THREADS);
        let writes: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (lock, m, start) = (&lock, &m, &start);
                    s.spawn(move || {
                        let mut writes = 0;
                        start.wait();
                        for i in 0..PER_THREAD {
                            if (i + t) % 4 == 0 {
                                let mut p = lock.write();
                                p.a += 1;
                                // A reader taking the lock between the two
                                // stores would see them differ.
                                std::hint::spin_loop();
                                p.b += 1;
                                writes += 1;
                            } else if i % 7 == 0 {
                                *m.lock() += 1;
                            } else {
                                let p = lock.read();
                                assert_eq!(p.a, p.b, "a reader saw half a write");
                            }
                        }
                        writes
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).sum()
        });
        let pair = lock.into_inner();
        assert_eq!((pair.a, pair.b), (writes as u64, writes as u64));
        let locked = (0..THREADS)
            .flat_map(|t| (0..PER_THREAD).map(move |i| (i, t)))
            .filter(|&(i, t)| (i + t) % 4 != 0 && i % 7 == 0)
            .count();
        assert_eq!(m.into_inner(), locked as u64);
    }

    #[test]
    fn a_waiter_past_the_budget_still_gets_the_lock() {
        let hold = Duration::from_millis(5);
        assert!(hold > WAIT_BUDGET * 10);
        let lock = RwLock::new(0);
        let m = Mutex::new(0);
        let held = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = lock.write();
                let mut g = m.lock();
                held.wait();
                std::thread::sleep(hold);
                *w += 1;
                *g += 1;
            });
            held.wait();
            let mut w = lock.write();
            assert_eq!(*w, 1, "took the lock before its holder let go");
            *w += 1;
            let mut g = m.lock();
            assert_eq!(*g, 1, "took the mutex before its holder let go");
            *g += 1;
        });
        assert_eq!((lock.into_inner(), m.into_inner()), (2, 2));
    }

    #[test]
    fn a_panic_under_contention_does_not_poison() {
        let lock = Arc::new(RwLock::new(0));
        let held = Arc::new(Barrier::new(2));
        let holder = {
            let (lock, held) = (Arc::clone(&lock), Arc::clone(&held));
            std::thread::spawn(move || {
                let mut w = lock.write();
                *w += 1;
                held.wait();
                // Outlast the waiter's spin so it is blocked when the
                // holder panics.
                std::thread::sleep(Duration::from_millis(2));
                panic!("poison attempt under contention");
            })
        };
        held.wait();
        *lock.write() += 1;
        assert!(holder.join().is_err(), "the holder panicked");
        assert_eq!(*lock.read(), 2);
        assert_eq!(*lock.try_write().expect("free"), 2);
    }
}
