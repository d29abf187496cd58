//! Minimal, dependency-free stand-in for `parking_lot`.
//!
//! The build environment has no crates.io access, so this vendors the
//! subset of the API the workspace uses: [`Mutex`] and [`RwLock`] with
//! `parking_lot` semantics — `lock()`/`read()`/`write()` return guards
//! directly (no `Result`), and a panic while holding a lock does not
//! poison it for later users.
//!
//! [`Mutex`] wraps `std::sync::Mutex`. [`RwLock`] is a big-reader lock
//! of its own, built for `pama-kv`'s shard data lock, which every GET hit
//! takes: a reader counts itself in its thread's slot, alone on a cache
//! line, instead of in one state word all readers write, and a writer
//! sets a flag and waits for every slot to drain (see [`RwLock`]).
//!
//! **Thread stripes.** The reader slots are indexed by the calling
//! thread's stripe ([`thread_stripe`]): an id handed out round-robin on a
//! thread's first use, modulo [`stripes`], the CPUs this process may run
//! on rounded up to a power of two. Threads that run at once on
//! different CPUs therefore mostly hold different stripes, and `pama-kv`
//! indexes its per-thread hit logs and hit counters by the same id.
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
//! 3. **block** — fall back to a blocking call, which sleeps in the
//!    kernel until the holder wakes it: the `std` lock for a [`Mutex`],
//!    the writers' mutex for a reader of an [`RwLock`], and for a writer
//!    waiting out readers, naps that double up to a millisecond.
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

use std::cell::{Cell, UnsafeCell};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// The number of thread stripes: the CPUs this process may run on
/// ([`std::thread::available_parallelism`], read once), rounded up to a
/// power of two; 1 when that cannot be read.
pub fn stripes() -> usize {
    static STRIPES: OnceLock<usize> = OnceLock::new();
    *STRIPES.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, |n| n.get().next_power_of_two())
    })
}

/// The calling thread's stripe, below [`stripes`]: assigned round-robin
/// on the thread's first call and fixed for its life.
#[inline]
pub fn thread_stripe() -> usize {
    thread_local!(static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) });
    STRIPE.with(|stripe| match stripe.get() {
        usize::MAX => assign_stripe(stripe),
        id => id,
    })
}

#[cold]
fn assign_stripe(stripe: &Cell<usize>) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed) & (stripes() - 1);
    stripe.set(id);
    id
}

/// Whether a contended waiter may spin: only with more than one CPU to
/// run on, where the holder can make progress meanwhile.
fn may_spin() -> bool {
    stripes() > 1
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

/// A reader-writer lock whose readers write only their own thread's
/// cache line, and whose accessors never return `Err`.
///
/// A big-reader lock (Linux's `percpu-rwsem`; BRAVO, Dice & Kogan, USENIX
/// ATC 2019): each of the [`stripes`] reader slots is a counter on its own
/// 128 B line, and a reader counts itself in its [`thread_stripe`]'s slot
/// rather than in one shared state word. Taking it for reading is one
/// `SeqCst` increment of that slot and one load of the writer flag, so
/// readers on different threads never write the same line; a reader that
/// finds the flag set takes its count back and waits in the spin, yield
/// and block phases of the crate docs, blocking on the writers' mutex.
/// A writer takes that mutex, sets the flag, and waits, in the same
/// phases, until every slot reads zero; so taking it for writing costs a
/// load of every slot, which is the trade for readers that share nothing.
///
/// A panic under either guard poisons nothing: the guard's drop gives the
/// reader's count or the writer's flag and mutex back during unwinding.
pub struct RwLock<T: ?Sized> {
    /// One reader count per thread stripe.
    readers: Box<[ReaderSlot]>,
    writer: Writer,
    /// The protected value. Invariant: a `&T` exists only inside a
    /// [`RwLockReadGuard`], which exists only while its slot counts it and
    /// after it read the writer flag clear; a `&mut T` exists only inside
    /// a [`RwLockWriteGuard`], which exists only while it holds the
    /// writers' mutex with the flag set, after it read every slot at zero.
    /// A reader increments before it loads the flag and a writer sets the
    /// flag before it loads the slots, all `SeqCst`, so of a racing reader
    /// and writer at least one sees the other and backs off or waits.
    value: UnsafeCell<T>,
}

/// A reader count alone on a pair of cache lines, so that a neighbouring
/// line's prefetch does not pull in another stripe's count either.
#[derive(Default)]
#[repr(align(128))]
struct ReaderSlot(AtomicUsize);

/// What writers share, on a line of its own: readers only read it.
#[derive(Default)]
#[repr(align(128))]
struct Writer {
    /// Set while a writer holds or is taking the lock.
    active: AtomicBool,
    /// Serialises writers; a blocked reader sleeps on it.
    mutex: sync::Mutex<()>,
}

// SAFETY: the lock hands out `&T` to many threads at once and `&mut T` to
// one at a time (the invariant on `value`), as `std::sync::RwLock` does,
// so it needs the same bounds.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

/// Guard returned by [`RwLock::read`]: shared access until dropped.
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    /// The slot that counts this reader.
    slot: &'a ReaderSlot,
}

/// Guard returned by [`RwLock::write`]: exclusive access until dropped.
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    /// Dropped after the flag is cleared, so the next writer or blocked
    /// reader finds it clear.
    _mutex: sync::MutexGuard<'a, ()>,
}

impl<T> RwLock<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        RwLock {
            readers: (0..stripes()).map(|_| ReaderSlot::default()).collect(),
            writer: Writer::default(),
            value: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").field("stripes", &self.readers.len()).finish_non_exhaustive()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// The calling thread's reader slot.
    #[inline]
    fn slot(&self) -> &ReaderSlot {
        &self.readers[thread_stripe()]
    }

    /// Acquires shared read access, spinning, then yielding, then
    /// blocking until no writer holds or awaits the lock. A retry loads
    /// the writer flag before it counts itself, so a waiting reader
    /// leaves its slot alone while a writer scans the slots.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.try_read() {
            Some(guard) => guard,
            None => wait(
                || {
                    if self.writer.active.load(Ordering::Relaxed) {
                        None
                    } else {
                        self.try_read()
                    }
                },
                || self.read_blocking(),
            ),
        }
    }

    /// Acquires shared read access only if no writer holds or awaits
    /// the lock right now.
    #[inline]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let slot = self.slot();
        slot.0.fetch_add(1, Ordering::SeqCst);
        if self.writer.active.load(Ordering::SeqCst) {
            slot.0.fetch_sub(1, Ordering::Release);
            return None;
        }
        Some(RwLockReadGuard { lock: self, slot })
    }

    /// A reader's block phase: with the writers' mutex held no writer is
    /// active, and the count taken before it is released makes the next
    /// writer wait for this reader.
    #[cold]
    fn read_blocking(&self) -> RwLockReadGuard<'_, T> {
        let _mutex = self.writer.mutex.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = self.slot();
        slot.0.fetch_add(1, Ordering::SeqCst);
        RwLockReadGuard { lock: self, slot }
    }

    /// Acquires exclusive write access: takes the writers' mutex and
    /// then waits for the readers, each wait spinning, then yielding,
    /// then blocking.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let mutex = &self.writer.mutex;
        let mutex = acquire(
            || unpoisoned(mutex.try_lock()),
            || mutex.lock().unwrap_or_else(PoisonError::into_inner),
        );
        self.writer.active.store(true, Ordering::SeqCst);
        for slot in self.readers.iter() {
            let drained = || (slot.0.load(Ordering::SeqCst) == 0).then_some(());
            acquire(drained, || sleep_until(drained));
        }
        RwLockWriteGuard { lock: self, _mutex: mutex }
    }

    /// Acquires exclusive write access only if the lock is entirely
    /// free right now: no reader or writer holds it.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let mutex = unpoisoned(self.writer.mutex.try_lock())?;
        self.writer.active.store(true, Ordering::SeqCst);
        if self.readers.iter().all(|slot| slot.0.load(Ordering::SeqCst) == 0) {
            Some(RwLockWriteGuard { lock: self, _mutex: mutex })
        } else {
            self.writer.active.store(false, Ordering::Release);
            None
        }
    }
}

/// A writer's block phase while readers hold the lock: readers never
/// wake anyone, so it polls, sleeping twice as long each time up to a
/// millisecond.
#[cold]
fn sleep_until(mut done: impl FnMut() -> Option<()>) {
    let mut nap = Duration::from_micros(16);
    while done().is_none() {
        std::thread::sleep(nap);
        nap = (nap * 2).min(Duration::from_millis(1));
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.slot.0.fetch_sub(1, Ordering::Release);
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.writer.active.store(false, Ordering::Release);
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: a read guard, so no `&mut T` exists (the invariant on
        // `RwLock::value`).
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the one write guard; no other reference exists.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the one write guard; no other reference exists.
        unsafe { &mut *self.lock.value.get() }
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

    #[test]
    fn thread_stripes_are_fixed_and_in_range() {
        assert!(stripes().is_power_of_two());
        let ids: Vec<usize> = (0..2 * stripes())
            .map(|_| {
                std::thread::spawn(|| {
                    let id = thread_stripe();
                    assert_eq!(thread_stripe(), id, "a thread's stripe changed");
                    id
                })
                .join()
                .expect("stripe thread")
            })
            .collect();
        assert!(ids.iter().all(|&id| id < stripes()));
        assert_eq!(RwLock::new(()).readers.len(), stripes());
    }

    #[test]
    fn readers_on_every_stripe_never_see_a_torn_pair() {
        // More readers than stripes, so some share a slot, against two
        // writers that update the pair one word at a time.
        let readers = 2 * stripes() + 1;
        const ROUNDS: usize = 20_000;
        let lock = RwLock::new(Pair::default());
        let writes: u64 = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut writes = 0;
                        for _ in 0..ROUNDS / 4 {
                            let mut p = lock.write();
                            p.a += 1;
                            for _ in 0..8 {
                                std::hint::spin_loop();
                            }
                            p.b += 1;
                            writes += 1;
                        }
                        writes
                    })
                })
                .collect();
            for _ in 0..readers {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        let p = lock.read();
                        assert_eq!(p.a, p.b, "a reader saw half a write");
                    }
                });
            }
            writers.into_iter().map(|w| w.join().expect("writer")).sum()
        });
        let pair = lock.into_inner();
        assert_eq!((pair.a, pair.b), (writes, writes));
    }

    #[test]
    fn a_writer_waits_out_an_in_flight_reader() {
        let lock = RwLock::new(0u32);
        let reading = Barrier::new(2);
        let reader_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let r = lock.read();
                reading.wait();
                // Outlast the writer's spin and yield phases.
                std::thread::sleep(Duration::from_millis(5));
                assert_eq!(*r, 0, "the writer changed the value under a reader");
                reader_done.store(true, Ordering::SeqCst);
            });
            reading.wait();
            assert!(lock.try_write().is_none(), "a writer ignored a reader");
            let mut w = lock.write();
            assert!(
                reader_done.load(Ordering::SeqCst),
                "took the lock before its reader let go"
            );
            *w += 1;
        });
        assert_eq!(*lock.read(), 1);
    }

    #[test]
    fn a_reader_panic_neither_poisons_nor_leaks_its_count() {
        let lock = Arc::new(RwLock::new(7));
        let reader = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let r = lock.read();
                assert_eq!(*r, 7);
                panic!("panic under a read guard");
            })
        };
        assert!(reader.join().is_err(), "the reader panicked");
        // A leaked count would fail the try and hang the write.
        *lock.try_write().expect("every reader slot drained") += 1;
        *lock.write() += 1;
        assert_eq!(*lock.read(), 9);
        assert!(lock.readers.iter().all(|slot| slot.0.load(Ordering::SeqCst) == 0));
    }
}
