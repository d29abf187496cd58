//! A bounded lock-free MPMC queue (Vyukov's array queue).
//!
//! Every slot carries a sequence stamp. A slot is pushable at position
//! `p` when its stamp equals `p`, and poppable at position `h` when its
//! stamp equals `h + 1`; completing an operation advances the stamp so
//! the slot becomes usable one lap later. Producers and consumers each
//! contend on a single CAS and never block, which is what lets
//! `pama-kv` record cache hits from concurrent readers without taking
//! the shard lock.
//!
//! The position counters are monotonically increasing `usize`s; at two
//! operations per nanosecond they would take centuries to wrap, so the
//! wrap-around case is not handled specially.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Slot<T> {
    /// Sequence stamp gating this slot (see module docs).
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A position counter alone on a pair of cache lines: producers write
/// the tail and consumers the head, so sharing a line would make every
/// push contend with every pop, and the adjacent-line prefetcher pulls
/// lines in pairs.
#[repr(align(128))]
struct Padded(AtomicUsize);

impl std::ops::Deref for Padded {
    type Target = AtomicUsize;

    fn deref(&self) -> &AtomicUsize {
        &self.0
    }
}

/// A bounded lock-free multi-producer multi-consumer queue.
#[repr(C)]
pub struct ArrayQueue<T> {
    /// Next position to pop from.
    head: Padded,
    /// Next position to push to.
    tail: Padded,
    buf: Box<[Slot<T>]>,
}

const _: () = assert!(
    std::mem::offset_of!(ArrayQueue<u64>, tail) - std::mem::offset_of!(ArrayQueue<u64>, head)
        >= 128,
    "the head and tail share a cache-line pair"
);

// SAFETY: values move between threads only through the sequence-stamp
// protocol: a slot's value is written before the Release stamp store
// and read after the matching Acquire load, so each `T` is owned by
// exactly one side at a time. `T: Send` is required because values
// cross threads; no `&T` is ever shared, so `T: Sync` is not.
unsafe impl<T: Send> Send for ArrayQueue<T> {}
unsafe impl<T: Send> Sync for ArrayQueue<T> {}

impl<T> ArrayQueue<T> {
    /// Creates a queue holding at most `cap` elements.
    ///
    /// # Panics
    /// Panics when `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ArrayQueue capacity must be nonzero");
        let buf = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self { head: Padded(AtomicUsize::new(0)), tail: Padded(AtomicUsize::new(0)), buf }
    }

    /// Maximum number of elements the queue can hold.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to enqueue, returning the value back when the queue is
    /// full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let cap = self.buf.len();
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[tail % cap];
            let seq = slot.seq.load(Ordering::Acquire);
            match (seq as isize).wrapping_sub(tail as isize) {
                0 => {
                    match self.tail.compare_exchange_weak(
                        tail,
                        tail + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the CAS claimed position `tail`
                            // exclusively; the stamp still reads `tail`,
                            // so no consumer touches the slot until the
                            // Release store below publishes it.
                            unsafe { (*slot.value.get()).write(value) };
                            slot.seq.store(tail + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(t) => tail = t,
                    }
                }
                d if d < 0 => return Err(value), // a full lap behind: queue is full
                _ => tail = self.tail.load(Ordering::Relaxed),
            }
        }
    }

    /// Attempts to dequeue the oldest element.
    pub fn pop(&self) -> Option<T> {
        let cap = self.buf.len();
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[head % cap];
            let seq = slot.seq.load(Ordering::Acquire);
            match (seq as isize).wrapping_sub((head + 1) as isize) {
                0 => {
                    match self.head.compare_exchange_weak(
                        head,
                        head + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the CAS claimed position `head`
                            // exclusively and the Acquire stamp load saw
                            // the producer's publication, so the slot
                            // holds an initialised value we now own.
                            let value = unsafe { (*slot.value.get()).assume_init_read() };
                            slot.seq.store(head + cap, Ordering::Release);
                            return Some(value);
                        }
                        Err(h) => head = h,
                    }
                }
                d if d < 0 => return None, // stamp not yet advanced: queue is empty
                _ => head = self.head.load(Ordering::Relaxed),
            }
        }
    }

    /// Current element count. Racy by nature under concurrent use —
    /// treat it as a watermark estimate, which is all the access-log
    /// high-water check needs.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        tail.saturating_sub(head).min(self.buf.len())
    }

    /// Whether the queue currently looks empty (racy, like [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue currently looks full (racy, like [`Self::len`]).
    pub fn is_full(&self) -> bool {
        self.len() == self.buf.len()
    }
}

impl<T> Drop for ArrayQueue<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for ArrayQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayQueue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_single_thread() {
        let q = ArrayQueue::new(4);
        assert!(q.is_empty());
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.push(99), Err(99));
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        // reusable after a full lap
        q.push(7).unwrap();
        assert_eq!(q.pop(), Some(7));
    }

    #[test]
    fn wraps_many_laps() {
        let q = ArrayQueue::new(3);
        for lap in 0..1000u64 {
            q.push(lap).unwrap();
            assert_eq!(q.pop(), Some(lap));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drops_remaining_values() {
        // A type with a drop counter proves no leak / no double free.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q = ArrayQueue::new(8);
            for _ in 0..5 {
                q.push(D).unwrap();
            }
            drop(q.pop()); // one dropped by the consumer
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn mpmc_transfers_every_element_exactly_once() {
        let q = ArrayQueue::<u64>::new(64);
        let produced: u64 = 4 * 10_000;
        let popped: Vec<u64> = std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        let v = t * 10_000 + i;
                        loop {
                            if q.push(v).is_ok() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = &q;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let mut idle = 0u32;
                        loop {
                            match q.pop() {
                                Some(v) => {
                                    idle = 0;
                                    got.push(v);
                                }
                                None => {
                                    idle += 1;
                                    if idle > 20_000 {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut all = popped;
        all.sort_unstable();
        assert_eq!(all.len() as u64, produced, "lost or duplicated elements");
        assert!(all.windows(2).all(|w| w[0] < w[1]), "duplicated element");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = ArrayQueue::<u8>::new(0);
    }
}
