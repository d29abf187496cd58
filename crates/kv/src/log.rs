//! The per-shard deferred-hit log.
//!
//! A cache-hit GET on the concurrent read path never takes the shard's
//! policy lock; it records the hit here instead, as the key hash plus
//! the item's slot, whose node id is the item's policy handle (the
//! policy's queues link slot nodes). The log is one bounded lock-free
//! ring ([`crossbeam::queue::ArrayQueue`]) per thread stripe
//! ([`parking_lot::thread_stripe`]), so a reader pushes to a ring that
//! only the threads of its stripe push to, and is drained in batches
//! whenever the policy lock is taken anyway — SET, DELETE, a GET miss,
//! a TTL sweep, or an explicit flush. The drain empties the stripes in
//! turn and hands each record to the policy by handle, so promoting a
//! hit never looks up a key index; a record whose slot no longer holds
//! its hash is skipped. A single thread's hits sit in one ring, so they
//! are applied in the order it made them; hits of different threads
//! have no order to keep. A stripe's ring is allocated on its first
//! record, so a stripe no thread uses costs no ring.
//!
//! The log is **lossy by design**: when a stripe's ring is full a hit is
//! counted and discarded rather than blocking the reader (or worse,
//! making the reader drain it — applying every deferred hit to the
//! policy costs as much as the inline promotion the read path exists
//! to avoid). The ring therefore acts as a sampling buffer: the policy
//! sees at most `capacity` hits per stripe per policy-lock event, which
//! under skewed traffic captures the hot set — exactly the recency
//! signal LRU promotion needs. A dropped record only loses one
//! LRU-recency refresh and one unit of PAMA segment value; PAMA's
//! window-based value estimate is statistical, so a bounded loss under
//! overload perturbs allocation no more than the sampling the paper's
//! estimator already accepts.

use crossbeam::queue::ArrayQueue;
use pama_slab::SlotRef;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One deferred hit: the key hash and the item's slot.
pub(crate) type HitRecord = (u64, SlotRef);

// A ring slot is 24 B: the ring's 8 B sequence stamp plus this 16 B
// record.
const _: () = assert!(std::mem::size_of::<HitRecord>() <= 16);

pub(crate) struct AccessLog {
    /// One ring per thread stripe.
    stripes: Box<[LogStripe]>,
    /// Each ring's capacity.
    capacity: usize,
}

/// One thread stripe's ring, allocated on its first record, and its
/// count of hits discarded on a full ring, on lines no other stripe
/// writes.
#[derive(Default)]
#[repr(align(128))]
struct LogStripe {
    ring: OnceLock<ArrayQueue<HitRecord>>,
    dropped: AtomicU64,
}

impl AccessLog {
    /// A log with one ring of `capacity` records (at least 2) per thread
    /// stripe.
    pub fn new(capacity: usize) -> Self {
        let stripes = (0..parking_lot::stripes()).map(|_| LogStripe::default()).collect();
        Self { stripes, capacity: capacity.max(2) }
    }

    /// Records a hit in the calling thread's stripe; never blocks.
    /// Returns `false` when that ring was full and the hit was discarded
    /// (and counted) instead.
    #[inline]
    pub fn record(&self, hit: HitRecord) -> bool {
        let stripe = &self.stripes[parking_lot::thread_stripe()];
        let ring = stripe.ring.get_or_init(|| ArrayQueue::new(self.capacity));
        if ring.push(hit).is_ok() {
            true
        } else {
            stripe.dropped.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// The rings allocated so far.
    fn rings(&self) -> impl Iterator<Item = &ArrayQueue<HitRecord>> {
        self.stripes.iter().filter_map(|stripe| stripe.ring.get())
    }

    /// Moves every currently-visible record into `buf`, one stripe after
    /// another, each stripe's oldest first.
    pub fn drain_into(&self, buf: &mut Vec<HitRecord>) {
        for ring in self.rings() {
            while let Some(hit) = ring.pop() {
                buf.push(hit);
            }
        }
    }

    /// Whether the log currently looks empty (racy, advisory).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.rings().all(ArrayQueue::is_empty)
    }

    /// Total hits discarded on a full ring since creation, summed over
    /// the stripes.
    pub fn dropped(&self) -> u64 {
        self.stripes.iter().map(|stripe| stripe.dropped.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(h: u64) -> HitRecord {
        (h, SlotRef { slab: 0, slot: h as u32 })
    }

    #[test]
    fn records_until_full_then_drops() {
        let log = AccessLog::new(4);
        assert!(log.record(hit(1)));
        assert!(log.record(hit(2)));
        assert!(log.record(hit(3)));
        assert!(log.record(hit(4)));
        assert_eq!(log.dropped(), 0);
        assert!(!log.record(hit(5))); // full: dropped and counted
        assert_eq!(log.dropped(), 1);
        let mut buf = Vec::new();
        log.drain_into(&mut buf);
        assert_eq!(buf, vec![hit(1), hit(2), hit(3), hit(4)]);
        assert!(log.is_empty());
    }

    #[test]
    fn tiny_capacities_are_clamped() {
        let log = AccessLog::new(0);
        assert!(log.record(hit(9))); // capacity clamped to 2
        let mut buf = Vec::new();
        log.drain_into(&mut buf);
        assert_eq!(buf, vec![hit(9)]);
    }

    #[test]
    fn rings_are_allocated_per_stripe_on_first_record() {
        // One thread per stripe and one more; each thread's hits stay in
        // its stripe's ring in the order it made them. Room for every
        // hit in one ring, since other threads of the process take
        // stripe ids too.
        let threads = parking_lot::stripes() + 1;
        let log = AccessLog::new(2 * threads);
        assert_eq!(log.rings().count(), 0, "a ring was allocated before any record");
        assert!(log.is_empty());
        std::thread::scope(|s| {
            for t in 0..threads as u64 {
                let log = &log;
                s.spawn(move || {
                    assert!(log.record(hit(2 * t)));
                    assert!(log.record(hit(2 * t + 1)));
                });
            }
        });
        assert!((1..=parking_lot::stripes()).contains(&log.rings().count()));
        let mut buf = Vec::new();
        log.drain_into(&mut buf);
        let mut sorted = buf.clone();
        sorted.sort_unstable_by_key(|&(h, _)| h);
        assert_eq!(sorted, (0..2 * threads as u64).map(hit).collect::<Vec<_>>());
        let at = |h| buf.iter().position(|&(x, _)| x == h);
        for t in 0..threads as u64 {
            assert!(at(2 * t) < at(2 * t + 1), "a thread's hits left its ring out of order");
        }
        assert_eq!(log.dropped(), 0);
        assert!(log.is_empty());
    }
}
