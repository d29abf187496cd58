//! The per-shard deferred-hit log.
//!
//! A cache-hit GET on the concurrent read path never takes the shard's
//! policy lock; it records the hit here instead, as the key hash plus
//! the item's slot, whose node id is the item's policy handle (the
//! policy's queues link slot nodes). The log is a bounded lock-free ring
//! ([`crossbeam::queue::ArrayQueue`]) drained in batches whenever the
//! policy lock is taken anyway — SET, DELETE, a GET miss, a TTL sweep,
//! or an explicit flush. The drain hands each record to the policy by
//! handle, so promoting a hit never looks up a key index; a record
//! whose slot no longer holds its hash is skipped.
//!
//! The log is **lossy by design**: when the ring is full a hit is
//! counted and discarded rather than blocking the reader (or worse,
//! making the reader drain it — applying every deferred hit to the
//! policy costs as much as the inline promotion the read path exists
//! to avoid). The ring therefore acts as a sampling buffer: the policy
//! sees at most `capacity` hits per policy-lock event, which under
//! skewed traffic captures the hot set — exactly the recency signal
//! LRU promotion needs. A dropped record only loses one LRU-recency
//! refresh and one unit of PAMA segment value; PAMA's window-based
//! value estimate is statistical, so a bounded loss under overload
//! perturbs allocation no more than the sampling the paper's estimator
//! already accepts.

use crossbeam::queue::ArrayQueue;
use pama_slab::SlotRef;
use std::sync::atomic::{AtomicU64, Ordering};

/// One deferred hit: the key hash and the item's slot.
pub(crate) type HitRecord = (u64, SlotRef);

// A ring slot is 24 B: the ring's 8 B sequence stamp plus this 16 B
// record.
const _: () = assert!(std::mem::size_of::<HitRecord>() <= 16);

pub(crate) struct AccessLog {
    ring: ArrayQueue<HitRecord>,
    /// Hits discarded because the ring was full.
    dropped: AtomicU64,
}

impl AccessLog {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Self { ring: ArrayQueue::new(capacity), dropped: AtomicU64::new(0) }
    }

    /// Records a hit; never blocks. Returns `false` when the ring was
    /// full and the hit was discarded (and counted) instead.
    pub fn record(&self, hit: HitRecord) -> bool {
        if self.ring.push(hit).is_ok() {
            true
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Moves every currently-visible record into `buf`, oldest first.
    pub fn drain_into(&self, buf: &mut Vec<HitRecord>) {
        while let Some(hit) = self.ring.pop() {
            buf.push(hit);
        }
    }

    /// Whether the log currently looks empty (racy, advisory).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total hits discarded on a full ring since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
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
}
