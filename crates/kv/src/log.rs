//! The per-shard deferred-hit log.
//!
//! A cache-hit GET on the concurrent read path never takes the shard's
//! write lock; it records the hit here instead, as the key hash plus
//! the item's policy handle ([`Loc`]: size class, penalty band and LRU
//! node), which the read path assembled from the entry and the slot's
//! slab header. The log is a bounded lock-free ring
//! ([`crossbeam::queue::ArrayQueue`]) drained in batches whenever the
//! write lock is taken anyway — SET, DELETE, a GET miss, a TTL sweep,
//! or an explicit flush. The drain hands each record to the policy by
//! handle, so promoting a hit never looks up the policy's key index; a
//! record whose node no longer holds its hash is skipped.
//!
//! The log is **lossy by design**: when the ring is full a hit is
//! counted and discarded rather than blocking the reader (or worse,
//! making the reader drain it — applying every deferred hit to the
//! policy costs as much as the inline promotion the read path exists
//! to avoid). The ring therefore acts as a sampling buffer: the policy
//! sees at most `capacity` hits per write-lock event, which under
//! skewed traffic captures the hot set — exactly the recency signal
//! LRU promotion needs. A dropped record only loses one LRU-recency
//! refresh and one unit of PAMA segment value; PAMA's window-based
//! value estimate is statistical, so a bounded loss under overload
//! perturbs allocation no more than the sampling the paper's estimator
//! already accepts.

use crossbeam::queue::ArrayQueue;
use pama_core::cache::Loc;
use std::sync::atomic::{AtomicU64, Ordering};

/// One deferred hit: the key hash and the item's policy handle.
pub(crate) type HitRecord = (u64, Loc);

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
    use pama_core::lru::LruList;

    fn hit(h: u64) -> HitRecord {
        let node = LruList::new().push_front(());
        (h, Loc { class: 0, band: 0, node })
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
