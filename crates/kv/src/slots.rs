//! A shard's item store: the slab arena, whose slot records are the
//! items' only metadata, and the index from key hash to slot.
//!
//! [`Slots`] is the node store ([`ItemStore`]) of the shard's PAMA
//! policy, so the policy's LRU queues link slot records directly: a
//! record holds the item's hash, lengths, penalty, band, expiry, flags
//! and CAS stamp, and its queue links and segment tag. The store keeps
//! the index in step with every storage decision as the policy makes
//! it: an insert maps the hash to its new slot, a removal or eviction
//! unmaps it, and a compaction repoints each moved item's hash.

use pama_core::cache::{ItemMeta, ItemStore};
use pama_core::config::CacheConfig;
use pama_core::lru::{Links, NodeRef};
use pama_metrics::MetricsRegistry;
use pama_slab::{Record, SlabArena, SlotRef};
use pama_util::{FastMap, SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// The expiry stamp of an item without a TTL: later than any clock
/// reading.
pub(crate) const NEVER: u64 = u64::MAX;

/// Whether the record's TTL has lapsed. `now` is only called for an
/// item that has a TTL, so the hit path skips the clock for the rest.
#[inline]
pub(crate) fn expired(rec: &Record, now: impl FnOnce() -> SimTime) -> bool {
    rec.expires != NEVER && now().as_micros() >= rec.expires
}

pub(crate) struct Slots {
    pub arena: SlabArena,
    /// Key hash → the slot of the item stored under it.
    pub index: FastMap<u64, SlotRef>,
    /// For slab-move timing, the one storage step the store performs
    /// on its own.
    metrics: Arc<MetricsRegistry>,
}

impl Slots {
    /// An empty store for the geometry `cfg`. The index starts empty and
    /// grows with the keys actually resident.
    pub fn new(cfg: &CacheConfig, metrics: Arc<MetricsRegistry>) -> Self {
        Self { arena: SlabArena::new(cfg), index: FastMap::default(), metrics }
    }

    /// The queue handle of slot `r`.
    #[inline]
    pub fn node(&self, r: SlotRef) -> NodeRef {
        NodeRef::new(self.arena.node(r))
    }

    /// The slot of queue handle `n`.
    #[inline]
    pub fn slot(&self, n: NodeRef) -> SlotRef {
        self.arena.slot_ref(n.index())
    }

    /// The item at the live slot `r`, as the policy files it.
    fn item_at(&self, r: SlotRef, rec: &Record) -> ItemMeta {
        ItemMeta {
            key: rec.hash,
            key_size: rec.key_len() as u32,
            value_size: rec.val_len() as u32,
            penalty: SimDuration::from_micros(u64::from(rec.penalty_us)),
            class: self.arena.slab_class(r).expect("a live slot's slab is carved") as u32,
            band: u32::from(rec.band),
            last_access: SimTime::ZERO,
        }
    }
}

/// A record's penalty field: microseconds, saturating (the store caps
/// penalties at `PENALTY_CAP` long before).
fn penalty_us(item: &ItemMeta) -> u32 {
    u32::try_from(item.penalty.as_micros()).unwrap_or(u32::MAX)
}

impl Links for Slots {
    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.arena.prev(n)
    }
    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.arena.next(n)
    }
    #[inline]
    fn set_prev(&mut self, n: u32, to: u32) {
        self.arena.set_prev(n, to);
    }
    #[inline]
    fn set_next(&mut self, n: u32, to: u32) {
        self.arena.set_next(n, to);
    }
    #[inline]
    fn tag(&self, n: u32) -> u8 {
        self.arena.tag(n)
    }
    #[inline]
    fn set_tag(&mut self, n: u32, tag: u8) {
        self.arena.set_tag(n, tag);
    }
    fn clear_tag(&mut self, n: u32) {
        self.arena.clear_tag(n);
    }
    #[inline]
    fn is_live(&self, n: u32) -> bool {
        self.arena.is_live(n)
    }
}

impl ItemStore for Slots {
    fn alloc(&mut self, item: &ItemMeta) -> NodeRef {
        let mut rec = Record::new(item.key, item.key_size as usize, item.value_size as usize);
        rec.penalty_us = penalty_us(item);
        rec.band = item.band as u8;
        rec.expires = NEVER;
        let r = self
            .arena
            .alloc(item.class as usize, rec)
            .unwrap_or_else(|e| panic!("arena refused a ledger-approved insert: {e}"));
        let prior = self.index.insert(item.key, r);
        debug_assert!(prior.is_none(), "hash {:#x} stored twice", item.key);
        self.node(r)
    }

    fn free(&mut self, n: NodeRef) -> ItemMeta {
        let r = self.slot(n);
        let rec = *self.arena.record(r).expect("free of a dead slot");
        let item = self.item_at(r, &rec);
        let unmapped = self.index.remove(&rec.hash);
        debug_assert_eq!(unmapped, Some(r), "the index lost hash {:#x}", rec.hash);
        self.arena.free(r).expect("live slot");
        item
    }

    #[inline]
    fn item(&self, n: NodeRef) -> Option<ItemMeta> {
        let r = self.slot(n);
        self.arena.record(r).map(|rec| self.item_at(r, rec))
    }

    fn update(&mut self, n: NodeRef, item: &ItemMeta) {
        let r = self.slot(n);
        let resized = self.arena.resize(r, item.key_size as usize, item.value_size as usize);
        debug_assert!(resized.is_ok(), "in-place update drifted: {resized:?}");
        let rec = self.arena.record_mut(r).expect("live slot");
        debug_assert_eq!(rec.hash, item.key);
        rec.penalty_us = penalty_us(item);
        rec.band = item.band as u8;
    }

    fn touch(&mut self, _: NodeRef, _: SimTime) {}

    fn slab_granted(&mut self, class: usize) {
        let granted = self.arena.grant_slab(class);
        debug_assert!(granted.is_ok(), "slab grant drifted: {granted:?}");
    }

    fn slab_moved(&mut self, src: usize, dst: usize, moved: &mut Vec<(NodeRef, NodeRef)>) {
        let t0 = Instant::now();
        let (ids, index) = (self.arena.ids(), &mut self.index);
        let done = self.arena.transfer_slab(src, dst, |rec, old, new| {
            let slot = index.get_mut(&rec.hash);
            debug_assert_eq!(slot.as_deref(), Some(&old), "compaction moved an unindexed slot");
            if let Some(slot) = slot {
                *slot = new;
            }
            moved.push((NodeRef::new(ids.node(old)), NodeRef::new(ids.node(new))));
        });
        debug_assert!(done.is_ok(), "slab transfer drifted: {done:?}");
        self.metrics.slab_move_us.record(t0.elapsed().as_micros() as u64);
    }
}
