//! A shard's item store, in two halves behind two locks.
//!
//! [`Data`] is what a reader needs: the slab arena — each slot's bytes
//! and data record (lengths, expiry, flags, CAS stamp, band) — and the
//! index from key hash to slot. It sits behind the shard's
//! reader-striped data lock.
//!
//! [`Slots`] is the node store ([`ItemStore`]) of the shard's PAMA
//! policy and sits with it behind the shard's policy lock: the slab
//! ledger (each slab's class, each class's free slots) and each slot's
//! policy node (hash, penalty, band, queue links and segment tag), so
//! the policy's LRU queues link slot nodes directly. It holds an `Arc`
//! of the data lock and carries out the data side of each storage
//! decision as the policy makes it, under a brief write lock: a free or
//! an eviction clears the slot's data record and unmaps the hash, a
//! slab grant carves the slab's bytes and records, and a compaction
//! moves bytes and records with their nodes and repoints the index.
//! `Slots` also counts each eviction (by band), slab grant and slab move
//! (by donor band) in the shard's stripe of the registry, as it carries
//! it out: the policy reports each decision to its store only. An
//! allocation needs no data lock: it takes a free slot from the ledger,
//! and the shard writes the item's bytes and record and maps its hash
//! in one write lock afterwards ([`Data::store`]), so a reader never
//! meets a slot whose bytes are still being written.

use crate::options::{CacheValue, ValueRef};
use pama_core::cache::{ItemMeta, ItemStore};
use pama_core::config::CacheConfig;
use pama_core::lru::{Links, NodeRef};
use pama_metrics::{BandCells, MetricsRegistry};
use pama_slab::{Node, Nodes, Record, SlabArena, SlotRef};
use pama_util::{FastMap, SimDuration, SimTime};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Instant;

/// The expiry stamp of an item without a TTL: later than any clock
/// reading.
pub(crate) const NEVER: u64 = u64::MAX;

/// Whether the record's TTL has lapsed. `now` is only called for an
/// item that has a TTL, so the hit path skips the clock for the rest.
#[inline]
pub(crate) fn expired(rec: &Record, now: impl FnOnce() -> SimTime) -> bool {
    rec.expires() != NEVER && now().as_micros() >= rec.expires()
}

/// What a lookup found under a key's hash.
pub(crate) enum EntryState {
    /// Present, key matches, not expired.
    Live,
    /// Present and key matches but past its TTL: to be dropped under
    /// the policy lock.
    Expired,
    /// Absent, or a hash collision with a different key.
    Absent,
}

/// The half of a shard that readers take: bytes, data records and the
/// index, behind the shard's reader-striped `RwLock`.
pub(crate) struct Data {
    pub arena: SlabArena,
    /// Key hash → the slot of the item stored under it.
    pub index: FastMap<u64, SlotRef>,
    /// The registry a reader counts its hits in, in its thread's stripe.
    metrics: Arc<MetricsRegistry>,
}

impl Data {
    /// An empty arena for the geometry `cfg` that counts hits in
    /// `metrics`. The index starts empty and grows with the keys
    /// actually resident.
    pub fn new(cfg: &CacheConfig, metrics: Arc<MetricsRegistry>) -> Self {
        Self { arena: SlabArena::new(cfg), index: FastMap::default(), metrics }
    }

    /// The slot stored under `h` and what it holds, if any.
    #[inline]
    pub fn lookup(&self, h: u64) -> Option<(SlotRef, &Record, &[u8], &[u8])> {
        let slot = *self.index.get(&h)?;
        let (rec, k, v) = self.arena.read(slot)?;
        Some((slot, rec, k, v))
    }

    /// The hit path: lookup, key check, TTL check, and a band hit
    /// count in the calling thread's stripe
    /// ([`parking_lot::thread_stripe`]); the value is borrowed from the
    /// arena. No other mutation —
    /// recency bookkeeping is the caller's job (via the access log, with
    /// the item's slot returned here). `now` is called only when the
    /// item has a TTL.
    #[inline]
    pub fn read_hit_ref(
        &self,
        h: u64,
        key: &[u8],
        now: impl FnOnce() -> SimTime,
    ) -> Option<(ValueRef<'_>, SlotRef)> {
        let (slot, rec, k, value) = self.lookup(h)?;
        if k != key || expired(rec, now) {
            return None;
        }
        self.metrics.band(parking_lot::thread_stripe(), usize::from(rec.band)).hits.inc();
        Some((ValueRef { value, flags: rec.flags, cas: rec.cas() }, slot))
    }

    /// [`Self::read_hit_ref`] with the value copied out.
    pub fn read_hit(
        &self,
        h: u64,
        key: &[u8],
        now: impl FnOnce() -> SimTime,
    ) -> Option<(CacheValue, SlotRef)> {
        self.read_hit_ref(h, key, now).map(|(v, slot)| (v.to_value(), slot))
    }

    /// Classifies what `h` holds for `key` at `now`.
    pub fn entry_state(&self, h: u64, key: &[u8], now: SimTime) -> EntryState {
        match self.lookup(h) {
            Some((_, rec, k, _)) if k == key => {
                if expired(rec, || now) {
                    EntryState::Expired
                } else {
                    EntryState::Live
                }
            }
            _ => EntryState::Absent,
        }
    }

    /// Writes the key and value bytes of the item a SET filed under `h`
    /// at `slot` — a free slot the ledger allocated, or the item's own
    /// for an in-place rewrite — maps `h` to the slot (a new item
    /// becomes reachable here), and returns its record for the owner
    /// fields.
    pub fn store(&mut self, h: u64, slot: SlotRef, key: &[u8], value: &[u8]) -> &mut Record {
        let written = self.arena.write(slot, key, value);
        debug_assert!(written.is_ok(), "arena refused a ledger-approved write: {written:?}");
        let prior = self.index.insert(h, slot);
        debug_assert!(prior.is_none_or(|p| p == slot), "hash {h:#x} stored twice");
        self.arena.record_mut(slot).expect("the policy filed the item here")
    }
}

/// The policy's half of a shard's store: the slab ledger and one node
/// per slot, mirroring the arena's slabs, and the data lock, through
/// which each storage decision reaches the arena and the index.
pub(crate) struct Slots {
    pub nodes: Nodes,
    data: Arc<RwLock<Data>>,
    /// The registry the shard counts in, and the shard's stripe of it.
    /// The store counts each eviction, slab grant and slab move as it
    /// carries it out, and times each slab move.
    pub metrics: Arc<MetricsRegistry>,
    pub stripe: usize,
}

impl Slots {
    /// An empty ledger for the geometry `cfg` of `data`'s arena, which
    /// must be empty too, counting in stripe `stripe` of `metrics`.
    pub fn new(
        cfg: &CacheConfig,
        data: Arc<RwLock<Data>>,
        metrics: Arc<MetricsRegistry>,
        stripe: usize,
    ) -> Self {
        Self { nodes: Nodes::new(cfg), data, metrics, stripe }
    }

    /// The shard's cells of penalty band `band`.
    #[inline]
    pub fn band(&self, band: usize) -> &BandCells {
        self.metrics.band(self.stripe, band)
    }

    /// The queue handle of slot `r`.
    #[inline]
    pub fn node(&self, r: SlotRef) -> NodeRef {
        NodeRef::new(self.nodes.ids().node(r))
    }

    /// The slot of queue handle `n`.
    #[inline]
    pub fn slot(&self, n: NodeRef) -> SlotRef {
        self.nodes.ids().slot_ref(n.index())
    }

    /// The item at the live slot `r`, as the policy files it. Its
    /// lengths live with its bytes, in the data record; the policy
    /// reads neither, so they are reported as zero.
    fn item_at(&self, r: SlotRef, node: &Node) -> ItemMeta {
        ItemMeta {
            key: node.hash,
            key_size: 0,
            value_size: 0,
            penalty: SimDuration::from_micros(u64::from(node.penalty_us)),
            class: self.nodes.slab_class(r).expect("a live slot's slab is carved") as u32,
            band: u32::from(node.band),
            last_access: SimTime::ZERO,
        }
    }
}

/// A node's penalty field: microseconds, saturating (the store caps
/// penalties at `PENALTY_CAP` long before).
fn penalty_us(item: &ItemMeta) -> u32 {
    u32::try_from(item.penalty.as_micros()).unwrap_or(u32::MAX)
}

impl Links for Slots {
    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.nodes.prev(n)
    }
    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.nodes.next(n)
    }
    #[inline]
    fn set_prev(&mut self, n: u32, to: u32) {
        self.nodes.set_prev(n, to);
    }
    #[inline]
    fn set_next(&mut self, n: u32, to: u32) {
        self.nodes.set_next(n, to);
    }
    #[inline]
    fn tag(&self, n: u32) -> u8 {
        self.nodes.tag(n)
    }
    #[inline]
    fn set_tag(&mut self, n: u32, tag: u8) {
        self.nodes.set_tag(n, tag);
    }
    fn clear_tag(&mut self, n: u32) {
        self.nodes.clear_tag(n);
    }
    #[inline]
    fn is_live(&self, n: u32) -> bool {
        self.nodes.is_live(n)
    }
}

impl ItemStore for Slots {
    /// Takes a free slot for the item's node. Its data record stays
    /// free, and its hash unmapped, until the SET stores its bytes.
    fn alloc(&mut self, item: &ItemMeta) -> NodeRef {
        let node = Node::new(item.key, penalty_us(item), item.band as u8);
        let r = self
            .nodes
            .alloc(item.class as usize, node)
            .unwrap_or_else(|e| panic!("ledger refused a policy-approved insert: {e}"));
        self.node(r)
    }

    fn free(&mut self, n: NodeRef) -> ItemMeta {
        let r = self.slot(n);
        let mut item = self.item_at(r, self.nodes.get(r).expect("free of a dead slot"));
        self.nodes.free(r);
        let mut data = self.data.write();
        let unmapped = data.index.remove(&item.key);
        debug_assert_eq!(unmapped, Some(r), "the index lost hash {:#x}", item.key);
        let rec = data.arena.free(r).expect("live slot");
        (item.key_size, item.value_size) = (rec.key_len() as u32, rec.val_len() as u32);
        item
    }

    #[inline]
    fn item(&self, n: NodeRef) -> Option<ItemMeta> {
        let r = self.slot(n);
        self.nodes.get(r).map(|node| self.item_at(r, node))
    }

    /// Updates the node's penalty; the SET that made the update writes
    /// the new lengths with the bytes.
    fn update(&mut self, n: NodeRef, item: &ItemMeta) {
        let node = self.nodes.get_mut(self.slot(n)).expect("live slot");
        debug_assert_eq!((node.hash, u32::from(node.band)), (item.key, item.band));
        node.penalty_us = penalty_us(item);
    }

    fn touch(&mut self, _: NodeRef, _: SimTime) {}

    /// Counts the eviction in the item's band; [`Self::free`] has freed
    /// its slot.
    fn evicted(&mut self, item: &ItemMeta) {
        self.band(item.band as usize).evictions.inc();
    }

    fn slab_granted(&mut self, class: usize) {
        let carved =
            self.nodes.grant(class).and_then(|sid| self.data.write().arena.carve(sid, class));
        debug_assert!(carved.is_ok(), "slab grant drifted: {carved:?}");
        self.metrics.slab_grants.inc();
    }

    /// Compacts `src` to free one slab and re-carves it for `dst`,
    /// counting the move in the donor band `src_band`.
    fn slab_moved(
        &mut self,
        src: usize,
        src_band: usize,
        dst: usize,
        moved: &mut Vec<(NodeRef, NodeRef)>,
    ) {
        let t0 = Instant::now();
        let mut data = self.data.write();
        let Data { arena, index, .. } = &mut *data;
        let ids = self.nodes.ids();
        let done = self.nodes.transfer(src, dst, |node, old, new| {
            let step = arena.move_slot(old, new);
            debug_assert!(step.is_ok(), "compaction step drifted: {step:?}");
            let slot = index.get_mut(&node.hash);
            debug_assert_eq!(slot.as_deref(), Some(&old), "compaction moved an unindexed slot");
            if let Some(slot) = slot {
                *slot = new;
            }
            moved.push((NodeRef::new(ids.node(old)), NodeRef::new(ids.node(new))));
        });
        let carved = done.and_then(|sid| arena.carve(sid, dst));
        debug_assert!(carved.is_ok(), "slab transfer drifted: {carved:?}");
        drop(data);
        self.metrics.slab_move_us.record(t0.elapsed().as_micros() as u64);
        self.band(src_band).slab_moves.inc();
    }
}
