//! The slab-cache substrate shared by every allocation policy.
//!
//! [`BaseCache`] models exactly what Memcached's slab allocator
//! exposes to a reallocation policy (paper §II):
//!
//! * a global pool of `total_bytes / slab_bytes` **slabs**;
//! * per **class**: a slab count, slot accounting (`capacity =
//!   slabs × slots_per_slab`), and one or more LRU **queues**
//!   (subclasses — plain policies use one queue per class, PAMA one
//!   per penalty band);
//! * one **item store** ([`ItemStore`]) holding every queue's nodes;
//! * a key → node **index**, unless the owner keeps each item's handle
//!   itself ([`BaseCache::with_store`]).
//!
//! The default store, an [`Arena`] of [`ItemMeta`] nodes, models no
//! physical slot addresses: evicting the bottom "virtual slab" of a
//! queue frees slots scattered over physical slabs, and the paper
//! compacts valid items together to produce an empty slab for
//! migration. Exact slot-count accounting is precisely the
//! post-compaction state, so counts are sufficient (DESIGN.md §5). A
//! physical store (pama-kv's slab slots) does the compaction itself
//! when told a slab moved, and reports each node it relocated.
//!
//! All mutation goes through methods that preserve the central
//! invariants, checked by [`BaseCache::check_invariants`]:
//! `used_slots(c) ≤ capacity(c)` for every class, the slab ledger sums
//! to the total, and the index (when there is one) agrees bijectively
//! with queue contents.

use crate::config::CacheConfig;
use crate::lru::{Arena, Links, NodeRef, Queue};
use pama_util::{FastMap, SimDuration, SimTime};

/// Metadata of one cached item (the simulator stores no value bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ItemMeta {
    /// The item's key.
    pub key: u64,
    /// Key length in bytes.
    pub key_size: u32,
    /// Value length in bytes.
    pub value_size: u32,
    /// Miss penalty attributed to the item (capped at the top band).
    pub penalty: SimDuration,
    /// Size class the item lives in.
    pub class: u32,
    /// Penalty band (subclass) the item lives in; 0 for single-queue
    /// policies.
    pub band: u32,
    /// Last access time (LRU age for the Facebook-style policy).
    pub last_access: SimTime,
}

/// Where a cache's item nodes live: one store for every queue of every
/// class. Each node holds one item, whose class and band name the queue
/// it is linked into. The cache decides; the store carries out the
/// storage side of each decision, as the cache makes it.
pub trait ItemStore: Links {
    /// Stores `item` in a fresh, unlinked node in a free slot of class
    /// `item.class`. The cache has counted that slot free, granting the
    /// class a slab first when it needed one.
    fn alloc(&mut self, item: &ItemMeta) -> NodeRef;

    /// Frees an unlinked live node, returning its item.
    fn free(&mut self, n: NodeRef) -> ItemMeta;

    /// The item at `n`, or `None` when `n` names no live node. A store
    /// that keeps an item's lengths beside its bytes rather than in its
    /// node may report them as zero: nothing generic over the store
    /// reads them.
    fn item(&self, n: NodeRef) -> Option<ItemMeta>;

    /// Rewrites a live node's item, keeping its class and band (a store
    /// that keeps lengths beside the bytes takes them with the bytes).
    fn update(&mut self, n: NodeRef, item: &ItemMeta);

    /// Stamps a live node's last access (a store that keeps no access
    /// times ignores it).
    fn touch(&mut self, n: NodeRef, now: SimTime);

    /// The item [`free`](Self::free) just returned left by eviction: an
    /// LRU replacement or a casualty of a slab move, not a request for
    /// its own key.
    fn evicted(&mut self, item: &ItemMeta);

    /// `class` took a slab from the free pool.
    fn slab_granted(&mut self, class: usize);

    /// One slab of `src`, whose candidate slab was drawn from band
    /// `src_band` and whose items the cache has already evicted down to
    /// what the rest of the class holds, now belongs to `dst`. A
    /// physical store compacts the class to free one slab and re-carves
    /// it; for every node it moves, it moves the links and tag too,
    /// repoints the node's neighbours, and pushes `(old, new)` onto
    /// `moved` (the cache repoints its queue ends).
    fn slab_moved(
        &mut self,
        src: usize,
        src_band: usize,
        dst: usize,
        moved: &mut Vec<(NodeRef, NodeRef)>,
    );
}

/// The simulator's store: item metadata in an arena, slabs as counts.
impl ItemStore for Arena<ItemMeta> {
    fn alloc(&mut self, item: &ItemMeta) -> NodeRef {
        Arena::alloc(self, *item)
    }

    fn free(&mut self, n: NodeRef) -> ItemMeta {
        Arena::free(self, n)
    }

    fn item(&self, n: NodeRef) -> Option<ItemMeta> {
        self.try_get(n).copied()
    }

    fn update(&mut self, n: NodeRef, item: &ItemMeta) {
        *self.get_mut(n) = *item;
    }

    fn touch(&mut self, n: NodeRef, now: SimTime) {
        self.get_mut(n).last_access = now;
    }

    fn evicted(&mut self, _: &ItemMeta) {}

    fn slab_granted(&mut self, _: usize) {}

    fn slab_moved(&mut self, _: usize, _: usize, _: usize, _: &mut Vec<(NodeRef, NodeRef)>) {}
}

/// Per-class state: slab count and the subclass queues.
#[derive(Debug, Clone)]
pub struct ClassState {
    /// Slots in one of this class's slabs (the config's
    /// `slots_per_slab`, kept here so that capacity checks on every
    /// evicting insert need no division).
    pub slots_per_slab: usize,
    /// Slabs currently assigned to this class.
    pub slabs: usize,
    /// Live items (each occupies one slot).
    pub used_slots: usize,
    /// One LRU queue per band; the nodes live in the cache's store.
    pub queues: Vec<Queue>,
}

/// The slab cache. See the module docs.
#[derive(Debug, Clone)]
pub struct BaseCache<S = Arena<ItemMeta>> {
    cfg: CacheConfig,
    bands: usize,
    free_slabs: usize,
    classes: Vec<ClassState>,
    store: S,
    /// `None` for an owner that reaches every item through the handle
    /// the insert returned; the by-key methods then have nothing to
    /// consult.
    index: Option<FastMap<u64, NodeRef>>,
    /// Live items, index or not.
    len: usize,
    /// The `(old, new)` node moves of the last slab migration.
    relocated: Vec<(NodeRef, NodeRef)>,
}

/// Outcome of an insert attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored in an existing free slot, at the given node.
    Stored(NodeRef),
    /// Stored after the class received a slab from the free pool.
    StoredWithNewSlab(NodeRef),
    /// No slot, no free slab: the caller's policy must make room first.
    NoSpace,
}

impl InsertOutcome {
    /// The stored item's node, unless nothing was stored.
    pub fn node(self) -> Option<NodeRef> {
        match self {
            InsertOutcome::Stored(n) | InsertOutcome::StoredWithNewSlab(n) => Some(n),
            InsertOutcome::NoSpace => None,
        }
    }
}

const UNINDEXED: &str = "by-key call on a BaseCache built without an index";

impl BaseCache {
    /// Creates an empty cache with `bands` queues per class, the
    /// default store and a key index.
    ///
    /// # Panics
    /// Panics when the config fails validation or `bands == 0`.
    pub fn new(cfg: CacheConfig, bands: usize) -> Self {
        Self { index: Some(FastMap::default()), ..Self::with_store(cfg, bands, Arena::new()) }
    }
}

impl<S: ItemStore> BaseCache<S> {
    /// An empty cache with `bands` queues per class over `store`, and no
    /// key index: for an owner that keeps the [`NodeRef`] every insert
    /// returns and addresses items only through it
    /// ([`meta_at`](Self::meta_at), [`update_at`](Self::update_at),
    /// [`remove_at`](Self::remove_at), …). The by-key methods
    /// ([`lookup`](Self::lookup), [`contains`](Self::contains),
    /// [`peek`](Self::peek), [`touch`](Self::touch),
    /// [`remove`](Self::remove), [`update_in_place`](Self::update_in_place))
    /// debug-assert that an index exists and find nothing without one.
    ///
    /// # Panics
    /// Panics when the config fails validation or `bands == 0`.
    pub fn with_store(cfg: CacheConfig, bands: usize, store: S) -> Self {
        cfg.validate().expect("invalid cache config");
        assert!(bands > 0, "need at least one band");
        let nc = cfg.num_classes();
        let classes = (0..nc)
            .map(|c| ClassState {
                slots_per_slab: cfg.slots_per_slab(c),
                slabs: 0,
                used_slots: 0,
                queues: vec![Queue::new(); bands],
            })
            .collect();
        let free_slabs = cfg.total_slabs();
        Self {
            cfg,
            bands,
            free_slabs,
            classes,
            store,
            index: None,
            len: 0,
            relocated: Vec::new(),
        }
    }

    /// Whether the cache keeps a key index (see
    /// [`with_store`](Self::with_store)).
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// The configuration.
    pub fn cfg(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Queues per class.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Slabs not assigned to any class.
    pub fn free_slabs(&self) -> usize {
        self.free_slabs
    }

    /// Total live items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the cache holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow a class's state.
    pub fn class(&self, c: usize) -> &ClassState {
        &self.classes[c]
    }

    /// The store every queue's nodes live in.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the store, for what the cache does not track:
    /// node tags, which belong to the cache's policy, and a physical
    /// store's bytes and per-item fields beyond [`ItemMeta`]. The caller
    /// must not allocate, free or relink nodes, nor change an item's
    /// metadata.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Slot capacity of class `c`.
    pub fn capacity(&self, c: usize) -> usize {
        self.classes[c].slabs * self.classes[c].slots_per_slab
    }

    /// Free slots in class `c`.
    pub fn free_slots(&self, c: usize) -> usize {
        self.capacity(c) - self.classes[c].used_slots
    }

    /// Node of a key, if cached.
    pub fn lookup(&self, key: u64) -> Option<NodeRef> {
        debug_assert!(self.is_indexed(), "{UNINDEXED}");
        self.index.as_ref()?.get(&key).copied()
    }

    /// Whether a key is cached.
    pub fn contains(&self, key: u64) -> bool {
        self.lookup(key).is_some()
    }

    /// Touches a cached key: moves it to its queue's front and stamps
    /// `last_access`. Returns the (updated) metadata.
    pub fn touch(&mut self, key: u64, now: SimTime) -> Option<ItemMeta> {
        let node = self.lookup(key)?;
        self.touch_at(node, key, now)
    }

    /// The metadata at a handle held outside the index, if the handle
    /// still names a live node that holds `key`. A handle to a removed
    /// node, or to a node since reused by another key, answers `None`.
    /// The item's class and band name the queue the node is in.
    pub fn meta_at(&self, node: NodeRef, key: u64) -> Option<ItemMeta> {
        self.store.item(node).filter(|m| m.key == key)
    }

    /// The items of queue `(class, band)`, front (MRU) to back.
    pub fn items(&self, class: usize, band: usize) -> impl Iterator<Item = ItemMeta> + '_ {
        self.classes[class].queues[band]
            .iter(&self.store)
            .map(|n| self.store.item(n).expect("a queue links only live nodes"))
    }

    /// [`touch`](Self::touch) by handle, without the index probe: when
    /// [`meta_at`](Self::meta_at) accepts the handle, moves the node to
    /// its queue's front, stamps `last_access`, and returns the updated
    /// metadata. A stale handle changes nothing and answers `None`.
    pub(crate) fn touch_at(
        &mut self,
        node: NodeRef,
        key: u64,
        now: SimTime,
    ) -> Option<ItemMeta> {
        let mut meta = self.meta_at(node, key)?;
        self.classes[meta.class as usize].queues[meta.band as usize]
            .move_to_front(&mut self.store, node);
        self.store.touch(node, now);
        meta.last_access = now;
        Some(meta)
    }

    /// Replaces a resident item's metadata in place and touches it.
    /// The new metadata must keep the item in the same class and band
    /// (callers reinsert otherwise). Returns `false` when the key is
    /// not resident.
    ///
    /// # Panics
    /// Debug-panics on a class/band change.
    pub fn update_in_place(&mut self, meta: ItemMeta) -> bool {
        self.lookup(meta.key).is_some_and(|node| self.update_at(node, meta))
    }

    /// [`update_in_place`](Self::update_in_place) by handle, without the
    /// index probe: when [`meta_at`](Self::meta_at) accepts `node` for
    /// `meta.key`, moves the node to its queue's front and replaces its
    /// metadata. A stale handle changes nothing and answers `false`.
    ///
    /// # Panics
    /// Debug-panics on a class/band change.
    pub fn update_at(&mut self, node: NodeRef, meta: ItemMeta) -> bool {
        let Some(old) = self.meta_at(node, meta.key) else {
            return false;
        };
        debug_assert_eq!(old.class, meta.class, "update across classes");
        debug_assert_eq!(old.band, meta.band, "update across bands");
        self.classes[old.class as usize].queues[old.band as usize]
            .move_to_front(&mut self.store, node);
        self.store.update(node, &meta);
        true
    }

    /// Reads a cached item's metadata without touching it.
    pub fn peek(&self, key: u64) -> Option<ItemMeta> {
        self.store.item(self.lookup(key)?)
    }

    /// Attempts to insert a new item (the key must not be cached).
    /// Tries a free slot, then a free slab from the pool; returns
    /// [`InsertOutcome::NoSpace`] when neither exists. A stored
    /// outcome carries the item's node.
    ///
    /// # Panics
    /// Panics (debug) when an indexed cache already holds the key.
    pub fn insert(&mut self, meta: ItemMeta) -> InsertOutcome {
        debug_assert!(
            self.index.as_ref().is_none_or(|ix| !ix.contains_key(&meta.key)),
            "insert of cached key {}",
            meta.key
        );
        let c = meta.class as usize;
        let mut new_slab = false;
        if self.free_slots(c) == 0 {
            if !self.grant_slab(c) {
                return InsertOutcome::NoSpace;
            }
            new_slab = true;
        }
        let node = self.store.alloc(&meta);
        self.classes[c].queues[meta.band as usize].push_front(&mut self.store, node);
        self.classes[c].used_slots += 1;
        self.len += 1;
        if let Some(ix) = &mut self.index {
            ix.insert(meta.key, node);
        }
        if new_slab {
            InsertOutcome::StoredWithNewSlab(node)
        } else {
            InsertOutcome::Stored(node)
        }
    }

    /// Removes a key, returning its metadata.
    pub fn remove(&mut self, key: u64) -> Option<ItemMeta> {
        debug_assert!(self.is_indexed(), "{UNINDEXED}");
        let node = self.index.as_mut()?.remove(&key)?;
        Some(self.unlink(node))
    }

    /// [`remove`](Self::remove) by handle: when
    /// [`meta_at`](Self::meta_at) accepts `node` for `key`, removes the
    /// item and returns its metadata. A stale handle changes nothing
    /// and answers `None`.
    pub fn remove_at(&mut self, node: NodeRef, key: u64) -> Option<ItemMeta> {
        self.meta_at(node, key)?;
        if let Some(ix) = &mut self.index {
            ix.remove(&key);
        }
        Some(self.unlink(node))
    }

    /// Unlinks and frees the live node `node`, index aside.
    fn unlink(&mut self, node: NodeRef) -> ItemMeta {
        let meta = self.store.item(node).expect("unlink of a dead node");
        self.classes[meta.class as usize].queues[meta.band as usize]
            .remove(&mut self.store, node);
        self.classes[meta.class as usize].used_slots -= 1;
        self.len -= 1;
        self.store.free(node)
    }

    /// Evicts the LRU item of `(class, band)`, reporting it to the store
    /// ([`ItemStore::evicted`]), and returns it.
    pub fn evict_tail(&mut self, class: usize, band: usize) -> Option<ItemMeta> {
        let node = self.classes[class].queues[band].back()?;
        let meta = self.unlink(node);
        if let Some(ix) = &mut self.index {
            ix.remove(&meta.key);
        }
        self.store.evicted(&meta);
        Some(meta)
    }

    /// One subclass queue and the store, for node tags only: the caller
    /// must not push, remove or reorder nodes.
    pub(crate) fn queue_and_store(&mut self, class: usize, band: usize) -> (&Queue, &mut S) {
        (&self.classes[class].queues[band], &mut self.store)
    }

    /// Grants one slab from the free pool to `class`. Returns `false`
    /// when the pool is empty.
    pub fn grant_slab(&mut self, class: usize) -> bool {
        if self.free_slabs == 0 {
            return false;
        }
        self.free_slabs -= 1;
        self.classes[class].slabs += 1;
        self.store.slab_granted(class);
        true
    }

    /// Moves one slab from `src` to `dst` class, evicting from
    /// `src_band` (then from the class's fullest band) as needed. Each
    /// item evicted en route reaches the store and then `on_evict`,
    /// before the store hears of the move; the nodes its compaction
    /// moved are then listed by [`relocated`](Self::relocated). Returns
    /// `false` (no change) when `src` owns no slab.
    pub fn migrate_slab(
        &mut self,
        src: usize,
        src_band: usize,
        dst: usize,
        mut on_evict: impl FnMut(ItemMeta),
    ) -> bool {
        self.relocated.clear();
        if src == dst || self.classes[src].slabs == 0 {
            return false;
        }
        let spslab = self.classes[src].slots_per_slab;
        while self.free_slots(src) < spslab {
            let victim_band = if !self.classes[src].queues[src_band].is_empty() {
                src_band
            } else {
                // fall back to the longest queue in the class
                match (0..self.bands)
                    .filter(|&b| !self.classes[src].queues[b].is_empty())
                    .max_by_key(|&b| self.classes[src].queues[b].len())
                {
                    Some(b) => b,
                    None => break, // class is empty; free_slots must now cover it
                }
            };
            match self.evict_tail(src, victim_band) {
                Some(m) => on_evict(m),
                None => break,
            }
        }
        debug_assert!(self.free_slots(src) >= spslab);
        self.classes[src].slabs -= 1;
        self.store.slab_moved(src, src_band, dst, &mut self.relocated);
        for &(old, new) in &self.relocated {
            for q in &mut self.classes[src].queues {
                q.relocated(old, new);
            }
        }
        self.classes[dst].slabs += 1;
        true
    }

    /// The `(old, new)` node moves the store's compaction made in the
    /// last [`migrate_slab`](Self::migrate_slab): empty for the default
    /// store, which moves nothing.
    pub fn relocated(&self) -> &[(NodeRef, NodeRef)] {
        &self.relocated
    }

    /// Per-class slab counts (the Fig. 3 series).
    pub fn slab_allocation(&self) -> Vec<u32> {
        self.classes.iter().map(|c| c.slabs as u32).collect()
    }

    /// Per-class, per-band live item counts (the Fig. 4 series, in
    /// slot units; divide by `slots_per_slab` for slab-equivalents).
    pub fn subclass_usage(&self) -> Vec<Vec<u64>> {
        self.classes.iter().map(|c| c.queues.iter().map(|q| q.len() as u64).collect()).collect()
    }

    /// Verifies every structural invariant; O(n). Test/property-suite
    /// hook.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut slab_sum = self.free_slabs;
        let mut item_sum = 0usize;
        for (ci, cs) in self.classes.iter().enumerate() {
            slab_sum += cs.slabs;
            let qlen: usize = cs.queues.iter().map(|q| q.len()).sum();
            if qlen != cs.used_slots {
                return Err(format!("class {ci}: queues {qlen} != used {}", cs.used_slots));
            }
            if cs.used_slots > self.capacity(ci) {
                return Err(format!(
                    "class {ci}: used {} > capacity {}",
                    cs.used_slots,
                    self.capacity(ci)
                ));
            }
            for (bi, q) in cs.queues.iter().enumerate() {
                q.check_invariants(&self.store)?;
                for m in self.items(ci, bi) {
                    if (m.class as usize, m.band as usize) != (ci, bi) {
                        return Err(format!(
                            "item {} of class {} band {} in queue ({ci}, {bi})",
                            m.key, m.class, m.band
                        ));
                    }
                    let Some(index) = &self.index else { continue };
                    let node = index
                        .get(&m.key)
                        .ok_or_else(|| format!("item {} missing from index", m.key))?;
                    if self.store.item(*node).map(|i| i.key) != Some(m.key) {
                        return Err(format!("index node mismatch for {}", m.key));
                    }
                }
            }
            item_sum += qlen;
        }
        if slab_sum != self.cfg.total_slabs() {
            return Err(format!(
                "slab ledger {} != total {}",
                slab_sum,
                self.cfg.total_slabs()
            ));
        }
        if item_sum != self.len {
            return Err(format!("items {item_sum} != count {}", self.len));
        }
        if let Some(index) = self.index.as_ref().filter(|ix| ix.len() != item_sum) {
            return Err(format!("items {item_sum} != index {}", index.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CacheConfig {
        // 4 slabs of 4 KiB, slots 64..4096 → 7 classes
        CacheConfig {
            total_bytes: 16 << 10,
            slab_bytes: 4 << 10,
            min_slot: 64,
            ..CacheConfig::default()
        }
    }

    fn meta(key: u64, class: u32) -> ItemMeta {
        ItemMeta { key, key_size: 8, value_size: 40, class, ..ItemMeta::default() }
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = BaseCache::new(small_cfg(), 1);
        assert!(matches!(c.insert(meta(1, 0)), InsertOutcome::StoredWithNewSlab(_)));
        let InsertOutcome::Stored(loc) = c.insert(meta(2, 0)) else { panic!("no slot") };
        assert_eq!(c.lookup(2), Some(loc), "insert returns the indexed location");
        assert!(c.contains(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.free_slabs(), 3);
        assert_eq!(c.class(0).slabs, 1);
        assert_eq!(c.free_slots(0), 64 - 2);
        c.check_invariants().unwrap();
    }

    #[test]
    fn touch_moves_to_front_and_stamps() {
        let mut c = BaseCache::new(small_cfg(), 1);
        c.insert(meta(1, 0));
        c.insert(meta(2, 0));
        // tail is key 1; touch it
        let m = c.touch(1, SimTime::from_millis(9)).unwrap();
        assert_eq!(m.last_access, SimTime::from_millis(9));
        let tail = c.evict_tail(0, 0).unwrap();
        assert_eq!(tail.key, 2, "touched key must not be LRU");
        assert!(c.touch(42, SimTime::ZERO).is_none());
        c.check_invariants().unwrap();
    }

    #[test]
    fn touch_at_skips_removed_and_reused_nodes() {
        let mut c = BaseCache::new(small_cfg(), 1);
        for k in 1..=3 {
            c.insert(meta(k, 0));
        }
        let order = |c: &BaseCache| c.items(0, 0).map(|m| m.key).collect::<Vec<_>>();
        // A live handle promotes without the index.
        let loc1 = c.lookup(1).unwrap();
        assert_eq!(c.touch_at(loc1, 1, SimTime::from_millis(4)).unwrap().key, 1);
        assert_eq!(order(&c), vec![1, 3, 2]);
        // The same handle under another key is refused.
        assert!(c.touch_at(loc1, 2, SimTime::ZERO).is_none());
        // A removed node is refused and the order is left alone.
        let loc2 = c.lookup(2).unwrap();
        c.remove(2);
        assert!(c.meta_at(loc2, 2).is_none());
        assert!(c.touch_at(loc2, 2, SimTime::ZERO).is_none());
        assert_eq!(order(&c), vec![1, 3]);
        // The freed node reused by key 9: the old handle no longer
        // reaches key 2, and key 9 keeps its place.
        c.insert(meta(9, 0));
        assert_eq!(c.lookup(9).unwrap(), loc2, "the arena reuses the freed node");
        c.touch_at(loc1, 1, SimTime::ZERO).unwrap();
        let before = order(&c);
        assert!(c.touch_at(loc2, 2, SimTime::ZERO).is_none());
        assert_eq!(order(&c), before);
        // A handle past the store is refused, not a panic.
        assert!(c.touch_at(NodeRef::new(99), 1, SimTime::ZERO).is_none());
        c.check_invariants().unwrap();
    }

    #[test]
    fn insert_no_space_when_pool_empty() {
        let mut cfg = small_cfg();
        cfg.total_bytes = 4 << 10; // one slab
        let mut c = BaseCache::new(cfg, 1);
        // fill class 6 (slot 4096, 1 per slab)
        assert!(matches!(c.insert(meta(1, 6)), InsertOutcome::StoredWithNewSlab(_)));
        assert_eq!(c.insert(meta(2, 6)), InsertOutcome::NoSpace);
        assert_eq!(c.insert(meta(3, 0)), InsertOutcome::NoSpace);
        c.check_invariants().unwrap();
    }

    #[test]
    fn unindexed_cache_is_addressed_by_handle() {
        let mut c = BaseCache::with_store(small_cfg(), 1, Arena::new());
        assert!(!c.is_indexed());
        let locs: Vec<NodeRef> =
            (1..=3).map(|k| c.insert(meta(k, 0)).node().unwrap()).collect();
        assert_eq!(c.len(), 3);
        assert_eq!(c.meta_at(locs[1], 2).unwrap().key, 2);
        // A handle under the wrong key removes nothing.
        assert!(c.remove_at(locs[1], 3).is_none());
        assert_eq!(c.remove_at(locs[1], 2).unwrap().key, 2);
        assert!(c.remove_at(locs[1], 2).is_none(), "a removed node is refused");
        assert_eq!((c.len(), c.free_slots(0)), (2, 62));
        c.check_invariants().unwrap();
        assert_eq!(c.evict_tail(0, 0).unwrap().key, 1);
        assert_eq!(c.len(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_at_keeps_the_index_in_step() {
        let mut c = BaseCache::new(small_cfg(), 1);
        let loc = c.insert(meta(1, 0)).node().unwrap();
        assert_eq!(c.remove_at(loc, 1).unwrap().key, 1);
        assert!(!c.contains(1));
        assert!(c.is_empty());
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = BaseCache::new(small_cfg(), 1);
        c.insert(meta(1, 0));
        let m = c.remove(1).unwrap();
        assert_eq!(m.key, 1);
        assert!(!c.contains(1));
        assert_eq!(c.free_slots(0), 64);
        assert!(c.remove(1).is_none());
        c.check_invariants().unwrap();
    }

    #[test]
    fn evict_tail_is_lru_order() {
        let mut c = BaseCache::new(small_cfg(), 1);
        for k in 1..=5 {
            c.insert(meta(k, 0));
        }
        assert_eq!(c.evict_tail(0, 0).unwrap().key, 1);
        assert_eq!(c.evict_tail(0, 0).unwrap().key, 2);
        assert_eq!(c.len(), 3);
        c.check_invariants().unwrap();
    }

    #[test]
    fn migrate_slab_evicts_enough() {
        let mut cfg = small_cfg();
        cfg.total_bytes = 8 << 10; // 2 slabs
        let mut c = BaseCache::new(cfg, 1);
        // class 5: slot 2048, 2 per slab. Fill both slabs (4 items).
        for k in 1..=4 {
            let mut m = meta(k, 5);
            m.value_size = 2000;
            assert_ne!(c.insert(m), InsertOutcome::NoSpace);
        }
        assert_eq!(c.class(5).slabs, 2);
        let mut evicted = Vec::new();
        assert!(c.migrate_slab(5, 0, 0, |m| evicted.push(m.key)));
        assert_eq!((c.class(5).slabs, c.class(0).slabs, c.free_slabs()), (1, 1, 0));
        assert_eq!(evicted, vec![1, 2], "LRU items evicted first");
        c.check_invariants().unwrap();
    }

    #[test]
    fn migrate_slab_with_partial_free_slots_evicts_fewer() {
        let mut cfg = small_cfg();
        cfg.total_bytes = 4 << 10;
        let mut c = BaseCache::new(cfg, 1);
        // class 5 (2 slots/slab): insert 2 then remove 1 → 1 free slot
        let mut m1 = meta(1, 5);
        m1.value_size = 2000;
        let mut m2 = meta(2, 5);
        m2.value_size = 2000;
        c.insert(m1);
        c.insert(m2);
        c.remove(1);
        let mut evicted = 0;
        assert!(c.migrate_slab(5, 0, 0, |_| evicted += 1));
        assert_eq!(evicted, 1, "only one eviction needed");
        c.check_invariants().unwrap();
    }

    #[test]
    fn migrate_slab_moves_between_classes() {
        let mut cfg = small_cfg();
        cfg.total_bytes = 4 << 10;
        let mut c = BaseCache::new(cfg, 1);
        c.insert(meta(1, 0));
        assert_eq!(c.free_slabs(), 0);
        let mut evicted = Vec::new();
        assert!(c.migrate_slab(0, 0, 3, |m| evicted.push(m.key)));
        assert_eq!(evicted, vec![1]);
        assert_eq!(c.class(0).slabs, 0);
        assert_eq!(c.class(3).slabs, 1);
        assert!(!c.migrate_slab(2, 0, 3, |_| panic!("nothing to evict")), "empty source");
        assert!(!c.migrate_slab(3, 0, 3, |_| {}), "src == dst");
        c.check_invariants().unwrap();
    }

    #[test]
    fn multi_band_migration_falls_back_to_fullest_queue() {
        let mut cfg = small_cfg();
        cfg.total_bytes = 4 << 10;
        let mut c = BaseCache::new(cfg, 3);
        // class 5: 2 slots/slab; put both items in band 2
        for k in 1..=2 {
            let mut m = meta(k, 5);
            m.value_size = 2000;
            m.band = 2;
            c.insert(m);
        }
        let mut evicted = Vec::new();
        // ask to evict from band 0 (empty) → falls back to band 2
        assert!(c.migrate_slab(5, 0, 0, |m| evicted.push(m.key)));
        assert_eq!(evicted.len(), 2);
        c.check_invariants().unwrap();
    }

    #[test]
    fn allocation_snapshots() {
        let mut c = BaseCache::new(small_cfg(), 2);
        c.insert(meta(1, 0));
        let mut m = meta(2, 1);
        m.band = 1;
        c.insert(m);
        let alloc = c.slab_allocation();
        assert_eq!(alloc[0], 1);
        assert_eq!(alloc[1], 1);
        let usage = c.subclass_usage();
        assert_eq!(usage[0][0], 1);
        assert_eq!(usage[1][1], 1);
        assert_eq!(usage[1][0], 0);
    }

    #[test]
    fn grant_slab_depletes_pool() {
        let mut c = BaseCache::new(small_cfg(), 1);
        for _ in 0..4 {
            assert!(c.grant_slab(2));
        }
        assert!(!c.grant_slab(2));
        assert_eq!(c.class(2).slabs, 4);
        c.check_invariants().unwrap();
    }
}
