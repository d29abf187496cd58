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
//! * a key → location **index**, unless the owner keeps each item's
//!   handle itself ([`BaseCache::unindexed`]).
//!
//! Physical slot addresses are *not* modelled: evicting the bottom
//! "virtual slab" of a queue frees slots scattered over physical
//! slabs, and the paper compacts valid items together to produce an
//! empty slab for migration. Exact slot-count accounting is precisely
//! the post-compaction state, so counts are sufficient (DESIGN.md §5).
//!
//! All mutation goes through methods that preserve the central
//! invariants, checked by [`BaseCache::check_invariants`]:
//! `used_slots(c) ≤ capacity(c)` for every class, the slab ledger sums
//! to the total, and the index (when there is one) agrees bijectively
//! with queue contents.

use crate::config::CacheConfig;
use crate::lru::{LruList, NodeRef};
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

/// Location of a cached item: class, band, and queue handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// Size class.
    pub class: u32,
    /// Penalty band.
    pub band: u32,
    /// Handle into the subclass queue.
    pub node: NodeRef,
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
    /// One LRU queue per band.
    pub queues: Vec<LruList<ItemMeta>>,
}

/// The slab cache. See the module docs.
#[derive(Debug, Clone)]
pub struct BaseCache {
    cfg: CacheConfig,
    bands: usize,
    free_slabs: usize,
    classes: Vec<ClassState>,
    /// `None` for an owner that reaches every item through the handle
    /// the insert returned; the by-key methods then have nothing to
    /// consult.
    index: Option<FastMap<u64, Loc>>,
    /// Live items, index or not.
    len: usize,
}

/// Outcome of an insert attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored in an existing free slot, at the given location.
    Stored(Loc),
    /// Stored after the class received a slab from the free pool.
    StoredWithNewSlab(Loc),
    /// No slot, no free slab: the caller's policy must make room first.
    NoSpace,
}

impl InsertOutcome {
    /// The stored item's location, unless nothing was stored.
    pub fn loc(self) -> Option<Loc> {
        match self {
            InsertOutcome::Stored(loc) | InsertOutcome::StoredWithNewSlab(loc) => Some(loc),
            InsertOutcome::NoSpace => None,
        }
    }
}

const UNINDEXED: &str = "by-key call on a BaseCache built without an index";

impl BaseCache {
    /// Creates an empty cache with `bands` queues per class and a key
    /// index.
    ///
    /// # Panics
    /// Panics when the config fails validation or `bands == 0`.
    pub fn new(cfg: CacheConfig, bands: usize) -> Self {
        Self { index: Some(FastMap::default()), ..Self::unindexed(cfg, bands) }
    }

    /// [`new`](Self::new) without the key index, for an owner that
    /// keeps the [`Loc`] every insert returns and addresses items only
    /// through it ([`meta_at`](Self::meta_at),
    /// [`update_at`](Self::update_at), [`remove_at`](Self::remove_at),
    /// …). The by-key methods
    /// ([`lookup`](Self::lookup), [`contains`](Self::contains),
    /// [`peek`](Self::peek), [`touch`](Self::touch),
    /// [`remove`](Self::remove), [`update_in_place`](Self::update_in_place))
    /// debug-assert that an index exists and find nothing without one.
    ///
    /// # Panics
    /// Panics when the config fails validation or `bands == 0`.
    pub fn unindexed(cfg: CacheConfig, bands: usize) -> Self {
        cfg.validate().expect("invalid cache config");
        assert!(bands > 0, "need at least one band");
        let nc = cfg.num_classes();
        let classes = (0..nc)
            .map(|c| ClassState {
                slots_per_slab: cfg.slots_per_slab(c),
                slabs: 0,
                used_slots: 0,
                queues: (0..bands).map(|_| LruList::new()).collect(),
            })
            .collect();
        let free_slabs = cfg.total_slabs();
        Self { cfg, bands, free_slabs, classes, index: None, len: 0 }
    }

    /// Whether the cache keeps a key index (see
    /// [`unindexed`](Self::unindexed)).
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

    /// Slot capacity of class `c`.
    pub fn capacity(&self, c: usize) -> usize {
        self.classes[c].slabs * self.classes[c].slots_per_slab
    }

    /// Free slots in class `c`.
    pub fn free_slots(&self, c: usize) -> usize {
        self.capacity(c) - self.classes[c].used_slots
    }

    /// Location of a key, if cached.
    pub fn lookup(&self, key: u64) -> Option<Loc> {
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
        let loc = self.lookup(key)?;
        self.touch_at(loc, key, now)
    }

    /// The metadata at a handle held outside the index, if the handle
    /// still names a live node that holds `key`. A handle to a removed
    /// node, or to a node since reused by another key, answers `None`.
    pub fn meta_at(&self, loc: Loc, key: u64) -> Option<&ItemMeta> {
        let q = self.classes.get(loc.class as usize)?.queues.get(loc.band as usize)?;
        q.try_get(loc.node).filter(|m| m.key == key)
    }

    /// [`touch`](Self::touch) by handle, without the index probe: when
    /// [`meta_at`](Self::meta_at) accepts the handle, moves the node to
    /// its queue's front, stamps `last_access`, and returns the updated
    /// metadata. A stale handle changes nothing and answers `None`.
    pub(crate) fn touch_at(&mut self, loc: Loc, key: u64, now: SimTime) -> Option<ItemMeta> {
        self.meta_at(loc, key)?;
        let q = &mut self.classes[loc.class as usize].queues[loc.band as usize];
        q.move_to_front(loc.node);
        let meta = q.get_mut(loc.node);
        meta.last_access = now;
        Some(*meta)
    }

    /// Replaces a resident item's metadata in place and touches it.
    /// The new metadata must keep the item in the same class and band
    /// (callers reinsert otherwise). Returns `false` when the key is
    /// not resident.
    ///
    /// # Panics
    /// Debug-panics on a class/band change.
    pub fn update_in_place(&mut self, meta: ItemMeta) -> bool {
        self.lookup(meta.key).is_some_and(|loc| self.update_at(loc, meta))
    }

    /// [`update_in_place`](Self::update_in_place) by handle, without the
    /// index probe: when [`meta_at`](Self::meta_at) accepts `loc` for
    /// `meta.key`, moves the node to its queue's front and replaces its
    /// metadata. A stale handle changes nothing and answers `false`.
    ///
    /// # Panics
    /// Debug-panics on a class/band change.
    pub fn update_at(&mut self, loc: Loc, meta: ItemMeta) -> bool {
        if self.meta_at(loc, meta.key).is_none() {
            return false;
        }
        debug_assert_eq!(loc.class, meta.class, "update across classes");
        debug_assert_eq!(loc.band, meta.band, "update across bands");
        let q = &mut self.classes[loc.class as usize].queues[loc.band as usize];
        q.move_to_front(loc.node);
        *q.get_mut(loc.node) = meta;
        true
    }

    /// Reads a cached item's metadata without touching it.
    pub fn peek(&self, key: u64) -> Option<ItemMeta> {
        let loc = self.lookup(key)?;
        Some(*self.classes[loc.class as usize].queues[loc.band as usize].get(loc.node))
    }

    /// Attempts to insert a new item (the key must not be cached).
    /// Tries a free slot, then a free slab from the pool; returns
    /// [`InsertOutcome::NoSpace`] when neither exists. A stored
    /// outcome carries the item's location.
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
            if self.free_slabs == 0 {
                return InsertOutcome::NoSpace;
            }
            self.free_slabs -= 1;
            self.classes[c].slabs += 1;
            new_slab = true;
        }
        let b = meta.band as usize;
        let node = self.classes[c].queues[b].push_front(meta);
        self.classes[c].used_slots += 1;
        self.len += 1;
        let loc = Loc { class: meta.class, band: meta.band, node };
        if let Some(ix) = &mut self.index {
            ix.insert(meta.key, loc);
        }
        if new_slab {
            InsertOutcome::StoredWithNewSlab(loc)
        } else {
            InsertOutcome::Stored(loc)
        }
    }

    /// Removes a key, returning its metadata.
    pub fn remove(&mut self, key: u64) -> Option<ItemMeta> {
        debug_assert!(self.is_indexed(), "{UNINDEXED}");
        let loc = self.index.as_mut()?.remove(&key)?;
        Some(self.unlink(loc))
    }

    /// [`remove`](Self::remove) by handle: when
    /// [`meta_at`](Self::meta_at) accepts `loc` for `key`, removes the
    /// item and returns its metadata. A stale handle changes nothing
    /// and answers `None`.
    pub fn remove_at(&mut self, loc: Loc, key: u64) -> Option<ItemMeta> {
        self.meta_at(loc, key)?;
        if let Some(ix) = &mut self.index {
            ix.remove(&key);
        }
        Some(self.unlink(loc))
    }

    /// Frees the node at a live `loc`, index aside.
    fn unlink(&mut self, loc: Loc) -> ItemMeta {
        let c = loc.class as usize;
        let meta = self.classes[c].queues[loc.band as usize].remove(loc.node);
        self.classes[c].used_slots -= 1;
        self.len -= 1;
        meta
    }

    /// Evicts the LRU item of `(class, band)`, returning it.
    pub fn evict_tail(&mut self, class: usize, band: usize) -> Option<ItemMeta> {
        let meta = self.classes[class].queues[band].pop_back()?;
        self.classes[class].used_slots -= 1;
        self.len -= 1;
        if let Some(ix) = &mut self.index {
            ix.remove(&meta.key);
        }
        Some(meta)
    }

    /// Mutable access to one subclass queue, for node tags only: the
    /// caller must not push, remove or reorder nodes.
    pub(crate) fn queue_mut(&mut self, class: usize, band: usize) -> &mut LruList<ItemMeta> {
        &mut self.classes[class].queues[band]
    }

    /// Takes one slab away from `class`, evicting LRU items of `band`
    /// (then, if that queue empties, of the fullest remaining band)
    /// until a slab's worth of slots is free. The freed slab returns to
    /// the pool. Evicted items are passed to `on_evict`.
    ///
    /// Returns `false` (changing nothing) when the class has no slab.
    pub fn reclaim_slab_from(
        &mut self,
        class: usize,
        band: usize,
        mut on_evict: impl FnMut(ItemMeta),
    ) -> bool {
        if self.classes[class].slabs == 0 {
            return false;
        }
        let spslab = self.classes[class].slots_per_slab;
        while self.free_slots(class) < spslab {
            let victim_band = if !self.classes[class].queues[band].is_empty() {
                band
            } else {
                // fall back to the longest queue in the class
                match (0..self.bands)
                    .filter(|&b| !self.classes[class].queues[b].is_empty())
                    .max_by_key(|&b| self.classes[class].queues[b].len())
                {
                    Some(b) => b,
                    None => break, // class is empty; free_slots must now cover it
                }
            };
            match self.evict_tail(class, victim_band) {
                Some(m) => on_evict(m),
                None => break,
            }
        }
        debug_assert!(self.free_slots(class) >= spslab);
        self.classes[class].slabs -= 1;
        self.free_slabs += 1;
        true
    }

    /// Grants one slab from the free pool to `class`. Returns `false`
    /// when the pool is empty.
    pub fn grant_slab(&mut self, class: usize) -> bool {
        if self.free_slabs == 0 {
            return false;
        }
        self.free_slabs -= 1;
        self.classes[class].slabs += 1;
        true
    }

    /// Moves one slab from `src` to `dst` class, evicting from
    /// `src_band` as needed. Items evicted en route go to `on_evict`.
    /// Returns `false` (no change) when `src` owns no slab.
    pub fn migrate_slab(
        &mut self,
        src: usize,
        src_band: usize,
        dst: usize,
        on_evict: impl FnMut(ItemMeta),
    ) -> bool {
        if src == dst {
            return false;
        }
        if !self.reclaim_slab_from(src, src_band, on_evict) {
            return false;
        }
        let granted = self.grant_slab(dst);
        debug_assert!(granted, "slab vanished between reclaim and grant");
        granted
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

    /// Total bytes of live item payloads (diagnostics).
    pub fn live_bytes(&self) -> u64 {
        self.classes
            .iter()
            .flat_map(|c| c.queues.iter())
            .flat_map(|q| q.iter())
            .map(|m| u64::from(m.key_size) + u64::from(m.value_size))
            .sum()
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
            for q in &cs.queues {
                q.check_invariants()?;
                for m in q.iter() {
                    if m.class as usize != ci {
                        return Err(format!("item {} in wrong class {ci}", m.key));
                    }
                    let Some(index) = &self.index else { continue };
                    let loc = index
                        .get(&m.key)
                        .ok_or_else(|| format!("item {} missing from index", m.key))?;
                    if loc.class as usize != ci {
                        return Err(format!("index class mismatch for {}", m.key));
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
        let order =
            |c: &BaseCache| c.class(0).queues[0].iter().map(|m| m.key).collect::<Vec<_>>();
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
        // A handle outside the geometry is refused, not a panic.
        let bogus = Loc { class: 99, band: 0, node: loc1.node };
        assert!(c.touch_at(bogus, 1, SimTime::ZERO).is_none());
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
        let mut c = BaseCache::unindexed(small_cfg(), 1);
        assert!(!c.is_indexed());
        let locs: Vec<Loc> = (1..=3).map(|k| c.insert(meta(k, 0)).loc().unwrap()).collect();
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
        let loc = c.insert(meta(1, 0)).loc().unwrap();
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
    fn reclaim_slab_evicts_enough() {
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
        assert!(c.reclaim_slab_from(5, 0, |m| evicted.push(m.key)));
        assert_eq!(c.class(5).slabs, 1);
        assert_eq!(c.free_slabs(), 1);
        assert_eq!(evicted, vec![1, 2], "LRU items evicted first");
        c.check_invariants().unwrap();
    }

    #[test]
    fn reclaim_from_empty_class_fails() {
        let mut c = BaseCache::new(small_cfg(), 1);
        assert!(!c.reclaim_slab_from(3, 0, |_| panic!("nothing to evict")));
        c.check_invariants().unwrap();
    }

    #[test]
    fn reclaim_partial_free_slots_evicts_fewer() {
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
        assert!(c.reclaim_slab_from(5, 0, |_| evicted += 1));
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
        assert!(!c.migrate_slab(2, 0, 3, |_| {}), "empty source");
        assert!(!c.migrate_slab(3, 0, 3, |_| {}), "src == dst");
        c.check_invariants().unwrap();
    }

    #[test]
    fn multi_band_reclaim_falls_back_to_fullest_queue() {
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
        // ask to reclaim by band 0 (empty) → falls back to band 2
        assert!(c.reclaim_slab_from(5, 0, |m| evicted.push(m.key)));
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
        assert_eq!(c.live_bytes(), 2 * 48);
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
