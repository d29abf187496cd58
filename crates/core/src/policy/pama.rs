//! PAMA — Penalty-Aware Memory Allocation (paper §III).
//!
//! Structure recap:
//!
//! * items are classed by size (slab classes) and sub-classed by miss
//!   penalty band; each subclass runs its own LRU stack, so locality is
//!   compared only among items of similar size *and* penalty;
//! * every subclass's bottom slab-worth of items is its **candidate
//!   (virtual) slab**; its value is the Eq. 2 weighted blend of the
//!   bottom `m + 1` segments' accumulated miss penalties;
//! * a bounded ghost extension per subclass tracks recently evicted
//!   keys (key + penalty only), giving the **incoming value** — the
//!   penalty that an extra slab would have saved;
//! * on a miss in a full cache, the globally cheapest candidate slab is
//!   selected. A **cross-class migration** happens only when the
//!   missing subclass's incoming value exceeds that cheapest outgoing
//!   value; otherwise (and whenever the cheapest candidate already
//!   lives in the missing item's class) a single in-class LRU eviction
//!   serves the request — the paper's two no-migration scenarios.
//!
//! **pre-PAMA** (the paper's ablation) is this same policy with
//! [`PamaConfig::count_mode`] set: segment values count requests
//! instead of summing penalties, and a single penalty band is used —
//! turning the scheme into a purely locality/size-aware allocator.

use super::{meta_for, GetOutcome, Policy, PolicyEvent};
use crate::cache::{BaseCache, InsertOutcome, ItemMeta, Loc};
use crate::config::{CacheConfig, Tick};
use crate::lru::{LruList, NodeRef};
use crate::segments::{MembershipMode, SubclassTracker};
use pama_trace::Request;
use pama_util::{FastMap, SimDuration};

/// PAMA tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PamaConfig {
    /// Number of reference segments `m` (paper default: 2; Fig. 10
    /// sweeps 0/2/4/8).
    pub m: usize,
    /// Accesses between segment-snapshot rebuilds (the value window;
    /// "the time window … refers to the number of accesses on the
    /// entire cache"). Ghost entries only become creditable once a
    /// snapshot has stamped them, so the window must be short relative
    /// to ghost-list churn: on eviction-heavy workloads a long window
    /// lets evictees age out of the bounded ghost lists unstamped and
    /// starves the incoming-value signal (measured on the APP
    /// campaign; the ablation bench sweeps this knob).
    pub value_window: u64,
    /// pre-PAMA mode: segment values count requests instead of summing
    /// penalties. The penalty-band subclass structure is untouched —
    /// the paper's pre-PAMA differs from PAMA *only* in "the
    /// calculation of a segment's value" (§IV).
    pub count_mode: bool,
    /// Segment membership engine.
    pub membership: MembershipMode,
    /// Minimum accesses between two cross-class slab migrations.
    ///
    /// The paper stabilises values with the `m` reference segments but
    /// leaves migration *frequency* unbounded; an unbounded rate lets a
    /// ping-pong loop form under heavy miss pressure (a migration's
    /// evictees are re-referenced, building the victim's incoming value
    /// until it steals a slab straight back, evicting the thief's fresh
    /// items, …). Production Memcached rate-limits its slab_automove
    /// for the same reason. Between permitted migrations, misses fall
    /// back to in-class LRU replacement. The `ablation` bench measures
    /// the thrash without it.
    pub migration_cooldown: u64,
}

impl Default for PamaConfig {
    fn default() -> Self {
        Self {
            m: 2,
            value_window: 25_000,
            count_mode: false,
            membership: MembershipMode::Exact,
            migration_cooldown: 64,
        }
    }
}

impl PamaConfig {
    /// The paper's pre-PAMA ablation configuration.
    pub fn pre_pama() -> Self {
        Self { count_mode: true, ..Self::default() }
    }

    /// Validates the tuning knobs, returning the first problem found.
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        use crate::config::ConfigError;
        if self.value_window == 0 {
            return Err(ConfigError::ZeroValueWindow);
        }
        if let MembershipMode::Bloom { fpp } = self.membership {
            if !(fpp > 0.0 && fpp < 1.0) {
                return Err(ConfigError::BadBloomFpp(fpp));
            }
        }
        Ok(())
    }
}

/// Sentinel for "evicted after the last snapshot": not yet part of any
/// ghost segment.
const GHOST_UNSNAPPED: u8 = u8::MAX;

/// One ghost entry: the key, the penalty it carried when evicted, and
/// the ghost-segment index stamped at the last snapshot
/// ([`GHOST_UNSNAPPED`] for entries newer than the snapshot).
#[derive(Debug, Clone, Copy)]
struct GhostEntry {
    key: u64,
    penalty: SimDuration,
    snap_seg: u8,
}

impl Default for GhostEntry {
    fn default() -> Self {
        Self { key: 0, penalty: SimDuration::ZERO, snap_seg: GHOST_UNSNAPPED }
    }
}

/// Bounded per-subclass ghost list (front = newest evictee) — the
/// paper's "extended section [that] only records keys and miss
/// penalties".
///
/// Ghost **segments** are snapshot sets, symmetric with the stack
/// side: at each window rebuild the list's entries are stamped with
/// their position-derived segment (the newest `spslab` form the
/// receiving segment G0, the next `spslab` G1, …); only stamped
/// entries credit incoming value when re-referenced, and each can
/// credit once (it leaves the list). Entries ghosted after the
/// snapshot wait for the next stamp. Without this bound a hot, fast-
/// churning subclass pushes an unbounded stream of evictees through
/// the receiving segment and its measured incoming value dwarfs any
/// candidate's outgoing value — the slab-hoarding failure mode the
/// harness measured before the fix.
#[derive(Debug, Clone)]
struct GhostList {
    list: LruList<GhostEntry>,
    cap: usize,
    spslab: usize,
}

impl GhostList {
    /// Window-boundary stamp: every entry gets its current
    /// position-derived segment.
    fn snapshot(&mut self) {
        let spslab = self.spslab;
        self.list.for_each_front_mut(|pos, e| {
            e.snap_seg = (pos / spslab).min(GHOST_UNSNAPPED as usize - 1) as u8;
        });
    }

    /// Ghost segment of an entry, if it was present at the last
    /// snapshot.
    fn segment_of(e: &GhostEntry) -> Option<usize> {
        (e.snap_seg != GHOST_UNSNAPPED).then_some(e.snap_seg as usize)
    }
}

/// Every subclass's ghost list behind one index: a ghosted key maps to
/// its subclass and its node in that subclass's list. A key has at most
/// one ghost entry — every insert forgets the key's ghost before any
/// push can happen — so a push is one index insert plus, when the list
/// overflows, one removal of the entry that aged out.
#[derive(Debug, Clone, Default)]
struct Ghosts {
    lists: Vec<GhostList>,
    index: FastMap<u64, (u32, NodeRef)>,
}

impl Ghosts {
    /// Adds a list for the next subclass, holding up to `cap` entries
    /// stamped in segments of `spslab`.
    fn add_list(&mut self, cap: usize, spslab: usize) {
        self.lists.push(GhostList {
            list: LruList::new(),
            cap: cap.max(1),
            spslab: spslab.max(1),
        });
    }

    /// Pushes an evictee of subclass `s`, which must not be ghosted
    /// already; returns the entry that aged out of the list, if any.
    fn push(&mut self, s: usize, key: u64, penalty: SimDuration) -> Option<GhostEntry> {
        let g = &mut self.lists[s];
        let node = g.list.push_front(GhostEntry { key, penalty, snap_seg: GHOST_UNSNAPPED });
        let prior = self.index.insert(key, (s as u32, node));
        debug_assert!(prior.is_none(), "key {key} ghosted twice");
        if g.list.len() > g.cap {
            let old = g.list.pop_back()?;
            self.index.remove(&old.key);
            return Some(old);
        }
        None
    }

    /// Removes a key's ghost entry, returning its subclass and entry.
    fn remove(&mut self, key: u64) -> Option<(usize, GhostEntry)> {
        let (s, node) = self.index.remove(&key)?;
        Some((s as usize, self.lists[s as usize].list.remove(node)))
    }

    /// Stamps subclass `s`'s entries with their segments.
    fn snapshot(&mut self, s: usize) {
        self.lists[s].snapshot();
    }

    /// Ghost entries held, over every subclass.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// The most ghost entries the lists can hold together.
    fn capacity(&self) -> usize {
        self.lists.iter().map(|g| g.cap).sum()
    }
}

/// The PAMA policy (and, in count mode, pre-PAMA).
#[derive(Debug, Clone)]
pub struct Pama {
    cache: BaseCache,
    pcfg: PamaConfig,
    /// One tracker per (class, band), row-major by class.
    trackers: Vec<SubclassTracker>,
    /// One ghost list per (class, band), row-major by class.
    ghosts: Ghosts,
    accesses: u64,
    migrations: u64,
    rebuilds: u64,
    /// Access serial before which no migration may happen.
    next_migration_at: u64,
    /// When set, storage-relevant decisions are pushed to `events` for
    /// a physical store to replay. Off by default: the simulator path
    /// never drains the queue, so recording there would only leak.
    record_events: bool,
    events: Vec<PolicyEvent>,
}

impl Pama {
    /// Creates PAMA with default tuning.
    pub fn new(cache_cfg: CacheConfig) -> Self {
        Self::with_config(cache_cfg, PamaConfig::default())
    }

    /// Creates pre-PAMA (the penalty-blind ablation).
    pub fn pre_pama(cache_cfg: CacheConfig) -> Self {
        Self::with_config(cache_cfg, PamaConfig::pre_pama())
    }

    /// Creates PAMA with explicit tuning.
    pub fn with_config(cache_cfg: CacheConfig, pcfg: PamaConfig) -> Self {
        let bands = cache_cfg.num_bands();
        Self::over(BaseCache::new(cache_cfg, bands), pcfg)
    }

    /// PAMA for a store that keeps each item's handle ([`Loc`]) itself,
    /// as the kv store's entries do: the policy's cache keeps no key
    /// index ([`BaseCache::unindexed`]), so the store's own map is the
    /// only per-key map of resident items. Such a policy is driven
    /// through the handle entry points only — [`on_hit`](Self::on_hit),
    /// [`on_miss`](Self::on_miss), [`on_set_at`](Self::on_set_at) and
    /// [`on_delete_at`](Self::on_delete_at) — never through the by-key
    /// [`Policy`] methods, which are the same bodies behind an index
    /// lookup. Either way the policy sees one request per GET, SET and
    /// DELETE, so a store and the simulator make the same decisions.
    pub fn for_store(cache_cfg: CacheConfig, pcfg: PamaConfig) -> Self {
        let bands = cache_cfg.num_bands();
        Self::over(BaseCache::unindexed(cache_cfg, bands), pcfg)
    }

    fn over(cache: BaseCache, pcfg: PamaConfig) -> Self {
        pcfg.validate().expect("invalid pama config");
        let (nc, bands) = (cache.num_classes(), cache.bands());
        let mut trackers = Vec::with_capacity(nc * bands);
        let mut ghosts = Ghosts::default();
        for c in 0..nc {
            let spslab = cache.cfg().slots_per_slab(c);
            for _ in 0..bands {
                trackers.push(SubclassTracker::new(pcfg.m, spslab, pcfg.membership));
                ghosts.add_list((pcfg.m + 1) * spslab, spslab);
            }
        }
        Self {
            cache,
            pcfg,
            trackers,
            ghosts,
            accesses: 0,
            migrations: 0,
            rebuilds: 0,
            next_migration_at: 0,
            record_events: false,
            events: Vec::new(),
        }
    }

    /// Turns [`PolicyEvent`] recording on or off. A caller that backs
    /// this policy with physical storage turns it on and calls
    /// [`drain_events_into`](Self::drain_events_into) after every
    /// mutating call.
    pub fn set_record_events(&mut self, on: bool) {
        self.record_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Moves the storage events recorded since the last drain onto the
    /// end of `buf`, in the order the decisions happened. Both vectors
    /// keep their capacity, so a caller that reuses `buf` drains
    /// without allocating.
    pub fn drain_events_into(&mut self, buf: &mut Vec<PolicyEvent>) {
        buf.append(&mut self.events);
    }

    #[inline]
    fn emit(&mut self, e: PolicyEvent) {
        if self.record_events {
            self.events.push(e);
        }
    }

    /// The PAMA tuning in effect.
    pub fn pama_config(&self) -> &PamaConfig {
        &self.pcfg
    }

    /// Cross-class slab migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Snapshot rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Ghost entries held, over every subclass: the size of the one
    /// ghost index.
    pub fn ghost_len(&self) -> usize {
        self.ghosts.len()
    }

    /// The most ghost entries the policy can hold: the sum of its
    /// ghost lists' caps, `(m + 1)` slabs' worth of slots per subclass.
    pub fn ghost_capacity(&self) -> usize {
        self.ghosts.capacity()
    }

    #[inline]
    fn bands(&self) -> usize {
        self.cache.bands()
    }

    #[inline]
    fn sub(&self, class: usize, band: usize) -> usize {
        class * self.bands() + band
    }

    /// Segment-value weight of an item: its penalty in seconds, or 1
    /// per request in pre-PAMA count mode.
    #[inline]
    fn weight(&self, penalty: SimDuration) -> f64 {
        if self.pcfg.count_mode {
            1.0
        } else {
            penalty.as_secs_f64()
        }
    }

    /// Band for a penalty (identical in both modes: pre-PAMA keeps the
    /// subclass structure).
    #[inline]
    fn band_of(&self, penalty: SimDuration) -> usize {
        self.cache.cfg().band_of(penalty)
    }

    fn ghost_push(&mut self, class: usize, band: usize, meta: &ItemMeta) {
        let s = self.sub(class, band);
        self.trackers[s].on_evict(meta.key);
        self.ghosts.push(s, meta.key, meta.penalty);
    }

    /// A GET missed in the cache: credit the ghost segment that held
    /// the key, if any, with the would-have-been-saved penalty, and
    /// return the penalty the key's ghost carried.
    fn credit_ghost_miss(&mut self, key: u64) -> Option<SimDuration> {
        let (s, entry) = self.ghosts.remove(key)?;
        if let Some(seg) = GhostList::segment_of(&entry) {
            let w = self.weight(entry.penalty);
            self.trackers[s].credit_ghost(seg, w);
        }
        Some(entry.penalty)
    }

    /// Eligibility + outgoing value of every candidate slab; returns
    /// the global minimum as `(class, band, value)`.
    ///
    /// A subclass in the *requesting* class is eligible with any
    /// non-empty queue (one eviction frees one compatible slot). A
    /// foreign subclass is eligible only when surrendering its
    /// candidate slab can actually free a physical slab:
    /// `queue_len + class_free_slots ≥ slots_per_slab`.
    fn cheapest_candidate(&self, req_class: usize) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for c in 0..self.cache.num_classes() {
            let cs = self.cache.class(c);
            let free = self.cache.free_slots(c);
            for b in 0..self.bands() {
                let qlen = cs.queues[b].len();
                let eligible = if c == req_class {
                    qlen > 0
                } else {
                    cs.slabs > 0 && qlen + free >= cs.slots_per_slab
                };
                if !eligible {
                    continue;
                }
                let v = self.trackers[self.sub(c, b)].outgoing();
                if best.is_none_or(|(_, _, bv)| v < bv) {
                    best = Some((c, b, v));
                }
            }
        }
        best
    }

    /// The no-migration fallback: evict one item from the requesting
    /// class's least-valuable non-empty subclass. Returns `true` when a
    /// slot was freed.
    fn evict_within_class(&mut self, class: usize) -> bool {
        let victim_band = (0..self.bands())
            .filter(|&b| !self.cache.class(class).queues[b].is_empty())
            .min_by(|&a, &b| {
                let va = self.trackers[self.sub(class, a)].outgoing();
                let vb = self.trackers[self.sub(class, b)].outgoing();
                // total_cmp: a NaN segment value (conceivable only
                // through pathological penalty arithmetic) must pick a
                // deterministic victim, not panic the sort.
                va.total_cmp(&vb)
            });
        let Some(b) = victim_band else {
            return false;
        };
        if let Some(victim) = self.cache.evict_tail(class, b) {
            self.emit(PolicyEvent::Evicted {
                key: victim.key,
                class: victim.class,
                band: victim.band,
            });
            self.ghost_push(class, b, &victim);
            true
        } else {
            false
        }
    }

    /// The §III allocation decision for an insert that found no free
    /// slot and no free slab. Returns whether a slot for `class` became
    /// available.
    fn make_room(&mut self, class: usize, band: usize) -> bool {
        let Some((c_star, b_star, v_out)) = self.cheapest_candidate(class) else {
            return false;
        };
        if c_star == class {
            // Scenario 2 of the paper: the cheapest candidate lives in
            // the requesting class — replace one item, no migration.
            if let Some(victim) = self.cache.evict_tail(c_star, b_star) {
                self.emit(PolicyEvent::Evicted {
                    key: victim.key,
                    class: victim.class,
                    band: victim.band,
                });
                self.ghost_push(c_star, b_star, &victim);
                return true;
            }
            return false;
        }
        let v_in = self.trackers[self.sub(class, band)].incoming();
        if v_in > v_out && self.accesses >= self.next_migration_at {
            // Migrate the cheapest candidate slab to the missing class.
            let mut evicted = Vec::new();
            if self.cache.migrate_slab(c_star, b_star, class, |m| evicted.push(m)) {
                for m in evicted {
                    self.emit(PolicyEvent::Evicted {
                        key: m.key,
                        class: m.class,
                        band: m.band,
                    });
                    self.ghost_push(m.class as usize, m.band as usize, &m);
                }
                self.emit(PolicyEvent::SlabMoved {
                    src_class: c_star as u32,
                    src_band: b_star as u32,
                    dst_class: class as u32,
                });
                self.migrations += 1;
                self.next_migration_at = self.accesses + self.pcfg.migration_cooldown;
                return true;
            }
            // Fall through to in-class eviction if the migration
            // unexpectedly failed.
        }
        // Scenario 1: migration would not pay — replace within the
        // requesting class instead.
        self.evict_within_class(class)
    }

    /// Insert with the PAMA decision procedure.
    ///
    /// An item that cannot be stored still enters its subclass's ghost
    /// **receiving segment**: it is precisely an item that one more
    /// slab would have cached, so its future re-reference is incoming
    /// evidence. This also bootstraps starved classes, which otherwise
    /// could never accumulate incoming value (ghosts normally come
    /// from evictions, and a slabless class never evicts).
    /// Returns the stored item's handle, or `None` when it could not
    /// be stored.
    fn pama_insert(&mut self, meta: ItemMeta) -> Option<Loc> {
        self.ghosts.remove(meta.key);
        let stored = self.insert_tracked(meta).or_else(|| {
            if self.make_room(meta.class as usize, meta.band as usize) {
                self.insert_tracked(meta)
            } else {
                None
            }
        });
        if stored.is_none() {
            self.ghost_push(meta.class as usize, meta.band as usize, &meta);
        }
        stored
    }

    /// One `BaseCache::insert` attempt, emitting a grant event when
    /// the store pulled a fresh slab from the free pool.
    fn insert_tracked(&mut self, meta: ItemMeta) -> Option<Loc> {
        let outcome = self.cache.insert(meta);
        if let InsertOutcome::StoredWithNewSlab(_) = outcome {
            self.emit(PolicyEvent::SlabGranted { class: meta.class });
        }
        outcome.loc()
    }

    fn meta_with_band(&self, req: &Request, tick: Tick) -> Option<ItemMeta> {
        let mut meta = meta_for(self.cache.cfg(), req, tick, false)?;
        meta.band = self.band_of(meta.penalty) as u32;
        Some(meta)
    }

    /// A GET hit on the item at `loc`. The access always counts — it
    /// happened when the hit was served — but a handle that no longer
    /// names `key`'s node (the item left, or its node was reused: the
    /// kv store defers hits to its next write lock) promotes nothing:
    /// it was a hit when served, so a miss-path ghost credit now would
    /// double-count it. Returns whether the handle was current.
    pub fn on_hit(&mut self, key: u64, loc: Loc, tick: Tick) -> bool {
        self.note_access();
        let Some(meta) = self.cache.touch_at(loc, key, tick.now) else {
            return false;
        };
        let w = self.weight(meta.penalty);
        let s = self.sub(loc.class as usize, loc.band as usize);
        let queue = self.cache.queue_mut(loc.class as usize, loc.band as usize);
        self.trackers[s].on_hit(queue, loc.node, key, w);
        true
    }

    /// Applies a batch of deferred hits, oldest first, each through
    /// [`on_hit`](Self::on_hit).
    pub fn on_hits(&mut self, hits: &[(u64, Loc)], tick: Tick) {
        for &(key, loc) in hits {
            self.on_hit(key, loc, tick);
        }
    }

    /// A GET miss of a key that is not resident: one access plus the
    /// ghost credit. Returns the penalty the key's ghost carried, if
    /// it had one. Demand-fill, where configured, is the caller's.
    pub fn on_miss(&mut self, key: u64) -> Option<SimDuration> {
        debug_assert!(
            !self.cache.is_indexed() || !self.cache.contains(key),
            "policy holds a key the store lost"
        );
        self.note_access();
        self.credit_ghost_miss(key)
    }

    /// The penalty a non-resident key carried when it was evicted, while
    /// its ghost entry lasts.
    pub fn ghost_penalty(&self, key: u64) -> Option<SimDuration> {
        let &(s, node) = self.ghosts.index.get(&key)?;
        Some(self.ghosts.lists[s as usize].list.get(node).penalty)
    }

    /// A SET of `req.key`, whose item, if resident, is at `resident`.
    /// An item that keeps its class and band is updated in place and
    /// promoted. Otherwise the resident item leaves its stack without
    /// becoming a ghost (the key's data is still wanted), and the new
    /// one is inserted. A value no class can hold is not cached, and the
    /// resident item, now stale, is removed. Returns the stored item's
    /// handle, or `None` when it could not be cached (too large for any
    /// class, or no room).
    pub fn on_set_at(
        &mut self,
        req: &Request,
        tick: Tick,
        resident: Option<Loc>,
    ) -> Option<Loc> {
        self.note_access();
        let meta = self.meta_with_band(req, tick);
        if let Some(loc) = resident {
            match meta {
                Some(m) if (m.class, m.band) == (loc.class, loc.band) => {
                    let updated = self.cache.update_at(loc, m);
                    debug_assert!(updated, "stale handle for resident key {}", req.key);
                    return Some(loc);
                }
                _ => {
                    self.remove_resident(loc, req.key);
                }
            }
        }
        self.pama_insert(meta?)
    }

    /// A DELETE of `key`, whose item, if resident, is at `resident`: the
    /// item is removed, and the key's ghost is forgotten — a deleted
    /// key's value is invalidated, so caching more space could not have
    /// avoided a future miss on it. Only a key that is not resident can
    /// have a ghost (every insert forgets the key's ghost first), so a
    /// removal skips the ghost index. Returns whether an item was
    /// removed.
    pub fn on_delete_at(&mut self, key: u64, resident: Option<Loc>) -> bool {
        self.note_access();
        let removed = resident.is_some_and(|loc| self.remove_resident(loc, key));
        if removed {
            debug_assert!(!self.ghosts.index.contains_key(&key), "resident key {key} ghosted");
        } else {
            self.ghosts.remove(key);
        }
        removed
    }

    /// Removes the item at `loc` without ghosting it: it left by request,
    /// not by eviction. Returns whether the handle was current.
    fn remove_resident(&mut self, loc: Loc, key: u64) -> bool {
        if self.cache.remove_at(loc, key).is_none() {
            return false;
        }
        let s = self.sub(loc.class as usize, loc.band as usize);
        self.trackers[s].on_remove(key);
        true
    }

    fn note_access(&mut self) {
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.pcfg.value_window) {
            self.rebuild_snapshots();
        }
    }

    /// Window boundary: re-snapshot every subclass's bottom segments
    /// and ghost segments, and decay values.
    fn rebuild_snapshots(&mut self) {
        self.rebuilds += 1;
        for c in 0..self.cache.num_classes() {
            for b in 0..self.bands() {
                let s = self.sub(c, b);
                self.trackers[s].rebuild(self.cache.queue_mut(c, b), |m| m.key);
                self.ghosts.snapshot(s);
            }
        }
    }
}

impl Policy for Pama {
    fn name(&self) -> String {
        let base = if self.pcfg.count_mode { "pre-pama" } else { "pama" };
        let mut name = format!("{base}(m={}", self.pcfg.m);
        let d = PamaConfig::default();
        if self.pcfg.value_window != d.value_window {
            name.push_str(&format!(",vw={}", self.pcfg.value_window));
        }
        if self.pcfg.migration_cooldown != d.migration_cooldown {
            name.push_str(&format!(",cd={}", self.pcfg.migration_cooldown));
        }
        if matches!(self.pcfg.membership, MembershipMode::Bloom { .. }) {
            name.push_str(",bloom");
        }
        name.push(')');
        name
    }

    fn on_get(&mut self, req: &Request, tick: Tick) -> GetOutcome {
        if let Some(loc) = self.cache.lookup(req.key) {
            self.on_hit(req.key, loc, tick);
            return GetOutcome::HIT;
        }
        self.on_miss(req.key);
        let filled = self.cache.cfg().demand_fill
            && self.meta_with_band(req, tick).and_then(|meta| self.pama_insert(meta)).is_some();
        GetOutcome { hit: false, filled }
    }

    fn on_set(&mut self, req: &Request, tick: Tick) {
        let resident = self.cache.lookup(req.key);
        self.on_set_at(req, tick, resident);
    }

    fn on_delete(&mut self, req: &Request, _tick: Tick) {
        let resident = self.cache.lookup(req.key);
        self.on_delete_at(req.key, resident);
    }

    fn cache(&self) -> &BaseCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pama_util::SimTime;

    fn cfg() -> CacheConfig {
        CacheConfig {
            total_bytes: 8 << 10, // 2 slabs of 4 KiB
            slab_bytes: 4 << 10,
            min_slot: 64,
            ..CacheConfig::default()
        }
    }

    fn pcfg() -> PamaConfig {
        PamaConfig { value_window: 50, ..PamaConfig::default() }
    }

    fn tick(n: u64) -> Tick {
        Tick { now: SimTime::from_micros(n), serial: n }
    }

    fn get_p(key: u64, vs: u32, penalty_ms: u64) -> Request {
        Request::get(SimTime::ZERO, key, 8, vs)
            .with_penalty(SimDuration::from_millis(penalty_ms))
    }

    #[test]
    fn ghost_list_bounds_and_refreshes() {
        let mut g = Ghosts::default();
        g.add_list(3, 1);
        g.add_list(3, 1);
        assert_eq!(g.capacity(), 6);
        for k in 1..=3u64 {
            assert!(g.push(0, k, SimDuration::from_millis(k)).is_none());
        }
        assert_eq!(g.len(), 3);
        // overflow drops the oldest (key 1) from the list and the index
        let aged = g.push(0, 4, SimDuration::ZERO).unwrap();
        assert_eq!(aged.key, 1);
        assert!(!g.index.contains_key(&1));
        assert_eq!(g.index[&4].0, 0);
        assert_eq!((g.len(), g.lists[0].list.len()), (3, 3));
        // a key forgotten and re-ghosted moves to the front, no overflow
        assert_eq!(g.remove(2).map(|(s, e)| (s, e.key)), Some((0, 2)));
        assert!(g.push(0, 2, SimDuration::ZERO).is_none());
        assert_eq!(g.lists[0].list.iter().map(|e| e.key).collect::<Vec<_>>(), vec![2, 4, 3]);
        // a key moves between subclasses only through a removal
        assert_eq!(g.remove(3).map(|(s, e)| (s, e.key)), Some((0, 3)));
        assert!(g.push(1, 3, SimDuration::from_millis(9)).is_none());
        assert_eq!(g.index[&3].0, 1);
        // removal
        let (s, e) = g.remove(3).unwrap();
        assert_eq!((s, e.key, e.penalty), (1, 3, SimDuration::from_millis(9)));
        assert!(g.remove(3).is_none());
        assert_eq!(g.len(), 2);
        assert_eq!(g.len(), g.lists.iter().map(|l| l.list.len()).sum::<usize>());
    }

    #[test]
    fn ghost_segments_stamp_at_snapshot() {
        let mut g = Ghosts::default();
        g.add_list(12, 4);
        for k in 0..9u64 {
            g.push(0, k, SimDuration::ZERO);
        }
        let seg = |g: &mut Ghosts, k: u64| GhostList::segment_of(&g.remove(k).unwrap().1);
        // before any snapshot nothing is creditable
        assert_eq!(seg(&mut g, 8), None);
        g.snapshot(0);
        // newest 4 present entries → segment 0; next 4 → segment 1
        assert_eq!(seg(&mut g, 7), Some(0));
        assert_eq!(seg(&mut g, 0), Some(1));
        // a post-snapshot evictee is unstamped until the next snapshot
        g.push(0, 100, SimDuration::ZERO);
        assert_eq!(seg(&mut g, 100), None);
    }

    #[test]
    fn subclass_assignment_by_penalty() {
        let mut p = Pama::with_config(cfg(), pcfg());
        p.on_get(&get_p(1, 40, 5), tick(0)); // band 1 (1..10ms]
        p.on_get(&get_p(2, 40, 500), tick(1)); // band 3
        let m1 = p.cache().peek(1).unwrap();
        let m2 = p.cache().peek(2).unwrap();
        assert_eq!(m1.band, 1);
        assert_eq!(m2.band, 3);
        assert_eq!(m1.class, m2.class);
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn pre_pama_keeps_penalty_bands_but_counts_requests() {
        let mut p = Pama::pre_pama(cfg());
        p.on_get(&get_p(1, 40, 5), tick(0));
        p.on_get(&get_p(2, 40, 4000), tick(1));
        // Subclassing is unchanged (the paper's pre-PAMA alters only
        // the value function).
        assert_eq!(p.cache().peek(1).unwrap().band, 1);
        assert_eq!(p.cache().peek(2).unwrap().band, 4);
        assert!(p.name().starts_with("pre-pama"));
        // Value weight is 1 per request regardless of penalty.
        assert_eq!(p.weight(SimDuration::from_secs(4)), 1.0);
    }

    #[test]
    fn migration_prefers_evicting_cheap_penalties() {
        // Fill the cache with low-penalty class-6 items, then hammer
        // high-penalty class-5 misses: PAMA should migrate the slab
        // away from the cheap subclass once ghost evidence accumulates.
        let mut p = Pama::with_config(cfg(), pcfg());
        p.on_get(&get_p(100, 4000, 2), tick(0));
        p.on_get(&get_p(101, 4000, 2), tick(1));
        assert_eq!(p.cache().free_slabs(), 0);
        // distinct expensive keys in class 5 (2 KiB slots): every GET
        // misses; ghosts accumulate incoming value for that subclass.
        for round in 0..200u64 {
            p.on_get(&get_p(200 + (round % 6), 2000, 3000), tick(round + 2));
        }
        assert!(p.migrations() > 0, "no migration toward expensive subclass");
        assert!(p.cache().class(5).slabs >= 1, "expensive class still slabless");
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn same_class_miss_replaces_single_item() {
        let mut c = cfg();
        c.total_bytes = 4 << 10; // one slab
        let mut p = Pama::with_config(c, pcfg());
        // class 5: 2 slots. Three distinct keys → one eviction, no
        // migration possible (single class populated).
        p.on_get(&get_p(1, 2000, 100), tick(0));
        p.on_get(&get_p(2, 2000, 100), tick(1));
        p.on_get(&get_p(3, 2000, 100), tick(2));
        assert_eq!(p.migrations(), 0);
        assert_eq!(p.cache().len(), 2);
        assert!(!p.cache().contains(1), "LRU item must have been replaced");
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn ghost_credit_feeds_incoming_value() {
        let mut c = cfg();
        c.total_bytes = 4 << 10;
        // value_window 1: snapshots every access, so the ghost entry is
        // stamped before its re-reference.
        let mut p = Pama::with_config(c, PamaConfig { value_window: 1, ..pcfg() });
        p.on_get(&get_p(1, 2000, 1000), tick(0));
        p.on_get(&get_p(2, 2000, 1000), tick(1));
        p.on_get(&get_p(3, 2000, 1000), tick(2)); // evicts key 1 → ghost
                                                  // GET key 1 again: a ghost hit crediting its subclass.
        p.on_get(&get_p(1, 2000, 1000), tick(3));
        let band = p.band_of(SimDuration::from_millis(1000));
        let s = p.sub(5, band);
        assert!(
            p.trackers[s].incoming() > 0.0,
            "ghost re-reference produced no incoming value"
        );
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn delete_forgets_ghosts() {
        let mut c = cfg();
        c.total_bytes = 4 << 10;
        let mut p = Pama::with_config(c, pcfg());
        p.on_get(&get_p(1, 2000, 1000), tick(0));
        p.on_get(&get_p(2, 2000, 1000), tick(1));
        p.on_get(&get_p(3, 2000, 1000), tick(2)); // ghost key 1
        p.on_delete(&Request::delete(SimTime::ZERO, 1, 8), tick(3));
        p.on_get(&get_p(1, 2000, 1000), tick(4));
        let band = p.band_of(SimDuration::from_millis(1000));
        let s = p.sub(5, band);
        assert_eq!(
            p.trackers[s].incoming(),
            0.0,
            "deleted key still credited the ghost region"
        );
    }

    #[test]
    fn on_delete_at_removes_by_handle_and_forgets_ghosts() {
        let mut c = cfg();
        c.total_bytes = 4 << 10;
        c.demand_fill = false;
        let mut p = Pama::for_store(c, PamaConfig { value_window: 1, ..pcfg() });
        assert!(!p.cache().is_indexed());
        let set = |k| get_set(k, 2000, 1000);
        let loc1 = p.on_set_at(&set(1), tick(0), None).unwrap();
        let loc2 = p.on_set_at(&set(2), tick(1), None).unwrap();
        assert!(p.on_delete_at(2, Some(loc2)));
        assert_eq!((p.cache().len(), p.ghost_len()), (1, 0), "a deleted item became a ghost");
        assert!(p.cache().meta_at(loc2, 2).is_none());
        // Key 1 is evicted into the ghost list by two more SETs. A DELETE
        // of the absent key removes nothing but forgets the ghost.
        p.on_set_at(&set(3), tick(2), None).unwrap();
        p.on_set_at(&set(4), tick(3), None).unwrap();
        assert!(p.cache().meta_at(loc1, 1).is_none(), "key 1 still resident");
        assert_eq!(p.ghost_len(), 1);
        let before = p.accesses;
        assert!(!p.on_delete_at(1, None));
        assert_eq!((p.accesses, p.ghost_len(), p.cache().len()), (before + 1, 0, 2));
        assert_eq!(p.on_miss(1), None, "a forgotten ghost lent its penalty");
        let s = p.sub(5, p.band_of(SimDuration::from_millis(1000)));
        assert_eq!(p.trackers[s].incoming(), 0.0, "a forgotten ghost was credited");
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn hits_build_outgoing_value_via_snapshots() {
        let mut p = Pama::with_config(cfg(), PamaConfig { value_window: 4, ..pcfg() });
        // Insert a few items, let the window roll so snapshots exist,
        // then hit a bottom item.
        p.on_get(&get_p(1, 40, 4000), tick(0));
        p.on_get(&get_p(2, 40, 4000), tick(1));
        p.on_get(&get_p(3, 40, 4000), tick(2));
        p.on_get(&get_p(4, 40, 4000), tick(3)); // window rolls after this
        assert!(p.rebuilds() > 0);
        p.on_get(&get_p(1, 40, 4000), tick(4)); // hit on snapshotted stack
        let s = p.sub(0, p.band_of(SimDuration::from_secs(4)));
        assert!(p.trackers[s].outgoing() > 0.0, "hit on tracked segment did not register");
    }

    #[test]
    fn value_window_rebuild_counts() {
        let mut p = Pama::with_config(cfg(), PamaConfig { value_window: 10, ..pcfg() });
        for i in 0..35 {
            p.on_get(&get_p(i, 40, 10), tick(i));
        }
        assert_eq!(p.rebuilds(), 3);
    }

    #[test]
    fn set_moving_band_keeps_item_cached_once() {
        let mut p = Pama::with_config(cfg(), pcfg());
        p.on_set(&get_set(1, 40, 5), tick(0));
        assert_eq!(p.cache().peek(1).unwrap().band, 1);
        p.on_set(&get_set(1, 40, 3000), tick(1));
        let m = p.cache().peek(1).unwrap();
        assert_eq!(m.band, 4);
        assert_eq!((p.cache().len(), p.ghost_len()), (1, 0), "the old item became a ghost");
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn a_set_that_keeps_class_and_band_updates_in_place() {
        let mut p = Pama::for_store(cfg(), pcfg());
        let loc1 = p.on_set_at(&get_set(1, 40, 5), tick(0), None).unwrap();
        p.on_set_at(&get_set(2, 40, 5), tick(1), None).unwrap();
        // 50 and 40 bytes share a class, 6 and 5 ms a band: the node
        // stays, takes the new sizes and moves to the front.
        let again = p.on_set_at(&get_set(1, 50, 6), tick(2), Some(loc1));
        assert_eq!(again, Some(loc1));
        let m = *p.cache().meta_at(loc1, 1).unwrap();
        assert_eq!((m.value_size, m.penalty), (50, SimDuration::from_millis(6)));
        let order: Vec<u64> = p.cache().class(0).queues[1].iter().map(|m| m.key).collect();
        assert_eq!(order, vec![1, 2]);
        assert_eq!((p.cache().len(), p.accesses), (2, 3));
        p.cache().check_invariants().unwrap();
    }

    #[test]
    fn an_oversized_set_removes_the_resident_item() {
        let mut p = Pama::with_config(cfg(), pcfg());
        p.on_set(&get_set(1, 40, 5), tick(0));
        // No class holds a 9000-byte item: the stale value goes, and
        // leaves no ghost.
        p.on_set(&get_set(1, 9000, 5), tick(1));
        assert!(!p.cache().contains(1));
        assert_eq!((p.cache().len(), p.ghost_len()), (0, 0));
        p.cache().check_invariants().unwrap();
    }

    fn get_set(key: u64, vs: u32, penalty_ms: u64) -> Request {
        Request::set(SimTime::ZERO, key, 8, vs)
            .with_penalty(SimDuration::from_millis(penalty_ms))
    }

    #[test]
    fn handle_entry_points_decide_like_the_request_ones() {
        // One stream fed two ways: by key through the `Policy` methods
        // (demand-fill off, a miss followed by a SET), and by handle
        // through `on_hit` / `on_miss` / `on_set_at` as the kv store
        // drives it. Every decision must agree.
        let mut c = cfg();
        c.demand_fill = false;
        let pc = PamaConfig { value_window: 7, migration_cooldown: 3, ..pcfg() };
        let mut by_key = Pama::with_config(c.clone(), pc.clone());
        let mut by_handle = Pama::with_config(c, pc);
        let mut rng = pama_util::Xoshiro256StarStar::from_seed(5);
        use pama_util::Rng;
        for i in 0..3_000u64 {
            let key = rng.gen_range(40);
            let vs = [40, 900, 2000][(key % 3) as usize];
            let penalty_ms = [2, 40, 3000][(key / 3 % 3) as usize];
            let t = tick(i);
            if !by_key.on_get(&get_p(key, vs, penalty_ms), t).hit {
                by_key.on_set(&get_set(key, vs, penalty_ms), t);
            }
            match by_handle.cache().lookup(key) {
                Some(loc) => assert!(by_handle.on_hit(key, loc, t)),
                None => {
                    by_handle.on_miss(key);
                    by_handle.on_set_at(&get_set(key, vs, penalty_ms), t, None);
                }
            }
        }
        assert!(by_key.migrations() > 0, "the stream must move slabs");
        assert_eq!(by_key.migrations(), by_handle.migrations());
        assert_eq!(by_key.rebuilds(), by_handle.rebuilds());
        for class in 0..by_key.cache().num_classes() {
            let (a, b) = (by_key.cache().class(class), by_handle.cache().class(class));
            assert_eq!(a.slabs, b.slabs, "class {class} slabs");
            for (qa, qb) in a.queues.iter().zip(&b.queues) {
                assert!(qa.iter().eq(qb.iter()), "class {class}: LRU order diverged");
            }
        }
        by_handle.cache().check_invariants().unwrap();
    }

    #[test]
    fn on_set_at_returns_the_stored_handle() {
        let mut p = Pama::with_config(cfg(), pcfg());
        let loc = p.on_set_at(&get_set(1, 40, 5), tick(0), None).unwrap();
        assert_eq!(p.cache().lookup(1), Some(loc));
        assert_eq!(p.cache().meta_at(loc, 1).unwrap().band, 1);
        // No class holds a 9000-byte item.
        assert_eq!(p.on_set_at(&get_set(2, 9000, 5), tick(1), None), None);
        // A stale handle counts the access but promotes nothing.
        p.on_delete(&Request::delete(SimTime::ZERO, 1, 8), tick(2));
        let before = p.accesses;
        assert!(!p.on_hit(1, loc, tick(3)));
        assert_eq!(p.accesses, before + 1);
    }

    #[test]
    fn uncacheable_when_no_candidates() {
        let mut c = cfg();
        c.total_bytes = 4 << 10;
        let mut p = Pama::with_config(c, pcfg());
        // one slab to class 6; class 0 miss: cheapest candidate is the
        // class-6 subclass (cross-class). With zero incoming value, no
        // migration; in-class eviction impossible (class 0 empty).
        p.on_get(&get_p(100, 4000, 100), tick(0));
        let o = p.on_get(&get_p(1, 40, 100), tick(1));
        assert!(!o.hit);
        assert!(!o.filled, "class 0 had no way to cache the item");
        assert_eq!(p.migrations(), 0);
        p.cache().check_invariants().unwrap();
    }
}
