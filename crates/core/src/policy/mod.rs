//! Allocation policies: the paper's PAMA plus every baseline.
//!
//! | policy | paper role | module |
//! |---|---|---|
//! | [`Pama`] | the contribution (§III) | [`pama`] |
//! | pre-PAMA | ablation: PAMA valuing segments by request count | [`pama`] (`PamaConfig::pre_pama`) |
//! | [`Psa`] | baseline: periodic slab allocation \[2\] | [`psa`] |
//! | [`MemcachedOriginal`] | baseline: no reallocation (§II) | [`memcached`] |
//! | [`FacebookAge`] | described §II, evaluated here as an extension \[11\] | [`facebook`] |
//! | [`Twemcache`] | described §II, evaluated here as an extension \[3\] | [`twemcache`] |
//! | [`LamaLite`] | related work \[9\]: MRC + allocation optimisation | [`lama`] |
//! | [`GlobalLru`] | reference upper bound: one LRU, no slab constraint | [`global_lru`] |
//!
//! Every policy implements [`Policy`]; the [`crate::engine::Engine`]
//! drives requests through it and collects metrics. Policies own their
//! [`crate::cache::BaseCache`] and perform demand-fill on GET misses
//! when the config enables it (modelling the miss→SET pair a real
//! client issues).

pub mod facebook;
pub mod global_lru;
pub mod lama;
pub mod memcached;
pub mod pama;
pub mod psa;
pub mod twemcache;

pub use facebook::FacebookAge;
pub use global_lru::GlobalLru;
pub use lama::LamaLite;
pub use memcached::MemcachedOriginal;
pub use pama::{Pama, PamaConfig};
pub use psa::Psa;
pub use twemcache::Twemcache;

use crate::cache::{BaseCache, InsertOutcome, ItemMeta};
use crate::config::{CacheConfig, Tick};
use crate::metrics::AllocSnapshot;
use pama_trace::Request;

/// What a GET did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOutcome {
    /// Whether the key was cached.
    pub hit: bool,
    /// On a miss with demand-fill: whether the refilled item was
    /// actually stored (a starved class may be unable to cache it).
    pub filled: bool,
}

impl GetOutcome {
    /// A hit outcome.
    pub const HIT: GetOutcome = GetOutcome { hit: true, filled: true };
}

/// A storage-relevant side effect of a policy decision, in the order
/// it happened. The simulator models slabs as counts only, so a
/// physical store (pama-kv's slab arena) replays these events to keep
/// real memory in lockstep with the ledger: evictions free slots,
/// grants carve fresh slabs, and moves compact + re-carve a slab for
/// the receiving class. Recording is off by default (the simulator
/// path never pays for it); see [`Pama::set_record_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyEvent {
    /// An item left cache residency (LRU eviction or migration
    /// casualty). Its slot must be freed.
    Evicted {
        /// Hash key of the evicted item.
        key: u64,
        /// Size class it occupied.
        class: u32,
        /// Penalty band it occupied.
        band: u32,
    },
    /// A class took a slab from the free pool.
    SlabGranted {
        /// The receiving class.
        class: u32,
    },
    /// A cross-class migration moved one slab. All evictions the
    /// reclaim performed were emitted (as [`PolicyEvent::Evicted`])
    /// before this event.
    SlabMoved {
        /// Class that surrendered the slab.
        src_class: u32,
        /// Band the candidate slab was drawn from.
        src_band: u32,
        /// Class that received the slab.
        dst_class: u32,
    },
}

/// The interface every allocation scheme implements.
pub trait Policy {
    /// Display name, including salient parameters.
    fn name(&self) -> String;

    /// Handles a GET (including demand-fill on miss when configured).
    fn on_get(&mut self, req: &Request, tick: Tick) -> GetOutcome;

    /// Handles a SET (insert or update).
    fn on_set(&mut self, req: &Request, tick: Tick);

    /// Handles a DELETE.
    fn on_delete(&mut self, req: &Request, tick: Tick);

    /// Handles a REPLACE: by default an update-if-present (touch +
    /// penalty refresh), mirroring Memcached semantics.
    fn on_replace(&mut self, req: &Request, tick: Tick) {
        // Default: delegate to SET only when the key is resident.
        if self.cache().contains(req.key) {
            self.on_set(req, tick);
        }
    }

    /// Read access to the underlying cache (metrics, tests).
    fn cache(&self) -> &BaseCache;

    /// Called at each metrics-window boundary.
    fn end_window(&mut self) {}

    /// Allocation snapshot for the figure series.
    fn allocation(&self) -> AllocSnapshot {
        AllocSnapshot {
            per_class_slabs: self.cache().slab_allocation(),
            per_subclass_slots: self.cache().subclass_usage(),
        }
    }
}

/// Builds an [`ItemMeta`] for a request, or `None` when the item
/// exceeds the largest slot (uncacheable).
pub fn meta_for(
    cfg: &CacheConfig,
    req: &Request,
    tick: Tick,
    band_for_penalty: bool,
) -> Option<ItemMeta> {
    let class = cfg.class_of(req.key_size, req.value_size)?;
    let penalty = cfg.effective_penalty(req.penalty());
    let band = if band_for_penalty { cfg.band_of(penalty) } else { 0 };
    Some(ItemMeta {
        key: req.key,
        key_size: req.key_size,
        value_size: req.value_size,
        penalty,
        class: class as u32,
        band: band as u32,
        last_access: tick.now,
    })
}

/// Shared insert-with-fallback flow: try the free-slot/free-slab path;
/// on `NoSpace`, let the policy's `make_room` closure act (evict /
/// migrate), then retry once. Returns whether the item was stored.
pub fn insert_with_room(
    cache: &mut BaseCache,
    meta: ItemMeta,
    mut make_room: impl FnMut(&mut BaseCache) -> bool,
) -> bool {
    match cache.insert(meta) {
        InsertOutcome::Stored(_) | InsertOutcome::StoredWithNewSlab(_) => true,
        InsertOutcome::NoSpace => make_room(cache) && cache.insert(meta).loc().is_some(),
    }
}

/// Shared SET flow for single-band policies: update-in-place when the
/// key is resident and stays in the same class; otherwise remove and
/// reinsert through `make_room`. Returns whether the item is resident
/// afterwards.
pub fn standard_set(
    cache: &mut BaseCache,
    meta: ItemMeta,
    make_room: impl FnMut(&mut BaseCache) -> bool,
) -> bool {
    if let Some(old) = cache.peek(meta.key) {
        if old.class == meta.class && old.band == meta.band {
            // In-place update: touch and refresh metadata.
            cache.update_in_place(meta);
            return true;
        }
        // Size (or band) moved the item: reinsert.
        cache.remove(meta.key);
    }
    insert_with_room(cache, meta, make_room)
}
