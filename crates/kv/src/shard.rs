//! One cache shard: real byte storage + a PAMA policy instance for
//! memory accounting and eviction decisions, plus the live penalty
//! estimator (the paper's GET-miss→SET gap, measured online).
//!
//! Concurrency model (see DESIGN.md): the mutable state lives in
//! [`Shard`] behind a [`ShardCell`]'s `RwLock`. A cache-hit GET runs
//! entirely under the *shared* read lock — one index probe, one arena
//! read for both the key check and the value (handed to the caller's
//! visitor in place, or copied out), a clock read
//! only if the entry has a TTL, and a hit count in the shard's own
//! stripe of the band registry — and records the hit in the cell's
//! lock-free [`AccessLog`] instead of promoting the entry inline.
//! Every path that takes the write lock (SET, DELETE, a GET miss, TTL
//! sweeps, explicit flush) takes it through [`ShardCell::write`], which
//! drains the log first, so deferred promotions are applied in recorded
//! order before any state change.
//! The read path itself never drains: applying a deferred hit to the
//! policy costs as much as the inline promotion it replaced, so a
//! reader-side drain would hand the saved cost right back. Instead the
//! ring drops (and counts) hits once full — bounded-staleness recency:
//! eviction and allocation decisions only happen under the write lock,
//! and by the time one runs, every hit recorded before it (up to ring
//! capacity) has been applied in order. In a single-threaded sequence
//! whose read bursts fit the ring, the drained promotions land in
//! exactly the order and counts inline promotion would produce.
//!
//! Each entry carries its item's policy handle ([`Loc`]): the LRU node
//! and the penalty band live in the entry, and the size class is the
//! slab header of the entry's slot. The policy is built with
//! [`Pama::for_store`], so it keeps no key index at all: the entry map
//! is the only per-key map of resident items. Each call makes the one
//! policy request the simulator makes for it, addressed by that handle:
//!
//! * a GET hit is [`Pama::on_hit`] (deferred, or inline under the write
//!   lock; `touch` promotes the same way), and a record whose node no
//!   longer holds its key (the item left before the drain) is skipped;
//! * a GET miss is [`Pama::on_miss`], given the handle of a lapsed or
//!   colliding entry found under the hash, whose item leaves within that
//!   one request;
//! * a SET is [`Pama::on_set_at`], given the handle of the entry already
//!   under the hash — live, lapsed or a colliding key — if any. The
//!   entry is rewritten with the handle it hands back;
//! * a DELETE is [`Pama::on_delete_at`], made whether or not the key is
//!   resident, so an absent key's ghost is forgotten. Expiry found by
//!   other calls, sweeps and `flush_all` remove items with it too.
//!
//! A SET hands the policy the shard's storage as its [`SlabStore`]
//! ([`Storage`]), so each eviction, slab grant and slab move reaches the
//! arena and the index as the policy decides it. The operation counters
//! ([`ShardCounters`]) are plain integers the shard owns.
//!
//! A key's penalty lives in the policy, in its LRU node or its ghost
//! entry; open miss windows sit in a fixed table ([`MissWindow`]).

use crate::log::{AccessLog, HitRecord};
use crate::options::{CacheError, CacheValue, SetOptions, ValueRef};
use crate::stats::{ShardCounters, SlabClassReport, SlabReport};
use bytes::Bytes;
use pama_core::cache::{ItemMeta, Loc};
use pama_core::config::{CacheConfig, Tick};
use pama_core::lru::NodeRef;
use pama_core::policy::{Pama, PamaConfig, Policy, SlabStore};
use pama_faults::BackendSim;
use pama_metrics::MetricsRegistry;
use pama_slab::{SlabArena, SlotRef};
use pama_trace::penalty::{DEFAULT_PENALTY, PENALTY_CAP};
use pama_trace::Request;
use pama_util::{FastMap, SimDuration, SimTime};
use parking_lot::{RwLock, RwLockWriteGuard};
use std::sync::Arc;
use std::time::Instant;

/// Capacity of each shard's deferred-hit ring: the most promotions the
/// policy can owe between two write-lock events. A full drain of this
/// size costs tens of microseconds — long enough to amortize the write
/// lock, short enough not to stall the writer that triggers it.
const ACCESS_LOG_CAPACITY: usize = 4096;

/// The expiry of an entry without a TTL: later than any clock reading.
const NEVER: SimTime = SimTime(u64::MAX);

/// Bits of [`Entry::stamp`] that hold the penalty band.
const BAND_BITS: u32 = 8;

/// A stored entry: the arena slot holding its `key ‖ value` bytes
/// (the slot stores the full key for collision rejection), the expiry
/// ([`NEVER`] without a TTL), the wire-protocol metadata (opaque flags,
/// store-order CAS stamp), and the item's policy handle less its class,
/// which the slot's slab header supplies.
#[derive(Debug, Clone)]
struct Entry {
    slot: SlotRef,
    expires: SimTime,
    /// `serial << BAND_BITS | band`: the store-order serial, which is
    /// the CAS value, above the penalty band the policy filed the item
    /// under. The band is stable while resident (an item's penalty is
    /// fixed until overwritten), so the read path attributes hits per
    /// band and builds the handle without asking the policy. The CAS
    /// value equals the serial while the serial stays below 2^56.
    stamp: u64,
    flags: u32,
    /// The item's node in its (class, band) LRU queue.
    node: NodeRef,
}

// Every resident key costs one `(hash, Entry)` index bucket, and each hit
// reads one: at 32 B, two entries fit a cache line.
const _: () = assert!(std::mem::size_of::<Entry>() <= 32);

impl Entry {
    /// An entry stored at serial `serial` for the item the policy filed
    /// at `loc`.
    fn new(slot: SlotRef, expires: SimTime, flags: u32, serial: u64, loc: Loc) -> Self {
        debug_assert!(loc.band < 1 << BAND_BITS, "band {} does not fit the stamp", loc.band);
        Self {
            slot,
            expires,
            stamp: serial << BAND_BITS | u64::from(loc.band),
            flags,
            node: loc.node,
        }
    }

    /// The CAS stamp: the serial of the SET that stored the entry.
    #[inline]
    fn cas(&self) -> u64 {
        self.stamp >> BAND_BITS
    }

    /// The penalty band the policy filed the item under.
    #[inline]
    fn band(&self) -> usize {
        (self.stamp & ((1 << BAND_BITS) - 1)) as usize
    }

    /// The item's policy handle, given the class of its slot's slab.
    #[inline]
    fn loc(&self, class: usize) -> Loc {
        Loc { class: class as u32, band: self.band() as u32, node: self.node }
    }

    /// Whether the TTL has lapsed. `now` is only called for an entry
    /// that has a TTL, so the hit path skips the clock for the rest.
    #[inline]
    fn expired(&self, now: impl FnOnce() -> SimTime) -> bool {
        self.expires != NEVER && now() >= self.expires
    }
}

/// The expiry of an entry stored at `now` with `ttl`; saturates to
/// [`NEVER`] rather than overflow.
fn expiry(now: SimTime, ttl: Option<SimDuration>) -> SimTime {
    ttl.map_or(NEVER, |d| SimTime(now.as_micros().saturating_add(d.as_micros())))
}

/// Slots in each shard's miss-window table: 16 KiB of 32 B slots. A few
/// hundred keys that miss and are never stored touch every page of it.
const WINDOW_SLOTS: usize = 512;

/// An open miss window, one slot of a shard's direct-mapped table: key
/// hash `key` missed at `miss_at`, and a SET within [`PENALTY_CAP`]
/// records the gap as its penalty. `known` is a penalty known at the
/// miss: the backend's fetch latency (with no gap: `miss_at` is
/// [`NEVER`]) or the key's ghost's penalty. A miss overwrites its slot,
/// and a slot keeps the full hash, so a key whose window a colliding
/// key overwrote finds none rather than the other key's.
#[derive(Debug, Clone, Copy)]
struct MissWindow {
    key: u64,
    miss_at: SimTime,
    known: Option<SimDuration>,
}

/// A slot that measures nothing and knows nothing.
const CLOSED: MissWindow = MissWindow { key: 0, miss_at: NEVER, known: None };

/// The window slot of hash `h`: the top bits of a multiplicative mix,
/// not the low bits that pick the shard.
fn window_slot(h: u64) -> usize {
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - WINDOW_SLOTS.trailing_zeros())) as usize
}

/// What an immutable lookup found (drives the lock-upgrade decision).
enum EntryState {
    /// Present, key matches, not expired.
    Live,
    /// Present and key matches but past its TTL: needs a write lock to
    /// drop.
    Expired,
    /// Absent, or a hash collision with a different key.
    Absent,
}

pub(crate) struct Shard {
    policy: Pama,
    entries: FastMap<u64, Entry>,
    /// The shard's byte store, kept in lockstep with the policy's slab
    /// ledger.
    arena: SlabArena,
    /// Open miss windows, allocated once and never resized or swept.
    windows: Box<[MissWindow]>,
    /// Shard geometry, kept so `set` can tell "can never fit"
    /// ([`CacheError::ValueTooLarge`]) apart from "no room right now"
    /// before consulting the policy.
    cfg: CacheConfig,
    serial: u64,
    /// Optional simulated backing store. When present, every GET miss
    /// drives a fetch through it — retries, timeouts, and outages
    /// included — and a successful fetch's latency becomes the key's
    /// penalty (ground truth observed, not measured as a gap).
    backend: Option<BackendSim>,
    /// Observability registry shared by every shard of the cache. Its
    /// per-band cells are the only hit/miss/eviction counts: `report()`
    /// sums them into the aggregates. This shard writes only the cells
    /// of its own `stripe`.
    metrics: Arc<MetricsRegistry>,
    stripe: usize,
    /// Operation counts, read with the slab report under the read lock.
    counters: ShardCounters,
    /// Reused drain buffer for the access log, so a drain does not
    /// allocate.
    hit_buf: Vec<HitRecord>,
}

/// The shard's storage as the policy's [`SlabStore`]: each decision
/// moves real memory as the policy makes it. Evicted keys leave the
/// index and free their slots, grants carve fresh slabs, and slab moves
/// compact and re-carve, repointing every relocated entry.
struct Storage<'a> {
    arena: &'a mut SlabArena,
    entries: &'a mut FastMap<u64, Entry>,
    metrics: &'a MetricsRegistry,
    stripe: usize,
}

impl SlabStore for Storage<'_> {
    fn evicted(&mut self, item: &ItemMeta) {
        if let Some(entry) = self.entries.remove(&item.key) {
            Shard::release(self.arena, &entry);
            self.metrics.band(self.stripe, item.band as usize).evictions.inc();
        } else {
            debug_assert!(false, "policy evicted a key the store never held");
        }
    }

    fn slab_granted(&mut self, class: usize) {
        let granted = self.arena.grant_slab(class);
        debug_assert!(granted.is_ok(), "slab grant drifted: {granted:?}");
        self.metrics.slab_grants.inc();
    }

    fn slab_moved(&mut self, src_class: usize, src_band: usize, dst_class: usize) {
        let entries = &mut *self.entries;
        let t0 = Instant::now();
        let moved = self.arena.transfer_slab(src_class, dst_class, |hash, old, new| {
            if let Some(entry) = entries.get_mut(&hash) {
                debug_assert!(
                    entry.slot == old,
                    "compaction moved a slot the index didn't own"
                );
                entry.slot = new;
            }
        });
        debug_assert!(moved.is_ok(), "slab transfer drifted: {moved:?}");
        self.metrics.slab_move_us.record(t0.elapsed().as_micros() as u64);
        self.metrics.band(self.stripe, src_band).slab_moves.inc();
    }
}

/// A registry whose bands mirror the config's penalty-band split, so
/// `band_of` indices line up, with one stripe per shard.
pub(crate) fn registry_for(cfg: &CacheConfig, shards: usize) -> Arc<MetricsRegistry> {
    let bounds = cfg.penalty_bands.iter().map(|d| d.as_micros()).collect();
    Arc::new(MetricsRegistry::new(bounds, shards))
}

impl Shard {
    /// A shard that records into stripe `stripe` of `metrics`. The
    /// index maps start empty and grow with the keys actually resident.
    pub fn new(
        mut cfg: CacheConfig,
        pama: PamaConfig,
        metrics: Arc<MetricsRegistry>,
        stripe: usize,
    ) -> Self {
        // The shard drives inserts explicitly through `set`; the
        // policy must never phantom-fill on its own.
        cfg.demand_fill = false;
        let arena = SlabArena::new(&cfg);
        // The entries keep every item's handle, so the policy keeps no
        // key index of its own.
        let policy = Pama::for_store(cfg.clone(), pama);
        Self {
            policy,
            entries: FastMap::default(),
            arena,
            windows: vec![CLOSED; WINDOW_SLOTS].into_boxed_slice(),
            cfg,
            serial: 0,
            backend: None,
            metrics,
            stripe,
            counters: ShardCounters::default(),
            hit_buf: Vec::new(),
        }
    }

    pub fn with_backend(mut self, backend: BackendSim) -> Self {
        self.backend = Some(backend);
        self
    }

    fn tick(&mut self, now: SimTime) -> Tick {
        self.serial += 1;
        Tick { now, serial: self.serial }
    }

    /// The penalty of a SET of `h` whose replaced generation carried
    /// `old`, in the order [`crate::PamaCache::set`] documents. Any SET
    /// closes the key's window, so a later SET cannot take a stale gap.
    fn penalty_for(
        &mut self,
        h: u64,
        explicit: Option<SimDuration>,
        old: Option<SimDuration>,
        now: SimTime,
    ) -> SimDuration {
        let slot = &mut self.windows[window_slot(h)];
        let window = (slot.key == h).then(|| std::mem::replace(slot, CLOSED));
        if let Some(p) = explicit {
            return p.min(PENALTY_CAP);
        }
        if let Some(w) = window {
            let gap = now.saturating_since(w.miss_at);
            if gap <= PENALTY_CAP && gap > SimDuration::ZERO {
                self.counters.sample_penalty(gap);
                return gap;
            }
        }
        window
            .and_then(|w| w.known)
            .or(old)
            .or_else(|| self.policy.ghost_penalty(h))
            .unwrap_or(DEFAULT_PENALTY)
    }

    /// Whether the stored entry's key bytes equal `key`.
    fn key_matches(&self, e: &Entry, key: &[u8]) -> bool {
        self.arena.read(e.slot).is_some_and(|(k, _)| k == key)
    }

    /// The entry's value bytes and policy handle if it stores `key` and
    /// is not expired: one arena read serves both the key check and the
    /// value, and the handle's class is the header of the same slab.
    fn live_value(
        &self,
        e: &Entry,
        key: &[u8],
        now: impl FnOnce() -> SimTime,
    ) -> Option<(&[u8], Loc)> {
        let (k, v) = self.arena.read(e.slot)?;
        if k != key || e.expired(now) {
            return None;
        }
        Some((v, e.loc(self.arena.slab_class(e.slot)?)))
    }

    /// Frees an entry's arena slot.
    fn release(arena: &mut SlabArena, e: &Entry) {
        let freed = arena.remove(e.slot);
        debug_assert!(freed.is_ok(), "stale slot handle in index: {freed:?}");
    }

    /// Removes `h`'s entry, if any, and frees its slot, returning its
    /// item's policy handle. The policy still holds the item.
    fn take_entry(&mut self, h: u64) -> Option<Loc> {
        let e = self.entries.remove(&h)?;
        // The class is the slot's slab header: read it before the slot
        // is freed.
        let loc = self.arena.slab_class(e.slot).map(|class| e.loc(class));
        Self::release(&mut self.arena, &e);
        loc
    }

    /// Drops `h`'s entry, which must exist, from the store and the
    /// arena, and removes its item from the policy with a DELETE request
    /// by the entry's handle.
    fn drop_entry(&mut self, h: u64) {
        let loc = self.take_entry(h);
        let removed = self.policy.on_delete_at(h, loc);
        debug_assert!(removed, "entry {h:#x} had no policy item");
    }

    /// Drops an entry whose TTL lapsed, counting it as expired.
    fn drop_expired(&mut self, h: u64) {
        self.drop_entry(h);
        self.counters.expired += 1;
    }

    /// The shared-lock hit path: lookup, key check, TTL check, and a
    /// band hit count; the value is borrowed from the arena. No other
    /// mutation — recency bookkeeping is the caller's job (via the
    /// access log, with the item's policy handle returned here), and
    /// reading a slot never touches the ledger. `now` is called only
    /// when the entry has a TTL.
    pub fn read_hit_ref(
        &self,
        h: u64,
        key: &[u8],
        now: impl FnOnce() -> SimTime,
    ) -> Option<(ValueRef<'_>, Loc)> {
        let e = self.entries.get(&h)?;
        let (value, loc) = self.live_value(e, key, now)?;
        self.metrics.band(self.stripe, e.band()).hits.inc();
        Some((ValueRef { value, flags: e.flags, cas: e.cas() }, loc))
    }

    /// [`Self::read_hit_ref`] with the value copied out.
    pub fn read_hit(
        &self,
        h: u64,
        key: &[u8],
        now: impl FnOnce() -> SimTime,
    ) -> Option<(CacheValue, Loc)> {
        self.read_hit_ref(h, key, now).map(|(v, loc)| (v.to_value(), loc))
    }

    /// Immutable classification of a key's state (for `contains`).
    fn entry_state(&self, h: u64, key: &[u8], now: SimTime) -> EntryState {
        match self.entries.get(&h) {
            Some(e) if self.key_matches(e, key) => {
                if e.expired(|| now) {
                    EntryState::Expired
                } else {
                    EntryState::Live
                }
            }
            _ => EntryState::Absent,
        }
    }

    /// Drops the entry if it is still the same key and expired (the
    /// state may have changed between a read-lock check and the write
    /// lock this runs under).
    fn expire_if_dead(&mut self, h: u64, key: &[u8], now: SimTime) {
        if let Some(e) = self.entries.get(&h) {
            if self.key_matches(e, key) && e.expired(|| now) {
                self.drop_expired(h);
            }
        }
    }

    /// The write-lock GET, run after a read-lock miss. A hit here means
    /// the key was written between the two locks; it promotes inline
    /// through the policy. A miss (or collision or expiry) opens a
    /// miss window / drives the backend.
    pub fn get_locked(&mut self, h: u64, key: &[u8], now: SimTime) -> Option<CacheValue> {
        let tick = self.tick(now);
        let mut stale = None;
        if let Some(e) = self.entries.get(&h) {
            if let Some((v, loc)) = self.live_value(e, key, || now) {
                let hit = CacheValue {
                    value: Bytes::copy_from_slice(v),
                    flags: e.flags,
                    cas: e.cas(),
                };
                let band = e.band();
                // Keep the policy's recency bookkeeping in step, by
                // the entry's handle.
                let current = self.policy.on_hit(h, loc, tick);
                debug_assert!(current, "policy lost a stored key");
                self.metrics.band(self.stripe, band).hits.inc();
                return Some(hit);
            }
            // Expired, or a hash collision with a different key: a miss,
            // whose one policy request also removes the stale item. Only
            // the former is a TTL lapse.
            if self.key_matches(e, key) {
                self.counters.expired += 1;
            }
            stale = self.take_entry(h);
        }
        self.miss(h, now, stale);
        None
    }

    /// A GET miss of `h`; `stale` is the handle of the item just taken
    /// out from under `h`, if any.
    fn miss(&mut self, h: u64, now: SimTime, stale: Option<Loc>) {
        // Tell the policy about the miss: nothing is inserted, but the
        // access advances the value window and — crucially for slab
        // rebalance — a ghosted key credits its subclass's *incoming
        // value*. Without this signal a physical store would never
        // accumulate the evidence that triggers the paper's cross-class
        // migrations. The entry index has just reported the key absent,
        // so the policy skips its own index probe. A credited ghost
        // hands back the penalty the key was evicted with.
        let known = self.policy.on_miss(h, stale);
        let mut window = MissWindow { key: h, miss_at: now, known };
        if let Some(backend) = self.backend.as_mut() {
            let out = backend.fetch(h, self.serial);
            let c = &mut self.counters;
            c.backend_fetches += 1;
            c.backend_retries += u64::from(out.attempts.saturating_sub(1));
            c.backend_time_us += out.latency.as_micros();
            // A fetch leaves no gap to measure: a wall-clock gap would
            // shadow the observed latency, and a refill after a degraded
            // miss (the backend could not serve) measures nothing.
            window.miss_at = NEVER;
            if out.ok {
                let latency = out.latency.min(PENALTY_CAP);
                c.sample_penalty(latency);
                window.known = Some(latency);
            } else {
                c.backend_failures += 1;
            }
        }
        self.windows[window_slot(h)] = window;
        // Attribute the miss to the band of the key's best-known
        // regeneration penalty (the backend's just-measured latency,
        // the ghost's, or the default) and accumulate the
        // penalty-weighted miss cost — the paper's service-time
        // integrand.
        let penalty = window.known.unwrap_or(DEFAULT_PENALTY);
        let cells = self.metrics.band(self.stripe, self.cfg.band_of(penalty));
        cells.misses.inc();
        cells.penalty_cost_us.add(penalty.as_micros());
    }

    /// Stores `key` under `h` with one SET request to the policy. An
    /// entry already under `h` — live, lapsed (counted as an expiry) or
    /// a colliding key — is the resident item to the policy: its slot is
    /// freed, the request replaces its item (in place when the class and
    /// band hold), and the entry is rewritten. A refused SET leaves `h`
    /// absent. `opts.ttl` is final: the caller has applied the default.
    pub fn set(
        &mut self,
        h: u64,
        key: &[u8],
        value: &[u8],
        opts: &SetOptions,
        now: SimTime,
    ) -> Result<(), CacheError> {
        let tick = self.tick(now);
        self.counters.sets += 1;
        let (mut resident, mut old) = (None, None);
        if let Some(e) = self.entries.get(&h) {
            if e.expired(|| now) && self.key_matches(e, key) {
                self.counters.expired += 1;
            }
            resident = self.arena.slab_class(e.slot).map(|class| e.loc(class));
            old =
                resident.and_then(|loc| self.policy.cache().meta_at(loc, h)).map(|m| m.penalty);
            debug_assert!(old.is_some(), "entry {h:#x} had no policy item");
            Self::release(&mut self.arena, e);
        }
        let penalty = self.penalty_for(h, opts.penalty, old, now);
        let req =
            Request::set(now, h, key.len() as u32, value.len() as u32).with_penalty(penalty);
        // The policy's storage decisions (evictions, slab grants, slab
        // migrations) reach the arena as it makes them, so they are done
        // before the new item is written: an eviction or transfer is
        // exactly what frees the slot the item lands in. The bytes go to
        // the class the policy filed the item under, so the arena and the
        // ledger can never disagree on it.
        let mut storage = Storage {
            arena: &mut self.arena,
            entries: &mut self.entries,
            metrics: &self.metrics,
            stripe: self.stripe,
        };
        let stored = self.policy.on_set_at(&req, tick, resident, &mut storage);
        let Some(loc) = stored else {
            return Err(self.refuse(h, key.len() + value.len()));
        };
        match self.arena.insert(loc.class as usize, h, key, value) {
            Ok(slot) => {
                let entry =
                    Entry::new(slot, expiry(now, opts.ttl), opts.flags, self.serial, loc);
                self.entries.insert(h, entry);
                Ok(())
            }
            Err(e) => {
                // Impossible while the arena and the ledger are in
                // lockstep; in release builds, take the item back out of
                // the ledger so the two stay consistent.
                debug_assert!(false, "arena refused a ledger-approved insert: {e:?}");
                self.policy.on_delete_at(h, Some(loc));
                Err(self.refuse(h, key.len() + value.len()))
            }
        }
    }

    /// Drops the entry of a refused SET of `item_bytes` key and value
    /// bytes, and says why: no slab class can hold the item (the same
    /// byte rule as `CacheConfig::class_of` returning `None`), so
    /// eviction can never help, or there was no room this time.
    fn refuse(&mut self, h: u64, item_bytes: usize) -> CacheError {
        self.entries.remove(&h);
        self.counters.rejected += 1;
        let item_bytes = item_bytes as u64;
        let footprint = item_bytes + u64::from(self.cfg.item_overhead);
        if footprint > self.cfg.slab_bytes {
            CacheError::ValueTooLarge { item_bytes: footprint, max_bytes: self.cfg.slab_bytes }
        } else {
            CacheError::CapacityExhausted { item_bytes }
        }
    }

    /// Memcached `add`: stores only when the key is not live — absent,
    /// lapsed or a colliding key, which [`Self::set`] replaces.
    /// `Ok(false)` — the protocol's `NOT_STORED` — when a live entry
    /// already exists.
    pub fn add(
        &mut self,
        h: u64,
        key: &[u8],
        value: &[u8],
        opts: &SetOptions,
        now: SimTime,
    ) -> Result<bool, CacheError> {
        if let EntryState::Live = self.entry_state(h, key, now) {
            return Ok(false);
        }
        self.set(h, key, value, opts, now).map(|()| true)
    }

    /// Memcached `touch`: refreshes a live entry's TTL (`None` clears
    /// it) and promotes the key — a touched key is a used key. Returns
    /// whether the key was live.
    pub fn touch(
        &mut self,
        h: u64,
        key: &[u8],
        ttl: Option<SimDuration>,
        now: SimTime,
    ) -> bool {
        match self.entry_state(h, key, now) {
            EntryState::Live => {
                let tick = self.tick(now);
                let Some(e) = self.entries.get_mut(&h) else {
                    return false;
                };
                e.expires = expiry(now, ttl);
                let loc = self.arena.slab_class(e.slot).map(|class| e.loc(class));
                let current = loc.is_some_and(|loc| self.policy.on_hit(h, loc, tick));
                debug_assert!(current, "policy lost a touched key");
                true
            }
            EntryState::Expired => {
                self.drop_expired(h);
                false
            }
            EntryState::Absent => false,
        }
    }

    /// Memcached `flush_all`: drops every entry, returning how many.
    /// The flushed items' penalties leave with them (a removed item
    /// leaves no ghost); open miss windows survive, so a refill after
    /// the flush still measures its gap.
    pub fn clear(&mut self) -> u64 {
        let keys: Vec<u64> = self.entries.keys().copied().collect();
        let n = keys.len() as u64;
        for h in keys {
            self.drop_entry(h);
        }
        n
    }

    /// Detailed slab-arena accounting for diagnostics and benchmarks.
    /// Walks the metadata arrays; meant to be called at reporting
    /// cadence, not per operation.
    pub fn slab_report(&self) -> SlabReport {
        let arena = &self.arena;
        let st = arena.stats();
        let mut occupancy_deciles = [0u64; 10];
        for fill in arena.slab_fills() {
            let decile =
                (fill.live * 10).checked_div(fill.capacity).map_or(0, |d| d.min(9) as usize);
            occupancy_deciles[decile] += 1;
        }
        SlabReport {
            slab_bytes: st.slab_bytes,
            max_slabs: st.max_slabs,
            slabs: st.slabs,
            resident_bytes: st.resident_bytes,
            meta_bytes: st.meta_bytes,
            requested_bytes: st.live_item_bytes,
            slot_bytes: st.live_slot_bytes,
            free_slots: st.free_slots,
            live_items: st.live_items,
            transfers: st.transfers,
            slot_moves: st.slot_moves,
            occupancy_deciles,
            classes: arena
                .class_stats()
                .into_iter()
                .map(|cs| SlabClassReport {
                    class: cs.class,
                    slot_bytes: cs.slot_bytes,
                    slabs: cs.slabs,
                    live_slots: cs.live_slots,
                    free_slots: cs.free_slots,
                    live_bytes: cs.live_bytes,
                })
                .collect(),
        }
    }

    /// Memcached `delete`: removes a live entry and returns `true`. A
    /// lapsed entry is already gone to every reader: it is dropped as
    /// an expiry, and the answer is `false` (`NOT_FOUND`), as for an
    /// absent key. Either way the policy gets one DELETE request, which
    /// also forgets an absent key's ghost; a colliding key's entry is
    /// left alone.
    pub fn delete(&mut self, h: u64, key: &[u8], now: SimTime) -> bool {
        match self.entry_state(h, key, now) {
            EntryState::Live => {
                self.counters.deletes += 1;
                self.drop_entry(h);
                true
            }
            EntryState::Expired => {
                self.drop_expired(h);
                false
            }
            EntryState::Absent => {
                self.policy.on_delete_at(h, None);
                false
            }
        }
    }

    pub fn sweep_expired(&mut self, now: SimTime) -> usize {
        let expired: Vec<u64> =
            self.entries.iter().filter(|(_, e)| e.expired(|| now)).map(|(&h, _)| h).collect();
        for &h in &expired {
            self.drop_expired(h);
        }
        expired.len()
    }

    /// Applies a batch of deferred hit records, oldest first, through
    /// each record's policy handle. Each record counts as one access
    /// (serial and PAMA value-window cadence match the inline design);
    /// a record whose node no longer holds its key is skipped by the
    /// policy.
    pub fn apply_deferred(&mut self, hits: &[HitRecord], now: SimTime) {
        self.serial += hits.len() as u64;
        let tick = Tick { now, serial: self.serial };
        self.policy.on_hits(hits, tick);
        self.counters.deferred_hits += hits.len() as u64;
    }

    /// Drains `log` through the shard's reused buffer and applies the
    /// hits with [`Self::apply_deferred`].
    fn drain_log(&mut self, log: &AccessLog, now: SimTime) {
        let mut hits = std::mem::take(&mut self.hit_buf);
        log.drain_into(&mut hits);
        if !hits.is_empty() {
            self.apply_deferred(&hits, now);
            hits.clear();
        }
        self.hit_buf = hits;
    }

    /// Cross-checks the byte store against the policy's accounting,
    /// and the physical slab ledger against both: every live index
    /// entry must point at an allocated slot carved for the class the
    /// policy filed the item under, and its policy handle must reach a
    /// live node that holds the entry's hash in that class and the
    /// entry's band. With as many entries as policy items, the handles
    /// are then a bijection between the two (a node holds one key, and
    /// distinct entries hold distinct hashes); the policy keeps no key
    /// index to compare against. Per-class slab counts must match the
    /// policy's, and inside the arena free-list plus live slots must
    /// cover every slab's capacity (the arena's own full-recount
    /// `check`).
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.entries.len() != self.policy.cache().len() {
            return Err(format!(
                "store/policy divergence: {} entries vs {} policy items",
                self.entries.len(),
                self.policy.cache().len()
            ));
        }
        self.policy.cache().check_invariants()?;
        let arena = &self.arena;
        arena.check()?;
        let st = arena.stats();
        if st.live_items != self.entries.len() as u64 {
            return Err(format!(
                "arena holds {} items but the index holds {}",
                st.live_items,
                self.entries.len()
            ));
        }
        for (&h, e) in &self.entries {
            let r = e.slot;
            let Some((slab_class, hash, key_len, val_len)) = arena.locate(r) else {
                return Err(format!("entry {h:#x} points at dead slot {r:?}"));
            };
            if hash != h {
                return Err(format!(
                    "slot {r:?} stores hash {hash:#x} but is indexed as {h:#x}"
                ));
            }
            let loc = e.loc(slab_class);
            let Some(meta) = self.policy.cache().meta_at(loc, h) else {
                return Err(format!(
                    "entry {h:#x}: handle {loc:?} reaches no live policy node holding it"
                ));
            };
            if meta.class as usize != slab_class || meta.band as usize != e.band() {
                return Err(format!(
                    "entry {h:#x}: ledger class {} band {} but stored in a class-{slab_class} \
                     slab with band {}",
                    meta.class,
                    meta.band,
                    e.band()
                ));
            }
            if meta.key_size as usize != key_len || meta.value_size as usize != val_len {
                return Err(format!(
                    "entry {h:#x}: ledger sizes {}+{} but slot holds {key_len}+{val_len}",
                    meta.key_size, meta.value_size
                ));
            }
        }
        for class in 0..arena.num_classes() {
            let physical = arena.class_slabs(class);
            let ledger = self.policy.cache().class(class).slabs;
            if physical != ledger {
                return Err(format!(
                    "class {class}: {physical} physical slabs vs {ledger} in the ledger"
                ));
            }
        }
        Ok(())
    }
}

/// A shard plus its lock and deferred-hit log — the unit `PamaCache`
/// holds one of per shard. Write-lock work is done on the [`Shard`]
/// that [`ShardCell::write`] hands out; the cell's own methods are the
/// ones that need its read lock or its log.
pub(crate) struct ShardCell {
    inner: RwLock<Shard>,
    log: AccessLog,
    /// The shard's registry, reachable without the lock for latency
    /// timing.
    metrics: Arc<MetricsRegistry>,
}

impl ShardCell {
    pub fn new(shard: Shard) -> Self {
        Self {
            metrics: Arc::clone(&shard.metrics),
            inner: RwLock::new(shard),
            log: AccessLog::new(ACCESS_LOG_CAPACITY),
        }
    }

    /// Takes the write lock and drains the access log into the shard
    /// before handing it out. Every write-lock path goes through here,
    /// so deferred promotions are always applied in recorded order
    /// ahead of the mutation that follows.
    pub fn write(&self, now: SimTime) -> RwLockWriteGuard<'_, Shard> {
        let mut shard = self.inner.write();
        if !self.log.is_empty() {
            shard.drain_log(&self.log, now);
        }
        shard
    }

    /// Single-key GET: a hit is handed to `f`, whose result is
    /// returned. `clock` is read only when needed: on a hit to an entry
    /// with a TTL, and once before taking the write lock on a miss. A
    /// read-lock hit runs `f` under the read lock on the arena's bytes;
    /// the rare hit found under the write lock runs it on a copy.
    pub fn get<R>(
        &self,
        h: u64,
        key: &[u8],
        clock: impl Fn() -> SimTime,
        f: impl FnOnce(ValueRef<'_>) -> R,
    ) -> Option<R> {
        // Sampled latency timing (1 op in `LATENCY_SAMPLE`): the two
        // clock reads stay off all but a sliver of the hot path.
        let t0 = self.metrics.sample_latency(h).then(Instant::now);
        let result = self.get_inner(h, key, clock, f);
        if let Some(t0) = t0 {
            let us = t0.elapsed().as_micros() as u64;
            match &result {
                Some(_) => self.metrics.hit_latency_us.record(us),
                None => self.metrics.miss_latency_us.record(us),
            }
        }
        result
    }

    fn get_inner<R>(
        &self,
        h: u64,
        key: &[u8],
        clock: impl Fn() -> SimTime,
        f: impl FnOnce(ValueRef<'_>) -> R,
    ) -> Option<R> {
        {
            let shard = self.inner.read();
            if let Some((value, loc)) = shard.read_hit_ref(h, key, &clock) {
                self.log.record((h, loc));
                return Some(f(value));
            }
        }
        // Miss / collision / expiry: full path under the write lock.
        let now = clock();
        let hit = self.write(now).get_locked(h, key, now);
        hit.map(|v| f(v.as_ref()))
    }

    pub fn contains(&self, h: u64, key: &[u8], now: SimTime) -> bool {
        let shard = self.inner.read();
        match shard.entry_state(h, key, now) {
            EntryState::Live => true,
            EntryState::Absent => false,
            EntryState::Expired => {
                drop(shard);
                self.write(now).expire_if_dead(h, key, now);
                false
            }
        }
    }

    /// Batched GET for keys mapping to this shard: one read-lock pass
    /// serves every hit; a single write-lock pass (if needed) handles
    /// the misses.
    pub fn multi_get_group(
        &self,
        group: &[(usize, u64)],
        keys: &[&[u8]],
        out: &mut [Option<CacheValue>],
        now: SimTime,
    ) {
        let mut misses: Vec<(usize, u64)> = Vec::new();
        {
            let shard = self.inner.read();
            for &(i, h) in group {
                match shard.read_hit(h, keys[i], || now) {
                    Some((value, loc)) => {
                        self.log.record((h, loc));
                        out[i] = Some(value);
                    }
                    None => misses.push((i, h)),
                }
            }
        }
        if !misses.is_empty() {
            let mut shard = self.write(now);
            for (i, h) in misses {
                out[i] = shard.get_locked(h, keys[i], now);
            }
        }
    }

    /// The shard's operation counters and slab ledger, read together
    /// under one read lock; `deferred_dropped` comes from the
    /// lock-free log.
    pub fn report(&self) -> (crate::stats::CacheStats, SlabReport) {
        let shard = self.inner.read();
        let mut stats = shard.counters.snapshot();
        stats.deferred_dropped = self.log.dropped();
        (stats, shard.slab_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> Shard {
        let cfg = CacheConfig {
            total_bytes: 1 << 20,
            slab_bytes: 64 << 10,
            ..CacheConfig::default()
        };
        Shard::new(cfg.clone(), PamaConfig::default(), registry_for(&cfg, 1), 0)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The policy's metadata for `h`, reached through its entry's
    /// handle (the policy has no key index to ask).
    fn meta(s: &Shard, h: u64) -> Option<pama_core::cache::ItemMeta> {
        let e = s.entries.get(&h)?;
        let loc = e.loc(s.arena.slab_class(e.slot)?);
        s.policy.cache().meta_at(loc, h).copied()
    }

    #[test]
    fn live_penalty_probe_measures_gap() {
        let mut s = shard();
        // miss at t=100ms, refill at t=180ms → 80ms penalty measured
        assert!(s.get_locked(1, b"k", t(100)).is_none());
        s.set(1, b"k", b"v", &SetOptions::default(), t(180)).unwrap();
        let measured = SimDuration::from_millis(80);
        assert_eq!(meta(&s, 1).map(|m| m.penalty), Some(measured));
        let st = s.counters.snapshot();
        assert_eq!(st.measured_penalties, 1);
        assert!((st.mean_measured_penalty_us - 80_000.0).abs() < 1.0);
        // The stored item's penalty band reflects the measurement.
        assert_eq!(meta(&s, 1).unwrap().band as usize, s.cfg.band_of(measured));
    }

    #[test]
    fn explicit_penalty_wins_over_probe() {
        let mut s = shard();
        assert!(s.get_locked(2, b"k2", t(0)).is_none());
        s.set(2, b"k2", b"v", &SetOptions::new().penalty(SimDuration::from_secs(2)), t(50))
            .unwrap();
        assert_eq!(meta(&s, 2).unwrap().penalty, SimDuration::from_secs(2));
    }

    #[test]
    fn explicit_set_closes_the_probe_window() {
        let mut s = shard();
        assert!(s.get_locked(8, b"k8", t(0)).is_none());
        s.set(8, b"k8", b"v", &SetOptions::new().penalty(SimDuration::from_secs(2)), t(10))
            .unwrap();
        // A later plain SET must not measure the stale 0 → 50 ms gap;
        // it keeps the old generation's explicit penalty.
        s.set(8, b"k8", b"v", &SetOptions::default(), t(50)).unwrap();
        assert_eq!(s.counters.snapshot().measured_penalties, 0);
        assert_ne!(s.windows[window_slot(8)].key, 8, "the window outlived the SET");
        assert_eq!(meta(&s, 8).unwrap().penalty, SimDuration::from_secs(2));
    }

    #[test]
    fn over_cap_gap_falls_back_to_default() {
        let mut s = shard();
        assert!(s.get_locked(3, b"k3", t(0)).is_none());
        s.set(3, b"k3", b"v", &SetOptions::default(), t(10_000)).unwrap(); // 10 s gap > cap
        assert_eq!(meta(&s, 3).unwrap().penalty, DEFAULT_PENALTY);
    }

    #[test]
    fn ttl_expiry_is_lazy_and_sweepable() {
        let mut s = shard();
        s.set(4, b"k4", b"v", &SetOptions::new().ttl(SimDuration::from_millis(100)), t(0))
            .unwrap();
        assert!(matches!(s.entry_state(4, b"k4", t(50)), EntryState::Live));
        assert!(
            matches!(s.entry_state(4, b"k4", t(150)), EntryState::Expired),
            "expired entry still reported live"
        );
        s.expire_if_dead(4, b"k4", t(150));
        assert!(matches!(s.entry_state(4, b"k4", t(150)), EntryState::Absent));
        assert_eq!(s.counters.snapshot().expired, 1, "a lazy drop counts as an expiry");
        // a GET that finds the lapsed entry drops and counts it too
        s.set(6, b"k6", b"v", &SetOptions::new().ttl(SimDuration::from_millis(10)), t(160))
            .unwrap();
        assert!(s.get_locked(6, b"k6", t(180)).is_none());
        assert_eq!(
            (s.counters.snapshot().expired, s.metrics.snapshot().total_misses()),
            (2, 1)
        );
        // sweep path
        s.set(5, b"k5", b"v", &SetOptions::new().ttl(SimDuration::from_millis(10)), t(200))
            .unwrap();
        assert_eq!(s.sweep_expired(t(500)), 1);
        assert_eq!(s.counters.snapshot().expired, 3);
    }

    #[test]
    fn collision_resolves_to_newest_writer() {
        let mut s = shard();
        s.set(7, b"first", b"A", &SetOptions::default(), t(0)).unwrap();
        // same hash, different key bytes: treated as miss, then overwritten
        assert!(s.get_locked(7, b"second", t(1)).is_none());
        s.set(7, b"second", b"B", &SetOptions::default(), t(2)).unwrap();
        assert_eq!(
            s.get_locked(7, b"second", t(3)).map(|v| v.value).as_deref(),
            Some(&b"B"[..])
        );
        assert!(s.get_locked(7, b"first", t(4)).is_none());
        // collisions never reach the read-hit fast path either
        assert!(s.read_hit(7, b"first", || t(5)).is_none());
        assert_eq!(s.counters.snapshot().expired, 0, "a collision drop is not an expiry");
    }

    #[test]
    fn index_grows_with_residency_not_geometry() {
        // 1 GiB holds up to 2^24 minimum-size items; the index must not
        // reserve for that before a single key arrives.
        let cfg =
            CacheConfig { total_bytes: 1 << 30, slab_bytes: 1 << 20, ..CacheConfig::default() };
        let mut s = Shard::new(cfg.clone(), PamaConfig::default(), registry_for(&cfg, 1), 0);
        assert!(s.entries.capacity() < 64, "empty shard reserved {}", s.entries.capacity());
        // The miss-window table is the same fixed size for any geometry.
        assert_eq!(s.windows.len(), WINDOW_SLOTS);
        assert!(std::mem::size_of_val(&*s.windows) <= 64 << 10);
        const N: u64 = 1_000;
        for i in 0..N {
            s.set(i, format!("k{i}").as_bytes(), b"v", &SetOptions::default(), t(i)).unwrap();
        }
        assert_eq!(s.entries.len(), N as usize);
        assert!(s.entries.capacity() < 4 * N as usize, "capacity {}", s.entries.capacity());
        assert_eq!(s.windows.len(), WINDOW_SLOTS);
    }

    #[test]
    fn read_hit_reads_the_clock_only_for_ttl_entries() {
        let mut s = shard();
        s.set(1, b"plain", b"v", &SetOptions::default(), t(0)).unwrap();
        s.set(2, b"ttl", b"v", &SetOptions::new().ttl(SimDuration::from_millis(10)), t(0))
            .unwrap();
        let reads = std::cell::Cell::new(0);
        let clock = |ms| {
            reads.set(reads.get() + 1);
            t(ms)
        };
        assert!(s.read_hit(1, b"plain", || clock(5)).is_some());
        assert_eq!(reads.get(), 0, "an entry without a TTL needs no clock");
        assert!(s.read_hit(2, b"ttl", || clock(5)).is_some());
        assert!(s.read_hit(2, b"ttl", || clock(10)).is_none(), "lapsed at exactly its expiry");
        assert_eq!(reads.get(), 2);
        // A TTL too long to represent never expires rather than wrapping.
        s.set(
            3,
            b"far",
            b"v",
            &SetOptions::new().ttl(SimDuration::from_micros(u64::MAX)),
            t(9),
        )
        .unwrap();
        assert!(s.read_hit(3, b"far", || t(u64::MAX / 2_000)).is_some());
    }

    #[test]
    fn policy_evictions_free_store_and_arena() {
        let mut s = shard();
        let v = vec![0u8; 30_000];
        for i in 0..200u64 {
            let _ = s.set(i, format!("key{i}").as_bytes(), &v, &SetOptions::default(), t(i));
        }
        let items = s.slab_report().live_items;
        assert!(items < 40, "1 MiB can't hold 200×30 KB: items {items}");
        assert!(s.metrics.snapshot().total_evictions() > 0);
        // store, arena and policy agree exactly
        assert_eq!(items as usize, s.policy.cache().len());
        assert_eq!(items as usize, s.entries.len());
        s.check_consistency().unwrap();
    }

    #[test]
    fn deferred_hits_promote_like_inline_gets() {
        // Two shards with identical geometry: one promotes inline on
        // every GET, the other records hits and applies them in one
        // batch. After the drain, LRU order (and thus the eviction
        // victim) must match.
        let mut inline = shard();
        let mut deferred = shard();
        let v = vec![0u8; 100];
        for i in 0..8u64 {
            inline
                .set(i, format!("k{i}").as_bytes(), &v, &SetOptions::default(), t(i))
                .unwrap();
            deferred
                .set(i, format!("k{i}").as_bytes(), &v, &SetOptions::default(), t(i))
                .unwrap();
        }
        // Touch keys 0..4 (oldest first) — inline promotes immediately.
        let mut hits = Vec::new();
        for i in 0..4u64 {
            assert!(inline.get_locked(i, format!("k{i}").as_bytes(), t(100 + i)).is_some());
            let (_, loc) =
                deferred.read_hit(i, format!("k{i}").as_bytes(), || t(100 + i)).unwrap();
            hits.push((i, loc));
        }
        deferred.apply_deferred(&hits, t(104));
        // Same serial consumed, same access count.
        assert_eq!(inline.serial, deferred.serial);
        // Same LRU state: evict pressure must pick the same victims.
        let fill = vec![0u8; 100];
        for i in 100..1200u64 {
            let key = format!("f{i}");
            let _ = inline.set(i, key.as_bytes(), &fill, &SetOptions::default(), t(200 + i));
            let key = format!("f{i}");
            let _ = deferred.set(i, key.as_bytes(), &fill, &SetOptions::default(), t(200 + i));
        }
        for i in 0..8u64 {
            assert_eq!(
                meta(&inline, i).is_some(),
                meta(&deferred, i).is_some(),
                "key {i} diverged between inline and deferred promotion"
            );
        }
        inline.check_consistency().unwrap();
        deferred.check_consistency().unwrap();
    }

    #[test]
    fn a_hit_recorded_on_an_evicted_item_promotes_nothing() {
        // A hit recorded, then its item evicted and the item's LRU node
        // reused by another key before the drain — possible only when
        // something mutates the shard between the record and the
        // drain. The drain must skip the record, not promote whichever
        // item now owns the node.
        let mut s = shard();
        let v = vec![0u8; 30_000];
        let key = |i: u64| format!("key{i}").into_bytes();
        s.set(0, &key(0), &v, &SetOptions::default(), t(0)).unwrap();
        let (_, loc) = s.read_hit(0, &key(0), || t(1)).unwrap();
        // Fill the class until key 0, the LRU item, is evicted; the SET
        // that evicts it takes its node.
        let mut i = 1;
        while s.entries.contains_key(&0) {
            s.set(i, &key(i), &v, &SetOptions::default(), t(1 + i)).unwrap();
            i += 1;
        }
        let queue = |s: &Shard| -> Vec<u64> {
            let q = &s.policy.cache().class(loc.class as usize).queues[loc.band as usize];
            q.iter().map(|m| m.key).collect()
        };
        let owner = s.policy.cache().class(loc.class as usize).queues[loc.band as usize]
            .try_get(loc.node)
            .map(|m| m.key);
        assert!(owner.is_some_and(|k| k != 0), "node not reused: {owner:?}");
        // Promote another item, so that promoting the node's new owner
        // would show in the order.
        assert!(s.get_locked(1, &key(1), t(400)).is_some());
        let before = queue(&s);
        assert_ne!(Some(before[0]), owner);
        let serial = s.serial;
        s.apply_deferred(&[(0, loc)], t(500));
        let after = queue(&s);
        assert_eq!(before, after, "a stale record moved an LRU node");
        assert_eq!(s.serial, serial + 1, "the access still counts");
        assert_eq!(s.counters.snapshot().deferred_hits, 1);
        s.check_consistency().unwrap();
    }

    #[test]
    fn per_resident_policy_state_is_bounded() {
        // Ten times the shard's capacity in distinct keys, each missed
        // and then SET: the policy files no `hash → Loc` entry (the
        // entries hold the handles), and its one ghost index stays
        // within the ghost lists' caps.
        let mut s = shard();
        let v = [0u8; 100];
        let mut i = 0u64;
        let mut capacity = 0;
        while i < 10 * capacity.max(1_000) as u64 {
            let key = format!("churn{i}");
            assert!(s.get_locked(i, key.as_bytes(), t(i)).is_none());
            s.set(i, key.as_bytes(), &v, &SetOptions::default(), t(i)).unwrap();
            capacity = capacity.max(s.entries.len());
            i += 1;
        }
        assert!((s.entries.len() as u64) < i / 5, "the stream never evicted");
        assert!(!s.policy.cache().is_indexed(), "the policy keeps a key index");
        assert_eq!(s.policy.cache().len(), s.entries.len());
        assert!(s.policy.ghost_len() > 0, "evictions left no ghosts");
        assert!(
            s.policy.ghost_len() <= s.policy.ghost_capacity(),
            "ghost index {} over the lists' caps {}",
            s.policy.ghost_len(),
            s.policy.ghost_capacity()
        );
        s.check_consistency().unwrap();
    }

    /// Sets `h` with an explicit penalty, then fills its subclass until
    /// the policy evicts it into the ghost list.
    fn ghost_with_penalty(s: &mut Shard, h: u64, penalty: SimDuration) {
        let v = vec![0u8; 30_000];
        let key = |i: u64| format!("key{i}").into_bytes();
        s.set(h, &key(h), &v, &SetOptions::new().penalty(penalty), t(0)).unwrap();
        let mut i = h + 1;
        while s.entries.contains_key(&h) {
            s.set(i, &key(i), &v, &SetOptions::new().penalty(penalty), t(i)).unwrap();
            i += 1;
        }
        assert_eq!(s.policy.ghost_penalty(h), Some(penalty), "key {h} left no ghost");
    }

    #[test]
    fn a_ghosted_key_misses_under_its_own_penalty() {
        let mut s = shard();
        let two_s = SimDuration::from_secs(2);
        ghost_with_penalty(&mut s, 0, two_s);
        let band = s.cfg.band_of(two_s);
        assert_ne!(band, s.cfg.band_of(DEFAULT_PENALTY));
        let before = s.metrics.snapshot().bands[band].clone();
        assert!(s.get_locked(0, b"key0", t(1_000)).is_none());
        let after = s.metrics.snapshot();
        assert_eq!(after.bands[band].misses, before.misses + 1);
        assert_eq!(after.bands[band].penalty_cost_us, before.penalty_cost_us + 2_000_000);
        assert_eq!(after.total_misses(), 1, "the miss was filed under another band too");
        // The refill SET, six seconds later (over the cap), keeps the
        // penalty the miss knew.
        let v = vec![0u8; 30_000];
        s.set(0, b"key0", &v, &SetOptions::default(), t(7_000)).unwrap();
        assert_eq!(meta(&s, 0).unwrap().penalty, two_s);
        // A SET with no miss before it takes the ghost's penalty too.
        ghost_with_penalty(&mut s, 100, two_s);
        s.set(100, b"key100", &v, &SetOptions::default(), t(8_000)).unwrap();
        assert_eq!(meta(&s, 100).unwrap().penalty, two_s);
        assert_eq!(s.counters.snapshot().measured_penalties, 0);
        s.check_consistency().unwrap();
    }

    #[test]
    fn deleting_an_evicted_key_forgets_its_penalty() {
        let mut s = shard();
        let two_s = SimDuration::from_secs(2);
        ghost_with_penalty(&mut s, 0, two_s);
        // The key is not resident, but the DELETE still reaches the
        // policy, which forgets the ghost: the deleted value can no
        // longer credit a slab, nor lend its penalty.
        assert!(!s.delete(0, b"key0", t(1_000)));
        assert_eq!(s.policy.ghost_penalty(0), None);
        let before = s.metrics.snapshot();
        assert!(s.get_locked(0, b"key0", t(1_001)).is_none());
        let after = s.metrics.snapshot();
        let band = s.cfg.band_of(DEFAULT_PENALTY);
        assert_ne!(band, s.cfg.band_of(two_s));
        assert_eq!(after.bands[band].misses, before.bands[band].misses + 1);
        assert_eq!(after.total_misses(), before.total_misses() + 1);
        // A plain SET with no miss before it starts over at the default.
        ghost_with_penalty(&mut s, 100, two_s);
        assert!(!s.delete(100, b"key100", t(2_000)));
        let v = vec![0u8; 30_000];
        s.set(100, b"key100", &v, &SetOptions::default(), t(8_000)).unwrap();
        assert_eq!(meta(&s, 100).unwrap().penalty, DEFAULT_PENALTY);
        s.check_consistency().unwrap();
    }

    #[test]
    fn a_plain_set_keeps_the_explicit_penalty() {
        let mut s = shard();
        s.set(9, b"k9", b"v1", &SetOptions::new().penalty(SimDuration::from_secs(2)), t(0))
            .unwrap();
        s.set(9, b"k9", b"v2", &SetOptions::default(), t(5)).unwrap();
        assert_eq!(meta(&s, 9).unwrap().penalty, SimDuration::from_secs(2));
        // Deleted, the key forgets it.
        assert!(s.delete(9, b"k9", t(6)));
        s.set(9, b"k9", b"v3", &SetOptions::default(), t(7)).unwrap();
        assert_eq!(meta(&s, 9).unwrap().penalty, DEFAULT_PENALTY);
    }

    #[test]
    fn per_key_penalty_state_is_bounded_by_residents_and_ghosts() {
        // Ten times the shard's capacity in distinct keys, each missed
        // and then SET 1 ms later, so every key gets a measured gap.
        // Per-key state must stay with the resident items and the
        // bounded ghosts; the window table never grows.
        let mut s = shard();
        let v = [0u8; 10];
        let (mut i, mut capacity) = (0u64, 0);
        while i < 10 * capacity.max(1_000) as u64 {
            let key = format!("gap{i}");
            assert!(s.get_locked(i, key.as_bytes(), t(2 * i)).is_none());
            s.set(i, key.as_bytes(), &v, &SetOptions::default(), t(2 * i + 1)).unwrap();
            capacity = capacity.max(s.entries.len());
            i += 1;
        }
        assert_eq!(s.counters.snapshot().measured_penalties, i);
        let per_key = s.entries.capacity() + s.policy.ghost_len();
        let bound = 2 * (s.entries.len() + s.policy.ghost_capacity());
        assert!(per_key <= bound, "{per_key} per-key slots after {i} keys, bound {bound}");
        assert_eq!(s.windows.len(), WINDOW_SLOTS);
        s.check_consistency().unwrap();
    }

    #[test]
    fn a_colliding_miss_never_lends_its_gap() {
        let mut s = shard();
        let a = 1u64;
        let b = (2..).find(|&h| window_slot(h) == window_slot(a)).unwrap();
        assert!(s.get_locked(a, b"a", t(0)).is_none());
        // B's miss takes A's slot: A's SET measures nothing and falls
        // down the lookup order to the default.
        assert!(s.get_locked(b, b"b", t(10)).is_none());
        s.set(a, b"a", b"v", &SetOptions::default(), t(50)).unwrap();
        assert_eq!(s.counters.snapshot().measured_penalties, 0);
        assert_eq!(meta(&s, a).unwrap().penalty, DEFAULT_PENALTY);
        // B's window is intact: its own 10 → 60 ms gap.
        s.set(b, b"b", b"v", &SetOptions::default(), t(60)).unwrap();
        assert_eq!(s.counters.snapshot().measured_penalties, 1);
        assert_eq!(meta(&s, b).unwrap().penalty, SimDuration::from_millis(50));
    }

    #[test]
    fn delete_and_add_classify_a_lapsed_entry_as_expired() {
        let mut s = shard();
        let ttl = SetOptions::new().ttl(SimDuration::from_millis(5));
        s.set(1, b"gone", b"v", &ttl, t(0)).unwrap();
        // Lapsed: every reader already reports it absent, so DELETE
        // finds nothing to delete and counts the expiry instead.
        assert!(!s.delete(1, b"gone", t(20)));
        let st = s.counters.snapshot();
        assert_eq!((st.deletes, st.expired, s.entries.len()), (0, 1, 0));
        assert!(!s.delete(1, b"gone", t(21)), "the key stays absent");
        // A live key is deleted and counted as a delete.
        s.set(2, b"live", b"v", &ttl, t(30)).unwrap();
        assert!(s.delete(2, b"live", t(31)));
        assert_eq!((s.counters.snapshot().deletes, s.counters.snapshot().expired), (1, 1));
        // ADD over a lapsed generation stores, and counts the lapse.
        s.set(3, b"again", b"old", &ttl, t(40)).unwrap();
        assert!(s.add(3, b"again", b"new", &SetOptions::default(), t(60)).unwrap());
        assert_eq!(s.counters.snapshot().expired, 2);
        assert_eq!(s.read_hit(3, b"again", || t(61)).unwrap().0.value.as_ref(), b"new");
        s.check_consistency().unwrap();
    }

    #[test]
    fn a_get_of_a_stale_entry_makes_one_policy_request() {
        // A value window of 1 rebuilds at every access, so the rebuild
        // count counts the policy's requests.
        let cfg = CacheConfig {
            total_bytes: 1 << 20,
            slab_bytes: 64 << 10,
            ..CacheConfig::default()
        };
        let pama = PamaConfig { value_window: 1, ..PamaConfig::default() };
        let mut s = Shard::new(cfg.clone(), pama, registry_for(&cfg, 1), 0);
        let ttl = SetOptions::new().ttl(SimDuration::from_millis(5));
        s.set(1, b"lapsed", b"v", &ttl, t(0)).unwrap();
        s.set(2, b"first", b"v", &SetOptions::default(), t(0)).unwrap();
        let before = s.policy.rebuilds();
        assert!(s.get_locked(1, b"lapsed", t(10)).is_none());
        assert_eq!(s.policy.rebuilds(), before + 1, "a lapsed GET made two requests");
        assert!(s.get_locked(2, b"second", t(11)).is_none());
        assert_eq!(s.policy.rebuilds(), before + 2, "a colliding GET made two requests");
        // Both stale items left the store and the policy; only the lapse
        // is an expiry, and each GET is one miss.
        assert_eq!((s.entries.len(), s.policy.cache().len()), (0, 0));
        assert_eq!(s.counters.expired, 1);
        assert_eq!(s.metrics.snapshot().total_misses(), 2);
        s.check_consistency().unwrap();
    }

    #[test]
    fn visitor_get_sees_the_stored_hit_and_defers_it_once() {
        let cell = ShardCell::new(shard());
        let now = t(1);
        cell.write(now).set(1, b"k", b"value", &SetOptions::new().flags(0xBEEF), now).unwrap();
        cell.write(now)
            .set(2, b"ttl", b"v", &SetOptions::new().ttl(SimDuration::from_millis(10)), now)
            .unwrap();
        let hits = || cell.metrics.snapshot().total_hits();
        let deferred = || cell.report().0.deferred_hits;

        let seen = cell.get(1, b"k", || now, |v| (v.value.to_vec(), v.flags, v.cas)).unwrap();
        assert_eq!((hits(), deferred()), (1, 0), "one band hit, promotion still pending");
        assert!(!cell.log.is_empty(), "the hit was not logged for deferred promotion");
        drop(cell.write(now));
        assert_eq!(deferred(), 1, "the write-lock drain applies the logged hit");
        let copied = cell.get(1, b"k", || now, |v| v.to_value()).unwrap();
        assert_eq!(seen, (copied.value.to_vec(), copied.flags, copied.cas));
        assert_eq!(seen.1, 0xBEEF);

        // A miss, a hash collision and a lapsed TTL never reach the
        // visitor.
        let never = |_: ValueRef<'_>| panic!("visitor called without a live hit");
        assert!(cell.get(3, b"absent", || now, never).is_none());
        assert!(cell.get(1, b"collides", || now, never).is_none());
        assert!(cell.get(2, b"ttl", || t(20), never).is_none());
        assert_eq!(hits(), 2);
    }
}
