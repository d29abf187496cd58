//! One cache shard: real byte storage + a PAMA policy instance for
//! memory accounting and eviction decisions, plus the live penalty
//! estimator (the paper's GET-miss→SET gap, measured online).
//!
//! Concurrency model (see DESIGN.md §6b): each shard's state is split in
//! two halves, each behind its own lock.
//!
//! * **Data** ([`Data`]): the index, the slab bytes and each slot's
//!   data record (lengths, expiry, flags, CAS stamp, band), which is
//!   everything a GET hit reads. It sits behind the `parking_lot` shim's
//!   reader-striped [`RwLock`]: a reader counts itself in its thread
//!   stripe's slot, a counter alone on its cache line, then checks the
//!   writer flag, and a writer sets the flag and waits for every slot to
//!   drain.
//! * **The policy** ([`Shard`]): `Pama`, its slab ledger and each slot's
//!   policy node (hash, links, penalty, band, tag), which is everything
//!   a deferred hit touches, together with the miss windows, the
//!   operation counters and the drain buffer. It sits behind a `Mutex`.
//!
//! The protocol:
//!
//! * Every path takes the policy lock before the data lock, and no path
//!   takes the policy lock while it holds the data lock.
//! * Data changes only while the policy lock is held, so a data read
//!   under the policy lock is exact.
//! * A cache-hit GET, `contains` and a `multi_get` hit take the data
//!   read lock only: one index probe, one arena read of the slot's
//!   record and bytes for the key check, the TTL, the flags, the CAS
//!   stamp and the value (handed to the caller's visitor in place, or
//!   copied out), a clock read only if the item has a TTL, and a hit
//!   count in the calling thread's stripe of the band registry. The hit
//!   is recorded in the thread stripe's ring of the cell's lock-free
//!   [`AccessLog`] instead of being promoted inline. A GET whose first
//!   `try_read` fails counts one read-lock wait in its thread's stripe.
//!   So a hit writes only lines of its thread stripe
//!   ([`parking_lot::thread_stripe`]): its reader slot, its ring's tail
//!   and slot, and its hit counter.
//! * Every other path takes the policy lock through [`ShardCell::lock`],
//!   which drains the log first, one stripe's ring after another, so
//!   each thread's deferred promotions are applied in the order it made
//!   them before any decision. A drain
//!   ([`Shard::apply_deferred`]) touches policy nodes only, so GETs keep
//!   reading while it runs; it keeps its hold short by prefetching the
//!   nodes of the hits ahead of the one it applies.
//! * A GET miss takes the policy lock, drains, and probes again under
//!   the data read lock; a hit found there is promoted inline, and a
//!   miss makes its one policy request. An absent key's miss never
//!   takes the data write lock.
//! * SET, `add`, `touch`, DELETE, `multi_set`, `clear`, sweeps and a
//!   lapsed or colliding entry take the data write lock only for the
//!   steps that change data: a SET's byte and record write, a free, a
//!   slab grant or a compaction.
//!
//! So a reader waits only while a writer changes data, and the writers
//! and drains of a shard wait on each other's policy lock, spinning
//! before they sleep (the `parking_lot` shim's locks).
//!
//! The read path itself never drains: applying a deferred hit to the
//! policy costs as much as the inline promotion it replaced, so a
//! reader-side drain would hand the saved cost right back. Instead a
//! stripe's ring drops (and counts) hits once full — bounded-staleness
//! recency: eviction and allocation decisions only happen under the
//! policy lock, and by the time one runs, every hit recorded before it
//! (up to ring capacity per stripe) has been applied. In a
//! single-threaded sequence whose read bursts fit the ring, the drained
//! promotions land in exactly the order and counts inline promotion
//! would produce.
//!
//! Each slot has one data record and one policy node, which the
//! policy's LRU queues link directly ([`Slots`]), so the slot's node id
//! is the item's policy handle. The policy is built over that store
//! with [`Pama::with_store`]; it keeps no key index, and the data's
//! `hash → slot` index is the only per-key map of resident items. Each
//! call makes the one policy request the simulator makes for it,
//! addressed by that handle:
//!
//! * a GET hit is [`Pama::on_hit`] (deferred, or inline under the policy
//!   lock; `touch` promotes the same way), and a record whose slot no
//!   longer holds its key (the item left before the drain) is skipped;
//! * a GET miss is [`Pama::on_miss`], given the handle of a lapsed or
//!   colliding item found under the hash, which leaves within that one
//!   request;
//! * a SET is [`Pama::on_set_at`], given the handle of the item already
//!   under the hash — live, lapsed or a colliding key — if any. An item
//!   that keeps its class and band keeps its slot, rewritten in place;
//! * a DELETE is [`Pama::on_delete_at`], made whether or not the key is
//!   resident, so an absent key's ghost is forgotten. Expiry found by
//!   other calls, sweeps and `flush_all` remove items with it too.
//!
//! The store carries out each storage decision as the policy makes it
//! (slot allocation and freeing, slab grants, and the compaction of a
//! slab move, which relinks every moved node), keeping the index in
//! step, and counts each eviction, grant and move in the shard's stripe
//! of the registry, which the shard reaches through it: the policy's
//! counts keep the shard's stripe, while a GET hit's go to its
//! thread's. The operation counters ([`ShardCounters`]) are plain
//! integers the policy half owns.
//!
//! A key's penalty lives in the policy's records: its slot's node or
//! its ghost entry; open miss windows sit in a fixed table
//! ([`MissWindow`]).

use crate::log::{AccessLog, HitRecord};
use crate::options::{CacheError, CacheValue, SetOptions, ValueRef};
use crate::slots::{expired, Data, EntryState, Slots, NEVER};
use crate::stats::{ShardCounters, SlabClassReport, SlabReport};
use bytes::Bytes;
use pama_core::config::{CacheConfig, Tick};
use pama_core::lru::NodeRef;
use pama_core::policy::{Pama, PamaConfig};
use pama_faults::BackendSim;
use pama_metrics::MetricsRegistry;
use pama_slab::{SlotRef, MAX_KEY_LEN};
use pama_trace::penalty::{DEFAULT_PENALTY, PENALTY_CAP};
use pama_trace::Request;
use pama_util::{SimDuration, SimTime};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::sync::Arc;
use std::time::Instant;

/// Capacity of each thread stripe's deferred-hit ring in a shard's
/// [`AccessLog`]: the most promotions one stripe's threads can make the
/// policy owe between two policy-lock events, so with S stripes
/// ([`parking_lot::stripes`]) the policy can owe up to S × 4096. At
/// 80–165 ns per deferred hit, a full ring's drain takes 0.3–0.7 ms; the
/// common drain, of the few hits logged since the last write, takes a
/// few microseconds.
const ACCESS_LOG_CAPACITY: usize = 4096;

/// How many deferred hits ahead of the one being applied a drain
/// prefetches the node of; a memory load takes about as long as this
/// many promotions of cached nodes.
const RECORD_AHEAD: usize = 8;

/// How many deferred hits ahead a drain prefetches the queue
/// neighbours' nodes of: half of [`RECORD_AHEAD`], so the node holding
/// their ids has arrived.
const NEIGHBOURS_AHEAD: usize = 4;

/// The expiry stamp of an item stored at `now` with `ttl`; saturates to
/// [`NEVER`] rather than overflow.
fn expiry(now: SimTime, ttl: Option<SimDuration>) -> u64 {
    ttl.map_or(NEVER, |d| now.as_micros().saturating_add(d.as_micros()))
}

/// Slots in each shard's miss-window table: 16 KiB of 32 B slots. A few
/// hundred keys that miss and are never stored touch every page of it.
const WINDOW_SLOTS: usize = 512;

/// An open miss window, one slot of a shard's direct-mapped table: key
/// hash `key` missed at `miss_at`, and a SET within [`PENALTY_CAP`]
/// records the gap as its penalty. `known` is a penalty known at the
/// miss: the backend's fetch latency (with no gap: `miss_at` is
/// `SimTime(NEVER)`) or the key's ghost's penalty. A miss overwrites
/// its slot, and a slot keeps the full hash, so a key whose window a
/// colliding key overwrote finds none rather than the other key's.
#[derive(Debug, Clone, Copy)]
struct MissWindow {
    key: u64,
    miss_at: SimTime,
    known: Option<SimDuration>,
}

/// A slot that measures nothing and knows nothing.
const CLOSED: MissWindow = MissWindow { key: 0, miss_at: SimTime(NEVER), known: None };

/// The window slot of hash `h`: the top bits of a multiplicative mix,
/// not the low bits that pick the shard.
fn window_slot(h: u64) -> usize {
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - WINDOW_SLOTS.trailing_zeros())) as usize
}

/// The policy half of a shard, which the cell's policy lock guards,
/// with a handle to the data half. Its methods run under the policy
/// lock and take the data lock themselves, briefly: a read to look a
/// key up, a write for each step that changes data.
pub(crate) struct Shard {
    /// The allocation policy, whose queues link the nodes of the
    /// shard's slots: the nodes live in its store.
    policy: Pama<Slots>,
    /// The shard's data lock, shared with the cell and the store.
    data: Arc<RwLock<Data>>,
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
    /// Operation counts, read with the slab report under the policy
    /// lock.
    counters: ShardCounters,
    /// Reused drain buffer for the access log, so a drain does not
    /// allocate.
    hit_buf: Vec<HitRecord>,
}

/// A registry whose bands mirror the config's penalty-band split, so
/// `band_of` indices line up, with a stripe for each shard and for each
/// thread stripe ([`parking_lot::stripes`]), whichever are more: the
/// policy's counts go to its shard's stripe, a GET hit's to its thread's.
pub(crate) fn registry_for(cfg: &CacheConfig, shards: usize) -> Arc<MetricsRegistry> {
    let bounds = cfg.penalty_bands.iter().map(|d| d.as_micros()).collect();
    Arc::new(MetricsRegistry::new(bounds, shards.max(parking_lot::stripes())))
}

impl Shard {
    /// A shard that records into stripe `stripe` of `metrics`. The
    /// index starts empty and grows with the keys actually resident.
    pub fn new(
        mut cfg: CacheConfig,
        pama: PamaConfig,
        metrics: Arc<MetricsRegistry>,
        stripe: usize,
    ) -> Self {
        // The shard drives inserts explicitly through `set`; the
        // policy must never phantom-fill on its own.
        cfg.demand_fill = false;
        let data = Arc::new(RwLock::new(Data::new(&cfg, Arc::clone(&metrics))));
        let slots = Slots::new(&cfg, Arc::clone(&data), metrics, stripe);
        Self {
            policy: Pama::with_store(cfg.clone(), pama, slots),
            data,
            windows: vec![CLOSED; WINDOW_SLOTS].into_boxed_slice(),
            cfg,
            serial: 0,
            backend: None,
            counters: ShardCounters::default(),
            hit_buf: Vec::new(),
        }
    }

    pub fn with_backend(mut self, backend: BackendSim) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The policy's store: the slots' nodes.
    #[inline]
    fn slots(&self) -> &Slots {
        self.policy.base_cache().store()
    }

    fn tick(&mut self, now: SimTime) -> Tick {
        self.serial += 1;
        Tick { now, serial: self.serial }
    }

    /// What `h` holds for `key` at `now`, read under a brief data read
    /// lock that is released before this returns.
    fn entry_state(&self, h: u64, key: &[u8], now: SimTime) -> EntryState {
        self.data.read().entry_state(h, key, now)
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

    /// Removes `h`'s item, which must exist, from the policy and the
    /// store with a DELETE request by its handle.
    fn drop_entry(&mut self, h: u64) {
        let slot = self.data.read().index.get(&h).copied();
        let node = slot.map(|slot| self.slots().node(slot));
        let removed = self.policy.on_delete_at(h, node);
        debug_assert!(removed, "entry {h:#x} had no policy item");
    }

    /// Drops an item whose TTL lapsed, counting it as expired.
    fn drop_expired(&mut self, h: u64) {
        self.drop_entry(h);
        self.counters.expired += 1;
    }

    /// Drops the item if it is still the same key and expired (the
    /// state may have changed between a read-lock check and the policy
    /// lock this runs under).
    fn expire_if_dead(&mut self, h: u64, key: &[u8], now: SimTime) {
        if let EntryState::Expired = self.entry_state(h, key, now) {
            self.drop_expired(h);
        }
    }

    /// The GET under the policy lock, run after a read-lock miss. A hit
    /// here means the key was written between the two looks; it
    /// promotes inline through the policy. A miss (or collision or
    /// expiry) opens a miss window / drives the backend.
    pub fn get_locked(&mut self, h: u64, key: &[u8], now: SimTime) -> Option<CacheValue> {
        let tick = self.tick(now);
        let found = {
            let data = self.data.read();
            data.lookup(h).map(|(slot, rec, k, v)| {
                let live = k == key && !expired(rec, || now);
                let hit = live.then(|| {
                    let value = Bytes::copy_from_slice(v);
                    (CacheValue { value, flags: rec.flags, cas: rec.cas() }, rec.band)
                });
                (slot, k == key, hit)
            })
        };
        let stale = match found {
            Some((slot, _, Some((hit, band)))) => {
                // Keep the policy's recency bookkeeping in step, by the
                // item's handle.
                let current = self.policy.on_hit(h, self.slots().node(slot), tick);
                debug_assert!(current, "policy lost a stored key");
                self.slots().band(usize::from(band)).hits.inc();
                return Some(hit);
            }
            // Expired, or a hash collision with a different key: a miss,
            // whose one policy request also removes the stale item. Only
            // the former is a TTL lapse.
            Some((slot, same_key, None)) => {
                self.counters.expired += u64::from(same_key);
                Some(self.slots().node(slot))
            }
            None => None,
        };
        self.miss(h, now, stale);
        None
    }

    /// A GET miss of `h`; `stale` is the handle of the item found under
    /// `h` that cannot serve it, if any.
    fn miss(&mut self, h: u64, now: SimTime, stale: Option<NodeRef>) {
        // Tell the policy about the miss: nothing is inserted, but the
        // access advances the value window and — crucially for slab
        // rebalance — a ghosted key credits its subclass's *incoming
        // value*. Without this signal a physical store would never
        // accumulate the evidence that triggers the paper's cross-class
        // migrations. The index has just reported the key absent, so
        // the policy skips its own index probe. A credited ghost hands
        // back the penalty the key was evicted with.
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
            window.miss_at = SimTime(NEVER);
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
        let cells = self.slots().band(self.cfg.band_of(penalty));
        cells.misses.inc();
        cells.penalty_cost_us.add(penalty.as_micros());
    }

    /// Stores `key` under `h` with one SET request to the policy. An
    /// item already under `h` — live, lapsed (counted as an expiry) or
    /// a colliding key — is the resident item to the policy, which
    /// replaces it: in place, in the same slot, when the class and band
    /// hold. A refused SET leaves `h` absent, except that a key longer
    /// than a record can describe ([`MAX_KEY_LEN`]) is refused before
    /// anything changes. `opts.ttl` is final: the caller has applied the
    /// default.
    pub fn set(
        &mut self,
        h: u64,
        key: &[u8],
        value: &[u8],
        opts: &SetOptions,
        now: SimTime,
    ) -> Result<(), CacheError> {
        self.counters.sets += 1;
        if key.len() > MAX_KEY_LEN {
            self.counters.rejected += 1;
            return Err(CacheError::KeyTooLong {
                key_bytes: key.len(),
                max_bytes: MAX_KEY_LEN,
            });
        }
        let tick = self.tick(now);
        let found = {
            let data = self.data.read();
            data.lookup(h).map(|(slot, rec, k, _)| (slot, k == key && expired(rec, || now)))
        };
        let (resident, old) = match found {
            Some((slot, lapsed)) => {
                self.counters.expired += u64::from(lapsed);
                let node = self.slots().nodes.get(slot).expect("an indexed slot has a node");
                let penalty = SimDuration::from_micros(u64::from(node.penalty_us));
                (Some(self.slots().node(slot)), Some(penalty))
            }
            None => (None, None),
        };
        let penalty = self.penalty_for(h, opts.penalty, old, now);
        let req =
            Request::set(now, h, key.len() as u32, value.len() as u32).with_penalty(penalty);
        // The policy's storage decisions (evictions, slab grants, slab
        // migrations) reach the store as it makes them, so they are done
        // before the new item is written: an eviction or transfer is
        // exactly what frees the slot the item lands in. The bytes go to
        // the slot the policy filed the item in, so the arena and the
        // ledger can never disagree on it.
        let Some(node) = self.policy.on_set_at(&req, tick, resident) else {
            return Err(self.refuse(key.len() + value.len()));
        };
        let slot = self.slots().slot(node);
        let band = self.slots().nodes.get(slot).expect("the policy filed the item here").band;
        let mut data = self.data.write();
        let rec = data.store(h, slot, key, value);
        rec.band = band;
        rec.set_expires(expiry(now, opts.ttl));
        rec.flags = opts.flags;
        rec.set_cas(self.serial);
        Ok(())
    }

    /// Counts a refused SET of `item_bytes` key and value bytes, and
    /// says why: no slab class can hold the item (the same byte rule as
    /// `CacheConfig::class_of` returning `None`), so eviction can never
    /// help, or there was no room this time. The policy has already
    /// removed any item under the hash.
    fn refuse(&mut self, item_bytes: usize) -> CacheError {
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
    /// `Ok(false)` — the protocol's `NOT_STORED` — when a live item
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

    /// Memcached `touch`: refreshes a live item's TTL (`None` clears
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
                let slot = {
                    let mut data = self.data.write();
                    let slot = data.index[&h];
                    let rec = data.arena.record_mut(slot).expect("a live item");
                    rec.set_expires(expiry(now, ttl));
                    slot
                };
                let current = self.policy.on_hit(h, self.slots().node(slot), tick);
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

    /// Memcached `flush_all`: drops every item, returning how many.
    /// The flushed items' penalties leave with them (a removed item
    /// leaves no ghost); open miss windows survive, so a refill after
    /// the flush still measures its gap.
    pub fn clear(&mut self) -> u64 {
        let keys: Vec<u64> = self.data.read().index.keys().copied().collect();
        let n = keys.len() as u64;
        for h in keys {
            self.drop_entry(h);
        }
        n
    }

    /// Detailed slab-arena accounting for diagnostics and benchmarks.
    /// Walks the record arrays under the data read lock; meant to be
    /// called at reporting cadence, not per operation.
    pub fn slab_report(&self) -> SlabReport {
        let data = self.data.read();
        let arena = &data.arena;
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

    /// Memcached `delete`: removes a live item and returns `true`. A
    /// lapsed item is already gone to every reader: it is dropped as
    /// an expiry, and the answer is `false` (`NOT_FOUND`), as for an
    /// absent key. Either way the policy gets one DELETE request, which
    /// also forgets an absent key's ghost; a colliding key's item is
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
        let lapsed: Vec<u64> = {
            let data = self.data.read();
            data.index
                .iter()
                .filter(|&(_, &slot)| {
                    data.arena.record(slot).is_some_and(|r| expired(r, || now))
                })
                .map(|(&h, _)| h)
                .collect()
        };
        for &h in &lapsed {
            self.drop_expired(h);
        }
        lapsed.len()
    }

    /// Applies a batch of deferred hit records, oldest first, through
    /// each record's slot. Each record counts as one access (serial and
    /// PAMA value-window cadence match the inline design); a record
    /// whose slot no longer holds its key is skipped by the policy.
    ///
    /// The batch runs under the policy lock, which the shard's writers
    /// wait on, and touches only policy nodes, so readers never wait on
    /// it. Each promotion reads and relinks nodes scattered over the
    /// store, so the loop is pipelined: before it applies hit *i* it
    /// prefetches the node of hit *i* + [`RECORD_AHEAD`] and, that node
    /// being loaded by now, the queue neighbours' nodes of hit *i* +
    /// [`NEIGHBOURS_AHEAD`]. A prefetch is only a hint, so the policy
    /// ends in the same state as applying the records one at a time.
    pub fn apply_deferred(&mut self, hits: &[HitRecord], now: SimTime) {
        self.serial += hits.len() as u64;
        let tick = Tick { now, serial: self.serial };
        for (i, &(h, slot)) in hits.iter().enumerate() {
            let nodes = &self.slots().nodes;
            if let Some(&(_, ahead)) = hits.get(i + RECORD_AHEAD) {
                nodes.prefetch(ahead);
            }
            if let Some(&(_, ahead)) = hits.get(i + NEIGHBOURS_AHEAD) {
                nodes.prefetch_neighbours(ahead);
            }
            let node = self.slots().node(slot);
            self.policy.on_hit(h, node, tick);
        }
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

    /// Cross-checks the nodes against the queues, the data records, the
    /// index and the policy's ledger. Every queue must walk the same
    /// nodes forwards and backwards; every live slot must have a live
    /// node and a live record, and be reached exactly once, by the
    /// queue of its slab's class and its node's band, which its record
    /// must carry too; the index must map each node's hash to its slot
    /// and hold nothing else. The policy's counts, the arena's own full
    /// recount (records match their slabs, aggregates match), the slab
    /// ledger's (free lists cover exactly the free nodes), each slab's
    /// class in both halves, and the per-class slab counts of the slab
    /// ledger and the policy's must agree too.
    pub fn check_consistency(&self) -> Result<(), String> {
        let cache = self.policy.base_cache();
        cache.check_invariants()?;
        let slots = cache.store();
        let data = self.data.read();
        let arena = &data.arena;
        arena.check()?;
        slots.nodes.check()?;
        for slab in 0..arena.stats().slabs as u32 {
            let r = SlotRef { slab, slot: 0 };
            let class = arena.slab_class(r).expect("a carved slab");
            if slots.nodes.slab_class(r) != Some(class)
                || slots.nodes.slots_in_slab(r) != arena.slots_per_slab(class)
            {
                return Err(format!("slab {slab}'s nodes are not carved for class {class}"));
            }
            for slot in 0..arena.slots_per_slab(class) as u32 {
                let r = SlotRef { slab, slot };
                if slots.nodes.get(r).is_some() != arena.record(r).is_some() {
                    return Err(format!("slot {r:?} has a live node xor a live record"));
                }
            }
        }
        let mut reached = 0usize;
        for class in 0..cache.num_classes() {
            let mut in_queue = std::collections::HashMap::new();
            for band in 0..cache.bands() {
                let queue = &cache.class(class).queues[band];
                queue.check_invariants(slots)?;
                for node in queue.iter(slots) {
                    if in_queue.insert(node, band).is_some() {
                        return Err(format!("node {node:?} linked twice"));
                    }
                }
            }
            for slot in arena.live_slots(class) {
                let node = slots.nodes.get(slot).expect("checked live above");
                let rec = arena.record(slot).expect("a live slot");
                match in_queue.remove(&slots.node(slot)) {
                    None => {
                        return Err(format!(
                            "live slot {slot:?} is in no queue of class {class}"
                        ))
                    }
                    Some(band) if band != usize::from(node.band) => {
                        return Err(format!(
                            "slot {slot:?} with band {} is linked into band {band}'s queue",
                            node.band
                        ))
                    }
                    Some(_) if rec.band != node.band => {
                        return Err(format!(
                            "slot {slot:?}: record band {} but node band {}",
                            rec.band, node.band
                        ))
                    }
                    Some(_) => {}
                }
                if data.index.get(&node.hash) != Some(&slot) {
                    return Err(format!(
                        "slot {slot:?} holds hash {:#x}, which the index maps to {:?}",
                        node.hash,
                        data.index.get(&node.hash)
                    ));
                }
                reached += 1;
            }
            if let Some((node, band)) = in_queue.into_iter().next() {
                return Err(format!(
                    "class {class} band {band} links {node:?}, not a live slot"
                ));
            }
        }
        if reached != data.index.len() || reached != cache.len() {
            return Err(format!(
                "{reached} live slots, {} index entries, {} policy items",
                data.index.len(),
                cache.len()
            ));
        }
        for class in 0..arena.num_classes() {
            let physical = slots.nodes.class_slabs(class);
            let ledger = cache.class(class).slabs;
            if physical != ledger {
                return Err(format!(
                    "class {class}: {physical} physical slabs vs {ledger} in the ledger"
                ));
            }
        }
        Ok(())
    }
}

/// A shard's two locks and its deferred-hit log — the unit `PamaCache`
/// holds one of per shard. Policy-lock work is done on the [`Shard`]
/// that [`ShardCell::lock`] hands out; the cell's own methods are the
/// ones that read under the data lock or need the log.
pub(crate) struct ShardCell {
    policy: Mutex<Shard>,
    data: Arc<RwLock<Data>>,
    log: AccessLog,
    /// The shard's registry, reachable without a lock for latency
    /// timing and read-lock waits, and the shard's stripe of it, which
    /// times misses (hits and waits go to the thread's stripe).
    metrics: Arc<MetricsRegistry>,
    stripe: usize,
}

impl ShardCell {
    pub fn new(shard: Shard) -> Self {
        Self {
            data: Arc::clone(&shard.data),
            metrics: Arc::clone(&shard.slots().metrics),
            stripe: shard.slots().stripe,
            policy: Mutex::new(shard),
            log: AccessLog::new(ACCESS_LOG_CAPACITY),
        }
    }

    /// Takes the policy lock and drains the access log into the shard
    /// before handing it out. Every path but a read-lock hit goes
    /// through here, so each thread's deferred promotions are always
    /// applied in the order it recorded them, ahead of the request that
    /// follows.
    pub fn lock(&self, now: SimTime) -> MutexGuard<'_, Shard> {
        let mut shard = self.policy.lock();
        shard.drain_log(&self.log, now);
        shard
    }

    /// The data read lock, counting a wait in the thread's stripe when a
    /// writer holds it or waits for it.
    #[inline]
    fn read(&self) -> RwLockReadGuard<'_, Data> {
        self.data.try_read().unwrap_or_else(|| {
            self.metrics.read_lock_waits(parking_lot::thread_stripe()).inc();
            self.data.read()
        })
    }

    /// Single-key GET: a hit is handed to `f`, whose result is
    /// returned. `clock` is read only when needed: on a hit to an entry
    /// with a TTL, and once before taking the policy lock on a miss. A
    /// read-lock hit runs `f` under the data read lock on the arena's
    /// bytes; the rare hit found under the policy lock runs it on a
    /// copy.
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
                Some(_) => self.metrics.hit_latency_us(parking_lot::thread_stripe()).record(us),
                None => self.metrics.miss_latency_us(self.stripe).record(us),
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
            let data = self.read();
            if let Some((value, slot)) = data.read_hit_ref(h, key, &clock) {
                self.log.record((h, slot));
                return Some(f(value));
            }
        }
        // Miss / collision / expiry: full path under the policy lock.
        let now = clock();
        let hit = self.lock(now).get_locked(h, key, now);
        hit.map(|v| f(v.as_ref()))
    }

    pub fn contains(&self, h: u64, key: &[u8], now: SimTime) -> bool {
        let state = self.data.read().entry_state(h, key, now);
        match state {
            EntryState::Live => true,
            EntryState::Absent => false,
            EntryState::Expired => {
                self.lock(now).expire_if_dead(h, key, now);
                false
            }
        }
    }

    /// Batched GET for keys mapping to this shard: one read-lock pass
    /// serves every hit; a single policy-lock pass (if needed) handles
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
            let data = self.data.read();
            for &(i, h) in group {
                match data.read_hit(h, keys[i], || now) {
                    Some((value, slot)) => {
                        self.log.record((h, slot));
                        out[i] = Some(value);
                    }
                    None => misses.push((i, h)),
                }
            }
        }
        if !misses.is_empty() {
            let mut shard = self.lock(now);
            for (i, h) in misses {
                out[i] = shard.get_locked(h, keys[i], now);
            }
        }
    }

    /// The shard's operation counters and slab ledger, read together
    /// under the policy lock (and, for the ledger, the data read lock),
    /// without a drain; `deferred_dropped` comes from the lock-free log.
    pub fn report(&self) -> (crate::stats::CacheStats, SlabReport) {
        let shard = self.policy.lock();
        let mut stats = shard.counters.snapshot();
        stats.deferred_dropped = self.log.dropped();
        (stats, shard.slab_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pama_core::cache::ItemStore;
    use pama_core::lru::Links;
    use pama_core::policy::Policy;

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

    /// The policy's metadata for `h`, reached through its slot's
    /// handle (the policy has no key index to ask).
    fn meta(s: &Shard, h: u64) -> Option<pama_core::cache::ItemMeta> {
        let slot = *s.data.read().index.get(&h)?;
        s.policy.base_cache().meta_at(s.slots().node(slot), h)
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
            (s.counters.snapshot().expired, s.slots().metrics.snapshot().total_misses()),
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
        assert!(s.data.read().read_hit(7, b"first", || t(5)).is_none());
        assert_eq!(s.counters.snapshot().expired, 0, "a collision drop is not an expiry");
    }

    #[test]
    fn index_grows_with_residency_not_geometry() {
        // 1 GiB holds up to 2^24 minimum-size items; the index must not
        // reserve for that before a single key arrives.
        let cfg =
            CacheConfig { total_bytes: 1 << 30, slab_bytes: 1 << 20, ..CacheConfig::default() };
        let mut s = Shard::new(cfg.clone(), PamaConfig::default(), registry_for(&cfg, 1), 0);
        assert!(
            s.data.read().index.capacity() < 64,
            "empty shard reserved {}",
            s.data.read().index.capacity()
        );
        // The miss-window table is the same fixed size for any geometry.
        assert_eq!(s.windows.len(), WINDOW_SLOTS);
        assert!(std::mem::size_of_val(&*s.windows) <= 64 << 10);
        const N: u64 = 1_000;
        for i in 0..N {
            s.set(i, format!("k{i}").as_bytes(), b"v", &SetOptions::default(), t(i)).unwrap();
        }
        assert_eq!(s.data.read().index.len(), N as usize);
        assert!(
            s.data.read().index.capacity() < 4 * N as usize,
            "capacity {}",
            s.data.read().index.capacity()
        );
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
        assert!(s.data.read().read_hit(1, b"plain", || clock(5)).is_some());
        assert_eq!(reads.get(), 0, "an entry without a TTL needs no clock");
        assert!(s.data.read().read_hit(2, b"ttl", || clock(5)).is_some());
        assert!(
            s.data.read().read_hit(2, b"ttl", || clock(10)).is_none(),
            "lapsed at exactly its expiry"
        );
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
        assert!(s.data.read().read_hit(3, b"far", || t(u64::MAX / 2_000)).is_some());
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
        assert!(s.slots().metrics.snapshot().total_evictions() > 0);
        // store, arena and policy agree exactly
        assert_eq!(items as usize, s.policy.base_cache().len());
        assert_eq!(items as usize, s.data.read().index.len());
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
            let (_, slot) = deferred
                .data
                .read()
                .read_hit(i, format!("k{i}").as_bytes(), || t(100 + i))
                .unwrap();
            hits.push((i, slot));
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
        // A hit recorded, then its item evicted and the item's slot
        // reused by another key before the drain — as when a reader logs
        // the hit after a writer has drained under the policy lock and
        // before that writer evicts the item. The drain must skip the
        // record, not promote whichever item now owns the slot.
        let mut s = shard();
        let v = vec![0u8; 30_000];
        let key = |i: u64| format!("key{i}").into_bytes();
        s.set(0, &key(0), &v, &SetOptions::default(), t(0)).unwrap();
        let (_, slot) = s.data.read().read_hit(0, &key(0), || t(1)).unwrap();
        let m = meta(&s, 0).unwrap();
        // Fill the class until key 0, the LRU item, is evicted; the SET
        // that evicts it takes its slot.
        let mut i = 1;
        while s.data.read().index.contains_key(&0) {
            s.set(i, &key(i), &v, &SetOptions::default(), t(1 + i)).unwrap();
            i += 1;
        }
        let queue = |s: &Shard| -> Vec<u64> {
            s.policy
                .base_cache()
                .items(m.class as usize, m.band as usize)
                .map(|m| m.key)
                .collect()
        };
        let owner = s.slots().nodes.get(slot).map(|n| n.hash);
        assert!(owner.is_some_and(|k| k != 0), "slot not reused: {owner:?}");
        // Promote another item, so that promoting the node's new owner
        // would show in the order.
        assert!(s.get_locked(1, &key(1), t(400)).is_some());
        let before = queue(&s);
        assert_ne!(Some(before[0]), owner);
        let serial = s.serial;
        s.apply_deferred(&[(0, slot)], t(500));
        let after = queue(&s);
        assert_eq!(before, after, "a stale record moved an item");
        assert_eq!(s.serial, serial + 1, "the access still counts");
        assert_eq!(s.counters.snapshot().deferred_hits, 1);
        s.check_consistency().unwrap();
    }

    #[test]
    fn per_resident_policy_state_is_bounded() {
        // Ten times the shard's capacity in distinct keys, each missed
        // and then SET: the policy files no `hash → node` entry (the
        // store's index holds the slots), and its one ghost index stays
        // within the ghost lists' caps.
        let mut s = shard();
        let v = [0u8; 100];
        let mut i = 0u64;
        let mut capacity = 0;
        while i < 10 * capacity.max(1_000) as u64 {
            let key = format!("churn{i}");
            assert!(s.get_locked(i, key.as_bytes(), t(i)).is_none());
            s.set(i, key.as_bytes(), &v, &SetOptions::default(), t(i)).unwrap();
            capacity = capacity.max(s.data.read().index.len());
            i += 1;
        }
        assert!((s.data.read().index.len() as u64) < i / 5, "the stream never evicted");
        assert!(!s.policy.base_cache().is_indexed(), "the policy keeps a key index");
        assert_eq!(s.policy.base_cache().len(), s.data.read().index.len());
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
        while s.data.read().index.contains_key(&h) {
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
        let before = s.slots().metrics.snapshot().bands[band].clone();
        assert!(s.get_locked(0, b"key0", t(1_000)).is_none());
        let after = s.slots().metrics.snapshot();
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
        let before = s.slots().metrics.snapshot();
        assert!(s.get_locked(0, b"key0", t(1_001)).is_none());
        let after = s.slots().metrics.snapshot();
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
            capacity = capacity.max(s.data.read().index.len());
            i += 1;
        }
        assert_eq!(s.counters.snapshot().measured_penalties, i);
        let per_key = s.data.read().index.capacity() + s.policy.ghost_len();
        let bound = 2 * (s.data.read().index.len() + s.policy.ghost_capacity());
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
        assert_eq!((st.deletes, st.expired, s.data.read().index.len()), (0, 1, 0));
        assert!(!s.delete(1, b"gone", t(21)), "the key stays absent");
        // A live key is deleted and counted as a delete.
        s.set(2, b"live", b"v", &ttl, t(30)).unwrap();
        assert!(s.delete(2, b"live", t(31)));
        assert_eq!((s.counters.snapshot().deletes, s.counters.snapshot().expired), (1, 1));
        // ADD over a lapsed generation stores, and counts the lapse.
        s.set(3, b"again", b"old", &ttl, t(40)).unwrap();
        assert!(s.add(3, b"again", b"new", &SetOptions::default(), t(60)).unwrap());
        assert_eq!(s.counters.snapshot().expired, 2);
        assert_eq!(
            s.data.read().read_hit(3, b"again", || t(61)).unwrap().0.value.as_ref(),
            b"new"
        );
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
        assert_eq!((s.data.read().index.len(), s.policy.base_cache().len()), (0, 0));
        assert_eq!(s.counters.expired, 1);
        assert_eq!(s.slots().metrics.snapshot().total_misses(), 2);
        s.check_consistency().unwrap();
    }

    #[test]
    fn hits_from_several_threads_all_reach_one_drain() {
        let cell = ShardCell::new(shard());
        let now = t(1);
        cell.lock(now).set(1, b"k", b"value", &SetOptions::default(), now).unwrap();
        // Threads on distinct stripes, each logging more than half a
        // ring: one ring shared by all of them would drop hits. With a
        // single stripe, two threads share its ring and log half each.
        let stripes = parking_lot::stripes();
        let recorders = stripes.max(2);
        let per_thread =
            if stripes > 1 { 3 * ACCESS_LOG_CAPACITY / 4 } else { ACCESS_LOG_CAPACITY / 2 };
        let claimed = Mutex::new(vec![false; stripes]);
        let mut recorded = 0;
        for _ in 0..64 * recorders {
            if recorded == recorders {
                break;
            }
            let logged = std::thread::scope(|s| {
                s.spawn(|| {
                    let stripe = parking_lot::thread_stripe();
                    let mut claimed = claimed.lock();
                    if stripes > 1 && std::mem::replace(&mut claimed[stripe], true) {
                        return false;
                    }
                    drop(claimed);
                    for _ in 0..per_thread {
                        assert!(cell.get(1, b"k", || now, |v| v.value.len()).is_some());
                    }
                    true
                })
                .join()
                .expect("recorder")
            });
            recorded += usize::from(logged);
        }
        assert_eq!(recorded, recorders, "no thread landed on some stripe");
        let hits = (recorders * per_thread) as u64;
        assert_eq!(cell.metrics.snapshot().total_hits(), hits);
        drop(cell.lock(now));
        let (stats, _) = cell.report();
        assert_eq!((stats.deferred_hits, stats.deferred_dropped), (hits, 0));
    }

    #[test]
    fn the_registry_sums_thread_stripes_beyond_the_shard_count() {
        // One shard, yet a stripe of cells for every thread stripe.
        let reg = registry_for(&shard().cfg, 1);
        let stripes = parking_lot::stripes();
        let cells: Vec<*const _> = (0..stripes).map(|s| reg.band(s, 0) as *const _).collect();
        assert!(
            cells.iter().enumerate().all(|(i, c)| !cells[..i].contains(c)),
            "two thread stripes share band cells"
        );
        for stripe in 0..stripes {
            reg.band(stripe, 0).hits.add(stripe as u64 + 1);
            reg.hit_latency_us(stripe).record(10);
            reg.read_lock_waits(stripe).inc();
        }
        let snap = reg.snapshot();
        let n = stripes as u64;
        assert_eq!(snap.total_hits(), n * (n + 1) / 2);
        assert_eq!((snap.hit_latency.total, snap.read_lock_waits), (n, n));
    }

    #[test]
    fn visitor_get_sees_the_stored_hit_and_defers_it_once() {
        let cell = ShardCell::new(shard());
        let now = t(1);
        cell.lock(now).set(1, b"k", b"value", &SetOptions::new().flags(0xBEEF), now).unwrap();
        cell.lock(now)
            .set(2, b"ttl", b"v", &SetOptions::new().ttl(SimDuration::from_millis(10)), now)
            .unwrap();
        let hits = || cell.metrics.snapshot().total_hits();
        let deferred = || cell.report().0.deferred_hits;

        let seen = cell.get(1, b"k", || now, |v| (v.value.to_vec(), v.flags, v.cas)).unwrap();
        assert_eq!((hits(), deferred()), (1, 0), "one band hit, promotion still pending");
        assert!(!cell.log.is_empty(), "the hit was not logged for deferred promotion");
        drop(cell.lock(now));
        assert_eq!(deferred(), 1, "the policy-lock drain applies the logged hit");
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

    #[test]
    fn a_set_that_keeps_class_and_band_rewrites_its_own_slot() {
        let mut s = shard();
        let slot = |s: &Shard| s.data.read().index[&1];
        s.set(1, b"k", &[1u8; 100], &SetOptions::new().flags(7), t(0)).unwrap();
        let first = slot(&s);
        let slots_used = s.slab_report().live_items;
        // 100 and 110 bytes share a slot class, and the penalty keeps its
        // band: the same slot takes the new bytes, flags and CAS stamp.
        s.set(1, b"k", &[2u8; 110], &SetOptions::new().flags(9), t(1)).unwrap();
        assert_eq!(slot(&s), first, "an in-place SET moved");
        let (v, _) = s.data.read().read_hit(1, b"k", || t(2)).unwrap();
        assert_eq!((v.value.as_ref(), v.flags, v.cas), (&[2u8; 110][..], 9, s.serial));
        assert_eq!(s.slab_report().live_items, slots_used);
        assert_eq!(s.slab_report().requested_bytes, 111);
        // A value of another class takes another slot.
        s.set(1, b"k", &[3u8; 3_000], &SetOptions::default(), t(3)).unwrap();
        assert_ne!(slot(&s), first);
        assert_eq!(s.slab_report().live_items, slots_used);
        s.check_consistency().unwrap();
    }

    #[test]
    fn a_key_longer_than_a_record_describes_is_refused_untouched() {
        let mut s = shard();
        s.set(5, b"short", b"v", &SetOptions::default(), t(0)).unwrap();
        let long = vec![b'k'; MAX_KEY_LEN + 1];
        let err = s.set(5, &long, b"v", &SetOptions::default(), t(1)).unwrap_err();
        assert_eq!(
            err,
            CacheError::KeyTooLong { key_bytes: MAX_KEY_LEN + 1, max_bytes: MAX_KEY_LEN }
        );
        // Nothing changed: the colliding item stays, and the policy saw
        // no request.
        assert!(s.data.read().read_hit(5, b"short", || t(2)).is_some());
        assert_eq!((s.counters.rejected, s.policy.rebuilds(), s.serial), (1, 0, 1));
        s.check_consistency().unwrap();
    }

    /// Every queue of `cache`, class by class and band by band, as its
    /// keys front to back, each with its node's segment tag.
    fn queues_with_tags<S: ItemStore>(
        cache: &pama_core::cache::BaseCache<S>,
    ) -> Vec<Vec<(u64, u8)>> {
        let store = cache.store();
        (0..cache.num_classes())
            .flat_map(|c| (0..cache.bands()).map(move |b| &cache.class(c).queues[b]))
            .map(|q| {
                let item = |n: NodeRef| store.item(n).expect("a linked node is live").key;
                q.iter(store).map(|n| (item(n), store.tag(n.index()))).collect()
            })
            .collect()
    }

    #[test]
    fn a_prefetched_drain_leaves_the_queues_as_one_at_a_time() {
        // Two shards take the same requests. Then one applies a long
        // batch of recorded hits in one drain, whose prefetches run
        // ahead of the hit being applied, and the other applies the same
        // records one at a time. The batch repeats hits, and between the
        // recording and the drain some recorded items are deleted and
        // slabs migrate, so some records name a freed slot, one whose
        // item compaction moved away, or one past the end of a re-carved
        // slab.
        let cfg = CacheConfig {
            total_bytes: 1 << 20,
            slab_bytes: 64 << 10,
            ..CacheConfig::default()
        };
        let pama =
            PamaConfig { value_window: 97, migration_cooldown: 16, ..PamaConfig::default() };
        let new = || Shard::new(cfg.clone(), pama.clone(), registry_for(&cfg, 1), 0);
        let mut shards = [new(), new()];
        let key = |i: u64| format!("d:{i:05}").into_bytes();
        let small = SetOptions::new().penalty(SimDuration::from_millis(40));
        let large = SetOptions::new().penalty(SimDuration::from_millis(700));
        for s in &mut shards {
            for i in 0..1_500 {
                s.set(i, &key(i), &[1u8; 400], &small, t(i)).unwrap();
            }
        }
        let mut hits = Vec::new();
        for j in 0..1_200u64 {
            let id = if j % 3 == 0 { j % 40 + 1_100 } else { (j * 37) % 1_500 };
            let found =
                shards.each_ref().map(|s| s.data.read().read_hit(id, &key(id), || t(2_000)));
            if let [Some((_, a)), Some((_, b))] = found {
                assert_eq!(a, b, "the shards diverged");
                hits.push((id, a));
            }
        }
        let (mut moved_away, mut transfers) = (std::collections::HashSet::new(), 0);
        for (step, s) in shards.iter_mut().enumerate() {
            for &(id, _) in hits.iter().step_by(11) {
                s.delete(id, &key(id), t(3_000));
            }
            // Expensive large items, missed then stored, draw slabs away
            // from the small class.
            for i in 0..3_000u64 {
                let id = 10_000 + i % 150;
                let now = t(4_000 + i);
                if s.get_locked(id, &key(id), now).is_none() {
                    s.set(id, &key(id), &[2u8; 1_800], &large, now).unwrap();
                }
                let now_transfers = s.data.read().arena.stats().transfers;
                if step == 0 && now_transfers > transfers {
                    transfers = now_transfers;
                    moved_away.extend(s.policy.base_cache().relocated().iter().map(|m| m.0));
                }
            }
        }
        assert!(hits.len() > 50 * RECORD_AHEAD, "{} records", hits.len());
        let distinct: std::collections::HashSet<_> = hits.iter().map(|h| h.0).collect();
        assert!(distinct.len() < hits.len(), "no hit repeats");
        let slots = shards[0].slots();
        let data = shards[0].data.read();
        let arena = &data.arena;
        let freed = hits.iter().filter(|&&(_, r)| arena.record(r).is_none()).count();
        let moved = hits.iter().filter(|&&(_, r)| moved_away.contains(&slots.node(r))).count();
        let past_end = hits
            .iter()
            .filter(|&&(_, r)| {
                arena.slab_class(r).is_some_and(|c| r.slot as usize >= arena.slots_per_slab(c))
            })
            .count();
        let live = hits.len() - freed;
        assert!(transfers > 0, "no slab moved");
        for (what, n) in
            [("freed", freed), ("moved", moved), ("past_end", past_end), ("live", live)]
        {
            assert!(n > 0, "no record names a {what} slot");
        }
        drop(data);

        let [mut batched, mut single] = shards;
        let before = queues_with_tags(batched.policy.base_cache());
        batched.apply_deferred(&hits, t(8_000));
        for hit in &hits {
            single.apply_deferred(std::slice::from_ref(hit), t(8_000));
        }
        let after = queues_with_tags(batched.policy.base_cache());
        assert_ne!(before, after, "the drain promoted nothing");
        assert_eq!(after, queues_with_tags(single.policy.base_cache()));
        assert_eq!(batched.serial, single.serial);
        batched.check_consistency().unwrap();
        single.check_consistency().unwrap();
    }

    #[test]
    fn compaction_relinks_records_like_the_simulator() {
        // One seeded stream into a shard and, request for request, into
        // an `Engine<Pama>` on the same geometry. Its popular keys move
        // from a small size class to a large one, so slabs migrate, and
        // deletes leave holes, so each migration's compaction moves the
        // donor slab's survivors. Right after each migration the stream
        // rewrites every moved item in place, which keeps its segment
        // tag until the next rebuild clears it. After every request,
        // every queue must hold the same keys in the same order with the
        // same tags on both sides: a moved record whose neighbours still
        // point at its old slot breaks the order, and a tracker handle
        // left at the old slot leaves a stale tag after the rebuild.
        use pama_core::{Engine, EngineConfig};
        use pama_util::{Rng, Xoshiro256StarStar};
        let cfg = CacheConfig {
            total_bytes: 1 << 20,
            slab_bytes: 64 << 10,
            demand_fill: false,
            ..CacheConfig::default()
        };
        let pama =
            PamaConfig { value_window: 199, migration_cooldown: 16, ..PamaConfig::default() };
        let mut s = Shard::new(cfg.clone(), pama.clone(), registry_for(&cfg, 1), 0);
        let mut sim = Engine::new(Pama::with_config(cfg, pama), EngineConfig::default());
        let mut rng = Xoshiro256StarStar::from_seed(18);
        const KEYS: u64 = 2_000;
        const OPS: u64 = 24_000;
        let (mut head, mut tail, mut middle, mut tagged, mut untagged) = (0, 0, 0, 0, 0);
        let (mut transfers, mut rewrites) = (0, std::collections::VecDeque::new());
        for i in 0..OPS {
            let now = t(i);
            // The first half favours keys 0..1000 (small values), the
            // second keys 1000..2000 (large ones).
            let popular = if i < OPS / 2 { 0 } else { KEYS / 2 };
            let rewrite = rewrites.pop_front();
            let id = rewrite.unwrap_or_else(|| {
                if rng.next_f64() < 0.9 {
                    popular + rng.gen_range(KEYS / 2)
                } else {
                    rng.gen_range(KEYS)
                }
            });
            let key = format!("c:{id:05}").into_bytes();
            let len = if id < KEYS / 2 { 400 + id % 90 } else { 1_800 + id % 200 };
            // One band holds every small key, so that its queue outgrows
            // the tracked bottom segments and a rewritten item leaves them.
            let penalty = if id < KEYS / 2 {
                SimDuration::from_millis(40)
            } else {
                SimDuration::from_millis([2, 40, 700][(id % 3) as usize])
            };
            let (klen, vlen) = (key.len() as u32, len as u32);
            let value = vec![7u8; len as usize];
            let opts = SetOptions::new().penalty(penalty);
            let u = if rewrite.is_some() { 0.1 } else { rng.next_f64() };
            if u < 0.08 {
                s.delete(id, &key, now);
                sim.step(&Request::delete(now, id, klen));
            } else if u < 0.2 {
                let _ = s.set(id, &key, &value, &opts, now);
                sim.step(&Request::set(now, id, klen, vlen).with_penalty(penalty));
            } else {
                let hit = s.get_locked(id, &key, now).is_some();
                let get = Request::get(now, id, klen, vlen).with_penalty(penalty);
                sim.step(&get);
                if !hit {
                    let _ = s.set(id, &key, &value, &opts, now);
                    sim.step(&Request::set(now, id, klen, vlen).with_penalty(penalty));
                }
            }
            let cache = s.policy.base_cache();
            let (kv, simulated) =
                (queues_with_tags(cache), queues_with_tags(sim.policy().cache()));
            if let Some(q) = kv.iter().zip(&simulated).position(|(a, b)| a != b) {
                let (class, band) = (q / cache.bands(), q % cache.bands());
                panic!(
                    "request {i}: class {class} band {band} diverged:\n  kv  {:?}\n  sim {:?}",
                    kv[q], simulated[q]
                );
            }
            let now_transfers = s.data.read().arena.stats().transfers;
            if now_transfers > transfers {
                transfers = now_transfers;
                s.check_consistency().unwrap_or_else(|e| panic!("request {i}: {e}"));
                for &(_, new) in cache.relocated() {
                    let m = cache.store().item(new).unwrap();
                    let q = &cache.class(m.class as usize).queues[m.band as usize];
                    match (q.front() == Some(new), q.back() == Some(new)) {
                        (true, _) => head += 1,
                        (_, true) => tail += 1,
                        _ => middle += 1,
                    }
                    if cache.store().tag(new.index()) == 0 {
                        untagged += 1;
                    } else {
                        tagged += 1;
                    }
                    rewrites.push_back(m.key);
                }
            }
        }
        assert_eq!(s.policy.migrations(), sim.policy().migrations());
        assert!(transfers > 0, "the stream never moved a slab");
        for (what, n) in [
            ("head", head),
            ("tail", tail),
            ("middle", middle),
            ("tagged", tagged),
            ("untagged", untagged),
        ] {
            assert!(n > 0, "no compaction moved a {what} record");
        }
        s.check_consistency().unwrap();
    }
}
