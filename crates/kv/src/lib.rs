//! # pama-kv
//!
//! An embeddable, thread-safe, in-memory key-value **cache** whose
//! memory is managed by the paper's PAMA allocator — the "release
//! artifact" a Memcached operator would actually deploy, built on the
//! same `pama-core` policy code the simulator validates.
//!
//! What you get beyond a plain `HashMap`-with-LRU:
//!
//! * **slab-class memory accounting** identical to Memcached's (items
//!   occupy power-of-two slots; capacity is enforced in slabs);
//! * **penalty-aware eviction**: when memory is tight, the allocator
//!   prefers evicting items that are cheap to regenerate, using the
//!   paper's subclass / segment-value machinery;
//! * **live penalty estimation**: the cache measures each key's
//!   GET-miss→SET gap (the paper's §IV estimator, run online) so
//!   callers never need to supply costs — though they can, through
//!   [`SetOptions::penalty`]. A key's penalty lives where the paper
//!   keeps it: in the resident item, and, once evicted, in the bounded
//!   ghost entry that records only keys and penalties. Open miss
//!   windows sit in a fixed-size table per shard, so per-key memory is
//!   bounded by the resident items plus the ghost lists' caps;
//! * **TTL support** with lazy expiry;
//! * **sharding** for concurrency: keys hash to independent shards,
//!   each running its own PAMA instance;
//! * a **read-mostly hot path**: each shard keeps its data (index,
//!   bytes, per-slot data records) behind a reader-striped read lock and
//!   its PAMA policy (queues, slab ledger, per-slot policy nodes) behind
//!   a separate policy lock. A cache-hit GET runs entirely under the
//!   data read lock; LRU promotion and PAMA bookkeeping are recorded in
//!   the shard's lock-free log, one ring per thread stripe, and applied
//!   in batches under the policy lock alone, each straight to the item's slot node, which the
//!   policy's LRU queues link, so GETs keep reading while a batch is
//!   applied (see DESIGN.md, "Concurrency model"). A hit touches only
//!   shard-local memory: one bucket of an index sized by the keys
//!   actually resident (`hash → slot`, 16-byte buckets), one arena read
//!   of the slot's 28-byte data record and bytes for the key check, the
//!   TTL and the value copy, and the clock only when the item has a
//!   TTL. The only lines it writes are its thread stripe's: its slot of
//!   the read lock, its ring in the log and its band hit counter.
//!   [`PamaCache::lookup_with`] hands the hit's bytes, as stored in the
//!   arena, to a caller's visitor instead of copying them out;
//! * **batched operations**: [`PamaCache::multi_get`] /
//!   [`PamaCache::multi_set`] group keys by shard and take each shard
//!   lock once;
//! * **per-penalty-band accounting**, always on: every cache carries a
//!   lock-free [`MetricsRegistry`] with per-band hit, miss,
//!   penalty-cost, eviction and slab-move counters, striped so each
//!   thread's hits and each shard's policy decisions go to their own
//!   cache lines. These are the only
//!   hit/miss/eviction counts; [`PamaCache::report`] sums them (over
//!   bands and stripes) into the aggregate [`CacheStats`].
//!
//! ```
//! use pama_kv::{CacheBuilder, PamaCache, SetOptions};
//!
//! let cache: PamaCache = CacheBuilder::new()
//!     .total_bytes(8 << 20)
//!     .shards(4)
//!     .build();
//! cache.set(b"user:42", b"{\"name\":\"ada\"}", &SetOptions::default()).unwrap();
//! assert_eq!(cache.get(b"user:42").as_deref(), Some(&b"{\"name\":\"ada\"}"[..]));
//! cache.delete(b"user:42");
//! assert!(cache.get(b"user:42").is_none());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod log;
mod options;
mod shard;
mod slots;
mod stats;

pub use options::{CacheError, CacheValue, SetOptions, ValueRef};
pub use pama_metrics::{BandSnapshot, MetricsRegistry, MetricsSnapshot};
pub use stats::{merge_all, CacheReport, CacheStats, Merge, SlabClassReport, SlabReport};

use bytes::Bytes;
use pama_core::config::{CacheConfig, ConfigError};
use pama_core::policy::PamaConfig;
use pama_faults::{BackendConfig, BackendSim};
use pama_util::hash::hash_bytes;
use pama_util::SimDuration;
use shard::{Shard, ShardCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const KEY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes key bytes in a single seeded pass (no intermediate fold).
#[inline]
fn hash_key(key: &[u8]) -> u64 {
    hash_bytes(key, KEY_SEED)
}

/// Builder for [`PamaCache`].
#[derive(Debug, Clone)]
pub struct CacheBuilder {
    total_bytes: u64,
    slab_bytes: u64,
    shards: usize,
    pama: PamaConfig,
    default_ttl: Option<SimDuration>,
    backend: Option<BackendConfig>,
}

impl Default for CacheBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheBuilder {
    /// A builder with 64 MiB over 4 shards, 256 KiB slabs, no TTL.
    pub fn new() -> Self {
        Self {
            total_bytes: 64 << 20,
            slab_bytes: 256 << 10,
            shards: 4,
            pama: PamaConfig::default(),
            default_ttl: None,
            backend: None,
        }
    }

    /// Total cache memory across all shards.
    pub fn total_bytes(mut self, b: u64) -> Self {
        self.total_bytes = b;
        self
    }

    /// Slab size (power of two).
    pub fn slab_bytes(mut self, b: u64) -> Self {
        self.slab_bytes = b;
        self
    }

    /// Number of independent shards (rounded up to a power of two).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1).next_power_of_two();
        self
    }

    /// PAMA tuning (reference segments, value window, …).
    pub fn pama(mut self, cfg: PamaConfig) -> Self {
        self.pama = cfg;
        self
    }

    /// Default TTL applied to `set` calls without an explicit one.
    pub fn default_ttl(mut self, ttl: Option<SimDuration>) -> Self {
        self.default_ttl = ttl;
        self
    }

    /// Attaches a simulated backend: every miss triggers a fetch whose
    /// (simulated) latency, retries and failures are tracked in
    /// [`CacheStats`], and whose measured latency seeds the key's
    /// penalty. Each shard gets its own [`BackendSim`] with a
    /// shard-derived seed, so fault schedules stay deterministic per
    /// shard without cross-shard lock contention.
    pub fn backend(mut self, cfg: BackendConfig) -> Self {
        self.backend = Some(cfg);
        self
    }

    /// Builds the cache, returning a typed error when the per-shard
    /// share is smaller than one slab or the geometry / PAMA knobs are
    /// otherwise invalid.
    pub fn try_build(self) -> Result<PamaCache, ConfigError> {
        let per_shard = self.total_bytes / self.shards as u64;
        let cfg = CacheConfig {
            total_bytes: per_shard,
            slab_bytes: self.slab_bytes,
            ..CacheConfig::default()
        };
        cfg.validate()?;
        self.pama.validate()?;
        // One registry shared by every shard, one stripe per shard or
        // per thread stripe, whichever are more.
        let metrics = shard::registry_for(&cfg, self.shards);
        let shards = (0..self.shards)
            .map(|i| {
                let mut shard =
                    Shard::new(cfg.clone(), self.pama.clone(), Arc::clone(&metrics), i);
                if let Some(b) = &self.backend {
                    let mut b = b.clone();
                    // Decorrelate shard jitter streams; keep schedules.
                    b.seed = b
                        .seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
                    shard = shard.with_backend(BackendSim::new(b));
                }
                ShardCell::new(shard)
            })
            .collect();
        Ok(PamaCache {
            shards,
            mask: self.shards as u64 - 1,
            epoch: Instant::now(),
            default_ttl: self.default_ttl,
            closed: AtomicBool::new(false),
            metrics,
        })
    }

    /// Builds the cache.
    ///
    /// # Panics
    /// Panics when the per-shard share is smaller than one slab or the
    /// geometry is otherwise invalid; [`Self::try_build`] is the
    /// non-panicking variant.
    pub fn build(self) -> PamaCache {
        match self.try_build() {
            Ok(c) => c,
            Err(e) => panic!("invalid cache geometry: {e}"),
        }
    }
}

/// The concurrent penalty-aware cache. See the crate docs.
pub struct PamaCache {
    shards: Vec<ShardCell>,
    mask: u64,
    epoch: Instant,
    default_ttl: Option<SimDuration>,
    /// Set by [`PamaCache::close`]: mutations are refused with
    /// [`CacheError::ShuttingDown`] while reads keep draining.
    closed: AtomicBool,
    /// Shared observability registry: per-band counters (the only
    /// hit/miss/eviction counts), arena gauges, latency histograms.
    metrics: Arc<MetricsRegistry>,
}

impl PamaCache {
    /// A cache with default geometry (64 MiB, 4 shards).
    pub fn with_defaults() -> Self {
        CacheBuilder::new().build()
    }

    #[inline]
    fn now(&self) -> pama_util::SimTime {
        pama_util::SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Folds all 64 hash bits into the shard index so every region of
    /// the hash contributes (the old scheme used only bits 48–63).
    #[inline]
    fn shard_index(&self, h: u64) -> usize {
        let f = h ^ (h >> 32);
        let f = f ^ (f >> 16);
        (f & self.mask) as usize
    }

    #[inline]
    fn shard_of(&self, h: u64) -> &ShardCell {
        &self.shards[self.shard_index(h)]
    }

    /// Looks a key up. A hit is served under the shard's shared read
    /// lock; its recency bookkeeping is deferred through the access
    /// log. On a miss, the shard opens a miss window for the key: if a
    /// `set` follows shortly, the gap becomes the key's measured
    /// regeneration penalty (the paper's estimator, live).
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.lookup(key).map(|v| v.value)
    }

    /// Like [`Self::get`] but returns the stored metadata too — the
    /// opaque `flags` word and the CAS stamp the Memcached `gets`
    /// command reports.
    pub fn lookup(&self, key: &[u8]) -> Option<CacheValue> {
        self.lookup_with(key, |v| v.to_value())
    }

    /// Like [`Self::lookup`], but hands a hit to `f` as it is stored
    /// instead of copying it out, and returns what `f` returns. A front
    /// end can thus write a reply straight from the slab arena.
    ///
    /// The hit is counted, recorded for deferred promotion and sampled
    /// for latency exactly as in [`Self::get`]; a miss opens the same
    /// miss window and never calls `f`. On a read-lock hit, `f` runs
    /// under the shard's data read lock, so it must be short and must
    /// not call back into this cache: a write on the same shard would
    /// deadlock. A hit found only under the policy lock (the key was
    /// written between the two looks) is passed to `f` as a copy.
    pub fn lookup_with<R>(&self, key: &[u8], f: impl FnOnce(ValueRef<'_>) -> R) -> Option<R> {
        let h = hash_key(key);
        self.shard_of(h).get(h, key, || self.now(), f)
    }

    /// Inserts or updates a key. TTL, explicit penalty, and flags come
    /// from `opts` ([`SetOptions::default`] = builder-default TTL,
    /// live-estimated penalty, zero flags). The regeneration penalty
    /// is taken from `opts.penalty` when given, else the gap since the
    /// key's last miss (when at most 5 s), else the penalty known at
    /// that miss (a backend fetch's latency, or the penalty the key
    /// was evicted with), else the replaced generation's, else the
    /// evicted key's while the policy still remembers it, else the
    /// default (100 ms). A key that was deleted or flushed, or whose
    /// eviction record has aged out, starts over at the default.
    ///
    /// A SET of a resident key is one policy request, as in the
    /// simulator: the item is updated in place when it keeps its slab
    /// class and penalty band, and replaced otherwise. On error the key
    /// is left **absent** (the previous generation's slot is freed before
    /// placement), so callers never read stale values after a refused
    /// write.
    pub fn set(&self, key: &[u8], value: &[u8], opts: &SetOptions) -> Result<(), CacheError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(CacheError::ShuttingDown);
        }
        let (h, now) = (hash_key(key), self.now());
        self.shard_of(h).lock(now).set(h, key, value, &self.with_default_ttl(opts), now)
    }

    /// Inserts a key only if it is not already live — Memcached `add`.
    /// `Ok(false)` means the key was present (the protocol's
    /// `NOT_STORED`); an expired or colliding previous generation does
    /// not block the insert.
    pub fn add(&self, key: &[u8], value: &[u8], opts: &SetOptions) -> Result<bool, CacheError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(CacheError::ShuttingDown);
        }
        let (h, now) = (hash_key(key), self.now());
        self.shard_of(h).lock(now).add(h, key, value, &self.with_default_ttl(opts), now)
    }

    /// `opts` with the builder's default TTL filled in.
    fn with_default_ttl(&self, opts: &SetOptions) -> SetOptions {
        SetOptions { ttl: opts.ttl.or(self.default_ttl), ..*opts }
    }

    /// Refreshes a live key's TTL (`None` removes the expiry) and
    /// promotes it, without touching the value — Memcached `touch`.
    /// Returns whether the key was live.
    pub fn touch(&self, key: &[u8], ttl: Option<SimDuration>) -> bool {
        let (h, now) = (hash_key(key), self.now());
        self.shard_of(h).lock(now).touch(h, key, ttl, now)
    }

    /// Removes a key. Returns whether it was present.
    pub fn delete(&self, key: &[u8]) -> bool {
        let (h, now) = (hash_key(key), self.now());
        self.shard_of(h).lock(now).delete(h, key, now)
    }

    /// Whether a key is currently cached (and not expired).
    pub fn contains(&self, key: &[u8]) -> bool {
        let h = hash_key(key);
        self.shard_of(h).contains(h, key, self.now())
    }

    /// Looks up many keys at once, returning values in input order.
    ///
    /// Keys are grouped by shard so each shard's locks are taken at most
    /// once each (one data-read pass for the hits, one policy-lock pass
    /// for the misses) regardless of batch size — observationally equivalent
    /// to calling [`Self::get`] per key.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Vec<Option<Bytes>> {
        self.multi_lookup(keys).into_iter().map(|v| v.map(|v| v.value)).collect()
    }

    /// Batched [`Self::lookup`]: values with flags and CAS stamps, in
    /// input order, grouped by shard like [`Self::multi_get`].
    pub fn multi_lookup(&self, keys: &[&[u8]]) -> Vec<Option<CacheValue>> {
        let now = self.now();
        let mut out = vec![None; keys.len()];
        let mut groups: Vec<Vec<(usize, u64)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, key) in keys.iter().enumerate() {
            let h = hash_key(key);
            groups[self.shard_index(h)].push((i, h));
        }
        for (cell, group) in self.shards.iter().zip(&groups) {
            if !group.is_empty() {
                cell.multi_get_group(group, keys, &mut out, now);
            }
        }
        out
    }

    /// Inserts or updates many key/value pairs at once with common
    /// options, grouping by shard so each shard's policy lock is taken
    /// once — observationally equivalent to calling [`Self::set`] per
    /// pair in order. Every pair is attempted even after a failure;
    /// the error for the lowest-indexed refused pair is returned.
    pub fn multi_set(
        &self,
        items: &[(&[u8], &[u8])],
        opts: &SetOptions,
    ) -> Result<(), CacheError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(CacheError::ShuttingDown);
        }
        let now = self.now();
        let opts = self.with_default_ttl(opts);
        let mut groups: Vec<Vec<(usize, u64)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (i, (key, _)) in items.iter().enumerate() {
            let h = hash_key(key);
            groups[self.shard_index(h)].push((i, h));
        }
        let mut first_err: Option<(usize, CacheError)> = None;
        for (cell, group) in self.shards.iter().zip(&groups) {
            if group.is_empty() {
                continue;
            }
            let mut shard = cell.lock(now);
            for &(i, h) in group {
                let (key, value) = items[i];
                if let Err(e) = shard.set(h, key, value, &opts, now) {
                    if first_err.is_none_or(|(j, _)| i < j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Drains every shard's deferred-hit log, applying pending LRU
    /// promotions and PAMA bookkeeping under each shard's policy lock.
    /// Normally unnecessary — logs drain whenever a shard's policy lock
    /// is taken (SET/DELETE/miss/sweep) — but useful before inspecting
    /// policy state after a read-only phase.
    pub fn flush(&self) {
        let now = self.now();
        for cell in &self.shards {
            drop(cell.lock(now));
        }
    }

    /// One consolidated snapshot: aggregated operation counters plus
    /// the detailed slab ledger — slabs and free slots per class,
    /// resident vs requested bytes, internal fragmentation, transfer
    /// counts, and an occupancy histogram. `slabs` is always `Some`.
    ///
    /// Hits, misses and evictions are the registry's band sums; `items`,
    /// `live_bytes` and the arena fields of [`CacheStats`] come from the
    /// merged slab ledger. Each shard's counters and ledger are read
    /// under its policy lock and a brief data read lock, without a
    /// drain, and the ledger walk visits every slab, so call this at
    /// reporting cadence rather than per request. This
    /// is also when the registry's arena gauges are refreshed.
    pub fn report(&self) -> CacheReport {
        let (stats, slabs): (Vec<_>, Vec<_>) =
            self.shards.iter().map(ShardCell::report).unzip();
        let mut cache = merge_all(stats).unwrap_or_default();
        let slabs = merge_all(slabs).unwrap_or_default();
        let bands = self.metrics.snapshot();
        cache.hits = bands.total_hits();
        cache.misses = bands.total_misses();
        cache.evictions = bands.total_evictions();
        cache.items = slabs.live_items;
        cache.live_bytes = slabs.requested_bytes;
        cache.slabs_in_use = slabs.slabs;
        cache.arena_resident_bytes = slabs.resident_bytes;
        cache.arena_free_slots = slabs.free_slots;
        cache.arena_slot_bytes = slabs.slot_bytes;
        cache.slab_transfers = slabs.transfers;
        cache.slot_moves = slabs.slot_moves;
        self.metrics.arena_slabs.set(slabs.slabs);
        self.metrics.arena_free_slots.set(slabs.free_slots);
        self.metrics.arena_resident_bytes.set(slabs.resident_bytes);
        CacheReport { cache, slabs: Some(slabs) }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The cache's observability registry. Snapshot it for per-band
    /// counters and latency histograms; the same `Arc` can be shared
    /// with a front end for wire exposition. Always `Some`; the
    /// `Option` is kept so existing callers need no change.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        Some(&self.metrics)
    }

    /// Drops every item in every shard — Memcached `flush_all`.
    /// Returns the number of items removed. The flushed items'
    /// penalties go with them; a key missed before the flush still
    /// measures its miss→SET gap.
    pub fn clear(&self) -> u64 {
        let now = self.now();
        self.shards.iter().map(|cell| cell.lock(now).clear()).sum()
    }

    /// Begins shutdown: subsequent mutations fail with
    /// [`CacheError::ShuttingDown`] while reads keep draining, so a
    /// server front end can finish in-flight GETs during its grace
    /// period. Irreversible.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Runs an expiry sweep over every shard, removing items whose
    /// TTL has lapsed. Expiry is otherwise lazy (checked on access).
    pub fn sweep_expired(&self) -> usize {
        let now = self.now();
        self.shards.iter().map(|cell| cell.lock(now).sweep_expired(now)).sum()
    }

    /// Test/diagnostic hook: flushes the logs, then verifies that every
    /// shard's byte store and policy accounting agree and that the
    /// allocator invariants hold.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        let now = self.now();
        for (i, cell) in self.shards.iter().enumerate() {
            cell.lock(now).check_consistency().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PamaCache {
        CacheBuilder::new().total_bytes(4 << 20).slab_bytes(64 << 10).shards(2).build()
    }

    #[test]
    fn get_set_delete_roundtrip() {
        let c = small();
        assert!(c.get(b"k").is_none());
        c.set(b"k", b"value-1", &SetOptions::default()).unwrap();
        assert_eq!(c.get(b"k").as_deref(), Some(&b"value-1"[..]));
        c.set(b"k", b"value-2", &SetOptions::default()).unwrap();
        assert_eq!(c.get(b"k").as_deref(), Some(&b"value-2"[..]));
        assert!(c.delete(b"k"));
        assert!(!c.delete(b"k"));
        assert!(c.get(b"k").is_none());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let c = small();
        c.set(b"a", b"1", &SetOptions::default()).unwrap();
        let _ = c.get(b"a"); // hit
        let _ = c.get(b"b"); // miss
        let s = c.report().cache;
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.sets, 1);
        assert_eq!(s.items, 1);
        assert!(s.hit_ratio() > 0.49 && s.hit_ratio() < 0.51);
    }

    #[test]
    fn shards_partition_keys() {
        let c = CacheBuilder::new().shards(3).build(); // rounds to 4
        assert_eq!(c.num_shards(), 4);
        for i in 0..100u32 {
            c.set(format!("key-{i}").as_bytes(), b"x", &SetOptions::default()).unwrap();
        }
        assert_eq!(c.report().cache.items, 100);
    }

    #[test]
    fn eviction_under_pressure_keeps_cache_bounded() {
        let c = CacheBuilder::new().total_bytes(1 << 20).slab_bytes(64 << 10).shards(1).build();
        let value = vec![0u8; 4000];
        for i in 0..2_000u32 {
            c.set(format!("bulk-{i}").as_bytes(), &value, &SetOptions::default()).unwrap();
        }
        assert!(c.get(b"bulk-1999").is_some());
        assert!(c.get(b"bulk-0").is_none(), "the oldest item was evicted");
        let s = c.report().cache;
        assert!(s.items < 300, "items {} should be bounded by 1 MiB", s.items);
        assert!(s.evictions > 0);
        // A cache built with no knob carries the band registry, and the
        // aggregate counts are its band sums.
        let bands = c.metrics().expect("the registry is always attached").snapshot();
        assert_eq!(
            (bands.total_hits(), bands.total_misses(), bands.total_evictions()),
            (s.hits, s.misses, s.evictions)
        );
        assert_eq!((s.hits, s.misses), (1, 1));
        // freshest items survive
        assert!(c.contains(b"bulk-1999"));
        c.check_invariants().unwrap();
    }

    #[test]
    fn oversized_values_are_refused_with_a_typed_error() {
        let c = CacheBuilder::new().total_bytes(1 << 20).slab_bytes(64 << 10).shards(1).build();
        let huge = vec![0u8; 80 << 10]; // > one slab
        let err = c.set(b"huge", &huge, &SetOptions::default()).unwrap_err();
        assert!(
            matches!(err, CacheError::ValueTooLarge { max_bytes: 65_536, .. }),
            "want ValueTooLarge, got {err:?}"
        );
        assert!(!c.contains(b"huge"));
        assert_eq!(c.report().cache.rejected, 1);
        // An oversized overwrite drops the previous generation rather
        // than leaving a stale value behind.
        c.set(b"k", b"old", &SetOptions::default()).unwrap();
        assert!(c.set(b"k", &huge, &SetOptions::default()).is_err());
        assert!(c.get(b"k").is_none(), "refused set must not leave the old value");
        // multi_set reports the lowest-indexed refused pair.
        let items: Vec<(&[u8], &[u8])> = vec![
            (b"a".as_slice(), b"1".as_slice()),
            (b"big".as_slice(), huge.as_slice()),
            (b"b".as_slice(), b"2".as_slice()),
        ];
        let err = c.multi_set(&items, &SetOptions::default()).unwrap_err();
        assert!(matches!(err, CacheError::ValueTooLarge { .. }));
        assert!(c.contains(b"a") && c.contains(b"b"), "other pairs still land");
    }

    #[test]
    fn flags_and_cas_round_trip() {
        let c = small();
        c.set(b"k", b"v1", &SetOptions::new().flags(0xBEEF)).unwrap();
        let first = c.lookup(b"k").unwrap();
        assert_eq!(first.value.as_ref(), b"v1");
        assert_eq!(first.flags, 0xBEEF);
        // A rewrite advances the CAS stamp and replaces the flags.
        c.set(b"k", b"v2", &SetOptions::new().flags(7)).unwrap();
        let second = c.lookup(b"k").unwrap();
        assert_eq!(second.flags, 7);
        assert!(second.cas > first.cas, "CAS must advance on rewrite");
        // lookup_with and multi_lookup agree with lookup.
        assert_eq!(c.lookup_with(b"k", |v| v.to_value()), Some(second.clone()));
        assert_eq!(c.lookup_with(b"absent", |v| v.to_value()), None);
        let got = c.multi_lookup(&[b"k".as_slice(), b"absent".as_slice()]);
        assert_eq!(got[0].as_ref(), Some(&second));
        assert!(got[1].is_none());
    }

    #[test]
    fn add_stores_only_absent_keys() {
        let c = small();
        assert!(c.add(b"k", b"first", &SetOptions::default()).unwrap());
        assert!(!c.add(b"k", b"second", &SetOptions::default()).unwrap(), "NOT_STORED");
        assert_eq!(c.get(b"k").as_deref(), Some(&b"first"[..]));
        // An expired generation does not block an add.
        c.set(b"dying", b"x", &SetOptions::new().ttl(SimDuration::ZERO)).unwrap();
        assert!(c.add(b"dying", b"fresh", &SetOptions::default()).unwrap());
        assert_eq!(c.get(b"dying").as_deref(), Some(&b"fresh"[..]));
    }

    #[test]
    fn delete_and_add_count_a_lapsed_entry_as_expired() {
        let c = small();
        c.set(b"lapsed", b"v", &SetOptions::new().ttl(SimDuration::ZERO)).unwrap();
        assert!(!c.delete(b"lapsed"), "a lapsed key was deleted");
        let s = c.report().cache;
        assert_eq!((s.deletes, s.expired, s.items), (0, 1, 0));
        c.set(b"dying", b"x", &SetOptions::new().ttl(SimDuration::ZERO)).unwrap();
        assert!(c.add(b"dying", b"fresh", &SetOptions::default()).unwrap());
        assert_eq!(c.report().cache.expired, 2, "add overwrote a lapse uncounted");
        c.set(b"stale", b"x", &SetOptions::new().ttl(SimDuration::ZERO)).unwrap();
        c.set(b"stale", b"fresh", &SetOptions::default()).unwrap();
        let s = c.report().cache;
        assert_eq!((s.expired, s.items), (3, 2), "set overwrote a lapse uncounted");
        assert_eq!(c.get(b"stale").as_deref(), Some(&b"fresh"[..]));
        c.check_invariants().unwrap();
    }

    #[test]
    fn lapsed_ttl_is_never_served_and_counts_as_expired() {
        let c = small();
        let opts = |ttl| SetOptions::new().ttl(ttl);
        c.set(b"lapsed-a", b"v", &opts(SimDuration::ZERO)).unwrap();
        c.set(b"lapsed-b", b"v", &opts(SimDuration::ZERO)).unwrap();
        c.set(b"live", b"v", &opts(SimDuration::from_secs(3600))).unwrap();
        c.set(b"forever", b"v", &SetOptions::default()).unwrap();
        assert_eq!(c.report().cache.expired, 0, "expiry is lazy");
        // Neither the single-key nor the batched read path serves a
        // lapsed entry; each drop counts once, as a miss and an expiry.
        assert!(c.get(b"lapsed-a").is_none());
        assert_eq!(c.report().cache.expired, 1);
        let keys: [&[u8]; 3] = [b"lapsed-b", b"live", b"forever"];
        let got: Vec<Option<Vec<u8>>> =
            c.multi_get(&keys).into_iter().map(|v| v.map(|v| v.to_vec())).collect();
        assert_eq!(got, [None, Some(b"v".to_vec()), Some(b"v".to_vec())]);
        assert!(c.get(b"lapsed-a").is_none(), "a dropped entry is a plain miss");
        let s = c.report().cache;
        assert_eq!((s.expired, s.hits, s.misses, s.items), (2, 2, 3, 2));
        c.check_invariants().unwrap();
    }

    #[test]
    fn touch_refreshes_ttl() {
        let c = small();
        c.set(b"k", b"v", &SetOptions::new().ttl(SimDuration::from_secs(3600))).unwrap();
        assert!(c.touch(b"k", None), "live key must be touchable");
        assert!(c.contains(b"k"));
        // Touching down to an already-elapsed TTL expires the key.
        assert!(c.touch(b"k", Some(SimDuration::ZERO)));
        assert!(!c.contains(b"k"));
        assert!(!c.touch(b"absent", None));
        c.check_invariants().unwrap();
    }

    #[test]
    fn clear_empties_every_shard() {
        let c = small();
        for i in 0..100u32 {
            c.set(format!("k{i}").as_bytes(), b"v", &SetOptions::default()).unwrap();
        }
        assert_eq!(c.clear(), 100);
        let s = c.report().cache;
        assert_eq!(s.items, 0);
        assert_eq!(s.live_bytes, 0);
        assert!(!c.contains(b"k0"));
        c.check_invariants().unwrap();
    }

    #[test]
    fn close_refuses_mutations_but_serves_reads() {
        let c = small();
        c.set(b"k", b"v", &SetOptions::default()).unwrap();
        assert!(!c.is_closed());
        c.close();
        assert!(c.is_closed());
        assert_eq!(c.set(b"k2", b"v", &SetOptions::default()), Err(CacheError::ShuttingDown));
        assert_eq!(
            c.multi_set(&[(b"k3".as_slice(), b"v".as_slice())], &SetOptions::default()),
            Err(CacheError::ShuttingDown)
        );
        assert_eq!(c.add(b"k4", b"v", &SetOptions::default()), Err(CacheError::ShuttingDown));
        // Reads drain to the end.
        assert_eq!(c.get(b"k").as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn report_merges_both_halves_once() {
        let c = small();
        c.set(b"a", b"1", &SetOptions::default()).unwrap();
        let r = c.report();
        assert_eq!(r.cache.items, 1);
        let slabs = r.slabs.expect("the slab ledger is always reported");
        assert_eq!(slabs.live_items, 1);
    }

    #[test]
    fn different_keys_do_not_collide_logically() {
        let c = small();
        c.set(b"alpha", b"A", &SetOptions::default()).unwrap();
        c.set(b"beta", b"B", &SetOptions::default()).unwrap();
        assert_eq!(c.get(b"alpha").as_deref(), Some(&b"A"[..]));
        assert_eq!(c.get(b"beta").as_deref(), Some(&b"B"[..]));
    }

    #[test]
    fn try_build_reports_bad_geometry_instead_of_panicking() {
        // 1 MiB over 16 shards = 64 KiB per shard < one 256 KiB slab.
        let err = CacheBuilder::new()
            .total_bytes(1 << 20)
            .slab_bytes(256 << 10)
            .shards(16)
            .try_build()
            .err();
        assert_eq!(
            err,
            Some(pama_core::config::ConfigError::TotalSmallerThanSlab {
                total_bytes: 64 << 10,
                slab_bytes: 256 << 10,
            })
        );

        let pama = PamaConfig { value_window: 0, ..Default::default() };
        let err = CacheBuilder::new().pama(pama).try_build().err();
        assert_eq!(err, Some(pama_core::config::ConfigError::ZeroValueWindow));
    }

    #[test]
    fn backend_outage_degrades_gracefully() {
        use pama_faults::{Fault, FaultSchedule, RetryPolicy};
        let backend = BackendConfig {
            schedule: FaultSchedule::none().with(Fault::Outage { from: 0, until: u64::MAX }),
            retry: RetryPolicy {
                max_attempts: 2,
                timeout: SimDuration::from_millis(5),
                backoff: SimDuration::from_millis(1),
            },
            ..BackendConfig::default()
        };
        let c = CacheBuilder::new()
            .total_bytes(4 << 20)
            .slab_bytes(64 << 10)
            .shards(2)
            .backend(backend)
            .try_build()
            .unwrap();
        for i in 0..100u32 {
            assert!(c.get(format!("k{i}").as_bytes()).is_none());
        }
        let s = c.report().cache;
        assert_eq!(s.misses, 100);
        assert_eq!(s.backend_fetches, 100);
        assert_eq!(s.backend_failures, 100, "every fetch times out under a total outage");
        assert_eq!(s.backend_retries, 100, "one retry per fetch at max_attempts = 2");
        assert!(s.backend_time_us > 0);
        // The cache itself still works: writes land, reads hit.
        c.set(b"still-alive", b"yes", &SetOptions::default()).unwrap();
        assert_eq!(c.get(b"still-alive").as_deref(), Some(&b"yes"[..]));
    }

    #[test]
    fn backend_fetch_latency_becomes_the_penalty_estimate() {
        let backend = BackendConfig { jitter_pct: 0, ..BackendConfig::default() };
        let c = CacheBuilder::new()
            .total_bytes(4 << 20)
            .slab_bytes(64 << 10)
            .shards(1)
            .backend(backend)
            .try_build()
            .unwrap();
        for i in 0..50u32 {
            let key = format!("k{i}");
            let _ = c.get(key.as_bytes()); // miss → simulated fetch
            c.set(key.as_bytes(), b"v", &SetOptions::default()).unwrap();
        }
        let s = c.report().cache;
        assert_eq!(s.backend_fetches, 50);
        assert_eq!(s.backend_failures, 0);
        assert_eq!(s.measured_penalties, 50);
        // Band representatives run 500 µs – 2 s; a wall-clock probe
        // would have measured near-zero gaps instead.
        assert!(
            s.mean_measured_penalty_us >= 500.0,
            "mean {} µs is below the cheapest band",
            s.mean_measured_penalty_us
        );
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = std::sync::Arc::new(small());
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..2_000u32 {
                        let key = format!("t{t}-{i}");
                        c.set(key.as_bytes(), key.as_bytes(), &SetOptions::default()).unwrap();
                        assert_eq!(c.get(key.as_bytes()).as_deref(), Some(key.as_bytes()));
                    }
                });
            }
        });
        let s = c.report().cache;
        assert_eq!(s.sets, 8_000);
        assert!(s.hits >= 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn multi_get_matches_single_gets() {
        let c = small();
        for i in 0..64u32 {
            c.set(
                format!("m{i}").as_bytes(),
                format!("v{i}").as_bytes(),
                &SetOptions::default(),
            )
            .unwrap();
        }
        let owned: Vec<Vec<u8>> = (0..80u32).map(|i| format!("m{i}").into_bytes()).collect();
        let keys: Vec<&[u8]> = owned.iter().map(|k| k.as_slice()).collect();
        let got = c.multi_get(&keys);
        for (i, v) in got.iter().enumerate() {
            if i < 64 {
                assert_eq!(v.as_deref(), Some(format!("v{i}").as_bytes()));
            } else {
                assert!(v.is_none(), "key m{i} was never set");
            }
        }
        let s = c.report().cache;
        assert_eq!(s.hits, 64);
        assert_eq!(s.misses, 16);
        c.check_invariants().unwrap();
    }

    #[test]
    fn multi_set_matches_single_sets() {
        let c = small();
        let owned: Vec<(Vec<u8>, Vec<u8>)> = (0..50u32)
            .map(|i| (format!("b{i}").into_bytes(), format!("w{i}").into_bytes()))
            .collect();
        let items: Vec<(&[u8], &[u8])> =
            owned.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        c.multi_set(&items, &SetOptions::default()).unwrap();
        let s = c.report().cache;
        assert_eq!(s.sets, 50);
        assert_eq!(s.items, 50);
        for (k, v) in &owned {
            assert_eq!(c.get(k).as_deref(), Some(v.as_slice()));
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn flush_applies_deferred_promotions() {
        let c = CacheBuilder::new().total_bytes(4 << 20).slab_bytes(64 << 10).shards(1).build();
        c.set(b"hot", b"v", &SetOptions::default()).unwrap();
        for _ in 0..10 {
            assert!(c.get(b"hot").is_some());
        }
        c.flush();
        let s = c.report().cache;
        assert_eq!(s.hits, 10);
        assert_eq!(s.deferred_hits, 10, "flush must apply every logged hit");
        c.check_invariants().unwrap();
    }
}
