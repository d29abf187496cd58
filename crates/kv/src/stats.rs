//! Cache-wide statistics.
//!
//! Every number has one owner. Each shard's [`ShardCounters`], plain
//! integers changed under the shard's policy lock, count operations
//! (sets, deletes, expiries, …); hits, misses and evictions live only in
//! the cache's penalty-band registry; resident items and bytes and the
//! arena gauges live only in each shard's slab arena.
//! [`crate::PamaCache::report`] assembles [`CacheStats`] from all three:
//! it sums the band cells into `hits`/`misses`/`evictions`, and takes
//! each shard's policy lock once to read its counters and, under its
//! data read lock, build its slab ledger, from which it fills `items`,
//! `live_bytes` and the arena fields.

use pama_util::SimDuration;

/// Fold another report of the same shape into this one.
///
/// Both [`CacheStats`] and [`SlabReport`] aggregate per-shard parts
/// into a cache-wide whole; this trait gives the two `merge`s one name
/// so aggregation loops (`report()`, the probe binary, repro
/// experiments) can be written once — see [`merge_all`].
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// Folds an iterator of parts into one report: the first part seeds
/// the accumulator, the rest [`Merge::merge`] into it. `None` when the
/// iterator is empty.
pub fn merge_all<T: Merge, I: IntoIterator<Item = T>>(parts: I) -> Option<T> {
    let mut it = parts.into_iter();
    let mut total = it.next()?;
    for part in it {
        total.merge(&part);
    }
    Some(total)
}

/// Everything [`crate::PamaCache::report`] knows, in one snapshot:
/// aggregate counters and gauges plus the detailed slab ledger — one
/// call, one consistent reporting cadence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheReport {
    /// Aggregated operation counters and gauges.
    pub cache: CacheStats,
    /// Slab-arena accounting. Always `Some`; the `Option` is kept so
    /// existing callers need no change.
    pub slabs: Option<SlabReport>,
}

/// Counters reported in [`crate::PamaCache::report`]'s
/// [`CacheReport::cache`]. All counters are cumulative since cache
/// creation except `items` / `live_bytes` and the arena gauges
/// (point-in-time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// GETs that returned a value: the sum of the registry's per-band
    /// hits.
    pub hits: u64,
    /// GETs that found nothing (including expiries and collisions): the
    /// sum of the registry's per-band misses.
    pub misses: u64,
    /// SET calls.
    pub sets: u64,
    /// Successful DELETE calls.
    pub deletes: u64,
    /// Items evicted by the allocator to make room: the sum of the
    /// registry's per-band evictions.
    pub evictions: u64,
    /// Items dropped by TTL expiry (lazy or swept).
    pub expired: u64,
    /// SETs refused because the item could not be placed (oversized or
    /// starved class).
    pub rejected: u64,
    /// Current live item count, read from the slab ledger at `report()`
    /// time (it equals [`SlabReport::live_items`]).
    pub items: u64,
    /// Current live key+value bytes (excluding per-slot rounding), read
    /// from the slab ledger (it equals [`SlabReport::requested_bytes`]).
    pub live_bytes: u64,
    /// GET-miss→SET penalty samples measured by the live estimator.
    pub measured_penalties: u64,
    /// Mean measured penalty in microseconds.
    pub mean_measured_penalty_us: f64,
    /// Simulated backend fetches triggered by misses (0 when no
    /// backend is attached).
    pub backend_fetches: u64,
    /// Backend retries beyond each fetch's first attempt.
    pub backend_retries: u64,
    /// Backend fetches that exhausted every attempt (the cache served
    /// a degraded miss instead of crashing).
    pub backend_failures: u64,
    /// Total simulated time spent in backend fetches, µs.
    pub backend_time_us: u64,
    /// Read-path hits whose LRU/policy bookkeeping was applied later
    /// from the deferred access log.
    pub deferred_hits: u64,
    /// Read-path hit records discarded because the access log was full;
    /// each costs one recency refresh, never correctness.
    pub deferred_dropped: u64,
    /// Slabs carved in the physical arenas. This and the other arena
    /// fields below are read from the slab ledger at `report()` time
    /// (they equal the matching [`SlabReport`] fields).
    pub slabs_in_use: u64,
    /// Arena-resident bytes: slab backing memory plus per-slot
    /// metadata. Bounded by the configured cache size plus metadata.
    pub arena_resident_bytes: u64,
    /// Free slots across all carved slabs.
    pub arena_free_slots: u64,
    /// Slot-granular bytes occupied by live items; the excess over
    /// `live_bytes` is internal fragmentation from rounding items up
    /// to their class's slot size.
    pub arena_slot_bytes: u64,
    /// Physical slab transfers (compaction + re-carve) driven by the
    /// policy's cross-class migrations.
    pub slab_transfers: u64,
    /// Items relocated by compaction during those transfers.
    pub slot_moves: u64,
}

impl CacheStats {
    /// Hit ratio over all GETs so far (0 when none).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Internal fragmentation in the arenas: slot-rounding waste on
    /// live items.
    pub fn internal_frag_bytes(&self) -> u64 {
        self.arena_slot_bytes.saturating_sub(self.live_bytes)
    }
}

impl Merge for CacheStats {
    /// Folds another shard's counters into this one.
    fn merge(&mut self, other: &CacheStats) {
        // Weighted mean for the penalty estimate.
        let total = self.measured_penalties + other.measured_penalties;
        if total > 0 {
            self.mean_measured_penalty_us = (self.mean_measured_penalty_us
                * self.measured_penalties as f64
                + other.mean_measured_penalty_us * other.measured_penalties as f64)
                / total as f64;
        }
        self.measured_penalties = total;
        self.hits += other.hits;
        self.misses += other.misses;
        self.sets += other.sets;
        self.deletes += other.deletes;
        self.evictions += other.evictions;
        self.expired += other.expired;
        self.rejected += other.rejected;
        self.items += other.items;
        self.live_bytes += other.live_bytes;
        self.backend_fetches += other.backend_fetches;
        self.backend_retries += other.backend_retries;
        self.backend_failures += other.backend_failures;
        self.backend_time_us = self.backend_time_us.saturating_add(other.backend_time_us);
        self.deferred_hits += other.deferred_hits;
        self.deferred_dropped += other.deferred_dropped;
        self.slabs_in_use += other.slabs_in_use;
        self.arena_resident_bytes += other.arena_resident_bytes;
        self.arena_free_slots += other.arena_free_slots;
        self.arena_slot_bytes += other.arena_slot_bytes;
        self.slab_transfers += other.slab_transfers;
        self.slot_moves += other.slot_moves;
    }
}

/// Detailed slab-arena accounting, aggregated across shards into
/// [`CacheReport::slabs`]. Unlike [`CacheStats`] this takes each
/// shard's data read lock and walks slab metadata, so poll it at reporting
/// cadence (the `probe` binary prints it per window).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlabReport {
    /// Size of one slab in bytes.
    pub slab_bytes: u64,
    /// Slab budget across all shards (`total_bytes / slab_bytes`).
    pub max_slabs: u64,
    /// Slabs currently carved.
    pub slabs: u64,
    /// Slab backing memory plus slot records, bytes.
    pub resident_bytes: u64,
    /// Bytes spent on out-of-line slot records (one per slot, the
    /// item's only metadata).
    pub meta_bytes: u64,
    /// Exact key+value bytes of live items (what callers asked for).
    pub requested_bytes: u64,
    /// Slot-granular bytes those items occupy (what the arena
    /// reserved); minus `requested_bytes` = internal fragmentation.
    pub slot_bytes: u64,
    /// Free slots across carved slabs.
    pub free_slots: u64,
    /// Live items stored.
    pub live_items: u64,
    /// Physical slab transfers performed.
    pub transfers: u64,
    /// Items relocated by transfer compaction.
    pub slot_moves: u64,
    /// Slab count per occupancy decile (`[0,10%) … [90,100%]`).
    pub occupancy_deciles: [u64; 10],
    /// Per-class breakdown, indexed by class.
    pub classes: Vec<SlabClassReport>,
}

/// One size class's slice of a [`SlabReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabClassReport {
    /// Class index (slot size = `min_slot · 2^class`).
    pub class: usize,
    /// Slot size in bytes.
    pub slot_bytes: u64,
    /// Slabs the class owns.
    pub slabs: u64,
    /// Live slots.
    pub live_slots: u64,
    /// Free slots.
    pub free_slots: u64,
    /// Exact key+value bytes of the class's live items.
    pub live_bytes: u64,
}

impl SlabReport {
    /// Internal fragmentation: slot-rounding waste on live items.
    pub fn internal_frag_bytes(&self) -> u64 {
        self.slot_bytes.saturating_sub(self.requested_bytes)
    }

    /// Resident overhead per live item, bytes: everything the arena
    /// holds beyond the exact requested bytes, amortised per item.
    pub fn overhead_per_item(&self) -> f64 {
        if self.live_items == 0 {
            return 0.0;
        }
        self.resident_bytes.saturating_sub(self.requested_bytes) as f64 / self.live_items as f64
    }
}

impl Merge for SlabReport {
    /// Folds another shard's report into this one.
    fn merge(&mut self, other: &SlabReport) {
        self.slab_bytes = self.slab_bytes.max(other.slab_bytes);
        self.max_slabs += other.max_slabs;
        self.slabs += other.slabs;
        self.resident_bytes += other.resident_bytes;
        self.meta_bytes += other.meta_bytes;
        self.requested_bytes += other.requested_bytes;
        self.slot_bytes += other.slot_bytes;
        self.free_slots += other.free_slots;
        self.live_items += other.live_items;
        self.transfers += other.transfers;
        self.slot_moves += other.slot_moves;
        for (d, o) in self.occupancy_deciles.iter_mut().zip(other.occupancy_deciles) {
            *d += o;
        }
        if self.classes.len() < other.classes.len() {
            self.classes.resize(other.classes.len(), SlabClassReport::default());
        }
        for (c, o) in self.classes.iter_mut().zip(&other.classes) {
            c.class = o.class;
            c.slot_bytes = o.slot_bytes;
            c.slabs += o.slabs;
            c.live_slots += o.live_slots;
            c.free_slots += o.free_slots;
            c.live_bytes += o.live_bytes;
        }
    }
}

/// Per-shard operation counters: the [`CacheStats`] fields that
/// neither the band registry nor the slab arena owns. Plain integers:
/// the shard owns them and changes them only under its policy lock. The
/// penalty mean is kept as (sum, count).
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub sets: u64,
    pub deletes: u64,
    pub expired: u64,
    pub rejected: u64,
    pub penalty_samples: u64,
    pub penalty_sum_us: u64,
    pub backend_fetches: u64,
    pub backend_retries: u64,
    pub backend_failures: u64,
    pub backend_time_us: u64,
    pub deferred_hits: u64,
}

impl ShardCounters {
    /// Counts one measured penalty.
    pub fn sample_penalty(&mut self, penalty: SimDuration) {
        self.penalty_samples += 1;
        self.penalty_sum_us += penalty.as_micros();
    }

    /// The counters as a [`CacheStats`]. Fields this block does not own
    /// — the band-registry counts, the slab-ledger figures and
    /// `deferred_dropped` (the access log's) — stay zero for the cell
    /// and `report()` to fill in.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            sets: self.sets,
            deletes: self.deletes,
            expired: self.expired,
            rejected: self.rejected,
            measured_penalties: self.penalty_samples,
            mean_measured_penalty_us: if self.penalty_samples == 0 {
                0.0
            } else {
                self.penalty_sum_us as f64 / self.penalty_samples as f64
            },
            backend_fetches: self.backend_fetches,
            backend_retries: self.backend_retries,
            backend_failures: self.backend_failures,
            backend_time_us: self.backend_time_us,
            deferred_hits: self.deferred_hits,
            ..CacheStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_edges() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_and_weights() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            measured_penalties: 2,
            mean_measured_penalty_us: 100.0,
            ..CacheStats::default()
        };
        let b = CacheStats {
            hits: 3,
            misses: 4,
            items: 7,
            measured_penalties: 6,
            mean_measured_penalty_us: 300.0,
            deferred_hits: 5,
            deferred_dropped: 1,
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 6);
        assert_eq!(a.items, 7);
        assert_eq!(a.measured_penalties, 8);
        assert_eq!(a.deferred_hits, 5);
        assert_eq!(a.deferred_dropped, 1);
        // (2·100 + 6·300)/8 = 250
        assert!((a.mean_measured_penalty_us - 250.0).abs() < 1e-9);
    }

    #[test]
    fn merge_with_no_samples_keeps_mean() {
        let mut a = CacheStats {
            measured_penalties: 0,
            mean_measured_penalty_us: 0.0,
            ..CacheStats::default()
        };
        a.merge(&CacheStats::default());
        assert_eq!(a.measured_penalties, 0);
    }

    #[test]
    fn merge_all_folds_every_part() {
        let parts = (0..4u64).map(|i| CacheStats { hits: i, ..CacheStats::default() });
        let total = merge_all(parts).unwrap();
        assert_eq!(total.hits, 6, "0+1+2+3 across the four parts");
        assert!(merge_all(std::iter::empty::<CacheStats>()).is_none());

        let reports = (0..3).map(|_| SlabReport { slabs: 2, ..SlabReport::default() });
        assert_eq!(merge_all(reports).unwrap().slabs, 6);
    }
}
