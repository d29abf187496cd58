//! Integration tests for the physical slab-arena storage layer: slab
//! accounting surfaces and — the point of the whole design — policy
//! migrations moving *real* memory.

use pama_core::config::CacheConfig;
use pama_core::policy::PamaConfig;
use pama_kv::{CacheBuilder, SetOptions};
use pama_util::SimDuration;

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:010}").into_bytes()
}

#[test]
fn slab_stats_account_for_resident_memory() {
    let cache = CacheBuilder::new().total_bytes(1 << 20).slab_bytes(64 << 10).shards(2).build();
    for i in 0..4_000u64 {
        let _ = cache.set(&key(i), &[0xCD; 100], &SetOptions::default());
    }
    let stats = cache.report().cache;
    let slabs = cache.report().slabs.expect("the slab ledger is always reported");
    assert!(stats.items > 0);
    assert_eq!(slabs.live_items, stats.items);
    assert_eq!(slabs.requested_bytes, stats.live_bytes);
    assert_eq!(slabs.slabs, stats.slabs_in_use);
    // Resident memory is bounded by the configured budget plus slot
    // metadata, and every occupied slot wastes less than one slot of
    // rounding per item.
    assert!(slabs.slabs <= slabs.max_slabs);
    assert!(slabs.resident_bytes <= (1 << 20) + slabs.meta_bytes);
    assert!(slabs.slot_bytes >= slabs.requested_bytes);
    assert_eq!(slabs.internal_frag_bytes(), slabs.slot_bytes - slabs.requested_bytes);
    // 114-byte items (14-byte key + 100, rounded to 128-byte slots):
    // at this density the per-item overhead is slot rounding (14 B) +
    // slot metadata (16 B) + partial-slab slack — well under one item.
    assert!(slabs.overhead_per_item() < 114.0, "overhead {}", slabs.overhead_per_item());
    cache.check_invariants().unwrap();
}

/// The tentpole guarantee: when PAMA decides a slab should move from
/// one size class to another, the arena compacts the victim slab and
/// re-carves it for the receiving class — physical bytes follow the
/// policy. The workload shifts from small, cheap items to large,
/// expensive ones; repeated misses on the ghosted large keys build the
/// incoming value that justifies migration.
#[test]
fn policy_migration_moves_physical_slabs() {
    let cache = CacheBuilder::new()
        .total_bytes(512 << 10)
        .slab_bytes(32 << 10)
        .shards(1)
        .pama(PamaConfig { value_window: 64, migration_cooldown: 16, ..PamaConfig::default() })
        .build();
    // Phase 1: saturate the whole slab budget with small, low-penalty
    // items so the large class cannot simply be granted a free slab —
    // the only way it can grow is by taking one from the small class.
    for i in 0..9_000u64 {
        let _ = cache.set(&key(i), &[1u8; 50], &SetOptions::default());
    }
    let before = cache.report().cache;
    assert!(before.slabs_in_use > 0);
    let slabs_before = cache.report().slabs.unwrap();
    assert_eq!(slabs_before.slabs, slabs_before.max_slabs, "budget must be saturated");
    // Phase 2: a working set of large, high-penalty items. Failed
    // inserts ghost the keys; the next round's misses on those ghosts
    // accumulate incoming value, and once it beats the small class's
    // outgoing value the policy migrates a slab — and the arena must
    // physically follow. The working set (16) must fit inside the
    // class's bounded ghost list ((m+1)·slots_per_slab = 24 here) or
    // every ghost ages out before its re-reference can credit it.
    let big = vec![2u8; 4_000];
    for round in 0..100u64 {
        for k in 0..16u64 {
            let kb = key(1_000_000 + k);
            if cache.get(&kb).is_none() {
                let _ =
                    cache.set(&kb, &big, &SetOptions::new().penalty(SimDuration::from_secs(2)));
            }
        }
        // Keep some small-item traffic flowing so windows advance.
        for k in 0..8u64 {
            let _ = cache.get(&key(round * 8 + k));
        }
    }
    let after = cache.report().cache;
    assert!(
        after.slab_transfers > 0,
        "no physical slab transfer happened (policy migrations should have fired): {after:?}"
    );
    // After all that churn the ledgers still agree exactly.
    cache.check_invariants().unwrap();
    let slabs = cache.report().slabs.unwrap();
    assert_eq!(slabs.transfers, after.slab_transfers);
    assert_eq!(slabs.live_items, after.items);
}

/// The store counts each storage decision once, as it carries it out:
/// every slab grant, every slab move under the band of the donor
/// subclass, and every item that left without a request for its own
/// key as an eviction. Cheap small items fill the cache, then expensive
/// large ones take slabs from them, so every move has the small items'
/// band as its donor.
#[test]
fn the_registry_counts_each_storage_decision_once() {
    let cache = CacheBuilder::new()
        .total_bytes(512 << 10)
        .slab_bytes(32 << 10)
        .shards(1)
        .pama(PamaConfig { value_window: 64, migration_cooldown: 16, ..PamaConfig::default() })
        .build();
    let (cheap, dear) = (SimDuration::from_millis(1), SimDuration::from_secs(2));
    // Requests that made their own key resident, and that made it leave.
    let (mut entered, mut left) = (0u64, 0u64);
    let mut set = |k: &[u8], value: &[u8], penalty| {
        let was = cache.contains(k);
        let _ = cache.set(k, value, &SetOptions::new().penalty(penalty));
        let is = cache.contains(k);
        entered += u64::from(!was && is);
        left += u64::from(was && !is);
    };
    for i in 0..9_000u64 {
        set(&key(i), &[1u8; 50], cheap);
    }
    let big = vec![2u8; 4_000];
    for round in 0..100u64 {
        for k in 0..16u64 {
            let kb = key(1_000_000 + k);
            if cache.get(&kb).is_none() {
                set(&kb, &big, dear);
            }
        }
        for k in 0..8u64 {
            let _ = cache.get(&key(round * 8 + k));
        }
    }
    cache.check_invariants().unwrap();
    let report = cache.report();
    let slabs = report.slabs.expect("the slab ledger is always reported");
    let snap = cache.metrics().expect("the registry is always attached").snapshot();
    assert_eq!(snap.slab_grants, slabs.slabs, "slab grants");
    assert!(slabs.transfers > 0, "the stream must move slabs");
    let moves: Vec<u64> = snap.bands.iter().map(|b| b.slab_moves).collect();
    assert_eq!(moves.iter().sum::<u64>(), slabs.transfers, "slab moves by band: {moves:?}");
    let donor = CacheConfig::default().band_of(cheap);
    assert_ne!(donor, CacheConfig::default().band_of(dear));
    assert_eq!(moves[donor], slabs.transfers, "moves filed under the donor band: {moves:?}");
    assert!(report.cache.evictions > 0, "the stream must evict");
    assert_eq!(report.cache.evictions, entered - left - report.cache.items, "evictions");
}
