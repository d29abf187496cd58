//! Property-based tests for the embeddable cache: semantic guarantees
//! against a reference map under arbitrary op sequences.

use pama_core::policy::PamaConfig;
use pama_kv::{CacheBuilder, SetOptions};
use pama_util::SimDuration;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum KvOp {
    Set { key: u8, len: u16 },
    Get { key: u8 },
    Delete { key: u8 },
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        3 => (any::<u8>(), 1u16..2000).prop_map(|(key, len)| KvOp::Set { key, len }),
        4 => any::<u8>().prop_map(|key| KvOp::Get { key }),
        1 => any::<u8>().prop_map(|key| KvOp::Delete { key }),
    ]
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key-{k:03}").into_bytes()
}

#[derive(Debug, Clone)]
enum ArenaOp {
    Set { key: u8, value_len: usize },
    Get { key: u8 },
    Delete { key: u8 },
}

/// Value sizes that straddle slot-size boundaries: for class `c`
/// (slot = 64·2^c) the total item size lands within ±2 bytes of the
/// boundary, so neighbouring draws fall on either side of the class
/// split. `key-###` keys are 7 bytes.
fn boundary_len() -> impl Strategy<Value = usize> {
    (0u32..6, -2i64..3).prop_map(|(class, delta)| {
        let slot = 64i64 << class;
        (slot + delta - 7).max(1) as usize
    })
}

fn arena_op() -> impl Strategy<Value = ArenaOp> {
    prop_oneof![
        3 => (any::<u8>(), boundary_len())
            .prop_map(|(key, value_len)| ArenaOp::Set { key, value_len }),
        1 => (any::<u8>(), 1usize..3000)
            .prop_map(|(key, value_len)| ArenaOp::Set { key, value_len }),
        4 => any::<u8>().prop_map(|key| ArenaOp::Get { key }),
        1 => any::<u8>().prop_map(|key| ArenaOp::Delete { key }),
    ]
}

#[derive(Debug, Clone)]
enum DeferredOp {
    Set { key: u8, len: u16 },
    Get { key: u8 },
    MultiGet { keys: Vec<u8> },
    MultiSet { keys: Vec<u8>, len: u16 },
    Delete { key: u8 },
    Flush,
}

fn deferred_op() -> impl Strategy<Value = DeferredOp> {
    prop_oneof![
        3 => (any::<u8>(), 1u16..2000).prop_map(|(key, len)| DeferredOp::Set { key, len }),
        4 => any::<u8>().prop_map(|key| DeferredOp::Get { key }),
        2 => prop::collection::vec(any::<u8>(), 1..20)
            .prop_map(|keys| DeferredOp::MultiGet { keys }),
        2 => (prop::collection::vec(any::<u8>(), 1..12), 1u16..1500)
            .prop_map(|(keys, len)| DeferredOp::MultiSet { keys, len }),
        1 => any::<u8>().prop_map(|key| DeferredOp::Delete { key }),
        1 => Just(DeferredOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cache may evict anything under pressure, but it must never
    /// return a *wrong* value: every successful GET matches the last
    /// SET for that key, and deleted keys never reappear until re-set.
    #[test]
    fn gets_never_return_stale_or_foreign_values(
        ops in prop::collection::vec(kv_op(), 1..400)
    ) {
        let cache = CacheBuilder::new()
            .total_bytes(256 << 10)
            .slab_bytes(16 << 10)
            .shards(2)
            .build();
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                KvOp::Set { key, len } => {
                    let value = vec![key; usize::from(len)];
                    let _ = cache.set(&key_bytes(key), &value, &SetOptions::default());
                    model.insert(key, value);
                }
                KvOp::Get { key } => {
                    if let Some(got) = cache.get(&key_bytes(key)) {
                        match model.get(&key) {
                            Some(expect) => prop_assert_eq!(
                                got.as_ref(),
                                &expect[..],
                                "wrong bytes for key {}",
                                key
                            ),
                            None => prop_assert!(
                                false,
                                "key {} returned after delete/never-set",
                                key
                            ),
                        }
                    }
                }
                KvOp::Delete { key } => {
                    cache.delete(&key_bytes(key));
                    model.remove(&key);
                    prop_assert!(cache.get(&key_bytes(key)).is_none());
                }
            }
        }
    }

    /// Byte accounting: stats' live_bytes equals the sum of the keys
    /// and values the cache still claims to contain.
    #[test]
    fn stats_counts_are_coherent(ops in prop::collection::vec(kv_op(), 1..200)) {
        let cache = CacheBuilder::new()
            .total_bytes(128 << 10)
            .slab_bytes(16 << 10)
            .shards(1)
            .build();
        let mut sets = 0u64;
        let mut gets = 0u64;
        for op in &ops {
            match op {
                KvOp::Set { key, len } => {
                    let _ = cache.set(&key_bytes(*key), &vec![0u8; usize::from(*len)], &SetOptions::default());
                    sets += 1;
                }
                KvOp::Get { key } => {
                    let _ = cache.get(&key_bytes(*key));
                    gets += 1;
                }
                KvOp::Delete { key } => {
                    cache.delete(&key_bytes(*key));
                }
            }
        }
        let s = cache.report().cache;
        prop_assert_eq!(s.sets, sets);
        prop_assert_eq!(s.hits + s.misses, gets);
        // live accounting: recount by probing all possible keys
        let mut items = 0u64;
        for k in 0u8..=255 {
            if cache.contains(&key_bytes(k)) {
                items += 1;
            }
        }
        prop_assert_eq!(s.items, items);
    }

    /// Log-deferred promotion never loses an entry or double-frees a
    /// slot: under arbitrary op sequences with flushes at arbitrary
    /// points (forcing batched drains of the deferred-hit log), every
    /// GET still returns the last-written value, the policy's slot
    /// accounting stays internally consistent, and the byte store
    /// agrees with the policy item-for-item.
    #[test]
    fn deferred_promotion_never_loses_entries_or_slots(
        ops in prop::collection::vec(deferred_op(), 1..300)
    ) {
        let cache = CacheBuilder::new()
            .total_bytes(256 << 10)
            .slab_bytes(16 << 10)
            .shards(2)
            .build();
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                DeferredOp::Set { key, len } => {
                    let value = vec![key; usize::from(len)];
                    let _ = cache.set(&key_bytes(key), &value, &SetOptions::default());
                    model.insert(key, value);
                }
                DeferredOp::Get { key } => {
                    if let Some(got) = cache.get(&key_bytes(key)) {
                        let expect = model.get(&key);
                        prop_assert!(expect.is_some(), "key {} returned after delete", key);
                        prop_assert_eq!(got.as_ref(), &expect.unwrap()[..]);
                    }
                }
                DeferredOp::MultiGet { keys } => {
                    let owned: Vec<Vec<u8>> = keys.iter().map(|&k| key_bytes(k)).collect();
                    let refs: Vec<&[u8]> = owned.iter().map(|k| k.as_slice()).collect();
                    for (&k, got) in keys.iter().zip(cache.multi_get(&refs)) {
                        if let Some(got) = got {
                            let expect = model.get(&k);
                            prop_assert!(expect.is_some(), "key {} returned after delete", k);
                            prop_assert_eq!(got.as_ref(), &expect.unwrap()[..]);
                        }
                    }
                }
                DeferredOp::MultiSet { keys, len } => {
                    let value = vec![0xAB; usize::from(len)];
                    let owned: Vec<Vec<u8>> = keys.iter().map(|&k| key_bytes(k)).collect();
                    let items: Vec<(&[u8], &[u8])> =
                        owned.iter().map(|k| (k.as_slice(), &value[..])).collect();
                    let _ = cache.multi_set(&items, &SetOptions::default());
                    for &k in &keys {
                        model.insert(k, value.clone());
                    }
                }
                DeferredOp::Delete { key } => {
                    cache.delete(&key_bytes(key));
                    model.remove(&key);
                }
                DeferredOp::Flush => cache.flush(),
            }
            // The store/policy cross-check is the "no lost entry, no
            // double-freed slot" oracle; run it mid-sequence so a
            // transient divergence can't heal before the end.
            cache.check_invariants().map_err(TestCaseError::fail)?;
        }
        // Item accounting survives the whole sequence.
        let mut items = 0u64;
        for k in 0u8..=255 {
            if cache.contains(&key_bytes(k)) {
                items += 1;
            }
        }
        prop_assert_eq!(cache.report().cache.items, items);
    }

    /// Arena lockstep: under random set/get/delete sequences — with
    /// value sizes deliberately straddling slot-size boundaries, so
    /// items land one byte either side of a class split — the slab
    /// arena's accounting stays in lockstep with a plain-HashMap
    /// oracle and with the policy ledger. `check_invariants` is the
    /// per-op oracle (every index entry points at a live slot of the
    /// right class, free + live slots cover every slab, per-class slab
    /// counts match the policy); the end-state check recounts items
    /// and bytes through `report().slabs`.
    #[test]
    fn arena_accounting_stays_in_lockstep_with_oracle(
        ops in prop::collection::vec(arena_op(), 1..250)
    ) {
        let cache = CacheBuilder::new()
            .total_bytes(256 << 10)
            .slab_bytes(16 << 10)
            .shards(1)
            .pama(PamaConfig {
                // Aggressive windows so ghost evidence accumulates and
                // cross-class migrations (physical slab transfers)
                // actually fire inside short sequences.
                value_window: 64,
                migration_cooldown: 4,
                ..PamaConfig::default()
            })
            .build();
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                ArenaOp::Set { key, value_len } => {
                    let value = vec![key ^ 0x5A; value_len];
                    let _ = cache.set(&key_bytes(key), &value, &SetOptions::default());
                    model.insert(key, value);
                }
                ArenaOp::Get { key } => {
                    if let Some(got) = cache.get(&key_bytes(key)) {
                        match model.get(&key) {
                            Some(expect) => prop_assert_eq!(
                                got.as_ref(),
                                &expect[..],
                                "wrong bytes for key {} out of the arena",
                                key
                            ),
                            None => prop_assert!(false, "key {} rose from the dead", key),
                        }
                    }
                }
                ArenaOp::Delete { key } => {
                    cache.delete(&key_bytes(key));
                    model.remove(&key);
                    prop_assert!(cache.get(&key_bytes(key)).is_none());
                }
            }
            cache.check_invariants().map_err(TestCaseError::fail)?;
        }
        // End state: the slab ledger agrees with the arena fields
        // `report()` fills into the stats, and with a full recount.
        let r = cache.report();
        let stats = r.cache;
        let slabs = r.slabs.expect("the slab ledger is always reported");
        prop_assert_eq!(slabs.live_items, stats.items);
        prop_assert_eq!(slabs.requested_bytes, stats.live_bytes);
        prop_assert_eq!(slabs.slabs, stats.slabs_in_use);
        prop_assert_eq!(slabs.free_slots, stats.arena_free_slots);
        prop_assert_eq!(slabs.slot_bytes, stats.arena_slot_bytes);
        prop_assert_eq!(slabs.internal_frag_bytes(), stats.internal_frag_bytes());
        prop_assert!(slabs.slot_bytes >= slabs.requested_bytes);
        let decile_total: u64 = slabs.occupancy_deciles.iter().sum();
        prop_assert_eq!(decile_total, slabs.slabs);
        let class_items: u64 = slabs.classes.iter().map(|c| c.live_slots).sum();
        prop_assert_eq!(class_items, stats.items);
    }

    /// TTL: entries never outlive their TTL as observed through `get`.
    #[test]
    fn ttl_zero_is_immediately_expired(keys in prop::collection::vec(any::<u8>(), 1..30)) {
        let cache = CacheBuilder::new()
            .total_bytes(128 << 10)
            .slab_bytes(16 << 10)
            .shards(1)
            .build();
        for &k in &keys {
            let _ = cache.set(&key_bytes(k), b"v", &SetOptions::new().ttl(SimDuration::ZERO));
            prop_assert!(cache.get(&key_bytes(k)).is_none(), "TTL=0 entry visible");
        }
    }
}
