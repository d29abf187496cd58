//! Property-based tests for the core crate's data structures: the LRU
//! arena model-checked against a reference deque, the cache substrate
//! against a byte-accounting model, the reuse tracker against naive
//! Mattson stack distances, and segment-tracker bookkeeping.

use pama_core::cache::{BaseCache, ItemMeta};
use pama_core::config::CacheConfig;
use pama_core::lru::LruList;
use pama_core::reuse::ReuseTracker;
use pama_core::segments::{MembershipMode, SubclassTracker};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Ops for the LRU model check.
#[derive(Debug, Clone)]
enum LruOp {
    PushFront(u32),
    Touch(usize),
    Remove(usize),
    PopBack,
}

/// Ops for the node-tag model check.
#[derive(Debug, Clone)]
enum TagOp {
    Push,
    Hit(usize, f64),
    Evict,
    Remove(usize),
    Update(usize),
    Rebuild,
}

fn tag_op() -> impl Strategy<Value = TagOp> {
    prop_oneof![
        4 => Just(TagOp::Push),
        4 => (any::<prop::sample::Index>(), 0.001f64..10.0)
            .prop_map(|(i, w)| TagOp::Hit(i.index(64), w)),
        1 => Just(TagOp::Evict),
        1 => any::<prop::sample::Index>().prop_map(|i| TagOp::Remove(i.index(64))),
        2 => any::<prop::sample::Index>().prop_map(|i| TagOp::Update(i.index(64))),
        1 => Just(TagOp::Rebuild),
    ]
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    prop_oneof![
        4 => any::<u32>().prop_map(LruOp::PushFront),
        3 => any::<prop::sample::Index>().prop_map(|i| LruOp::Touch(i.index(64))),
        2 => any::<prop::sample::Index>().prop_map(|i| LruOp::Remove(i.index(64))),
        1 => Just(LruOp::PopBack),
    ]
}

proptest! {
    #[test]
    fn lru_list_matches_reference_deque(ops in prop::collection::vec(lru_op(), 1..300)) {
        let mut lru = LruList::new();
        let mut model: VecDeque<u32> = VecDeque::new(); // front = MRU
        // live: (handle, value) pairs in no particular order; the model
        // holds values in recency order.
        let mut live: Vec<(pama_core::lru::NodeRef, u32)> = Vec::new();

        for op in ops {
            match op {
                LruOp::PushFront(v) => {
                    let h = lru.push_front(v);
                    live.push((h, v));
                    model.push_front(v);
                }
                LruOp::Touch(i) => {
                    if !live.is_empty() {
                        let (h, v) = live[i % live.len()];
                        lru.move_to_front(h);
                        let pos = model.iter().position(|&x| x == v).unwrap();
                        model.remove(pos);
                        model.push_front(v);
                    }
                }
                LruOp::Remove(i) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let (h, v) = live.swap_remove(idx);
                        let got = lru.remove(h);
                        prop_assert_eq!(got, v);
                        let pos = model.iter().position(|&x| x == v).unwrap();
                        model.remove(pos);
                    }
                }
                LruOp::PopBack => {
                    let got = lru.pop_back();
                    let expect = model.pop_back();
                    prop_assert_eq!(got, expect);
                    if let Some(v) = got {
                        let pos = live.iter().position(|&(_, x)| x == v).unwrap();
                        live.swap_remove(pos);
                    }
                }
            }
            prop_assert_eq!(lru.len(), model.len());
        }
        // Final order check front→back.
        let got: Vec<u32> = lru.iter().copied().collect();
        let expect: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, expect);
        lru.check_invariants().unwrap();
    }

    #[test]
    fn cache_slab_ledger_is_conserved(
        ops in prop::collection::vec((0u64..100, 1u32..4000, 0u8..3), 1..300)
    ) {
        let cfg = CacheConfig {
            total_bytes: 64 << 10,
            slab_bytes: 4 << 10,
            min_slot: 64,
            ..CacheConfig::default()
        };
        let total = cfg.total_slabs();
        let mut cache = BaseCache::new(cfg.clone(), 2);
        for (key, vs, action) in ops {
            match action {
                0 => {
                    if !cache.contains(key) {
                        if let Some(class) = cfg.class_of(16, vs) {
                            let meta = ItemMeta {
                                key,
                                key_size: 16,
                                value_size: vs,
                                class: class as u32,
                                band: (key % 2) as u32,
                                ..ItemMeta::default()
                            };
                            let _ = cache.insert(meta);
                        }
                    }
                }
                1 => {
                    cache.remove(key);
                }
                _ => {
                    let class = (key % cfg.num_classes() as u64) as usize;
                    let band = (key % 2) as usize;
                    if cache.class(class).slabs > 0 {
                        cache.reclaim_slab_from(class, band, |_| {});
                    }
                }
            }
            let assigned: usize =
                (0..cache.num_classes()).map(|c| cache.class(c).slabs).sum();
            prop_assert_eq!(assigned + cache.free_slabs(), total);
        }
        cache.check_invariants().unwrap();
    }

    #[test]
    fn reuse_tracker_matches_naive_stack_distance(
        accesses in prop::collection::vec(0u64..24, 1..300)
    ) {
        let mut tracker = ReuseTracker::new(4096); // large: no forgetting
        let mut stack: Vec<u64> = Vec::new(); // front = MRU
        for &k in &accesses {
            let expect = stack.iter().position(|&x| x == k);
            let got = tracker.access(k);
            match expect {
                None => prop_assert_eq!(got, None),
                Some(d) => prop_assert_eq!(got, Some(d as u64)),
            }
            stack.retain(|&x| x != k);
            stack.insert(0, k);
        }
    }

    #[test]
    fn segment_tracker_values_equal_weighted_sums(
        hits in prop::collection::vec((0usize..3, 0.001f64..10.0), 0..50)
    ) {
        let mut t = SubclassTracker::new(2, 8, MembershipMode::Exact);
        // Segments bottom-up: seg i holds keys [i*100, i*100+8).
        let mut queue = LruList::new();
        let mut nodes = HashMap::new();
        for k in (0..3u64).flat_map(|i| (0..8).map(move |j| i * 100 + j)) {
            nodes.insert(k, queue.push_front(k));
        }
        t.rebuild(&mut queue, |&k| k);
        let mut expect = [0.0f64; 3];
        let mut used: HashMap<u64, bool> = HashMap::new();
        for (seg, w) in hits {
            // pick the first un-hit key of the segment, if any
            let key = (0..8).map(|j| (seg * 100 + j) as u64).find(|k| !used.contains_key(k));
            if let Some(k) = key {
                used.insert(k, true);
                queue.move_to_front(nodes[&k]);
                let got = t.on_hit(&mut queue, nodes[&k], k, w);
                prop_assert_eq!(got, Some(seg));
                expect[seg] += w;
            }
        }
        let want: f64 =
            expect.iter().enumerate().map(|(i, v)| v / f64::from(1u32 << (i + 1))).sum();
        prop_assert!((t.outgoing() - want).abs() < 1e-9);
    }

    #[test]
    fn node_tags_credit_like_a_key_map(
        ops in prop::collection::vec(tag_op(), 1..300),
        m in 0usize..3,
        spslab in 1usize..5,
    ) {
        // One subclass driven the way PAMA drives it, against the
        // key → segment map the tags replaced: the map is refilled at
        // each rebuild from the bottom (m+1)·spslab keys, and a key
        // leaves it on a hit, an eviction or a removal — not on an
        // in-place update.
        let mut t = SubclassTracker::new(m, spslab, MembershipMode::Exact);
        let mut queue: LruList<u64> = LruList::new();
        let mut live: Vec<(u64, pama_core::lru::NodeRef)> = Vec::new();
        let mut model: HashMap<u64, usize> = HashMap::new();
        let mut vals = vec![0.0f64; m + 1];
        let mut next_key = 0u64;
        for op in ops {
            match op {
                TagOp::Push => {
                    live.push((next_key, queue.push_front(next_key)));
                    next_key += 1;
                }
                TagOp::Hit(i, w) if !live.is_empty() => {
                    let (k, node) = live[i % live.len()];
                    queue.move_to_front(node);
                    let got = t.on_hit(&mut queue, node, k, w);
                    let want = model.remove(&k);
                    prop_assert_eq!(got, want, "key {}", k);
                    if let Some(seg) = want {
                        vals[seg] += w;
                    }
                }
                TagOp::Evict => {
                    if let Some(k) = queue.pop_back() {
                        live.retain(|&(lk, _)| lk != k);
                        t.on_evict(k);
                        model.remove(&k);
                    }
                }
                TagOp::Remove(i) if !live.is_empty() => {
                    let (k, node) = live.swap_remove(i % live.len());
                    queue.remove(node);
                    t.on_remove(k);
                    model.remove(&k);
                }
                TagOp::Update(i) if !live.is_empty() => {
                    queue.move_to_front(live[i % live.len()].1);
                }
                TagOp::Rebuild => {
                    t.rebuild(&mut queue, |&k| k);
                    model = queue
                        .iter_from_back((m + 1) * spslab)
                        .enumerate()
                        .map(|(pos, &k)| (k, pos / spslab))
                        .collect();
                    for v in &mut vals {
                        *v *= 0.5;
                    }
                }
                _ => {}
            }
            prop_assert_eq!(t.stack_values(), &vals[..]);
            let want: f64 =
                vals.iter().enumerate().map(|(i, v)| v / f64::from(1u32 << (i + 1))).sum();
            prop_assert_eq!(t.outgoing().to_bits(), want.to_bits());
        }
        queue.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn insert_never_overfills_capacity(
        items in prop::collection::vec((any::<u64>(), 1u32..4000), 1..200)
    ) {
        let cfg = CacheConfig {
            total_bytes: 16 << 10,
            slab_bytes: 4 << 10,
            min_slot: 64,
            ..CacheConfig::default()
        };
        let mut cache = BaseCache::new(cfg.clone(), 1);
        for (key, vs) in items {
            if cache.contains(key) {
                continue;
            }
            if let Some(class) = cfg.class_of(16, vs) {
                let meta = ItemMeta {
                    key,
                    key_size: 16,
                    value_size: vs,
                    class: class as u32,
                    ..ItemMeta::default()
                };
                // NoSpace is allowed (cache full); the class
                // invariant below must hold regardless.
                let _ = cache.insert(meta);
            }
            for c in 0..cache.num_classes() {
                prop_assert!(cache.class(c).used_slots <= cache.capacity(c));
            }
        }
        cache.check_invariants().unwrap();
    }
}
