//! Property-based integration tests: random op sequences against every
//! policy must preserve cache invariants and basic cache semantics
//! (reference-model checked).

use pama::core::cache::BaseCache;
use pama::core::config::{CacheConfig, Tick};
use pama::core::policy::{
    FacebookAge, LamaLite, MemcachedOriginal, Pama, Policy, Psa, Twemcache,
};
use pama::trace::{Op, Request};
use pama::util::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

fn tiny_cache() -> CacheConfig {
    CacheConfig {
        total_bytes: 64 << 10, // 16 slabs
        slab_bytes: 4 << 10,
        min_slot: 64,
        ..CacheConfig::default()
    }
}

#[derive(Debug, Clone)]
struct OpSpec {
    op: Op,
    key: u64,
    value_size: u32,
    penalty_ms: u64,
}

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    (
        prop_oneof![
            8 => Just(Op::Get),
            2 => Just(Op::Set),
            1 => Just(Op::Delete),
            1 => Just(Op::Replace),
        ],
        0u64..40,
        1u32..3500,
        1u64..5_000,
    )
        .prop_map(|(op, key, value_size, penalty_ms)| OpSpec {
            op,
            key,
            value_size,
            penalty_ms,
        })
}

fn drive(policy: &mut dyn Policy, ops: &[OpSpec]) {
    for (i, o) in ops.iter().enumerate() {
        let t = Tick { now: SimTime::from_micros(i as u64 * 13), serial: i as u64 };
        let req = Request {
            time: t.now,
            op: o.op,
            key: o.key,
            key_size: 16,
            value_size: if o.op == Op::Delete { 0 } else { o.value_size },
            penalty_us: o.penalty_ms * 1000,
        };
        match o.op {
            Op::Get => {
                policy.on_get(&req, t);
            }
            Op::Set => policy.on_set(&req, t),
            Op::Delete => policy.on_delete(&req, t),
            Op::Replace => policy.on_replace(&req, t),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_policies_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mk: Vec<(&str, Box<dyn Policy + Send>)> = vec![
            ("memcached", Box::new(MemcachedOriginal::new(tiny_cache()))),
            ("psa", Box::new(Psa::with_period(tiny_cache(), 7))),
            ("psa-unguarded", Box::new(Psa::unguarded(tiny_cache(), 7))),
            ("pama", Box::new(Pama::new(tiny_cache()))),
            ("pre-pama", Box::new(Pama::pre_pama(tiny_cache()))),
            ("facebook", Box::new(FacebookAge::with_period(tiny_cache(), 11))),
            ("twemcache", Box::new(Twemcache::new(tiny_cache()))),
            ("lama", Box::new(LamaLite::with_params(
                tiny_cache(),
                pama::core::policy::lama::LamaObjective::ServiceTime,
                50,
                4,
            ))),
        ];
        for (name, mut policy) in mk {
            drive(policy.as_mut(), &ops);
            policy
                .cache()
                .check_invariants()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn delete_really_deletes(ops in prop::collection::vec(op_strategy(), 1..200), key in 0u64..40) {
        let mut p = Pama::new(tiny_cache());
        drive(&mut p, &ops);
        let t = Tick { now: SimTime::from_millis(999), serial: 0 };
        p.on_delete(&Request::delete(t.now, key, 16), t);
        prop_assert!(!p.cache().contains(key));
    }

    #[test]
    fn get_after_fill_hits(key in 0u64..1000, vs in 1u32..3000, pen in 1u64..4000) {
        let mut p = Pama::new(tiny_cache());
        let t = Tick { now: SimTime::ZERO, serial: 0 };
        let req = Request::get(t.now, key, 16, vs)
            .with_penalty(SimDuration::from_millis(pen));
        let first = p.on_get(&req, t);
        prop_assert!(!first.hit);
        if first.filled {
            prop_assert!(p.on_get(&req, t).hit);
        }
    }

    #[test]
    fn resident_set_respects_semantics(ops in prop::collection::vec(op_strategy(), 1..300)) {
        // Reference model: the set of keys that *must* be absent
        // (deleted and never re-added). Presence is policy-dependent
        // (evictions), absence after DELETE is not.
        let mut p = MemcachedOriginal::new(tiny_cache());
        let mut deleted: HashMap<u64, bool> = HashMap::new();
        for (i, o) in ops.iter().enumerate() {
            let t = Tick { now: SimTime::from_micros(i as u64), serial: i as u64 };
            let req = Request {
                time: t.now,
                op: o.op,
                key: o.key,
                key_size: 16,
                value_size: o.value_size,
                penalty_us: o.penalty_ms * 1000,
            };
            match o.op {
                Op::Get => {
                    p.on_get(&req, t);
                    deleted.insert(o.key, false);
                }
                Op::Set => {
                    p.on_set(&req, t);
                    deleted.insert(o.key, false);
                }
                Op::Delete => {
                    p.on_delete(&req, t);
                    deleted.insert(o.key, true);
                }
                Op::Replace => {
                    p.on_replace(&req, t);
                }
            }
        }
        for (&k, &is_deleted) in &deleted {
            if is_deleted {
                prop_assert!(!p.cache().contains(k), "deleted key {k} still cached");
            }
        }
    }

    #[test]
    fn base_cache_matches_naive_byte_accounting(
        inserts in prop::collection::vec((0u64..500, 1u32..3500), 1..150)
    ) {
        let mut cache = BaseCache::new(tiny_cache(), 1);
        let mut live: HashMap<u64, u32> = HashMap::new();
        for &(key, vs) in &inserts {
            if cache.contains(key) {
                cache.remove(key);
                live.remove(&key);
            }
            let cfg = cache.cfg().clone();
            if let Some(class) = cfg.class_of(16, vs) {
                let meta = pama::core::cache::ItemMeta {
                    key,
                    key_size: 16,
                    value_size: vs,
                    class: class as u32,
                    ..Default::default()
                };
                if !matches!(cache.insert(meta), pama::core::cache::InsertOutcome::NoSpace) {
                    live.insert(key, vs);
                }
            }
        }
        prop_assert_eq!(cache.len(), live.len());
        let expect: u64 = live.iter().map(|(_, &v)| 16 + u64::from(v)).sum();
        let live_bytes: u64 = (0..cache.num_classes())
            .flat_map(|c| cache.items(c, 0))
            .map(|m| u64::from(m.key_size) + u64::from(m.value_size))
            .sum();
        prop_assert_eq!(live_bytes, expect);
        cache.check_invariants().unwrap();
    }
}
