//! Multi-threaded oracle tests for the read-mostly cache: the batched
//! APIs must be observationally equivalent to the single-key ones, and
//! concurrent use must converge to the sequential outcome.

use pama_kv::{BandSnapshot, CacheBuilder, PamaCache, SetOptions};
use pama_util::SimDuration;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// Geometry with no eviction pressure for the key counts used here, so
/// equivalence can be asserted exactly (every write must survive).
fn roomy(shards: usize) -> PamaCache {
    CacheBuilder::new().total_bytes(16 << 20).slab_bytes(64 << 10).shards(shards).build()
}

#[test]
fn batched_ops_match_sequential_ops() {
    let seq = roomy(4);
    let bat = roomy(4);
    let keys: Vec<Vec<u8>> = (0..512u32).map(|i| format!("key-{i}").into_bytes()).collect();
    let vals: Vec<Vec<u8>> = (0..512u32).map(|i| format!("val-{i}").into_bytes()).collect();

    // Writes: one at a time vs shard-grouped batches of 64.
    for (k, v) in keys.iter().zip(&vals) {
        seq.set(k, v, &SetOptions::default()).unwrap();
    }
    for (kc, vc) in keys.chunks(64).zip(vals.chunks(64)) {
        let items: Vec<(&[u8], &[u8])> =
            kc.iter().zip(vc).map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        bat.multi_set(&items, &SetOptions::default()).unwrap();
    }

    // Reads: 512 present keys + 64 absent ones, singly vs in batches.
    let probe: Vec<Vec<u8>> = (0..576u32).map(|i| format!("key-{i}").into_bytes()).collect();
    let single: Vec<Option<bytes::Bytes>> = probe.iter().map(|k| seq.get(k)).collect();
    let mut batched = Vec::new();
    for chunk in probe.chunks(64) {
        let refs: Vec<&[u8]> = chunk.iter().map(|k| k.as_slice()).collect();
        batched.extend(bat.multi_get(&refs));
    }
    assert_eq!(single, batched, "multi_get diverged from get");

    let (ss, bs) = (seq.report().cache, bat.report().cache);
    assert_eq!(ss.sets, bs.sets);
    assert_eq!(ss.items, bs.items);
    assert_eq!(ss.hits, bs.hits);
    assert_eq!(ss.misses, bs.misses);
    for k in &probe {
        assert_eq!(seq.contains(k), bat.contains(k));
    }
    seq.check_invariants().unwrap();
    bat.check_invariants().unwrap();

    // Both caches store through the slab arena; their physical ledgers
    // must agree with the logical stats and with each other.
    for (label, cache, stats) in [("seq", &seq, &ss), ("bat", &bat, &bs)] {
        let slabs = cache.report().slabs.expect("arena-backed cache reports slab stats");
        assert_eq!(slabs.live_items, stats.items, "{label}: arena item count drifted");
        assert_eq!(
            slabs.requested_bytes, stats.live_bytes,
            "{label}: arena byte count drifted"
        );
        assert_eq!(slabs.free_slots, stats.arena_free_slots, "{label}: gauge out of date");
    }
}

#[test]
fn striped_band_hits_sum_to_the_hits_sent() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 50;
    const KEYS_PER_BAND: usize = 64;
    // One representative penalty per paper band.
    const PENALTIES_US: [u64; 5] = [500, 5_000, 50_000, 500_000, 3_000_000];

    let cache = roomy(4);
    let keys: Vec<Vec<u8>> = (0..PENALTIES_US.len() * KEYS_PER_BAND)
        .map(|i| format!("band{}-{i}", i / KEYS_PER_BAND).into_bytes())
        .collect();
    for (i, k) in keys.iter().enumerate() {
        let penalty = SimDuration::from_micros(PENALTIES_US[i / KEYS_PER_BAND]);
        cache.set(k, k, &SetOptions::new().penalty(penalty)).unwrap();
    }
    // Every thread reads every key (320 keys cover all four shards),
    // half singly and half batched, all starting together so the
    // threads hit the same shards at once.
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, keys, start) = (&cache, &keys, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    if (round + t) % 2 == 0 {
                        for k in keys {
                            assert!(cache.get(k).is_some(), "resident key missed");
                        }
                    } else {
                        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                        assert!(cache.multi_get(&refs).iter().all(Option::is_some));
                    }
                }
            });
        }
    });

    let sent = (THREADS * ROUNDS * KEYS_PER_BAND) as u64;
    let snap = cache.metrics().expect("the registry is always attached").snapshot();
    let band_hits: Vec<u64> = snap.bands.iter().map(|b| b.hits).collect();
    assert_eq!(band_hits, vec![sent; PENALTIES_US.len()], "a stripe lost or misfiled hits");
    assert_eq!(snap.total_hits(), cache.report().cache.hits);
    assert_eq!(snap.total_misses(), 0);
    // `stats bands` renders each band's summed line; parsing the lines
    // back gives the same counts.
    let parsed: Vec<u64> = snap
        .bands
        .iter()
        .map(|b| BandSnapshot::parse(&b.render()).expect("renderable band line").hits)
        .collect();
    assert_eq!(parsed, band_hits);
}

#[test]
fn concurrent_writers_and_readers_converge_to_sequential_state() {
    const WRITERS: usize = 4;
    const READERS: usize = 3;
    const PER_WRITER: usize = 300;

    let cache = roomy(4);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let cache = &cache;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    let key = format!("w{t}-{i}");
                    let val = format!("v{t}-{i}");
                    cache.set(key.as_bytes(), val.as_bytes(), &SetOptions::default()).unwrap();
                }
            });
        }
        for r in 0..READERS {
            let cache = &cache;
            let done = &done;
            s.spawn(move || {
                // Readers hammer multi_get over a rotating window of
                // keys; every value seen must be the one its writer
                // wrote (never foreign, never torn).
                let mut round = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let owned: Vec<Vec<u8>> = (0..32)
                        .map(|j| format!("w{}-{}", (r + j) % WRITERS, (round + j) % PER_WRITER))
                        .map(String::into_bytes)
                        .collect();
                    let refs: Vec<&[u8]> = owned.iter().map(|k| k.as_slice()).collect();
                    for (k, v) in owned.iter().zip(cache.multi_get(&refs)) {
                        if let Some(v) = v {
                            let expect = String::from_utf8_lossy(k).replacen('w', "v", 1);
                            assert_eq!(v.as_ref(), expect.as_bytes(), "foreign value for key");
                        }
                    }
                    round += 1;
                }
            });
        }
        // Writer handles finish when the scope's non-reader spawns do;
        // signal readers once all writes are visible.
        while cache.report().cache.sets < (WRITERS * PER_WRITER) as u64 {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
    });

    cache.flush();
    let s = cache.report().cache;
    assert_eq!(s.sets, (WRITERS * PER_WRITER) as u64);
    assert_eq!(s.items, (WRITERS * PER_WRITER) as u64, "a write was lost");
    // The sequential oracle: the same writes applied on one thread.
    let oracle = roomy(4);
    for t in 0..WRITERS {
        for i in 0..PER_WRITER {
            oracle
                .set(
                    format!("w{t}-{i}").as_bytes(),
                    format!("v{t}-{i}").as_bytes(),
                    &SetOptions::default(),
                )
                .unwrap();
        }
    }
    for t in 0..WRITERS {
        for i in 0..PER_WRITER {
            let key = format!("w{t}-{i}");
            let expect = format!("v{t}-{i}");
            assert_eq!(
                cache.get(key.as_bytes()).as_deref(),
                Some(expect.as_bytes()),
                "key {key} lost or corrupted"
            );
            assert_eq!(oracle.get(key.as_bytes()).as_deref(), Some(expect.as_bytes()));
        }
    }
    cache.check_invariants().unwrap();
    oracle.check_invariants().unwrap();
    // After identical write sets, the concurrent cache's arena must
    // account for exactly the same payload as the sequential oracle's.
    let (cs, os) = (cache.report().slabs.unwrap(), oracle.report().slabs.unwrap());
    assert_eq!(cs.live_items, os.live_items);
    assert_eq!(cs.requested_bytes, os.requested_bytes);
    assert_eq!(cs.live_items, s.items);
}
