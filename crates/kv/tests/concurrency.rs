//! Multi-threaded oracle tests for the read-mostly cache: the batched
//! APIs must be observationally equivalent to the single-key ones, and
//! concurrent use must converge to the sequential outcome.

use pama_core::policy::PamaConfig;
use pama_kv::{BandSnapshot, CacheBuilder, PamaCache, SetOptions};
use pama_util::SimDuration;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

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

/// A reader parked inside a `lookup_with` visitor holds its shard's
/// data read lock. On the same shard, a GET miss of an absent key and a
/// `flush` that drains logged hits take the policy lock and at most a
/// data read, so both complete while the reader stays parked. A miss or
/// a drain that took the data write lock would wait for the reader: the
/// test then times out, unparks the reader and fails instead of hanging.
#[test]
fn a_parked_reader_holds_up_neither_a_miss_nor_a_drain() {
    const HOT: usize = 32;
    let cache = CacheBuilder::new().total_bytes(4 << 20).slab_bytes(64 << 10).shards(1).build();
    cache.set(b"parked", b"value", &SetOptions::default()).unwrap();
    let keys: Vec<Vec<u8>> = (0..HOT).map(|i| format!("hot-{i}").into_bytes()).collect();
    for k in &keys {
        cache.set(k, k, &SetOptions::default()).unwrap();
    }
    // Hits logged for the drain; the write lock of the last SET drained
    // nothing, so these are all still pending.
    for k in &keys {
        assert!(cache.get(k).is_some());
    }
    let before = cache.report().cache;
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let cache = &cache;
        s.spawn(move || {
            let seen = cache.lookup_with(b"parked", |v| {
                parked_tx.send(()).unwrap();
                // Parked, holding the data read lock, until released.
                let _ = release_rx.recv_timeout(Duration::from_secs(60));
                v.value.to_vec()
            });
            assert_eq!(seen.as_deref(), Some(&b"value"[..]));
        });
        parked_rx.recv_timeout(Duration::from_secs(10)).expect("the reader never parked");
        s.spawn(move || {
            assert!(cache.get(b"absent").is_none());
            cache.flush();
            done_tx.send(()).unwrap();
        });
        let finished = done_rx.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).unwrap();
        assert!(finished.is_ok(), "a miss or a drain waited for a parked reader");
    });
    let after = cache.report().cache;
    assert_eq!(after.misses, before.misses + 1);
    // The flush applied the hot keys' hits and the parked reader's.
    assert_eq!(after.deferred_hits, before.deferred_hits + HOT as u64 + 1);
    cache.check_invariants().unwrap();
}

/// A self-describing value: `<id>:<version>:<len>;` in fixed-width hex,
/// then filler that depends on all three, so a value torn between two
/// writes, or another key's, fails [`check_value`].
fn render(id: u64, version: u32, len: usize) -> Vec<u8> {
    let mut v = format!("{id:08x}:{version:08x}:{len:08x};").into_bytes();
    let seed = id.wrapping_mul(31).wrapping_add(u64::from(version));
    v.extend((v.len()..len).map(|i| b'a' + (seed.wrapping_add(i as u64) % 26) as u8));
    v
}

/// The version of a value of key `id` that [`render`] wrote, or why it
/// is not one.
fn check_value(id: u64, value: &[u8]) -> Result<u32, String> {
    let text = |r: std::ops::Range<usize>| {
        let field = value.get(r).ok_or("value shorter than its header")?;
        let field = std::str::from_utf8(field).map_err(|e| e.to_string())?;
        u64::from_str_radix(field, 16).map_err(|e| e.to_string())
    };
    let (got_id, version, len) = (text(0..8)?, text(9..17)?, text(18..26)?);
    if got_id != id {
        return Err(format!("key {id:x} holds key {got_id:x}'s value"));
    }
    if len as usize != value.len() {
        return Err(format!("key {id:x}: header says {len} bytes, value has {}", value.len()));
    }
    if render(id, version as u32, value.len()) != value {
        return Err(format!("key {id:x} version {version}: torn value"));
    }
    Ok(version as u32)
}

/// Two readers check every hit's value while two writers churn a
/// one-shard cache small enough that SETs evict and slabs move from the
/// small class to the large one: each reader sees only whole values of
/// the key it asked for, never a version its writer has not begun.
#[test]
fn readers_see_whole_values_while_writers_evict_and_move_slabs() {
    const SMALL: u64 = 9_000;
    const LARGE: u64 = 16;
    const ROUNDS: u64 = 100;
    let cache = CacheBuilder::new()
        .total_bytes(512 << 10)
        .slab_bytes(32 << 10)
        .shards(1)
        .pama(PamaConfig { value_window: 64, migration_cooldown: 16, ..PamaConfig::default() })
        .build();
    let key = |id: u64| format!("key-{id:08}").into_bytes();
    let small_len = |id: u64, v: u32| 50 + ((id + u64::from(v)) % 40) as usize;
    // Versions begun per key: a writer bumps the key's version before
    // its SET, so a reader never sees a later one.
    let begun: Vec<AtomicU32> = (0..SMALL + LARGE).map(|_| AtomicU32::new(0)).collect();
    // The small class takes every slab first, so that the large class
    // can only grow by taking one from it.
    for id in 0..SMALL {
        begun[id as usize].store(1, Ordering::Release);
        let _ = cache.set(&key(id), &render(id, 1, small_len(id, 1)), &SetOptions::default());
    }
    let before = cache.report().cache;
    let writers_left = std::sync::atomic::AtomicUsize::new(2);
    let checked = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        let (cache, begun, key) = (&cache, &begun, &key);
        let (writers_left, checked) = (&writers_left, &checked);
        let write = move |id: u64, len: &dyn Fn(u32) -> usize, opts: &SetOptions| {
            let v = begun[id as usize].fetch_add(1, Ordering::AcqRel) + 1;
            let _ = cache.set(&key(id), &render(id, v, len(v)), opts);
        };
        // Writer one: the small keys, rewritten across class-sized
        // lengths, plus GETs that keep the value windows moving.
        s.spawn(move || {
            for round in 0..ROUNDS * 40 {
                let id = (round * 7_919) % SMALL;
                write(id, &|v| small_len(id, v), &SetOptions::default());
                let _ = cache.get(&key((round * 13) % SMALL));
            }
            writers_left.fetch_sub(1, Ordering::Release);
        });
        // Writer two: a working set of large, expensive keys, each
        // missed and then stored. Refused SETs ghost the keys, and the
        // misses that follow credit the large class until the policy
        // migrates a slab to it.
        s.spawn(move || {
            let expensive = SetOptions::new().penalty(SimDuration::from_secs(2));
            for _ in 0..ROUNDS {
                for id in SMALL..SMALL + LARGE {
                    if cache.get(&key(id)).is_none() {
                        write(id, &|_| 4_000, &expensive);
                    }
                }
            }
            writers_left.fetch_sub(1, Ordering::Release);
        });
        for r in 0..2u64 {
            s.spawn(move || {
                let mut i = r;
                while writers_left.load(Ordering::Acquire) > 0 {
                    i += 1;
                    let id = if i % 3 == 0 { SMALL + i % LARGE } else { (i * 104_729) % SMALL };
                    // One reader checks the bytes in place, under the
                    // read lock; the other checks a copy.
                    let seen = if r == 0 {
                        cache.lookup_with(&key(id), |v| check_value(id, v.value))
                    } else {
                        cache.get(&key(id)).map(|v| check_value(id, &v))
                    };
                    if let Some(seen) = seen {
                        let version = seen.unwrap_or_else(|e| panic!("{e}"));
                        let begun = begun[id as usize].load(Ordering::Acquire);
                        assert!(
                            version <= begun,
                            "key {id}: version {version} of {begun} begun"
                        );
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let after = cache.report().cache;
    assert!(checked.load(Ordering::Relaxed) > 0, "the readers checked no hit");
    assert!(after.evictions > before.evictions, "the writers never evicted");
    assert!(
        after.slab_transfers > before.slab_transfers,
        "no slab moved between classes: {after:?}"
    );
    cache.check_invariants().unwrap();
}
