//! `repro perf` — throughput and hit-latency benchmark for `pama-kv`.
//!
//! Measures single- and multi-threaded GET/SET throughput (1/2/4/8
//! threads, zipfian keys), batched `multi_get` throughput, hit-path
//! latency percentiles, and the latency tail of a mixed cell. Hits run
//! under the shard's shared data lock and defer promotion through the
//! lock-free access log.
//!
//! The mixed cell is the contended pattern: two threads, 95% GETs and
//! 5% same-size SET overwrites. Each SET takes its shard's policy lock
//! and drains the hits deferred since the last one, so a SET that meets
//! a drain waits for it; a GET waits only while a SET writes its bytes.
//! The cell's p99s show how long, and its read-wait share is the share
//! of GETs that found the data lock held or awaited by a writer.
//!
//! Results land in `BENCH_throughput.json` at the repo root so later
//! changes have a perf trajectory to regress against. The shape check
//! bounds the hit path's p99 latency.
//!
//! Key sequences are pre-generated outside every timed loop, so the
//! zipf sampler's `powf` cost never pollutes a measurement, and every
//! thread-count cell replays the *same* sequence.

use crate::experiments::{ExpOptions, ExpResult};
use crate::output::ShapeCheck;
use pama_kv::{CacheBuilder, PamaCache, SetOptions};
use pama_util::json::{obj, Json};
use pama_util::{Rng, Xoshiro256StarStar};
use pama_workloads::zipf::ZipfApprox;
use std::time::Instant;

const VALUE_BYTES: usize = 128;
const TOTAL_BYTES: u64 = 64 << 20;
const SHARDS: usize = 8;
const ZIPF_ALPHA: f64 = 0.99;
const MULTI_GET_BATCH: usize = 64;
/// Threads of the mixed cell.
const MIXED_THREADS: usize = 2;
/// Share of the mixed cell's operations that are SET overwrites.
const MIXED_SET_SHARE: f64 = 0.05;
/// Marks a SET in the mixed cell's sequence; the low bits name the key.
const MIXED_SET: u32 = 1 << 31;

struct Setup {
    keys: Vec<Vec<u8>>,
    get_seq: Vec<u32>,
    set_seq: Vec<u32>,
    /// The mixed cell's operations: a key index, with [`MIXED_SET`] set
    /// on a SET.
    mixed_seq: Vec<u32>,
    value: Vec<u8>,
    latency_samples: usize,
}

fn build_cache(setup: &Setup) -> PamaCache {
    let cache = CacheBuilder::new()
        .total_bytes(TOTAL_BYTES)
        .slab_bytes(256 << 10)
        .shards(SHARDS)
        .build();
    // Prefill every key: the GET phases then run hit-only, which is
    // the contended pattern the read path is designed for.
    for chunk in setup.keys.chunks(1024) {
        let items: Vec<(&[u8], &[u8])> =
            chunk.iter().map(|k| (k.as_slice(), &setup.value[..])).collect();
        cache.multi_set(&items, &SetOptions::default()).expect("prefill multi_set");
    }
    cache
}

/// Runs `seq` GETs split across `threads` contiguous slices; returns
/// ops/sec. Asserts every GET hit (the working set is fully resident),
/// which both validates the run and keeps the loads observable.
fn run_gets(cache: &PamaCache, setup: &Setup, threads: usize) -> f64 {
    let chunk_len = setup.get_seq.len().div_ceil(threads);
    let t0 = Instant::now();
    let hits: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .get_seq
            .chunks(chunk_len)
            .map(|chunk| {
                s.spawn(move || {
                    let mut hits = 0u64;
                    for &i in chunk {
                        if cache.get(setup.keys[i as usize].as_slice()).is_some() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("bench thread")).sum()
    });
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(hits as usize, setup.get_seq.len(), "resident key missed during GET phase");
    setup.get_seq.len() as f64 / dt
}

/// Runs `seq` SET updates split across `threads` slices; returns
/// ops/sec.
fn run_sets(cache: &PamaCache, setup: &Setup, threads: usize) -> f64 {
    let chunk_len = setup.set_seq.len().div_ceil(threads);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for chunk in setup.set_seq.chunks(chunk_len) {
            s.spawn(move || {
                for &i in chunk {
                    let _ = cache.set(
                        setup.keys[i as usize].as_slice(),
                        &setup.value,
                        &SetOptions::default(),
                    );
                }
            });
        }
    });
    setup.set_seq.len() as f64 / t0.elapsed().as_secs_f64()
}

/// Single-threaded batched GETs (shard-grouped, one lock take per
/// shard per batch); returns ops/sec.
fn run_multi_gets(cache: &PamaCache, setup: &Setup) -> f64 {
    let mut hits = 0usize;
    let t0 = Instant::now();
    for batch in setup.get_seq.chunks(MULTI_GET_BATCH) {
        let refs: Vec<&[u8]> =
            batch.iter().map(|&i| setup.keys[i as usize].as_slice()).collect();
        hits += cache.multi_get(&refs).iter().flatten().count();
    }
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(hits, setup.get_seq.len(), "resident key missed during multi_get phase");
    setup.get_seq.len() as f64 / dt
}

/// What the mixed cell measured.
struct Mixed {
    ops_per_sec: f64,
    /// GET latencies in nanoseconds, sorted ascending.
    gets: Vec<u64>,
    /// SET latencies in nanoseconds, sorted ascending.
    sets: Vec<u64>,
    /// The share of GETs that waited for a shard's data lock.
    read_wait_share: f64,
}

/// Runs the mixed cell's sequence split across [`MIXED_THREADS`]
/// slices on a cache no GET has touched yet, timing every operation.
/// Every SET rewrites a resident key with a value of the same size, so
/// every GET hits.
fn run_mixed(cache: &PamaCache, setup: &Setup) -> Mixed {
    let waits_before = read_lock_waits(cache);
    let chunk_len = setup.mixed_seq.len().div_ceil(MIXED_THREADS);
    let t0 = Instant::now();
    let per_thread: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .mixed_seq
            .chunks(chunk_len)
            .map(|chunk| {
                s.spawn(move || {
                    let (mut gets, mut sets) = (Vec::with_capacity(chunk.len()), Vec::new());
                    for &op in chunk {
                        let key = setup.keys[(op & !MIXED_SET) as usize].as_slice();
                        let t0 = Instant::now();
                        if op & MIXED_SET != 0 {
                            cache
                                .set(key, &setup.value, &SetOptions::default())
                                .expect("an overwrite fits");
                            sets.push(t0.elapsed().as_nanos() as u64);
                        } else {
                            let hit = cache.get(key).is_some();
                            gets.push(t0.elapsed().as_nanos() as u64);
                            assert!(hit, "resident key missed during the mixed cell");
                        }
                    }
                    (gets, sets)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("bench thread")).collect()
    });
    let rate = setup.mixed_seq.len() as f64 / t0.elapsed().as_secs_f64();
    let (mut gets, mut sets): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    for (g, s) in per_thread {
        gets.extend(g);
        sets.extend(s);
    }
    gets.sort_unstable();
    sets.sort_unstable();
    let waits = read_lock_waits(cache) - waits_before;
    let read_wait_share = waits as f64 / gets.len().max(1) as f64;
    Mixed { ops_per_sec: rate, gets, sets, read_wait_share }
}

/// The cache's count of GETs that waited for a shard's data lock.
fn read_lock_waits(cache: &PamaCache) -> u64 {
    cache.metrics().map_or(0, |m| m.snapshot().read_lock_waits)
}

/// Per-op hit latencies in nanoseconds, sorted ascending.
fn sample_latencies(cache: &PamaCache, setup: &Setup) -> Vec<u64> {
    let mut ns: Vec<u64> = Vec::with_capacity(setup.latency_samples);
    for &i in setup.get_seq.iter().take(setup.latency_samples) {
        let key = setup.keys[i as usize].as_slice();
        let t0 = Instant::now();
        let v = cache.get(key);
        ns.push(t0.elapsed().as_nanos() as u64);
        assert!(v.is_some());
    }
    ns.sort_unstable();
    ns
}

fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn latency_json(sorted: &[u64]) -> Json {
    obj(vec![
        ("samples", Json::U64(sorted.len() as u64)),
        ("p50", Json::U64(pct(sorted, 0.50))),
        ("p90", Json::U64(pct(sorted, 0.90))),
        ("p99", Json::U64(pct(sorted, 0.99))),
        ("p999", Json::U64(pct(sorted, 0.999))),
        ("max", Json::U64(sorted.last().copied().unwrap_or(0))),
    ])
}

/// Runs the throughput/latency suite and writes
/// `BENCH_throughput.json` at the repo root.
pub fn run(opts: &ExpOptions) -> ExpResult {
    let key_count: usize = if opts.smoke { 20_000 } else { 100_000 };
    let get_ops = opts.scaled(if opts.smoke { 160_000 } else { 1_600_000 });
    let set_ops = opts.scaled(if opts.smoke { 40_000 } else { 320_000 });
    let mixed_ops = opts.scaled(if opts.smoke { 200_000 } else { 2_000_000 });
    let latency_samples = if opts.smoke { 20_000 } else { 100_000 };
    let thread_counts: Vec<usize> =
        if opts.threads > 0 { vec![opts.threads] } else { vec![1, 2, 4, 8] };
    let seed = opts.seed.unwrap_or(0x00C0_FFEE);

    println!(
        "kv throughput: {key_count} zipf(α={ZIPF_ALPHA}) keys, {get_ops} GETs, {set_ops} SETs, \
         threads {thread_counts:?}{}",
        if opts.smoke { " [smoke]" } else { "" }
    );

    let zipf = ZipfApprox::new(key_count as u64, ZIPF_ALPHA);
    let mut rng = Xoshiro256StarStar::from_seed(seed);
    let setup = Setup {
        keys: (0..key_count).map(|i| format!("user:{i:08}").into_bytes()).collect(),
        get_seq: (0..get_ops).map(|_| zipf.sample(&mut rng) as u32).collect(),
        set_seq: (0..set_ops).map(|_| zipf.sample(&mut rng) as u32).collect(),
        mixed_seq: (0..mixed_ops)
            .map(|_| {
                let set = if rng.next_f64() < MIXED_SET_SHARE { MIXED_SET } else { 0 };
                set | zipf.sample(&mut rng) as u32
            })
            .collect(),
        value: vec![0xA5; VALUE_BYTES],
        latency_samples,
    };

    // Throughput cells: each (op, threads) cell runs GET_REPS times
    // and keeps the best — on a shared, noisy host the max is the
    // least-perturbed estimate of what the code can actually do. The
    // prefilled cache is reused across the GET cells (the working set
    // never changes; only recency bookkeeping does).
    const GET_REPS: usize = 3;
    // (threads, ops/sec)
    let mut get_rows: Vec<(usize, f64)> = Vec::new();
    let mut set_rows: Vec<(usize, f64)> = Vec::new();
    let get_cache = build_cache(&setup);
    let set_cache = build_cache(&setup);
    for &threads in &thread_counts {
        let rate =
            (0..GET_REPS).map(|_| run_gets(&get_cache, &setup, threads)).fold(0.0f64, f64::max);
        println!("  GET  {threads}t: {rate:>10.0} ops/s (best of {GET_REPS})");
        get_rows.push((threads, rate));

        let rate = run_sets(&set_cache, &setup, threads);
        println!("  SET  {threads}t: {rate:>10.0} ops/s");
        set_rows.push((threads, rate));
    }
    let latencies = sample_latencies(&build_cache(&setup), &setup);
    let mixed = run_mixed(&build_cache(&setup), &setup);
    println!(
        "  mixed {MIXED_THREADS}t: {:>10.0} ops/s; GET p50/p99/p99.9 {}/{}/{} ns, \
         SET p50/p99 {}/{} ns; {:.3}% of GETs waited for a read lock",
        mixed.ops_per_sec,
        pct(&mixed.gets, 0.50),
        pct(&mixed.gets, 0.99),
        pct(&mixed.gets, 0.999),
        pct(&mixed.sets, 0.50),
        pct(&mixed.sets, 0.99),
        100.0 * mixed.read_wait_share,
    );
    let multi_get_rate = {
        let rate = run_multi_gets(&build_cache(&setup), &setup);
        println!("  multi_get({MULTI_GET_BATCH}) 1t: {rate:>10.0} ops/s");
        rate
    };

    let max_threads = *thread_counts.iter().max().expect("nonempty thread list");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let max_threads_rate =
        get_rows.iter().find(|&&(t, _)| t == max_threads).map_or(0.0, |&(_, r)| r);

    // Archive to the repo root: the perf trajectory later changes
    // regress against.
    let throughput_rows = |rows: &[(usize, f64)]| {
        Json::Arr(
            rows.iter()
                .map(|&(threads, rate)| {
                    obj(vec![
                        ("threads", Json::U64(threads as u64)),
                        ("ops_per_sec", Json::F64(rate)),
                    ])
                })
                .collect(),
        )
    };
    let report = obj(vec![
        ("schema", Json::Str("pama-bench-throughput/v4".into())),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "config",
            obj(vec![
                ("keys", Json::U64(key_count as u64)),
                ("value_bytes", Json::U64(VALUE_BYTES as u64)),
                ("total_bytes", Json::U64(TOTAL_BYTES)),
                ("shards", Json::U64(SHARDS as u64)),
                ("zipf_alpha", Json::F64(ZIPF_ALPHA)),
                ("get_ops", Json::U64(get_ops as u64)),
                ("set_ops", Json::U64(set_ops as u64)),
                ("seed", Json::U64(seed)),
            ]),
        ),
        ("get_throughput", throughput_rows(&get_rows)),
        ("set_throughput", throughput_rows(&set_rows)),
        (
            "multi_get",
            obj(vec![
                ("batch", Json::U64(MULTI_GET_BATCH as u64)),
                ("threads", Json::U64(1)),
                ("ops_per_sec", Json::F64(multi_get_rate)),
            ]),
        ),
        ("hit_latency_ns", latency_json(&latencies)),
        (
            "mixed",
            obj(vec![
                ("threads", Json::U64(MIXED_THREADS as u64)),
                ("set_share", Json::F64(MIXED_SET_SHARE)),
                ("ops", Json::U64(mixed_ops as u64)),
                ("ops_per_sec", Json::F64(mixed.ops_per_sec)),
                ("get_latency_ns", latency_json(&mixed.gets)),
                ("set_latency_ns", latency_json(&mixed.sets)),
                ("read_wait_share", Json::F64(mixed.read_wait_share)),
            ]),
        ),
        (
            "headline",
            obj(vec![
                ("threads", Json::U64(max_threads as u64)),
                ("cores", Json::U64(cores as u64)),
                ("get_ops_per_sec", Json::F64(max_threads_rate)),
            ]),
        ),
    ]);
    let path = "BENCH_throughput.json";
    std::fs::write(path, report.to_string_pretty() + "\n")
        .expect("write BENCH_throughput.json");
    println!("  wrote {path}");

    vec![ShapeCheck::new(
        "hit-path p99 latency under 100 µs",
        pct(&latencies, 0.99) < 100_000,
        format!(
            "p50 {} ns, p99 {} ns, p99.9 {} ns",
            pct(&latencies, 0.50),
            pct(&latencies, 0.99),
            pct(&latencies, 0.999),
        ),
    )]
}
