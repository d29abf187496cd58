//! `repro perf` — throughput and hit-latency benchmark for `pama-kv`.
//!
//! Measures single- and multi-threaded GET/SET throughput (1/2/4/8
//! threads, zipfian keys), batched `multi_get` throughput, and
//! hit-path latency percentiles. Hits run under the shard's shared
//! read lock and defer promotion through the lock-free access log.
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
use pama_util::Xoshiro256StarStar;
use pama_workloads::zipf::ZipfApprox;
use std::time::Instant;

const VALUE_BYTES: usize = 128;
const TOTAL_BYTES: u64 = 64 << 20;
const SHARDS: usize = 8;
const ZIPF_ALPHA: f64 = 0.99;
const MULTI_GET_BATCH: usize = 64;

struct Setup {
    keys: Vec<Vec<u8>>,
    get_seq: Vec<u32>,
    set_seq: Vec<u32>,
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
        ("schema", Json::Str("pama-bench-throughput/v2".into())),
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
