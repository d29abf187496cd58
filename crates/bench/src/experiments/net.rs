//! `repro net` — loopback benchmark for the `pamad` network front
//! end (extension; the paper stops at the allocator, this measures
//! the server wrapped around it).
//!
//! Spins an in-process [`Server`] on an ephemeral loopback port and
//! drives it with real TCP clients through four phases:
//!
//! 1. **serial** — one `get` per round trip: the protocol's floor,
//!    dominated by loopback RTT and syscall cost;
//! 2. **pipelined** — bursts of single-key `get`s per write: the
//!    server must batch the run into one shard-grouped lookup and one
//!    response write (the headline: ≥ 2× serial);
//! 3. **multiget** — one `get` naming the whole batch;
//! 4. **concurrent** — N client threads pipelining at once.
//!
//! Alongside throughput it records per-request latency percentiles,
//! verifies a sample of responses against the in-process oracle,
//! checks the server saw zero protocol errors, and proves shutdown
//! drains an in-flight pipeline. Results land in `BENCH_net.json` at
//! the repo root.

use crate::experiments::{ExpOptions, ExpResult};
use crate::output::ShapeCheck;
use pama_kv::CacheBuilder;
use pama_server::client::Client;
use pama_server::{Server, ServerConfig};
use pama_util::json::{obj, Json};
use pama_util::Xoshiro256StarStar;
use pama_workloads::zipf::ZipfApprox;
use std::sync::Arc;
use std::time::Instant;

const VALUE_BYTES: usize = 128;
const PIPELINE_DEPTH: usize = 32;
const TOTAL_BYTES: u64 = 64 << 20;
const SHARDS: usize = 8;
const ZIPF_ALPHA: f64 = 0.99;

fn key_of(i: usize) -> Vec<u8> {
    format!("user:{i:08}").into_bytes()
}

fn value_of(i: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; VALUE_BYTES];
    v[..8].copy_from_slice(&(i as u64).to_be_bytes());
    v
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
        ("p95", Json::U64(pct(sorted, 0.95))),
        ("p99", Json::U64(pct(sorted, 0.99))),
        ("max", Json::U64(sorted.last().copied().unwrap_or(0))),
    ])
}

/// Runs the loopback suite and writes `BENCH_net.json`.
pub fn run(opts: &ExpOptions) -> ExpResult {
    let key_count: usize = if opts.smoke { 4_000 } else { 20_000 };
    let serial_ops: usize = if opts.smoke { 4_000 } else { 20_000 };
    let pipelined_ops: usize = if opts.smoke { 40_000 } else { 200_000 };
    let client_threads = if opts.threads > 0 { opts.threads } else { 4 };
    let seed = opts.seed.unwrap_or(0x00C0_FFEE);

    println!(
        "net: {key_count} keys × {VALUE_BYTES} B over loopback, pipeline depth \
         {PIPELINE_DEPTH}, {client_threads} client threads{}",
        if opts.smoke { " [smoke]" } else { "" }
    );

    let cache = Arc::new(
        CacheBuilder::new()
            .total_bytes(TOTAL_BYTES)
            .slab_bytes(256 << 10)
            .shards(SHARDS)
            .build(),
    );
    let server = Server::bind(Arc::clone(&cache), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback server");
    let addr = server.local_addr();

    // Preload over the wire so the server's write path is exercised
    // too; every later GET should hit.
    let keys: Vec<Vec<u8>> = (0..key_count).map(key_of).collect();
    let values: Vec<Vec<u8>> = (0..key_count).map(value_of).collect();
    let mut loader = Client::connect(addr).expect("connect loader");
    let mut stored = 0usize;
    for chunk in (0..key_count).collect::<Vec<_>>().chunks(256) {
        let items: Vec<(&[u8], &[u8])> =
            chunk.iter().map(|&i| (keys[i].as_slice(), values[i].as_slice())).collect();
        stored += loader.pipeline_sets(&items, 0, 0).expect("preload sets");
    }
    assert_eq!(stored, key_count, "preload must store every key");

    // One zipfian request stream, replayed by every phase.
    let zipf = ZipfApprox::new(key_count as u64, ZIPF_ALPHA);
    let mut rng = Xoshiro256StarStar::from_seed(seed);
    let seq: Vec<u32> = (0..pipelined_ops).map(|_| zipf.sample(&mut rng) as u32).collect();

    // Phase 1: serial — one request per RTT.
    let mut c = Client::connect(addr).expect("connect serial client");
    let mut serial_lat: Vec<u64> = Vec::with_capacity(serial_ops);
    let t0 = Instant::now();
    let mut hits = 0usize;
    for &i in seq.iter().take(serial_ops) {
        let t = Instant::now();
        if c.get(&keys[i as usize]).expect("serial get").is_some() {
            hits += 1;
        }
        serial_lat.push(t.elapsed().as_nanos() as u64);
    }
    let serial_rate = serial_ops as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(hits, serial_ops, "resident key missed in serial phase");
    serial_lat.sort_unstable();
    println!("  serial      1-per-RTT     : {serial_rate:>9.0} ops/s");

    // Phase 2: pipelined — PIPELINE_DEPTH gets per write.
    let mut batch_lat: Vec<u64> = Vec::with_capacity(seq.len() / PIPELINE_DEPTH + 1);
    let t0 = Instant::now();
    let mut hits = 0usize;
    for batch in seq.chunks(PIPELINE_DEPTH) {
        let refs: Vec<&[u8]> = batch.iter().map(|&i| keys[i as usize].as_slice()).collect();
        let t = Instant::now();
        hits += c.pipeline_gets(&refs).expect("pipelined gets").iter().flatten().count();
        batch_lat.push(t.elapsed().as_nanos() as u64);
    }
    let pipelined_rate = seq.len() as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(hits, seq.len(), "resident key missed in pipelined phase");
    batch_lat.sort_unstable();
    println!("  pipelined   depth {PIPELINE_DEPTH:>3}     : {pipelined_rate:>9.0} ops/s");

    // Phase 3: multiget — one command naming the whole batch.
    let t0 = Instant::now();
    let mut hits = 0usize;
    for batch in seq.chunks(PIPELINE_DEPTH) {
        let refs: Vec<&[u8]> = batch.iter().map(|&i| keys[i as usize].as_slice()).collect();
        hits += c.multi_get(&refs, false).expect("multiget").iter().flatten().count();
    }
    let multiget_rate = seq.len() as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(hits, seq.len(), "resident key missed in multiget phase");
    println!("  multiget    {PIPELINE_DEPTH:>2}-key get    : {multiget_rate:>9.0} ops/s");

    // Phase 4: concurrent pipelining.
    let per_thread = seq.len() / client_threads;
    let t0 = Instant::now();
    let total_hits: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..client_threads)
            .map(|t| {
                let slice = &seq[t * per_thread..(t + 1) * per_thread];
                let keys = &keys;
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect worker");
                    let mut hits = 0usize;
                    for batch in slice.chunks(PIPELINE_DEPTH) {
                        let refs: Vec<&[u8]> =
                            batch.iter().map(|&i| keys[i as usize].as_slice()).collect();
                        hits += c
                            .pipeline_gets(&refs)
                            .expect("worker gets")
                            .iter()
                            .flatten()
                            .count();
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).sum()
    });
    let concurrent_rate = (per_thread * client_threads) as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(total_hits, per_thread * client_threads, "miss in concurrent phase");
    println!("  concurrent  {client_threads} clients     : {concurrent_rate:>9.0} ops/s");

    // Correctness: a random sample of responses against the oracle.
    let sample = 1_000.min(key_count);
    let mut mismatches = 0usize;
    let mut sampled_hits = 0usize;
    for s in 0..sample {
        let i = (s * key_count / sample) % key_count;
        if let Some(got) = c.get(&keys[i]).expect("sample get") {
            sampled_hits += 1;
            mismatches += usize::from(got.value != values[i]);
        }
    }

    // Shutdown drain: fire a pipeline, confirm the server has started
    // answering, shut down, and collect the rest — nothing in flight
    // may be dropped.
    let drain_keys: Vec<&[u8]> =
        keys.iter().take(PIPELINE_DEPTH).map(|k| k.as_slice()).collect();
    let mut req = Vec::new();
    for k in &drain_keys {
        req.extend_from_slice(b"get ");
        req.extend_from_slice(k);
        req.extend_from_slice(b"\r\n");
    }
    c.send_raw(&req).expect("drain burst");
    let first = c.read_line().expect("first in-flight response");
    assert!(first.starts_with("VALUE "), "unexpected drain response {first:?}");
    let stats = server.stats();
    server.shutdown();
    let mut drained = 0usize;
    let mut drain_ok = true;
    for _ in 0..PIPELINE_DEPTH {
        // Read to the END of each response (the first response's
        // VALUE line is already consumed).
        loop {
            match c.read_line() {
                Ok(line) if line == "END" => break,
                Ok(_) => {}
                Err(_) => {
                    drain_ok = false;
                    break;
                }
            }
        }
        if !drain_ok {
            break;
        }
        drained += 1;
    }
    let refused_after = Client::connect(addr).and_then(|mut c| c.version()).is_err();
    cache.close();

    let speedup = pipelined_rate / serial_rate.max(1.0);
    let report = obj(vec![
        ("schema", Json::Str("pama-bench-net/v1".into())),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "config",
            obj(vec![
                ("keys", Json::U64(key_count as u64)),
                ("value_bytes", Json::U64(VALUE_BYTES as u64)),
                ("total_bytes", Json::U64(TOTAL_BYTES)),
                ("shards", Json::U64(SHARDS as u64)),
                ("zipf_alpha", Json::F64(ZIPF_ALPHA)),
                ("pipeline_depth", Json::U64(PIPELINE_DEPTH as u64)),
                ("serial_ops", Json::U64(serial_ops as u64)),
                ("pipelined_ops", Json::U64(seq.len() as u64)),
                ("client_threads", Json::U64(client_threads as u64)),
                ("seed", Json::U64(seed)),
            ]),
        ),
        (
            "phases",
            obj(vec![
                (
                    "serial",
                    obj(vec![
                        ("ops_per_sec", Json::F64(serial_rate)),
                        ("request_latency_ns", latency_json(&serial_lat)),
                    ]),
                ),
                (
                    "pipelined",
                    obj(vec![
                        ("ops_per_sec", Json::F64(pipelined_rate)),
                        ("batch_latency_ns", latency_json(&batch_lat)),
                    ]),
                ),
                ("multiget", obj(vec![("ops_per_sec", Json::F64(multiget_rate))])),
                (
                    "concurrent",
                    obj(vec![
                        ("threads", Json::U64(client_threads as u64)),
                        ("ops_per_sec", Json::F64(concurrent_rate)),
                    ]),
                ),
            ]),
        ),
        (
            "server",
            obj(vec![
                ("connections", Json::U64(stats.accepted)),
                ("shed", Json::U64(stats.shed)),
                ("commands", Json::U64(stats.commands)),
                ("protocol_errors", Json::U64(stats.protocol_errors)),
            ]),
        ),
        (
            "correctness",
            obj(vec![
                ("samples", Json::U64(sample as u64)),
                ("hits", Json::U64(sampled_hits as u64)),
                ("mismatches", Json::U64(mismatches as u64)),
                ("drained_in_flight", Json::U64(drained as u64)),
            ]),
        ),
        ("headline", obj(vec![("pipelining_speedup", Json::F64(speedup))])),
    ]);
    let path = "BENCH_net.json";
    std::fs::write(path, report.to_string_pretty() + "\n").expect("write BENCH_net.json");
    println!("  wrote {path}");

    vec![
        ShapeCheck::new(
            "pipelined loopback throughput ≥ 2× the one-request-per-RTT baseline",
            speedup >= 2.0,
            format!("pipelined {pipelined_rate:.0} vs serial {serial_rate:.0} ops/s ({speedup:.2}×)"),
        ),
        ShapeCheck::new(
            "zero protocol errors across every phase",
            stats.protocol_errors == 0,
            format!("{} protocol errors over {} commands", stats.protocol_errors, stats.commands),
        ),
        ShapeCheck::new(
            "sampled responses match the oracle byte-for-byte",
            mismatches == 0 && sampled_hits == sample,
            format!("{sampled_hits}/{sample} hits, {mismatches} mismatches"),
        ),
        ShapeCheck::new(
            "shutdown drains the in-flight pipeline and closes the listener",
            drain_ok && drained == PIPELINE_DEPTH && refused_after,
            format!(
                "{drained}/{PIPELINE_DEPTH} responses after shutdown, new connect refused: \
                 {refused_after}"
            ),
        ),
    ]
}
