//! `repro obs` — observability-layer verification (extension; the
//! paper reports per-band numbers by hand, this proves the registry
//! that automates them is trustworthy).
//!
//! Two phases:
//!
//! 1. **bands** — in-process traffic with explicit per-band penalties,
//!    its GETs issued from `GET_THREADS` threads across every shard so
//!    the registry's per-shard stripes are written concurrently;
//!    asserts the aggregate hit/miss totals (the sums over bands and
//!    stripes) match the traffic sent and that attribution lands in the
//!    band the paper's five-way split predicts;
//! 2. **wire** — the same registry read back over loopback via
//!    `stats bands`; every parsed line must equal the in-process
//!    snapshot byte-for-byte.
//!
//! The registry is always attached, so there is no bare arm to
//! compare against; the benchmark's hot-read `ops_s` / `get_p99_us`
//! gate the instrumented hit path. Results land in `BENCH_obs.json`
//! at the repo root.

use crate::experiments::{ExpOptions, ExpResult};
use crate::output::ShapeCheck;
use pama_kv::{BandSnapshot, CacheBuilder, PamaCache, SetOptions};
use pama_server::client::Client;
use pama_server::{Server, ServerConfig};
use pama_util::json::{obj, Json};
use pama_util::{SimDuration, Xoshiro256StarStar};
use pama_workloads::zipf::ZipfApprox;
use std::sync::Arc;

const TOTAL_BYTES: u64 = 64 << 20;
const SHARDS: usize = 4;
const VALUE_BYTES: usize = 128;
const ZIPF_ALPHA: f64 = 0.99;
/// One representative penalty per paper band (bounds 1 ms / 10 ms /
/// 100 ms / 1 s / 5 s): safely inside each band, away from the edges.
const BAND_PENALTIES_US: [u64; 5] = [500, 5_000, 50_000, 500_000, 3_000_000];
/// Misses on never-seen keys attribute to the default penalty
/// (100 ms), which the five-way split places in band 2.
const DEFAULT_PENALTY_BAND: usize = 2;
/// Threads issuing phase 1's GETs.
const GET_THREADS: usize = 2;

fn key_of(band: usize, i: usize) -> Vec<u8> {
    format!("band{band}:key:{i:06}").into_bytes()
}

fn value_of(i: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; VALUE_BYTES];
    v[..8].copy_from_slice(&(i as u64).to_be_bytes());
    v
}

fn metrics_cache() -> Arc<PamaCache> {
    Arc::new(
        CacheBuilder::new()
            .total_bytes(TOTAL_BYTES)
            .slab_bytes(256 << 10)
            .shards(SHARDS)
            .build(),
    )
}

/// Phase 1: in-process traffic with known per-band composition.
fn run_bands(keys_per_band: usize, gets_per_key: usize, miss_ops: usize) -> Vec<ShapeCheck> {
    let cache = metrics_cache();
    for (band, &penalty_us) in BAND_PENALTIES_US.iter().enumerate() {
        let opts = SetOptions::new().penalty(SimDuration::from_micros(penalty_us));
        for i in 0..keys_per_band {
            let key = key_of(band, i);
            cache.set(&key, &value_of(i), &opts).expect("preload set");
        }
    }
    // (i+1) GET hits per key of band i — a distinct, non-uniform count
    // per band so a cross-attribution bug cannot cancel out. The rounds
    // and the misses are dealt round-robin to the threads.
    std::thread::scope(|s| {
        for t in 0..GET_THREADS {
            let cache = &cache;
            s.spawn(move || {
                for band in 0..BAND_PENALTIES_US.len() {
                    for _ in (t..(band + 1) * gets_per_key).step_by(GET_THREADS) {
                        for i in 0..keys_per_band {
                            assert!(
                                cache.get(&key_of(band, i)).is_some(),
                                "resident key missed"
                            );
                        }
                    }
                }
                for i in (t..miss_ops).step_by(GET_THREADS) {
                    assert!(cache.get(format!("ghost:{i:06}").as_bytes()).is_none());
                }
            });
        }
    });

    let snap = cache.metrics().expect("registry attached").snapshot();
    let report = cache.report();
    let band_hits: Vec<u64> = snap.bands.iter().map(|b| b.hits).collect();
    let band_misses: Vec<u64> = snap.bands.iter().map(|b| b.misses).collect();
    let expected_hits: Vec<u64> = (0..BAND_PENALTIES_US.len())
        .map(|b| ((b + 1) * gets_per_key * keys_per_band) as u64)
        .collect();

    let sums_match = snap.total_hits() == report.cache.hits
        && report.cache.hits == expected_hits.iter().sum::<u64>()
        && snap.total_misses() == report.cache.misses
        && report.cache.misses == miss_ops as u64;
    let attribution_ok = band_hits == expected_hits;
    let miss_band_ok = band_misses[DEFAULT_PENALTY_BAND] == miss_ops as u64;
    let expected_cost = miss_ops as u64 * 100_000;
    let cost_ok = snap.bands[DEFAULT_PENALTY_BAND].penalty_cost_us == expected_cost
        && snap.total_penalty_cost_us() == expected_cost;
    cache.close();

    vec![
        ShapeCheck::new(
            "aggregate hit/miss totals are the band sums and match the traffic sent",
            sums_match,
            format!(
                "bands Σhits={} Σmisses={}, report hits={} misses={}, sent {} hits {miss_ops} misses",
                snap.total_hits(),
                snap.total_misses(),
                report.cache.hits,
                report.cache.misses,
                expected_hits.iter().sum::<u64>()
            ),
        ),
        ShapeCheck::new(
            "hits attribute to the band of each key's explicit penalty",
            attribution_ok,
            format!("per-band hits {band_hits:?}, expected {expected_hits:?}"),
        ),
        ShapeCheck::new(
            "unknown-key misses attribute to the default-penalty band with full cost",
            miss_band_ok && cost_ok,
            format!(
                "band {DEFAULT_PENALTY_BAND} misses={} cost={}µs, expected {miss_ops}/{expected_cost}µs",
                band_misses[DEFAULT_PENALTY_BAND], snap.bands[DEFAULT_PENALTY_BAND].penalty_cost_us
            ),
        ),
    ]
}

/// Phase 2: the wire view must equal the in-process registry.
fn run_wire(key_count: usize, ops: usize, seed: u64) -> Vec<ShapeCheck> {
    let cache = metrics_cache();
    let server = Server::bind(Arc::clone(&cache), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback server");
    let mut c = Client::connect(server.local_addr()).expect("connect client");

    let keys: Vec<Vec<u8>> = (0..key_count).map(|i| key_of(0, i)).collect();
    for chunk in (0..key_count).collect::<Vec<_>>().chunks(256) {
        let items: Vec<(&[u8], &[u8])> =
            chunk.iter().map(|&i| (keys[i].as_slice(), keys[i].as_slice())).collect();
        c.pipeline_sets(&items, 0, 0).expect("preload sets");
    }
    let zipf = ZipfApprox::new(key_count as u64 * 2, ZIPF_ALPHA);
    let mut rng = Xoshiro256StarStar::from_seed(seed);
    for _ in 0..ops {
        // Half the id space is resident, half are misses.
        let i = zipf.sample(&mut rng) as usize;
        let key = if i < key_count { keys[i].clone() } else { key_of(9, i) };
        let _ = c.get(&key).expect("wire get");
    }

    // Every response has been read, so the server is quiescent: the
    // wire snapshot and the in-process snapshot must agree exactly.
    let wire = c.stats_of(Some("bands")).expect("stats bands");
    let snap = cache.metrics().expect("registry attached").snapshot();
    let parsed: Vec<Option<BandSnapshot>> =
        wire.iter().map(|(_, v)| BandSnapshot::parse(v)).collect();
    let count_ok = wire.len() == snap.bands.len() && wire.len() == 5;
    let names_ok = wire.iter().enumerate().all(|(i, (name, _))| name == &format!("band_{i}"));
    let lines_match = parsed.len() == snap.bands.len()
        && parsed.iter().zip(&snap.bands).all(|(p, b)| p.as_ref() == Some(b));
    let saw_traffic = snap.total_hits() > 0 && snap.total_misses() > 0;
    server.shutdown();
    cache.close();

    vec![
        ShapeCheck::new(
            "stats bands renders one parseable line per paper band",
            count_ok && names_ok && parsed.iter().all(Option::is_some),
            format!("{} lines, names ok: {names_ok}", wire.len()),
        ),
        ShapeCheck::new(
            "wire band lines equal the in-process registry snapshot",
            lines_match && saw_traffic,
            format!(
                "hits={} misses={} over the wire, lines match: {lines_match}",
                snap.total_hits(),
                snap.total_misses()
            ),
        ),
    ]
}

/// Runs the observability suite and writes `BENCH_obs.json`.
pub fn run(opts: &ExpOptions) -> ExpResult {
    let keys_per_band = if opts.smoke { 200 } else { 1_000 };
    let gets_per_key = if opts.smoke { 2 } else { 10 };
    let miss_ops = if opts.smoke { 1_000 } else { 10_000 };
    let wire_keys = if opts.smoke { 2_000 } else { 10_000 };
    let wire_ops = if opts.smoke { 5_000 } else { 50_000 };
    let seed = opts.seed.unwrap_or(0x0B5E_7AB1);

    println!(
        "obs: {keys_per_band} keys/band from {GET_THREADS} threads, {wire_ops} wire ops{}",
        if opts.smoke { " [smoke]" } else { "" }
    );

    let mut checks = run_bands(keys_per_band, gets_per_key, miss_ops);
    checks.extend(run_wire(wire_keys, wire_ops, seed));

    let report = obj(vec![
        ("schema", Json::Str("pama-bench-obs/v2".into())),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "config",
            obj(vec![
                ("keys_per_band", Json::U64(keys_per_band as u64)),
                ("gets_per_key", Json::U64(gets_per_key as u64)),
                ("miss_ops", Json::U64(miss_ops as u64)),
                ("get_threads", Json::U64(GET_THREADS as u64)),
                ("wire_keys", Json::U64(wire_keys as u64)),
                ("wire_ops", Json::U64(wire_ops as u64)),
                ("total_bytes", Json::U64(TOTAL_BYTES)),
                ("shards", Json::U64(SHARDS as u64)),
                ("zipf_alpha", Json::F64(ZIPF_ALPHA)),
                ("seed", Json::U64(seed)),
                (
                    "band_penalties_us",
                    Json::Arr(BAND_PENALTIES_US.iter().map(|&p| Json::U64(p)).collect()),
                ),
            ]),
        ),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("claim", Json::Str(c.claim.clone())),
                            ("pass", Json::Bool(c.pass)),
                            ("detail", Json::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = "BENCH_obs.json";
    std::fs::write(path, report.to_string_pretty() + "\n").expect("write BENCH_obs.json");
    println!("  wrote {path}");

    checks
}
