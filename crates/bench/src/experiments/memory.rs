//! `repro memory` — per-item memory overhead and fragmentation for the
//! slab-arena storage layer under a zipfian workload.
//!
//! Payloads live in fixed-size slab slots, and slabs move between size
//! classes when PAMA rebalances. Value sizes are modal (a handful of
//! discrete sizes, like memcached's ETC pool where same-type serialized
//! objects share a size) with a small per-update jitter (object
//! versions differ by a few percent, which a slot absorbs). The working
//! set exceeds the cache budget so the run churns through evictions,
//! and a mid-run regime shift grows the hot keys' objects so slab
//! migrations physically fire.
//!
//! Three measurements:
//!
//! * **resident delta** — RSS growth from just before cache
//!   construction to end of workload (`/proc/self/statm`), the
//!   operating-system truth; per resident item beyond its key and value
//!   it must stay within 170 B at full scale (240 B at smoke scale);
//! * **exact accounting** — the arena's own ledger (slabs, slots,
//!   bytes requested vs resident, internal fragmentation),
//!   cross-checked against the logical cache stats;
//! * **churn** — a fresh cache of the same geometry takes a stream of
//!   distinct keys, each missed and then SET with no explicit penalty,
//!   so every key gets a measured miss→SET gap. Per-key state must be
//!   bounded by the resident items and the policy's ghost lists, so
//!   RSS sampled at each quarter of the stream must stay flat over its
//!   second half, however many keys the cache has seen.
//!
//! Results land in `BENCH_memory.json` at the repo root.

use crate::experiments::{ExpOptions, ExpResult};
use crate::output::ShapeCheck;
use pama_core::policy::PamaConfig;
use pama_kv::{CacheBuilder, SetOptions};
use pama_util::json::{obj, Json};
use pama_util::{SimDuration, Xoshiro256StarStar};
use pama_workloads::zipf::ZipfApprox;

const SHARDS: usize = 4;
const ZIPF_ALPHA: f64 = 0.99;
/// Modal value sizes and their percentage weights. Each mode sits high
/// in its power-of-two slot once the 12-byte key is added, and stays
/// in the same slot class across the ±12.5% update jitter.
const SIZE_MODES: &[(usize, u64)] = &[(90, 35), (230, 25), (470, 20), (1000, 12), (1900, 8)];
/// Phase-B size for the hot set: the largest mode, shifting most hot
/// keys into a bigger size class.
const SHIFTED_BYTES: usize = 1900;
/// Assumed page size for `/proc/self/statm` (Linux x86-64 default).
const PAGE_BYTES: u64 = 4096;
/// Churn: how many keys after its miss each key's SET arrives, as a
/// refill from a slower source would. The lag makes each gap at least
/// a few microseconds, so every SET whose miss window survived measures
/// one; it keeps only about two windows per shard open at a time.
const CHURN_LAG: u64 = 8;
/// Churn value size: one small slot class, so the cache fills early.
const CHURN_VALUE_BYTES: usize = 100;
/// Most RSS growth per key over the churn's second half that still
/// counts as flat. A map entry per key costs at least 16 B.
const CHURN_FLAT_BYTES_PER_KEY: f64 = 2.0;
/// Most RSS per resident item beyond its key and value at full scale:
/// the item's slot records (a 28 B data record and a 24 B policy node),
/// its share of free slots' records and of slot rounding, its index
/// bucket, and the policy's ghosts. A second per-item structure (a 56 B
/// LRU node, a 40 B entry bucket) breaks it.
const OVERHEAD_BYTES_PER_ITEM: f64 = 170.0;
/// The same bound at smoke scale, where a quarter of the items carry
/// the same fixed costs (miss-window tables, class ledgers, ghost lists).
const SMOKE_OVERHEAD_BYTES_PER_ITEM: f64 = 240.0;

/// Resident set size in bytes, if the platform exposes it.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * PAGE_BYTES)
}

fn mix(x: u64) -> u64 {
    let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Deterministic base value size for a key, drawn from [`SIZE_MODES`].
fn base_len(key_index: u64) -> usize {
    let mut r = (mix(key_index) >> 33) % 100;
    for &(len, weight) in SIZE_MODES {
        if r < weight {
            return len;
        }
        r -= weight;
    }
    SIZE_MODES[0].0
}

/// The size actually written for the `serial`-th SET of a key: the
/// mode minus up to ~3% of itself. Successive versions of an object
/// differ by a few percent — within one slot class, but re-binned on
/// every update by an exact-fit allocator.
fn versioned_len(base: usize, key_index: u64, serial: u64) -> usize {
    base - (mix(key_index ^ serial.rotate_left(17)) as usize) % (base / 32 + 1)
}

/// Deterministic regeneration penalty: larger objects cost more to
/// rebuild. Explicit penalties on every SET keep the policy's decisions
/// identical from run to run — the live probe estimator measures
/// wall-clock gaps, which would diverge between runs.
fn penalty_of(base: usize) -> SimDuration {
    SimDuration::from_millis(20 + base as u64 / 20)
}

struct Setup {
    total_bytes: u64,
    /// Slab size scales with the budget so the value tracker's bottom
    /// segments (sized in slots-per-slab) stay a small fraction of a
    /// shard's population at smoke scale too.
    slab_bytes: u64,
    keys: Vec<Vec<u8>>,
    /// Phase A: zipfian fill-and-churn indices.
    churn_seq: Vec<u32>,
    /// Phase B: per-round zipfian background indices.
    background_seq: Vec<u32>,
    rounds: usize,
    /// Hot-set size for the phase-B regime shift. Must stay below the
    /// ghost-list capacity of the shifted size class —
    /// `(m + 1) · slots_per_slab` — or evicted hot keys cycle out of
    /// the ghost lists before they are re-referenced and PAMA never
    /// sees the incoming value that justifies a migration.
    hot_keys: usize,
    /// PAMA snapshot window (accesses per shard between tracker
    /// rebuilds). Ghost entries only earn incoming value once a
    /// snapshot has stamped them, so the window must be small enough
    /// that several rebuilds happen during phase B.
    value_window: u64,
    /// One max-size payload buffer, sliced per SET.
    payload: Vec<u8>,
}

fn build_setup(opts: &ExpOptions) -> Setup {
    let key_count: usize = if opts.smoke { 40_000 } else { 150_000 };
    let total_bytes: u64 = if opts.smoke { 8 << 20 } else { 32 << 20 };
    let churn_ops = opts.scaled(if opts.smoke { 80_000 } else { 400_000 });
    let rounds = if opts.smoke { 16 } else { 48 };
    let background_per_round = if opts.smoke { 500 } else { 1_000 };
    let seed = opts.seed.unwrap_or(0x5EED_0E30);

    let zipf = ZipfApprox::new(key_count as u64, ZIPF_ALPHA);
    let mut rng = Xoshiro256StarStar::from_seed(seed);
    Setup {
        total_bytes,
        slab_bytes: if opts.smoke { 64 << 10 } else { 256 << 10 },
        keys: (0..key_count).map(|i| format!("obj:{i:08}").into_bytes()).collect(),
        churn_seq: (0..churn_ops).map(|_| zipf.sample(&mut rng) as u32).collect(),
        background_seq: (0..rounds * background_per_round)
            .map(|_| zipf.sample(&mut rng) as u32)
            .collect(),
        rounds,
        hot_keys: if opts.smoke { 64 } else { 256 },
        value_window: if opts.smoke { 256 } else { 1024 },
        payload: vec![0xB7; SHIFTED_BYTES],
    }
}

/// Runs the full workload and returns the result object, with the
/// arena's ledger under `arena_ledger`.
fn run_workload(setup: &Setup) -> Json {
    let rss_before = rss_bytes();
    let cache = CacheBuilder::new()
        .total_bytes(setup.total_bytes)
        .slab_bytes(setup.slab_bytes)
        .shards(SHARDS)
        .pama(PamaConfig {
            value_window: setup.value_window,
            migration_cooldown: 64,
            ..PamaConfig::default()
        })
        .build();
    let mut serial = 0u64;

    // Phase A: demand-fill churn. The working set exceeds the budget,
    // so the steady state is constant eviction pressure.
    for &i in &setup.churn_seq {
        let key = setup.keys[i as usize].as_slice();
        if cache.get(key).is_none() {
            serial += 1;
            let base = base_len(i as u64);
            let _ = cache.set(
                key,
                &setup.payload[..versioned_len(base, i as u64, serial)],
                &SetOptions::new().penalty(penalty_of(base)),
            );
        }
    }

    // Phase B: regime shift — the hot set's objects grow to the
    // largest mode and become expensive to regenerate. Their repeated
    // misses are the incoming-value evidence PAMA needs to migrate
    // slabs toward the larger class.
    let per_round = setup.background_seq.len() / setup.rounds.max(1);
    for round in 0..setup.rounds {
        for k in 0..setup.hot_keys.min(setup.keys.len()) {
            let key = setup.keys[k].as_slice();
            if cache.get(key).is_none() {
                serial += 1;
                let _ = cache.set(
                    key,
                    &setup.payload[..versioned_len(SHIFTED_BYTES, k as u64, serial)],
                    &SetOptions::new().penalty(SimDuration::from_millis(800)),
                );
            }
        }
        for &i in &setup.background_seq[round * per_round..(round + 1) * per_round] {
            let key = setup.keys[i as usize].as_slice();
            if cache.get(key).is_none() && i as usize >= setup.hot_keys {
                serial += 1;
                let base = base_len(i as u64);
                let _ = cache.set(
                    key,
                    &setup.payload[..versioned_len(base, i as u64, serial)],
                    &SetOptions::new().penalty(penalty_of(base)),
                );
            }
        }
    }

    let rss_after = rss_bytes();
    cache.check_invariants().expect("cache invariants after workload");
    let stats = cache.report().cache;
    let rss_delta = match (rss_before, rss_after) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b)),
        _ => None,
    };
    let overhead = rss_delta
        .map(|d| (d.saturating_sub(stats.live_bytes)) as f64 / stats.items.max(1) as f64);
    let slabs = cache.report().slabs.expect("the slab ledger is always reported");
    let class_rows = Json::Arr(
        slabs
            .classes
            .iter()
            .map(|c| {
                obj(vec![
                    ("class", Json::U64(c.class as u64)),
                    ("slot_bytes", Json::U64(c.slot_bytes)),
                    ("slabs", Json::U64(c.slabs)),
                    ("live_slots", Json::U64(c.live_slots)),
                    ("free_slots", Json::U64(c.free_slots)),
                    ("live_bytes", Json::U64(c.live_bytes)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("items", Json::U64(stats.items)),
        ("live_bytes", Json::U64(stats.live_bytes)),
        ("evictions", Json::U64(stats.evictions)),
        ("hits", Json::U64(stats.hits)),
        ("misses", Json::U64(stats.misses)),
        ("sets", Json::U64(stats.sets)),
        ("rejected", Json::U64(stats.rejected)),
        ("rss_delta_bytes", rss_delta.map_or(Json::Null, Json::U64)),
        ("overhead_per_item_bytes", overhead.map_or(Json::Null, Json::F64)),
        (
            "arena_ledger",
            obj(vec![
                ("slabs", Json::U64(slabs.slabs)),
                ("max_slabs", Json::U64(slabs.max_slabs)),
                ("resident_bytes", Json::U64(slabs.resident_bytes)),
                ("meta_bytes", Json::U64(slabs.meta_bytes)),
                ("requested_bytes", Json::U64(slabs.requested_bytes)),
                ("slot_bytes", Json::U64(slabs.slot_bytes)),
                ("free_slots", Json::U64(slabs.free_slots)),
                ("internal_frag_bytes", Json::U64(slabs.internal_frag_bytes())),
                ("overhead_per_item_bytes", Json::F64(slabs.overhead_per_item())),
                ("transfers", Json::U64(slabs.transfers)),
                ("slot_moves", Json::U64(slabs.slot_moves)),
                (
                    "occupancy_deciles",
                    Json::Arr(slabs.occupancy_deciles.iter().map(|&d| Json::U64(d)).collect()),
                ),
                ("classes", class_rows),
            ]),
        ),
    ])
}

/// Runs the churn phase over `keys` distinct keys and returns its
/// section: RSS at the start and after each quarter of the stream.
fn run_churn(setup: &Setup, keys: u64) -> Json {
    let cache = CacheBuilder::new()
        .total_bytes(setup.total_bytes)
        .slab_bytes(setup.slab_bytes)
        .shards(SHARDS)
        .build();
    let key = |i: u64, buf: &mut String| {
        use std::fmt::Write;
        buf.clear();
        let _ = write!(buf, "churn:{i:010}");
    };
    let (mut miss_key, mut set_key) = (String::new(), String::new());
    let value = [0x5A; CHURN_VALUE_BYTES];
    let mut rss = vec![rss_bytes()];
    for i in 0..keys + CHURN_LAG {
        if i < keys {
            key(i, &mut miss_key);
            let hit = cache.get(miss_key.as_bytes());
            debug_assert!(hit.is_none(), "churn keys are distinct");
        }
        if let Some(j) = i.checked_sub(CHURN_LAG) {
            key(j, &mut set_key);
            let _ = cache.set(set_key.as_bytes(), &value, &SetOptions::default());
            if (j + 1) % (keys / 4).max(1) == 0 && rss.len() < 5 {
                rss.push(rss_bytes());
            }
        }
    }
    cache.check_invariants().expect("cache invariants after churn");
    let stats = cache.report().cache;
    let growth = match (rss[2], rss[4]) {
        (Some(half), Some(end)) => Some(end.saturating_sub(half)),
        _ => None,
    };
    let per_key = growth.map(|g| g as f64 / (keys / 2).max(1) as f64);
    let mib: Vec<String> = rss
        .iter()
        .map(|r| r.map_or("?".into(), |b| format!("{:.1}", b as f64 / (1 << 20) as f64)))
        .collect();
    println!(
        "  churn: {keys} distinct keys missed then SET, {} measured penalties, \
         RSS by quarter {} MiB",
        stats.measured_penalties,
        mib.join(" → "),
    );
    obj(vec![
        ("keys", Json::U64(keys)),
        ("lag_keys", Json::U64(CHURN_LAG)),
        ("value_bytes", Json::U64(CHURN_VALUE_BYTES as u64)),
        ("items", Json::U64(stats.items)),
        ("evictions", Json::U64(stats.evictions)),
        ("measured_penalties", Json::U64(stats.measured_penalties)),
        (
            "rss_bytes_by_quarter",
            Json::Arr(rss.iter().map(|r| r.map_or(Json::Null, Json::U64)).collect()),
        ),
        ("second_half_growth_bytes", growth.map_or(Json::Null, Json::U64)),
        ("second_half_growth_per_key_bytes", per_key.map_or(Json::Null, Json::F64)),
        ("flat_bytes_per_key", Json::F64(CHURN_FLAT_BYTES_PER_KEY)),
        ("flat", Json::Bool(per_key.is_some_and(|b| b <= CHURN_FLAT_BYTES_PER_KEY))),
    ])
}

fn u(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn f(j: &Json, key: &str) -> Option<f64> {
    j.get(key).and_then(Json::as_f64)
}

/// Runs the memory-overhead suite and writes `BENCH_memory.json` at
/// the repo root.
pub fn run(opts: &ExpOptions) -> ExpResult {
    let key_count: usize = if opts.smoke { 40_000 } else { 150_000 };
    let mean_value: f64 =
        SIZE_MODES.iter().map(|&(len, w)| len as f64 * w as f64 / 100.0).sum();
    let setup = build_setup(opts);
    println!(
        "kv memory: {key_count} zipf(α={ZIPF_ALPHA}) keys, mean value {mean_value:.0} B, \
         {} churn ops + {} shift rounds, {} MiB budget{}",
        setup.churn_seq.len(),
        setup.rounds,
        setup.total_bytes >> 20,
        if opts.smoke { " [smoke]" } else { "" }
    );

    let arena = run_workload(&setup);
    let ledger = arena.get("arena_ledger").cloned().unwrap_or(Json::Null);

    println!(
        "  arena: {} items, {} B live, rss Δ {} B, overhead/item {:.1} B",
        u(&arena, "items"),
        u(&arena, "live_bytes"),
        u(&arena, "rss_delta_bytes"),
        f(&arena, "overhead_per_item_bytes").unwrap_or(f64::NAN),
    );
    println!(
        "  arena ledger: {} slabs, {} transfers, {} slot moves, {:.1}% internal frag, \
         {:.1} B/item accounting overhead",
        u(&ledger, "slabs"),
        u(&ledger, "transfers"),
        u(&ledger, "slot_moves"),
        100.0 * u(&ledger, "internal_frag_bytes") as f64
            / u(&ledger, "slot_bytes").max(1) as f64,
        f(&ledger, "overhead_per_item_bytes").unwrap_or(f64::NAN),
    );
    let churn_keys = if opts.smoke { 200_000 } else { 2_000_000 };
    let churn = run_churn(&setup, churn_keys);

    let report = obj(vec![
        ("schema", Json::Str("pama-bench-memory/v2".into())),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "config",
            obj(vec![
                ("keys", Json::U64(key_count as u64)),
                ("total_bytes", Json::U64(setup.total_bytes)),
                ("slab_bytes", Json::U64(setup.slab_bytes)),
                ("shards", Json::U64(SHARDS as u64)),
                ("zipf_alpha", Json::F64(ZIPF_ALPHA)),
                ("mean_value_bytes", Json::F64(mean_value)),
                ("churn_ops", Json::U64(setup.churn_seq.len() as u64)),
                ("shift_rounds", Json::U64(setup.rounds as u64)),
                ("seed", Json::U64(opts.seed.unwrap_or(0x5EED_0E30))),
            ]),
        ),
        ("arena", arena.clone()),
        ("churn", churn.clone()),
    ]);
    let path = "BENCH_memory.json";
    std::fs::write(path, report.to_string_pretty() + "\n").expect("write BENCH_memory.json");
    println!("  wrote {path}");

    let mut checks = Vec::new();
    checks.push(ShapeCheck::new(
        "arena ledger agrees exactly with logical cache stats",
        u(&ledger, "requested_bytes") == u(&arena, "live_bytes")
            && u(&ledger, "slabs") <= u(&ledger, "max_slabs"),
        format!(
            "ledger {} B requested vs stats {} B live, {}/{} slabs",
            u(&ledger, "requested_bytes"),
            u(&arena, "live_bytes"),
            u(&ledger, "slabs"),
            u(&ledger, "max_slabs"),
        ),
    ));
    checks.push(ShapeCheck::new(
        "regime shift made PAMA move physical slabs",
        u(&ledger, "transfers") > 0,
        format!(
            "{} slab transfers, {} slot moves",
            u(&ledger, "transfers"),
            u(&ledger, "slot_moves")
        ),
    ));
    // Every item occupies the smallest power-of-two slot that fits it,
    // so rounding waste is strictly under half the occupied slot bytes.
    checks.push(ShapeCheck::new(
        "internal fragmentation below the power-of-two worst case (50% of slot bytes)",
        u(&ledger, "internal_frag_bytes") * 2 < u(&ledger, "slot_bytes").max(1),
        format!(
            "{} B frag over {} B occupied slots ({:.1}%)",
            u(&ledger, "internal_frag_bytes"),
            u(&ledger, "slot_bytes"),
            100.0 * u(&ledger, "internal_frag_bytes") as f64
                / u(&ledger, "slot_bytes").max(1) as f64
        ),
    ));
    checks.push(ShapeCheck::new(
        "arena resident bytes bounded by the configured budget plus slot metadata",
        u(&ledger, "resident_bytes") <= setup.total_bytes + u(&ledger, "meta_bytes"),
        format!(
            "{} B resident vs {} B budget + {} B meta",
            u(&ledger, "resident_bytes"),
            setup.total_bytes,
            u(&ledger, "meta_bytes")
        ),
    ));
    let overhead_bound =
        if opts.smoke { SMOKE_OVERHEAD_BYTES_PER_ITEM } else { OVERHEAD_BYTES_PER_ITEM };
    let overhead = f(&arena, "overhead_per_item_bytes");
    checks.push(ShapeCheck::new(
        "RSS per resident item beyond key and value within one slot record's budget",
        overhead.is_some_and(|o| o <= overhead_bound),
        format!(
            "{:.1} B/item over {} items (bound {overhead_bound} B{})",
            overhead.unwrap_or(f64::NAN),
            u(&arena, "items"),
            if opts.smoke { ", smoke scale" } else { "" }
        ),
    ));
    checks.push(ShapeCheck::new(
        "RSS stays flat over the second half of a distinct-key churn",
        churn.get("flat").and_then(Json::as_bool).unwrap_or(false),
        format!(
            "{} B over the last {} keys ({:.2} B/key, flat ≤ {CHURN_FLAT_BYTES_PER_KEY} B/key)",
            u(&churn, "second_half_growth_bytes"),
            churn_keys / 2,
            f(&churn, "second_half_growth_per_key_bytes").unwrap_or(f64::NAN),
        ),
    ));
    checks
}
