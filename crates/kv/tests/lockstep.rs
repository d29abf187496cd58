//! The kv store makes the simulator's allocation decisions.
//!
//! One seeded, single-threaded request stream runs into a one-shard
//! `PamaCache` and, one request per call, into an `Engine<Pama>` on the
//! same geometry:
//!
//! * GET: a GET (a kv hit is deferred to the next write lock); on a miss
//!   the caller fills with a SET that carries the key's penalty;
//! * SET: a SET, whether or not the key is resident;
//! * DELETE: a DELETE, whether or not the key is resident.
//!
//! Every GET must hit or miss alike and every DELETE find the key alike,
//! and at the end the two must agree on evictions, resident items and
//! every class's slab count. The cache is small enough that the stream
//! evicts and moves slabs, and halfway through the popular keys shift to
//! another size class, so slabs have to follow them. Rewrites change a
//! key's size, and a quarter of them also move it to another penalty
//! band, so a resident SET is updated in place, moved to another class,
//! or moved to another band, on both sides.

use pama_core::config::CacheConfig;
use pama_core::policy::{Pama, PamaConfig, Policy};
use pama_core::{Engine, EngineConfig};
use pama_kv::{CacheBuilder, SetOptions};
use pama_trace::Request;
use pama_util::{Rng, SimDuration, SimTime, Xoshiro256StarStar};

const TOTAL_BYTES: u64 = 1 << 20;
const SLAB_BYTES: u64 = 64 << 10;
const KEYS: u64 = 1_200;
const OPS: u64 = 80_000;

fn pama() -> PamaConfig {
    PamaConfig { value_window: 2_000, ..PamaConfig::default() }
}

fn key(id: u64) -> Vec<u8> {
    format!("ls:{id:06}").into_bytes()
}

/// Keys `0..KEYS/2` hold small values, the rest large ones; within
/// each half, sizes and penalties vary by key.
fn value_len(id: u64, rewrite: bool) -> usize {
    let small = [60, 200, 450];
    let large = [1_500, 3_000, 7_000];
    let pick = (id + u64::from(rewrite)) as usize % 3;
    if id < KEYS / 2 {
        small[pick]
    } else {
        large[pick]
    }
}

/// A key's penalty after `moves` moves to another band: 1 ms, 20 ms,
/// 300 ms and 2 s each fall in a band of their own.
fn penalty(id: u64, moves: u64) -> SimDuration {
    let ms = [1, 20, 300, 2_000];
    SimDuration::from_millis(ms[((id / 3 + moves) % 4) as usize])
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get,
    Set { rewrite: bool, reband: bool },
    Delete,
}

/// The seeded stream: 85% GETs, 12% SETs (a quarter of them rewrites,
/// which change the key's size, and a quarter of those also its penalty
/// band), 3% DELETEs. Popularity is skewed toward low ranks, and the
/// popular half of the key space switches halfway through.
fn stream(seed: u64) -> Vec<(Op, u64)> {
    let mut rng = Xoshiro256StarStar::from_seed(seed);
    (0..OPS)
        .map(|i| {
            let u = rng.next_f64();
            let op = if u < 0.85 {
                Op::Get
            } else if u < 0.97 {
                let rewrite = rng.next_f64() < 0.25;
                Op::Set { rewrite, reband: rewrite && rng.next_f64() < 0.25 }
            } else {
                Op::Delete
            };
            let half = KEYS / 2;
            let rank = (rng.next_f64().powi(3) * half as f64) as u64;
            let popular = if i < OPS / 2 { 0 } else { half };
            let id = if rng.next_f64() < 0.8 { popular + rank } else { rng.gen_range(KEYS) };
            (op, id)
        })
        .collect()
}

/// The simulator side: the engine plus the counts the engine does not
/// keep.
struct Sim {
    engine: Engine<Pama>,
    /// Requests that made their own key resident, and that made it
    /// leave; every other departure is an eviction.
    entered: u64,
    left: u64,
}

impl Sim {
    fn new() -> Self {
        let cfg = CacheConfig {
            total_bytes: TOTAL_BYTES,
            slab_bytes: SLAB_BYTES,
            demand_fill: false,
            ..CacheConfig::default()
        };
        let policy = Pama::with_config(cfg, pama());
        Sim { engine: Engine::new(policy, EngineConfig::default()), entered: 0, left: 0 }
    }

    fn resident(&self, id: u64) -> bool {
        self.engine.policy().cache().contains(id)
    }

    /// One engine request; returns whether its key was resident before.
    fn step(&mut self, req: Request) -> bool {
        let was = self.resident(req.key);
        self.engine.step(&req);
        let is = self.resident(req.key);
        self.entered += u64::from(!was && is);
        self.left += u64::from(was && !is);
        was
    }

    /// GET with the caller's fill; returns whether it hit.
    fn get(&mut self, id: u64, len: usize, penalty: SimDuration, t: SimTime) -> bool {
        let klen = key(id).len() as u32;
        let hit = self.step(Request::get(t, id, klen, len as u32).with_penalty(penalty));
        if !hit {
            self.step(Request::set(t, id, klen, len as u32).with_penalty(penalty));
        }
        hit
    }

    /// What a SET of `id` does to its resident item: 0 keeps its class
    /// and band, 1 moves it to another class, 2 to another band of its
    /// class. `None` when the key is not resident.
    fn rewrite_kind(&self, id: u64, len: usize, penalty: SimDuration) -> Option<usize> {
        let cache = self.engine.policy().cache();
        let old = cache.peek(id)?;
        let class = cache.cfg().class_of(key(id).len() as u32, len as u32)?;
        let band = cache.cfg().band_of(penalty);
        Some(if class != old.class as usize {
            1
        } else {
            usize::from(band != old.band as usize) * 2
        })
    }

    /// Items that left without a request for their own key.
    fn evictions(&self) -> u64 {
        self.entered - self.left - self.engine.policy().cache().len() as u64
    }
}

fn run_lockstep(seed: u64) {
    let cache = CacheBuilder::new()
        .total_bytes(TOTAL_BYTES)
        .slab_bytes(SLAB_BYTES)
        .shards(1)
        .pama(pama())
        .build();
    let mut sim = Sim::new();
    // The size each key was last written with, and how often its
    // penalty has moved band, shared by both sides.
    let mut len: Vec<usize> = (0..KEYS).map(|id| value_len(id, false)).collect();
    let mut moves = vec![0u64; KEYS as usize];
    let bytes = vec![0x5A; 8 << 10];
    let (mut hits, mut rewrites, mut absent_deletes) = (0u64, [0u64; 3], 0u64);
    for (i, (op, id)) in stream(seed).into_iter().enumerate() {
        let t = SimTime::from_micros(i as u64);
        let k = key(id);
        let ix = id as usize;
        if let Op::Set { rewrite, reband } = op {
            len[ix] = value_len(id, rewrite);
            moves[ix] += u64::from(reband);
        }
        let p = penalty(id, moves[ix]);
        let opts = SetOptions::new().penalty(p);
        let klen = k.len() as u32;
        match op {
            Op::Get => {
                let kv_hit = match cache.get(&k) {
                    Some(v) => {
                        assert_eq!(v.len(), len[ix], "op {i}: stale value for {id}");
                        true
                    }
                    None => {
                        let _ = cache.set(&k, &bytes[..len[ix]], &opts);
                        false
                    }
                };
                assert_eq!(kv_hit, sim.get(id, len[ix], p, t), "op {i}: GET {id}");
                hits += u64::from(kv_hit);
            }
            Op::Set { .. } => {
                if let Some(kind) = sim.rewrite_kind(id, len[ix], p) {
                    rewrites[kind] += 1;
                }
                let _ = cache.set(&k, &bytes[..len[ix]], &opts);
                sim.step(Request::set(t, id, klen, len[ix] as u32).with_penalty(p));
            }
            Op::Delete => {
                let kv_deleted = cache.delete(&k);
                let sim_resident = sim.step(Request::delete(t, id, klen));
                assert_eq!(kv_deleted, sim_resident, "op {i}: DELETE {id}");
                absent_deletes += u64::from(!sim_resident);
            }
        }
    }
    cache.check_invariants().unwrap();
    sim.engine.policy().cache().check_invariants().unwrap();
    let report = cache.report();
    let slabs = report.slabs.expect("the slab ledger is always reported");
    assert_eq!(report.cache.deferred_dropped, 0, "a dropped hit would desynchronise the two");
    assert!(hits > 0 && report.cache.misses > 0);
    assert!(rewrites.iter().all(|&n| n > 0), "resident SETs in place/class/band: {rewrites:?}");
    assert!(absent_deletes > 0, "no DELETE of an absent key");
    assert!(report.cache.evictions > 0, "the stream must evict");
    assert!(slabs.transfers > 0, "the stream must move slabs");
    assert_eq!(report.cache.evictions, sim.evictions(), "evictions");
    assert_eq!(report.cache.items, sim.engine.policy().cache().len() as u64, "resident items");
    let kv_slabs: Vec<u64> = slabs.classes.iter().map(|c| c.slabs).collect();
    let sim_slabs: Vec<u64> =
        sim.engine.policy().cache().slab_allocation().into_iter().map(u64::from).collect();
    assert_eq!(kv_slabs, sim_slabs, "per-class slabs");
    assert_eq!(slabs.transfers, sim.engine.policy().migrations(), "slab transfers");
}

#[test]
fn kv_and_simulator_decide_alike() {
    for seed in [3, 17] {
        run_lockstep(seed);
    }
}
