//! The kv store makes the simulator's allocation decisions.
//!
//! One seeded, single-threaded request stream runs into a one-shard
//! `PamaCache` and, through the kv layer's request rule, into an
//! `Engine<Pama>` on the same geometry. The kv layer turns each call
//! into policy requests as follows:
//!
//! * GET: a GET (a hit is deferred to the next write lock); on a miss
//!   the caller fills with a SET that carries the key's penalty;
//! * SET: a DELETE of the resident generation, if any, then the SET;
//! * DELETE: a DELETE, only when the key is resident.
//!
//! The engine gets the same sequence. Every GET must hit or miss alike,
//! and at the end the two must agree on evictions and on every class's
//! slab count. The cache is small enough that the stream evicts and
//! moves slabs, and halfway through the popular keys shift to another
//! size class, so slabs have to follow them.

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

fn penalty(id: u64) -> SimDuration {
    let ms = [1, 20, 300, 2_000];
    SimDuration::from_millis(ms[(id / 3 % 4) as usize])
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get,
    Set { rewrite: bool },
    Delete,
}

/// The seeded stream: 85% GETs, 12% SETs (a quarter of them change the
/// key's size), 3% DELETEs. Popularity is skewed toward low ranks, and
/// the popular half of the key space switches halfway through.
fn stream(seed: u64) -> Vec<(Op, u64)> {
    let mut rng = Xoshiro256StarStar::from_seed(seed);
    (0..OPS)
        .map(|i| {
            let u = rng.next_f64();
            let op = if u < 0.85 {
                Op::Get
            } else if u < 0.97 {
                Op::Set { rewrite: rng.next_f64() < 0.25 }
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
    inserted: u64,
    removed: u64,
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
        Sim { engine: Engine::new(policy, EngineConfig::default()), inserted: 0, removed: 0 }
    }

    fn resident(&self, id: u64) -> bool {
        self.engine.policy().cache().contains(id)
    }

    fn delete(&mut self, id: u64, t: SimTime) {
        if self.resident(id) {
            self.engine.step(&Request::delete(t, id, key(id).len() as u32));
            self.removed += 1;
        }
    }

    fn set(&mut self, id: u64, len: usize, t: SimTime) {
        self.delete(id, t);
        let req =
            Request::set(t, id, key(id).len() as u32, len as u32).with_penalty(penalty(id));
        self.engine.step(&req);
        self.inserted += u64::from(self.resident(id));
    }

    /// GET with the caller's fill; returns whether it hit.
    fn get(&mut self, id: u64, len: usize, t: SimTime) -> bool {
        let hit = self.resident(id);
        let req =
            Request::get(t, id, key(id).len() as u32, len as u32).with_penalty(penalty(id));
        self.engine.step(&req);
        if !hit {
            self.set(id, len, t);
        }
        hit
    }

    /// Items that left without a DELETE from the stream.
    fn evictions(&self) -> u64 {
        self.inserted - self.removed - self.engine.policy().cache().len() as u64
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
    // The size each key was last written with, shared by both sides.
    let mut len: Vec<usize> = (0..KEYS).map(|id| value_len(id, false)).collect();
    let bytes = vec![0x5A; 8 << 10];
    let opts = |id| SetOptions { penalty: Some(penalty(id)), ..SetOptions::default() };
    let mut hits = 0u64;
    for (i, (op, id)) in stream(seed).into_iter().enumerate() {
        let t = SimTime::from_micros(i as u64);
        let k = key(id);
        match op {
            Op::Get => {
                let kv_hit = match cache.get(&k) {
                    Some(v) => {
                        assert_eq!(v.len(), len[id as usize], "op {i}: stale value for {id}");
                        true
                    }
                    None => {
                        let _ = cache.set(&k, &bytes[..len[id as usize]], &opts(id));
                        false
                    }
                };
                assert_eq!(kv_hit, sim.get(id, len[id as usize], t), "op {i}: GET {id}");
                hits += u64::from(kv_hit);
            }
            Op::Set { rewrite } => {
                len[id as usize] = value_len(id, rewrite);
                let _ = cache.set(&k, &bytes[..len[id as usize]], &opts(id));
                sim.set(id, len[id as usize], t);
            }
            Op::Delete => {
                let kv_deleted = cache.delete(&k);
                assert_eq!(kv_deleted, sim.resident(id), "op {i}: DELETE {id}");
                sim.delete(id, t);
            }
        }
    }
    cache.check_invariants().unwrap();
    sim.engine.policy().cache().check_invariants().unwrap();
    let report = cache.report();
    let slabs = report.slabs.expect("the slab ledger is always reported");
    assert_eq!(report.cache.deferred_dropped, 0, "a dropped hit would desynchronise the two");
    assert!(hits > 0 && report.cache.misses > 0);
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
