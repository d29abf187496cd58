//! `hot-read`: two threads (one per core of the reference host) run
//! closed loops against one in-process `PamaCache`, each on its own
//! zipf(0.99) stream over its own half of a key set that fits well
//! inside the cache and is prefilled during set-up.
//!
//! 95% of operations are GETs and 5% SET overwrites of the same size.
//! Every hundredth operation is a GET for a key from a fixed pool that
//! is never stored, so `avg_service_ms` is not the constant hit time;
//! everything else hits under the shard's shared read lock. Nothing is
//! evicted or migrated: a change to the allocator should leave this
//! workload flat, while a change to the read path should move it.

use crate::common::{
    end_to_end, registry_layers, self_rss_bytes, trace_overhead, Budget, KvTrace, Layers,
    Memory, Outcome, Phase, SETUP_REPS,
};
use crate::values::{verify, ValueWriter, Versions};
use pama_core::config::CacheConfig;
use pama_core::policy::{Pama, PamaConfig};
use pama_core::{Engine, EngineConfig};
use pama_kv::{PamaCache, SetOptions};
use pama_server::daemon::{build_cache, DaemonOptions};
use pama_trace::Request;
use pama_util::{Rng, SimDuration, SimTime, Xoshiro256StarStar};
use pama_workloads::zipf::ZipfApprox;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client threads.
const THREADS: usize = 2;
/// Keys, split evenly between the threads.
const KEYS: usize = 100_000;
/// Operations pre-generated per thread; the loop wraps around them.
const STREAM: usize = 1 << 20;
/// Zipf exponent of each thread's key stream.
const ZIPF_ALPHA: f64 = 0.99;
/// Value sizes, bytes (uniform per key, fixed across overwrites).
const VALUE_BYTES: (u64, u64) = (40, 200);
/// Keys that are looked up but never stored.
const COLD_POOL: usize = 1024;
/// Their fixed penalties: one representative per paper band.
const COLD_PENALTY_US: [u32; 5] = [500, 5_000, 50_000, 500_000, 2_500_000];
/// One operation in this many is a cold GET.
const COLD_EVERY: usize = 100;
/// Share of operations that are SET overwrites.
const SET_SHARE: f64 = 0.05;
/// Cache size, MiB (pamad's default).
const MEMORY_MB: u64 = 64;
/// Stream operations per thread the traced run replays through the core.
const REPLAY_CAP: usize = 200_000;

const GET: u32 = 0;
const SET: u32 = 1 << 30;
const COLD: u32 = 2 << 30;
const INDEX: u32 = (1 << 30) - 1;

/// The cache options: pamad's builder and defaults.
fn options() -> DaemonOptions {
    DaemonOptions { memory_mb: MEMORY_MB, ..DaemonOptions::default() }
}

/// The generated inputs. Thread `t` owns keys `t, t + THREADS, …`; its
/// stream names them by local index.
#[derive(Debug)]
pub struct Inputs {
    keys: Vec<Vec<u8>>,
    lens: Vec<u32>,
    streams: Vec<Vec<u32>>,
    cold_keys: Vec<Vec<u8>>,
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Xoshiro256StarStar::from_seed(seed);
        let keys = (0..KEYS).map(|i| format!("hot:{i:08x}").into_bytes()).collect();
        let lens = (0..KEYS)
            .map(|_| rng.gen_range_inclusive(VALUE_BYTES.0, VALUE_BYTES.1) as u32)
            .collect();
        let per_thread = (KEYS / THREADS) as u64;
        let zipf = ZipfApprox::new(per_thread, ZIPF_ALPHA);
        let set_p = SET_SHARE * COLD_EVERY as f64 / (COLD_EVERY - 1) as f64;
        let streams = (0..THREADS)
            .map(|t| {
                (0..STREAM)
                    .map(|i| {
                        if i % COLD_EVERY == COLD_EVERY / 2 {
                            COLD | ((i / COLD_EVERY + t * 7) % COLD_POOL) as u32
                        } else if rng.gen_bool(set_p) {
                            SET | zipf.sample(&mut rng) as u32
                        } else {
                            GET | zipf.sample(&mut rng) as u32
                        }
                    })
                    .collect()
            })
            .collect();
        let cold_keys = (0..COLD_POOL).map(|i| format!("cold:{i:04}").into_bytes()).collect();
        Inputs { keys, lens, streams, cold_keys }
    }

    fn global(t: usize, local: usize) -> usize {
        t + THREADS * local
    }
}

fn cold_penalty_us(i: usize) -> u32 {
    COLD_PENALTY_US[i % COLD_PENALTY_US.len()]
}

/// Builds the cache and writes every key once.
fn setup(inputs: &Inputs, versions: &mut [Versions]) -> Arc<PamaCache> {
    let cache = build_cache(&options()).expect("hot-read cache options are valid");
    let mut w = ValueWriter::new();
    for (t, v) in versions.iter_mut().enumerate() {
        v.reset();
        for local in 0..KEYS / THREADS {
            let id = Inputs::global(t, local);
            let value = w.render(id as u64, v.bump(local), inputs.lens[id] as usize);
            cache.set(&inputs.keys[id], value, &SetOptions::default()).expect("prefill fits");
        }
    }
    cache
}

/// One thread's closed loop; returns its phase, its stream position and
/// its output-check violations.
#[allow(clippy::too_many_arguments)]
fn worker(
    inputs: &Inputs,
    t: usize,
    cache: &PamaCache,
    versions: &mut Versions,
    mut cursor: usize,
    budget: Budget,
    barrier: &Barrier,
    mut tr: Option<&mut KvTrace>,
) -> (Phase, usize, Outcome) {
    let stream = &inputs.streams[t];
    let mut w = ValueWriter::new();
    let mut phase = Phase::default();
    let mut out = Outcome::default();
    barrier.wait();
    let start = Instant::now();
    phase.begin(start);
    let mut now = start;
    while !budget.done(start, now, phase.ops + phase.failed) {
        phase.tick(now);
        let op = stream[cursor % STREAM];
        cursor += 1;
        let local = (op & INDEX) as usize;
        match op & !INDEX {
            SET => {
                let id = Inputs::global(t, local);
                let value = w.render(id as u64, versions.bump(local), inputs.lens[id] as usize);
                let t0 = Instant::now();
                let res = cache.set(&inputs.keys[id], value, &SetOptions::default());
                now = Instant::now();
                phase.set_latency(t0, now);
                if let Some(tr) = tr.as_deref_mut() {
                    tr.set(t0, now);
                }
                if res.is_ok() {
                    phase.ops += 1;
                } else {
                    phase.failed += 1;
                    versions.absent(local);
                }
            }
            kind => {
                let cold = kind == COLD;
                let key = if cold {
                    &inputs.cold_keys[local]
                } else {
                    &inputs.keys[Inputs::global(t, local)]
                };
                let t0 = Instant::now();
                let got = cache.get(key);
                now = Instant::now();
                phase.ops += 1;
                phase.gets += 1;
                phase.get_latency(t0, now);
                if let Some(tr) = tr.as_deref_mut() {
                    tr.get(t0, now);
                }
                match got {
                    Some(v) if !cold => {
                        phase.hits += 1;
                        let id = Inputs::global(t, local);
                        let checked = match versions.expect(local) {
                            Some(want) => verify(&v, id as u64, want),
                            None => Err(format!("hit on key {id:x}, which is absent")),
                        };
                        if let Err(e) = checked {
                            out.violation(e);
                        }
                    }
                    Some(_) => {
                        out.violation(format!("cold key {local} hit but was never stored"))
                    }
                    None => {
                        // A resident key only misses after a refused
                        // write; it is charged the default penalty.
                        let p = if cold { cold_penalty_us(local) } else { 100_000 };
                        phase.miss_penalty_us += u64::from(p);
                        if let Some(tr) = tr.as_deref_mut() {
                            tr.miss(t0, now, u64::from(p));
                        }
                    }
                }
            }
        }
    }
    phase.end(now);
    (phase, cursor, out)
}

/// Runs every thread for one phase.
fn phase(
    inputs: &Inputs,
    cache: &PamaCache,
    versions: &mut [Versions],
    cursors: &mut [usize],
    budget: Budget,
    tracers: Option<&mut [KvTrace]>,
    out: &mut Outcome,
) -> Phase {
    let barrier = Barrier::new(THREADS);
    let mut tracers: Vec<Option<&mut KvTrace>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => (0..THREADS).map(|_| None).collect(),
    };
    let results: Vec<(Phase, usize, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = versions
            .iter_mut()
            .zip(cursors.iter())
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(t, ((v, &c), tr))| {
                let barrier = &barrier;
                let tr = tr.take();
                s.spawn(move || worker(inputs, t, cache, v, c, budget, barrier, tr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("hot-read worker panicked")).collect()
    });
    let mut total = Phase::default();
    for (t, (p, cursor, thread_out)) in results.into_iter().enumerate() {
        total.absorb(p);
        cursors[t] = cursor;
        for e in thread_out.errors {
            out.violation(e);
        }
    }
    total
}

/// The benchmark run: set-ups, then the timed phase (traced runs time
/// a traced phase first, then an untraced one for `trace.overhead`).
pub fn run(inputs: &Inputs, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let budget = Budget::Time(Duration::from_secs_f64(seconds));
    let mut versions: Vec<Versions> =
        (0..THREADS).map(|_| Versions::new(KEYS / THREADS)).collect();
    let rss0 = self_rss_bytes();
    let mut setups = Vec::new();
    let mut mem = Memory::added(0, 0);
    let mut cache = None;
    for rep in 0..SETUP_REPS {
        drop(cache.take());
        let t0 = Instant::now();
        let c = setup(inputs, &mut versions);
        setups.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            mem = Memory::added(
                self_rss_bytes().saturating_sub(rss0),
                c.report().cache.live_bytes,
            );
        }
        cache = Some(c);
    }
    let cache = cache.expect("at least one set-up");
    let mut cursors = vec![0usize; THREADS];

    let before = cache.report();
    let registry_before = cache.metrics().map(|m| m.snapshot());
    let mut tracers: Vec<KvTrace> = (0..THREADS).map(|_| KvTrace::default()).collect();
    let traced = phase(
        inputs,
        &cache,
        &mut versions,
        &mut cursors,
        budget,
        trace.then_some(tracers.as_mut_slice()),
        &mut out,
    );
    let after = cache.report();
    let registry_after = cache.metrics().map(|m| m.snapshot());
    if let Err(e) = cache.check_invariants() {
        out.violation(format!("check_invariants: {e}"));
    }
    out.attempted = traced.ops + traced.failed;
    out.failed = traced.failed;
    if !trace {
        out.metrics = end_to_end(&traced, &setups, mem);
        return out;
    }
    // The same phase untraced, from a fresh set-up, so trace.overhead
    // compares identical work on identical cache state.
    let traced_ops = std::mem::replace(&mut cursors, vec![0; THREADS]);
    let num_shards = cache.num_shards();
    drop(cache);
    let cache = setup(inputs, &mut versions);
    let untraced = phase(inputs, &cache, &mut versions, &mut cursors, budget, None, &mut out);
    drop(cache);

    let mut tr = KvTrace::default();
    for t in tracers {
        tr.absorb(t);
    }
    let mut l = Layers::default();
    tr.report(&mut l, &before, &after, &traced);
    if let (Some(a), Some(b)) = (&registry_before, &registry_after) {
        registry_layers(&mut l, a, b);
    }
    let (steps, step_us) = replay_core(inputs, num_shards, &traced_ops);
    l.put("core.step_us.mean", step_us, steps);
    l.put("core.share", step_us / tr.mean_call_us().max(1e-9), steps);
    trace_overhead(&mut l, &traced, &untraced);
    out.untraced = end_to_end(&untraced, &setups, mem);
    out.metrics = l.finish();
    out
}

/// Replays one shard's share of the traffic through an `Engine<Pama>`
/// of one shard's geometry: the keys (and cold keys) whose index is a
/// multiple of `shards`, prefilled untimed, then the threads' traced
/// operations interleaved round-robin. Returns timed steps and their
/// mean, microseconds.
fn replay_core(inputs: &Inputs, shards: usize, traced_ops: &[usize]) -> (u64, f64) {
    let cfg = CacheConfig {
        total_bytes: (MEMORY_MB << 20) / shards as u64,
        slab_bytes: options().slab_kb << 10,
        demand_fill: false,
        ..CacheConfig::default()
    };
    let mut engine =
        Engine::new(Pama::with_config(cfg, PamaConfig::default()), EngineConfig::default());
    let shards = shards.max(1);
    let mut clock = 0u64;
    let mut req_of = |t: usize, op: u32| -> Option<Request> {
        let local = (op & INDEX) as usize;
        clock += 1;
        let now = SimTime::from_micros(clock);
        if op & !INDEX == COLD {
            let p = SimDuration::from_micros(u64::from(cold_penalty_us(local)));
            return local
                .is_multiple_of(shards)
                .then(|| Request::get(now, (KEYS + local) as u64, 9, 0).with_penalty(p));
        }
        let id = Inputs::global(t, local);
        id.is_multiple_of(shards).then(|| {
            let (klen, vlen) = (inputs.keys[id].len() as u32, inputs.lens[id]);
            if op & !INDEX == SET {
                Request::set(now, id as u64, klen, vlen)
            } else {
                Request::get(now, id as u64, klen, vlen)
            }
        })
    };
    for t in 0..THREADS {
        for local in 0..KEYS / THREADS {
            if let Some(r) = req_of(t, SET | local as u32) {
                engine.step(&r);
            }
        }
    }
    let (mut steps, mut ns) = (0u64, 0u64);
    let n = traced_ops.iter().copied().max().unwrap_or(0).min(REPLAY_CAP);
    for i in 0..n {
        for (t, &done) in traced_ops.iter().enumerate() {
            if i >= done {
                continue;
            }
            if let Some(r) = req_of(t, inputs.streams[t][i % STREAM]) {
                let t0 = Instant::now();
                engine.step(&r);
                ns += t0.elapsed().as_nanos() as u64;
                steps += 1;
            }
        }
    }
    (steps, ns as f64 / steps.max(1) as f64 / 1e3)
}
