//! `app-evict`: an APP-preset request stream replayed into one in-process
//! `PamaCache` by one thread, with a cache much smaller than the
//! trace's footprint, so the allocator evicts and moves slabs all
//! through the timed phase.
//!
//! Each trace GET is a `get`; a miss is followed by a fill `set` that
//! carries the trace's penalty in `SetOptions::penalty`. Trace SETs and
//! REPLACEs replay as `set`, DELETEs as `delete`. With one thread, one
//! shard and explicit penalties, every count here depends only on the
//! generated inputs.

use crate::common::{
    end_to_end, registry_layers, self_rss_bytes, trace_overhead, Budget, KvTrace, Layers,
    Memory, Outcome, Phase, SETUP_REPS,
};
use crate::values::{verify, ValueWriter, Versions};
use pama_core::config::CacheConfig;
use pama_core::policy::{Pama, PamaConfig, Policy};
use pama_core::{Engine, EngineConfig};
use pama_kv::{PamaCache, SetOptions};
use pama_server::daemon::{build_cache, DaemonOptions};
use pama_trace::Request;
use pama_util::{FastMap, Rng, SimDuration, SimTime, Xoshiro256StarStar};
use pama_workloads::zipf::ZipfApprox;
use pama_workloads::{KeySpace, Preset};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Popularity ranks of the APP trace.
const N_RANKS: u64 = 60_000;
/// Requests generated; the timed phase loops over those past warm-up.
const N_REQUESTS: usize = 1_500_000;
/// Requests replayed during set-up, before anything is timed.
const WARMUP: usize = 250_000;
/// Cache size, MiB.
pub const MEMORY_MB: u64 = 48;
/// Slab size, KiB (pamad's default).
const SLAB_KB: u64 = 256;
/// Value sizes are clamped into this range, which keeps four slab
/// classes busy. Beyond it the APP preset's tails leave classes so
/// thinly used that PAMA starves them of slabs and refuses their
/// writes, and the refusals make runs diverge.
const VALUE_BYTES: (usize, usize) = (256, 4_000);
/// Trace requests the traced run replays through `Engine<Pama>`.
const REPLAY_CAP: usize = 400_000;
/// Seed of the APP key catalogue, fixed across runs.
const CATALOGUE_SEED: u64 = 0x00A9_9CA7;

/// The cache options: pamad's builder with one shard, so the core
/// replay runs on exactly the kv layer's geometry.
fn options() -> DaemonOptions {
    DaemonOptions {
        memory_mb: MEMORY_MB,
        slab_kb: SLAB_KB,
        shards: 1,
        ..DaemonOptions::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get,
    Set,
    Delete,
}

#[derive(Debug, Clone, Copy)]
struct TraceOp {
    kind: Kind,
    id: u32,
    len: u32,
    penalty_us: u32,
}

/// The generated inputs: the request sequence over dense key ids, and
/// each id's key bytes.
#[derive(Debug)]
pub struct Inputs {
    ops: Vec<TraceOp>,
    keys: Vec<Vec<u8>>,
}

impl Inputs {
    /// Generates the inputs for `seed`: the APP preset's request
    /// process (zipf popularity, op mix) over its key catalogue. The
    /// catalogue — each key's size and penalty — is drawn once from a
    /// fixed seed, as a benchmark's dataset is, and the preset's key
    /// churn is left out, so the stream is stationary and the timed
    /// phase can loop over it. `seed` drives the request stream: runs
    /// differ in their requests, not in the population they draw from.
    pub fn generate(seed: u64) -> Inputs {
        let cfg = Preset::App.config(N_RANKS, CATALOGUE_SEED);
        let catalogue =
            KeySpace::new(cfg.n_ranks, cfg.seed, cfg.key_size.clone(), cfg.bands.clone());
        let zipf = ZipfApprox::new(cfg.n_ranks, cfg.zipf_alpha);
        let mix = cfg.mix;
        let mut rng = Xoshiro256StarStar::from_seed(seed);
        let mut ids: FastMap<u64, u32> = FastMap::default();
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let ops = (0..N_REQUESTS)
            .map(|_| {
                let u = rng.next_f64() * (mix.get + mix.set + mix.replace + mix.delete);
                let kind = if u < mix.get {
                    Kind::Get
                } else if u < mix.get + mix.set + mix.replace {
                    Kind::Set
                } else {
                    Kind::Delete
                };
                // Deletes hit the catalogue uniformly, as the preset's
                // generator has them.
                let rank = match kind {
                    Kind::Delete => rng.gen_range(cfg.n_ranks),
                    _ => zipf.sample(&mut rng),
                };
                let a = catalogue.attrs_of_rank(rank);
                let id = *ids.entry(a.key).or_insert_with(|| {
                    let mut k = format!("app:{:x}", a.key).into_bytes();
                    k.resize(k.len().max(a.key_size as usize), b'-');
                    keys.push(k);
                    (keys.len() - 1) as u32
                });
                let len = (a.value_size as usize).clamp(VALUE_BYTES.0, VALUE_BYTES.1);
                let penalty_us = a.penalty.as_micros().clamp(1, 5_000_000) as u32;
                TraceOp { kind, id, len: len as u32, penalty_us }
            })
            .collect();
        Inputs { ops, keys }
    }

    /// Distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Key and value bytes of the whole trace's footprint (each key at
    /// its largest value).
    pub fn footprint_bytes(&self) -> u64 {
        let mut largest = vec![0u32; self.keys.len()];
        for op in &self.ops {
            largest[op.id as usize] = largest[op.id as usize].max(op.len);
        }
        largest.iter().zip(&self.keys).map(|(&v, k)| u64::from(v) + k.len() as u64).sum()
    }
}

/// One cache plus the replay position and the per-key versions.
struct Replayer<'a> {
    inputs: &'a Inputs,
    cache: Arc<PamaCache>,
    versions: Versions,
    writer: ValueWriter,
    cursor: usize,
    /// Trace requests replayed since set-up.
    steps: usize,
}

impl<'a> Replayer<'a> {
    /// Builds the cache and replays the warm-up prefix.
    fn setup(inputs: &'a Inputs, mut versions: Versions, out: &mut Outcome) -> Self {
        versions.reset();
        let cache = build_cache(&options()).expect("app-evict cache options are valid");
        let mut r = Replayer {
            inputs,
            cache,
            versions,
            writer: ValueWriter::new(),
            cursor: 0,
            steps: 0,
        };
        let mut warm = Phase::default();
        while r.cursor < WARMUP {
            r.step(&mut warm, None, out);
        }
        r
    }

    /// Replays one trace request (a GET miss adds its fill `set`);
    /// returns the clock read that ended it.
    #[inline]
    fn step(
        &mut self,
        phase: &mut Phase,
        mut tr: Option<&mut KvTrace>,
        out: &mut Outcome,
    ) -> Instant {
        let op = self.inputs.ops[self.cursor];
        self.cursor += 1;
        self.steps += 1;
        if self.cursor == self.inputs.ops.len() {
            self.cursor = WARMUP;
        }
        let id = op.id as usize;
        let key = self.inputs.keys[id].as_slice();
        match op.kind {
            Kind::Get => {
                let t0 = Instant::now();
                let got = self.cache.get(key);
                let t1 = Instant::now();
                phase.ops += 1;
                phase.gets += 1;
                phase.get_latency(t0, t1);
                if let Some(t) = tr.as_deref_mut() {
                    t.get(t0, t1);
                }
                match (got, self.versions.expect(id)) {
                    (Some(v), Some(want)) => {
                        phase.hits += 1;
                        if let Err(e) = verify(&v, id as u64, want) {
                            out.violation(e);
                        }
                        t1
                    }
                    (Some(_), None) => {
                        out.violation(format!("hit on key {id:x}, which is absent"));
                        t1
                    }
                    (None, _) => {
                        phase.miss_penalty_us += u64::from(op.penalty_us);
                        if let Some(t) = tr.as_deref_mut() {
                            t.miss(t0, t1, u64::from(op.penalty_us));
                        }
                        self.write(op, phase, tr)
                    }
                }
            }
            Kind::Set => self.write(op, phase, tr),
            Kind::Delete => {
                let t0 = Instant::now();
                self.cache.delete(key);
                let t1 = Instant::now();
                phase.ops += 1;
                self.versions.absent(id);
                if let Some(t) = tr {
                    t.call(t0, t1);
                }
                t1
            }
        }
    }

    /// A `set` carrying the trace's penalty.
    fn write(&mut self, op: TraceOp, phase: &mut Phase, tr: Option<&mut KvTrace>) -> Instant {
        let id = op.id as usize;
        let version = self.versions.bump(id);
        let value = self.writer.render(id as u64, version, op.len as usize);
        let opts =
            SetOptions::new().penalty(SimDuration::from_micros(u64::from(op.penalty_us)));
        let t0 = Instant::now();
        let res = self.cache.set(&self.inputs.keys[id], value, &opts);
        let t1 = Instant::now();
        phase.set_latency(t0, t1);
        if let Some(t) = tr {
            t.set(t0, t1);
        }
        if res.is_ok() {
            phase.ops += 1;
        } else {
            phase.failed += 1;
            self.versions.absent(id);
        }
        t1
    }

    /// Runs a closed-loop phase.
    fn phase(
        &mut self,
        budget: Budget,
        mut tr: Option<&mut KvTrace>,
        out: &mut Outcome,
    ) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        phase.begin(start);
        let mut now = start;
        while !budget.done(start, now, phase.ops + phase.failed) {
            now = self.step(&mut phase, tr.as_deref_mut(), out);
            phase.tick(now);
        }
        phase.end(now);
        phase
    }
}

/// Counts a short run's timed phase produces; identical for identical
/// inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    /// GET hits.
    pub hits: u64,
    /// GET misses.
    pub misses: u64,
    /// Physical slab transfers.
    pub slab_transfers: u64,
    /// Evictions.
    pub evictions: u64,
    /// Refused operations.
    pub failed: u64,
    /// The paper's average GET service time, milliseconds.
    pub avg_service_ms: f64,
    /// Output-check violations.
    pub errors: Vec<String>,
}

/// Set-up plus exactly `ops` timed-phase operations.
pub fn counts(inputs: &Inputs, ops: u64) -> Counts {
    let mut out = Outcome::default();
    let mut r = Replayer::setup(inputs, Versions::new(inputs.key_count()), &mut out);
    let before = r.cache.report().cache;
    let phase = r.phase(Budget::Ops(ops), None, &mut out);
    if let Err(e) = r.cache.check_invariants() {
        out.violation(format!("check_invariants: {e}"));
    }
    let after = r.cache.report().cache;
    Counts {
        hits: phase.hits,
        misses: phase.gets - phase.hits,
        slab_transfers: after.slab_transfers - before.slab_transfers,
        evictions: after.evictions - before.evictions,
        failed: phase.failed,
        avg_service_ms: phase.avg_service_ms(),
        errors: out.errors,
    }
}

/// The benchmark run: set-ups, then the timed phase (traced runs time
/// a traced phase first, then an untraced one for `trace.overhead`).
pub fn run(inputs: &Inputs, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let budget = Budget::Time(Duration::from_secs_f64(seconds));
    let mut spare = Some(Versions::new(inputs.key_count()));
    let rss0 = self_rss_bytes();
    let mut setups = Vec::new();
    let mut mem = Memory::added(0, 0);
    let mut replayer: Option<Replayer<'_>> = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous cache before building the next one.
        let versions = match replayer.take() {
            Some(r) => r.versions,
            None => spare.take().expect("versions allocated once"),
        };
        let t0 = Instant::now();
        let r = Replayer::setup(inputs, versions, &mut out);
        setups.push(t0.elapsed().as_secs_f64());
        if rep == 0 {
            mem = Memory::added(
                self_rss_bytes().saturating_sub(rss0),
                r.cache.report().cache.live_bytes,
            );
        }
        replayer = Some(r);
    }
    let mut r = replayer.expect("at least one set-up");

    let before = r.cache.report();
    let registry_before = r.cache.metrics().map(|m| m.snapshot());
    let mut tracer = KvTrace::default();
    let (start_cursor, start_steps) = (r.cursor, r.steps);
    let phase = r.phase(budget, trace.then_some(&mut tracer), &mut out);
    let after = r.cache.report();
    let registry_after = r.cache.metrics().map(|m| m.snapshot());
    if let Err(e) = r.cache.check_invariants() {
        out.violation(format!("check_invariants: {e}"));
    }
    out.attempted = phase.ops + phase.failed;
    out.failed = phase.failed;
    if !trace {
        out.metrics = end_to_end(&phase, &setups, mem);
        return out;
    }
    let traced_steps = r.steps - start_steps;
    // The same phase untraced, from a fresh set-up, so trace.overhead
    // compares identical work on identical cache state.
    let untraced = {
        let Replayer { versions, .. } = r;
        let mut again = Replayer::setup(inputs, versions, &mut out);
        again.phase(budget, None, &mut out)
    };

    let mut l = Layers::default();
    tracer.report(&mut l, &before, &after, &phase);
    let (steps, step_us) = replay_core(inputs, start_cursor, traced_steps.min(REPLAY_CAP));
    l.put("core.step_us.mean", step_us, steps);
    l.put("core.share", step_us / tracer.mean_call_us().max(1e-9), steps);
    if let (Some(a), Some(b)) = (&registry_before, &registry_after) {
        registry_layers(&mut l, a, b);
    }
    trace_overhead(&mut l, &phase, &untraced);
    out.untraced = end_to_end(&untraced, &setups, mem);
    out.metrics = l.finish();
    out
}

/// Replays the warm-up and then `n` trace requests from `start` through
/// an `Engine<Pama>` on the kv shard's geometry, with the kv layer's
/// fill rule; returns the timed steps and their mean, microseconds.
fn replay_core(inputs: &Inputs, start: usize, n: usize) -> (u64, f64) {
    let opts = options();
    let cfg = CacheConfig {
        total_bytes: opts.memory_mb << 20,
        slab_bytes: opts.slab_kb << 10,
        demand_fill: false,
        ..CacheConfig::default()
    };
    let mut engine =
        Engine::new(Pama::with_config(cfg, PamaConfig::default()), EngineConfig::default());
    let step = |engine: &mut Engine<Pama>, i: usize, timed: &mut Option<(u64, u64)>| {
        let op = inputs.ops[i];
        let key = u64::from(op.id);
        let klen = inputs.keys[op.id as usize].len() as u32;
        let t = SimTime::from_micros(i as u64);
        let penalty = SimDuration::from_micros(u64::from(op.penalty_us));
        let get = Request::get(t, key, klen, op.len).with_penalty(penalty);
        let set = Request::set(t, key, klen, op.len).with_penalty(penalty);
        let (reqs, n) = match op.kind {
            Kind::Get if engine.policy().cache().contains(key) => ([get, get], 1),
            Kind::Get => ([get, set], 2),
            Kind::Set => ([set, set], 1),
            Kind::Delete => ([Request::delete(t, key, klen); 2], 1),
        };
        for req in &reqs[..n] {
            let t0 = Instant::now();
            engine.step(req);
            if let Some((steps, ns)) = timed.as_mut() {
                *ns += t0.elapsed().as_nanos() as u64;
                *steps += 1;
            }
        }
    };
    let mut untimed = None;
    for i in 0..WARMUP {
        step(&mut engine, i, &mut untimed);
    }
    let mut timed = Some((0u64, 0u64));
    let mut i = start;
    for _ in 0..n {
        step(&mut engine, i, &mut timed);
        i += 1;
        if i == inputs.ops.len() {
            i = WARMUP;
        }
    }
    let (steps, ns) = timed.expect("timed replay");
    (steps, ns as f64 / steps.max(1) as f64 / 1e3)
}
