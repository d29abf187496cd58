//! Developer diagnostic: per-window internals of one policy on the
//! smoke workload (migrations, cache fill, per-class slabs). Not part
//! of the figure suite.
//!
//! `--kv` switches from the simulator to the physical `pama-kv` cache
//! and reports the slab-arena ledger every window — slabs per class,
//! occupancy histogram, internal fragmentation, and cumulative slab
//! transfers / slot moves — so an operator can watch PAMA relocation
//! move real memory, not just slot counts.

use pama_bench::harness::ScaledSetup;
use pama_core::config::{EngineConfig, Tick};
use pama_core::policy::{Pama, PamaConfig, Policy, Psa};
use pama_kv::SetOptions;
use pama_trace::Op;
use pama_util::SimDuration;
use pama_workloads::Preset;

/// Replays the workload through the physical kv cache and prints one
/// slab-ledger line per window of `window_gets` GETs.
fn run_kv(setup: &ScaledSetup, pcfg: PamaConfig) {
    let cache = pama_kv::CacheBuilder::new()
        .total_bytes(setup.cache_sizes[0])
        .slab_bytes(setup.slab_bytes)
        .shards(1)
        .pama(pcfg)
        .build();
    let payload = vec![0xAB_u8; 1 << 20];
    let mut gets = 0u64;
    let mut hits = 0u64;
    let (mut last_transfers, mut last_moves) = (0u64, 0u64);
    for req in setup.workload().build().take(setup.requests) {
        let keybuf = req.key.to_be_bytes();
        let value = &payload[..(req.value_size as usize).min(payload.len())];
        let penalty = SimDuration::from_micros(req.penalty_us);
        match req.op {
            Op::Get => {
                gets += 1;
                if cache.get(&keybuf).is_some() {
                    hits += 1;
                } else {
                    // Demand fill, like the simulator's miss path.
                    let _ = cache.set(&keybuf, value, &SetOptions::new().penalty(penalty));
                }
                if gets.is_multiple_of(setup.window_gets) {
                    let s = cache
                        .report()
                        .slabs
                        .expect("the kv cache always reports its slab ledger");
                    let class_slabs: Vec<u64> = s.classes.iter().map(|c| c.slabs).collect();
                    println!(
                        "w{:>2} hit={:.3} items={} slabs={}/{} free_slots={} frag={:.1}% \
                         transfers=+{} moves=+{} occ={:?} class_slabs={:?}",
                        gets / setup.window_gets,
                        hits as f64 / setup.window_gets as f64,
                        s.live_items,
                        s.slabs,
                        s.max_slabs,
                        s.free_slots,
                        100.0 * s.internal_frag_bytes() as f64 / s.slot_bytes.max(1) as f64,
                        s.transfers - last_transfers,
                        s.slot_moves - last_moves,
                        s.occupancy_deciles,
                        class_slabs,
                    );
                    (last_transfers, last_moves) = (s.transfers, s.slot_moves);
                    hits = 0;
                }
            }
            Op::Set | Op::Replace => {
                let _ = cache.set(&keybuf, value, &SetOptions::new().penalty(penalty));
            }
            Op::Delete => {
                cache.delete(&keybuf);
            }
        }
    }
    let s = cache.report().slabs.expect("the kv cache always reports its slab ledger");
    cache.check_invariants().expect("kv invariants after probe run");
    println!(
        "final: {} items, {} slabs, {} B resident, {} B requested, {} B slot, \
         {:.1} B/item overhead, {} transfers, {} slot moves",
        s.live_items,
        s.slabs,
        s.resident_bytes,
        s.requested_bytes,
        s.slot_bytes,
        s.overhead_per_item(),
        s.transfers,
        s.slot_moves,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let count_mode = args.iter().any(|a| a == "--pre");
    let flag = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let app = args.iter().any(|a| a == "--app");
    let setup = if app {
        ScaledSetup {
            preset: Preset::App,
            n_ranks: 600_000,
            seed: 0xA44,
            requests: flag("--requests", 800_000) as usize,
            cache_sizes: vec![256 << 20],
            slab_bytes: 256 << 10,
            window_gets: 100_000,
        }
    } else {
        ScaledSetup {
            preset: Preset::Etc,
            n_ranks: 60_000,
            seed: 7,
            requests: flag("--requests", 800_000) as usize,
            cache_sizes: vec![16 << 20],
            slab_bytes: 128 << 10,
            window_gets: 50_000,
        }
    };
    let cache = setup.cache(setup.cache_sizes[0]);
    let _ecfg = EngineConfig { window_gets: setup.window_gets, snapshot_allocations: true };
    let psa_m = args
        .iter()
        .position(|a| a == "--psa")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok());
    let pcfg = PamaConfig {
        count_mode,
        value_window: flag("--vw", 100_000),
        migration_cooldown: flag("--cooldown", 64),
        ..PamaConfig::default()
    };
    if args.iter().any(|a| a == "--kv") {
        run_kv(&setup, pcfg);
        return;
    }
    let mut p: Box<dyn Policy + Send> = match psa_m {
        Some(m) => Box::new(Psa::with_period(cache, m)),
        None => Box::new(Pama::with_config(cache, pcfg)),
    };
    let mut gets = 0u64;
    let mut hits = 0u64;
    for (serial, req) in setup.workload().build().take(setup.requests).enumerate() {
        let tick = Tick { now: req.time, serial: serial as u64 };
        match req.op {
            Op::Get => {
                gets += 1;
                if p.on_get(&req, tick).hit {
                    hits += 1;
                }
                if gets.is_multiple_of(setup.window_gets) {
                    println!(
                        "w{:>2} hit={:.3} items={} free_slabs={} alloc={:?}",
                        gets / setup.window_gets,
                        hits as f64 / setup.window_gets as f64,
                        p.cache().len(),
                        p.cache().free_slabs(),
                        &p.cache().slab_allocation()[..10],
                    );
                    hits = 0;
                }
            }
            Op::Set => p.on_set(&req, tick),
            Op::Delete => p.on_delete(&req, tick),
            Op::Replace => p.on_replace(&req, tick),
        }
    }
}
