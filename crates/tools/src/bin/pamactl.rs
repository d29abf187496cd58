//! `pamactl` — the operator's Swiss-army knife for this repository:
//! generate traces, inspect them, estimate penalties, and run ad-hoc
//! simulations, all from the command line.
//!
//! ```text
//! pamactl gen  --preset etc --requests 1000000 --keys 200000 --seed 7 -o etc.trace
//! pamactl stat etc.trace
//! pamactl penalties etc.trace
//! pamactl sim  etc.trace --policy pama --cache-mb 64 [--policy psa ...]
//! pamactl convert etc.trace etc.jsonl
//! pamactl ping  --addr 127.0.0.1:11211
//! pamactl metrics --addr 127.0.0.1:11211
//! ```
//!
//! Traces use the compact binary format by default; any path ending in
//! `.jsonl` reads/writes JSON lines instead.

use pama_tools::args::Args;

use pama_core::config::{CacheConfig, EngineConfig};
use pama_core::engine::Engine;
use pama_core::policy::{
    FacebookAge, GlobalLru, LamaLite, MemcachedOriginal, Pama, Policy, Psa, Twemcache,
};
use pama_trace::{codec, PenaltyEstimator, Trace, TraceSummary};
use pama_util::table::{fnum, Table};
use pama_workloads::Preset;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "pamactl — PAMA trace & simulation tool

USAGE:
  pamactl gen  --preset <etc|app|usr|sys|var> [--requests N] [--keys N] [--seed S] -o FILE
  pamactl stat FILE
  pamactl penalties FILE
  pamactl sim  FILE [--policy NAME]... [--cache-mb N] [--slab-kb N] [--window N]
  pamactl convert SRC DST
  pamactl ping  [--addr ADDR]
  pamactl metrics [--addr ADDR]

policies: memcached, psa, psa-unguarded, pre-pama, pama, facebook, twemcache, lama, global-lru
Paths ending in .jsonl use the JSON-lines codec; everything else the binary codec.
ping checks a running server (pamad) answers `version`; metrics fetches
`stats metrics` and prints it as a Prometheus-style text exposition."
    );
    std::process::exit(2);
}

fn read_trace(path: &str) -> Trace {
    let f = File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let mut r = BufReader::new(f);
    let result = if path.ends_with(".jsonl") {
        codec::read_jsonl(&mut r)
    } else {
        codec::read_binary(&mut r)
    };
    result.unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    })
}

fn write_trace(trace: &Trace, path: &str) {
    let f = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    });
    let mut w = BufWriter::new(f);
    let result = if path.ends_with(".jsonl") {
        codec::write_jsonl(trace, &mut w)
    } else {
        codec::write_binary(trace, &mut w)
    };
    result.unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {} requests to {path}", trace.len());
}

fn cmd_gen(args: &Args) {
    let preset = args.flag("preset").and_then(Preset::from_name).unwrap_or_else(|| usage());
    let requests = args.num("requests", 1_000_000).unwrap_or_else(|| usage()) as usize;
    let keys = args.num("keys", 200_000).unwrap_or_else(|| usage());
    let seed = args.num("seed", 42).unwrap_or_else(|| usage());
    let out = args.flag("out").unwrap_or_else(|| usage());
    let trace = preset.config(keys, seed).generate(requests);
    write_trace(&trace, out);
}

fn cmd_stat(args: &Args) {
    let path = args.positional.get(1).map(String::as_str).unwrap_or_else(|| usage());
    let trace = read_trace(path);
    let s = TraceSummary::compute(&trace);
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["requests".to_string(), s.requests.to_string()]);
    t.row(vec!["gets".to_string(), format!("{} ({:.1}%)", s.gets, s.get_fraction() * 100.0)]);
    t.row(vec!["sets".to_string(), s.sets.to_string()]);
    t.row(vec!["deletes".to_string(), s.deletes.to_string()]);
    t.row(vec!["replaces".to_string(), s.replaces.to_string()]);
    t.row(vec!["unique keys".to_string(), s.unique_keys.to_string()]);
    t.row(vec![
        "cold GETs".to_string(),
        format!("{} ({:.1}%)", s.cold_gets, s.cold_get_fraction() * 100.0),
    ]);
    t.row(vec!["mean item bytes".to_string(), fnum(s.mean_item_bytes(), 1)]);
    t.row(vec![
        "unique footprint".to_string(),
        format!("{:.1} MiB", s.unique_bytes as f64 / (1 << 20) as f64),
    ]);
    t.row(vec!["sim duration".to_string(), format!("{}", s.duration)]);
    if s.penalty_hist.total() > 0 {
        t.row(vec![
            "penalty p50/p99".to_string(),
            format!(
                "{:.1} / {:.1} ms",
                s.penalty_hist.quantile(0.5).unwrap_or(0) as f64 / 1e3,
                s.penalty_hist.quantile(0.99).unwrap_or(0) as f64 / 1e3
            ),
        ]);
    }
    print!("{}", t.render());
}

fn cmd_penalties(args: &Args) {
    let path = args.positional.get(1).map(String::as_str).unwrap_or_else(|| usage());
    let trace = read_trace(path);
    let mut est = PenaltyEstimator::new();
    est.observe_trace(&trace);
    println!(
        "samples accepted {}  over-cap {}  cancelled {}",
        est.accepted(),
        est.discarded_over_cap(),
        est.cancelled()
    );
    let map = est.finish();
    println!("keys with estimates: {}", map.len());
    let mut hist = pama_util::hist::LogHistogram::new(40);
    for (_, p) in map.iter() {
        hist.record(p.as_micros());
    }
    if hist.total() > 0 {
        for q in [0.1, 0.5, 0.9, 0.99] {
            println!(
                "  p{:<4} {:>10.1} ms",
                (q * 100.0) as u32,
                hist.quantile(q).unwrap_or(0) as f64 / 1e3
            );
        }
    }
}

fn build_policy(name: &str, cache: CacheConfig) -> Box<dyn Policy + Send> {
    match name {
        "memcached" => Box::new(MemcachedOriginal::new(cache)),
        "psa" => Box::new(Psa::new(cache)),
        "psa-unguarded" => Box::new(Psa::unguarded(cache, Psa::DEFAULT_M)),
        "pre-pama" => Box::new(Pama::pre_pama(cache)),
        "pama" => Box::new(Pama::new(cache)),
        "facebook" => Box::new(FacebookAge::new(cache)),
        "twemcache" => Box::new(Twemcache::new(cache)),
        "lama" => Box::new(LamaLite::new(cache)),
        "global-lru" => Box::new(GlobalLru::new(cache)),
        _ => usage(),
    }
}

fn cmd_sim(args: &Args) {
    let path = args.positional.get(1).map(String::as_str).unwrap_or_else(|| usage());
    let trace = read_trace(path);
    let cache = CacheConfig {
        total_bytes: args.num("cache-mb", 64).unwrap_or_else(|| usage()) << 20,
        slab_bytes: args.num("slab-kb", 256).unwrap_or_else(|| usage()) << 10,
        ..CacheConfig::default()
    };
    if let Err(e) = cache.validate() {
        eprintln!("invalid cache geometry: {e}");
        std::process::exit(2);
    }
    let ecfg = EngineConfig {
        window_gets: args.num("window", 100_000).unwrap_or_else(|| usage()),
        snapshot_allocations: false,
    };
    let mut t = Table::new(vec!["policy", "hit%", "avg svc (ms)", "uncached"]);
    for name in args.policies() {
        let policy = build_policy(&name, cache.clone());
        let r = Engine::run_to_result(policy, ecfg.clone(), path, trace.clone());
        let uncached: u64 = r.windows.iter().map(|w| w.uncached_fills).sum();
        t.row(vec![
            r.policy.clone(),
            fnum(r.hit_ratio() * 100.0, 2),
            fnum(r.avg_service().as_secs_f64() * 1e3, 2),
            uncached.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn cmd_convert(args: &Args) {
    let src = args.positional.get(1).map(String::as_str).unwrap_or_else(|| usage());
    let dst = args.positional.get(2).map(String::as_str).unwrap_or_else(|| usage());
    let trace = read_trace(src);
    write_trace(&trace, dst);
}

fn cmd_ping(args: &Args) {
    let addr = args.flag("addr").unwrap_or("127.0.0.1:11211");
    let version =
        pama_server::client::Client::connect_timeout(addr, std::time::Duration::from_secs(2))
            .and_then(|mut c| c.version());
    match version {
        Ok(v) => println!("pong: {v} at {addr}"),
        Err(e) => {
            eprintln!("ping {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// Fetches `stats metrics` from a running server and re-renders the
/// `STAT name value` pairs as a Prometheus-style exposition document,
/// with `# HELP` / `# TYPE` headers rebuilt per metric family.
fn cmd_metrics(args: &Args) {
    let addr = args.flag("addr").unwrap_or("127.0.0.1:11211");
    let pairs =
        pama_server::client::Client::connect_timeout(addr, std::time::Duration::from_secs(2))
            .and_then(|mut c| c.stats_of(Some("metrics")));
    let pairs = match pairs {
        Ok(p) => p,
        Err(e) => {
            eprintln!("metrics {addr}: {e}");
            std::process::exit(1);
        }
    };
    if pairs.is_empty() {
        eprintln!("metrics {addr}: server exposes no metrics registry");
        std::process::exit(1);
    }
    let mut described: Vec<String> = Vec::new();
    for (name, value) in &pairs {
        let family = pama_metrics::family_of(name).to_string();
        if !described.contains(&family) {
            described.push(family.clone());
            if let Some((help, kind)) = pama_metrics::describe_family(&family) {
                println!("# HELP {family} {help}\n# TYPE {family} {kind}");
            }
        }
        println!("{name} {value}");
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let args = Args::parse(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    match args.positional.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args),
        Some("stat") => cmd_stat(&args),
        Some("penalties") => cmd_penalties(&args),
        Some("sim") => cmd_sim(&args),
        Some("convert") => cmd_convert(&args),
        Some("ping") => cmd_ping(&args),
        Some("metrics") => cmd_metrics(&args),
        _ => usage(),
    }
    ExitCode::SUCCESS
}
