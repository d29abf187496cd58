//! The figure-reproduction CLI.
//!
//! ```text
//! repro <experiment> [--out DIR] [--threads N] [--scale X] [--seed S] [--smoke]
//!
//! experiments:
//!   fig1   miss penalty vs item size (APP-like)
//!   fig3   per-class slab allocation over time (ETC, 4 schemes)
//!   fig4   per-subclass allocation inside PAMA (classes 0 and 8)
//!   fig5   ETC hit ratio across cache sizes
//!   fig6   ETC average service time across cache sizes
//!   fig7   APP hit ratio (trace replayed twice)
//!   fig8   APP average service time (trace replayed twice)
//!   fig9   cold-burst impact (PSA vs PAMA)
//!   fig10  sensitivity to the reference-segment count m
//!   extended  all §II schemes + references
//!   presets   USR/SYS/VAR: verify the paper's workload-selection rationale
//!   ablation  bloom-vs-exact membership, PSA M, value window
//!   chaos  fault injection: penalty-band shift re-convergence,
//!          corrupted inputs, backend brownout
//!   perf   kv GET/SET throughput (1/2/4/8 threads, zipfian keys),
//!          batched ops, hit-latency percentiles; writes
//!          BENCH_throughput.json at the repo root
//!   memory kv slab-arena accounting: per-item overhead, internal
//!          fragmentation, slab transfers, bounded residency; writes
//!          BENCH_memory.json at the repo root
//!   net    loopback pamad server: serial vs pipelined vs multiget
//!          throughput, latency percentiles, shutdown drain; writes
//!          BENCH_net.json at the repo root
//!   obs    penalty-band metrics registry: band sums, band attribution,
//!          wire exposition; writes BENCH_obs.json at the repo root
//!   smoke  fast end-to-end sanity run
//!   all    every figure experiment in sequence
//! ```
//!
//! Exit status is the number of failed shape checks (0 = full
//! qualitative reproduction).

use pama_bench::experiments::{self, ExpOptions};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: repro <fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|extended|ablation|presets|chaos|perf|memory|net|obs|smoke|all> \
         [--out DIR] [--threads N] [--scale X] [--seed S] [--smoke]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let exp = args[0].clone();
    let mut opts = ExpOptions::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                opts.out = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--threads" => {
                opts.threads =
                    args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            "--scale" => {
                opts.scale =
                    args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                opts.seed = Some(
                    args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--smoke" => {
                opts.smoke = true;
                i += 1;
            }
            _ => usage(),
        }
    }

    let run_one = |name: &str| -> Vec<pama_bench::output::ShapeCheck> {
        println!("\n########## experiment: {name} ##########");
        let t0 = std::time::Instant::now();
        let checks = match name {
            "fig1" => experiments::fig1::run(&opts),
            "fig3" | "fig4" => experiments::alloc::run(&opts, name == "fig4"),
            "fig5" | "fig6" => experiments::etc::run(&opts),
            "fig7" | "fig8" => experiments::app::run(&opts),
            "fig9" => experiments::burst::run(&opts),
            "fig10" => experiments::sensitivity::run(&opts),
            "extended" => experiments::extended::run(&opts),
            "presets" => experiments::presets::run(&opts),
            "ablation" => experiments::ablation::run(&opts),
            "chaos" => experiments::chaos::run(&opts),
            "perf" => experiments::perf::run(&opts),
            "memory" => experiments::memory::run(&opts),
            "net" => experiments::net::run(&opts),
            "obs" => experiments::obs::run(&opts),
            "smoke" => experiments::smoke::run(&opts),
            _ => usage(),
        };
        println!("({name} took {:.1?})", t0.elapsed());
        checks
    };

    let mut all_checks = Vec::new();
    if exp == "all" {
        for name in ["fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"] {
            all_checks.extend(run_one(name));
        }
    } else {
        all_checks.extend(run_one(&exp));
    }
    let failed = pama_bench::output::summarize_checks(&all_checks);
    ExitCode::from(failed.min(255) as u8)
}
