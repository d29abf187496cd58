//! Shared daemon entry point for `pamad` and `pamactl serve`.
//!
//! Builds the cache from CLI-shaped options, binds the listener,
//! prints the *resolved* address (so scripts binding port `0` learn
//! the real port), then blocks until stdin reaches EOF or reads a
//! `quit`/`shutdown` line — the offline-friendly stand-in for signal
//! handling, and exactly what the CI smoke step drives.

use crate::{Server, ServerConfig};
use pama_faults::{BackendConfig, FaultSchedule};
use pama_kv::{CacheBuilder, PamaCache};
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

/// Everything the daemon CLI can configure.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Listen address; port `0` picks an ephemeral port.
    pub listen: String,
    /// Cache capacity, MiB.
    pub memory_mb: u64,
    /// Slab size, KiB.
    pub slab_kb: u64,
    /// Shard count (`0` = auto).
    pub shards: usize,
    /// Connection ceiling.
    pub max_conns: usize,
    /// Per-connection read/write timeout, milliseconds.
    pub timeout_ms: u64,
    /// Attach the simulated backend: misses charge penalty-band
    /// fetches, feeding the live estimator.
    pub backend: bool,
    /// Fault schedule for the backend (see [`FaultSchedule::parse`]);
    /// implies `backend`.
    pub faults: Option<String>,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            listen: "127.0.0.1:11211".into(),
            memory_mb: 64,
            slab_kb: 256,
            shards: 0,
            max_conns: 64,
            timeout_ms: 5_000,
            backend: false,
            faults: None,
        }
    }
}

/// Builds the cache the options describe.
pub fn build_cache(opts: &DaemonOptions) -> Result<Arc<PamaCache>, String> {
    let mut builder = CacheBuilder::new()
        .total_bytes(opts.memory_mb.max(1) << 20)
        .slab_bytes(opts.slab_kb.max(1) << 10);
    if opts.shards > 0 {
        builder = builder.shards(opts.shards);
    }
    if opts.backend || opts.faults.is_some() {
        let schedule = match &opts.faults {
            Some(spec) => FaultSchedule::parse(spec)?,
            None => FaultSchedule::none(),
        };
        builder = builder.backend(BackendConfig { schedule, ..BackendConfig::default() });
    }
    builder.try_build().map(Arc::new).map_err(|e| e.to_string())
}

/// Runs the daemon to completion: bind, announce, serve until stdin
/// closes, then drain and report. Returns the final stats line.
pub fn run(opts: &DaemonOptions) -> Result<String, String> {
    let cache = build_cache(opts)?;
    let cfg = ServerConfig {
        max_conns: opts.max_conns.max(1),
        read_timeout: Duration::from_millis(opts.timeout_ms.max(1)),
        write_timeout: Duration::from_millis(opts.timeout_ms.max(1)),
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::clone(&cache), &opts.listen, cfg)
        .map_err(|e| format!("bind {}: {e}", opts.listen))?;
    println!("pamad listening on {}", server.local_addr());
    // An explicit flush: the announcement is a machine-read handshake
    // (CI greps it for the ephemeral port) and must not sit in a pipe
    // buffer.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(cmd) if matches!(cmd.trim(), "quit" | "shutdown") => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    let stats = server.stats();
    server.shutdown();
    cache.close();
    let report = cache.report();
    let summary = format!(
        "pamad drained: {} conns served, {} shed, {} commands, {} protocol errors, \
         {} hits / {} misses, {} items resident",
        stats.accepted,
        stats.shed,
        stats.commands,
        stats.protocol_errors,
        report.cache.hits,
        report.cache.misses,
        report.cache.items,
    );
    println!("{summary}");
    Ok(summary)
}
