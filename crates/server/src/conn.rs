//! Per-connection request loop: incremental parse, in-place replies,
//! one write per burst.
//!
//! Pipelining is handled structurally: every complete command sitting
//! in the read buffer is parsed and answered before anything is
//! written, and the whole burst of responses leaves in one
//! `write_all`. A client that sends 32 gets back to back therefore
//! costs one syscall each way, not 32.
//!
//! The request path allocates nothing per command. Commands borrow
//! their keys and data blocks from the read buffer; each `get` key is
//! looked up with [`pama_kv::PamaCache::lookup_with`], whose visitor
//! writes the `VALUE` line and the data straight from the slab arena
//! into the burst's output buffer; and the command counter shared by
//! every connection is bumped once per read, not once per command.

use crate::proto::{Command, Keys, Parser, Step, Store};
use crate::Shared;
use pama_kv::{CacheError, MetricsRegistry, SetOptions};
use pama_util::SimDuration;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant, SystemTime};

/// Read wake-up quantum: how often an idle connection re-checks the
/// shutdown flag and its idle deadline.
const READ_POLL: Duration = Duration::from_millis(25);

/// The largest `exptime` Memcached reads as relative seconds (30
/// days); anything above it is an absolute Unix time.
const MAX_RELATIVE_EXPTIME: i64 = 30 * 24 * 60 * 60;

/// Decrements the live-connection gauge however the thread exits.
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.curr_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

pub(crate) fn serve(mut stream: TcpStream, shared: &Shared) {
    let _guard = ConnGuard(shared);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL.min(shared.cfg.read_timeout)));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));

    let mut parser = Parser::new(shared.cfg.max_value_bytes);
    let mut buf: Vec<u8> = Vec::with_capacity(4 << 10);
    let mut out: Vec<u8> = Vec::with_capacity(4 << 10);
    let mut tmp = [0u8; 16 << 10];
    let mut last_activity = Instant::now();

    loop {
        // Phase 1: answer every complete command in the buffer, in
        // order, into `out`. Parsing advances a cursor; the consumed
        // prefix is dropped once per read, not per command. Commands
        // are counted locally and published before any `stats*` reply
        // and before the burst is written, so every count a client can
        // observe is exact.
        let mut close = false;
        let mut pos = 0;
        let mut commands = 0;
        loop {
            match parser.step(&buf[pos..]) {
                Step::Incomplete => break,
                Step::Swallowed { n } => {
                    pos += n;
                    last_activity = Instant::now();
                }
                Step::Cmd { cmd, consumed } => {
                    pos += consumed;
                    commands += 1;
                    match cmd {
                        Command::Quit => {
                            close = true;
                            break;
                        }
                        Command::Stats | Command::StatsMetrics | Command::StatsBands => {
                            shared.commands.fetch_add(commands, Ordering::Relaxed);
                            commands = 0;
                            execute(shared, cmd, &mut out);
                        }
                        cmd => execute(shared, cmd, &mut out),
                    }
                }
                Step::Bad { reply, consumed, fatal } => {
                    pos += consumed;
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    out.extend_from_slice(reply.as_bytes());
                    if fatal {
                        close = true;
                        break;
                    }
                }
            }
        }
        shared.commands.fetch_add(commands, Ordering::Relaxed);
        buf.drain(..pos);

        // Phase 2: one write for the whole burst.
        if !out.is_empty() {
            if stream.write_all(&out).is_err() {
                return;
            }
            out.clear();
            last_activity = Instant::now();
        }
        if close || shared.shutdown.load(Ordering::Acquire) {
            // Shutdown drain: everything complete was just answered;
            // an unfinished tail cannot be waited for.
            return;
        }

        // Phase 3: block (briefly) for more bytes.
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => {
                buf.extend_from_slice(&tmp[..n]);
                last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::Acquire)
                    || last_activity.elapsed() >= shared.cfg.read_timeout
                {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Memcached `exptime` → TTL: `0` never expires, negative expires
/// immediately, up to [`MAX_RELATIVE_EXPTIME`] counts relative
/// seconds, and anything larger is an absolute Unix time, which
/// expires immediately unless it is in the future.
fn ttl_of(exptime: i64) -> Option<SimDuration> {
    match exptime {
        0 => None,
        e if e < 0 => Some(SimDuration::ZERO),
        e if e <= MAX_RELATIVE_EXPTIME => Some(SimDuration::from_secs(e as u64)),
        e => {
            let now =
                SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default();
            let left = Duration::from_secs(e as u64).saturating_sub(now);
            Some(SimDuration::from_micros(u64::try_from(left.as_micros()).unwrap_or(u64::MAX)))
        }
    }
}

/// Maps a refused mutation onto the wire. These are *storage*
/// conditions on well-formed requests, deliberately not counted as
/// protocol errors.
fn error_line(e: CacheError) -> &'static [u8] {
    match e {
        CacheError::ValueTooLarge { .. } => b"SERVER_ERROR object too large for cache\r\n",
        CacheError::CapacityExhausted { .. } => {
            b"SERVER_ERROR out of memory storing object\r\n"
        }
        // The parser refuses keys over 250 bytes first; Memcached's answer.
        CacheError::KeyTooLong { .. } => b"CLIENT_ERROR bad command line format\r\n",
        CacheError::ShuttingDown => b"SERVER_ERROR server shutting down\r\n",
    }
}

/// Appends `n` in decimal.
fn put_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Answers one `get`/`gets` line: each key is looked up in request
/// order, and a hit's `VALUE <key> <flags> <bytes> [<cas>]` line and
/// data are written into `out` by the lookup's visitor, straight from
/// the cache's storage.
fn answer_get(shared: &Shared, keys: Keys<'_>, with_cas: bool, out: &mut Vec<u8>) {
    for key in keys {
        shared.cache.lookup_with(key, |v| {
            out.reserve(key.len() + v.value.len() + 64);
            out.extend_from_slice(b"VALUE ");
            out.extend_from_slice(key);
            out.push(b' ');
            put_decimal(out, u64::from(v.flags));
            out.push(b' ');
            put_decimal(out, v.value.len() as u64);
            if with_cas {
                out.push(b' ');
                put_decimal(out, v.cas);
            }
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(v.value);
            out.extend_from_slice(b"\r\n");
        });
    }
    out.extend_from_slice(b"END\r\n");
}

fn store_reply(out: &mut Vec<u8>, noreply: bool, res: Result<bool, CacheError>) {
    if noreply {
        return;
    }
    out.extend_from_slice(match res {
        Ok(true) => b"STORED\r\n",
        Ok(false) => b"NOT_STORED\r\n",
        Err(e) => error_line(e),
    });
}

fn execute(shared: &Shared, cmd: Command<'_>, out: &mut Vec<u8>) {
    match cmd {
        Command::Get { keys, with_cas } => answer_get(shared, keys, with_cas, out),
        Command::Quit => unreachable!("handled by the connection loop"),
        Command::Set(Store { key, flags, exptime, data, noreply }) => {
            let opts = opts_for(flags, exptime);
            store_reply(out, noreply, shared.cache.set(key, data, &opts).map(|()| true));
        }
        Command::Add(Store { key, flags, exptime, data, noreply }) => {
            let opts = opts_for(flags, exptime);
            store_reply(out, noreply, shared.cache.add(key, data, &opts));
        }
        Command::Delete { key, noreply } => {
            let hit = shared.cache.delete(key);
            if !noreply {
                out.extend_from_slice(if hit { b"DELETED\r\n" } else { b"NOT_FOUND\r\n" });
            }
        }
        Command::Touch { key, exptime, noreply } => {
            let hit = shared.cache.touch(key, ttl_of(exptime));
            if !noreply {
                out.extend_from_slice(if hit { b"TOUCHED\r\n" } else { b"NOT_FOUND\r\n" });
            }
        }
        Command::FlushAll { noreply } => {
            shared.cache.clear();
            if !noreply {
                out.extend_from_slice(b"OK\r\n");
            }
        }
        Command::Version => {
            out.extend_from_slice(
                concat!("VERSION pama-", env!("CARGO_PKG_VERSION"), "\r\n").as_bytes(),
            );
        }
        Command::Stats => emit_stats(shared, out),
        Command::StatsMetrics => emit_stats_metrics(shared, out),
        Command::StatsBands => emit_stats_bands(shared, out),
    }
}

fn opts_for(flags: u32, exptime: i64) -> SetOptions {
    let mut opts = SetOptions::new().flags(flags);
    opts.ttl = ttl_of(exptime);
    opts
}

fn emit_stats(shared: &Shared, out: &mut Vec<u8>) {
    let mut stat = |name: &str, value: String| {
        out.extend_from_slice(format!("STAT {name} {value}\r\n").as_bytes());
    };
    stat("curr_connections", shared.curr_conns.load(Ordering::Relaxed).to_string());
    stat("total_connections", shared.accepted.load(Ordering::Relaxed).to_string());
    stat("shed_connections", shared.shed.load(Ordering::Relaxed).to_string());
    stat("protocol_errors", shared.protocol_errors.load(Ordering::Relaxed).to_string());
    stat("cmd_total", shared.commands.load(Ordering::Relaxed).to_string());

    let report = shared.cache.report();
    let c = &report.cache;
    stat("cmd_get", (c.hits + c.misses).to_string());
    stat("get_hits", c.hits.to_string());
    stat("get_misses", c.misses.to_string());
    stat("cmd_set", c.sets.to_string());
    stat("cmd_delete", c.deletes.to_string());
    stat("curr_items", c.items.to_string());
    stat("bytes", c.live_bytes.to_string());
    stat("evictions", c.evictions.to_string());
    stat("expired", c.expired.to_string());
    stat("rejected", c.rejected.to_string());
    // Bounded-staleness recency bookkeeping (see DESIGN.md §6): how
    // many GET hits were promoted via the deferred log, and how many
    // the ring dropped because it filled between policy-lock events.
    stat("deferred_hits", c.deferred_hits.to_string());
    stat("deferred_dropped", c.deferred_dropped.to_string());
    // Penalty-aware extensions: what makes this PAMA and not LRU.
    stat("measured_penalties", c.measured_penalties.to_string());
    stat("mean_measured_penalty_us", format!("{:.1}", c.mean_measured_penalty_us));
    stat("backend_fetches", c.backend_fetches.to_string());
    stat("backend_retries", c.backend_retries.to_string());
    stat("backend_failures", c.backend_failures.to_string());
    stat("backend_time_us", c.backend_time_us.to_string());
    if let Some(s) = &report.slabs {
        stat("slabs_in_use", s.slabs.to_string());
        stat("slab_free_slots", s.free_slots.to_string());
        stat("arena_resident_bytes", s.resident_bytes.to_string());
        stat("arena_slot_bytes", s.slot_bytes.to_string());
        stat("arena_meta_bytes", s.meta_bytes.to_string());
        stat("internal_frag_bytes", s.internal_frag_bytes().to_string());
        stat("slab_transfers", s.transfers.to_string());
        stat("slot_moves", s.slot_moves.to_string());
        // Per-slab fill-ratio histogram, comma-joined so the value
        // stays a single `STAT name value` token.
        let deciles =
            s.occupancy_deciles.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        stat("slab_occupancy_deciles", deciles);
    }
    out.extend_from_slice(b"END\r\n");
}

/// `stats metrics`: every observability-registry metric as a `STAT
/// name value` line. Names carry Prometheus-style `{label="…"}`
/// suffixes and contain no spaces, so they survive the framing — the
/// same lines `pamactl metrics` re-renders as an exposition document.
fn emit_stats_metrics(shared: &Shared, out: &mut Vec<u8>) {
    // `report()` refreshes the arena gauges from the merged view.
    let _ = shared.cache.report();
    for (name, value) in registry(shared).snapshot().prometheus_lines() {
        out.extend_from_slice(format!("STAT {name} {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"END\r\n");
}

/// `stats bands`: one `STAT band_<i> …` line per penalty band, in the
/// `BandSnapshot::render` format (`lo_us=… hi_us=… hits=… misses=…
/// penalty_cost_us=… evictions=… slab_moves=…`).
fn emit_stats_bands(shared: &Shared, out: &mut Vec<u8>) {
    for (i, band) in registry(shared).snapshot().bands.iter().enumerate() {
        out.extend_from_slice(format!("STAT band_{i} {}\r\n", band.render()).as_bytes());
    }
    out.extend_from_slice(b"END\r\n");
}

fn registry(shared: &Shared) -> &MetricsRegistry {
    shared.cache.metrics().expect("pama-kv always attaches a metrics registry")
}
