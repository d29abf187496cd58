//! `wire-mix`: `pamad --listen 127.0.0.1:0 --backend` as a child
//! process, driven over one connection by one client thread that sends
//! bursts of a fixed pipeline depth and waits for every reply.
//!
//! Each burst is 80% `get` of resident zipf keys, 10% `set` overwrites
//! of them and 10% `get` of keys from a fixed pool that is never
//! stored, so the miss path and the simulated backend run on every
//! burst without evicting anything. Parsing, batching and socket writes
//! dominate; each operation costs the kv layer only its cheap path.
//!
//! The client reads replies with its own cursor over one buffer rather
//! than `pama_server::client::Client`, whose line reader rescans and
//! shifts its buffer per line: at this pipeline depth that would make
//! the client, not the server, the bottleneck.

use crate::child::Pamad;
use crate::common::{
    end_to_end, trace_overhead, Budget, Layers, Memory, Outcome, Phase, Reservoir, SETUP_REPS,
};
use crate::values::{verify, ValueWriter, Versions};
use pama_kv::{BandSnapshot, PamaCache, SetOptions};
use pama_server::daemon::{build_cache, DaemonOptions};
use pama_util::{Rng, Xoshiro256StarStar};
use pama_workloads::zipf::ZipfApprox;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Resident keys.
const KEYS: usize = 50_000;
/// Value sizes, bytes (uniform per key, fixed across overwrites).
const VALUE_BYTES: (u64, u64) = (40, 160);
/// Commands per burst.
const DEPTH: usize = 128;
/// Keys that are looked up but never stored.
const MISS_POOL: usize = 1024;
/// Operations pre-generated; the loop wraps around them.
const STREAM: usize = 1 << 20;
/// Zipf exponent of the resident-key stream.
const ZIPF_ALPHA: f64 = 0.99;
/// Cache size, MiB (pamad's default).
const MEMORY_MB: u64 = 64;
/// Operations the traced run replays in process for `server.self_us_per_op`.
const REPLAY_CAP: usize = 1 << 20;

const GET: u32 = 0;
const SET: u32 = 1 << 30;
const MISS: u32 = 2 << 30;
const INDEX: u32 = (1 << 30) - 1;

/// pamad's command line.
fn pamad_args() -> Vec<String> {
    let mem = MEMORY_MB.to_string();
    ["--listen", "127.0.0.1:0", "--backend", "--memory-mb", &mem].map(String::from).to_vec()
}

/// The same configuration for an in-process cache.
fn options() -> DaemonOptions {
    DaemonOptions { memory_mb: MEMORY_MB, backend: true, ..DaemonOptions::default() }
}

/// The generated inputs.
#[derive(Debug)]
pub struct Inputs {
    keys: Vec<Vec<u8>>,
    lens: Vec<u32>,
    stream: Vec<u32>,
    miss_keys: Vec<Vec<u8>>,
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Xoshiro256StarStar::from_seed(seed);
        let keys = (0..KEYS).map(|i| format!("wire:{i:08x}").into_bytes()).collect();
        let lens = (0..KEYS)
            .map(|_| rng.gen_range_inclusive(VALUE_BYTES.0, VALUE_BYTES.1) as u32)
            .collect();
        let zipf = ZipfApprox::new(KEYS as u64, ZIPF_ALPHA);
        let stream = (0..STREAM)
            .map(|i| match i % 10 {
                3 => SET | zipf.sample(&mut rng) as u32,
                7 => MISS | ((i / 10) % MISS_POOL) as u32,
                _ => GET | zipf.sample(&mut rng) as u32,
            })
            .collect();
        let miss_keys = (0..MISS_POOL).map(|i| format!("void:{i:04}").into_bytes()).collect();
        Inputs { keys, lens, stream, miss_keys }
    }
}

/// One pipelined connection with a parse cursor over its read buffer.
struct Conn {
    s: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    /// Commands sent, for the drain check.
    commands: u64,
    bytes_out: u64,
    bytes_in: u64,
}

type Res<T> = Result<T, String>;

impl Conn {
    fn connect(p: &Pamad) -> Res<Conn> {
        let s = TcpStream::connect(p.addr()).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        Ok(Conn {
            s,
            buf: Vec::with_capacity(64 << 10),
            pos: 0,
            commands: 0,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    fn send(&mut self, bytes: &[u8], commands: u64) -> Res<()> {
        // Replies before the cursor are consumed: drop them first.
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.s.write_all(bytes).map_err(|e| format!("write: {e}"))?;
        self.commands += commands;
        self.bytes_out += bytes.len() as u64;
        Ok(())
    }

    fn fill(&mut self) -> Res<()> {
        let mut tmp = [0u8; 32 << 10];
        let n = self.s.read(&mut tmp).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("pamad closed the connection".into());
        }
        self.buf.extend_from_slice(&tmp[..n]);
        self.bytes_in += n as u64;
        Ok(())
    }

    /// The next `\r\n`-terminated line, as a range of `buf`.
    fn line(&mut self) -> Res<std::ops::Range<usize>> {
        let mut from = self.pos;
        loop {
            if let Some(i) = self.buf[from..].windows(2).position(|w| w == b"\r\n") {
                let r = self.pos..from + i;
                self.pos = from + i + 2;
                return Ok(r);
            }
            from = self.buf.len().saturating_sub(1).max(self.pos);
            self.fill()?;
        }
    }

    /// The next `n` bytes plus their `\r\n`, as a range of `buf`.
    fn block(&mut self, n: usize) -> Res<std::ops::Range<usize>> {
        while self.buf.len() < self.pos + n + 2 {
            self.fill()?;
        }
        if &self.buf[self.pos + n..self.pos + n + 2] != b"\r\n" {
            return Err("value block not terminated by CRLF".into());
        }
        let r = self.pos..self.pos + n;
        self.pos += n + 2;
        Ok(r)
    }

    /// One `get` reply for `key`: `Ok(Some(range of the value))` on a
    /// hit. A `VALUE` line naming another key means replies are out of
    /// order.
    fn get_reply(&mut self, key: &[u8]) -> Res<Option<std::ops::Range<usize>>> {
        let l = self.line()?;
        if &self.buf[l.clone()] == b"END" {
            return Ok(None);
        }
        let text = String::from_utf8_lossy(&self.buf[l]).into_owned();
        let mut f = text.split(' ');
        let (Some("VALUE"), Some(k), Some(_flags), Some(len), None) =
            (f.next(), f.next(), f.next(), f.next(), f.next())
        else {
            return Err(format!("unexpected get reply {text:?}"));
        };
        if k.as_bytes() != key {
            return Err(format!(
                "reply for {k} arrived where {} was due",
                String::from_utf8_lossy(key)
            ));
        }
        let len: usize = len.parse().map_err(|_| format!("bad length in {text:?}"))?;
        let v = self.block(len)?;
        let end = self.line()?;
        if &self.buf[end] != b"END" {
            return Err(format!("get reply for {k} not closed by END"));
        }
        Ok(Some(v))
    }

    /// `stats [arg]` as name → value pairs.
    fn stats(&mut self, arg: Option<&str>) -> Res<Vec<(String, String)>> {
        let cmd = match arg {
            Some(a) => format!("stats {a}\r\n"),
            None => "stats\r\n".to_string(),
        };
        self.send(cmd.as_bytes(), 1)?;
        let mut out = Vec::new();
        loop {
            let l = self.line()?;
            let text = String::from_utf8_lossy(&self.buf[l]).into_owned();
            if text == "END" {
                return Ok(out);
            }
            let mut parts = text.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("STAT"), Some(n), Some(v)) => out.push((n.to_string(), v.to_string())),
                _ => return Err(format!("unexpected stats line {text:?}")),
            }
        }
    }
}

/// A `stats` snapshot plus the per-band lines.
struct Snapshot {
    stats: Vec<(String, String)>,
    bands: Vec<BandSnapshot>,
}

impl Snapshot {
    fn take(c: &mut Conn, before: bool) -> Res<Snapshot> {
        // `stats` counts itself: taking it last before a phase and
        // first after one leaves exactly the phase's commands plus one
        // between the two `cmd_total` readings.
        let (stats, bands) = if before {
            let bands = c.stats(Some("bands"))?;
            (c.stats(None)?, bands)
        } else {
            let stats = c.stats(None)?;
            (stats, c.stats(Some("bands"))?)
        };
        let bands = bands
            .iter()
            .map(|(_, v)| BandSnapshot::parse(v).ok_or_else(|| format!("bad band line {v:?}")))
            .collect::<Res<Vec<_>>>()?;
        Ok(Snapshot { stats, bands })
    }

    fn get(&self, name: &str) -> u64 {
        self.stats
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0)
    }
}

/// The client's view of one pamad: its connection and key versions.
struct Session<'a> {
    inputs: &'a Inputs,
    pamad: Pamad,
    conn: Conn,
    versions: Versions,
    writer: ValueWriter,
    req: Vec<u8>,
    cursor: usize,
}

impl<'a> Session<'a> {
    /// Spawns pamad, waits for its first reply and prefills every key.
    fn setup(
        inputs: &'a Inputs,
        bin: &Path,
        mut versions: Versions,
    ) -> Res<(Session<'a>, (u64, u64))> {
        versions.reset();
        let args = pamad_args();
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let pamad = Pamad::spawn(bin, &args)?;
        let conn = Conn::connect(&pamad)?;
        let mut s = Session {
            inputs,
            pamad,
            conn,
            versions,
            writer: ValueWriter::new(),
            req: Vec::new(),
            cursor: 0,
        };
        s.conn.send(b"version\r\n", 1)?;
        let l = s.conn.line()?;
        if !s.conn.buf[l].starts_with(b"VERSION ") {
            return Err("pamad's first reply is not VERSION".into());
        }
        let rss_empty = s.pamad.memory().0;
        for chunk in (0..KEYS).collect::<Vec<_>>().chunks(64) {
            s.req.clear();
            for &id in chunk {
                let v = s.versions.bump(id);
                let value = s.writer.render(id as u64, v, inputs.lens[id] as usize);
                push_set(&mut s.req, &inputs.keys[id], value);
            }
            let req = std::mem::take(&mut s.req);
            s.conn.send(&req, chunk.len() as u64)?;
            s.req = req;
            for _ in chunk {
                let l = s.conn.line()?;
                if &s.conn.buf[l] != b"STORED" {
                    return Err("prefill set was not stored".into());
                }
            }
        }
        let rss_full = s.pamad.memory().0;
        Ok((s, (rss_empty, rss_full)))
    }

    /// Runs bursts until the budget is spent, recording each burst's
    /// round trip in `bursts`; hits and GETs are the client's view.
    fn phase(
        &mut self,
        budget: Budget,
        bursts: &mut Reservoir,
        out: &mut Outcome,
    ) -> Res<Phase> {
        let inputs = self.inputs;
        let mut phase = Phase::default();
        // Each op with the version its GET must return, fixed when the
        // burst is built: a SET later in the burst must not count yet.
        let mut burst = [(0u32, None::<u32>); DEPTH];
        let start = Instant::now();
        phase.begin(start);
        let mut now = start;
        while !budget.done(start, now, phase.ops + phase.failed) {
            phase.tick(now);
            self.req.clear();
            for slot in burst.iter_mut() {
                let op = inputs.stream[self.cursor % STREAM];
                self.cursor += 1;
                let i = (op & INDEX) as usize;
                *slot = (op, None);
                match op & !INDEX {
                    SET => {
                        let value = self.writer.render(
                            i as u64,
                            self.versions.bump(i),
                            inputs.lens[i] as usize,
                        );
                        push_set(&mut self.req, &inputs.keys[i], value);
                    }
                    GET => {
                        slot.1 = self.versions.expect(i);
                        push_get(&mut self.req, &inputs.keys[i]);
                    }
                    _ => push_get(&mut self.req, &inputs.miss_keys[i]),
                }
            }
            let req = std::mem::take(&mut self.req);
            let t0 = Instant::now();
            self.conn.send(&req, DEPTH as u64)?;
            self.req = req;
            for &(op, want) in &burst {
                let i = (op & INDEX) as usize;
                match op & !INDEX {
                    SET => {
                        let l = self.conn.line()?;
                        now = Instant::now();
                        phase.set_latency(t0, now);
                        if &self.conn.buf[l] == b"STORED" {
                            phase.ops += 1;
                        } else {
                            phase.failed += 1;
                            self.versions.absent(i);
                        }
                    }
                    kind => {
                        let miss_pool = kind == MISS;
                        let key =
                            if miss_pool { &inputs.miss_keys[i] } else { &inputs.keys[i] };
                        let got = self.conn.get_reply(key)?;
                        now = Instant::now();
                        phase.get_latency(t0, now);
                        phase.ops += 1;
                        phase.gets += 1;
                        match (got, miss_pool) {
                            (Some(_), true) => {
                                out.violation(format!("never-stored key void:{i:04} hit"))
                            }
                            (Some(v), false) => {
                                phase.hits += 1;
                                let checked = match want {
                                    Some(want) => verify(&self.conn.buf[v], i as u64, want),
                                    None => Err(format!("hit on key {i:x}, which is absent")),
                                };
                                if let Err(e) = checked {
                                    out.violation(e);
                                }
                            }
                            (None, _) => {}
                        }
                    }
                }
            }
            bursts.span(t0, now);
        }
        phase.end(now);
        Ok(phase)
    }

    /// Closes the connection, drains pamad and checks its summary;
    /// hands back the version table for the next set-up.
    fn finish(self, out: &mut Outcome) -> Res<Versions> {
        let sent = self.conn.commands;
        drop(self.conn);
        let d = self.pamad.drain()?;
        if d.protocol_errors != 0 {
            out.violation(format!("pamad answered {} protocol errors", d.protocol_errors));
        }
        if d.commands != sent {
            out.violation(format!(
                "pamad executed {} commands, the client sent {sent}",
                d.commands
            ));
        }
        Ok(self.versions)
    }
}

fn push_get(req: &mut Vec<u8>, key: &[u8]) {
    req.extend_from_slice(b"get ");
    req.extend_from_slice(key);
    req.extend_from_slice(b"\r\n");
}

fn push_set(req: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    req.extend_from_slice(b"set ");
    req.extend_from_slice(key);
    req.extend_from_slice(format!(" 0 0 {}\r\n", value.len()).as_bytes());
    req.extend_from_slice(value);
    req.extend_from_slice(b"\r\n");
}

/// The benchmark run: set-ups, then the timed phase (traced runs time
/// a traced phase first, then an untraced one for `trace.overhead`).
pub fn run(inputs: &Inputs, bin: &Path, seconds: f64, trace: bool) -> Res<Outcome> {
    let mut out = Outcome::default();
    let budget = Budget::Time(Duration::from_secs_f64(seconds));
    let mut setups = Vec::new();
    let mut spare = Some(Versions::new(KEYS));
    let mut session: Option<Session<'_>> = None;
    let mut rss = (0, 0);
    for _ in 0..SETUP_REPS {
        let versions = match session.take() {
            Some(s) => s.finish(&mut out)?,
            None => spare.take().expect("versions allocated once"),
        };
        let t0 = Instant::now();
        let (s, r) = Session::setup(inputs, bin, versions)?;
        setups.push(t0.elapsed().as_secs_f64());
        rss = r;
        session = Some(s);
    }
    let mut s = session.expect("at least one set-up");

    let before = Snapshot::take(&mut s.conn, true)?;
    let start_cursor = s.cursor;
    let mut bursts = Reservoir::new();
    let wire_before = s.conn.bytes_out + s.conn.bytes_in;
    let mut phase = s.phase(budget, &mut bursts, &mut out)?;
    let wire = (s.conn.bytes_out + s.conn.bytes_in - wire_before) as f64;
    let after = Snapshot::take(&mut s.conn, false)?;
    let (rss_end, hwm) = s.pamad.memory();
    out.notes.push(format!("pamad VmHWM {:.1} MiB", hwm as f64 / (1 << 20) as f64));
    let live = after.get("bytes");

    // Service time from pamad's own counters: hits at the hit time,
    // misses at the backend time they cost.
    let d = |n: &str| after.get(n) - before.get(n);
    if d("cmd_get") != phase.gets || d("get_hits") != phase.hits {
        out.violation(format!(
            "pamad counted {} gets / {} hits, the client {} / {}",
            d("cmd_get"),
            d("get_hits"),
            phase.gets,
            phase.hits
        ));
    }
    phase.miss_penalty_us = d("backend_time_us");
    let ops = phase.ops + phase.failed;
    let commands_per_op = (d("cmd_total") - 1) as f64 / ops.max(1) as f64;
    let protocol_errors = d("protocol_errors");
    let versions = s.finish(&mut out)?;

    out.attempted = ops;
    out.failed = phase.failed;
    let mem = Memory {
        rss_mb: rss_end as f64 / (1 << 20) as f64,
        space_amp: rss.1.saturating_sub(rss.0) as f64 / live.max(1) as f64,
        live_bytes: live,
    };
    if !trace {
        out.metrics = end_to_end(&phase, &setups, mem);
        return Ok(out);
    }

    // The same phase untraced, against a fresh pamad, so trace.overhead
    // compares identical work on identical state.
    let (mut again, _) = Session::setup(inputs, bin, versions)?;
    let untraced_before = Snapshot::take(&mut again.conn, true)?;
    let mut untraced = again.phase(budget, &mut Reservoir::new(), &mut out)?;
    let untraced_after = Snapshot::take(&mut again.conn, false)?;
    untraced.miss_penalty_us =
        untraced_after.get("backend_time_us") - untraced_before.get("backend_time_us");
    again.finish(&mut out)?;

    let mut l = Layers::default();
    let b = bursts.sorted();
    l.put_quantile("server.burst_us.p50", &b, 0.50);
    l.put_quantile("server.burst_us.p99", &b, 0.99);
    l.put("server.bytes_per_op", wire / ops.max(1) as f64, ops);
    l.put("server.commands_per_op", commands_per_op, ops);
    l.count("server.protocol_errors", protocol_errors);
    let n = (ops as usize).min(REPLAY_CAP);
    let r = replay_in_process(inputs, start_cursor, n);
    let wire_us = phase.elapsed_s * 1e6 / ops.max(1) as f64;
    l.put("server.self_us_per_op", wire_us - r.per_op_us, n as u64);
    l.put("kv.get_us.mean", r.get_us, r.gets);
    l.put("kv.set_us.mean", r.set_us, r.sets);
    let applied = d("deferred_hits");
    let dropped = d("deferred_dropped");
    l.put(
        "kv.deferred_drop_ratio",
        dropped as f64 / (applied + dropped).max(1) as f64,
        applied + dropped,
    );
    l.count("kv.evictions", d("evictions"));
    l.count("kv.rejected", d("rejected"));
    l.put("kv.fail_ratio", phase.failed as f64 / ops.max(1) as f64, ops);
    let transfers = d("slab_transfers");
    l.count("slab.transfers", transfers);
    l.put(
        "slab.slot_moves_per_transfer",
        d("slot_moves") as f64 / transfers.max(1) as f64,
        transfers,
    );
    l.put(
        "slab.internal_frag",
        after.get("internal_frag_bytes") as f64 / after.get("arena_slot_bytes").max(1) as f64,
        after.get("curr_items"),
    );
    let slots = after.get("slab_free_slots") + after.get("curr_items");
    l.put(
        "slab.free_slot_ratio",
        after.get("slab_free_slots") as f64 / slots.max(1) as f64,
        slots,
    );
    let moves: u64 =
        after.bands.iter().zip(&before.bands).map(|(a, b)| a.slab_moves - b.slab_moves).sum();
    l.count("core.slab_moves", moves);
    let mut cost = [0u64; 5];
    let mut misses = 0;
    for (i, (a, b)) in after.bands.iter().zip(&before.bands).enumerate().take(5) {
        cost[i] = a.penalty_cost_us - b.penalty_cost_us;
        misses += a.misses - b.misses;
    }
    l.band_shares(&cost, misses);
    let fetches = d("backend_fetches");
    l.put(
        "faults.fetch_ms.mean",
        d("backend_time_us") as f64 / fetches.max(1) as f64 / 1e3,
        fetches,
    );
    trace_overhead(&mut l, &phase, &untraced);
    out.untraced = end_to_end(&untraced, &setups, mem);
    out.metrics = l.finish();
    Ok(out)
}

/// Mean in-process times of a replayed operation sequence.
struct Replay {
    get_us: f64,
    gets: u64,
    set_us: f64,
    sets: u64,
    per_op_us: f64,
}

/// Replays `n` stream operations from `start` on an identically
/// configured in-process cache, batching each burst's runs of GETs into
/// one `multi_lookup` as pamad does.
fn replay_in_process(inputs: &Inputs, start: usize, n: usize) -> Replay {
    let cache: std::sync::Arc<PamaCache> =
        build_cache(&options()).expect("wire-mix options are valid");
    let mut w = ValueWriter::new();
    let mut versions = Versions::new(KEYS);
    for id in 0..KEYS {
        let value = w.render(id as u64, versions.bump(id), inputs.lens[id] as usize);
        cache.set(&inputs.keys[id], value, &SetOptions::default()).expect("prefill fits");
    }
    let (mut get_ns, mut gets, mut set_ns, mut sets) = (0u64, 0u64, 0u64, 0u64);
    let mut run: Vec<&[u8]> = Vec::with_capacity(DEPTH);
    let flush = |run: &mut Vec<&[u8]>, get_ns: &mut u64, gets: &mut u64| {
        if !run.is_empty() {
            let t0 = Instant::now();
            std::hint::black_box(cache.multi_lookup(run));
            *get_ns += t0.elapsed().as_nanos() as u64;
            *gets += run.len() as u64;
            run.clear();
        }
    };
    for j in 0..n {
        let op = inputs.stream[(start + j) % STREAM];
        let i = (op & INDEX) as usize;
        match op & !INDEX {
            SET => {
                flush(&mut run, &mut get_ns, &mut gets);
                let value = w.render(i as u64, versions.bump(i), inputs.lens[i] as usize);
                let t0 = Instant::now();
                let _ = cache.set(&inputs.keys[i], value, &SetOptions::default());
                set_ns += t0.elapsed().as_nanos() as u64;
                sets += 1;
            }
            GET => run.push(&inputs.keys[i]),
            _ => run.push(&inputs.miss_keys[i]),
        }
        if (j + 1) % DEPTH == 0 {
            flush(&mut run, &mut get_ns, &mut gets);
        }
    }
    flush(&mut run, &mut get_ns, &mut gets);
    Replay {
        get_us: get_ns as f64 / gets.max(1) as f64 / 1e3,
        gets,
        set_us: set_ns as f64 / sets.max(1) as f64 / 1e3,
        sets,
        per_op_us: (get_ns + set_ns) as f64 / (gets + sets).max(1) as f64 / 1e3,
    }
}
