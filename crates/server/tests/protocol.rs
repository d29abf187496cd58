//! Wire-level protocol tests against a live loopback server:
//! malformed input, torn frames, size limits, `noreply`, pipelining,
//! and a property test racing the server against an in-process
//! oracle.

use pama_kv::{BandSnapshot, CacheBuilder, PamaCache};
use pama_server::client::Client;
use pama_server::{Server, ServerConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn cache() -> Arc<PamaCache> {
    Arc::new(CacheBuilder::new().total_bytes(8 << 20).slab_bytes(64 << 10).shards(2).build())
}

fn server() -> Server {
    Server::bind(cache(), "127.0.0.1:0", ServerConfig::default()).expect("bind loopback")
}

fn read_line(stream: &mut TcpStream, buf: &mut Vec<u8>) -> String {
    loop {
        if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
            let line: Vec<u8> = buf.drain(..pos + 2).take(pos).collect();
            return String::from_utf8(line).expect("ascii response");
        }
        let mut tmp = [0u8; 4096];
        let n = stream.read(&mut tmp).expect("read from server");
        assert_ne!(n, 0, "server closed mid-line; buffered: {buf:?}");
        buf.extend_from_slice(&tmp[..n]);
    }
}

#[test]
fn malformed_commands_error_without_killing_the_connection() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    for (req, expect) in [
        ("frobnicate\r\n", "ERROR"),
        ("get\r\n", "ERROR"),
        ("\r\n", "ERROR"),
        ("delete\r\n", "CLIENT_ERROR bad command line format"),
        ("touch k notanumber\r\n", "CLIENT_ERROR bad command line format"),
    ] {
        c.send_raw(req.as_bytes()).unwrap();
        assert_eq!(c.read_line().unwrap(), expect, "for {req:?}");
    }
    // The connection is still healthy after every non-fatal error.
    assert!(c.version().unwrap().starts_with("pama-"));
    assert_eq!(srv.stats().protocol_errors, 5);
    srv.shutdown();
}

#[test]
fn unframeable_store_header_closes_the_connection() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.send_raw(b"set k 0 0 banana\r\n").unwrap();
    assert_eq!(c.read_line().unwrap(), "CLIENT_ERROR bad command line format");
    // The server cannot frame what follows, so it must hang up.
    assert!(c.read_line().is_err(), "connection stayed open after a fatal error");
    srv.shutdown();
}

#[test]
fn torn_frames_reassemble_across_arbitrary_write_boundaries() {
    let srv = server();
    let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();

    // A set torn mid-line and mid-data-block.
    for chunk in [&b"se"[..], b"t torn 7 0 5\r", b"\nhel", b"lo\r", b"\n"] {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(read_line(&mut stream, &mut buf), "STORED");

    // A get torn mid-key.
    for chunk in [&b"get to"[..], b"rn\r\n"] {
        stream.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(read_line(&mut stream, &mut buf), "VALUE torn 7 5");
    assert_eq!(read_line(&mut stream, &mut buf), "hello");
    assert_eq!(read_line(&mut stream, &mut buf), "END");
    assert_eq!(srv.stats().protocol_errors, 0);
    srv.shutdown();
}

#[test]
fn oversized_keys_are_refused_and_the_stream_stays_framed() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let long_key = vec![b'k'; 251];

    // get with an oversized key: error, connection lives.
    let mut req = b"get ".to_vec();
    req.extend_from_slice(&long_key);
    req.extend_from_slice(b"\r\n");
    c.send_raw(&req).unwrap();
    assert_eq!(c.read_line().unwrap(), "CLIENT_ERROR bad key");

    // set with an oversized key: the declared data block must be
    // swallowed so the next command still parses.
    let mut req = b"set ".to_vec();
    req.extend_from_slice(&long_key);
    req.extend_from_slice(b" 0 0 5\r\nhello\r\n");
    c.send_raw(&req).unwrap();
    assert_eq!(c.read_line().unwrap(), "CLIENT_ERROR bad key");
    assert_eq!(c.set(b"fine", b"v", 0, 0).unwrap(), "STORED");

    // A 250-byte key is legal.
    let max_key = vec![b'm'; 250];
    assert_eq!(c.set(&max_key, b"v", 0, 0).unwrap(), "STORED");
    assert_eq!(c.get(&max_key).unwrap().unwrap().value, b"v");
    srv.shutdown();
}

#[test]
fn oversized_values_get_server_error_and_are_swallowed() {
    let cfg = ServerConfig { max_value_bytes: 1 << 10, ..ServerConfig::default() };
    let srv = Server::bind(cache(), "127.0.0.1:0", cfg).expect("bind loopback");
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let big = vec![0xAB; 4 << 10];
    assert_eq!(c.set(b"big", &big, 0, 0).unwrap(), "SERVER_ERROR object too large for cache");
    assert!(c.get(b"big").unwrap().is_none());
    // The refused block was discarded, not parsed as commands.
    assert_eq!(c.set(b"small", b"v", 0, 0).unwrap(), "STORED");
    srv.shutdown();
}

#[test]
fn values_too_large_for_the_slab_geometry_get_server_error() {
    // Accepted by the codec (under max_value_bytes) but impossible to
    // place: larger than one slab. Exercises the CacheError mapping.
    let small = Arc::new(CacheBuilder::new().total_bytes(1 << 20).slab_bytes(16 << 10).build());
    let srv = Server::bind(small, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let big = vec![1u8; 32 << 10];
    assert_eq!(c.set(b"big", &big, 0, 0).unwrap(), "SERVER_ERROR object too large for cache");
    assert_eq!(srv.stats().protocol_errors, 0, "storage refusal is not a protocol error");
    srv.shutdown();
}

#[test]
fn noreply_suppresses_responses_but_still_executes() {
    let srv = server();
    let mut stream = TcpStream::connect(srv.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    // Three noreply mutations then a get: the only response on the
    // wire is the get's.
    stream
        .write_all(b"set a 0 0 1 noreply\r\nx\r\nset b 0 0 1 noreply\r\ny\r\ndelete b noreply\r\nget a b\r\n")
        .unwrap();
    assert_eq!(read_line(&mut stream, &mut buf), "VALUE a 0 1");
    assert_eq!(read_line(&mut stream, &mut buf), "x");
    assert_eq!(read_line(&mut stream, &mut buf), "END");
    srv.shutdown();
}

#[test]
fn pipelined_bursts_answer_in_order() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..64)
        .map(|i| (format!("key{i:02}").into_bytes(), format!("value-{i}").into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    assert_eq!(c.pipeline_sets(&refs, 0, 0).unwrap(), 64);

    let keys: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
    let got = c.pipeline_gets(&keys).unwrap();
    for ((_, v), g) in items.iter().zip(&got) {
        assert_eq!(g.as_ref().map(|g| &g.value), Some(v));
    }
    // Mixed burst: get / set / bad command / get, one write.
    c.send_raw(b"get key00\r\nset key00 9 0 3\r\nnew\r\nwat\r\nget key00\r\n").unwrap();
    assert_eq!(c.read_line().unwrap(), "VALUE key00 0 7");
    assert_eq!(c.read_line().unwrap(), "value-0");
    assert_eq!(c.read_line().unwrap(), "END");
    assert_eq!(c.read_line().unwrap(), "STORED");
    assert_eq!(c.read_line().unwrap(), "ERROR");
    assert_eq!(c.read_line().unwrap(), "VALUE key00 9 3");
    assert_eq!(c.read_line().unwrap(), "new");
    assert_eq!(c.read_line().unwrap(), "END");
    srv.shutdown();
}

#[test]
fn gets_exposes_cas_that_moves_on_overwrite() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.set(b"k", b"v1", 0, 0).unwrap();
    let first = c.gets(b"k").unwrap().unwrap();
    let again = c.gets(b"k").unwrap().unwrap();
    assert_eq!(first.cas, again.cas, "cas moved without a write");
    c.set(b"k", b"v2", 0, 0).unwrap();
    let after = c.gets(b"k").unwrap().unwrap();
    assert_ne!(first.cas, after.cas, "overwrite must move the cas");
    assert!(c.get(b"k").unwrap().unwrap().cas.is_none(), "plain get must not carry cas");
    srv.shutdown();
}

#[test]
fn add_touch_delete_flush_semantics_over_the_wire() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    assert_eq!(c.add(b"k", b"v", 0, 0).unwrap(), "STORED");
    assert_eq!(c.add(b"k", b"other", 0, 0).unwrap(), "NOT_STORED");
    assert_eq!(c.get(b"k").unwrap().unwrap().value, b"v");

    assert!(c.touch(b"k", 3600).unwrap());
    assert!(!c.touch(b"ghost", 3600).unwrap());
    // Negative exptime: expire immediately.
    assert!(c.touch(b"k", -1).unwrap());
    assert!(c.get(b"k").unwrap().is_none());

    c.set(b"a", b"1", 0, 0).unwrap();
    c.set(b"b", b"2", 0, 0).unwrap();
    assert!(c.delete(b"a").unwrap());
    assert!(!c.delete(b"a").unwrap());
    c.flush_all().unwrap();
    assert!(c.get(b"b").unwrap().is_none());
    srv.shutdown();
}

#[test]
fn stats_reports_server_and_cache_counters() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.set(b"k", b"v", 0, 0).unwrap();
    c.get(b"k").unwrap();
    c.get(b"miss").unwrap();
    let stats: HashMap<String, String> = c.stats().unwrap().into_iter().collect();
    for key in [
        "curr_connections",
        "total_connections",
        "shed_connections",
        "protocol_errors",
        "cmd_get",
        "get_hits",
        "get_misses",
        "cmd_set",
        "curr_items",
        "bytes",
        "evictions",
        "mean_measured_penalty_us",
        "slabs_in_use",
    ] {
        assert!(stats.contains_key(key), "stats missing {key}");
    }
    assert_eq!(stats["get_hits"], "1");
    assert_eq!(stats["get_misses"], "1");
    assert_eq!(stats["cmd_set"], "1");
    assert_eq!(stats["curr_connections"], "1");
    // `cmd_total` counts the `stats` command itself, and every command
    // of a pipelined burst ahead of it.
    assert_eq!(stats["cmd_total"], "4");
    c.send_raw(b"get a\r\nget b\r\nstats\r\n").unwrap();
    assert_eq!((c.read_line().unwrap(), c.read_line().unwrap()), ("END".into(), "END".into()));
    let total = loop {
        let line = c.read_line().unwrap();
        if let Some(n) = line.strip_prefix("STAT cmd_total ") {
            break n.to_string();
        }
    };
    assert_eq!(total, "7");
    while c.read_line().unwrap() != "END" {}
    assert_eq!(srv.stats().commands, 7);
    srv.shutdown();
}

#[test]
fn stats_reports_every_arena_and_deferred_field() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.set(b"k", b"v", 0, 0).unwrap();
    c.delete(b"k").unwrap();
    let stats: HashMap<String, String> = c.stats().unwrap().into_iter().collect();
    // The audit fields: nothing the merged CacheReport knows may be
    // silently dropped from the wire exposition.
    for key in [
        "cmd_delete",
        "deferred_hits",
        "deferred_dropped",
        "arena_resident_bytes",
        "arena_slot_bytes",
        "arena_meta_bytes",
        "internal_frag_bytes",
        "slab_transfers",
        "slot_moves",
        "slab_occupancy_deciles",
    ] {
        assert!(stats.contains_key(key), "stats missing {key}");
    }
    assert_eq!(stats["cmd_delete"], "1");
    assert_eq!(
        stats["slab_occupancy_deciles"].split(',').count(),
        10,
        "occupancy histogram must carry all ten deciles"
    );
    srv.shutdown();
}

#[test]
fn stats_lines_arrive_in_deterministic_order() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let first: Vec<String> = c.stats().unwrap().into_iter().map(|(k, _)| k).collect();
    let second: Vec<String> = c.stats().unwrap().into_iter().map(|(k, _)| k).collect();
    assert_eq!(first, second, "STAT line order must be stable across calls");
    srv.shutdown();
}

/// The default test server plus a handle on its cache, whose registry
/// is always attached.
fn metrics_server() -> (Arc<PamaCache>, Server) {
    let cache = cache();
    let srv = Server::bind(cache.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    (cache, srv)
}

#[test]
fn stats_bands_renders_one_line_per_paper_band() {
    let (cache, srv) = metrics_server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.set(b"k", b"v", 0, 0).unwrap();
    c.get(b"k").unwrap();
    c.get(b"ghost").unwrap();

    let lines = c.stats_of(Some("bands")).unwrap();
    assert_eq!(lines.len(), 5, "paper five-band split: one line per band");
    let mut wire_hits = 0;
    let mut wire_misses = 0;
    for (i, (name, value)) in lines.iter().enumerate() {
        assert_eq!(name, &format!("band_{i}"));
        let band = BandSnapshot::parse(value)
            .unwrap_or_else(|| panic!("unparseable band line: {value:?}"));
        wire_hits += band.hits;
        wire_misses += band.misses;
    }
    // The wire view equals the in-process registry, and per-band sums
    // equal the aggregate counters.
    let snap = cache.metrics().expect("registry attached").snapshot();
    assert_eq!(wire_hits, snap.total_hits());
    assert_eq!(wire_misses, snap.total_misses());
    let report = cache.report();
    assert_eq!(wire_hits, report.cache.hits);
    assert_eq!(wire_misses, report.cache.misses);
    srv.shutdown();
}

#[test]
fn stats_bands_sums_hits_from_concurrent_connections() {
    const CONNS: usize = 4;
    const ROUNDS: usize = 20;
    let (cache, srv) = metrics_server();
    let keys: Vec<Vec<u8>> = (0..128u32).map(|i| format!("spread-{i}").into_bytes()).collect();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let items: Vec<(&[u8], &[u8])> =
        keys.iter().map(|k| (k.as_slice(), b"v".as_slice())).collect();
    c.pipeline_sets(&items, 0, 0).unwrap();
    let start = std::sync::Barrier::new(CONNS);
    std::thread::scope(|s| {
        for _ in 0..CONNS {
            let (keys, start, addr) = (&keys, &start, srv.local_addr());
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                start.wait();
                for _ in 0..ROUNDS {
                    assert!(c.pipeline_gets(&refs).unwrap().iter().all(Option::is_some));
                }
            });
        }
    });
    let sent = (CONNS * ROUNDS * keys.len()) as u64;
    let wire_hits: u64 = c
        .stats_of(Some("bands"))
        .unwrap()
        .iter()
        .map(|(_, line)| BandSnapshot::parse(line).expect("parseable band line").hits)
        .sum();
    assert_eq!(wire_hits, sent);
    assert_eq!(cache.report().cache.hits, sent);
    srv.shutdown();
}

#[test]
fn stats_metrics_exposes_labelled_prometheus_families() {
    let (_cache, srv) = metrics_server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    c.set(b"k", b"v", 0, 0).unwrap();
    c.get(b"k").unwrap();
    let pairs = c.stats_of(Some("metrics")).unwrap();
    assert!(!pairs.is_empty());
    for family in [
        "pama_band_hits_total",
        "pama_band_misses_total",
        "pama_band_penalty_cost_us_total",
        "pama_slab_grants_total",
        "pama_arena_resident_bytes",
        "pama_hit_latency_us_count",
    ] {
        assert!(
            pairs.iter().any(|(name, _)| name.starts_with(family)),
            "stats metrics missing family {family}"
        );
    }
    // Labels ride inside the name token, so every value is one token.
    for (name, value) in &pairs {
        assert!(!name.contains(' '), "metric name {name:?} would break STAT framing");
        assert!(!value.contains(' '), "metric value {value:?} would break STAT framing");
    }
    srv.shutdown();
}

#[test]
fn stats_metrics_latency_histograms_fill_from_wire_gets() {
    let (_cache, srv) = metrics_server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    // Latency is sampled by key hash, so a few hundred distinct keys
    // land some samples on both the hit and the miss path.
    let keys: Vec<Vec<u8>> = (0..300u32).map(|i| format!("lat-{i}").into_bytes()).collect();
    let items: Vec<(&[u8], &[u8])> =
        keys.iter().map(|k| (k.as_slice(), b"v".as_slice())).collect();
    c.pipeline_sets(&items, 0, 0).unwrap();
    let hits: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    assert!(c.pipeline_gets(&hits).unwrap().iter().all(Option::is_some));
    let absent: Vec<Vec<u8>> = (0..300u32).map(|i| format!("nope-{i}").into_bytes()).collect();
    let misses: Vec<&[u8]> = absent.iter().map(|k| k.as_slice()).collect();
    assert!(c.pipeline_gets(&misses).unwrap().iter().all(Option::is_none));

    let pairs: HashMap<String, String> =
        c.stats_of(Some("metrics")).unwrap().into_iter().collect();
    for family in ["pama_hit_latency_us_count", "pama_miss_latency_us_count"] {
        let count: u64 = pairs[family].parse().unwrap();
        assert!(count > 0, "{family} is {count} after 300 distinct-key gets");
    }
    srv.shutdown();
}

#[test]
fn gets_formats_flags_extremes_and_multi_digit_cas() {
    let (cache, srv) = metrics_server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    // Rewrites advance the key's shard serial, so the CAS value grows
    // past one digit.
    for _ in 0..20 {
        c.set(b"hi", b"xy", u32::MAX, 0).unwrap();
    }
    c.set(b"lo", b"", 0, 0).unwrap();
    let (hi_cas, lo_cas) = (cache.lookup(b"hi").unwrap().cas, cache.lookup(b"lo").unwrap().cas);
    assert!(hi_cas >= 10, "cas {hi_cas} has one digit");
    c.send_raw(b"gets hi lo\r\nget hi\r\n").unwrap();
    let expect = [
        format!("VALUE hi 4294967295 2 {hi_cas}"),
        "xy".into(),
        format!("VALUE lo 0 0 {lo_cas}"),
        String::new(),
        "END".into(),
        "VALUE hi 4294967295 2".into(),
        "xy".into(),
        "END".into(),
    ];
    for line in expect {
        assert_eq!(c.read_line().unwrap(), line);
    }
    srv.shutdown();
}

/// Seconds since the Unix epoch, for absolute `exptime` values.
fn unix_now() -> i64 {
    let since = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap();
    since.as_secs() as i64
}

#[test]
fn exptime_above_thirty_days_is_an_absolute_unix_time() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    let now = unix_now();
    // A past absolute time has already expired, on set, add and touch.
    assert_eq!(c.set(b"past", b"v", 0, now - 3600).unwrap(), "STORED");
    assert!(c.get(b"past").unwrap().is_none(), "a past absolute exptime served live");
    assert_eq!(c.add(b"past-add", b"v", 0, now - 1).unwrap(), "STORED");
    assert!(c.get(b"past-add").unwrap().is_none(), "a past absolute add served live");
    c.set(b"touched", b"v", 0, 0).unwrap();
    assert!(c.touch(b"touched", now - 60).unwrap());
    assert!(c.get(b"touched").unwrap().is_none(), "a past absolute touch served live");
    // A near-future absolute time is live.
    assert_eq!(c.set(b"soon", b"v", 0, now + 3600).unwrap(), "STORED");
    assert_eq!(c.get(b"soon").unwrap().unwrap().value, b"v");
    assert_eq!(c.add(b"soon-add", b"v", 0, now + 3600).unwrap(), "STORED");
    assert!(c.get(b"soon-add").unwrap().is_some());
    assert!(c.touch(b"soon", now + 60).unwrap());
    assert!(c.get(b"soon").unwrap().is_some());
    // Exactly 30 days is still relative: live for a month, not a time
    // in 1970.
    assert_eq!(c.set(b"month", b"v", 0, 2_592_000).unwrap(), "STORED");
    assert!(c.get(b"month").unwrap().is_some(), "2592000 s must read as relative");
    srv.shutdown();
}

#[test]
fn delete_of_a_lapsed_key_is_not_found() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    // Stored with a past absolute exptime: lapsed before the delete, so
    // Memcached answers NOT_FOUND, and the drop counts as an expiry.
    assert_eq!(c.set(b"lapsed", b"v", 0, unix_now() - 3600).unwrap(), "STORED");
    assert!(!c.delete(b"lapsed").unwrap(), "a lapsed key answered DELETED");
    c.set(b"live", b"v", 0, 0).unwrap();
    assert!(c.delete(b"live").unwrap());
    let stats: HashMap<String, String> = c.stats().unwrap().into_iter().collect();
    assert_eq!(stats["expired"], "1");
    srv.shutdown();
}

#[test]
fn negative_exptime_stores_are_immediately_expired() {
    let srv = server();
    let mut c = Client::connect(srv.local_addr()).unwrap();
    // Memcached semantics: a negative exptime means "expire now" — the
    // item must never be served back, on set, add, or touch.
    assert_eq!(c.set(b"dead", b"v", 0, -1).unwrap(), "STORED");
    assert!(c.get(b"dead").unwrap().is_none(), "negative-exptime set served live");
    assert_eq!(c.add(b"dead2", b"v", 0, -30).unwrap(), "STORED");
    assert!(c.get(b"dead2").unwrap().is_none(), "negative-exptime add served live");
    c.set(b"alive", b"v", 0, 0).unwrap();
    assert!(c.touch(b"alive", -1).unwrap());
    assert!(c.get(b"alive").unwrap().is_none(), "negative-exptime touch served live");
    let stats: HashMap<String, String> = c.stats().unwrap().into_iter().collect();
    let expired: u64 = stats["expired"].parse().unwrap();
    assert!(expired >= 1, "lazy expiry on GET must show in `stats expired`");
    srv.shutdown();
}

#[derive(Debug, Clone)]
enum WireOp {
    Set { key: u8, len: u16 },
    Get { key: u8 },
    MultiGet { keys: Vec<u8>, with_cas: bool },
    Delete { key: u8 },
}

/// Keys come from a small space, so multi-key gets return several
/// hits and the reply order is checked.
fn wire_key() -> impl Strategy<Value = u8> {
    0u8..48
}

fn wire_op() -> impl Strategy<Value = WireOp> {
    prop_oneof![
        3 => (wire_key(), 1u16..1500).prop_map(|(key, len)| WireOp::Set { key, len }),
        4 => wire_key().prop_map(|key| WireOp::Get { key }),
        2 => (prop::collection::vec(wire_key(), 1..6), any::<bool>())
            .prop_map(|(keys, with_cas)| WireOp::MultiGet { keys, with_cas }),
        1 => wire_key().prop_map(|key| WireOp::Delete { key }),
    ]
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key-{k:03}").into_bytes()
}

/// The request bytes of `op`. A delete is followed by a `get` of the
/// same key, which must miss.
fn encode(op: &WireOp, req: &mut Vec<u8>) {
    match op {
        WireOp::Set { key, len } => {
            let value = vec![key ^ 0x3C; usize::from(*len)];
            req.extend_from_slice(format!("set key-{key:03} {key} 0 {len}\r\n").as_bytes());
            req.extend_from_slice(&value);
            req.extend_from_slice(b"\r\n");
        }
        WireOp::Get { key } => {
            req.extend_from_slice(format!("get key-{key:03}\r\n").as_bytes())
        }
        WireOp::MultiGet { keys, with_cas } => {
            req.extend_from_slice(if *with_cas { b"gets" } else { b"get" });
            for key in keys {
                req.extend_from_slice(format!(" key-{key:03}").as_bytes());
            }
            req.extend_from_slice(b"\r\n");
        }
        WireOp::Delete { key } => {
            req.extend_from_slice(
                format!("delete key-{key:03}\r\nget key-{key:03}\r\n").as_bytes(),
            );
        }
    }
}

type Oracle = HashMap<u8, (Vec<u8>, u32)>;

/// Reads `op`'s replies and checks them against the oracle, then
/// applies `op` to it. Every hit must carry the oracle's bytes and
/// flags (a miss is allowed: eviction may drop a key), and a `gets`
/// hit carries a CAS stamp.
fn check(op: &WireOp, c: &mut Client, oracle: &mut Oracle) -> Result<(), TestCaseError> {
    let read_get = |c: &mut Client, keys: &[u8], with_cas: bool| {
        let mut lines = Vec::new();
        loop {
            let line = c.read_line().unwrap();
            if line == "END" {
                return lines;
            }
            let fields: Vec<String> = line.split(' ').map(str::to_string).collect();
            let len: usize = fields[3].parse().unwrap();
            let value = c.read_block(len).unwrap();
            assert_eq!(fields.len(), 4 + usize::from(with_cas), "fields of {line:?}");
            lines.push((fields[1].clone(), fields[2].parse::<u32>().unwrap(), value));
            assert!(lines.len() <= keys.len(), "more VALUE lines than keys");
        }
    };
    match op {
        WireOp::Set { key, len } => {
            prop_assert_eq!(c.read_line().unwrap(), "STORED");
            oracle.insert(*key, (vec![key ^ 0x3C; usize::from(*len)], u32::from(*key)));
        }
        WireOp::Get { key } => check_values(&read_get(c, &[*key], false), &[*key], oracle)?,
        WireOp::MultiGet { keys, with_cas } => {
            check_values(&read_get(c, keys, *with_cas), keys, oracle)?;
        }
        WireOp::Delete { key } => {
            let reply = c.read_line().unwrap();
            prop_assert!(
                reply == "DELETED" || reply == "NOT_FOUND",
                "delete answered {}",
                reply
            );
            oracle.remove(key);
            prop_assert!(read_get(c, &[*key], false).is_empty(), "key {} after delete", key);
        }
    }
    Ok(())
}

/// Hits must come in request order, each with the oracle's value.
fn check_values(
    got: &[(String, u32, Vec<u8>)],
    keys: &[u8],
    oracle: &Oracle,
) -> Result<(), TestCaseError> {
    let mut want = keys.iter();
    for (name, flags, value) in got {
        let key = want.find(|&&k| String::from_utf8(key_bytes(k)).unwrap() == *name);
        prop_assert!(key.is_some(), "{} out of request order", name);
        let expect = oracle.get(key.unwrap());
        prop_assert!(expect.is_some(), "{} returned after delete", name);
        let (v, f) = expect.unwrap();
        prop_assert_eq!(value, v);
        prop_assert_eq!(flags, f);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random get/multi-get/set/delete sequences through the loopback
    /// server match an in-process oracle, sent one request at a time
    /// and again as one pipelined burst: every hit returns the oracle's
    /// bytes and flags in request order, deletes stick, and the server
    /// survives with zero protocol errors.
    #[test]
    fn random_ops_round_trip_against_the_oracle(
        ops in prop::collection::vec(wire_op(), 1..80)
    ) {
        for pipelined in [false, true] {
            let srv = server();
            let mut c = Client::connect(srv.local_addr()).unwrap();
            let mut oracle = Oracle::new();
            if pipelined {
                let mut req = Vec::new();
                for op in &ops {
                    encode(op, &mut req);
                }
                c.send_raw(&req).unwrap();
                for op in &ops {
                    check(op, &mut c, &mut oracle)?;
                }
            } else {
                for op in &ops {
                    let mut req = Vec::new();
                    encode(op, &mut req);
                    c.send_raw(&req).unwrap();
                    check(op, &mut c, &mut oracle)?;
                }
            }
            prop_assert_eq!(srv.stats().protocol_errors, 0);
            srv.shutdown();
        }
    }
}
