//! Network front end for the PAMA cache: a Memcached ASCII-protocol
//! TCP server over `std::net`.
//!
//! The workspace builds offline, so there is no async runtime here:
//! the design is a non-blocking acceptor thread plus one thread per
//! connection, bounded by [`ServerConfig::max_conns`]. That is the
//! classic Memcached deployment shape for the connection counts this
//! reproduction targets (tens, not tens of thousands), and it keeps
//! every request on one stack from socket to shard.
//!
//! * **Pipelining** — each connection parses and answers *every*
//!   complete command sitting in its read buffer before writing, and
//!   sends the whole burst's replies with a single `write`.
//! * **No per-command allocation** — [`proto::Command`] borrows its
//!   keys and data blocks from the read buffer, and each `get` key is
//!   served by [`PamaCache::lookup_with`], whose visitor writes the
//!   `VALUE` line and data from the slab arena straight into the
//!   burst's reply buffer.
//! * **Backpressure** — past `max_conns`, new sockets are shed with
//!   `SERVER_ERROR too many connections` and closed; per-connection
//!   read/write timeouts bound what a stalled peer can hold.
//! * **Shutdown** — [`Server::shutdown`] flips a flag; the acceptor
//!   stops, each connection finishes the requests already buffered
//!   (in-flight work drains), replies, and closes.

#![deny(deprecated)]

pub mod client;
mod conn;
pub mod daemon;
pub mod proto;

use pama_kv::PamaCache;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection ceiling; sockets past it are shed with
    /// `SERVER_ERROR too many connections`.
    pub max_conns: usize,
    /// Idle read timeout: a connection with no complete request for
    /// this long is closed.
    pub read_timeout: Duration,
    /// Per-`write` timeout before a stalled peer is dropped.
    pub write_timeout: Duration,
    /// Largest accepted data block; bigger declared sizes are
    /// swallowed and refused (see [`proto::Parser`]).
    pub max_value_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_value_bytes: 1 << 20,
        }
    }
}

/// Monotonic counters, visible through [`Server::stats`] and the wire
/// `stats` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections shed at the `max_conns` ceiling.
    pub shed: u64,
    /// Currently open connections.
    pub curr_conns: u64,
    /// Protocol errors answered (`ERROR` / `CLIENT_ERROR` /
    /// `SERVER_ERROR` lines caused by malformed input).
    pub protocol_errors: u64,
    /// Commands executed.
    pub commands: u64,
}

/// State shared between the acceptor, every connection thread, and
/// the [`Server`] handle.
pub(crate) struct Shared {
    pub(crate) cache: Arc<PamaCache>,
    pub(crate) cfg: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) curr_conns: AtomicUsize,
    pub(crate) accepted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) commands: AtomicU64,
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

/// How often blocked threads wake to check the shutdown flag.
const POLL: Duration = Duration::from_millis(10);

impl Server {
    /// Binds `listen` (e.g. `"127.0.0.1:11211"`, port `0` for
    /// ephemeral) and starts accepting.
    pub fn bind(cache: Arc<PamaCache>, listen: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache,
            cfg,
            shutdown: AtomicBool::new(false),
            curr_conns: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            commands: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pamad-accept".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        Ok(Server { shared, addr, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters so far.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared;
        ServerStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            curr_conns: s.curr_conns.load(Ordering::Relaxed) as u64,
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
            commands: s.commands.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, drains in-flight requests, and joins every
    /// thread. Buffered complete requests are answered before their
    /// connections close; the listener socket is released on return.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Connection threads poll the flag at POLL granularity and
        // exit once their buffers are drained; wait them out.
        while self.shared.curr_conns.load(Ordering::Acquire) > 0 {
            std::thread::sleep(POLL);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                handles.retain(|h| !h.is_finished());
                if shared.curr_conns.load(Ordering::Acquire) >= shared.cfg.max_conns {
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    shed(stream, shared.cfg.write_timeout);
                    continue;
                }
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                shared.curr_conns.fetch_add(1, Ordering::AcqRel);
                let for_conn = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("pamad-conn".into())
                    .spawn(move || conn::serve(stream, &for_conn));
                match spawned {
                    Ok(h) => handles.push(h),
                    Err(_) => {
                        // Thread exhaustion: treat like shedding.
                        shared.curr_conns.fetch_sub(1, Ordering::AcqRel);
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

/// Graceful refusal at the connection ceiling.
fn shed(mut stream: std::net::TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.write_all(b"SERVER_ERROR too many connections\r\n");
    // Drop closes.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use pama_kv::CacheBuilder;

    fn small_cache() -> Arc<PamaCache> {
        Arc::new(CacheBuilder::new().total_bytes(4 << 20).slab_bytes(64 << 10).build())
    }

    #[test]
    fn ephemeral_bind_reports_real_port() {
        let srv = Server::bind(small_cache(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        assert_ne!(srv.local_addr().port(), 0);
        srv.shutdown();
    }

    #[test]
    fn round_trip_set_get_over_loopback() {
        let srv = Server::bind(small_cache(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(c.set(b"hello", b"world", 42, 0).unwrap(), "STORED");
        let v = c.get(b"hello").unwrap().expect("stored value");
        assert_eq!(v.value, b"world");
        assert_eq!(v.flags, 42);
        assert!(c.get(b"absent").unwrap().is_none());
        srv.shutdown();
    }

    #[test]
    fn max_conns_sheds_with_server_error() {
        let cfg = ServerConfig { max_conns: 1, ..ServerConfig::default() };
        let srv = Server::bind(small_cache(), "127.0.0.1:0", cfg).unwrap();
        let first = Client::connect(srv.local_addr()).unwrap();
        // The second socket must receive the shed line. Connects can
        // race the acceptor's bookkeeping, so allow a few tries.
        let mut refused = false;
        for _ in 0..50 {
            let mut c = match Client::connect(srv.local_addr()) {
                Ok(c) => c,
                Err(_) => continue,
            };
            match c.version() {
                Err(e) if e.to_string().contains("too many connections") => {
                    refused = true;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        assert!(refused, "second connection was never shed");
        assert!(srv.stats().shed >= 1);
        drop(first);
        srv.shutdown();
    }

    #[test]
    fn shutdown_drains_then_refuses_new_connects() {
        let srv = Server::bind(small_cache(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = srv.local_addr();
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.set(b"k", b"v", 0, 0).unwrap(), "STORED");
        srv.shutdown();
        // The listener is gone: either the connect fails outright or
        // the first request errors out.
        match Client::connect(addr) {
            Err(_) => {}
            Ok(mut c2) => assert!(c2.version().is_err(), "server answered after shutdown"),
        }
    }
}
