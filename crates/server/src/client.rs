//! Minimal blocking Memcached ASCII client over `std::net`.
//!
//! Built for the test suites and the `repro net` benchmark rather
//! than for applications: it exposes exactly the request shapes the
//! server's fast paths care about — one-shot requests,
//! [`Client::multi_get`] (one `get` with many keys), and
//! [`Client::pipeline_gets`] / [`Client::pipeline_sets`] (many
//! commands per write, responses read back in order).

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One returned value with its wire metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetValue {
    /// The stored flags word.
    pub flags: u32,
    /// CAS stamp — only present for `gets`.
    pub cas: Option<u64>,
    /// The value bytes.
    pub value: Vec<u8>,
}

/// A blocking connection to a `pamad` (or any Memcached-speaking)
/// server.
pub struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Start of the unparsed bytes in `rbuf`. Replies are parsed by
    /// advancing it; the parsed prefix is dropped once per `fill`.
    pos: usize,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

impl Client {
    /// Connects with 5-second read/write timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::connect_timeout(addr, Duration::from_secs(5))
    }

    /// Connects with explicit read/write timeouts.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream, rbuf: Vec::with_capacity(4 << 10), pos: 0 })
    }

    /// Sends raw bytes as-is (escape hatch for protocol tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one `\r\n`-terminated line, terminator stripped.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut from = self.pos;
        loop {
            let unread = &self.rbuf[from..];
            if let Some(i) = unread.iter().position(|&b| b == b'\n') {
                let nl = from + i;
                if nl > self.pos && self.rbuf[nl - 1] == b'\r' {
                    let line = self.rbuf[self.pos..nl - 1].to_vec();
                    self.pos = nl + 1;
                    return String::from_utf8(line).map_err(|_| bad("non-UTF-8 response line"));
                }
                from = nl + 1;
                continue;
            }
            // `fill` moves the unread bytes to the front of the buffer.
            from = self.rbuf.len() - self.pos;
            self.fill()?;
        }
    }

    /// Reads exactly `n` bytes plus the `\r\n` terminator, which it
    /// strips: the data block of a `VALUE` line read with
    /// [`Self::read_line`].
    pub fn read_block(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.rbuf.len() - self.pos < n + 2 {
            self.fill()?;
        }
        let block = self.rbuf[self.pos..self.pos + n].to_vec();
        self.pos += n + 2;
        Ok(block)
    }

    /// Drops the parsed prefix, then appends one read's bytes.
    fn fill(&mut self) -> io::Result<()> {
        self.rbuf.drain(..self.pos);
        self.pos = 0;
        let mut tmp = [0u8; 16 << 10];
        let n = self.stream.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed connection"));
        }
        self.rbuf.extend_from_slice(&tmp[..n]);
        Ok(())
    }

    /// `version` → the server's version string.
    pub fn version(&mut self) -> io::Result<String> {
        self.send_raw(b"version\r\n")?;
        let line = self.read_line()?;
        match line.strip_prefix("VERSION ") {
            Some(v) => Ok(v.to_string()),
            None => Err(bad(line)),
        }
    }

    /// `set` → the response line (`STORED`, `SERVER_ERROR ...`).
    pub fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: i64,
    ) -> io::Result<String> {
        let mut req = Vec::with_capacity(key.len() + value.len() + 48);
        store_cmd(&mut req, "set", key, value, flags, exptime, false);
        self.send_raw(&req)?;
        self.read_line()
    }

    /// `add` → the response line (`STORED` / `NOT_STORED`).
    pub fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: i64,
    ) -> io::Result<String> {
        let mut req = Vec::with_capacity(key.len() + value.len() + 48);
        store_cmd(&mut req, "add", key, value, flags, exptime, false);
        self.send_raw(&req)?;
        self.read_line()
    }

    /// `delete` → true when the key existed.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<bool> {
        let mut req = b"delete ".to_vec();
        req.extend_from_slice(key);
        req.extend_from_slice(b"\r\n");
        self.send_raw(&req)?;
        match self.read_line()?.as_str() {
            "DELETED" => Ok(true),
            "NOT_FOUND" => Ok(false),
            other => Err(bad(other)),
        }
    }

    /// `touch` → true when the key existed.
    pub fn touch(&mut self, key: &[u8], exptime: i64) -> io::Result<bool> {
        let mut req = b"touch ".to_vec();
        req.extend_from_slice(key);
        req.extend_from_slice(format!(" {exptime}\r\n").as_bytes());
        self.send_raw(&req)?;
        match self.read_line()?.as_str() {
            "TOUCHED" => Ok(true),
            "NOT_FOUND" => Ok(false),
            other => Err(bad(other)),
        }
    }

    /// `flush_all` → `Ok` on the `OK` line.
    pub fn flush_all(&mut self) -> io::Result<()> {
        self.send_raw(b"flush_all\r\n")?;
        match self.read_line()?.as_str() {
            "OK" => Ok(()),
            other => Err(bad(other)),
        }
    }

    /// Single-key `get`.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<GetValue>> {
        Ok(self.multi_get(&[key], false)?.pop().flatten())
    }

    /// Single-key `gets` (includes the CAS stamp).
    pub fn gets(&mut self, key: &[u8]) -> io::Result<Option<GetValue>> {
        Ok(self.multi_get(&[key], true)?.pop().flatten())
    }

    /// One `get`/`gets` command naming every key; results align with
    /// `keys` (misses are `None`).
    pub fn multi_get(
        &mut self,
        keys: &[&[u8]],
        with_cas: bool,
    ) -> io::Result<Vec<Option<GetValue>>> {
        let mut req: Vec<u8> = if with_cas { b"gets".to_vec() } else { b"get".to_vec() };
        for key in keys {
            req.push(b' ');
            req.extend_from_slice(key);
        }
        req.extend_from_slice(b"\r\n");
        self.send_raw(&req)?;
        self.read_values(keys)
    }

    /// Pipelines one single-key `get` command per key in a single
    /// write, then reads the responses back in order.
    pub fn pipeline_gets(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<GetValue>>> {
        let mut req = Vec::with_capacity(keys.len() * 16);
        for key in keys {
            req.extend_from_slice(b"get ");
            req.extend_from_slice(key);
            req.extend_from_slice(b"\r\n");
        }
        self.send_raw(&req)?;
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            out.push(self.read_values(&[key])?.pop().flatten());
        }
        Ok(out)
    }

    /// Pipelines one `set` per item in a single write; returns how
    /// many answered `STORED`.
    pub fn pipeline_sets(
        &mut self,
        items: &[(&[u8], &[u8])],
        flags: u32,
        exptime: i64,
    ) -> io::Result<usize> {
        let mut req = Vec::new();
        for (key, value) in items {
            store_cmd(&mut req, "set", key, value, flags, exptime, false);
        }
        self.send_raw(&req)?;
        let mut stored = 0;
        for _ in items {
            stored += usize::from(self.read_line()? == "STORED");
        }
        Ok(stored)
    }

    /// `stats` → the `STAT name value` pairs.
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        self.stats_of(None)
    }

    /// `stats <arg>` (or plain `stats` when `arg` is `None`) → the
    /// `STAT name value` pairs. The value is the rest of the line, so
    /// multi-field payloads like `stats bands` lines survive intact.
    pub fn stats_of(&mut self, arg: Option<&str>) -> io::Result<Vec<(String, String)>> {
        match arg {
            Some(a) => self.send_raw(format!("stats {a}\r\n").as_bytes())?,
            None => self.send_raw(b"stats\r\n")?,
        }
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(out);
            }
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("STAT"), Some(name), Some(value)) => {
                    out.push((name.to_string(), value.to_string()));
                }
                _ => return Err(bad(line)),
            }
        }
    }

    /// Sends `quit`; the server closes the connection.
    pub fn quit(&mut self) -> io::Result<()> {
        self.send_raw(b"quit\r\n")
    }

    /// Reads one `END`-terminated value response, aligning hits with
    /// `keys` by name.
    fn read_values(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<GetValue>>> {
        let mut found: Vec<(Vec<u8>, GetValue)> = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                break;
            }
            let Some(rest) = line.strip_prefix("VALUE ") else {
                return Err(bad(line));
            };
            let fields: Vec<&str> = rest.split(' ').collect();
            if fields.len() != 3 && fields.len() != 4 {
                return Err(bad(line.clone()));
            }
            let parse =
                |s: &str| s.parse::<u64>().map_err(|_| bad(format!("bad number in {line:?}")));
            let flags = parse(fields[1])? as u32;
            let len = parse(fields[2])? as usize;
            let cas = if fields.len() == 4 { Some(parse(fields[3])?) } else { None };
            let value = self.read_block(len)?;
            found.push((fields[0].as_bytes().to_vec(), GetValue { flags, cas, value }));
        }
        Ok(keys
            .iter()
            .map(|&k| found.iter().position(|(fk, _)| fk == k).map(|i| found.swap_remove(i).1))
            .collect())
    }
}

fn store_cmd(
    req: &mut Vec<u8>,
    verb: &str,
    key: &[u8],
    value: &[u8],
    flags: u32,
    exptime: i64,
    noreply: bool,
) {
    req.extend_from_slice(verb.as_bytes());
    req.push(b' ');
    req.extend_from_slice(key);
    req.extend_from_slice(format!(" {flags} {exptime} {}", value.len()).as_bytes());
    if noreply {
        req.extend_from_slice(b" noreply");
    }
    req.extend_from_slice(b"\r\n");
    req.extend_from_slice(value);
    req.extend_from_slice(b"\r\n");
}
