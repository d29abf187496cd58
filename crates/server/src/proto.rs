//! Incremental Memcached ASCII-protocol codec.
//!
//! [`Parser::step`] consumes bytes from the front of a connection
//! buffer and yields one [`Step`] at a time. It is torn-frame safe:
//! a command line or data block split across arbitrary `read()`
//! boundaries parses identically to one that arrives whole, because
//! the parser never commits to a command until every byte of it is in
//! the buffer — except for *refused* data blocks (a declared size the
//! server will not store), which are discarded incrementally so a
//! hostile or confused client cannot force unbounded buffering.
//!
//! A [`Step`] borrows from the buffer it was parsed from: keys and data
//! blocks are slices of it, and a `get` line's keys are a [`Keys`] view
//! over the line's validated tokens, so parsing a command allocates
//! nothing. The caller executes each command before it drops the bytes
//! the command was parsed from.
//!
//! Commands: `get`/`gets` (multi-key), `set`/`add` (with data block),
//! `delete`, `touch`, `stats`, `flush_all`, `version`, `quit`.
//! `exptime` is passed through verbatim and read as Memcached does:
//! `0` means never expires, negative means already expired (the
//! "expire immediately" idiom), up to 30 days (2,592,000 s) counts
//! relative seconds, and anything larger is an absolute Unix time,
//! already expired when it is not in the future. `noreply` suppresses
//! the response line on mutations.

/// Memcached's key-length ceiling, bytes.
pub const MAX_KEY_BYTES: usize = 250;

/// Longest accepted command line (not counting data blocks). A line
/// that grows past this without a terminator is a protocol error.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most tokens a non-`get` line keeps. No accepted form has more
/// than 6, so a longer line is rejected by its count alone.
const MAX_TOKENS: usize = 8;

const ERROR: &str = "ERROR\r\n";
const BAD_FORMAT: &str = "CLIENT_ERROR bad command line format\r\n";
const BAD_KEY: &str = "CLIENT_ERROR bad key\r\n";
const TOO_LARGE: &str = "SERVER_ERROR object too large for cache\r\n";
const LINE_TOO_LONG: &str = "CLIENT_ERROR command line too long\r\n";
const BAD_CHUNK: &str = "CLIENT_ERROR bad data chunk\r\n";

/// A storage command's payload (`set` / `add`), borrowed from the
/// parsed buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Store<'a> {
    /// The item key.
    pub key: &'a [u8],
    /// Opaque 32-bit flags stored with the item.
    pub flags: u32,
    /// Memcached `exptime`, verbatim (see the module docs).
    pub exptime: i64,
    /// The data block (terminator stripped).
    pub data: &'a [u8],
    /// Suppress the response line.
    pub noreply: bool,
}

/// The keys of a `get`/`gets` line in request order: a view over the
/// line's space-separated tokens after the verb, every one of which
/// the parser has validated.
#[derive(Debug, Clone, Copy)]
pub struct Keys<'a>(&'a [u8]);

impl<'a> Iterator for Keys<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        next_token(&mut self.0)
    }
}

/// Two views are equal when they name the same keys in the same
/// order, however the line spaced them.
impl PartialEq for Keys<'_> {
    fn eq(&self, other: &Self) -> bool {
        Iterator::eq(*self, *other)
    }
}

impl Eq for Keys<'_> {}

/// One parsed client command, borrowed from the parsed buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command<'a> {
    /// `get`/`gets` over one or more keys; `gets` also wants CAS.
    Get {
        /// Keys, in request order.
        keys: Keys<'a>,
        /// True for `gets` (emit the CAS stamp on each VALUE line).
        with_cas: bool,
    },
    /// Unconditional store.
    Set(Store<'a>),
    /// Store only if absent.
    Add(Store<'a>),
    /// Remove a key.
    Delete {
        /// The key to remove.
        key: &'a [u8],
        /// Suppress the response line.
        noreply: bool,
    },
    /// Reset a key's TTL without touching its value.
    Touch {
        /// The key to refresh.
        key: &'a [u8],
        /// Memcached `exptime`, verbatim (see the module docs).
        exptime: i64,
        /// Suppress the response line.
        noreply: bool,
    },
    /// Server + cache counters.
    Stats,
    /// Prometheus-style metric lines from the observability registry
    /// (`stats metrics`).
    StatsMetrics,
    /// One line per penalty band — hits, misses, penalty-weighted miss
    /// cost, evictions, slab moves (`stats bands`).
    StatsBands,
    /// Drop every item.
    FlushAll {
        /// Suppress the response line.
        noreply: bool,
    },
    /// Server version string.
    Version,
    /// Close the connection.
    Quit,
}

/// One parser advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<'a> {
    /// Not enough bytes for the next command; read more.
    Incomplete,
    /// `n` bytes of a refused data block were discarded; nothing to
    /// execute yet, keep feeding.
    Swallowed {
        /// Bytes to drop from the front of the buffer.
        n: usize,
    },
    /// A complete command.
    Cmd {
        /// The command.
        cmd: Command<'a>,
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
    },
    /// A protocol error. Send `reply`, drop `consumed` bytes, and —
    /// when `fatal` — close the connection (the stream can no longer
    /// be framed).
    Bad {
        /// Full response line, terminator included.
        reply: &'static str,
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
        /// Whether the connection must close after the reply.
        fatal: bool,
    },
}

/// Stateful incremental parser (one per connection).
#[derive(Debug)]
pub struct Parser {
    max_value_bytes: usize,
    /// Remaining bytes of a refused data block (terminator included)
    /// still to discard before `deferred` is emitted.
    swallow: usize,
    deferred: Option<&'static str>,
}

/// The tokens of a non-`get` line: the first [`MAX_TOKENS`], the true
/// count, and the last.
struct Line<'a> {
    toks: [&'a [u8]; MAX_TOKENS],
    n: usize,
    last: &'a [u8],
}

impl<'a> Line<'a> {
    /// Tokenizes `verb` plus the rest of its line.
    fn new(verb: &'a [u8], mut rest: &'a [u8]) -> Self {
        let mut line = Line { toks: [&[]; MAX_TOKENS], n: 1, last: verb };
        line.toks[0] = verb;
        while let Some(tok) = next_token(&mut rest) {
            if line.n < MAX_TOKENS {
                line.toks[line.n] = tok;
            }
            line.n += 1;
            line.last = tok;
        }
        line
    }

    fn noreply(&self) -> bool {
        self.last == b"noreply"
    }

    /// The token count less a trailing `noreply`.
    fn args(&self) -> usize {
        self.n - usize::from(self.noreply())
    }
}

/// Splits the next token off the front of `rest`: tokens are separated
/// by runs of spaces, so no token is empty.
fn next_token<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let start = rest.iter().position(|&b| b != b' ')?;
    let tail = &rest[start..];
    let len = tail.iter().position(|&b| b == b' ').unwrap_or(tail.len());
    let (tok, after) = tail.split_at(len);
    *rest = after;
    Some(tok)
}

/// Offset of the first `\r\n` in `buf`: scans for `\n` and checks the
/// byte before it, so a bare `\n` stays part of the line.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = buf[from..].iter().position(|&b| b == b'\n') {
        let nl = from + i;
        if nl > 0 && buf[nl - 1] == b'\r' {
            return Some(nl - 1);
        }
        from = nl + 1;
    }
    None
}

fn bad<'a>(reply: &'static str, consumed: usize, fatal: bool) -> Step<'a> {
    Step::Bad { reply, consumed, fatal }
}

fn key_ok(key: &[u8]) -> bool {
    !key.is_empty() && key.len() <= MAX_KEY_BYTES && key.iter().all(|&b| b > 32 && b != 127)
}

fn parse_u32(tok: &[u8]) -> Option<u32> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

fn parse_i64(tok: &[u8]) -> Option<i64> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

fn parse_usize(tok: &[u8]) -> Option<usize> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

impl Parser {
    /// A parser that refuses data blocks larger than
    /// `max_value_bytes`.
    pub fn new(max_value_bytes: usize) -> Self {
        Parser { max_value_bytes, swallow: 0, deferred: None }
    }

    /// Advances over the front of `buf`. The caller drops the
    /// `consumed` / `n` bytes the step reports and loops until
    /// [`Step::Incomplete`].
    pub fn step<'a>(&mut self, buf: &'a [u8]) -> Step<'a> {
        if self.swallow > 0 {
            let n = self.swallow.min(buf.len());
            self.swallow -= n;
            if self.swallow == 0 {
                let reply = self.deferred.take().unwrap_or(ERROR);
                return Step::Bad { reply, consumed: n, fatal: false };
            }
            return if n == 0 { Step::Incomplete } else { Step::Swallowed { n } };
        }

        let Some(eol) = find_crlf(buf) else {
            return if buf.len() > MAX_LINE_BYTES {
                bad(LINE_TOO_LONG, buf.len(), true)
            } else {
                Step::Incomplete
            };
        };
        if eol > MAX_LINE_BYTES {
            return bad(LINE_TOO_LONG, eol + 2, true);
        }
        let consumed = eol + 2;
        let mut rest = &buf[..eol];
        let Some(verb) = next_token(&mut rest) else {
            return bad(ERROR, consumed, false);
        };
        if verb == b"get" || verb == b"gets" {
            let keys = Keys(rest);
            if keys.clone().next().is_none() {
                return bad(ERROR, consumed, false);
            }
            if keys.clone().any(|k| !key_ok(k)) {
                return bad(BAD_KEY, consumed, false);
            }
            return Step::Cmd {
                cmd: Command::Get { keys, with_cas: verb == b"gets" },
                consumed,
            };
        }

        let line = Line::new(verb, rest);
        let (toks, n, noreply) = (&line.toks, line.n, line.noreply());
        match verb {
            b"set" | b"add" => self.parse_store(&line, consumed, buf),
            b"delete" => {
                if line.args() != 2 || !key_ok(toks[1]) {
                    return bad(BAD_FORMAT, consumed, false);
                }
                Step::Cmd { cmd: Command::Delete { key: toks[1], noreply }, consumed }
            }
            b"touch" => {
                let exptime = if line.args() == 3 { parse_i64(toks[2]) } else { None };
                match exptime {
                    Some(exptime) if key_ok(toks[1]) => Step::Cmd {
                        cmd: Command::Touch { key: toks[1], exptime, noreply },
                        consumed,
                    },
                    _ => bad(BAD_FORMAT, consumed, false),
                }
            }
            b"stats" if n == 1 => Step::Cmd { cmd: Command::Stats, consumed },
            b"stats" if n == 2 && toks[1] == b"metrics" => {
                Step::Cmd { cmd: Command::StatsMetrics, consumed }
            }
            b"stats" if n == 2 && toks[1] == b"bands" => {
                Step::Cmd { cmd: Command::StatsBands, consumed }
            }
            // Unknown stats sub-argument: non-fatal, like an unknown verb.
            b"stats" => bad(ERROR, consumed, false),
            b"flush_all" => {
                // Optional numeric delay accepted and ignored (we
                // flush immediately), matching common client libs.
                match line.args() {
                    1 => Step::Cmd { cmd: Command::FlushAll { noreply }, consumed },
                    2 if parse_i64(toks[1]).is_some() => {
                        Step::Cmd { cmd: Command::FlushAll { noreply }, consumed }
                    }
                    _ => bad(BAD_FORMAT, consumed, false),
                }
            }
            b"version" if n == 1 => Step::Cmd { cmd: Command::Version, consumed },
            b"quit" => Step::Cmd { cmd: Command::Quit, consumed },
            _ => bad(ERROR, consumed, false),
        }
    }

    fn parse_store<'a>(&mut self, line: &Line<'a>, consumed: usize, buf: &'a [u8]) -> Step<'a> {
        // <verb> <key> <flags> <exptime> <bytes> [noreply]
        if line.args() != 5 {
            // Cannot size the data block that may follow: unframeable.
            return bad(BAD_FORMAT, consumed, true);
        }
        let toks = &line.toks;
        let (flags, exptime, bytes) =
            match (parse_u32(toks[2]), parse_i64(toks[3]), parse_usize(toks[4])) {
                (Some(f), Some(e), Some(b)) => (f, e, b),
                _ => return bad(BAD_FORMAT, consumed, true),
            };
        // The data block's size is known even when the command is
        // refused, so these errors swallow it and keep the stream
        // framed instead of closing.
        if !key_ok(toks[1]) {
            return self.refuse_block(BAD_KEY, bytes, consumed, buf);
        }
        if bytes > self.max_value_bytes {
            return self.refuse_block(TOO_LARGE, bytes, consumed, buf);
        }
        let need = consumed + bytes + 2;
        if buf.len() < need {
            return Step::Incomplete;
        }
        if &buf[consumed + bytes..need] != b"\r\n" {
            return bad(BAD_CHUNK, need, true);
        }
        let store = Store {
            key: toks[1],
            flags,
            exptime,
            data: &buf[consumed..consumed + bytes],
            noreply: line.noreply(),
        };
        let cmd = if toks[0] == b"set" { Command::Set(store) } else { Command::Add(store) };
        Step::Cmd { cmd, consumed: need }
    }

    /// Discards a sized data block (terminator included) that the
    /// server refuses to store, then emits `reply`.
    fn refuse_block<'a>(
        &mut self,
        reply: &'static str,
        bytes: usize,
        consumed: usize,
        buf: &[u8],
    ) -> Step<'a> {
        let total = bytes + 2;
        let have = (buf.len() - consumed).min(total);
        if have == total {
            return bad(reply, consumed + total, false);
        }
        self.swallow = total - have;
        self.deferred = Some(reply);
        Step::Swallowed { n: consumed + have }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(input: &[u8]) -> Step<'_> {
        Parser::new(1 << 20).step(input)
    }

    #[test]
    fn get_parses_keys_in_order() {
        match one(b"get a bb ccc\r\n") {
            Step::Cmd { cmd: Command::Get { keys, with_cas }, consumed } => {
                assert_eq!(keys.collect::<Vec<_>>(), [&b"a"[..], b"bb", b"ccc"]);
                assert!(!with_cas);
                assert_eq!(consumed, 14);
            }
            s => panic!("{s:?}"),
        }
        assert!(matches!(
            one(b"gets k\r\n"),
            Step::Cmd { cmd: Command::Get { with_cas: true, .. }, .. }
        ));
    }

    #[test]
    fn set_carries_its_data_block() {
        match one(b"set k 7 0 5 noreply\r\nhello\r\nget x\r\n") {
            Step::Cmd { cmd: Command::Set(s), consumed } => {
                assert_eq!(s.key, b"k");
                assert_eq!(s.flags, 7);
                assert_eq!(s.exptime, 0);
                assert_eq!(s.data, b"hello");
                assert!(s.noreply);
                assert_eq!(consumed, 28);
            }
            s => panic!("{s:?}"),
        }
    }

    #[test]
    fn torn_frames_stay_incomplete_until_whole() {
        let full = b"set k 0 0 3\r\nabc\r\n";
        let mut p = Parser::new(1 << 20);
        for cut in 1..full.len() {
            assert_eq!(p.step(&full[..cut]), Step::Incomplete, "cut at {cut}");
        }
        assert!(
            matches!(p.step(full), Step::Cmd { cmd: Command::Set(_), consumed } if consumed == full.len())
        );
    }

    #[test]
    fn oversized_block_is_swallowed_incrementally() {
        let mut p = Parser::new(8);
        // Declares 10 bytes against an 8-byte cap; block arrives torn.
        match p.step(b"set k 0 0 10\r\n1234") {
            Step::Swallowed { n } => assert_eq!(n, 18),
            s => panic!("{s:?}"),
        }
        match p.step(b"567890\r\nversion\r\n") {
            Step::Bad { reply, consumed, fatal } => {
                assert!(reply.starts_with("SERVER_ERROR object too large"));
                assert_eq!(consumed, 8);
                assert!(!fatal);
            }
            s => panic!("{s:?}"),
        }
        // The stream is still framed: the next command parses.
        assert!(matches!(p.step(b"version\r\n"), Step::Cmd { cmd: Command::Version, .. }));
    }

    #[test]
    fn oversized_key_swallows_but_survives() {
        let mut p = Parser::new(1 << 20);
        let long = vec![b'k'; MAX_KEY_BYTES + 1];
        let mut req = b"set ".to_vec();
        req.extend_from_slice(&long);
        req.extend_from_slice(b" 0 0 2\r\nhi\r\n");
        match p.step(&req) {
            Step::Bad { reply, consumed, fatal } => {
                assert!(reply.starts_with("CLIENT_ERROR bad key"));
                assert_eq!(consumed, req.len());
                assert!(!fatal);
            }
            s => panic!("{s:?}"),
        }
        let mut get = b"get ".to_vec();
        get.extend_from_slice(&long);
        get.extend_from_slice(b"\r\n");
        assert!(matches!(p.step(&get), Step::Bad { fatal: false, .. }));
    }

    #[test]
    fn bad_store_header_is_fatal() {
        // Unparseable byte count: the following data block cannot be
        // framed, so the connection must close.
        assert!(matches!(one(b"set k 0 0 banana\r\n"), Step::Bad { fatal: true, .. }));
        assert!(matches!(one(b"set k 0 0\r\n"), Step::Bad { fatal: true, .. }));
    }

    #[test]
    fn bad_data_terminator_is_fatal() {
        assert!(matches!(one(b"set k 0 0 2\r\nhiXX"), Step::Bad { fatal: true, .. }));
    }

    #[test]
    fn unknown_verbs_and_empty_lines_error_nonfatally() {
        assert!(matches!(one(b"frobnicate\r\n"), Step::Bad { fatal: false, .. }));
        assert!(matches!(one(b"\r\n"), Step::Bad { fatal: false, .. }));
        assert!(matches!(one(b"get\r\n"), Step::Bad { fatal: false, .. }));
    }

    #[test]
    fn runaway_line_without_terminator_is_fatal() {
        let long = vec![b'a'; MAX_LINE_BYTES + 1];
        assert!(matches!(one(&long), Step::Bad { fatal: true, .. }));
    }

    #[test]
    fn control_commands_parse() {
        assert!(matches!(one(b"stats\r\n"), Step::Cmd { cmd: Command::Stats, .. }));
        assert!(matches!(
            one(b"flush_all\r\n"),
            Step::Cmd { cmd: Command::FlushAll { noreply: false }, .. }
        ));
        assert!(matches!(
            one(b"flush_all 0 noreply\r\n"),
            Step::Cmd { cmd: Command::FlushAll { noreply: true }, .. }
        ));
        assert!(matches!(one(b"quit\r\n"), Step::Cmd { cmd: Command::Quit, .. }));
        assert!(matches!(
            one(b"touch k 60\r\n"),
            Step::Cmd { cmd: Command::Touch { exptime: 60, noreply: false, .. }, .. }
        ));
        assert!(matches!(
            one(b"delete k noreply\r\n"),
            Step::Cmd { cmd: Command::Delete { noreply: true, .. }, .. }
        ));
    }

    #[test]
    fn stats_subcommands_parse() {
        assert!(matches!(
            one(b"stats metrics\r\n"),
            Step::Cmd { cmd: Command::StatsMetrics, .. }
        ));
        assert!(matches!(one(b"stats bands\r\n"), Step::Cmd { cmd: Command::StatsBands, .. }));
        // Unknown sub-argument errors without killing the connection.
        assert!(matches!(one(b"stats nonsense\r\n"), Step::Bad { fatal: false, .. }));
        assert!(matches!(one(b"stats bands extra\r\n"), Step::Bad { fatal: false, .. }));
    }

    fn show(b: &[u8]) -> String {
        b.escape_ascii().to_string()
    }

    fn render(cmd: &Command<'_>) -> String {
        match cmd {
            Command::Get { keys, with_cas } => {
                let keys: Vec<String> = keys.map(show).collect();
                format!("get cas={with_cas} [{}]", keys.join(","))
            }
            Command::Set(s) | Command::Add(s) => format!(
                "{} {} {} {} [{}] noreply={}",
                if matches!(cmd, Command::Set(_)) { "set" } else { "add" },
                show(s.key),
                s.flags,
                s.exptime,
                show(s.data),
                s.noreply
            ),
            Command::Delete { key, noreply } => {
                format!("delete {} noreply={noreply}", show(key))
            }
            Command::Touch { key, exptime, noreply } => {
                format!("touch {} {exptime} noreply={noreply}", show(key))
            }
            Command::FlushAll { noreply } => format!("flush_all noreply={noreply}"),
            other => format!("{other:?}"),
        }
    }

    /// Feeds `stream` in two reads split at `cut`, stepping like a
    /// connection does, and renders every command and error with the
    /// stream offset it ends at (swallowed bytes only advance it).
    fn drive(stream: &[u8], cut: usize) -> Vec<String> {
        let mut p = Parser::new(16);
        let mut out = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut base = 0;
        for chunk in [&stream[..cut], &stream[cut..]] {
            buf.extend_from_slice(chunk);
            let mut pos = 0;
            loop {
                match p.step(&buf[pos..]) {
                    Step::Incomplete => break,
                    Step::Swallowed { n } => pos += n,
                    Step::Cmd { cmd, consumed } => {
                        pos += consumed;
                        out.push(format!("{} {}", base + pos, render(&cmd)));
                    }
                    Step::Bad { reply, consumed, fatal } => {
                        pos += consumed;
                        out.push(format!("{} bad {reply:?} fatal={fatal}", base + pos));
                    }
                }
            }
            buf.drain(..pos);
            base += pos;
        }
        out
    }

    /// A mixed stream parses to the same steps whole and split at every
    /// byte offset. The expected steps are the ones the owned-token
    /// parser this one replaced produced for the same stream, including
    /// every over-long line and a bare `\n` inside a line.
    #[test]
    fn mixed_stream_parses_the_same_at_every_split() {
        let stream: &[u8] = b"get a bb ccc\r\n\
            gets k1 k2\r\n  get   spaced   keys  \r\n\
            set k 7 0 5\r\nhello\r\n\
            set k 1 -1 0 noreply\r\n\r\n\
            add a2 4294967295 100 3\r\nxyz\r\n\
            add a3 0 0 2 noreply\r\nhi\r\n\
            delete k\r\ndelete k noreply\r\n\
            touch k 60\r\ntouch k 2592001 noreply\r\n\
            flush_all 0\r\nflush_all noreply\r\n\
            version\r\nstats\r\nstats metrics\r\nstats bands\r\nstats nonsense\r\n\r\n\
            set big 0 0 20\r\n01234567890123456789\r\n\
            add big 0 0 17 noreply\r\n01234567890123456\r\n\
            set k\n 0 0 1\r\nx\r\n\
            get k1 k2 k3 k4 k5 k6 k7 k8 k9\r\n\
            gets k1 k2 k3 k4 k5 k6 k7 k8 k9\r\n\
            get k1 k2 k3 k4 k5 k6 k7 k8 k\n9\r\n\
            delete a b c d e f g h noreply\r\n\
            touch a b c d e f g h 1\r\n\
            stats a b c d e f g h i\r\n\
            flush_all 0 0 0 0 0 0 0 noreply\r\n\
            version a b c d e f g h\r\n\
            quit a b c d e f g h\r\n\
            frob a b c d e f g h i\r\n\
            get a\nb\r\ndelete k\n\r\ntouch k\n 5\r\n\
            set x 0 0 2 a b c d noreply\r\n\
            add x 0 0 2 a b c d e\r\n\
            quit\r\n\
            set k 0 0 2\r\nhiXX\
            version\r\n";
        let expected = [
            "14 get cas=false [a,bb,ccc]",
            "26 get cas=true [k1,k2]",
            "51 get cas=false [spaced,keys]",
            "71 set k 7 0 [hello] noreply=false",
            "95 set k 1 -1 [] noreply=true",
            "125 add a2 4294967295 100 [xyz] noreply=false",
            "151 add a3 0 0 [hi] noreply=true",
            "161 delete k noreply=false",
            "179 delete k noreply=true",
            "191 touch k 60 noreply=false",
            "216 touch k 2592001 noreply=true",
            "229 flush_all noreply=false",
            "248 flush_all noreply=true",
            "257 Version",
            "264 Stats",
            "279 StatsMetrics",
            "292 StatsBands",
            "308 bad \"ERROR\\r\\n\" fatal=false",
            "310 bad \"ERROR\\r\\n\" fatal=false",
            "348 bad \"SERVER_ERROR object too large for cache\\r\\n\" fatal=false",
            "391 bad \"SERVER_ERROR object too large for cache\\r\\n\" fatal=false",
            "408 bad \"CLIENT_ERROR bad key\\r\\n\" fatal=false",
            "440 get cas=false [k1,k2,k3,k4,k5,k6,k7,k8,k9]",
            "473 get cas=true [k1,k2,k3,k4,k5,k6,k7,k8,k9]",
            "506 bad \"CLIENT_ERROR bad key\\r\\n\" fatal=false",
            "538 bad \"CLIENT_ERROR bad command line format\\r\\n\" fatal=false",
            "563 bad \"CLIENT_ERROR bad command line format\\r\\n\" fatal=false",
            "588 bad \"ERROR\\r\\n\" fatal=false",
            "621 bad \"CLIENT_ERROR bad command line format\\r\\n\" fatal=false",
            "646 bad \"ERROR\\r\\n\" fatal=false",
            "668 Quit",
            "692 bad \"ERROR\\r\\n\" fatal=false",
            "701 bad \"CLIENT_ERROR bad key\\r\\n\" fatal=false",
            "712 bad \"CLIENT_ERROR bad command line format\\r\\n\" fatal=false",
            "724 bad \"CLIENT_ERROR bad command line format\\r\\n\" fatal=false",
            "753 bad \"CLIENT_ERROR bad command line format\\r\\n\" fatal=true",
            "776 bad \"CLIENT_ERROR bad command line format\\r\\n\" fatal=true",
            "782 Quit",
            "799 bad \"CLIENT_ERROR bad data chunk\\r\\n\" fatal=true",
            "808 Version",
        ];
        assert_eq!(stream.len(), 808);
        assert_eq!(drive(stream, stream.len()), expected);
        for cut in 0..stream.len() {
            assert_eq!(drive(stream, cut), expected, "split at byte {cut}");
        }
    }
}
