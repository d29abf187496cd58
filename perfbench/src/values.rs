//! Self-describing values, so every hit can be checked without keeping
//! a copy of what was written.
//!
//! A value is a 35-byte header — `<key id:16 hex>:<version:8 hex>:<length:8 hex>;`
//! — followed by a fixed filler of lowercase letters. A hit is correct
//! when its header names the key and the version last written for it,
//! its length matches the header, and its tail matches the filler. The
//! bytes are printable and free of `\r\n`, so the same values travel
//! over the Memcached text protocol.

use std::sync::OnceLock;

/// Header length in bytes; also the smallest value size.
pub const HEADER_LEN: usize = 35;

/// Largest value the writer produces.
pub const MAX_VALUE: usize = 64 << 10;

fn filler() -> &'static [u8] {
    static FILLER: OnceLock<Vec<u8>> = OnceLock::new();
    FILLER.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..MAX_VALUE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                b'a' + (x % 26) as u8
            })
            .collect()
    })
}

fn put_hex(out: &mut [u8], mut x: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for b in out.iter_mut().rev() {
        *b = HEX[(x & 0xf) as usize];
        x >>= 4;
    }
}

fn header(key_id: u64, version: u32, len: usize) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    put_hex(&mut h[0..16], key_id);
    h[16] = b':';
    put_hex(&mut h[17..25], u64::from(version));
    h[25] = b':';
    put_hex(&mut h[26..34], len as u64);
    h[34] = b';';
    h
}

/// Renders values into one reused buffer.
#[derive(Debug)]
pub struct ValueWriter {
    buf: Vec<u8>,
}

impl Default for ValueWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueWriter {
    /// A writer whose buffer already holds the filler.
    pub fn new() -> Self {
        Self { buf: filler().to_vec() }
    }

    /// The value for `key_id` at `version`, `len` bytes long (clamped to
    /// `HEADER_LEN..=MAX_VALUE`).
    pub fn render(&mut self, key_id: u64, version: u32, len: usize) -> &[u8] {
        let len = clamp_len(len);
        self.buf[..HEADER_LEN].copy_from_slice(&header(key_id, version, len));
        &self.buf[..len]
    }
}

/// A value size the writer can produce.
fn clamp_len(len: usize) -> usize {
    len.clamp(HEADER_LEN, MAX_VALUE)
}

/// Checks that `got` is exactly the value written for `key_id` at
/// `version`.
pub fn verify(got: &[u8], key_id: u64, version: u32) -> Result<(), String> {
    let len = got.len();
    if !(HEADER_LEN..=MAX_VALUE).contains(&len) {
        return Err(format!("key {key_id:x}: value of {len} bytes cannot be a written value"));
    }
    if got[..HEADER_LEN] != header(key_id, version, len) {
        return Err(format!(
            "key {key_id:x}: expected version {version} of {len} bytes, got header {:?}",
            String::from_utf8_lossy(&got[..HEADER_LEN])
        ));
    }
    if got[HEADER_LEN..] != filler()[HEADER_LEN..len] {
        return Err(format!("key {key_id:x}: value body corrupted"));
    }
    Ok(())
}

/// The version last written per key, with a flag for keys that are
/// known absent (never written, deleted, or refused).
#[derive(Debug, Clone)]
pub struct Versions(Vec<u32>);

const ABSENT: u32 = 1 << 31;

impl Versions {
    /// `n` keys, all absent.
    pub fn new(n: usize) -> Self {
        Self(vec![ABSENT; n])
    }

    /// Resets every key to absent, keeping the allocation.
    pub fn reset(&mut self) {
        self.0.fill(ABSENT);
    }

    /// The version the next write of `id` carries; the key counts as
    /// present at that version from now on.
    #[inline]
    pub fn bump(&mut self, id: usize) -> u32 {
        let v = (self.0[id] & !ABSENT) + 1;
        self.0[id] = v;
        v
    }

    /// Marks `id` absent (deleted, or its write was refused).
    #[inline]
    pub fn absent(&mut self, id: usize) {
        self.0[id] |= ABSENT;
    }

    /// The version a hit on `id` must return, or `None` when the key
    /// must not hit.
    #[inline]
    pub fn expect(&self, id: usize) -> Option<u32> {
        let v = self.0[id];
        (v & ABSENT == 0).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_values_verify_and_others_do_not() {
        let mut w = ValueWriter::new();
        let v = w.render(42, 7, 100).to_vec();
        assert_eq!(v.len(), 100);
        assert!(verify(&v, 42, 7).is_ok());
        assert!(verify(&v, 42, 6).is_err(), "stale version");
        assert!(verify(&v, 43, 7).is_err(), "wrong key");
        let mut bad = v.clone();
        bad[80] ^= 1;
        assert!(verify(&bad, 42, 7).is_err(), "corrupted body");
        assert!(verify(&v[..99], 42, 7).is_err(), "truncated");
        assert!(!v.windows(2).any(|w| w == b"\r\n"));
    }

    #[test]
    fn short_lengths_are_raised_to_the_header() {
        let mut w = ValueWriter::new();
        assert_eq!(w.render(1, 1, 3).len(), HEADER_LEN);
        assert_eq!(w.render(1, 1, usize::MAX).len(), MAX_VALUE);
    }

    #[test]
    fn versions_track_presence() {
        let mut v = Versions::new(2);
        assert_eq!(v.expect(0), None);
        assert_eq!(v.bump(0), 1);
        assert_eq!(v.expect(0), Some(1));
        v.absent(0);
        assert_eq!(v.expect(0), None);
        assert_eq!(v.bump(0), 2, "versions keep rising across deletes");
        v.reset();
        assert_eq!(v.expect(0), None);
    }
}
