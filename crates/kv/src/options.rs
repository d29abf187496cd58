//! Request options and typed errors for the mutation API.
//!
//! [`SetOptions`] replaces the old positional `(ttl, penalty)`
//! argument pairs: one struct with a [`Default`] impl, so call sites
//! only name the knobs they use and new knobs never churn every
//! caller again. [`CacheError`] makes mutation fallible — the cache
//! used to drop oversized values silently, which a wire protocol
//! cannot afford (a Memcached client that sent `set` expects
//! `STORED` or an error line, never silence).

use bytes::Bytes;
use pama_util::SimDuration;

/// Per-call knobs for [`crate::PamaCache::set`] and friends.
///
/// ```
/// use pama_kv::SetOptions;
/// use pama_util::SimDuration;
///
/// let plain = SetOptions::default();
/// let rich = SetOptions::new()
///     .ttl(SimDuration::from_secs(60))
///     .penalty(SimDuration::from_millis(250))
///     .flags(0xF00D);
/// assert_eq!(plain.flags, 0);
/// assert_eq!(rich.ttl, Some(SimDuration::from_secs(60)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetOptions {
    /// Time-to-live. `None` falls back to the builder's default TTL
    /// (itself `None` = never expires).
    pub ttl: Option<SimDuration>,
    /// Explicit regeneration penalty. `None` lets the cache supply one
    /// (measured GET-miss→SET gap, the penalty known at the miss, the
    /// replaced item's or the evicted key's, or the default; see
    /// [`crate::PamaCache::set`]).
    pub penalty: Option<SimDuration>,
    /// Opaque caller flags, stored verbatim and returned on lookup —
    /// the Memcached `<flags>` field.
    pub flags: u32,
}

impl SetOptions {
    /// Alias for [`Default::default`], reads better in builder chains.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the TTL.
    pub fn ttl(mut self, ttl: SimDuration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Sets an explicit regeneration penalty.
    pub fn penalty(mut self, penalty: SimDuration) -> Self {
        self.penalty = Some(penalty);
        self
    }

    /// Sets the opaque flags word.
    pub fn flags(mut self, flags: u32) -> Self {
        self.flags = flags;
        self
    }
}

/// Why a mutation was refused.
///
/// A refused `set` leaves the key **absent**: any previous generation
/// was already dropped before placement was attempted, exactly as the
/// silent-drop behaviour did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// The item cannot fit in any slab class of this geometry; no
    /// amount of eviction would help.
    ValueTooLarge {
        /// Key + value + per-item overhead, bytes.
        item_bytes: u64,
        /// The largest such footprint the geometry accepts (one slab).
        max_bytes: u64,
    },
    /// The geometry admits the item but the allocator could not place
    /// it right now (its class is starved of slabs and the policy
    /// refused to evict for it).
    CapacityExhausted {
        /// Key + value bytes of the refused item.
        item_bytes: u64,
    },
    /// The cache was closed via [`crate::PamaCache::close`]; reads
    /// still drain but mutations are refused.
    ShuttingDown,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::ValueTooLarge { item_bytes, max_bytes } => {
                write!(f, "item of {item_bytes} B exceeds the {max_bytes} B slab limit")
            }
            CacheError::CapacityExhausted { item_bytes } => {
                write!(f, "no slab space for a {item_bytes} B item")
            }
            CacheError::ShuttingDown => write!(f, "cache is shutting down"),
        }
    }
}

impl std::error::Error for CacheError {}

/// A full lookup result: the value plus the stored metadata the wire
/// protocol needs (`flags` for every `VALUE` line, `cas` for `gets`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheValue {
    /// The stored value bytes.
    pub value: Bytes,
    /// The opaque flags word given at `set` time.
    pub flags: u32,
    /// Store-order stamp: strictly increasing across writes to the
    /// same key (Memcached CAS semantics — compare per key, not
    /// across keys).
    pub cas: u64,
}

/// A lookup hit as stored: the value borrowed from the cache's own
/// storage, handed to the visitor of [`crate::PamaCache::lookup_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRef<'a> {
    /// The stored value bytes.
    pub value: &'a [u8],
    /// The opaque flags word given at `set` time.
    pub flags: u32,
    /// Store-order stamp, as in [`CacheValue::cas`].
    pub cas: u64,
}

impl ValueRef<'_> {
    /// Copies the hit out of the cache's storage.
    pub fn to_value(self) -> CacheValue {
        CacheValue {
            value: Bytes::copy_from_slice(self.value),
            flags: self.flags,
            cas: self.cas,
        }
    }
}

impl CacheValue {
    /// Borrows the hit in the form a lookup visitor receives.
    pub(crate) fn as_ref(&self) -> ValueRef<'_> {
        ValueRef { value: &self.value, flags: self.flags, cas: self.cas }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_every_field() {
        let o = SetOptions::new()
            .ttl(SimDuration::from_secs(1))
            .penalty(SimDuration::from_millis(5))
            .flags(7);
        assert_eq!(o.ttl, Some(SimDuration::from_secs(1)));
        assert_eq!(o.penalty, Some(SimDuration::from_millis(5)));
        assert_eq!(o.flags, 7);
        assert_eq!(SetOptions::default(), SetOptions::new());
    }

    #[test]
    fn errors_display_their_numbers() {
        let e = CacheError::ValueTooLarge { item_bytes: 100, max_bytes: 64 };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("64"));
        let e = CacheError::CapacityExhausted { item_bytes: 42 };
        assert!(e.to_string().contains("42"));
        assert!(!CacheError::ShuttingDown.to_string().is_empty());
    }
}
