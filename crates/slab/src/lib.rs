//! # pama-slab — physical slab-arena storage
//!
//! The paper's allocation scheme reasons about where fixed-size (1 MB)
//! **slabs of physical memory** should live; `pama-core` models that
//! decision problem with exact slot *counts*. This crate supplies the
//! matching physical substrate for the `pama-kv` store: real slabs of
//! bytes, carved into per-class slots of `min_slot · 2^class` bytes
//! (the same geometry as [`CacheConfig`]), with
//!
//! * a **slab ledger** — every slab belongs to exactly one size class;
//! * **per-class free-slot lists** — O(1) allocate / free inside a
//!   class;
//! * **slot handles** ([`SlotRef`] = `(slab_id, slot_idx)`) that an
//!   index maps keys to, each also packed into one `u32` node id
//!   ([`SlabArena::node`]);
//! * **one record per slot** ([`Record`], 48 bytes, out of line) — the
//!   item's only metadata: key hash, lengths, expiry, flags, CAS stamp,
//!   penalty and band, and the `prev`/`next` node ids and segment tag
//!   of the LRU queue the item is linked into. The arena is therefore a
//!   [`Links`] store: a policy's queues link slot records directly;
//! * **compaction + transfer** — when the policy migrates a slab from
//!   class *a* to class *b*, the arena consolidates class *a*'s live
//!   items into its other slabs, empties one slab, and re-carves it
//!   with class *b*'s slot size. A moved item's record moves whole,
//!   links and tag included, and its queue neighbours are repointed at
//!   its new slot; every move is reported so the caller can repoint its
//!   index and its queue ends.
//!
//! The arena stores `key ‖ value` contiguously in the slot, so an item
//! of `key + value ≤ slot_bytes` always fits and a reader can verify
//! the key without touching the index.
//!
//! The arena never decides *placement policy*: it will not grow a
//! class, steal a slab, or evict an item on its own. Slab residency
//! changes only through [`SlabArena::grant_slab`] and
//! [`SlabArena::transfer_slab`], which the kv layer drives from the
//! PAMA policy's decisions — keeping the physical ledger in lockstep
//! with the simulated one.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use pama_core::config::CacheConfig;
use pama_core::lru::{Links, NIL};

/// Sentinel `val_len` marking a free slot's record. Real values are
/// bounded by `slab_bytes` (≤ 1 GiB in any sane geometry), so the
/// all-ones pattern can never collide.
const FREE: u32 = u32::MAX;

/// The longest key a record can describe.
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

/// Handle to a live slot: which slab, and which slot within it.
///
/// Handles are dense (8 bytes) so an index can store one per entry.
/// A handle is invalidated by [`SlabArena::free`] and *re-pointed*
/// (via the `on_move` callback) by [`SlabArena::transfer_slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRef {
    /// Index of the slab in the arena ledger.
    pub slab: u32,
    /// Slot index within the slab (`0..slots_per_slab(class)`).
    pub slot: u32,
}

/// How an arena packs a [`SlotRef`] into one `u32` node id: the slab id
/// above enough bits for the most slots a slab can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeIds {
    slot_bits: u32,
}

impl NodeIds {
    /// The node id of slot `r`.
    #[inline]
    pub fn node(self, r: SlotRef) -> u32 {
        r.slab << self.slot_bits | r.slot
    }

    /// The slot a node id names.
    #[inline]
    pub fn slot_ref(self, node: u32) -> SlotRef {
        SlotRef { slab: node >> self.slot_bits, slot: node & ((1 << self.slot_bits) - 1) }
    }
}

/// One slot's out-of-line record: everything the store keeps about the
/// item in the slot besides its bytes, the item's LRU links included.
/// The owner writes the public fields; the lengths follow the bytes
/// ([`SlabArena::alloc`], [`SlabArena::write`]), and the links and tag
/// are the queue's, reached through [`Links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// The item's key hash.
    pub hash: u64,
    /// The owner's expiry stamp.
    pub expires: u64,
    /// The owner's compare-and-swap stamp.
    pub cas: u64,
    /// Node id of the next item toward the queue front, or [`NIL`].
    prev: u32,
    /// Node id of the next item toward the queue back, or [`NIL`].
    next: u32,
    /// Value length, or [`FREE`] when the slot is unallocated.
    val_len: u32,
    /// The item's miss penalty in microseconds.
    pub penalty_us: u32,
    /// The owner's opaque flags.
    pub flags: u32,
    key_len: u16,
    /// The penalty band (subclass queue) the item is filed under.
    pub band: u8,
    /// The queue owner's tag (the segment tracker's).
    tag: u8,
}

// Every slot of every carved slab costs one record, live or free.
const _: () = assert!(std::mem::size_of::<Record>() <= 48);

impl Record {
    const EMPTY: Record = Record {
        hash: 0,
        expires: 0,
        cas: 0,
        prev: NIL,
        next: NIL,
        val_len: FREE,
        penalty_us: 0,
        flags: 0,
        key_len: 0,
        band: 0,
        tag: 0,
    };

    /// A record for an item of `key_len + val_len` bytes under `hash`,
    /// unlinked and untagged, with every owner field zero.
    ///
    /// # Panics
    /// Panics when `key_len` exceeds [`MAX_KEY_LEN`].
    pub fn new(hash: u64, key_len: usize, val_len: usize) -> Self {
        let key_len = u16::try_from(key_len).expect("key longer than MAX_KEY_LEN");
        Record { hash, val_len: val_len as u32, key_len, expires: 0, cas: 0, ..Record::EMPTY }
    }

    fn is_free(&self) -> bool {
        self.val_len == FREE
    }

    /// Key length in bytes.
    pub fn key_len(&self) -> usize {
        self.key_len as usize
    }

    /// Value length in bytes.
    pub fn val_len(&self) -> usize {
        self.val_len as usize
    }

    fn used(&self) -> usize {
        self.key_len() + self.val_len()
    }
}

/// One physical slab: `slab_bytes` of data plus per-slot records.
struct Slab {
    /// Size class this slab is carved for.
    class: u32,
    /// The slab's backing bytes (`slab_bytes` long, allocated once).
    data: Box<[u8]>,
    /// Per-slot records, `slots_per_slab(class)` long.
    meta: Box<[Record]>,
    /// Free slot indices (stack).
    free: Vec<u32>,
    /// Number of live slots (`capacity - free.len()`).
    live: u32,
    /// Whether this slab sits on its class's open list.
    in_open: bool,
}

/// Per-class ledger: which slabs the class owns, and which of those
/// still have free slots (the *open* list).
#[derive(Default)]
struct ClassLedger {
    /// All slab ids assigned to this class.
    slabs: Vec<u32>,
    /// Slab ids with at least one free slot (each flagged `in_open`).
    open: Vec<u32>,
}

/// Why an arena operation was refused. The arena is deliberately
/// strict: every error here means the *caller* diverged from the
/// policy ledger, so `pama-kv` treats them as invariant violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// [`SlabArena::grant_slab`] would exceed the configured slab
    /// budget (`total_bytes / slab_bytes`).
    NoCapacity {
        /// The configured maximum number of slabs.
        max_slabs: usize,
    },
    /// The class index is out of range.
    BadClass {
        /// Offending class index.
        class: usize,
    },
    /// [`SlabArena::alloc`] found no free slot in the class. The
    /// policy ledger should have evicted or granted first.
    NoFreeSlot {
        /// Class that is out of slots.
        class: usize,
    },
    /// The item does not fit the class's slot size.
    ItemTooLarge {
        /// Class the caller asked for.
        class: usize,
        /// `key + value` bytes needed.
        needed: usize,
        /// The class's slot size.
        slot_bytes: usize,
    },
    /// The key is longer than a record can describe ([`MAX_KEY_LEN`]).
    KeyTooLong {
        /// The key's length in bytes.
        len: usize,
    },
    /// A [`SlotRef`] does not name a live slot.
    BadSlot {
        /// The offending handle.
        at: SlotRef,
    },
    /// [`SlabArena::transfer_slab`] from a class with no slabs.
    EmptyClass {
        /// Source class of the attempted transfer.
        class: usize,
    },
    /// Compaction cannot place the victim slab's live items in the
    /// class's remaining slabs (the caller did not free enough room).
    NoRoomToCompact {
        /// Source class of the attempted transfer.
        class: usize,
        /// Live items that would need new homes.
        live: usize,
        /// Free slots available in the rest of the class.
        free_elsewhere: usize,
    },
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::NoCapacity { max_slabs } => {
                write!(f, "arena already holds its maximum of {max_slabs} slabs")
            }
            ArenaError::BadClass { class } => write!(f, "class {class} out of range"),
            ArenaError::NoFreeSlot { class } => {
                write!(f, "class {class} has no free slot")
            }
            ArenaError::ItemTooLarge { class, needed, slot_bytes } => {
                write!(f, "item of {needed} bytes exceeds class {class} slot size {slot_bytes}")
            }
            ArenaError::KeyTooLong { len } => {
                write!(f, "key of {len} bytes exceeds the {MAX_KEY_LEN}-byte record limit")
            }
            ArenaError::BadSlot { at } => {
                write!(f, "slot ({}, {}) is not live", at.slab, at.slot)
            }
            ArenaError::EmptyClass { class } => {
                write!(f, "class {class} owns no slabs to transfer")
            }
            ArenaError::NoRoomToCompact { class, live, free_elsewhere } => write!(
                f,
                "class {class} cannot compact: {live} live items but only \
                 {free_elsewhere} free slots elsewhere"
            ),
        }
    }
}

impl std::error::Error for ArenaError {}

/// Arena-wide aggregate accounting, maintained incrementally (O(1)
/// reads) and re-derived from scratch by [`SlabArena::check`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slabs currently carved (each `slab_bytes` of backing memory).
    pub slabs: u64,
    /// Maximum slabs the arena may ever hold.
    pub max_slabs: u64,
    /// Size of one slab in bytes.
    pub slab_bytes: u64,
    /// Resident bytes: slab backing memory plus slot record arrays.
    pub resident_bytes: u64,
    /// Bytes spent on out-of-line slot records.
    pub meta_bytes: u64,
    /// Live items stored.
    pub live_items: u64,
    /// Exact `key + value` bytes of live items (bytes *requested*).
    pub live_item_bytes: u64,
    /// Slot-granular bytes occupied by live items (bytes *reserved*);
    /// `live_slot_bytes - live_item_bytes` is internal fragmentation.
    pub live_slot_bytes: u64,
    /// Free slots across all carved slabs.
    pub free_slots: u64,
    /// Completed slab transfers (class → class re-carves).
    pub transfers: u64,
    /// Items relocated by compaction during transfers.
    pub slot_moves: u64,
}

/// Per-class view of the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Class index.
    pub class: usize,
    /// Slot size of the class in bytes.
    pub slot_bytes: u64,
    /// Slabs assigned to the class.
    pub slabs: u64,
    /// Live slots in the class.
    pub live_slots: u64,
    /// Free slots in the class.
    pub free_slots: u64,
    /// Exact `key + value` bytes of the class's live items.
    pub live_bytes: u64,
}

/// Fill level of one slab, for occupancy reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabFill {
    /// Class the slab is carved for.
    pub class: usize,
    /// Live slots.
    pub live: u64,
    /// Total slots.
    pub capacity: u64,
}

/// The physical arena: a bounded set of slabs, each carved for one
/// size class. See the crate docs for the model.
pub struct SlabArena {
    slab_bytes: u64,
    min_slot: u64,
    max_slabs: usize,
    /// Bits of a node id that hold the slot index (enough for the
    /// smallest class's slots per slab); the slab id sits above them.
    slot_bits: u32,
    slabs: Vec<Slab>,
    classes: Vec<ClassLedger>,
    stats: ArenaStats,
}

impl SlabArena {
    /// Builds an empty arena with the config's geometry. No slab
    /// memory is allocated until [`grant_slab`](Self::grant_slab).
    ///
    /// # Panics
    /// Panics when the geometry has more slots than a `u32` node id
    /// can name (over 2^32 minimum-size slots).
    pub fn new(cfg: &CacheConfig) -> Self {
        let num_classes = cfg.num_classes();
        let max_slabs = cfg.total_slabs();
        let slot_bits = cfg.slots_per_slab(0).next_power_of_two().trailing_zeros();
        assert!(
            (max_slabs as u64) << slot_bits < u64::from(NIL),
            "{max_slabs} slabs of {} slots do not fit u32 node ids",
            cfg.slots_per_slab(0)
        );
        SlabArena {
            slab_bytes: cfg.slab_bytes,
            min_slot: cfg.min_slot,
            max_slabs,
            slot_bits,
            slabs: Vec::new(),
            classes: (0..num_classes).map(|_| ClassLedger::default()).collect(),
            stats: ArenaStats {
                max_slabs: max_slabs as u64,
                slab_bytes: cfg.slab_bytes,
                ..ArenaStats::default()
            },
        }
    }

    /// The node id of slot `r`: the one `u32` that names it in record
    /// links and queue handles.
    #[inline]
    pub fn node(&self, r: SlotRef) -> u32 {
        self.ids().node(r)
    }

    /// The slot a node id names (see [`node`](Self::node)).
    #[inline]
    pub fn slot_ref(&self, node: u32) -> SlotRef {
        self.ids().slot_ref(node)
    }

    /// The arena's node-id packing, detached from the arena, for use
    /// while the arena is borrowed (as in a transfer's `on_move`).
    #[inline]
    pub fn ids(&self) -> NodeIds {
        NodeIds { slot_bits: self.slot_bits }
    }

    /// Slot size of `class` in bytes.
    pub fn slot_bytes(&self, class: usize) -> u64 {
        self.min_slot << class
    }

    /// Slots per slab in `class`.
    pub fn slots_per_slab(&self, class: usize) -> usize {
        (self.slab_bytes / self.slot_bytes(class)) as usize
    }

    /// Number of size classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Slabs currently assigned to `class`.
    pub fn class_slabs(&self, class: usize) -> usize {
        self.classes.get(class).map_or(0, |c| c.slabs.len())
    }

    /// Free slots currently available in `class`.
    pub fn class_free_slots(&self, class: usize) -> usize {
        self.classes
            .get(class)
            .map_or(0, |c| c.slabs.iter().map(|&s| self.slabs[s as usize].free.len()).sum())
    }

    /// Arena-wide aggregates (O(1)).
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Per-class breakdown, including exact live bytes (walks the
    /// record arrays; intended for reporting, not the hot path).
    pub fn class_stats(&self) -> Vec<ClassStats> {
        (0..self.classes.len())
            .map(|class| {
                let ledger = &self.classes[class];
                let mut live_slots = 0u64;
                let mut free_slots = 0u64;
                let mut live_bytes = 0u64;
                for &sid in &ledger.slabs {
                    let slab = &self.slabs[sid as usize];
                    live_slots += u64::from(slab.live);
                    free_slots += slab.free.len() as u64;
                    live_bytes += slab
                        .meta
                        .iter()
                        .filter(|m| !m.is_free())
                        .map(|m| m.used() as u64)
                        .sum::<u64>();
                }
                ClassStats {
                    class,
                    slot_bytes: self.slot_bytes(class),
                    slabs: ledger.slabs.len() as u64,
                    live_slots,
                    free_slots,
                    live_bytes,
                }
            })
            .collect()
    }

    /// Fill level of every carved slab, for occupancy histograms.
    pub fn slab_fills(&self) -> Vec<SlabFill> {
        self.slabs
            .iter()
            .map(|s| SlabFill {
                class: s.class as usize,
                live: u64::from(s.live),
                capacity: s.meta.len() as u64,
            })
            .collect()
    }

    /// The live slots of every slab carved for `class`, for walks that
    /// check each item is reached exactly once.
    pub fn live_slots(&self, class: usize) -> impl Iterator<Item = SlotRef> + '_ {
        self.classes[class].slabs.iter().flat_map(move |&slab| {
            let meta = &self.slabs[slab as usize].meta;
            (0..meta.len() as u32)
                .filter(move |&slot| !meta[slot as usize].is_free())
                .map(move |slot| SlotRef { slab, slot })
        })
    }

    /// Carves a fresh slab for `class`. Mirrors the policy ledger's
    /// `grant_slab` / `StoredWithNewSlab` transitions.
    pub fn grant_slab(&mut self, class: usize) -> Result<u32, ArenaError> {
        if class >= self.classes.len() {
            return Err(ArenaError::BadClass { class });
        }
        if self.slabs.len() >= self.max_slabs {
            return Err(ArenaError::NoCapacity { max_slabs: self.max_slabs });
        }
        let sid = self.slabs.len() as u32;
        let slots = self.slots_per_slab(class);
        let slab = Slab {
            class: class as u32,
            data: vec![0u8; self.slab_bytes as usize].into_boxed_slice(),
            meta: vec![Record::EMPTY; slots].into_boxed_slice(),
            free: (0..slots as u32).rev().collect(),
            live: 0,
            in_open: true,
        };
        let meta_bytes = (slots * std::mem::size_of::<Record>()) as u64;
        self.stats.slabs += 1;
        self.stats.resident_bytes += self.slab_bytes + meta_bytes;
        self.stats.meta_bytes += meta_bytes;
        self.stats.free_slots += slots as u64;
        self.slabs.push(slab);
        self.classes[class].slabs.push(sid);
        self.classes[class].open.push(sid);
        Ok(sid)
    }

    /// Takes a free slot of `class` for an item described by `rec`,
    /// which is stored unlinked and untagged, and returns its handle.
    /// The slot's bytes are the caller's to [`write`](Self::write).
    /// Fails if the item cannot fit the class's slots or the class has
    /// no free slot (the caller must evict or grant first — the arena
    /// never grows itself).
    pub fn alloc(&mut self, class: usize, rec: Record) -> Result<SlotRef, ArenaError> {
        if class >= self.classes.len() {
            return Err(ArenaError::BadClass { class });
        }
        let slot_bytes = self.slot_bytes(class) as usize;
        let needed = rec.used();
        if needed > slot_bytes {
            return Err(ArenaError::ItemTooLarge { class, needed, slot_bytes });
        }
        let r = self.alloc_slot(class).ok_or(ArenaError::NoFreeSlot { class })?;
        self.slabs[r.slab as usize].meta[r.slot as usize] =
            Record { prev: NIL, next: NIL, tag: 0, ..rec };
        self.stats.live_items += 1;
        self.stats.live_item_bytes += needed as u64;
        self.stats.live_slot_bytes += slot_bytes as u64;
        Ok(r)
    }

    /// Writes `key ‖ value` into the live slot `r`, setting its
    /// record's lengths; the rest of the record is left alone.
    pub fn write(&mut self, r: SlotRef, key: &[u8], value: &[u8]) -> Result<(), ArenaError> {
        if key.len() > MAX_KEY_LEN {
            return Err(ArenaError::KeyTooLong { len: key.len() });
        }
        let class = self.live_class(r)?;
        let slot_bytes = self.slot_bytes(class) as usize;
        let needed = key.len() + value.len();
        if needed > slot_bytes {
            return Err(ArenaError::ItemTooLarge { class, needed, slot_bytes });
        }
        let slab = &mut self.slabs[r.slab as usize];
        let rec = &mut slab.meta[r.slot as usize];
        self.stats.live_item_bytes =
            self.stats.live_item_bytes - rec.used() as u64 + needed as u64;
        rec.key_len = key.len() as u16;
        rec.val_len = value.len() as u32;
        let off = r.slot as usize * slot_bytes;
        slab.data[off..off + key.len()].copy_from_slice(key);
        slab.data[off + key.len()..off + needed].copy_from_slice(value);
        Ok(())
    }

    /// Sets the lengths of the live slot `r`'s item ahead of a
    /// [`write`](Self::write) of that many bytes, so that the record
    /// describes the item from the moment the policy files it.
    pub fn resize(
        &mut self,
        r: SlotRef,
        key_len: usize,
        val_len: usize,
    ) -> Result<(), ArenaError> {
        let class = self.live_class(r)?;
        let needed = key_len + val_len;
        let slot_bytes = self.slot_bytes(class) as usize;
        if needed > slot_bytes {
            return Err(ArenaError::ItemTooLarge { class, needed, slot_bytes });
        }
        let key_len =
            u16::try_from(key_len).map_err(|_| ArenaError::KeyTooLong { len: key_len })?;
        let rec = &mut self.slabs[r.slab as usize].meta[r.slot as usize];
        self.stats.live_item_bytes =
            self.stats.live_item_bytes - rec.used() as u64 + needed as u64;
        rec.key_len = key_len;
        rec.val_len = val_len as u32;
        Ok(())
    }

    /// The class of the slab holding the live slot `r`.
    fn live_class(&self, r: SlotRef) -> Result<usize, ArenaError> {
        let slab = self.slabs.get(r.slab as usize).ok_or(ArenaError::BadSlot { at: r })?;
        match slab.meta.get(r.slot as usize) {
            Some(m) if !m.is_free() => Ok(slab.class as usize),
            _ => Err(ArenaError::BadSlot { at: r }),
        }
    }

    /// The record and `(key, value)` stored at `r`, or `None` when the
    /// handle is stale. Safe under a shared lock: reading never
    /// mutates the ledger.
    #[inline]
    pub fn read(&self, r: SlotRef) -> Option<(&Record, &[u8], &[u8])> {
        let slab = self.slabs.get(r.slab as usize)?;
        let rec = slab.meta.get(r.slot as usize)?;
        if rec.is_free() {
            return None;
        }
        let slot_bytes = self.slot_bytes(slab.class as usize) as usize;
        let off = r.slot as usize * slot_bytes;
        let key_end = off + rec.key_len();
        let val_end = key_end + rec.val_len();
        Some((rec, &slab.data[off..key_end], &slab.data[key_end..val_end]))
    }

    /// The record of the live slot `r`.
    #[inline]
    pub fn record(&self, r: SlotRef) -> Option<&Record> {
        self.any_record(r).filter(|m| !m.is_free())
    }

    /// The record at `r`, live or free; `None` past the carved slabs.
    #[inline]
    fn any_record(&self, r: SlotRef) -> Option<&Record> {
        self.slabs.get(r.slab as usize)?.meta.get(r.slot as usize)
    }

    /// The record of the live slot `r`, for its owner fields.
    #[inline]
    pub fn record_mut(&mut self, r: SlotRef) -> Option<&mut Record> {
        self.slabs
            .get_mut(r.slab as usize)?
            .meta
            .get_mut(r.slot as usize)
            .filter(|m| !m.is_free())
    }

    /// Asks the CPU to start loading slot `r`'s record, which the
    /// caller is about to read. Only a hint: it changes nothing, and a
    /// stale or out-of-range handle is ignored.
    #[inline]
    pub fn prefetch(&self, r: SlotRef) {
        if let Some(rec) = self.any_record(r) {
            prefetch_record(rec);
        }
    }

    /// [`prefetch`](Self::prefetch) for the records of slot `r`'s queue
    /// neighbours, which moving `r` within its queue relinks. Reads
    /// `r`'s own record for their ids, so it pays best a few steps after
    /// a `prefetch(r)`.
    #[inline]
    pub fn prefetch_neighbours(&self, r: SlotRef) {
        if let Some(rec) = self.any_record(r) {
            for n in [rec.prev, rec.next] {
                if n != NIL {
                    self.prefetch(self.slot_ref(n));
                }
            }
        }
    }

    /// The class that the slab holding `r` is carved for, read from
    /// the slab header that [`read`](Self::read) touches too; `None`
    /// for a slab the arena never carved. The answer holds for every
    /// live slot of the slab.
    #[inline]
    pub fn slab_class(&self, r: SlotRef) -> Option<usize> {
        self.slabs.get(r.slab as usize).map(|s| s.class as usize)
    }

    /// Frees the slot at `r`, returning its record. The item must be
    /// unlinked already: the record's links are dropped with it.
    pub fn free(&mut self, r: SlotRef) -> Result<Record, ArenaError> {
        let slot_bytes = self.slot_bytes(self.live_class(r)?);
        let slab = &mut self.slabs[r.slab as usize];
        let rec = std::mem::replace(&mut slab.meta[r.slot as usize], Record::EMPTY);
        slab.free.push(r.slot);
        slab.live -= 1;
        self.stats.live_items -= 1;
        self.stats.live_item_bytes -= rec.used() as u64;
        self.stats.live_slot_bytes -= slot_bytes;
        self.stats.free_slots += 1;
        if !slab.in_open {
            slab.in_open = true;
            self.classes[slab.class as usize].open.push(r.slab);
        }
        Ok(rec)
    }

    /// Moves one slab from `src` to `dst`, compacting first: the
    /// emptiest `src` slab is chosen as the victim, its live items are
    /// consolidated into the class's other slabs, and the emptied slab
    /// is re-carved with `dst`'s slot size. Each moved item's record
    /// moves whole, links and tag included, and its queue neighbours'
    /// links are repointed at the new slot; then `on_move(&record, old,
    /// new)` fires so the caller can repoint its index and its queue's
    /// ends. Moves are made in ascending order of the old slot.
    ///
    /// Mirrors the policy ledger's `migrate_slab`: the caller must
    /// already have evicted enough `src` items (the policy reclaims
    /// `slots_per_slab` worth) that the victim's survivors fit in the
    /// rest of the class, or the transfer is refused.
    pub fn transfer_slab(
        &mut self,
        src: usize,
        dst: usize,
        mut on_move: impl FnMut(&Record, SlotRef, SlotRef),
    ) -> Result<u32, ArenaError> {
        if src >= self.classes.len() {
            return Err(ArenaError::BadClass { class: src });
        }
        if dst >= self.classes.len() {
            return Err(ArenaError::BadClass { class: dst });
        }
        // Victim: the emptiest slab of the source class.
        let victim = *self.classes[src]
            .slabs
            .iter()
            .min_by_key(|&&s| self.slabs[s as usize].live)
            .ok_or(ArenaError::EmptyClass { class: src })?;
        let live = self.slabs[victim as usize].live as usize;
        let free_elsewhere: usize = self.classes[src]
            .slabs
            .iter()
            .filter(|&&s| s != victim)
            .map(|&s| self.slabs[s as usize].free.len())
            .sum();
        if live > free_elsewhere {
            return Err(ArenaError::NoRoomToCompact { class: src, live, free_elsewhere });
        }

        // Detach the victim from the source class so compaction can
        // never pick it as a destination.
        self.classes[src].slabs.retain(|&s| s != victim);
        self.classes[src].open.retain(|&s| s != victim);
        let old_free = {
            let slab = &mut self.slabs[victim as usize];
            slab.in_open = false;
            std::mem::take(&mut slab.free).len()
        };
        self.stats.free_slots -= old_free as u64;

        // Consolidate survivors into the rest of the class.
        let src_slot_bytes = self.slot_bytes(src) as usize;
        let mut moved = 0u64;
        for slot in 0..self.slabs[victim as usize].meta.len() as u32 {
            let rec = self.slabs[victim as usize].meta[slot as usize];
            if rec.is_free() {
                continue;
            }
            let old = SlotRef { slab: victim, slot };
            // Feasibility was checked above; alloc_slot cannot fail.
            let new = self
                .alloc_slot(src)
                .expect("compaction room was verified before detaching the victim");
            debug_assert_ne!(new.slab, victim);
            let used = rec.used();
            let (from, to) = two_slabs(&mut self.slabs, victim, new.slab);
            let src_off = old.slot as usize * src_slot_bytes;
            let dst_off = new.slot as usize * src_slot_bytes;
            to.data[dst_off..dst_off + used]
                .copy_from_slice(&from.data[src_off..src_off + used]);
            to.meta[new.slot as usize] = rec;
            from.meta[slot as usize] = Record::EMPTY;
            from.live -= 1;
            // The neighbours follow the record to its new slot.
            let id = self.node(new);
            if rec.prev != NIL {
                self.set_next(rec.prev, id);
            }
            if rec.next != NIL {
                self.set_prev(rec.next, id);
            }
            moved += 1;
            on_move(&rec, old, new);
        }
        debug_assert_eq!(self.slabs[victim as usize].live, 0);

        // Re-carve the empty slab for the destination class.
        let old_meta_bytes =
            (self.slabs[victim as usize].meta.len() * std::mem::size_of::<Record>()) as u64;
        let slots = self.slots_per_slab(dst);
        let new_meta_bytes = (slots * std::mem::size_of::<Record>()) as u64;
        {
            let slab = &mut self.slabs[victim as usize];
            slab.class = dst as u32;
            slab.meta = vec![Record::EMPTY; slots].into_boxed_slice();
            slab.free = (0..slots as u32).rev().collect();
            slab.live = 0;
            slab.in_open = true;
        }
        self.classes[dst].slabs.push(victim);
        self.classes[dst].open.push(victim);
        self.stats.free_slots += slots as u64;
        self.stats.meta_bytes = self.stats.meta_bytes - old_meta_bytes + new_meta_bytes;
        self.stats.resident_bytes = self.stats.resident_bytes - old_meta_bytes + new_meta_bytes;
        self.stats.transfers += 1;
        self.stats.slot_moves += moved;
        Ok(victim)
    }

    /// Pops a free slot in `class`, maintaining the open list.
    fn alloc_slot(&mut self, class: usize) -> Option<SlotRef> {
        loop {
            let &sid = self.classes[class].open.last()?;
            let slab = &mut self.slabs[sid as usize];
            debug_assert!(slab.in_open);
            match slab.free.pop() {
                Some(slot) => {
                    slab.live += 1;
                    if slab.free.is_empty() {
                        slab.in_open = false;
                        self.classes[class].open.pop();
                    }
                    self.stats.free_slots -= 1;
                    return Some(SlotRef { slab: sid, slot });
                }
                None => {
                    // Defensive: an exhausted slab left on the open
                    // list is dropped and the scan continues.
                    slab.in_open = false;
                    self.classes[class].open.pop();
                }
            }
        }
    }

    /// The record of node `n`, which must name a carved slot.
    #[inline]
    fn rec(&self, n: u32) -> &Record {
        let r = self.slot_ref(n);
        &self.slabs[r.slab as usize].meta[r.slot as usize]
    }

    #[inline]
    fn rec_mut(&mut self, n: u32) -> &mut Record {
        let r = self.slot_ref(n);
        &mut self.slabs[r.slab as usize].meta[r.slot as usize]
    }

    /// Full-recount invariant check: the ledger, free lists, open
    /// lists and aggregate stats must all agree. O(slots); meant for
    /// tests and `check_consistency`, not the hot path.
    pub fn check(&self) -> Result<(), String> {
        if self.slabs.len() > self.max_slabs {
            return Err(format!(
                "{} slabs carved, budget is {}",
                self.slabs.len(),
                self.max_slabs
            ));
        }
        let mut owner = vec![None; self.slabs.len()];
        for (class, ledger) in self.classes.iter().enumerate() {
            for &sid in &ledger.slabs {
                let s = sid as usize;
                if s >= self.slabs.len() {
                    return Err(format!("class {class} lists unknown slab {sid}"));
                }
                if self.slabs[s].class as usize != class {
                    return Err(format!(
                        "slab {sid} is carved for class {} but listed under {class}",
                        self.slabs[s].class
                    ));
                }
                if owner[s].replace(class).is_some() {
                    return Err(format!("slab {sid} appears in two class ledgers"));
                }
            }
            for &sid in &ledger.open {
                if !self.slabs[sid as usize].in_open {
                    return Err(format!("slab {sid} on open list without flag"));
                }
                if !ledger.slabs.contains(&sid) {
                    return Err(format!("open slab {sid} not owned by class {class}"));
                }
            }
        }
        if let Some(orphan) = owner.iter().position(|o| o.is_none()) {
            return Err(format!("slab {orphan} belongs to no class"));
        }
        let mut agg = ArenaStats {
            slabs: self.slabs.len() as u64,
            max_slabs: self.max_slabs as u64,
            slab_bytes: self.slab_bytes,
            transfers: self.stats.transfers,
            slot_moves: self.stats.slot_moves,
            ..ArenaStats::default()
        };
        for (sid, slab) in self.slabs.iter().enumerate() {
            let class = slab.class as usize;
            let capacity = self.slots_per_slab(class);
            let slot_bytes = self.slot_bytes(class);
            if slab.meta.len() != capacity {
                return Err(format!(
                    "slab {sid}: {} meta entries, class {class} holds {capacity}",
                    slab.meta.len()
                ));
            }
            let mut seen = vec![false; capacity];
            for &f in &slab.free {
                let fi = f as usize;
                if fi >= capacity || seen[fi] {
                    return Err(format!("slab {sid}: bad free-list entry {f}"));
                }
                seen[fi] = true;
                if slab.meta[fi] != Record::EMPTY {
                    return Err(format!("slab {sid}: slot {f} free but has a record"));
                }
            }
            let live = slab.meta.iter().filter(|m| !m.is_free()).count();
            if live + slab.free.len() != capacity {
                return Err(format!(
                    "slab {sid}: {live} live + {} free != capacity {capacity}",
                    slab.free.len()
                ));
            }
            if live != slab.live as usize {
                return Err(format!(
                    "slab {sid}: live count {} but {live} live slots",
                    slab.live
                ));
            }
            if !slab.free.is_empty() && !slab.in_open {
                return Err(format!("slab {sid}: free slots but not on open list"));
            }
            if slab.in_open && !self.classes[class].open.contains(&(sid as u32)) {
                return Err(format!("slab {sid}: flagged open but not listed"));
            }
            for (i, m) in slab.meta.iter().enumerate() {
                if m.is_free() {
                    continue;
                }
                let used = m.used() as u64;
                if used > slot_bytes {
                    return Err(format!(
                        "slab {sid} slot {i}: {used} bytes in a {slot_bytes}-byte slot"
                    ));
                }
                agg.live_items += 1;
                agg.live_item_bytes += used;
                agg.live_slot_bytes += slot_bytes;
            }
            agg.free_slots += slab.free.len() as u64;
            let meta_bytes = (capacity * std::mem::size_of::<Record>()) as u64;
            agg.meta_bytes += meta_bytes;
            agg.resident_bytes += self.slab_bytes + meta_bytes;
        }
        if agg != self.stats {
            return Err(format!(
                "aggregate stats drifted: recount {agg:?} vs maintained {:?}",
                self.stats
            ));
        }
        Ok(())
    }
}

/// Record links: node ids ([`SlabArena::node`]) name slots, and each
/// slot's record holds its item's queue links and tag.
impl Links for SlabArena {
    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.rec(n).prev
    }
    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.rec(n).next
    }
    #[inline]
    fn set_prev(&mut self, n: u32, to: u32) {
        self.rec_mut(n).prev = to;
    }
    #[inline]
    fn set_next(&mut self, n: u32, to: u32) {
        self.rec_mut(n).next = to;
    }
    #[inline]
    fn tag(&self, n: u32) -> u8 {
        self.rec(n).tag
    }
    #[inline]
    fn set_tag(&mut self, n: u32, tag: u8) {
        self.rec_mut(n).tag = tag;
    }
    fn clear_tag(&mut self, n: u32) {
        let r = self.slot_ref(n);
        if let Some(rec) =
            self.slabs.get_mut(r.slab as usize).and_then(|s| s.meta.get_mut(r.slot as usize))
        {
            rec.tag = 0;
        }
    }
    fn is_live(&self, n: u32) -> bool {
        self.record(self.slot_ref(n)).is_some()
    }
}

/// Asks the CPU to load the cache lines `rec` spans (a 48 B record may
/// straddle two); a no-op off x86_64.
#[inline]
fn prefetch_record(rec: &Record) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = (rec as *const Record).cast::<i8>();
        let last = first.wrapping_add(std::mem::size_of::<Record>() - 1);
        // SAFETY: a prefetch only hints the cache: it never faults,
        // reads into the program or writes, and both addresses lie
        // within `rec`.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(first);
            _mm_prefetch::<_MM_HINT_T0>(last);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = rec;
}

/// Split-borrows two distinct slabs.
fn two_slabs(slabs: &mut [Slab], a: u32, b: u32) -> (&mut Slab, &mut Slab) {
    let (a, b) = (a as usize, b as usize);
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = slabs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = slabs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(total: u64, slab: u64) -> CacheConfig {
        CacheConfig {
            total_bytes: total,
            slab_bytes: slab,
            min_slot: 64,
            ..CacheConfig::default()
        }
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    /// Writes `key ‖ value` into a free slot of `class` under `hash`.
    fn insert(
        a: &mut SlabArena,
        class: usize,
        hash: u64,
        key: &[u8],
        value: &[u8],
    ) -> Result<SlotRef, ArenaError> {
        let r = a.alloc(class, Record::new(hash, key.len(), value.len()))?;
        a.write(r, key, value)?;
        Ok(r)
    }

    #[test]
    fn grant_insert_read_roundtrip() {
        let mut a = SlabArena::new(&cfg(1 << 20, 1 << 16));
        a.grant_slab(0).unwrap();
        let r = insert(&mut a, 0, 42, b"hello", b"world").unwrap();
        let (rec, k, v) = a.read(r).unwrap();
        assert_eq!((k, v), (&b"hello"[..], &b"world"[..]));
        assert_eq!((rec.hash, rec.key_len(), rec.val_len()), (42, 5, 5));
        assert_eq!(a.record(r), Some(rec));
        assert_eq!(a.slab_class(r), Some(0));
        assert_eq!(a.slab_class(SlotRef { slab: 9, slot: 0 }), None);
        let st = a.stats();
        assert_eq!(st.live_items, 1);
        assert_eq!(st.live_item_bytes, 10);
        assert_eq!(st.live_slot_bytes, 64);
        assert_eq!(st.free_slots, (1 << 16) / 64 - 1);
        a.check().unwrap();
    }

    #[test]
    fn insert_without_slab_or_room_is_refused() {
        let mut a = SlabArena::new(&cfg(1 << 20, 1 << 16));
        assert_eq!(insert(&mut a, 0, 1, b"k", b"v"), Err(ArenaError::NoFreeSlot { class: 0 }));
        a.grant_slab(3).unwrap();
        // Class 3 slots are 512 B; a 600-byte value cannot fit.
        let big = vec![0u8; 600];
        assert!(matches!(
            insert(&mut a, 3, 1, b"k", &big),
            Err(ArenaError::ItemTooLarge { class: 3, .. })
        ));
        a.check().unwrap();
    }

    #[test]
    fn slab_budget_is_enforced() {
        let mut a = SlabArena::new(&cfg(2 << 16, 1 << 16));
        a.grant_slab(0).unwrap();
        a.grant_slab(1).unwrap();
        assert_eq!(a.grant_slab(0), Err(ArenaError::NoCapacity { max_slabs: 2 }));
    }

    #[test]
    fn remove_recycles_slots() {
        let mut a = SlabArena::new(&cfg(1 << 16, 1 << 16));
        a.grant_slab(4).unwrap();
        let slots = a.slots_per_slab(4);
        let mut refs = Vec::new();
        for i in 0..slots as u32 {
            refs.push(insert(&mut a, 4, u64::from(i), &key(i), b"v").unwrap());
        }
        assert_eq!(
            insert(&mut a, 4, 999, b"k", b"v"),
            Err(ArenaError::NoFreeSlot { class: 4 })
        );
        let rec = a.free(refs[3]).unwrap();
        assert_eq!((rec.key_len(), rec.val_len()), (12, 1));
        assert_eq!(a.read(refs[3]), None);
        assert!(a.free(refs[3]).is_err());
        let r = insert(&mut a, 4, 999, b"k", b"v").unwrap();
        assert_eq!(a.read(r).unwrap().1, b"k");
        a.check().unwrap();
    }

    #[test]
    fn transfer_compacts_and_recarves() {
        use std::collections::HashMap;
        let mut a = SlabArena::new(&cfg(4 << 16, 1 << 16));
        a.grant_slab(0).unwrap();
        a.grant_slab(0).unwrap();
        let per = a.slots_per_slab(0);
        // Fill both slabs, then thin one out so it becomes the
        // compaction victim with a few survivors.
        let mut index: HashMap<u64, SlotRef> = HashMap::new();
        for i in 0..(2 * per) as u32 {
            let h = u64::from(i);
            index.insert(h, insert(&mut a, 0, h, &key(i), b"v").unwrap());
        }
        let victim_slab = index[&0].slab;
        // Free every victim-slab item except three, plus a couple from
        // the other slab so compaction has room.
        let mut kept_in_victim = 0;
        let mut freed_elsewhere = 0;
        let mut all: Vec<u64> = index.keys().copied().collect();
        all.sort_unstable();
        for h in all {
            let r = index[&h];
            if r.slab == victim_slab {
                if kept_in_victim < 3 {
                    kept_in_victim += 1;
                    continue;
                }
            } else {
                if freed_elsewhere >= 5 {
                    continue;
                }
                freed_elsewhere += 1;
            }
            a.free(r).unwrap();
            index.remove(&h);
        }
        assert_eq!((kept_in_victim, freed_elsewhere), (3, 5));
        let mut moves = 0;
        let freed = a
            .transfer_slab(0, 2, |rec, old, new| {
                assert_eq!(index[&rec.hash], old);
                index.insert(rec.hash, new);
                moves += 1;
            })
            .unwrap();
        assert_eq!(freed, victim_slab);
        assert_eq!(moves, 3);
        assert_eq!(a.class_slabs(0), 1);
        assert_eq!(a.class_slabs(2), 1);
        assert_eq!(a.class_free_slots(2), a.slots_per_slab(2));
        let st = a.stats();
        assert_eq!(st.transfers, 1);
        assert_eq!(st.slot_moves, 3);
        // Every surviving item is still readable through its handle.
        for (&h, &r) in &index {
            let (_, k, _) = a.read(r).unwrap();
            assert_eq!(k, key(h as u32).as_slice());
        }
        // The re-carved slab accepts items of its new class.
        let big = vec![7u8; 200];
        let r = insert(&mut a, 2, 10_000, b"bigkey", &big).unwrap();
        assert_eq!(r.slab, victim_slab);
        assert_eq!(a.read(r).unwrap().2, big.as_slice());
        a.check().unwrap();
    }

    #[test]
    fn transfer_refuses_without_room() {
        let mut a = SlabArena::new(&cfg(2 << 16, 1 << 16));
        a.grant_slab(0).unwrap();
        let per = a.slots_per_slab(0);
        for i in 0..per as u32 {
            insert(&mut a, 0, u64::from(i), &key(i), b"v").unwrap();
        }
        // One fully live slab, nowhere to compact to.
        assert!(matches!(
            a.transfer_slab(0, 1, |_, _, _| {}),
            Err(ArenaError::NoRoomToCompact { class: 0, .. })
        ));
        // An empty victim transfers without any moves.
        for i in 0..per as u32 {
            a.free(SlotRef { slab: 0, slot: i }).unwrap();
        }
        a.transfer_slab(0, 1, |_, _, _| panic!("no items should move")).unwrap();
        assert_eq!(a.class_slabs(1), 1);
        a.check().unwrap();
    }

    #[test]
    fn transfer_moves_records_whole_and_relinks_their_queue() {
        use pama_core::lru::{NodeRef, Queue};
        let mut a = SlabArena::new(&cfg(4 << 16, 1 << 16));
        a.grant_slab(0).unwrap();
        a.grant_slab(0).unwrap();
        let per = a.slots_per_slab(0);
        // One queue over every slot of both slabs, front to back in
        // insertion order, record i tagged i % 7.
        let mut q = Queue::new();
        let mut slots = Vec::new();
        for i in 0..(2 * per) as u32 {
            let r = insert(&mut a, 0, u64::from(i), &key(i), b"v").unwrap();
            let n = NodeRef::new(a.node(r));
            q.push_back(&mut a, n);
            a.set_tag(n.index(), (i % 7) as u8);
            slots.push(r);
        }
        // Thin out the first slab (the victim) to its head, one middle
        // item and its last item, and the second slab by as many.
        let victim = slots[0].slab;
        let keep = [0, per / 2, per - 1];
        for (i, &r) in slots.iter().enumerate() {
            let free = if r.slab == victim { !keep.contains(&i) } else { i < per + 3 };
            if free {
                let n = NodeRef::new(a.node(r));
                q.remove(&mut a, n);
                a.free(r).unwrap();
            }
        }
        let order = |a: &SlabArena, q: &Queue| -> Vec<(u64, u8)> {
            q.iter(a)
                .map(|n| (a.record(a.slot_ref(n.index())).unwrap().hash, a.tag(n.index())))
                .collect()
        };
        let before = order(&a, &q);
        assert_eq!(before[0].0, 0, "the queue head is in the victim slab");
        let mut moves = Vec::new();
        a.transfer_slab(0, 1, |_, old, new| moves.push((old, new))).unwrap();
        assert_eq!(moves.len(), 3);
        assert!(moves.windows(2).all(|w| w[0].0.slot < w[1].0.slot), "moves in slot order");
        for &(old, new) in &moves {
            q.relocated(NodeRef::new(a.node(old)), NodeRef::new(a.node(new)));
        }
        q.check_invariants(&a).unwrap();
        assert_eq!(order(&a, &q), before, "order and tags survive the move");
        a.check().unwrap();
    }
}
