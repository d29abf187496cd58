//! # pama-slab — physical slab-arena storage
//!
//! The paper's allocation scheme reasons about where fixed-size (1 MB)
//! **slabs of physical memory** should live; `pama-core` models that
//! decision problem with exact slot *counts*. This crate supplies the
//! matching physical substrate for the `pama-kv` store: real slabs of
//! bytes, carved into per-class slots of `min_slot · 2^class` bytes
//! (the same geometry as [`CacheConfig`]), with **slot handles**
//! ([`SlotRef`] = `(slab_id, slot_idx)`) that an index maps keys to,
//! each also packed into one `u32` node id ([`NodeIds`]).
//!
//! Each slot is described twice, by two stores kept apart so that each
//! can sit behind its own lock:
//!
//! * the **data half** ([`SlabArena`]) holds what a reader needs: every
//!   slab's bytes and, per slot, a **data record** ([`Record`], 28
//!   bytes, out of line) with the item's lengths, expiry, flags, CAS
//!   stamp and band. A slot is live while its record is;
//! * the **policy half** ([`Nodes`]) holds what an allocation policy
//!   needs: the **slab ledger** — every slab belongs to exactly one size
//!   class, and each class keeps **free-slot lists** for O(1) allocate
//!   and free — and, per slot, a **policy node** ([`Node`], 24 bytes)
//!   with the item's key hash, penalty and band, and the `prev`/`next`
//!   node ids and segment tag of the LRU queue the item is linked into.
//!   The node store is therefore a [`Links`] store: a policy's queues
//!   link slot nodes directly.
//!
//! The policy half decides which slot an item takes and which slab a
//! class gives up; the owner then carries out the same step on the data
//! half: [`Nodes::grant`] then [`SlabArena::carve`], [`Nodes::alloc`]
//! then [`SlabArena::write`], [`Nodes::free`] then [`SlabArena::free`].
//! A **transfer** — the policy migrating a slab from class *a* to class
//! *b* — picks class *a*'s emptiest slab, moves its live nodes into free
//! slots of the class's other slabs ([`Nodes::transfer`]), and reports
//! each move so the owner moves the slot's bytes and record with it
//! ([`SlabArena::move_slot`]) and repoints its index; both halves then
//! re-carve the emptied slab with class *b*'s slot size.
//!
//! The arena stores `key ‖ value` contiguously in the slot, so an item
//! of `key + value ≤ slot_bytes` always fits and a reader can verify
//! the key without touching the index.
//!
//! Neither half decides *placement policy*: they will not grow a class,
//! steal a slab, or evict an item on their own. Slab residency changes
//! only through [`Nodes::grant`] and [`Nodes::transfer`], which the kv
//! layer drives from the PAMA policy's decisions — keeping the physical
//! ledger in lockstep with the simulated one.

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

/// What one carved slot costs in records, live or free: its data
/// [`Record`] in the arena and its policy [`Node`] in the [`Nodes`]
/// that mirror the arena. The arena's `meta_bytes` counts both.
pub const SLOT_META_BYTES: usize = std::mem::size_of::<Record>() + std::mem::size_of::<Node>();

/// Handle to a slot: which slab, and which slot within it.
///
/// Handles are dense (8 bytes) so an index can store one per entry.
/// A handle is invalidated by a free and *re-pointed* (via the
/// `on_move` callback) by [`Nodes::transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRef {
    /// Index of the slab in the arena ledger.
    pub slab: u32,
    /// Slot index within the slab (`0..slots_per_slab(class)`).
    pub slot: u32,
}

/// How a geometry packs a [`SlotRef`] into one `u32` node id: the slab
/// id above enough bits for the most slots a slab can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeIds {
    slot_bits: u32,
}

impl NodeIds {
    /// The packing for the geometry `cfg`.
    ///
    /// # Panics
    /// Panics when the geometry has more slots than a `u32` node id
    /// can name (over 2^32 minimum-size slots).
    pub fn new(cfg: &CacheConfig) -> Self {
        let slot_bits = cfg.slots_per_slab(0).next_power_of_two().trailing_zeros();
        assert!(
            (cfg.total_slabs() as u64) << slot_bits < u64::from(NIL),
            "{} slabs of {} slots do not fit u32 node ids",
            cfg.total_slabs(),
            cfg.slots_per_slab(0)
        );
        Self { slot_bits }
    }

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

/// The slab geometry both halves share.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    slab_bytes: u64,
    min_slot: u64,
    num_classes: usize,
    max_slabs: usize,
}

impl Geometry {
    fn new(cfg: &CacheConfig) -> Self {
        Self {
            slab_bytes: cfg.slab_bytes,
            min_slot: cfg.min_slot,
            num_classes: cfg.num_classes(),
            max_slabs: cfg.total_slabs(),
        }
    }

    fn slot_bytes(self, class: usize) -> u64 {
        self.min_slot << class
    }

    fn slots_per_slab(self, class: usize) -> usize {
        (self.slab_bytes / self.slot_bytes(class)) as usize
    }

    fn check_class(self, class: usize) -> Result<(), ArenaError> {
        if class < self.num_classes {
            Ok(())
        } else {
            Err(ArenaError::BadClass { class })
        }
    }
}

/// A `u64` stored as two `u32` halves, so that a record packs to 4-byte
/// alignment.
fn halves(x: u64) -> [u32; 2] {
    [x as u32, (x >> 32) as u32]
}

fn whole([lo, hi]: [u32; 2]) -> u64 {
    u64::from(hi) << 32 | u64::from(lo)
}

/// One slot's out-of-line data record: everything a reader of the slot
/// needs besides its bytes. The owner writes the expiry, flags, CAS
/// stamp and band; the lengths follow the bytes ([`SlabArena::write`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    expires: [u32; 2],
    cas: [u32; 2],
    /// Value length, or [`FREE`] when the slot holds no item.
    val_len: u32,
    /// The owner's opaque flags.
    pub flags: u32,
    key_len: u16,
    /// The penalty band the item is filed under, for a reader's
    /// per-band counts.
    pub band: u8,
}

// Every slot of every carved slab costs one record, live or free.
const _: () = assert!(std::mem::size_of::<Record>() <= 28);

impl Record {
    const EMPTY: Record =
        Record { expires: [0; 2], cas: [0; 2], val_len: FREE, flags: 0, key_len: 0, band: 0 };

    fn is_free(&self) -> bool {
        self.val_len == FREE
    }

    /// The owner's expiry stamp.
    #[inline]
    pub fn expires(&self) -> u64 {
        whole(self.expires)
    }

    /// Sets the owner's expiry stamp.
    #[inline]
    pub fn set_expires(&mut self, at: u64) {
        self.expires = halves(at);
    }

    /// The owner's compare-and-swap stamp.
    #[inline]
    pub fn cas(&self) -> u64 {
        whole(self.cas)
    }

    /// Sets the owner's compare-and-swap stamp.
    #[inline]
    pub fn set_cas(&mut self, cas: u64) {
        self.cas = halves(cas);
    }

    /// Key length in bytes.
    pub fn key_len(&self) -> usize {
        self.key_len as usize
    }

    /// Value length in bytes.
    pub fn val_len(&self) -> usize {
        self.val_len as usize
    }

    /// Key and value bytes of a live record; 0 for a free one.
    fn used(&self) -> usize {
        if self.is_free() {
            0
        } else {
            self.key_len() + self.val_len()
        }
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
    /// Number of live records.
    live: u32,
}

/// Why a slab operation was refused. Both halves are deliberately
/// strict: every error here means the *caller* diverged from the policy
/// ledger, so `pama-kv` treats them as invariant violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// A grant would exceed the configured slab budget
    /// (`total_bytes / slab_bytes`).
    NoCapacity {
        /// The configured maximum number of slabs.
        max_slabs: usize,
    },
    /// The class index is out of range.
    BadClass {
        /// Offending class index.
        class: usize,
    },
    /// [`Nodes::alloc`] found no free slot in the class. The policy
    /// ledger should have evicted or granted first.
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
    /// A [`SlotRef`] does not name a slot in the state the call needs.
    BadSlot {
        /// The offending handle.
        at: SlotRef,
    },
    /// [`Nodes::transfer`] from a class with no slabs.
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
                write!(f, "slot ({}, {}) is not in the state the call needs", at.slab, at.slot)
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
    /// Resident bytes: slab backing memory plus slot records.
    pub resident_bytes: u64,
    /// Bytes spent on out-of-line slot records: [`SLOT_META_BYTES`]
    /// per carved slot.
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

/// Per-class view of the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Class index.
    pub class: usize,
    /// Slot size of the class in bytes.
    pub slot_bytes: u64,
    /// Slabs carved for the class.
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

/// The data half: a bounded set of slabs, each carved for one size
/// class, with one data record per slot. See the crate docs for the
/// model; [`Nodes`] decides which slots and slabs each step uses.
pub struct SlabArena {
    geo: Geometry,
    slabs: Vec<Slab>,
    stats: ArenaStats,
}

impl SlabArena {
    /// Builds an empty arena with the config's geometry. No slab
    /// memory is allocated until [`carve`](Self::carve).
    pub fn new(cfg: &CacheConfig) -> Self {
        let geo = Geometry::new(cfg);
        SlabArena {
            geo,
            slabs: Vec::new(),
            stats: ArenaStats {
                max_slabs: geo.max_slabs as u64,
                slab_bytes: geo.slab_bytes,
                ..ArenaStats::default()
            },
        }
    }

    /// Slot size of `class` in bytes.
    pub fn slot_bytes(&self, class: usize) -> u64 {
        self.geo.slot_bytes(class)
    }

    /// Slots per slab in `class`.
    pub fn slots_per_slab(&self, class: usize) -> usize {
        self.geo.slots_per_slab(class)
    }

    /// Number of size classes.
    pub fn num_classes(&self) -> usize {
        self.geo.num_classes
    }

    /// Arena-wide aggregates (O(1)).
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Per-class breakdown, including exact live bytes (walks the
    /// record arrays; intended for reporting, not the hot path).
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let mut out: Vec<ClassStats> = (0..self.geo.num_classes)
            .map(|class| ClassStats {
                class,
                slot_bytes: self.slot_bytes(class),
                slabs: 0,
                live_slots: 0,
                free_slots: 0,
                live_bytes: 0,
            })
            .collect();
        for slab in &self.slabs {
            let cs = &mut out[slab.class as usize];
            cs.slabs += 1;
            cs.live_slots += u64::from(slab.live);
            cs.free_slots += slab.meta.len() as u64 - u64::from(slab.live);
            cs.live_bytes += slab.meta.iter().map(|m| m.used() as u64).sum::<u64>();
        }
        out
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
        self.slabs.iter().enumerate().filter(move |(_, s)| s.class as usize == class).flat_map(
            |(slab, s)| {
                let slab = slab as u32;
                (0..s.meta.len() as u32)
                    .filter(move |&slot| !s.meta[slot as usize].is_free())
                    .map(move |slot| SlotRef { slab, slot })
            },
        )
    }

    /// Carves slab `slab` for `class`, every slot free: the next slab
    /// id, for a grant, or a slab the arena holds already whose records
    /// are all free, for the end of a transfer (counted as one).
    pub fn carve(&mut self, slab: u32, class: usize) -> Result<(), ArenaError> {
        self.geo.check_class(class)?;
        let slots = self.slots_per_slab(class);
        let meta_bytes = (slots * SLOT_META_BYTES) as u64;
        let meta = vec![Record::EMPTY; slots].into_boxed_slice();
        match self.slabs.get_mut(slab as usize) {
            Some(old) => {
                if old.live != 0 {
                    return Err(ArenaError::BadSlot { at: SlotRef { slab, slot: 0 } });
                }
                let old_slots = old.meta.len() as u64;
                let old_meta_bytes = old_slots * SLOT_META_BYTES as u64;
                old.class = class as u32;
                old.meta = meta;
                self.stats.free_slots = self.stats.free_slots - old_slots + slots as u64;
                self.stats.meta_bytes = self.stats.meta_bytes - old_meta_bytes + meta_bytes;
                self.stats.resident_bytes =
                    self.stats.resident_bytes - old_meta_bytes + meta_bytes;
                self.stats.transfers += 1;
            }
            None => {
                if slab as usize != self.slabs.len() {
                    return Err(ArenaError::BadSlot { at: SlotRef { slab, slot: 0 } });
                }
                if self.slabs.len() >= self.geo.max_slabs {
                    return Err(ArenaError::NoCapacity { max_slabs: self.geo.max_slabs });
                }
                self.slabs.push(Slab {
                    class: class as u32,
                    data: vec![0u8; self.geo.slab_bytes as usize].into_boxed_slice(),
                    meta,
                    live: 0,
                });
                self.stats.slabs += 1;
                self.stats.resident_bytes += self.geo.slab_bytes + meta_bytes;
                self.stats.meta_bytes += meta_bytes;
                self.stats.free_slots += slots as u64;
            }
        }
        Ok(())
    }

    /// Writes `key ‖ value` into the carved slot `r`, which becomes
    /// live if it was free, and sets its record's lengths; the rest of
    /// the record is left alone (all zero in a slot that was free).
    pub fn write(&mut self, r: SlotRef, key: &[u8], value: &[u8]) -> Result<(), ArenaError> {
        if key.len() > MAX_KEY_LEN {
            return Err(ArenaError::KeyTooLong { len: key.len() });
        }
        let slab = self.slabs.get_mut(r.slab as usize).ok_or(ArenaError::BadSlot { at: r })?;
        let class = slab.class as usize;
        let slot_bytes = self.geo.slot_bytes(class) as usize;
        let needed = key.len() + value.len();
        if needed > slot_bytes {
            return Err(ArenaError::ItemTooLarge { class, needed, slot_bytes });
        }
        let rec = slab.meta.get_mut(r.slot as usize).ok_or(ArenaError::BadSlot { at: r })?;
        if rec.is_free() {
            *rec = Record { val_len: 0, ..Record::EMPTY };
            slab.live += 1;
            self.stats.live_items += 1;
            self.stats.live_slot_bytes += slot_bytes as u64;
            self.stats.free_slots -= 1;
        }
        self.stats.live_item_bytes =
            self.stats.live_item_bytes - rec.used() as u64 + needed as u64;
        rec.key_len = key.len() as u16;
        rec.val_len = value.len() as u32;
        let off = r.slot as usize * slot_bytes;
        slab.data[off..off + key.len()].copy_from_slice(key);
        slab.data[off + key.len()..off + needed].copy_from_slice(value);
        Ok(())
    }

    /// The record and `(key, value)` stored at `r`, or `None` when the
    /// slot holds no item. Safe under a shared lock: reading never
    /// mutates the arena.
    #[inline]
    pub fn read(&self, r: SlotRef) -> Option<(&Record, &[u8], &[u8])> {
        let slab = self.slabs.get(r.slab as usize)?;
        let rec = slab.meta.get(r.slot as usize)?;
        if rec.is_free() {
            return None;
        }
        let slot_bytes = self.geo.slot_bytes(slab.class as usize) as usize;
        let off = r.slot as usize * slot_bytes;
        let key_end = off + rec.key_len();
        let val_end = key_end + rec.val_len();
        Some((rec, &slab.data[off..key_end], &slab.data[key_end..val_end]))
    }

    /// The record of the live slot `r`.
    #[inline]
    pub fn record(&self, r: SlotRef) -> Option<&Record> {
        self.slabs.get(r.slab as usize)?.meta.get(r.slot as usize).filter(|m| !m.is_free())
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

    /// The class that the slab holding `r` is carved for, read from
    /// the slab header that [`read`](Self::read) touches too; `None`
    /// for a slab the arena never carved. The answer holds for every
    /// slot of the slab.
    #[inline]
    pub fn slab_class(&self, r: SlotRef) -> Option<usize> {
        self.slabs.get(r.slab as usize).map(|s| s.class as usize)
    }

    /// Frees the live slot at `r`, returning its record.
    pub fn free(&mut self, r: SlotRef) -> Result<Record, ArenaError> {
        let slab = self.slabs.get_mut(r.slab as usize).ok_or(ArenaError::BadSlot { at: r })?;
        let slot_bytes = self.geo.slot_bytes(slab.class as usize);
        let rec = slab.meta.get_mut(r.slot as usize).ok_or(ArenaError::BadSlot { at: r })?;
        if rec.is_free() {
            return Err(ArenaError::BadSlot { at: r });
        }
        let rec = std::mem::replace(rec, Record::EMPTY);
        slab.live -= 1;
        self.stats.live_items -= 1;
        self.stats.live_item_bytes -= rec.used() as u64;
        self.stats.live_slot_bytes -= slot_bytes;
        self.stats.free_slots += 1;
        Ok(rec)
    }

    /// Moves the item at the live slot `old` — its bytes and its record
    /// — to the free slot `new` of another slab of the same class: one
    /// compaction step of a transfer, made where [`Nodes::transfer`]
    /// moves the item's node.
    pub fn move_slot(&mut self, old: SlotRef, new: SlotRef) -> Result<(), ArenaError> {
        let same_class =
            self.slab_class(old).is_some() && self.slab_class(old) == self.slab_class(new);
        if old.slab == new.slab || !same_class || self.record(old).is_none() {
            return Err(ArenaError::BadSlot { at: old });
        }
        if self.slabs[new.slab as usize]
            .meta
            .get(new.slot as usize)
            .is_none_or(|m| !m.is_free())
        {
            return Err(ArenaError::BadSlot { at: new });
        }
        let slot_bytes =
            self.geo.slot_bytes(self.slabs[old.slab as usize].class as usize) as usize;
        let (from, to) = two_slabs(&mut self.slabs, old.slab, new.slab);
        let rec = std::mem::replace(&mut from.meta[old.slot as usize], Record::EMPTY);
        let used = rec.used();
        let (src, dst) = (old.slot as usize * slot_bytes, new.slot as usize * slot_bytes);
        to.data[dst..dst + used].copy_from_slice(&from.data[src..src + used]);
        to.meta[new.slot as usize] = rec;
        from.live -= 1;
        to.live += 1;
        self.stats.slot_moves += 1;
        Ok(())
    }

    /// Full-recount invariant check: every slab's record array matches
    /// its class, its live count its live records, and the aggregate
    /// stats the records. O(slots); meant for tests and
    /// `check_consistency`, not the hot path.
    pub fn check(&self) -> Result<(), String> {
        if self.slabs.len() > self.geo.max_slabs {
            return Err(format!(
                "{} slabs carved, budget is {}",
                self.slabs.len(),
                self.geo.max_slabs
            ));
        }
        let mut agg = ArenaStats {
            slabs: self.slabs.len() as u64,
            max_slabs: self.geo.max_slabs as u64,
            slab_bytes: self.geo.slab_bytes,
            transfers: self.stats.transfers,
            slot_moves: self.stats.slot_moves,
            ..ArenaStats::default()
        };
        for (sid, slab) in self.slabs.iter().enumerate() {
            let class = slab.class as usize;
            if class >= self.geo.num_classes {
                return Err(format!("slab {sid} is carved for unknown class {class}"));
            }
            let capacity = self.slots_per_slab(class);
            let slot_bytes = self.slot_bytes(class);
            if slab.meta.len() != capacity {
                return Err(format!(
                    "slab {sid}: {} records, class {class} holds {capacity}",
                    slab.meta.len()
                ));
            }
            let mut live = 0;
            for (i, m) in slab.meta.iter().enumerate() {
                if m.is_free() {
                    if *m != Record::EMPTY {
                        return Err(format!("slab {sid}: slot {i} free but has a record"));
                    }
                    continue;
                }
                let used = m.used() as u64;
                if used > slot_bytes {
                    return Err(format!(
                        "slab {sid} slot {i}: {used} bytes in a {slot_bytes}-byte slot"
                    ));
                }
                live += 1;
                agg.live_item_bytes += used;
                agg.live_slot_bytes += slot_bytes;
            }
            if live != slab.live {
                return Err(format!(
                    "slab {sid}: live count {} but {live} live slots",
                    slab.live
                ));
            }
            agg.live_items += u64::from(live);
            agg.free_slots += (capacity - live as usize) as u64;
            let meta_bytes = (capacity * SLOT_META_BYTES) as u64;
            agg.meta_bytes += meta_bytes;
            agg.resident_bytes += self.geo.slab_bytes + meta_bytes;
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

/// One slot's policy node: everything an allocation policy keeps about
/// the item in the slot — its key hash, penalty and band, and the links
/// and tag of the LRU queue it is linked into. The owner writes the
/// public fields; the links and tag are the queue's, reached through
/// [`Links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The item's key hash.
    pub hash: u64,
    /// Node id of the next item toward the queue front, or [`NIL`].
    prev: u32,
    /// Node id of the next item toward the queue back, or [`NIL`].
    next: u32,
    /// The item's miss penalty in microseconds.
    pub penalty_us: u32,
    /// The penalty band (subclass queue) the item is filed under.
    pub band: u8,
    /// The queue owner's tag (the segment tracker's).
    tag: u8,
    /// Whether the slot holds an item.
    live: bool,
}

// Every slot of every carved slab costs one node, live or free.
const _: () = assert!(std::mem::size_of::<Node>() <= 24);

impl Node {
    const EMPTY: Node =
        Node { hash: 0, prev: NIL, next: NIL, penalty_us: 0, band: 0, tag: 0, live: false };

    /// A live node for an item under `hash`, unlinked and untagged.
    pub fn new(hash: u64, penalty_us: u32, band: u8) -> Self {
        Node { hash, penalty_us, band, live: true, ..Node::EMPTY }
    }
}

/// One slab's nodes and free-slot stack.
struct NodeSlab {
    /// Size class this slab is carved for.
    class: u32,
    /// Per-slot nodes, `slots_per_slab(class)` long.
    nodes: Box<[Node]>,
    /// Free slot indices (stack).
    free: Vec<u32>,
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

/// The policy half of a slab arena: the slab ledger — which class each
/// slab is carved for, and each class's free slots — and one policy
/// node per slot of every carved slab, under the same slab ids and node
/// ids as the [`SlabArena`] it mirrors. The policy links and reads
/// nodes without the arena; the owner carries each grant, allocation,
/// free and transfer over to the arena (see the crate docs).
pub struct Nodes {
    geo: Geometry,
    ids: NodeIds,
    slabs: Vec<NodeSlab>,
    classes: Vec<ClassLedger>,
}

impl Nodes {
    /// An empty ledger for the geometry `cfg`.
    ///
    /// # Panics
    /// Panics when the geometry has more slots than a `u32` node id
    /// can name.
    pub fn new(cfg: &CacheConfig) -> Self {
        let geo = Geometry::new(cfg);
        Self {
            geo,
            ids: NodeIds::new(cfg),
            slabs: Vec::new(),
            classes: (0..geo.num_classes).map(|_| ClassLedger::default()).collect(),
        }
    }

    /// The node-id packing: the one `u32` that names each slot in node
    /// links and queue handles.
    #[inline]
    pub fn ids(&self) -> NodeIds {
        self.ids
    }

    /// Slabs currently assigned to `class`.
    pub fn class_slabs(&self, class: usize) -> usize {
        self.classes.get(class).map_or(0, |c| c.slabs.len())
    }

    /// The class that slab `r.slab` is carved for; `None` for a slab
    /// never carved.
    #[inline]
    pub fn slab_class(&self, r: SlotRef) -> Option<usize> {
        self.slabs.get(r.slab as usize).map(|s| s.class as usize)
    }

    /// Slots in slab `r.slab` as carved now; 0 for a slab never carved.
    pub fn slots_in_slab(&self, r: SlotRef) -> usize {
        self.slabs.get(r.slab as usize).map_or(0, |s| s.nodes.len())
    }

    /// A slab carved for `class` with every slot free.
    fn carved(&self, class: usize) -> NodeSlab {
        let slots = self.geo.slots_per_slab(class);
        NodeSlab {
            class: class as u32,
            nodes: vec![Node::EMPTY; slots].into_boxed_slice(),
            free: (0..slots as u32).rev().collect(),
            in_open: true,
        }
    }

    /// Carves a fresh slab for `class` and returns its id, the next
    /// unused one, which the owner carves in the arena too. Mirrors the
    /// policy ledger's `grant_slab` / `StoredWithNewSlab` transitions.
    pub fn grant(&mut self, class: usize) -> Result<u32, ArenaError> {
        self.geo.check_class(class)?;
        if self.slabs.len() >= self.geo.max_slabs {
            return Err(ArenaError::NoCapacity { max_slabs: self.geo.max_slabs });
        }
        let sid = self.slabs.len() as u32;
        self.slabs.push(self.carved(class));
        self.classes[class].slabs.push(sid);
        self.classes[class].open.push(sid);
        Ok(sid)
    }

    /// Takes a free slot of `class` for `node`, stored unlinked and
    /// untagged, and returns the slot, whose record and bytes the owner
    /// writes in the arena. Fails when the class has no free slot (the
    /// caller must evict or grant first — the ledger never grows itself).
    pub fn alloc(&mut self, class: usize, node: Node) -> Result<SlotRef, ArenaError> {
        self.geo.check_class(class)?;
        let r = self.alloc_slot(class).ok_or(ArenaError::NoFreeSlot { class })?;
        self.slabs[r.slab as usize].nodes[r.slot as usize] =
            Node { prev: NIL, next: NIL, tag: 0, live: true, ..node };
        Ok(r)
    }

    /// Pops a free slot in `class`, maintaining the open list.
    fn alloc_slot(&mut self, class: usize) -> Option<SlotRef> {
        loop {
            let &sid = self.classes[class].open.last()?;
            let slab = &mut self.slabs[sid as usize];
            debug_assert!(slab.in_open);
            match slab.free.pop() {
                Some(slot) => {
                    if slab.free.is_empty() {
                        slab.in_open = false;
                        self.classes[class].open.pop();
                    }
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

    /// Frees the live node at `r`, returning it; its slot returns to
    /// its class's free slots. The node must be unlinked already: its
    /// links are dropped with it.
    ///
    /// # Panics
    /// Panics when `r` names no live node.
    pub fn free(&mut self, r: SlotRef) -> Node {
        let slab = &mut self.slabs[r.slab as usize];
        let at = &mut slab.nodes[r.slot as usize];
        assert!(at.live, "free of a dead node at {r:?}");
        let node = std::mem::replace(at, Node::EMPTY);
        slab.free.push(r.slot);
        if !slab.in_open {
            slab.in_open = true;
            self.classes[slab.class as usize].open.push(r.slab);
        }
        node
    }

    /// The live node at `r`.
    #[inline]
    pub fn get(&self, r: SlotRef) -> Option<&Node> {
        self.any(r).filter(|n| n.live)
    }

    /// The live node at `r`, for its owner fields.
    #[inline]
    pub fn get_mut(&mut self, r: SlotRef) -> Option<&mut Node> {
        self.slabs.get_mut(r.slab as usize)?.nodes.get_mut(r.slot as usize).filter(|n| n.live)
    }

    /// The node at `r`, live or free; `None` past the carved slabs.
    #[inline]
    fn any(&self, r: SlotRef) -> Option<&Node> {
        self.slabs.get(r.slab as usize)?.nodes.get(r.slot as usize)
    }

    /// Moves one slab from `src` to `dst`, compacting first: the
    /// emptiest `src` slab is chosen as the victim, its live nodes move
    /// into free slots of the class's other slabs, and the emptied slab
    /// is re-carved with `dst`'s slot size. Each moved node moves whole,
    /// links and tag included, and its queue neighbours are repointed at
    /// its new slot; then `on_move(&node, old, new)` fires so the owner
    /// can move the slot's bytes and record ([`SlabArena::move_slot`])
    /// and repoint its index and its queue's ends. Moves are made in
    /// ascending order of the old slot. Returns the re-carved slab's id,
    /// which the owner re-carves in the arena too.
    ///
    /// Mirrors the policy ledger's `migrate_slab`: the caller must
    /// already have evicted enough `src` items (the policy reclaims
    /// `slots_per_slab` worth) that the victim's survivors fit in the
    /// rest of the class, or the transfer is refused.
    pub fn transfer(
        &mut self,
        src: usize,
        dst: usize,
        mut on_move: impl FnMut(&Node, SlotRef, SlotRef),
    ) -> Result<u32, ArenaError> {
        self.geo.check_class(src)?;
        self.geo.check_class(dst)?;
        let capacity = self.geo.slots_per_slab(src);
        let live = |s: &NodeSlab| capacity - s.free.len();
        // Victim: the emptiest slab of the source class.
        let victim = *self.classes[src]
            .slabs
            .iter()
            .min_by_key(|&&s| live(&self.slabs[s as usize]))
            .ok_or(ArenaError::EmptyClass { class: src })?;
        let survivors = live(&self.slabs[victim as usize]);
        let free_elsewhere: usize = self.classes[src]
            .slabs
            .iter()
            .filter(|&&s| s != victim)
            .map(|&s| self.slabs[s as usize].free.len())
            .sum();
        if survivors > free_elsewhere {
            return Err(ArenaError::NoRoomToCompact {
                class: src,
                live: survivors,
                free_elsewhere,
            });
        }
        // Detach the victim from the source class so compaction can
        // never pick it as a destination.
        self.classes[src].slabs.retain(|&s| s != victim);
        self.classes[src].open.retain(|&s| s != victim);
        for slot in 0..capacity as u32 {
            let old = SlotRef { slab: victim, slot };
            if self.get(old).is_none() {
                continue;
            }
            // Feasibility was checked above; alloc_slot cannot fail.
            let new = self
                .alloc_slot(src)
                .expect("compaction room was verified before detaching the victim");
            let node = self.relocate(old, new);
            on_move(&node, old, new);
        }
        self.slabs[victim as usize] = self.carved(dst);
        self.classes[dst].slabs.push(victim);
        self.classes[dst].open.push(victim);
        Ok(victim)
    }

    /// Moves the live node at `old` to the free slot `new`, links and
    /// tag included, and repoints its queue neighbours at `new`.
    fn relocate(&mut self, old: SlotRef, new: SlotRef) -> Node {
        let node = std::mem::replace(
            &mut self.slabs[old.slab as usize].nodes[old.slot as usize],
            Node::EMPTY,
        );
        self.slabs[new.slab as usize].nodes[new.slot as usize] = node;
        let id = self.ids.node(new);
        if node.prev != NIL {
            self.set_next(node.prev, id);
        }
        if node.next != NIL {
            self.set_prev(node.next, id);
        }
        node
    }

    /// The node of `n`, which must name a carved slot.
    #[inline]
    fn at(&self, n: u32) -> &Node {
        let r = self.ids.slot_ref(n);
        &self.slabs[r.slab as usize].nodes[r.slot as usize]
    }

    #[inline]
    fn at_mut(&mut self, n: u32) -> &mut Node {
        let r = self.ids.slot_ref(n);
        &mut self.slabs[r.slab as usize].nodes[r.slot as usize]
    }

    /// Asks the CPU to start loading slot `r`'s node, which the caller
    /// is about to read. Only a hint: it changes nothing, and a stale
    /// or out-of-range handle is ignored.
    #[inline]
    pub fn prefetch(&self, r: SlotRef) {
        if let Some(node) = self.any(r) {
            prefetch(node);
        }
    }

    /// [`prefetch`](Self::prefetch) for the nodes of slot `r`'s queue
    /// neighbours, which moving `r` within its queue relinks. Reads
    /// `r`'s own node for their ids, so it pays best a few steps after
    /// a `prefetch(r)`.
    #[inline]
    pub fn prefetch_neighbours(&self, r: SlotRef) {
        if let Some(node) = self.any(r) {
            for n in [node.prev, node.next] {
                if n != NIL {
                    self.prefetch(self.ids.slot_ref(n));
                }
            }
        }
    }

    /// Full-recount invariant check of the ledger: every slab belongs
    /// to exactly one class, the open lists hold exactly the slabs with
    /// free slots, and each slab's free stack names exactly its free
    /// nodes. O(slots); meant for tests and `check_consistency`.
    pub fn check(&self) -> Result<(), String> {
        let mut owner = vec![None; self.slabs.len()];
        for (class, ledger) in self.classes.iter().enumerate() {
            for &sid in &ledger.slabs {
                let Some(slab) = self.slabs.get(sid as usize) else {
                    return Err(format!("class {class} lists unknown slab {sid}"));
                };
                if slab.class as usize != class {
                    return Err(format!(
                        "slab {sid} is carved for class {} but listed under {class}",
                        slab.class
                    ));
                }
                if owner[sid as usize].replace(class).is_some() {
                    return Err(format!("slab {sid} appears in two class ledgers"));
                }
            }
            for &sid in &ledger.open {
                if !self.slabs[sid as usize].in_open || !ledger.slabs.contains(&sid) {
                    return Err(format!("open slab {sid} not flagged or not owned by {class}"));
                }
            }
        }
        if let Some(orphan) = owner.iter().position(|o| o.is_none()) {
            return Err(format!("slab {orphan} belongs to no class"));
        }
        for (sid, slab) in self.slabs.iter().enumerate() {
            let capacity = self.geo.slots_per_slab(slab.class as usize);
            if slab.nodes.len() != capacity {
                return Err(format!(
                    "slab {sid}: {} nodes, its class holds {capacity}",
                    slab.nodes.len()
                ));
            }
            let mut listed = vec![false; capacity];
            for &f in &slab.free {
                let fi = f as usize;
                if fi >= capacity || std::mem::replace(&mut listed[fi], true) {
                    return Err(format!("slab {sid}: bad free-list entry {f}"));
                }
                if slab.nodes[fi] != Node::EMPTY {
                    return Err(format!("slab {sid}: slot {f} free but has a node"));
                }
            }
            if let Some(i) = (0..capacity).find(|&i| !listed[i] && !slab.nodes[i].live) {
                return Err(format!("slab {sid}: slot {i} neither live nor free"));
            }
            if slab.in_open == slab.free.is_empty()
                || slab.in_open
                    != self.classes[slab.class as usize].open.contains(&(sid as u32))
            {
                return Err(format!("slab {sid}: open flag and open list disagree"));
            }
        }
        Ok(())
    }
}

/// Node links: node ids ([`NodeIds`]) name slots, and each slot's node
/// holds its item's queue links and tag.
impl Links for Nodes {
    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.at(n).prev
    }
    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.at(n).next
    }
    #[inline]
    fn set_prev(&mut self, n: u32, to: u32) {
        self.at_mut(n).prev = to;
    }
    #[inline]
    fn set_next(&mut self, n: u32, to: u32) {
        self.at_mut(n).next = to;
    }
    #[inline]
    fn tag(&self, n: u32) -> u8 {
        self.at(n).tag
    }
    #[inline]
    fn set_tag(&mut self, n: u32, tag: u8) {
        self.at_mut(n).tag = tag;
    }
    fn clear_tag(&mut self, n: u32) {
        let r = self.ids.slot_ref(n);
        if let Some(node) =
            self.slabs.get_mut(r.slab as usize).and_then(|s| s.nodes.get_mut(r.slot as usize))
        {
            node.tag = 0;
        }
    }
    #[inline]
    fn is_live(&self, n: u32) -> bool {
        self.get(self.ids.slot_ref(n)).is_some()
    }
}

/// Asks the CPU to load the cache lines `x` spans (a node may straddle
/// two); a no-op off x86_64.
#[inline]
fn prefetch<T>(x: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = (x as *const T).cast::<i8>();
        let last = first.wrapping_add(std::mem::size_of::<T>() - 1);
        // SAFETY: a prefetch only hints the cache: it never faults,
        // reads into the program or writes, and both addresses lie
        // within `x`.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(first);
            _mm_prefetch::<_MM_HINT_T0>(last);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = x;
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

    /// Both halves of one geometry, driven as an owner drives them.
    struct Pair {
        arena: SlabArena,
        nodes: Nodes,
    }

    impl Pair {
        fn new(cfg: &CacheConfig) -> Self {
            Self { arena: SlabArena::new(cfg), nodes: Nodes::new(cfg) }
        }

        fn grant(&mut self, class: usize) -> Result<u32, ArenaError> {
            let sid = self.nodes.grant(class)?;
            self.arena.carve(sid, class)?;
            Ok(sid)
        }

        /// Stores `key ‖ value` under `hash` in a free slot of `class`.
        fn insert(
            &mut self,
            class: usize,
            hash: u64,
            key: &[u8],
            value: &[u8],
        ) -> Result<SlotRef, ArenaError> {
            let slot_bytes = self.arena.slot_bytes(class) as usize;
            let needed = key.len() + value.len();
            if needed > slot_bytes {
                return Err(ArenaError::ItemTooLarge { class, needed, slot_bytes });
            }
            let r = self.nodes.alloc(class, Node::new(hash, 0, 0))?;
            self.arena.write(r, key, value)?;
            Ok(r)
        }

        fn remove(&mut self, r: SlotRef) -> Result<Record, ArenaError> {
            self.nodes.free(r);
            self.arena.free(r)
        }

        fn transfer(
            &mut self,
            src: usize,
            dst: usize,
            mut on_move: impl FnMut(&Node, SlotRef, SlotRef),
        ) -> Result<u32, ArenaError> {
            let arena = &mut self.arena;
            let sid = self.nodes.transfer(src, dst, |node, old, new| {
                arena.move_slot(old, new).expect("a compaction step");
                on_move(node, old, new);
            })?;
            arena.carve(sid, dst)?;
            Ok(sid)
        }

        fn check(&self) {
            self.arena.check().unwrap();
            self.nodes.check().unwrap();
        }
    }

    #[test]
    fn grant_insert_read_roundtrip() {
        let mut p = Pair::new(&cfg(1 << 20, 1 << 16));
        p.grant(0).unwrap();
        let r = p.insert(0, 42, b"hello", b"world").unwrap();
        let (rec, k, v) = p.arena.read(r).unwrap();
        assert_eq!((k, v), (&b"hello"[..], &b"world"[..]));
        assert_eq!((rec.key_len(), rec.val_len()), (5, 5));
        assert_eq!(p.arena.record(r), Some(rec));
        assert_eq!(p.nodes.get(r).map(|n| n.hash), Some(42));
        assert_eq!(p.arena.slab_class(r), Some(0));
        assert_eq!(p.arena.slab_class(SlotRef { slab: 9, slot: 0 }), None);
        let st = p.arena.stats();
        assert_eq!(st.live_items, 1);
        assert_eq!(st.live_item_bytes, 10);
        assert_eq!(st.live_slot_bytes, 64);
        assert_eq!(st.free_slots, (1 << 16) / 64 - 1);
        p.check();
    }

    #[test]
    fn record_stamps_keep_all_64_bits() {
        let mut rec = Record { val_len: 1, ..Record::EMPTY };
        for x in [0, 1, u64::from(u32::MAX), 1 << 32, u64::MAX - 1, u64::MAX] {
            rec.set_expires(x);
            rec.set_cas(!x);
            assert_eq!((rec.expires(), rec.cas()), (x, !x));
        }
    }

    #[test]
    fn insert_without_slab_or_room_is_refused() {
        let mut p = Pair::new(&cfg(1 << 20, 1 << 16));
        assert_eq!(p.insert(0, 1, b"k", b"v"), Err(ArenaError::NoFreeSlot { class: 0 }));
        p.grant(3).unwrap();
        // Class 3 slots are 512 B; a 600-byte value cannot fit.
        let big = vec![0u8; 600];
        assert!(matches!(
            p.insert(3, 1, b"k", &big),
            Err(ArenaError::ItemTooLarge { class: 3, .. })
        ));
        let r = p.insert(3, 1, b"k", b"v").unwrap();
        assert!(matches!(p.arena.write(r, b"k", &big), Err(ArenaError::ItemTooLarge { .. })));
        p.check();
    }

    #[test]
    fn slab_budget_is_enforced() {
        let mut p = Pair::new(&cfg(2 << 16, 1 << 16));
        p.grant(0).unwrap();
        p.grant(1).unwrap();
        assert_eq!(p.grant(0), Err(ArenaError::NoCapacity { max_slabs: 2 }));
        assert_eq!(p.arena.carve(2, 0), Err(ArenaError::NoCapacity { max_slabs: 2 }));
    }

    #[test]
    fn remove_recycles_slots() {
        let mut p = Pair::new(&cfg(1 << 16, 1 << 16));
        p.grant(4).unwrap();
        let slots = p.arena.slots_per_slab(4);
        let mut refs = Vec::new();
        for i in 0..slots as u32 {
            refs.push(p.insert(4, u64::from(i), &key(i), b"v").unwrap());
        }
        assert_eq!(p.insert(4, 999, b"k", b"v"), Err(ArenaError::NoFreeSlot { class: 4 }));
        let rec = p.remove(refs[3]).unwrap();
        assert_eq!((rec.key_len(), rec.val_len()), (12, 1));
        assert_eq!(p.arena.read(refs[3]), None);
        assert!(p.arena.free(refs[3]).is_err());
        let r = p.insert(4, 999, b"k", b"v").unwrap();
        assert_eq!(r, refs[3], "the freed slot is reused");
        assert_eq!(p.arena.read(r).unwrap().1, b"k");
        p.check();
    }

    #[test]
    fn transfer_compacts_and_recarves() {
        use std::collections::HashMap;
        let mut p = Pair::new(&cfg(4 << 16, 1 << 16));
        p.grant(0).unwrap();
        p.grant(0).unwrap();
        let per = p.arena.slots_per_slab(0);
        // Fill both slabs, then thin one out so it becomes the
        // compaction victim with a few survivors.
        let mut index: HashMap<u64, SlotRef> = HashMap::new();
        for i in 0..(2 * per) as u32 {
            let h = u64::from(i);
            index.insert(h, p.insert(0, h, &key(i), b"v").unwrap());
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
            p.remove(r).unwrap();
            index.remove(&h);
        }
        assert_eq!((kept_in_victim, freed_elsewhere), (3, 5));
        let mut moves = 0;
        let freed = p
            .transfer(0, 2, |node, old, new| {
                assert_eq!(index[&node.hash], old);
                index.insert(node.hash, new);
                moves += 1;
            })
            .unwrap();
        assert_eq!(freed, victim_slab);
        assert_eq!(moves, 3);
        assert_eq!(p.nodes.class_slabs(0), 1);
        assert_eq!(p.nodes.class_slabs(2), 1);
        assert_eq!(p.arena.class_stats()[2].free_slots, p.arena.slots_per_slab(2) as u64);
        let st = p.arena.stats();
        assert_eq!(st.transfers, 1);
        assert_eq!(st.slot_moves, 3);
        // Every surviving item is still readable through its handle.
        for (&h, &r) in &index {
            let (_, k, _) = p.arena.read(r).unwrap();
            assert_eq!(k, key(h as u32).as_slice());
        }
        // The re-carved slab accepts items of its new class.
        let big = vec![7u8; 200];
        let r = p.insert(2, 10_000, b"bigkey", &big).unwrap();
        assert_eq!(r.slab, victim_slab);
        assert_eq!(p.arena.read(r).unwrap().2, big.as_slice());
        p.check();
    }

    #[test]
    fn transfer_refuses_without_room() {
        let mut p = Pair::new(&cfg(2 << 16, 1 << 16));
        p.grant(0).unwrap();
        let per = p.arena.slots_per_slab(0);
        let refs: Vec<SlotRef> = (0..per as u32)
            .map(|i| p.insert(0, u64::from(i), &key(i), b"v").unwrap())
            .collect();
        // One fully live slab, nowhere to compact to.
        assert!(matches!(
            p.transfer(0, 1, |_, _, _| {}),
            Err(ArenaError::NoRoomToCompact { class: 0, .. })
        ));
        // An empty victim transfers without any moves.
        for r in refs {
            p.remove(r).unwrap();
        }
        p.transfer(0, 1, |_, _, _| panic!("no items should move")).unwrap();
        assert_eq!(p.nodes.class_slabs(1), 1);
        p.check();
    }

    #[test]
    fn transfer_moves_records_whole_and_relinks_their_queue() {
        use pama_core::lru::{NodeRef, Queue};
        let mut p = Pair::new(&cfg(4 << 16, 1 << 16));
        p.grant(0).unwrap();
        p.grant(0).unwrap();
        let per = p.arena.slots_per_slab(0);
        let ids = p.nodes.ids();
        // One queue over every slot of both slabs, front to back in
        // insertion order, node i tagged i % 7.
        let mut q = Queue::new();
        let mut slots = Vec::new();
        for i in 0..(2 * per) as u32 {
            let r = p.insert(0, u64::from(i), &key(i), b"v").unwrap();
            let n = NodeRef::new(ids.node(r));
            q.push_back(&mut p.nodes, n);
            p.nodes.set_tag(n.index(), (i % 7) as u8);
            slots.push(r);
        }
        // Thin out the first slab (the victim) to its head, one middle
        // item and its last item, and the second slab by as many.
        let victim = slots[0].slab;
        let keep = [0, per / 2, per - 1];
        for (i, &r) in slots.iter().enumerate() {
            let free = if r.slab == victim { !keep.contains(&i) } else { i < per + 3 };
            if free {
                let n = NodeRef::new(ids.node(r));
                q.remove(&mut p.nodes, n);
                p.remove(r).unwrap();
            }
        }
        let order = |p: &Pair, q: &Queue| -> Vec<(u64, u8, Vec<u8>)> {
            q.iter(&p.nodes)
                .map(|n| {
                    let r = ids.slot_ref(n.index());
                    let key = p.arena.read(r).unwrap().1.to_vec();
                    (p.nodes.get(r).unwrap().hash, p.nodes.tag(n.index()), key)
                })
                .collect()
        };
        let before = order(&p, &q);
        assert_eq!(before[0].0, 0, "the queue head is in the victim slab");
        let mut moves = Vec::new();
        let recarved = p.transfer(0, 1, |_, old, new| moves.push((old, new))).unwrap();
        assert_eq!(moves.len(), 3);
        assert!(moves.windows(2).all(|w| w[0].0.slot < w[1].0.slot), "moves in slot order");
        for &(old, new) in &moves {
            q.relocated(NodeRef::new(ids.node(old)), NodeRef::new(ids.node(new)));
        }
        q.check_invariants(&p.nodes).unwrap();
        assert_eq!(order(&p, &q), before, "order, tags and bytes survive the move");
        let r = SlotRef { slab: recarved, slot: 0 };
        assert_eq!((p.nodes.slab_class(r), p.arena.slab_class(r)), (Some(1), Some(1)));
        assert_eq!(p.nodes.slots_in_slab(r), p.arena.slots_per_slab(1));
        p.check();
    }
}
