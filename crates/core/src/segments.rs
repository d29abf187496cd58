//! Segment-value tracking — the heart of PAMA (paper §III).
//!
//! Each subclass's LRU stack bottom is viewed as `m + 1` segments
//! (`S0` = the relocation-candidate slab, `S1..Sm` = reference
//! segments), and the ghost extension below the stack as another
//! `m + 1` segments (`G0` = the receiving segment). Over a value
//! window, the tracker accumulates each segment's value
//! `V_k = Σ T_i` — the summed miss penalties of the requests that hit
//! the segment (or a plain request count in pre-PAMA mode). The
//! decision quantities are the weighted blends of Eq. (2):
//!
//! ```text
//! outgoing = Σ_{i=0..m} V_stack[i] / 2^(i+1)
//! incoming = Σ_{i=0..m} V_ghost[i] / 2^(i+1)
//! ```
//!
//! Membership ("which segment does this key sit in?") follows the
//! paper's snapshot discipline for the **stack** side: segments are
//! snapshotted from the stacks at window boundaries; between
//! snapshots, accessed keys are marked removed. The **ghost** side
//! needs no filters at all: the ghost extension is an explicit ordered
//! record of evicted keys (paper: "this extended section only records
//! keys and miss penalties"), so a ghost's segment index is computed
//! exactly from its eviction recency by the policy, which calls
//! [`SubclassTracker::credit_ghost`] directly. (Crediting every
//! evictee to a filter-backed receiving segment instead lets that
//! segment's membership grow without bound between snapshots and
//! overestimates incoming value badly — measured as a big-item-class
//! slab-hoarding failure mode in the harness.)
//!
//! Two interchangeable stack-membership engines:
//!
//! * **exact** — node tags; the simulation default (no false
//!   positives, so measured PAMA behaviour is the algorithm's, not an
//!   artefact of filter noise). At each rebuild the tracker clears the
//!   tags it set last time and tags the bottom `(m + 1)·spslab` nodes
//!   of its LRU stack with their segment ([`Links::set_tag`], one byte
//!   in each node). A hit takes its node's tag and credits that
//!   segment. A tag leaves with a hit, and with its node on an
//!   eviction or removal; a node moved without a hit (an in-place
//!   update) keeps it, and so does a node a physical store relocates,
//!   whose new handle the tracker is told ([`SubclassTracker::relocate`]).
//!   A node is therefore tagged exactly while a per-subclass
//!   `key → segment` map filled at the rebuild would still hold its
//!   key, so the credits are that map's, with nothing hashed and
//!   nothing keyed per item. When several queues share one store, a
//!   tracker's old handles may name nodes of other queues by now, so
//!   the owner clears every tracker's tags
//!   ([`SubclassTracker::clear_tags`]) before any tracker tags anew;
//! * **bloom** — the paper's per-segment Bloom filters plus removal
//!   filter ([`pama_bloom::SegmentedMembership`]), keyed by the item's
//!   key, for fidelity runs and the space/accuracy ablation bench.
//!
//! Values decay by half at each rebuild, so a segment's value blends
//! the current window with an exponentially fading history — this is
//! the stabilisation the paper attributes to reference segments,
//! applied across windows as well. The tracker keeps the outgoing value
//! it last computed, refreshed whenever a stack value changes, so the
//! candidate scan on every evicting fill reads one float per subclass.

use crate::lru::{Links, NodeRef, Queue};
use pama_bloom::SegmentedMembership;

/// Membership engine selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MembershipMode {
    /// Exact membership by node tags (simulation default).
    Exact,
    /// The paper's Bloom-filter design with the given per-segment
    /// false-positive rate.
    Bloom {
        /// Target false-positive probability per segment filter.
        fpp: f64,
    },
}

#[derive(Debug, Clone)]
enum Membership {
    /// The nodes tagged at the last rebuild (segment `s` as tag
    /// `s + 1`; 0 is untagged), some since freed or reused, so that the
    /// next rebuild can clear every tag it set.
    Exact(Vec<NodeRef>),
    Bloom(SegmentedMembership),
}

/// Per-subclass segment-value tracker. See the module docs.
#[derive(Debug, Clone)]
pub struct SubclassTracker {
    m: usize,
    spslab: usize,
    stack_vals: Vec<f64>,
    ghost_vals: Vec<f64>,
    /// `weighted(&stack_vals)`, refreshed whenever `stack_vals` changes.
    outgoing: f64,
    stack_mem: Membership,
}

impl SubclassTracker {
    /// Creates a tracker with `m` reference segments of `spslab` items
    /// each (the slots of one slab; 0 is taken as 1), whose stack
    /// membership is kept by `mode`.
    ///
    /// # Panics
    /// Panics when `m + 1` segments do not fit a node tag (`m ≥ 255`).
    pub fn new(m: usize, spslab: usize, mode: MembershipMode) -> Self {
        assert!(m < usize::from(u8::MAX), "m = {m} reference segments do not fit a node tag");
        let segs = m + 1;
        let spslab = spslab.max(1);
        Self {
            m,
            spslab,
            stack_vals: vec![0.0; segs],
            ghost_vals: vec![0.0; segs],
            outgoing: 0.0,
            stack_mem: match mode {
                MembershipMode::Exact => Membership::Exact(Vec::new()),
                MembershipMode::Bloom { fpp } => {
                    Membership::Bloom(SegmentedMembership::new(segs, spslab, fpp))
                }
            },
        }
    }

    /// Number of reference segments.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Records a GET hit on `key`, whose node in this subclass's stack
    /// is `node`, in the store `links`. When the item sits in a tracked
    /// stack segment, that segment's value grows by `weight` and the
    /// item leaves the segment (it moved to the stack top). Returns the
    /// segment index hit, if any.
    pub fn on_hit(
        &mut self,
        links: &mut impl Links,
        node: NodeRef,
        key: u64,
        weight: f64,
    ) -> Option<usize> {
        let seg = match &mut self.stack_mem {
            Membership::Exact(_) => {
                // Most hits land above every tracked segment: leave
                // their untagged records unwritten.
                let seg = usize::from(links.tag(node.index())).checked_sub(1)?;
                links.set_tag(node.index(), 0);
                seg
            }
            Membership::Bloom(b) => {
                let seg = b.query(key)?;
                b.note_removed(key);
                seg
            }
        };
        self.stack_vals[seg] += weight;
        self.outgoing = weighted(&self.stack_vals);
        Some(seg)
    }

    /// Records a GET miss on a ghosted key: the policy computed the
    /// ghost segment index (from the key's eviction recency in the
    /// explicit ghost record) and the segment's value grows by
    /// `weight`. Indices beyond `m` are clamped into the last segment.
    pub fn credit_ghost(&mut self, seg: usize, weight: f64) {
        let seg = seg.min(self.m);
        self.ghost_vals[seg] += weight;
    }

    /// Records an eviction from this subclass: the key leaves the
    /// stack segments (the ghost side is the policy's explicit list).
    /// An exact tag leaves with the freed node, so only the Bloom
    /// engine has anything to do.
    pub fn on_evict(&mut self, key: u64) {
        self.on_remove(key);
    }

    /// Records a key removed from the subclass for reasons other than
    /// eviction (DELETE, or SET moving it to another class) — it must
    /// vanish from the stack membership without crediting anything.
    /// As with [`on_evict`](Self::on_evict), an exact tag leaves with
    /// the node.
    pub fn on_remove(&mut self, key: u64) {
        if let Membership::Bloom(b) = &mut self.stack_mem {
            b.note_removed(key);
        }
    }

    /// The candidate slab's **outgoing value** (Eq. 2).
    #[inline]
    pub fn outgoing(&self) -> f64 {
        self.outgoing
    }

    /// The subclass's **incoming value** (Eq. 2 over ghost segments).
    pub fn incoming(&self) -> f64 {
        weighted(&self.ghost_vals)
    }

    /// Raw per-segment stack values (diagnostics/tests).
    pub fn stack_values(&self) -> &[f64] {
        &self.stack_vals
    }

    /// Raw per-segment ghost values (diagnostics/tests).
    pub fn ghost_values(&self) -> &[f64] {
        &self.ghost_vals
    }

    /// Clears every tag this tracker set at its last rebuild, on nodes
    /// that may have been freed or reused since (exact engine only).
    pub fn clear_tags(&mut self, links: &mut impl Links) {
        if let Membership::Exact(tagged) = &mut self.stack_mem {
            for &r in tagged.iter() {
                links.clear_tag(r.index());
            }
            tagged.clear();
        }
    }

    /// A physical store moved nodes, tags included: each `(old, new)`
    /// pair in `moved`, which is sorted by `old`, repoints a handle this
    /// tracker holds, so that the next rebuild clears the tag where it
    /// now is.
    pub fn relocate(&mut self, moved: &[(NodeRef, NodeRef)]) {
        debug_assert!(moved.windows(2).all(|w| w[0].0 < w[1].0), "moves not sorted");
        if let Membership::Exact(tagged) = &mut self.stack_mem {
            for r in tagged.iter_mut() {
                if let Ok(i) = moved.binary_search_by_key(&*r, |&(old, _)| old) {
                    *r = moved[i].1;
                }
            }
        }
    }

    /// Window-boundary rebuild: clears this tracker's tags
    /// ([`clear_tags`](Self::clear_tags)), re-snapshots the stack
    /// membership from the bottom `(m + 1)·spslab` items of `queue`,
    /// whose nodes live in `links` (the first `spslab` from the bottom
    /// form segment 0, the candidate segment), reading each item's key
    /// with `key_of` for the Bloom engine, and halves all accumulated
    /// values, stack and ghost alike.
    pub fn rebuild<L: Links>(
        &mut self,
        queue: &Queue,
        links: &mut L,
        key_of: impl Fn(&L, NodeRef) -> u64,
    ) {
        self.clear_tags(links);
        let (m, spslab) = (self.m, self.spslab);
        match &mut self.stack_mem {
            Membership::Exact(tagged) => {
                let mut cur = queue.back();
                while let Some(r) = cur.filter(|_| tagged.len() < (m + 1) * spslab) {
                    links.set_tag(r.index(), (tagged.len() / spslab + 1) as u8);
                    tagged.push(r);
                    cur = queue.prev(links, r);
                }
            }
            Membership::Bloom(b) => {
                let links: &L = links;
                let keys = queue.iter_from_back(links, usize::MAX).map(|r| key_of(links, r));
                let segs = chunk_segments(keys, m, spslab);
                b.rebuild_all(segs.iter().map(|v| v.iter().copied()));
            }
        }
        for v in &mut self.stack_vals {
            *v *= 0.5;
        }
        for v in &mut self.ghost_vals {
            *v *= 0.5;
        }
        self.outgoing = weighted(&self.stack_vals);
    }

    /// Approximate memory footprint of the membership structure.
    pub fn byte_size(&self) -> usize {
        match &self.stack_mem {
            // The tags ride in node padding; the clearing list remains.
            Membership::Exact(tagged) => tagged.len() * std::mem::size_of::<NodeRef>(),
            Membership::Bloom(b) => b.byte_size(),
        }
    }
}

#[inline]
fn weighted(vals: &[f64]) -> f64 {
    vals.iter().enumerate().map(|(i, v)| v / f64::from(1u32 << (i + 1))).sum()
}

/// Splits the bottom-up key stream of a stack into `m + 1` segments of
/// `spslab` keys each (segment 0 first). Shorter streams produce
/// shorter/absent segments.
pub fn chunk_segments(
    keys: impl Iterator<Item = u64>,
    m: usize,
    spslab: usize,
) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); m + 1];
    for (i, k) in keys.take((m + 1) * spslab.max(1)).enumerate() {
        out[i / spslab.max(1)].push(k);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruList;
    use std::collections::HashMap;

    /// A subclass stack of bare keys and its tracker, driven the way
    /// the policy drives them.
    struct Stack {
        queue: LruList<u64>,
        nodes: HashMap<u64, NodeRef>,
        t: SubclassTracker,
    }

    impl Stack {
        /// Keys pushed in order, so the first is the stack bottom.
        fn new(m: usize, spslab: usize, mode: MembershipMode, keys: &[u64]) -> Self {
            let mut s = Stack {
                queue: LruList::new(),
                nodes: HashMap::new(),
                t: SubclassTracker::new(m, spslab, mode),
            };
            for &k in keys {
                s.push(k);
            }
            s
        }

        fn push(&mut self, k: u64) {
            self.nodes.insert(k, self.queue.push_front(k));
        }

        fn rebuild(&mut self) {
            let (queue, arena) = self.queue.split_mut();
            self.t.rebuild(queue, arena, |a, r| *a.get(r));
        }

        /// A hit: promote, then credit whatever segment the item sat in.
        fn hit(&mut self, k: u64, w: f64) -> Option<usize> {
            let node = self.nodes[&k];
            self.queue.move_to_front(node);
            self.t.on_hit(self.queue.split_mut().1, node, k, w)
        }

        fn evict(&mut self, k: u64) {
            self.queue.remove(self.nodes.remove(&k).unwrap());
            self.t.on_evict(k);
        }

        fn remove(&mut self, k: u64) {
            self.queue.remove(self.nodes.remove(&k).unwrap());
            self.t.on_remove(k);
        }
    }

    /// Stack bottom-up: S0 = 1..4, S1 = 5..8, S2 = 9..12, snapshotted.
    fn tracker(mode: MembershipMode) -> Stack {
        let mut s = Stack::new(2, 4, mode, &(1..=12).collect::<Vec<_>>());
        s.rebuild();
        s
    }

    #[test]
    fn eq2_weighting() {
        for mode in [MembershipMode::Exact, MembershipMode::Bloom { fpp: 0.001 }] {
            let mut s = tracker(mode);
            assert_eq!(s.hit(1, 2.0), Some(0));
            assert_eq!(s.hit(5, 4.0), Some(1));
            assert_eq!(s.hit(9, 8.0), Some(2));
            // V = 2/2 + 4/4 + 8/8 = 3
            assert!((s.t.outgoing() - 3.0).abs() < 1e-12, "{mode:?}");
            assert_eq!(s.t.outgoing(), weighted(s.t.stack_values()), "cached value is exact");
            assert_eq!(s.t.incoming(), 0.0);
        }
    }

    #[test]
    fn hit_removes_from_segment() {
        let mut s = tracker(MembershipMode::Exact);
        assert_eq!(s.hit(2, 1.0), Some(0));
        assert_eq!(s.hit(2, 1.0), None, "second hit must not double-credit");
        assert!((s.t.outgoing() - 0.5).abs() < 1e-12);
        // Keys above the tracked segments were never tagged.
        s.push(13);
        assert_eq!(s.hit(13, 1.0), None);
    }

    #[test]
    fn ghost_credits_feed_incoming() {
        let mut s = tracker(MembershipMode::Exact);
        s.t.credit_ghost(0, 1.0);
        s.t.credit_ghost(2, 4.0);
        // 1/2 + 4/8
        assert!((s.t.incoming() - 1.0).abs() < 1e-12);
        // out-of-range segment clamps into the last one
        s.t.credit_ghost(99, 8.0);
        assert!((s.t.incoming() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn evict_removes_key_from_stack() {
        for mode in [MembershipMode::Exact, MembershipMode::Bloom { fpp: 1e-4 }] {
            let mut s = tracker(mode);
            s.evict(3);
            // The freed node is reused by a new key, which sat in no
            // segment at the snapshot.
            s.push(13);
            assert_eq!(s.hit(13, 1.0), None, "{mode:?}: a reused node inherited a segment");
            s.remove(6);
            s.push(6);
            assert_eq!(s.hit(6, 1.0), None, "{mode:?}: a removed key came back in its segment");
            assert_eq!(s.t.outgoing(), 0.0);
        }
    }

    #[test]
    fn rebuild_decays_values() {
        let mut s = tracker(MembershipMode::Exact);
        s.hit(1, 8.0); // outgoing 4
        s.t.credit_ghost(0, 8.0); // incoming 4
                                  // bottom-up now: 2..=12, then 1 at the top
        s.rebuild();
        assert!((s.t.outgoing() - 2.0).abs() < 1e-12);
        assert!((s.t.incoming() - 2.0).abs() < 1e-12);
        // membership was re-snapshotted: 1 sits in S2, 5 slid into S0
        assert_eq!(s.hit(1, 1.0), Some(2));
        assert_eq!(s.hit(5, 1.0), Some(0));
    }

    #[test]
    fn moved_without_a_hit_keeps_its_segment_until_the_rebuild() {
        // An in-place update moves the node but keeps its tag, as the
        // old key map kept the key; the next rebuild clears it.
        let mut s = tracker(MembershipMode::Exact);
        s.queue.move_to_front(s.nodes[&1]);
        s.queue.move_to_front(s.nodes[&2]);
        assert_eq!(s.hit(1, 1.0), Some(0));
        for k in 13..=24 {
            s.push(k);
        }
        // 2, still tagged, goes to the top, far above the 12 nodes the
        // rebuild tags.
        s.queue.move_to_front(s.nodes[&2]);
        s.rebuild();
        assert_eq!(s.hit(2, 1.0), None, "a stale tag survived the rebuild");
        assert_eq!(s.hit(3, 1.0), Some(0));
    }

    #[test]
    fn bloom_mode_agrees_with_exact_on_clean_ops() {
        let mut e = tracker(MembershipMode::Exact);
        let mut b = tracker(MembershipMode::Bloom { fpp: 1e-4 });
        for key in [1u64, 5, 9, 2, 6] {
            assert_eq!(e.hit(key, 1.0), b.hit(key, 1.0), "key {key}");
        }
        assert!((e.t.outgoing() - b.t.outgoing()).abs() < 1e-12);
    }

    #[test]
    fn chunking_splits_bottom_up() {
        let segs = chunk_segments(1..=10, 2, 3);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], vec![1, 2, 3]);
        assert_eq!(segs[1], vec![4, 5, 6]);
        assert_eq!(segs[2], vec![7, 8, 9]); // 10th key is beyond m+1 segments
        let short = chunk_segments(1..=2, 2, 3);
        assert_eq!(short[0], vec![1, 2]);
        assert!(short[1].is_empty());
        let degenerate = chunk_segments(1..=3, 1, 0);
        assert_eq!(degenerate[0].len(), 1, "spslab 0 treated as 1");
    }

    #[test]
    fn m_zero_uses_single_segment() {
        let mut s = Stack::new(0, 4, MembershipMode::Exact, &[1, 2]);
        s.rebuild();
        assert_eq!(s.t.m(), 0);
        s.hit(1, 3.0);
        assert!((s.t.outgoing() - 1.5).abs() < 1e-12);
        assert!(s.t.byte_size() > 0);
    }
}
