//! Intrusive LRU queues over a node store.
//!
//! Every subclass in the simulator owns an LRU stack over hundreds of
//! thousands of items; a pointer-chased `LinkedList` would thrash the
//! cache and fragment the heap (see the Rust Performance Book on data
//! layout). A [`Queue`] is only a header (head, tail, length): its
//! nodes live in a store that implements [`Links`], which holds each
//! node's `u32` prev/next indices and tag. Push, move, pop and remove
//! are O(1) and allocate nothing.
//!
//! Where the nodes live is the store's business. [`Arena`] keeps them
//! contiguously in a `Vec` with an internal free list (the simulator's
//! store, one arena for every queue of a cache); pama-kv's shard keeps
//! them in its slab slots' records, so an item's links sit in the one
//! record the item has. [`LruList`] is a queue with an arena of its own,
//! for owners of a single list (ghost lists, the global-LRU reference).
//!
//! Handles ([`NodeRef`]) are indices plus nothing else — the caller
//! (the cache index) guarantees it never uses a handle after removing
//! it. Debug builds verify liveness on every operation. A holder that
//! cannot make that guarantee checks the handle first with
//! [`Arena::try_get`] (or its store's equivalent).
//!
//! Each node also carries a one-byte **tag** for the list's owner (in
//! an arena node, in padding the node has anyway). Every push resets
//! it to 0;
//! PAMA's segment tracker uses it to mark which snapshot segment a
//! node sat in (see [`crate::segments`]).

/// Handle to a node in a node store (an index into it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(u32);

impl NodeRef {
    /// The handle of node index `i`, which must not be [`NIL`].
    #[inline]
    pub const fn new(i: u32) -> Self {
        debug_assert!(i != NIL);
        Self(i)
    }

    /// The node's index in its store.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }
}

/// The link value meaning "no node" (a queue end).
pub const NIL: u32 = u32::MAX;

/// Where the nodes of one or more [`Queue`]s live: each node's links
/// (raw indices, [`NIL`] at a queue end) and its owner's tag. A queue
/// only reads and writes these; allocating and freeing nodes is the
/// store's own business.
pub trait Links {
    /// The node one step toward the front of its queue.
    fn prev(&self, n: u32) -> u32;
    /// The node one step toward the back of its queue.
    fn next(&self, n: u32) -> u32;
    /// Sets `n`'s front-ward link.
    fn set_prev(&mut self, n: u32, to: u32);
    /// Sets `n`'s back-ward link.
    fn set_next(&mut self, n: u32, to: u32);
    /// A live node's tag.
    fn tag(&self, n: u32) -> u8;
    /// Sets a live node's tag.
    fn set_tag(&mut self, n: u32, tag: u8);
    /// Resets the tag of node `n` whether or not it is still live, for
    /// an owner clearing tags it set earlier on nodes that may have
    /// been freed or reused since. An index past the store is ignored.
    fn clear_tag(&mut self, n: u32);
    /// Whether `n` names a live node.
    fn is_live(&self, n: u32) -> bool;
}

/// One LRU queue's header: front = most recently used, back = least
/// recently used (the paper's "stack bottom"). Its nodes live in a
/// [`Links`] store that every method takes.
#[derive(Debug, Clone)]
pub struct Queue {
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for Queue {
    fn default() -> Self {
        Self::new()
    }
}

impl Queue {
    /// An empty queue.
    pub const fn new() -> Self {
        Self { head: NIL, tail: NIL, len: 0 }
    }

    /// Number of linked nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no node is linked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Handle of the front (MRU) node.
    #[inline]
    pub fn front(&self) -> Option<NodeRef> {
        (self.head != NIL).then_some(NodeRef(self.head))
    }

    /// Handle of the back (LRU) node.
    #[inline]
    pub fn back(&self) -> Option<NodeRef> {
        (self.tail != NIL).then_some(NodeRef(self.tail))
    }

    #[inline]
    fn check(s: &impl Links, r: NodeRef) {
        debug_assert!(s.is_live(r.0), "dangling NodeRef {r:?}");
    }

    /// Links the unlinked live node `r` at the front and resets its tag.
    pub fn push_front(&mut self, s: &mut impl Links, r: NodeRef) {
        Self::check(s, r);
        s.set_tag(r.0, 0);
        self.link_front(s, r.0);
        self.len += 1;
    }

    /// Links the unlinked live node `r` at the back and resets its tag.
    /// Used when reconstructing stacks in a known order.
    pub fn push_back(&mut self, s: &mut impl Links, r: NodeRef) {
        Self::check(s, r);
        s.set_tag(r.0, 0);
        let i = r.0;
        s.set_next(i, NIL);
        s.set_prev(i, self.tail);
        if self.tail == NIL {
            self.head = i;
        } else {
            s.set_next(self.tail, i);
        }
        self.tail = i;
        self.len += 1;
    }

    fn link_front(&mut self, s: &mut impl Links, i: u32) {
        let old = self.head;
        s.set_next(i, old);
        s.set_prev(i, NIL);
        if old != NIL {
            s.set_prev(old, i);
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn unlink(&mut self, s: &mut impl Links, i: u32) {
        let (prev, next) = (s.prev(i), s.next(i));
        if prev != NIL {
            s.set_next(prev, next);
        } else {
            self.head = next;
        }
        if next != NIL {
            s.set_prev(next, prev);
        } else {
            self.tail = prev;
        }
    }

    /// Moves a node to the front (the LRU "touch").
    pub fn move_to_front(&mut self, s: &mut impl Links, r: NodeRef) {
        Self::check(s, r);
        if self.head == r.0 {
            return;
        }
        self.unlink(s, r.0);
        self.link_front(s, r.0);
    }

    /// Unlinks a node; the store still holds it.
    pub fn remove(&mut self, s: &mut impl Links, r: NodeRef) {
        Self::check(s, r);
        self.unlink(s, r.0);
        self.len -= 1;
    }

    /// Handle of the node one step toward the front (more recently
    /// used) from `r`, if any: walking from [`back`](Self::back) with
    /// this visits the stack bottom-up.
    pub fn prev(&self, s: &impl Links, r: NodeRef) -> Option<NodeRef> {
        Self::check(s, r);
        let p = s.prev(r.0);
        (p != NIL).then_some(NodeRef(p))
    }

    /// The store moved a linked node from `old` to `new`, links and tag
    /// included, and already repointed its neighbours at `new`: the
    /// queue's own ends follow. A queue that neither starts nor ends at
    /// `old` is unchanged.
    pub fn relocated(&mut self, old: NodeRef, new: NodeRef) {
        if self.head == old.0 {
            self.head = new.0;
        }
        if self.tail == old.0 {
            self.tail = new.0;
        }
    }

    /// Handles front (MRU) to back.
    pub fn iter<'a, L: Links>(&self, s: &'a L) -> Walk<'a, L> {
        Walk { links: s, cur: self.head, remaining: usize::MAX, forward: true }
    }

    /// Handles from the back (LRU) toward the front, up to `limit` —
    /// how segment snapshots are taken.
    pub fn iter_from_back<'a, L: Links>(&self, s: &'a L, limit: usize) -> Walk<'a, L> {
        Walk { links: s, cur: self.tail, remaining: limit, forward: false }
    }

    /// Forgets every node (the store still holds them).
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Debug invariant check: the forward walk and the backward walk
    /// each reach exactly `len` live nodes, every link agrees with its
    /// neighbour's, and the walks end at the recorded ends. O(n); used
    /// by tests, consistency checks and the property suite.
    pub fn check_invariants(&self, s: &impl Links) -> Result<(), String> {
        for forward in [true, false] {
            let (start, end) =
                if forward { (self.head, self.tail) } else { (self.tail, self.head) };
            let mut count = 0usize;
            let mut before = NIL;
            let mut cur = start;
            while cur != NIL {
                if !s.is_live(cur) {
                    return Err(format!("dead node {cur} linked"));
                }
                let (back_link, on) = if forward {
                    (s.prev(cur), s.next(cur))
                } else {
                    (s.next(cur), s.prev(cur))
                };
                if back_link != before {
                    let dir = if forward { "prev" } else { "next" };
                    return Err(format!("node {cur} {dir} {back_link} != expected {before}"));
                }
                before = cur;
                cur = on;
                count += 1;
                if count > self.len {
                    return Err(format!("walk passes len {} (cycle?)", self.len));
                }
            }
            if before != end {
                return Err(format!("walk ends at {before}, queue end is {end}"));
            }
            if count != self.len {
                return Err(format!("len {} != walked {count}", self.len));
            }
        }
        Ok(())
    }
}

/// A walk over a queue's handles (see [`Queue::iter`] and
/// [`Queue::iter_from_back`]).
pub struct Walk<'a, L> {
    links: &'a L,
    cur: u32,
    remaining: usize,
    forward: bool,
}

impl<L: Links> Iterator for Walk<'_, L> {
    type Item = NodeRef;
    fn next(&mut self) -> Option<NodeRef> {
        if self.cur == NIL || self.remaining == 0 {
            return None;
        }
        let r = NodeRef(self.cur);
        self.cur =
            if self.forward { self.links.next(self.cur) } else { self.links.prev(self.cur) };
        self.remaining -= 1;
        Some(r)
    }
}

#[derive(Debug, Clone)]
struct Node<T> {
    prev: u32,
    next: u32,
    /// Live flag doubles as free-list membership marker.
    live: bool,
    /// The owner's tag; 0 after every push.
    tag: u8,
    value: T,
}

// The tag sits in padding: a node of a 40-byte value (the simulator's
// `ItemMeta`) stays 56 bytes.
const _: () = assert!(std::mem::size_of::<Node<[u64; 5]>>() == 56);

/// Nodes in a `Vec` with a free list: the default [`Links`] store.
#[derive(Debug, Clone)]
pub struct Arena<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub const fn new() -> Self {
        Self { nodes: Vec::new(), free: Vec::new() }
    }

    /// Stores `value` in a fresh, unlinked node and returns its handle.
    pub fn alloc(&mut self, value: T) -> NodeRef {
        if let Some(i) = self.free.pop() {
            let n = &mut self.nodes[i as usize];
            n.prev = NIL;
            n.next = NIL;
            n.live = true;
            n.tag = 0;
            n.value = value;
            NodeRef(i)
        } else {
            let i = self.nodes.len() as u32;
            assert!(i != NIL, "node arena exhausted");
            self.nodes.push(Node { prev: NIL, next: NIL, live: true, tag: 0, value });
            NodeRef(i)
        }
    }

    /// Frees an unlinked live node, returning its value.
    pub fn free(&mut self, r: NodeRef) -> T
    where
        T: Default,
    {
        debug_assert!(self.is_live(r.0), "dangling NodeRef {r:?}");
        let n = &mut self.nodes[r.0 as usize];
        n.live = false;
        self.free.push(r.0);
        std::mem::take(&mut n.value)
    }

    /// Borrows a node's value.
    pub fn get(&self, r: NodeRef) -> &T {
        debug_assert!(self.is_live(r.0), "dangling NodeRef {r:?}");
        &self.nodes[r.0 as usize].value
    }

    /// Borrows a node's value if the handle names a live node, in
    /// release builds too. For handles held outside the list's owner,
    /// which may have gone stale: a freed node answers `None`, and a
    /// reused one answers with its new value.
    pub fn try_get(&self, r: NodeRef) -> Option<&T> {
        self.nodes.get(r.0 as usize).filter(|n| n.live).map(|n| &n.value)
    }

    /// Mutably borrows a node's value.
    pub fn get_mut(&mut self, r: NodeRef) -> &mut T {
        debug_assert!(self.is_live(r.0), "dangling NodeRef {r:?}");
        &mut self.nodes[r.0 as usize].value
    }

    /// Drops every node (keeps the capacity).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
    }
}

impl<T> Links for Arena<T> {
    #[inline]
    fn prev(&self, n: u32) -> u32 {
        self.nodes[n as usize].prev
    }
    #[inline]
    fn next(&self, n: u32) -> u32 {
        self.nodes[n as usize].next
    }
    #[inline]
    fn set_prev(&mut self, n: u32, to: u32) {
        self.nodes[n as usize].prev = to;
    }
    #[inline]
    fn set_next(&mut self, n: u32, to: u32) {
        self.nodes[n as usize].next = to;
    }
    #[inline]
    fn tag(&self, n: u32) -> u8 {
        self.nodes[n as usize].tag
    }
    #[inline]
    fn set_tag(&mut self, n: u32, tag: u8) {
        self.nodes[n as usize].tag = tag;
    }
    fn clear_tag(&mut self, n: u32) {
        if let Some(node) = self.nodes.get_mut(n as usize) {
            node.tag = 0;
        }
    }
    #[inline]
    fn is_live(&self, n: u32) -> bool {
        self.nodes.get(n as usize).is_some_and(|node| node.live)
    }
}

/// A doubly-linked LRU list with an arena of its own. Front = most
/// recently used, back = least recently used (the paper's "stack
/// bottom").
#[derive(Debug, Clone)]
pub struct LruList<T> {
    arena: Arena<T>,
    queue: Queue,
}

impl<T> Default for LruList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LruList<T> {
    /// An empty list.
    pub const fn new() -> Self {
        Self { arena: Arena::new(), queue: Queue::new() }
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no node is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queue header and the arena its nodes live in, for code
    /// written against [`Queue`] and [`Links`].
    pub fn split_mut(&mut self) -> (&Queue, &mut Arena<T>) {
        (&self.queue, &mut self.arena)
    }

    /// Pushes a value at the front (MRU). Returns its handle.
    pub fn push_front(&mut self, value: T) -> NodeRef {
        let r = self.arena.alloc(value);
        self.queue.push_front(&mut self.arena, r);
        r
    }

    /// Pushes a value at the back (LRU end). Returns its handle. Used
    /// when reconstructing stacks in a known order.
    pub fn push_back(&mut self, value: T) -> NodeRef {
        let r = self.arena.alloc(value);
        self.queue.push_back(&mut self.arena, r);
        r
    }

    /// Moves a node to the front (the LRU "touch").
    pub fn move_to_front(&mut self, r: NodeRef) {
        self.queue.move_to_front(&mut self.arena, r);
    }

    /// Removes a node, returning its value.
    pub fn remove(&mut self, r: NodeRef) -> T
    where
        T: Default,
    {
        self.queue.remove(&mut self.arena, r);
        self.arena.free(r)
    }

    /// Removes and returns the back (LRU) node's value.
    pub fn pop_back(&mut self) -> Option<T>
    where
        T: Default,
    {
        let r = self.queue.back()?;
        Some(self.remove(r))
    }

    /// Handle of the back (LRU) node.
    pub fn back(&self) -> Option<NodeRef> {
        self.queue.back()
    }

    /// Handle of the front (MRU) node.
    pub fn front(&self) -> Option<NodeRef> {
        self.queue.front()
    }

    /// Borrows a node's value.
    pub fn get(&self, r: NodeRef) -> &T {
        self.arena.get(r)
    }

    /// See [`Arena::try_get`].
    pub fn try_get(&self, r: NodeRef) -> Option<&T> {
        self.arena.try_get(r)
    }

    /// Mutably borrows a node's value.
    pub fn get_mut(&mut self, r: NodeRef) -> &mut T {
        self.arena.get_mut(r)
    }

    /// Iterates values from the back (LRU) toward the front, up to
    /// `limit` items — how segment snapshots are taken.
    pub fn iter_from_back(&self, limit: usize) -> impl Iterator<Item = &T> + '_ {
        self.queue.iter_from_back(&self.arena, limit).map(|r| self.arena.get(r))
    }

    /// Iterates values front (MRU) to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.queue.iter(&self.arena).map(|r| self.arena.get(r))
    }

    /// Visits every value front (MRU) to back with its position,
    /// allowing mutation — used to stamp snapshot metadata on ghost
    /// lists at window boundaries.
    pub fn for_each_front_mut(&mut self, mut f: impl FnMut(usize, &mut T)) {
        let mut cur = self.queue.front();
        let mut pos = 0usize;
        while let Some(r) = cur {
            let next = self.arena.next(r.0);
            f(pos, self.arena.get_mut(r));
            cur = (next != NIL).then_some(NodeRef(next));
            pos += 1;
        }
    }

    /// Drops every node (keeps the arena capacity).
    pub fn clear(&mut self) {
        self.arena.clear();
        self.queue.clear();
    }

    /// Debug invariant check (see [`Queue::check_invariants`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.queue.check_invariants(&self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_touch_pop_ordering() {
        let mut l = LruList::new();
        let a = l.push_front(1);
        let _b = l.push_front(2);
        let _c = l.push_front(3);
        assert_eq!(l.len(), 3);
        // order front→back: 3,2,1
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![3, 2, 1]);
        l.move_to_front(a); // 1,3,2
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![1, 3, 2]);
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), Some(3));
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
        l.check_invariants().unwrap();
    }

    #[test]
    fn push_back_builds_in_order() {
        let mut l = LruList::new();
        l.push_back(1);
        l.push_back(2);
        l.push_back(3);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(l.pop_back(), Some(3));
        l.check_invariants().unwrap();
    }

    #[test]
    fn remove_middle_node() {
        let mut l = LruList::new();
        let _a = l.push_front(1);
        let b = l.push_front(2);
        let _c = l.push_front(3);
        assert_eq!(l.remove(b), 2);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![3, 1]);
        l.check_invariants().unwrap();
    }

    #[test]
    fn arena_reuses_slots() {
        let mut l = LruList::new();
        let a = l.push_front(1);
        l.remove(a);
        let b = l.push_front(2);
        // The freed slot is reused: same raw index.
        assert_eq!(a.0, b.0);
        assert_eq!(*l.get(b), 2);
    }

    #[test]
    fn try_get_rejects_freed_and_out_of_range_handles() {
        let mut l = LruList::new();
        let a = l.push_front(1);
        assert_eq!(l.try_get(a), Some(&1));
        l.remove(a);
        assert_eq!(l.try_get(a), None, "freed node");
        assert_eq!(l.try_get(NodeRef(7)), None, "never allocated");
        let b = l.push_front(2);
        assert_eq!(l.try_get(a), Some(&2), "a reused node answers with its new value");
        assert_eq!(a, b);
    }

    #[test]
    fn tags_survive_moves_and_reset_on_push() {
        let (mut q, mut s) = (Queue::new(), Arena::new());
        let a = s.alloc(1);
        q.push_front(&mut s, a);
        let b = s.alloc(2);
        q.push_front(&mut s, b);
        assert_eq!(q.prev(&s, b), None);
        assert_eq!(q.prev(&s, a), Some(b));
        s.set_tag(a.0, 3);
        q.move_to_front(&mut s, a);
        assert_eq!(q.prev(&s, b), Some(a));
        assert_eq!(s.tag(a.0), 3, "a move keeps the tag");
        s.set_tag(b.0, 7);
        q.remove(&mut s, b);
        s.free(b);
        s.clear_tag(b.0); // freed: allowed
        s.clear_tag(99); // past the arena: ignored
        s.set_tag(a.0, 5);
        q.remove(&mut s, a);
        s.free(a);
        let c = s.alloc(9);
        q.push_front(&mut s, c);
        assert_eq!(c, a, "the freed node is reused");
        assert_eq!(s.tag(c.0), 0, "a push resets a reused node's tag");
        q.check_invariants(&s).unwrap();
    }

    #[test]
    fn move_front_of_front_is_noop() {
        let mut l = LruList::new();
        let a = l.push_front(1);
        l.push_back(0);
        l.move_to_front(a);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), vec![1, 0]);
        l.check_invariants().unwrap();
    }

    #[test]
    fn single_element_edge_cases() {
        let mut l = LruList::new();
        let a = l.push_front(9);
        assert_eq!(l.front(), Some(a));
        assert_eq!(l.back(), Some(a));
        l.move_to_front(a);
        assert_eq!(l.remove(a), 9);
        assert_eq!(l.front(), None);
        assert_eq!(l.back(), None);
        l.check_invariants().unwrap();
    }

    #[test]
    fn iter_from_back_limits() {
        let mut l = LruList::new();
        for i in 0..5 {
            l.push_front(i);
        }
        // back→front: 0,1,2 (limit 3)
        assert_eq!(l.iter_from_back(3).copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(l.iter_from_back(99).count(), 5);
        assert_eq!(l.iter_from_back(0).count(), 0);
    }

    #[test]
    fn get_mut_mutates() {
        let mut l = LruList::new();
        let a = l.push_front(10);
        *l.get_mut(a) += 5;
        assert_eq!(*l.get(a), 15);
    }

    #[test]
    fn clear_resets() {
        let mut l = LruList::new();
        l.push_front(1);
        l.push_front(2);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.front(), None);
        l.push_front(7);
        assert_eq!(l.len(), 1);
        l.check_invariants().unwrap();
    }

    #[test]
    fn large_churn_preserves_invariants() {
        let mut l = LruList::new();
        let mut handles = Vec::new();
        for i in 0..1000 {
            handles.push(l.push_front(i));
        }
        // Remove every third, touch every seventh of the rest.
        let mut removed = std::collections::HashSet::new();
        for (i, &h) in handles.iter().enumerate() {
            if i % 3 == 0 {
                l.remove(h);
                removed.insert(i);
            }
        }
        for (i, &h) in handles.iter().enumerate() {
            if !removed.contains(&i) && i % 7 == 0 {
                l.move_to_front(h);
            }
        }
        assert_eq!(l.len(), 1000 - removed.len());
        l.check_invariants().unwrap();
    }
}
