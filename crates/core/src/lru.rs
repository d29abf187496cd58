//! An arena-backed intrusive LRU list.
//!
//! Every subclass in the simulator owns an LRU stack over hundreds of
//! thousands of items; a pointer-chased `LinkedList` would thrash the
//! cache and fragment the heap (see the Rust Performance Book on data
//! layout). [`LruList`] stores nodes contiguously in a `Vec` with
//! `u32` prev/next indices and an internal free list, giving O(1)
//! push/move/pop/remove with no per-node allocation after warm-up.
//!
//! Handles ([`NodeRef`]) are indices plus nothing else — the caller
//! (the cache index) guarantees it never uses a handle after removing
//! it. Debug builds verify liveness on every operation. A holder that
//! cannot make that guarantee checks the handle first with
//! [`LruList::try_get`].
//!
//! Each node also carries a one-byte **tag** for the list's owner,
//! stored in padding the node has anyway. Every push resets it to 0;
//! PAMA's segment tracker uses it to mark which snapshot segment a
//! node sat in (see [`crate::segments`]).

/// Handle to a node in an [`LruList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef(u32);

const NIL: u32 = u32::MAX;

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

/// A doubly-linked LRU list in an arena. Front = most recently used,
/// back = least recently used (the paper's "stack bottom").
#[derive(Debug, Clone)]
pub struct LruList<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl<T> Default for LruList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LruList<T> {
    /// An empty list.
    pub fn new() -> Self {
        Self { nodes: Vec::new(), free: Vec::new(), head: NIL, tail: NIL, len: 0 }
    }

    /// An empty list with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self { nodes: Vec::with_capacity(cap), free: Vec::new(), head: NIL, tail: NIL, len: 0 }
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no node is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, value: T) -> u32 {
        if let Some(i) = self.free.pop() {
            let n = &mut self.nodes[i as usize];
            n.prev = NIL;
            n.next = NIL;
            n.live = true;
            n.tag = 0;
            n.value = value;
            i
        } else {
            let i = self.nodes.len() as u32;
            assert!(i != NIL, "LruList arena exhausted");
            self.nodes.push(Node { prev: NIL, next: NIL, live: true, tag: 0, value });
            i
        }
    }

    #[inline]
    fn check(&self, r: NodeRef) {
        debug_assert!(
            (r.0 as usize) < self.nodes.len() && self.nodes[r.0 as usize].live,
            "dangling NodeRef {:?}",
            r
        );
    }

    /// Pushes a value at the front (MRU). Returns its handle.
    pub fn push_front(&mut self, value: T) -> NodeRef {
        let i = self.alloc(value);
        self.link_front(i);
        self.len += 1;
        NodeRef(i)
    }

    /// Pushes a value at the back (LRU end). Returns its handle. Used
    /// when reconstructing stacks in a known order.
    pub fn push_back(&mut self, value: T) -> NodeRef {
        let i = self.alloc(value);
        if self.tail == NIL {
            self.head = i;
            self.tail = i;
        } else {
            self.nodes[self.tail as usize].next = i;
            self.nodes[i as usize].prev = self.tail;
            self.tail = i;
        }
        self.len += 1;
        NodeRef(i)
    }

    fn link_front(&mut self, i: u32) {
        let old = self.head;
        self.nodes[i as usize].next = old;
        self.nodes[i as usize].prev = NIL;
        if old != NIL {
            self.nodes[old as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Moves a node to the front (the LRU "touch").
    pub fn move_to_front(&mut self, r: NodeRef) {
        self.check(r);
        if self.head == r.0 {
            return;
        }
        self.unlink(r.0);
        self.link_front(r.0);
    }

    /// Removes a node, returning its value.
    pub fn remove(&mut self, r: NodeRef) -> T
    where
        T: Default,
    {
        self.check(r);
        self.unlink(r.0);
        let n = &mut self.nodes[r.0 as usize];
        n.live = false;
        let v = std::mem::take(&mut n.value);
        self.free.push(r.0);
        self.len -= 1;
        v
    }

    /// Removes and returns the back (LRU) node's value.
    pub fn pop_back(&mut self) -> Option<T>
    where
        T: Default,
    {
        if self.tail == NIL {
            return None;
        }
        Some(self.remove(NodeRef(self.tail)))
    }

    /// Handle of the back (LRU) node.
    pub fn back(&self) -> Option<NodeRef> {
        (self.tail != NIL).then_some(NodeRef(self.tail))
    }

    /// Handle of the front (MRU) node.
    pub fn front(&self) -> Option<NodeRef> {
        (self.head != NIL).then_some(NodeRef(self.head))
    }

    /// Handle of the node one step toward the front (more recently
    /// used) from `r`, if any: walking from [`back`](Self::back) with
    /// this visits the stack bottom-up.
    pub fn prev(&self, r: NodeRef) -> Option<NodeRef> {
        self.check(r);
        let p = self.nodes[r.0 as usize].prev;
        (p != NIL).then_some(NodeRef(p))
    }

    /// Sets a live node's tag. Moving the node keeps it; only a push
    /// (of this or a reused node) or [`take_tag`](Self::take_tag)
    /// resets it.
    pub fn set_tag(&mut self, r: NodeRef, tag: u8) {
        self.check(r);
        self.nodes[r.0 as usize].tag = tag;
    }

    /// Reads a live node's tag and resets it to 0.
    pub fn take_tag(&mut self, r: NodeRef) -> u8 {
        self.check(r);
        std::mem::take(&mut self.nodes[r.0 as usize].tag)
    }

    /// Resets the tag of the node at `r` whether or not it is still
    /// live, for an owner clearing tags it set earlier on nodes that
    /// may have been freed or reused since. A handle past the arena is
    /// ignored.
    pub fn clear_tag(&mut self, r: NodeRef) {
        if let Some(n) = self.nodes.get_mut(r.0 as usize) {
            n.tag = 0;
        }
    }

    /// Borrows a node's value.
    pub fn get(&self, r: NodeRef) -> &T {
        self.check(r);
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
        self.check(r);
        &mut self.nodes[r.0 as usize].value
    }

    /// Iterates values from the back (LRU) toward the front, up to
    /// `limit` items — how segment snapshots are taken.
    pub fn iter_from_back(&self, limit: usize) -> BackIter<'_, T> {
        BackIter { list: self, cur: self.tail, remaining: limit }
    }

    /// Iterates values front (MRU) to back.
    pub fn iter(&self) -> FrontIter<'_, T> {
        FrontIter { list: self, cur: self.head }
    }

    /// Visits every value front (MRU) to back with its position,
    /// allowing mutation — used to stamp snapshot metadata on ghost
    /// lists at window boundaries.
    pub fn for_each_front_mut(&mut self, mut f: impl FnMut(usize, &mut T)) {
        let mut cur = self.head;
        let mut pos = 0usize;
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            f(pos, &mut self.nodes[cur as usize].value);
            cur = next;
            pos += 1;
        }
    }

    /// Drops every node (keeps the arena capacity).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Debug invariant check: forward and backward walks agree with
    /// `len`. O(n); used by tests and the property suite.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if !n.live {
                return Err(format!("dead node {cur} linked"));
            }
            if n.prev != prev {
                return Err(format!("node {cur} prev {} != expected {prev}", n.prev));
            }
            prev = cur;
            cur = n.next;
            count += 1;
            if count > self.nodes.len() {
                return Err("cycle detected".into());
            }
        }
        if prev != self.tail {
            return Err(format!("tail {} != last {prev}", self.tail));
        }
        if count != self.len {
            return Err(format!("len {} != walked {count}", self.len));
        }
        Ok(())
    }
}

/// Back-to-front iterator (see [`LruList::iter_from_back`]).
pub struct BackIter<'a, T> {
    list: &'a LruList<T>,
    cur: u32,
    remaining: usize,
}

impl<'a, T> Iterator for BackIter<'a, T> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        if self.cur == NIL || self.remaining == 0 {
            return None;
        }
        let n = &self.list.nodes[self.cur as usize];
        self.cur = n.prev;
        self.remaining -= 1;
        Some(&n.value)
    }
}

/// Front-to-back iterator (see [`LruList::iter`]).
pub struct FrontIter<'a, T> {
    list: &'a LruList<T>,
    cur: u32,
}

impl<'a, T> Iterator for FrontIter<'a, T> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.list.nodes[self.cur as usize];
        self.cur = n.next;
        Some(&n.value)
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
        let mut l = LruList::new();
        let a = l.push_front(1);
        let b = l.push_front(2);
        assert_eq!(l.prev(b), None);
        assert_eq!(l.prev(a), Some(b));
        l.set_tag(a, 3);
        l.move_to_front(a);
        assert_eq!(l.prev(b), Some(a));
        assert_eq!(l.take_tag(a), 3, "a move keeps the tag");
        assert_eq!(l.take_tag(a), 0, "take resets");
        l.set_tag(b, 7);
        l.remove(b);
        l.clear_tag(b); // freed: allowed
        l.clear_tag(NodeRef(99)); // past the arena: ignored
        l.set_tag(a, 5);
        l.remove(a);
        let c = l.push_front(9);
        assert_eq!(c, a, "the freed node is reused");
        assert_eq!(l.take_tag(c), 0, "a push resets a reused node's tag");
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
