//! A page-granular B+ tree.
//!
//! Section 5.2 of the paper stores every access-support-relation partition
//! in **two redundant B+ trees**, clustered on the first resp. the last
//! attribute.  This module provides that tree: a classic B+ tree whose node
//! capacities derive from the paper's page geometry —
//!
//! * leaf pages hold `⌊PageSize / entry_size⌋` entries (the paper's
//!   `atpp^{i,j}`, formula 14),
//! * inner pages hold `⌊PageSize / (key_size + PPsize)⌋` children (the
//!   paper's `B⁺fan`, Figure 3) —
//!
//! and whose every node visit is charged to the shared [`IoStats`](crate::IoStats) counter
//! (one node = one page).  The tree supports unique-key insertion, point
//! lookup, deletion with borrow/merge rebalancing, and ordered range scans
//! over the linked leaf level.
//!
//! A [`Layout`] says what a leaf holds.  Every leaf is one vector of
//! elements, `stride` of them per entry, and an entry is ordered by the
//! key its layout reads off its elements.  [`Pairs`] stores `(key,
//! value)` pairs, one per entry — the classic map, [`BPlusTree`].
//! [`Rows`] stores rows of `stride` cells inline, each row its own key —
//! [`RowTree`], a partition's clustering tree, where a cluster is a
//! [`Prefix`] range.
//!
//! Pages are shared copy-on-write.  A tree keeps its pages in a
//! [`PageSlab`] of `Arc`'d nodes and writes each one through
//! `Arc::make_mut`, so [`BTree::freeze`] is a copy of page pointers: an
//! immutable, `Send + Sync` version that keeps the pages it was taken with,
//! while the tree copies a page the first time it writes one the version
//! still holds.  The reads a version serves — the batched descent and the
//! full scan — are written once, over the slab; the caller passes in how a
//! page read is charged (the live tree: its buffer pool and `IoStats`; a
//! frozen version: its reader's meter), so both charge the same pages.
//!
//! Page identity is also what a delta checkpoint is made of:
//! [`PageSlab::marks`] records each slot's page by weak pointer, and
//! [`PageSlab::changed_since`] lists the slots whose page is no longer the
//! marked one — the pages a later version does not share with the marked
//! one.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Bound;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};

use crate::buffer::BufferPool;
use crate::constants::{PAGE_SIZE, PP_SIZE};
use crate::error::{PageSimError, Result};
use crate::stats::StatsHandle;

const NO_NODE: usize = usize::MAX;

/// What a tree's leaves hold and how their entries are ordered.
///
/// A leaf is one vector of [`Layout::Elem`]s, `stride` consecutive ones
/// per entry (the stride is the tree's, fixed when it is made).  Entries
/// are ordered by [`Layout::key`], and inner pages separate them by
/// owned keys, [`Layout::Sep`].  A layout is a marker type: it is
/// never made, only named.
pub trait Layout: Clone + Debug {
    /// One element of a leaf's vector.
    type Elem: Clone + Debug;
    /// What an entry is ordered, probed and found by.
    type Key: ?Sized + Ord + Debug;
    /// An inner page's separator: an owned key.
    type Sep: Borrow<Self::Key> + Clone + Debug + PartialEq;

    /// The key of one entry (`stride` elements).
    fn key(entry: &[Self::Elem]) -> &Self::Key;

    /// An owned copy of `key`, to separate two pages by.
    fn sep(key: &Self::Key) -> Self::Sep;
}

/// `(key, value)` pairs, one per entry: a unique-key map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pairs<K, V>(PhantomData<fn() -> (K, V)>);

impl<K: Ord + Clone + Debug, V: Clone + Debug> Layout for Pairs<K, V> {
    type Elem = (K, V);
    type Key = K;
    type Sep = K;

    fn key(entry: &[(K, V)]) -> &K {
        &entry[0].0
    }

    fn sep(key: &K) -> K {
        key.clone()
    }
}

/// Rows of `stride` cells stored inline, each row its own key: no value,
/// no row id, no allocation per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rows<T>(PhantomData<fn() -> T>);

impl<T: Ord + Clone + Debug> Layout for Rows<T> {
    type Elem = T;
    type Key = [T];
    type Sep = Box<[T]>;

    fn key(entry: &[T]) -> &[T] {
        entry
    }

    fn sep(key: &[T]) -> Box<[T]> {
        key.into()
    }
}

/// A unique-key B+ tree of `(key, value)` pairs.
pub type BPlusTree<K, V> = BTree<Pairs<K, V>>;

/// A B+ tree of inline rows, each its own key.
pub type RowTree<T> = BTree<Rows<T>>;

/// One probe of a scan: where it starts, and how far it reaches.
pub trait KeyRange<K: ?Sized> {
    /// The lower bound.
    fn start(&self) -> Bound<&K>;

    /// Is `key`, which is not below the start, still inside?
    fn holds(&self, key: &K) -> bool;
}

impl<K: ?Sized + Ord, B: Borrow<K>> KeyRange<K> for (Bound<B>, Bound<B>) {
    fn start(&self) -> Bound<&K> {
        self.0.as_ref().map(Borrow::borrow)
    }

    fn holds(&self, key: &K) -> bool {
        match &self.1 {
            Bound::Included(h) => key <= h.borrow(),
            Bound::Excluded(h) => key < h.borrow(),
            Bound::Unbounded => true,
        }
    }
}

/// The keys that begin with one element: a row tree's cluster of rows
/// whose first cell is `0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prefix<T>(pub T);

impl<T: Ord> KeyRange<[T]> for Prefix<T> {
    fn start(&self) -> Bound<&[T]> {
        Bound::Included(std::slice::from_ref(&self.0))
    }

    fn holds(&self, key: &[T]) -> bool {
        key.first() == Some(&self.0)
    }
}

/// Entry `i` of a leaf's elements.
fn nth<E>(entries: &[E], stride: usize, i: usize) -> &[E] {
    &entries[i * stride..(i + 1) * stride]
}

/// The number of entries before the first whose key fails `below`
/// (binary search; the keys must be partitioned by `below`).
fn partition_point<L: Layout>(
    entries: &[L::Elem],
    stride: usize,
    below: impl Fn(&L::Key) -> bool,
) -> usize {
    let (mut lo, mut hi) = (0, entries.len() / stride);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(L::key(nth(entries, stride, mid))) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The first entry at or past `bound`.
fn start_index<L: Layout>(entries: &[L::Elem], stride: usize, bound: Bound<&L::Key>) -> usize {
    match bound {
        Bound::Included(key) => partition_point::<L>(entries, stride, |k| k < key),
        Bound::Excluded(key) => partition_point::<L>(entries, stride, |k| k <= key),
        Bound::Unbounded => 0,
    }
}

/// The child of an inner page a search for `key` descends to.
fn child_index<L: Layout>(keys: &[L::Sep], key: &L::Key) -> usize {
    keys.partition_point(|k| k.borrow() <= key)
}

/// Plan chunk sizes for bulk loading: greedy chunks of `target`, with the
/// tail adjusted so every chunk (except a lone root chunk) holds at least
/// `min` and at most `capacity` items.
fn chunk_plan(total: usize, target: usize, min: usize, capacity: usize) -> Vec<usize> {
    debug_assert!(min <= target && target <= capacity);
    let mut sizes = Vec::new();
    let mut remaining = total;
    loop {
        if remaining == 0 {
            break;
        }
        if remaining <= capacity {
            // Final chunk; a single root chunk may be arbitrarily small.
            sizes.push(remaining);
            break;
        }
        if remaining >= target + min {
            sizes.push(target);
            remaining -= target;
        } else {
            // capacity < remaining < target + min: split the tail evenly —
            // both halves satisfy min because remaining > capacity >= 2·min.
            let a = remaining.div_ceil(2);
            sizes.push(a);
            sizes.push(remaining - a);
            break;
        }
    }
    sizes
}

/// Outcome of one batched probe run ([`PageSlab::scan_ranges_sorted`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Probes (keys or ranges) answered by the batch.
    pub probes: u64,
    /// Pages the batch actually charged.
    pub pages_read: u64,
    /// Pages the equivalent per-probe calls would have charged.
    pub naive_pages: u64,
}

impl BatchReport {
    /// Page reads avoided by batching (`naive_pages − pages_read`).
    pub fn pages_saved(&self) -> u64 {
        self.naive_pages.saturating_sub(self.pages_read)
    }

    /// Fold another batch's tallies into this one.
    pub fn absorb(&mut self, other: BatchReport) {
        self.probes += other.probes;
        self.pages_read += other.pages_read;
        self.naive_pages += other.naive_pages;
    }
}

/// Shared descent state of one batched probe run: the pinned root-to-leaf
/// path and the set of pages already charged this batch.  A live tree
/// parks one between batches, so a probe allocates nothing once the
/// buffers have grown; a frozen version's batch starts a fresh one.
#[derive(Debug, Default)]
struct BatchState {
    /// Inner nodes of the current descent path, root first, each with the
    /// exclusive upper separator bound of its subtree, named by the inner
    /// page and index it sits at (`None` = unbounded).  The bound decides
    /// how far the next, larger probe key must pop before re-descending.
    path: Vec<(usize, Option<(usize, usize)>)>,
    /// Pages charged so far this batch (`charged[node id]`); all `false`
    /// between batches.
    charged: Vec<bool>,
    /// The pages set in `charged`, in charge order: what the batch read,
    /// and what its end resets.
    touched: Vec<usize>,
}

impl BatchState {
    /// Charge `node` unless this batch already has.
    fn charge(&mut self, node: usize, charge: &impl Fn(usize)) {
        if !self.charged[node] {
            self.charged[node] = true;
            self.touched.push(node);
            charge(node);
        }
    }
}

/// One page of a [`TreeImage`]: the physical content of a single slab
/// slot, with sibling links expressed as `Option` instead of the private
/// `NO_NODE` sentinel.
#[derive(Debug, Clone)]
pub enum NodeImage<L: Layout> {
    /// An inner page: `keys.len() + 1` child page ids.
    Inner {
        /// Separator keys.
        keys: Vec<L::Sep>,
        /// Child slab slots, one more than `keys`.
        children: Vec<usize>,
    },
    /// A leaf page with its right-sibling link.
    Leaf {
        /// The entries' elements in key order, `stride` per entry.
        entries: Vec<L::Elem>,
        /// Slab slot of the right sibling leaf, if any.
        next: Option<usize>,
    },
    /// A free slab slot (must appear on the image's free list).
    Free,
}

/// One slab slot by reference — what [`NodeImage`] owns, borrowed from
/// a slab ([`PageSlab::page`]), for serializers that write a page out
/// without cloning it first.
#[derive(Debug)]
pub enum PageRef<'a, L: Layout> {
    /// An inner page: `keys.len() + 1` child page ids.
    Inner {
        /// Separator keys.
        keys: &'a [L::Sep],
        /// Child slab slots, one more than `keys`.
        children: &'a [usize],
    },
    /// A leaf page with its right-sibling link.
    Leaf {
        /// The entries' elements in key order, `stride` per entry.
        entries: &'a [L::Elem],
        /// Slab slot of the right sibling leaf, if any.
        next: Option<usize>,
    },
    /// A free slab slot.
    Free,
}

impl<L: Layout> PageRef<'_, L> {
    /// Clone the page out into an owned [`NodeImage`].
    pub fn to_image(&self) -> NodeImage<L> {
        match *self {
            PageRef::Inner { keys, children } => NodeImage::Inner {
                keys: keys.to_vec(),
                children: children.to_vec(),
            },
            PageRef::Leaf { entries, next } => NodeImage::Leaf {
                entries: entries.to_vec(),
                next,
            },
            PageRef::Free => NodeImage::Free,
        }
    }
}

/// A page-faithful physical image of a B+ tree: the complete slab layout
/// (including free slots), free list and geometry.  Produced by
/// [`BTree::dump_image`] (or decoded off a checkpoint) and re-installed
/// by [`BTree::adopt_image`]; `dump ∘ adopt` is the identity, so a tree
/// restored from its image is physically indistinguishable from the
/// original — same pages, same sibling links, same future slot reuse.
#[derive(Debug, Clone)]
pub struct TreeImage<L: Layout> {
    /// Slab slot of the root page.
    pub root: usize,
    /// Tree height in levels, including the leaf level.
    pub height: usize,
    /// Number of stored entries.
    pub len: usize,
    /// Free slab slots in pop order (the last element is reused first).
    pub free: Vec<usize>,
    /// Every slab slot, free ones included.
    pub nodes: Vec<NodeImage<L>>,
}

impl<L: Layout> PartialEq for NodeImage<L>
where
    L::Elem: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                NodeImage::Inner { keys, children },
                NodeImage::Inner {
                    keys: k,
                    children: c,
                },
            ) => keys == k && children == c,
            (
                NodeImage::Leaf { entries, next },
                NodeImage::Leaf {
                    entries: e,
                    next: n,
                },
            ) => entries == e && next == n,
            (NodeImage::Free, NodeImage::Free) => true,
            _ => false,
        }
    }
}

impl<L: Layout> PartialEq for TreeImage<L>
where
    L::Elem: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        (self.root, self.height, self.len, &self.free)
            == (other.root, other.height, other.len, &other.free)
            && self.nodes == other.nodes
    }
}

impl<L: Layout> TreeImage<L> {
    /// Number of live (non-free) pages.
    pub fn live_pages(&self) -> usize {
        self.nodes.len() - self.free.len()
    }
}

/// A node slab produced by [`build_bulk`]: the stats-free output of a
/// bottom-up bulk load, which [`BTree::fill_entries`] adopts and charges.
#[derive(Debug)]
struct BulkNodes<L: Layout> {
    nodes: Vec<Node<L>>,
    root: usize,
    height: usize,
    len: usize,
}

/// Build a B+ tree node slab bottom-up from the elements of entries in
/// **strictly ascending** key order, `stride` per entry, without
/// charging any page accesses (see [`BulkNodes`]).  Leaves are packed to
/// ~90% occupancy with the tail adjusted to respect minimum fill.
fn build_bulk<L: Layout>(
    entries: Vec<L::Elem>,
    stride: usize,
    leaf_capacity: usize,
    inner_capacity: usize,
) -> Result<BulkNodes<L>> {
    assert!(leaf_capacity >= 2, "leaf capacity must be >= 2");
    assert!(inner_capacity >= 3, "inner capacity must be >= 3");
    if entries.len() % stride != 0 {
        return Err(PageSimError::CorruptStructure(format!(
            "bulk_load got {} elements, not whole entries of {stride}",
            entries.len()
        )));
    }
    let count = entries.len() / stride;
    for i in 1..count {
        if L::key(nth(&entries, stride, i - 1)) >= L::key(nth(&entries, stride, i)) {
            return Err(PageSimError::CorruptStructure(
                "bulk_load keys must be strictly ascending".into(),
            ));
        }
    }
    let mut nodes: Vec<Node<L>> = Vec::new();
    if count == 0 {
        nodes.push(Node::Leaf {
            entries: Vec::new(),
            next: NO_NODE,
        });
        return Ok(BulkNodes {
            nodes,
            root: 0,
            height: 1,
            len: 0,
        });
    }
    let target = ((leaf_capacity * 9) / 10).max(2);
    let plan = chunk_plan(count, target, leaf_capacity / 2, leaf_capacity);
    // `level` carries (node id, min key of its subtree) so separator keys
    // are known without re-walking the slab.
    // Cut each leaf off the tail of `entries`, which then gives those
    // bytes back, so no entry is held twice while the leaves are built.
    let mut entries = entries;
    let mut chunks: Vec<Vec<L::Elem>> = Vec::with_capacity(plan.len());
    for &size in plan.iter().rev() {
        chunks.push(entries.split_off(entries.len() - size * stride));
        entries.shrink_to_fit();
    }
    let mut level: Vec<(usize, L::Sep)> = Vec::with_capacity(plan.len());
    for chunk in chunks.into_iter().rev() {
        let min = L::sep(L::key(&chunk[..stride]));
        let id = nodes.len();
        nodes.push(Node::Leaf {
            entries: chunk,
            next: NO_NODE,
        });
        if let Some(&(prev, _)) = level.last() {
            let Node::Leaf { next, .. } = &mut nodes[prev] else {
                unreachable!()
            };
            *next = id;
        }
        level.push((id, min));
    }
    let inner_target = ((inner_capacity * 9) / 10).max(2);
    let min_children = inner_capacity.div_ceil(2);
    let mut height = 1usize;
    while level.len() > 1 {
        let plan = chunk_plan(level.len(), inner_target, min_children, inner_capacity);
        let mut parents: Vec<(usize, L::Sep)> = Vec::with_capacity(plan.len());
        let mut iter = level.into_iter();
        for size in plan {
            let mut group = iter.by_ref().take(size);
            let (first, min) = group.next().expect("chunks are never empty");
            let mut children = vec![first];
            let mut keys = Vec::with_capacity(size - 1);
            for (id, key) in group {
                children.push(id);
                keys.push(key);
            }
            let id = nodes.len();
            nodes.push(Node::Inner { keys, children });
            parents.push((id, min));
        }
        level = parents;
        height += 1;
    }
    let root = level[0].0;
    Ok(BulkNodes {
        nodes,
        root,
        height,
        len: count,
    })
}

#[derive(Debug, Clone)]
enum Node<L: Layout> {
    Inner {
        /// Separator keys; `keys.len() + 1 == children.len()`.
        /// `children[i]` holds keys `< keys[i]`; `children[i+1]` keys `>= keys[i]`.
        keys: Vec<L::Sep>,
        children: Vec<usize>,
    },
    Leaf {
        /// The entries' elements, `stride` per entry, in key order.
        entries: Vec<L::Elem>,
        next: usize,
    },
    /// Slab tombstone available for reuse.
    Free,
}

/// One slab slot's page: its node, and the length a serializer recorded
/// for this content ([`PageSlab::remember_encoded_len`]).  The length
/// goes with the page: a frozen version and the tree share it until the
/// tree writes the page, and a write forgets it (`PageSlab::node_mut`;
/// a copy starts without one).
#[derive(Debug)]
struct Page<L: Layout> {
    node: Node<L>,
    /// Encoded bytes, 0 while none is recorded.
    encoded: AtomicU32,
}

impl<L: Layout> From<Node<L>> for Page<L> {
    fn from(node: Node<L>) -> Self {
        Page {
            node,
            encoded: AtomicU32::new(0),
        }
    }
}

impl<L: Layout> Clone for Page<L> {
    fn clone(&self) -> Self {
        Page::from(self.node.clone())
    }
}

impl<L: Layout> std::ops::Deref for Page<L> {
    type Target = Node<L>;

    fn deref(&self) -> &Node<L> {
        &self.node
    }
}

/// A B+ tree's pages and geometry: everything a read walks, and nothing
/// it charges to.  A [`BTree`] keeps one and writes it in place;
/// [`BTree::freeze`] hands out a clone, an immutable version that
/// shares each `Arc`'d page with the tree until the tree next writes it.
///
/// The reads here take `charge`, called with the slab slot of every page
/// the read is charged for.
#[derive(Debug, Clone)]
pub struct PageSlab<L: Layout> {
    nodes: Vec<Arc<Page<L>>>,
    free: Vec<usize>,
    root: usize,
    /// Levels including the leaf level (empty tree = single empty leaf,
    /// height 1).
    height: usize,
    /// Elements per entry.
    stride: usize,
    leaf_capacity: usize,
    inner_capacity: usize,
    len: usize,
}

/// A slab's pages as of [`PageSlab::marks`]: one weak pointer per slot.
///
/// Weak, so a mark keeps no page content alive — only the allocation,
/// whose address therefore cannot be reused while the mark lives.  And
/// while a mark holds a page, the tree's first write to it moves the page
/// to a new allocation (`Arc::make_mut` never writes in place under a
/// weak pointer), so a page written since the mark never compares equal
/// to it.  The default marks are empty: every slot counts as changed.
#[derive(Debug)]
pub struct PageMarks<L: Layout>(Vec<Weak<Page<L>>>);

impl<L: Layout> Default for PageMarks<L> {
    fn default() -> Self {
        PageMarks(Vec::new())
    }
}

impl<L: Layout> PageMarks<L> {
    /// No slot marked: the default marks, which no live slab leaves (a
    /// tree always has its root page).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<L: Layout> PageSlab<L> {
    /// A single empty root leaf.
    fn empty(stride: usize, leaf_capacity: usize, inner_capacity: usize) -> Self {
        PageSlab {
            nodes: vec![Arc::new(Page::from(Node::Leaf {
                entries: Vec::new(),
                next: NO_NODE,
            }))],
            free: Vec::new(),
            root: 0,
            height: 1,
            stride,
            leaf_capacity,
            inner_capacity,
            len: 0,
        }
    }

    fn node(&self, id: usize) -> &Node<L> {
        &self.nodes[id]
    }

    /// Page `id` for writing: copied first if a frozen version still
    /// holds it, so every written page is copied at most once.  The
    /// page's recorded encoded length no longer holds and is forgotten.
    fn node_mut(&mut self, id: usize) -> &mut Node<L> {
        let page = Arc::make_mut(&mut self.nodes[id]);
        *page.encoded.get_mut() = 0;
        &mut page.node
    }

    /// The elements of leaf `id`.
    fn leaf(&self, id: usize) -> &[L::Elem] {
        match self.node(id) {
            Node::Leaf { entries, .. } => entries,
            _ => unreachable!("page {id} is not a leaf"),
        }
    }

    /// Entries in a leaf's `elements`.
    fn count(&self, elements: &[L::Elem]) -> usize {
        elements.len() / self.stride
    }

    /// Inner page `parent`'s separator `idx`.
    fn separator(&self, parent: usize, idx: usize) -> &L::Key {
        match self.node(parent) {
            Node::Inner { keys, .. } => keys[idx].borrow(),
            _ => unreachable!("page {parent} is not an inner page"),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the slab holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements per entry.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Tree height in levels, *including* the leaf level.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Maximum entries per leaf page (the paper's `atpp`).
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Maximum children per inner page (the paper's `B⁺fan`).
    pub fn inner_capacity(&self) -> usize {
        self.inner_capacity
    }

    /// Number of leaf pages (the paper's `ap^{i,j}`).
    pub fn leaf_page_count(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| matches!(****n, Node::Leaf { .. }))
            .count() as u64
    }

    /// Number of inner pages (the paper's `pg^{i,j}` without leaves).
    pub fn inner_page_count(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| matches!(****n, Node::Inner { .. }))
            .count() as u64
    }

    /// Total pages occupied by the tree.
    pub fn page_count(&self) -> u64 {
        self.leaf_page_count() + self.inner_page_count()
    }

    /// Slab slot of the root page.
    pub fn root_slot(&self) -> usize {
        self.root
    }

    /// Free slab slots in pop order (the last element is reused first).
    pub fn free_slots(&self) -> &[usize] {
        &self.free
    }

    /// Slab slots the tree occupies, free ones included.
    pub fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// Mark the slab as it is now, so [`PageSlab::changed_since`] can later
    /// tell which pages a version does not share with this one.  The marks
    /// hold no page content.
    pub fn marks(&self) -> PageMarks<L> {
        PageMarks(self.nodes.iter().map(Arc::downgrade).collect())
    }

    /// The slots, ascending, whose page is not the one `marks` recorded:
    /// pages written, allocated or freed since, and slots past the marked
    /// slab's end.  Empty marks report every slot.
    pub fn changed_since<'a>(
        &'a self,
        marks: &'a PageMarks<L>,
    ) -> impl Iterator<Item = usize> + 'a {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(move |(slot, page)| {
                let shared = marks
                    .0
                    .get(slot)
                    .is_some_and(|mark| std::ptr::eq(Arc::as_ptr(page), mark.as_ptr()));
                (!shared).then_some(slot)
            })
    }

    /// Slab slot `slot` by reference — [`BTree::dump_image`] without
    /// the clone.  Charges nothing.
    ///
    /// # Panics
    ///
    /// When `slot >= self.slot_count()`.
    pub fn page(&self, slot: usize) -> PageRef<'_, L> {
        match self.node(slot) {
            Node::Inner { keys, children } => PageRef::Inner { keys, children },
            Node::Leaf { entries, next } => PageRef::Leaf {
                entries,
                next: (*next != NO_NODE).then_some(*next),
            },
            Node::Free => PageRef::Free,
        }
    }

    /// The encoded length recorded for slot `slot`'s page since it was
    /// last written ([`Self::remember_encoded_len`]), if any.
    ///
    /// # Panics
    ///
    /// When `slot >= self.slot_count()`.
    pub fn encoded_len(&self, slot: usize) -> Option<usize> {
        match self.nodes[slot].encoded.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n as usize),
        }
    }

    /// Record that slot `slot`'s page, as it is now, encodes to `len`
    /// bytes — what a checkpoint writer learns writing the page and a
    /// reader decoding it.  Every version sharing the page sees it, and
    /// the next write of the page forgets it.  Lengths of 0 or over
    /// `u32::MAX` are not recorded.
    ///
    /// # Panics
    ///
    /// When `slot >= self.slot_count()`.
    pub fn remember_encoded_len(&self, slot: usize, len: usize) {
        let len = u32::try_from(len).unwrap_or(0);
        self.nodes[slot].encoded.store(len, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// The entry stored under `key`, if any: a root-to-leaf descent,
    /// each page charged.
    pub fn get_entry(&self, key: &L::Key, charge: &impl Fn(usize)) -> Option<&[L::Elem]> {
        let mut node = self.root;
        loop {
            charge(node);
            match self.node(node) {
                Node::Inner { keys, children } => node = children[child_index::<L>(keys, key)],
                Node::Leaf { entries, .. } => {
                    let at = partition_point::<L>(entries, self.stride, |k| k < key);
                    return (at < self.count(entries))
                        .then(|| nth(entries, self.stride, at))
                        .filter(|entry| L::key(entry) == key);
                }
                Node::Free => unreachable!("descended into freed node"),
            }
        }
    }

    /// Visit the entries of `range`, in key order.  Charges one read per
    /// level of the descent to the first leaf, then one per additional
    /// leaf.
    pub fn scan_range<'a>(
        &'a self,
        range: &impl KeyRange<L::Key>,
        charge: &impl Fn(usize),
        mut visit: impl FnMut(&'a [L::Elem]),
    ) {
        let lo = range.start();
        let mut node = self.root;
        loop {
            charge(node);
            match self.node(node) {
                Node::Inner { keys, children } => {
                    node = match lo {
                        Bound::Included(key) | Bound::Excluded(key) => {
                            children[child_index::<L>(keys, key)]
                        }
                        // Walk down the left spine.
                        Bound::Unbounded => children[0],
                    };
                }
                Node::Leaf { .. } => break,
                Node::Free => unreachable!("descended into freed node"),
            }
        }
        let mut leaf = node;
        let mut start = start_index::<L>(self.leaf(leaf), self.stride, lo);
        loop {
            let Node::Leaf { entries, next } = self.node(leaf) else {
                unreachable!()
            };
            for entry in entries[start * self.stride..].chunks_exact(self.stride) {
                if !range.holds(L::key(entry)) {
                    return;
                }
                visit(entry);
            }
            if *next == NO_NODE {
                return;
            }
            leaf = *next;
            start = 0;
            charge(leaf);
        }
    }

    /// Visit every entry in key order: the left spine, then the whole
    /// leaf level, each page charged once.
    pub fn scan_all<'a>(&'a self, charge: impl Fn(usize), visit: impl FnMut(&'a [L::Elem])) {
        let all: (Bound<&L::Key>, Bound<&L::Key>) = (Bound::Unbounded, Bound::Unbounded);
        self.scan_range(&all, &charge, visit)
    }

    /// Visit, in key order, the entries of each of `ranges` — a batch of
    /// probes whose lower bounds must be **ascending** (`BTreeSet`
    /// iteration order qualifies).  One logical root-to-leaf descent is
    /// performed per run of adjacent probes, leaves are walked via sibling
    /// links, and every internal/leaf page is charged **at most once for
    /// the whole batch** — adjacent probes stop re-reading the same root,
    /// inner, and leaf pages.
    ///
    /// `visit` receives the index of the originating range along with each
    /// entry.  The returned [`BatchReport`] compares the pages actually
    /// charged against what a standalone scan of each range would have
    /// cost.
    ///
    /// An `Unbounded` lower bound restarts the descent at the leftmost
    /// leaf and is only meaningful as the first range of a batch.
    pub fn scan_ranges_sorted<R: KeyRange<L::Key>>(
        &self,
        ranges: impl IntoIterator<Item = R>,
        charge: impl Fn(usize),
        visit: impl FnMut(usize, &[L::Elem]),
    ) -> BatchReport {
        self.scan_batch(&mut BatchState::default(), ranges, &charge, visit)
    }

    /// Descend to the leaf responsible for `key` (`None` = leftmost
    /// leaf), reusing the surviving prefix of the previous probe's path
    /// and charging only pages not yet touched this batch.
    fn batch_descend(
        &self,
        st: &mut BatchState,
        key: Option<&L::Key>,
        charge: &impl Fn(usize),
    ) -> usize {
        match key {
            Some(key) => {
                // Pop frames whose subtree upper bound the key has passed.
                while st.path.last().is_some_and(|&(_, hi)| {
                    hi.is_some_and(|(parent, idx)| key >= self.separator(parent, idx))
                }) {
                    st.path.pop();
                }
            }
            None => st.path.clear(),
        }
        let (mut node, mut hi, mut on_path) = match st.path.last() {
            Some(&(n, h)) => (n, h, true),
            None => (self.root, None, false),
        };
        loop {
            st.charge(node, charge);
            match self.node(node) {
                Node::Inner { keys, children } => {
                    if !on_path {
                        st.path.push((node, hi));
                    }
                    on_path = false;
                    let idx = match key {
                        Some(key) => child_index::<L>(keys, key),
                        None => 0,
                    };
                    if idx < keys.len() {
                        hi = Some((node, idx));
                    }
                    node = children[idx];
                }
                Node::Leaf { .. } => return node,
                Node::Free => unreachable!("descended into freed node"),
            }
        }
    }

    /// [`PageSlab::scan_ranges_sorted`] on the caller's batch scratch.
    fn scan_batch<R: KeyRange<L::Key>>(
        &self,
        st: &mut BatchState,
        ranges: impl IntoIterator<Item = R>,
        charge: &impl Fn(usize),
        mut visit: impl FnMut(usize, &[L::Elem]),
    ) -> BatchReport {
        st.charged.resize(self.nodes.len(), false);
        let mut report = BatchReport::default();
        let mut prev: Option<R> = None;
        for (range_idx, range) in ranges.into_iter().enumerate() {
            report.probes += 1;
            let key = match range.start() {
                Bound::Included(k) | Bound::Excluded(k) => Some(k),
                Bound::Unbounded => None,
            };
            if let (Some(prev), Some(k)) = (&prev, key) {
                debug_assert!(
                    match prev.start() {
                        Bound::Included(p) | Bound::Excluded(p) => p <= k,
                        Bound::Unbounded => true,
                    },
                    "scan_ranges_sorted: lower bounds must ascend"
                );
            }
            let mut leaf = self.batch_descend(st, key, charge);
            let mut start = start_index::<L>(self.leaf(leaf), self.stride, range.start());
            let mut leaves_visited = 1u64;
            'walk: loop {
                let Node::Leaf { entries, next } = self.node(leaf) else {
                    unreachable!()
                };
                for entry in entries[start * self.stride..].chunks_exact(self.stride) {
                    if !range.holds(L::key(entry)) {
                        break 'walk;
                    }
                    visit(range_idx, entry);
                }
                if *next == NO_NODE {
                    break;
                }
                leaf = *next;
                start = 0;
                st.charge(leaf, charge);
                leaves_visited += 1;
            }
            // A standalone scan of this range descends the full height and
            // then charges each additional leaf it walks.
            report.naive_pages += self.height as u64 + (leaves_visited - 1);
            prev = Some(range);
        }
        // Reset only the pages this batch charged, and its path.
        report.pages_read = st.touched.len() as u64;
        for node in st.touched.drain(..) {
            st.charged[node] = false;
        }
        st.path.clear();
        report
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests / debugging)
    // ------------------------------------------------------------------

    fn min_leaf(&self) -> usize {
        self.leaf_capacity / 2
    }

    fn min_children(&self) -> usize {
        self.inner_capacity.div_ceil(2)
    }

    /// Verify all structural invariants; returns a descriptive error on the
    /// first violation.  Charges no page accesses.
    pub fn check_invariants(&self) -> Result<()> {
        let mut leaf_depths = Vec::new();
        let mut count = 0usize;
        self.check_node(self.root, 1, None, None, &mut leaf_depths, &mut count)?;
        if let Some(&d) = leaf_depths.first() {
            if leaf_depths.iter().any(|&x| x != d) {
                return Err(PageSimError::CorruptStructure(
                    "leaves at differing depths".into(),
                ));
            }
            if d != self.height {
                return Err(PageSimError::CorruptStructure(format!(
                    "height field {} != actual depth {d}",
                    self.height
                )));
            }
        }
        if count != self.len {
            return Err(PageSimError::CorruptStructure(format!(
                "len field {} != actual entry count {count}",
                self.len
            )));
        }
        // Leaf chain must enumerate all entries in ascending order: each
        // leaf is sorted (checked above), so only the seams are compared.
        let mut chained = 0usize;
        let mut prev: Option<&L::Key> = None;
        let mut leaf = self.leftmost_leaf();
        loop {
            let Node::Leaf { entries, next } = self.node(leaf) else {
                return Err(PageSimError::CorruptStructure(
                    "leaf chain hit non-leaf".into(),
                ));
            };
            let n = self.count(entries);
            if n > 0 {
                let first = L::key(nth(entries, self.stride, 0));
                if prev.is_some_and(|p| p >= first) {
                    return Err(PageSimError::CorruptStructure(
                        "leaf chain out of order".into(),
                    ));
                }
                prev = Some(L::key(nth(entries, self.stride, n - 1)));
            }
            chained += n;
            if *next == NO_NODE {
                break;
            }
            leaf = *next;
        }
        if chained != self.len {
            return Err(PageSimError::CorruptStructure(format!(
                "leaf chain enumerates {chained} entries, len is {}",
                self.len
            )));
        }
        Ok(())
    }

    fn leftmost_leaf(&self) -> usize {
        let mut node = self.root;
        loop {
            match self.node(node) {
                Node::Inner { children, .. } => node = children[0],
                Node::Leaf { .. } => return node,
                Node::Free => unreachable!(),
            }
        }
    }

    fn check_node(
        &self,
        node: usize,
        depth: usize,
        lo: Option<&L::Key>,
        hi: Option<&L::Key>,
        leaf_depths: &mut Vec<usize>,
        count: &mut usize,
    ) -> Result<()> {
        let corrupt = |msg: String| Err(PageSimError::CorruptStructure(msg));
        match self.node(node) {
            Node::Free => corrupt(format!("reachable node {node} is free")),
            Node::Leaf { entries, .. } => {
                let n = self.count(entries);
                if entries.len() != n * self.stride {
                    return corrupt(format!("leaf {node} holds a partial entry"));
                }
                if node != self.root && n < self.min_leaf() {
                    return corrupt(format!("leaf {node} underfull: {n}"));
                }
                if n > self.leaf_capacity {
                    return corrupt(format!("leaf {node} overfull: {n}"));
                }
                for i in 1..n {
                    if L::key(nth(entries, self.stride, i - 1))
                        >= L::key(nth(entries, self.stride, i))
                    {
                        return corrupt(format!("leaf {node} keys unsorted"));
                    }
                }
                // Sorted, so the ends bound every key.
                if n > 0 {
                    let (first, last) = (
                        L::key(nth(entries, self.stride, 0)),
                        L::key(nth(entries, self.stride, n - 1)),
                    );
                    if lo.is_some_and(|l| first < l) || hi.is_some_and(|h| last >= h) {
                        return corrupt(format!("leaf {node} key outside separator bounds"));
                    }
                }
                *count += n;
                leaf_depths.push(depth);
                Ok(())
            }
            Node::Inner { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return corrupt(format!("inner {node} arity mismatch"));
                }
                if node != self.root && children.len() < self.min_children() {
                    return corrupt(format!("inner {node} underfull"));
                }
                if children.len() > self.inner_capacity {
                    return corrupt(format!("inner {node} overfull"));
                }
                for w in keys.windows(2) {
                    if w[0].borrow() >= w[1].borrow() {
                        return corrupt(format!("inner {node} keys unsorted"));
                    }
                }
                for (i, &child) in children.iter().enumerate() {
                    let child_lo = if i == 0 {
                        lo
                    } else {
                        Some(keys[i - 1].borrow())
                    };
                    let child_hi = if i == keys.len() {
                        hi
                    } else {
                        Some(keys[i].borrow())
                    };
                    self.check_node(child, depth + 1, child_lo, child_hi, leaf_depths, count)?;
                }
                Ok(())
            }
        }
    }
}

/// A B+ tree with page-access accounting.
///
/// Keys must be unique; composite keys give multi-map behaviour.
#[derive(Debug)]
pub struct BTree<L: Layout> {
    pages: PageSlab<L>,
    stats: StatsHandle,
    buffer: RefCell<BufferPool>,
    /// The batched-probe scratch, parked between batches.
    batch: RefCell<BatchState>,
}

impl<K: Ord + Clone + Debug, V: Clone + Debug> BTree<Pairs<K, V>> {
    /// Create a tree whose leaf entries occupy `entry_size` bytes and whose
    /// inner-node keys occupy `key_size` bytes.
    ///
    /// Capacities are floored at 2 entries / 3 children so degenerate sizes
    /// (entries larger than half a page) still yield a working tree.
    pub fn new(entry_size: usize, key_size: usize, stats: StatsHandle) -> Self {
        BTree::with_geometry(1, entry_size, key_size, stats)
    }

    /// Create a tree with explicit node capacities (used by tests to force
    /// deep trees with few keys).
    pub fn with_capacities(
        leaf_capacity: usize,
        inner_capacity: usize,
        stats: StatsHandle,
    ) -> Self {
        BTree::with_layout(1, leaf_capacity, inner_capacity, stats)
    }

    /// Point lookup.  Charges `height` page reads.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_entry(key).map(|entry| entry[0].1.clone())
    }

    /// Visit all entries with `lo <= key < hi` (half-open), in key order.
    /// Charges the initial descent plus one read per additional leaf.
    pub fn scan_range(&self, lo: Bound<&K>, hi: Bound<&K>, mut visit: impl FnMut(&K, &V)) {
        self.scan_entries(&(lo, hi), |entry| visit(&entry[0].0, &entry[0].1))
    }

    /// Collect a half-open range `[lo, hi)` into a vector.
    pub fn range_collect(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.scan_range(Bound::Included(lo), Bound::Excluded(hi), |k, v| {
            out.push((k.clone(), v.clone()))
        });
        out
    }

    /// Visit every entry in key order (full leaf-level scan).
    pub fn scan_all(&self, visit: impl FnMut(&K, &V)) {
        self.scan_range(Bound::Unbounded, Bound::Unbounded, visit)
    }

    /// [`BTree::probe_sorted`] over `(lo, hi)` bound pairs.
    pub fn scan_ranges_sorted<B: Borrow<K>>(
        &self,
        ranges: impl IntoIterator<Item = (Bound<B>, Bound<B>)>,
        mut visit: impl FnMut(usize, &K, &V),
    ) -> BatchReport {
        self.probe_sorted(ranges, |idx, entry| visit(idx, &entry[0].0, &entry[0].1))
    }

    /// Insert a unique key.  Charges the descent reads plus one write per
    /// modified node (leaf, split siblings, updated ancestors).
    pub fn insert(&mut self, key: K, value: V) -> Result<()> {
        let at = self.locate(&key)?;
        self.place(at, [(key, value)]);
        Ok(())
    }

    /// Remove `key`, returning its value if present.  Rebalances by
    /// borrowing from or merging with siblings.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.remove_entry(key)
            .map(|entry| entry.into_iter().next().expect("one pair per entry").1)
    }

    /// Build a tree bottom-up from **strictly ascending** `(key, value)`
    /// pairs — the classic bulk-load used when an access relation is
    /// (re)built from a computed extension.  Charges one page write per
    /// created node, which is far cheaper than the read-modify-write
    /// churn of repeated [`BPlusTree::insert`]s.
    ///
    /// Returns an error if the keys are not strictly ascending.
    pub fn bulk_load(
        entries: impl IntoIterator<Item = (K, V)>,
        entry_size: usize,
        key_size: usize,
        stats: StatsHandle,
    ) -> Result<Self> {
        let mut tree = Self::new(entry_size, key_size, stats);
        tree.fill(entries)?;
        Ok(tree)
    }

    /// Bulk-load into an (empty) tree with already-configured capacities,
    /// charging one page write per node built.
    pub fn fill(&mut self, entries: impl IntoIterator<Item = (K, V)>) -> Result<()> {
        self.fill_entries(entries.into_iter().collect())
    }
}

impl<T: Ord + Clone + Debug> BTree<Rows<T>> {
    /// Create a tree of rows of `width` cells whose leaf entries occupy
    /// `entry_size` bytes and whose inner-node keys occupy `key_size`
    /// bytes (the paper prices a separator as one OID, whatever the row
    /// it copies).
    pub fn new(width: usize, entry_size: usize, key_size: usize, stats: StatsHandle) -> Self {
        assert!(width > 0, "rows have at least one cell");
        BTree::with_geometry(width, entry_size, key_size, stats)
    }

    /// Store `row`, which must not be stored yet.  Charges the descent
    /// reads plus one write per modified node.
    pub fn insert(&mut self, row: &[T]) -> Result<()> {
        let at = self.locate(row)?;
        self.place(at, row.iter().cloned());
        Ok(())
    }

    /// Remove `row`; returns whether it was stored.
    pub fn remove(&mut self, row: &[T]) -> bool {
        self.remove_entry(row).is_some()
    }
}

/// Where an insert lands: the leaf, the inner pages above it with the
/// child index taken at each, and the position inside the leaf.
type Slot = (usize, Vec<(usize, usize)>, usize);

impl<L: Layout> BTree<L> {
    /// A tree of entries of `stride` elements, occupying `entry_size`
    /// bytes each, separated by keys of `key_size` bytes.
    fn with_geometry(
        stride: usize,
        entry_size: usize,
        key_size: usize,
        stats: StatsHandle,
    ) -> Self {
        let leaf_capacity = (PAGE_SIZE / entry_size.max(1)).max(2);
        let inner_capacity = (PAGE_SIZE / (key_size.max(1) + PP_SIZE)).max(3);
        Self::with_layout(stride, leaf_capacity, inner_capacity, stats)
    }

    /// A tree of entries of `stride` elements with explicit capacities.
    pub fn with_layout(
        stride: usize,
        leaf_capacity: usize,
        inner_capacity: usize,
        stats: StatsHandle,
    ) -> Self {
        assert!(leaf_capacity >= 2, "leaf capacity must be >= 2");
        assert!(inner_capacity >= 3, "inner capacity must be >= 3");
        BTree {
            pages: PageSlab::empty(stride, leaf_capacity, inner_capacity),
            stats,
            buffer: RefCell::new(BufferPool::unbuffered()),
            batch: RefCell::default(),
        }
    }

    /// Replace the (default pass-through) buffer pool. The tree's
    /// structure tag (if any) carries over to the new pool.
    pub fn set_buffer(&mut self, mut pool: BufferPool) {
        pool.set_structure(self.buffer.borrow().structure());
        self.buffer = RefCell::new(pool);
    }

    /// Register this tree under `label` in the stats registry so its page
    /// traffic is attributable (see [`IoStats::register_structure`]).
    ///
    /// [`IoStats::register_structure`]: crate::stats::IoStats::register_structure
    pub fn tag(&mut self, label: impl Into<String>) -> crate::stats::StructureId {
        let sid = self
            .stats
            .register_structure(crate::stats::StructureKind::BTree, label);
        self.buffer.borrow_mut().set_structure(sid);
        sid
    }

    /// The structure id this tree's charges are attributed to
    /// ([`StructureId::UNTRACKED`] before [`BTree::tag`]).
    ///
    /// [`StructureId::UNTRACKED`]: crate::stats::StructureId::UNTRACKED
    pub fn structure_id(&self) -> crate::stats::StructureId {
        self.buffer.borrow().structure()
    }

    /// The tree's pages, borrowed: geometry, page-by-page access, and the
    /// reads a frozen version serves.
    pub fn pages(&self) -> &PageSlab<L> {
        &self.pages
    }

    /// An immutable version of the tree as it is now: a copy of the slab's
    /// page pointers, sharing every page with the tree until the tree
    /// next writes it.  Copies no entry and charges nothing.
    pub fn freeze(&self) -> PageSlab<L> {
        self.pages.clone()
    }

    /// The shared statistics handle.
    pub fn stats(&self) -> &StatsHandle {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Page accounting helpers
    // ------------------------------------------------------------------

    fn charge_read(&self, node: usize) {
        self.buffer.borrow_mut().read(node as u64, &self.stats);
    }

    fn charge_write(&self, node: usize) {
        self.buffer.borrow_mut().write(node as u64, &self.stats);
    }

    fn alloc(&mut self, node: Node<L>) -> usize {
        let node = Arc::new(Page::from(node));
        match self.pages.free.pop() {
            Some(id) => {
                self.pages.nodes[id] = node;
                id
            }
            None => {
                self.pages.nodes.push(node);
                self.pages.nodes.len() - 1
            }
        }
    }

    /// Free slot `id`, returning the page it held.
    fn release(&mut self, id: usize) -> Arc<Page<L>> {
        let page = std::mem::replace(&mut self.pages.nodes[id], Arc::new(Page::from(Node::Free)));
        self.pages.free.push(id);
        page
    }

    /// Walk from the root to the leaf responsible for `key`, charging one
    /// read per level and recording `(node, child index)` for each inner
    /// node on the way.
    fn descend(&self, key: &L::Key) -> (usize, Vec<(usize, usize)>) {
        let mut path = Vec::with_capacity(self.pages.height);
        let mut node = self.pages.root;
        loop {
            self.charge_read(node);
            match self.pages.node(node) {
                Node::Inner { keys, children } => {
                    let idx = child_index::<L>(keys, key);
                    path.push((node, idx));
                    node = children[idx];
                }
                Node::Leaf { .. } => return (node, path),
                Node::Free => unreachable!("descended into freed node"),
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// The entry stored under `key`: a point lookup charging `height`
    /// page reads.
    fn get_entry(&self, key: &L::Key) -> Option<&[L::Elem]> {
        self.pages.get_entry(key, &|slot| self.charge_read(slot))
    }

    /// Visit the entries of `range` in key order.  Charges the initial
    /// descent plus one read per additional leaf.
    pub fn scan_entries(&self, range: &impl KeyRange<L::Key>, visit: impl FnMut(&[L::Elem])) {
        self.pages
            .scan_range(range, &|slot| self.charge_read(slot), visit)
    }

    /// Visit every entry in key order (full leaf-level scan), each page
    /// charged once.
    pub fn visit_all(&self, visit: impl FnMut(&[L::Elem])) {
        self.pages.scan_all(|slot| self.charge_read(slot), visit)
    }

    /// [`PageSlab::scan_ranges_sorted`] on the live pages, charged through
    /// the buffer pool on the shared [`IoStats`](crate::IoStats), whose
    /// batch counters also accumulate the returned [`BatchReport`].
    pub fn probe_sorted<R: KeyRange<L::Key>>(
        &self,
        ranges: impl IntoIterator<Item = R>,
        visit: impl FnMut(usize, &[L::Elem]),
    ) -> BatchReport {
        // A batch started inside another's visitor finds the parked
        // scratch taken and grows its own.
        let mut st = self.batch.take();
        let report = self
            .pages
            .scan_batch(&mut st, ranges, &|slot| self.charge_read(slot), visit);
        *self.batch.borrow_mut() = st;
        self.stats.count_batch(report.probes, report.pages_saved());
        report
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Where an entry keyed `key` is inserted; charges the descent reads.
    /// An error if the key is stored already.
    fn locate(&self, key: &L::Key) -> Result<Slot> {
        let (leaf, path) = self.descend(key);
        let entries = self.pages.leaf(leaf);
        let stride = self.pages.stride;
        let pos = partition_point::<L>(entries, stride, |k| k < key);
        if pos < self.pages.count(entries) && L::key(nth(entries, stride, pos)) == key {
            return Err(PageSimError::DuplicateKey(format!("{key:?}")));
        }
        Ok((leaf, path, pos))
    }

    /// Insert one entry's elements where [`Self::locate`] found room for
    /// them.  Charges one write per modified node (leaf, split siblings,
    /// updated ancestors).
    fn place(&mut self, (leaf, mut path, pos): Slot, entry: impl IntoIterator<Item = L::Elem>) {
        let at = pos * self.pages.stride;
        let Node::Leaf { entries, .. } = self.pages.node_mut(leaf) else {
            unreachable!()
        };
        entries.splice(at..at, entry);
        self.pages.len += 1;
        self.charge_write(leaf);

        // Split propagation.
        let mut child = leaf;
        loop {
            let (split_key, new_node) = match self.split_if_overfull(child) {
                Some(split) => split,
                None => break,
            };
            match path.pop() {
                Some((parent, child_idx)) => {
                    let Node::Inner { keys, children } = self.pages.node_mut(parent) else {
                        unreachable!()
                    };
                    keys.insert(child_idx, split_key);
                    children.insert(child_idx + 1, new_node);
                    self.charge_write(parent);
                    child = parent;
                }
                None => {
                    // Root split: grow the tree by one level.
                    let old_root = self.pages.root;
                    let new_root = self.alloc(Node::Inner {
                        keys: vec![split_key],
                        children: vec![old_root, new_node],
                    });
                    self.pages.root = new_root;
                    self.pages.height += 1;
                    self.charge_write(new_root);
                    break;
                }
            }
        }
    }

    /// If the just-written `node` exceeds its capacity, split it and
    /// return the separator key plus the new right sibling.
    fn split_if_overfull(&mut self, node: usize) -> Option<(L::Sep, usize)> {
        let (stride, leaf_capacity, inner_capacity) = (
            self.pages.stride,
            self.pages.leaf_capacity,
            self.pages.inner_capacity,
        );
        match self.pages.node_mut(node) {
            Node::Leaf { entries, next } => {
                let n = entries.len() / stride;
                if n <= leaf_capacity {
                    return None;
                }
                let right_entries = entries.split_off(n / 2 * stride);
                let right_next = *next;
                let separator = L::sep(L::key(&right_entries[..stride]));
                let right = self.alloc(Node::Leaf {
                    entries: right_entries,
                    next: right_next,
                });
                let Node::Leaf { next, .. } = self.pages.node_mut(node) else {
                    unreachable!()
                };
                *next = right;
                self.charge_write(node);
                self.charge_write(right);
                Some((separator, right))
            }
            Node::Inner { keys, children } => {
                if children.len() <= inner_capacity {
                    return None;
                }
                let mid = keys.len() / 2;
                // keys[mid] moves up; right gets keys[mid+1..] and
                // children[mid+1..].
                let right_keys = keys.split_off(mid + 1);
                let separator = keys.pop().expect("mid key exists");
                let right_children = children.split_off(mid + 1);
                let right = self.alloc(Node::Inner {
                    keys: right_keys,
                    children: right_children,
                });
                self.charge_write(node);
                self.charge_write(right);
                Some((separator, right))
            }
            Node::Free => unreachable!(),
        }
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    /// Bulk-load the elements of entries in **strictly ascending** key
    /// order, `stride` per entry, into this (empty) tree, bottom-up:
    /// charges one page write per node built.  An error if the keys are
    /// not strictly ascending.
    pub fn fill_entries(&mut self, entries: Vec<L::Elem>) -> Result<()> {
        assert!(self.pages.is_empty(), "fill() requires an empty tree");
        let built = build_bulk::<L>(
            entries,
            self.pages.stride,
            self.pages.leaf_capacity,
            self.pages.inner_capacity,
        )?;
        if built.len == 0 {
            return Ok(()); // stays the empty root leaf
        }
        self.buffer.borrow_mut().invalidate();
        self.pages.nodes = (built.nodes.into_iter())
            .map(|n| Arc::new(Page::from(n)))
            .collect();
        self.pages.free.clear();
        self.pages.root = built.root;
        self.pages.height = built.height;
        self.pages.len = built.len;
        for node in 0..self.pages.nodes.len() {
            self.charge_write(node);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Physical images (checkpoint dump / restore)
    // ------------------------------------------------------------------

    /// Capture the tree's complete physical state — slab layout, free
    /// list, geometry — as a [`TreeImage`].  Charges nothing: dumping is
    /// the serializer's concern; the writer layer prices the snapshot
    /// bytes it emits.
    pub fn dump_image(&self) -> TreeImage<L> {
        let pages = &self.pages;
        TreeImage {
            root: pages.root,
            height: pages.height,
            len: pages.len,
            free: pages.free.clone(),
            nodes: (0..pages.nodes.len())
                .map(|slot| pages.page(slot).to_image())
                .collect(),
        }
    }

    /// Adopt a physical image into this empty tree.  Adoption itself
    /// charges nothing: the image's bytes came off whatever medium the
    /// caller read them from, and that read is the caller's to price —
    /// typically via [`BTree::charge_restore_reads`] so the cost
    /// attributes to this tree's structure id (tag first).
    ///
    /// The image is validated with bounded, panic-proof checks before
    /// anything is installed: out-of-range page references, reference
    /// cycles, free-list inconsistencies, depth or capacity violations,
    /// partial entries and broken leaf chains all yield a descriptive
    /// [`PageSimError::CorruptStructure`].  Semantic invariants (key
    /// order, separator bounds, fill factors) are then verified via
    /// [`BTree::check_invariants`]; on failure the tree is rolled
    /// back to pristine empty state — nothing charged — so the caller
    /// can fall back to a rebuild.
    pub fn adopt_image(&mut self, image: TreeImage<L>) -> Result<()> {
        assert!(
            self.pages.is_empty(),
            "adopt_image() requires an empty tree"
        );
        self.validate_image(&image)?;
        let TreeImage {
            root,
            height,
            len,
            free,
            nodes,
        } = image;
        self.buffer.borrow_mut().invalidate();
        self.pages.nodes = nodes
            .into_iter()
            .map(|n| {
                Arc::new(Page::from(match n {
                    NodeImage::Inner { keys, children } => Node::Inner { keys, children },
                    NodeImage::Leaf { entries, next } => Node::Leaf {
                        entries,
                        next: next.unwrap_or(NO_NODE),
                    },
                    NodeImage::Free => Node::Free,
                }))
            })
            .collect();
        self.pages.free = free;
        self.pages.root = root;
        self.pages.height = height;
        self.pages.len = len;
        if let Err(e) = self.check_invariants() {
            self.reset_to_empty();
            return Err(e);
        }
        Ok(())
    }

    /// Charge `pages` reads attributed to this tree's structure id —
    /// how a snapshot loader prices pulling this tree's serialized image
    /// in from the snapshot medium after [`BTree::adopt_image`].
    /// Bypasses the buffer pool: these are reads of the snapshot file,
    /// not of the tree's own resident pages.
    pub fn charge_restore_reads(&self, pages: u64) {
        let sid = self.structure_id();
        for _ in 0..pages {
            self.stats.count_read_for(sid);
        }
    }

    /// Roll back to the pristine empty state (single empty root leaf),
    /// keeping stats handle, capacities and structure tag.
    fn reset_to_empty(&mut self) {
        self.pages = PageSlab::empty(
            self.pages.stride,
            self.pages.leaf_capacity,
            self.pages.inner_capacity,
        );
        self.buffer.borrow_mut().invalidate();
    }

    /// Structural safety checks on an untrusted image.  Every walk here is
    /// bounded by the slab size, so adversarial images (cycles, shared
    /// pages, runaway chains) terminate with an error instead of looping
    /// or overflowing the stack.
    fn validate_image(&self, image: &TreeImage<L>) -> Result<()> {
        let corrupt =
            |msg: String| Err(PageSimError::CorruptStructure(format!("tree image: {msg}")));
        let n = image.nodes.len();
        if n == 0 {
            return corrupt("no pages".into());
        }
        if image.root >= n {
            return corrupt(format!("root {} out of bounds ({n} pages)", image.root));
        }
        if image.height == 0 {
            return corrupt("height 0".into());
        }
        // The free list and the slab must agree on which slots are free.
        let mut is_free = vec![false; n];
        for &f in &image.free {
            if f >= n {
                return corrupt(format!("free slot {f} out of bounds"));
            }
            if is_free[f] {
                return corrupt(format!("free slot {f} listed twice"));
            }
            is_free[f] = true;
        }
        for (id, node) in image.nodes.iter().enumerate() {
            if is_free[id] != matches!(node, NodeImage::Free) {
                return corrupt(format!("slot {id}: free list and page kind disagree"));
            }
        }
        // Bounded BFS from the root: every live page reachable exactly
        // once, children in bounds, uniform leaf depth, page capacities
        // respected, inner fan-out >= 2 (bounds the height of the later
        // recursive invariant check).
        let live = n - image.free.len();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((image.root, 1usize));
        seen[image.root] = true;
        let mut visited = 0usize;
        let mut entry_count = 0usize;
        let mut leaves = 0usize;
        let stride = self.pages.stride;
        while let Some((id, depth)) = queue.pop_front() {
            visited += 1;
            match &image.nodes[id] {
                NodeImage::Free => return corrupt(format!("page {id} reachable but free")),
                NodeImage::Inner { keys, children } => {
                    if depth >= image.height {
                        return corrupt(format!("inner page {id} at or below leaf depth"));
                    }
                    if children.len() < 2 {
                        return corrupt(format!("inner page {id} has {} children", children.len()));
                    }
                    if children.len() != keys.len() + 1 {
                        return corrupt(format!(
                            "inner page {id}: {} keys for {} children",
                            keys.len(),
                            children.len()
                        ));
                    }
                    if children.len() > self.pages.inner_capacity {
                        return corrupt(format!("inner page {id} exceeds fan-out"));
                    }
                    for &c in children {
                        if c >= n {
                            return corrupt(format!("child {c} of page {id} out of bounds"));
                        }
                        if seen[c] {
                            return corrupt(format!("page {c} referenced twice"));
                        }
                        seen[c] = true;
                        queue.push_back((c, depth + 1));
                    }
                }
                NodeImage::Leaf { entries, next } => {
                    if depth != image.height {
                        return corrupt(format!("leaf page {id} at depth {depth}"));
                    }
                    if entries.len() % stride != 0 {
                        return corrupt(format!("leaf page {id} holds a partial entry"));
                    }
                    if entries.len() / stride > self.pages.leaf_capacity {
                        return corrupt(format!("leaf page {id} overfull"));
                    }
                    entry_count += entries.len() / stride;
                    leaves += 1;
                    if let Some(nx) = next {
                        if *nx >= n {
                            return corrupt(format!("leaf {id} sibling link out of bounds"));
                        }
                    }
                }
            }
        }
        if visited != live {
            return corrupt(format!("{live} live pages but {visited} reachable"));
        }
        if entry_count != image.len {
            return corrupt(format!(
                "len field {} != {entry_count} stored entries",
                image.len
            ));
        }
        // The sibling chain must walk every leaf exactly once, then end.
        let mut node = image.root;
        for _ in 0..image.height {
            match &image.nodes[node] {
                NodeImage::Inner { children, .. } => node = children[0],
                NodeImage::Leaf { .. } => break,
                NodeImage::Free => unreachable!("reachability validated above"),
            }
        }
        let mut on_chain = vec![false; n];
        let mut walked = 0usize;
        let mut cur = Some(node);
        while let Some(id) = cur {
            match &image.nodes[id] {
                NodeImage::Leaf { next, .. } => {
                    if on_chain[id] {
                        return corrupt("leaf sibling chain cycles".into());
                    }
                    on_chain[id] = true;
                    walked += 1;
                    cur = *next;
                }
                _ => return corrupt("leaf sibling chain hits a non-leaf page".into()),
            }
        }
        if walked != leaves {
            return corrupt(format!("sibling chain covers {walked} of {leaves} leaves"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Remove the entry keyed `key`, returning its elements if it was
    /// stored.  Rebalances by borrowing from or merging with siblings.
    fn remove_entry(&mut self, key: &L::Key) -> Option<Vec<L::Elem>> {
        let (leaf, path) = self.descend(key);
        let stride = self.pages.stride;
        let entries = self.pages.leaf(leaf);
        let pos = partition_point::<L>(entries, stride, |k| k < key);
        if pos >= self.pages.count(entries) || L::key(nth(entries, stride, pos)) != key {
            return None;
        }
        let Node::Leaf { entries, .. } = self.pages.node_mut(leaf) else {
            unreachable!()
        };
        let removed: Vec<L::Elem> = entries.drain(pos * stride..(pos + 1) * stride).collect();
        self.pages.len -= 1;
        self.charge_write(leaf);
        self.rebalance_upwards(leaf, path);
        Some(removed)
    }

    fn node_is_deficient(&self, node: usize) -> bool {
        match self.pages.node(node) {
            Node::Leaf { entries, .. } => self.pages.count(entries) < self.pages.min_leaf(),
            Node::Inner { children, .. } => children.len() < self.pages.min_children(),
            Node::Free => unreachable!(),
        }
    }

    fn rebalance_upwards(&mut self, mut node: usize, mut path: Vec<(usize, usize)>) {
        loop {
            if node == self.pages.root {
                self.collapse_root_if_needed();
                return;
            }
            if !self.node_is_deficient(node) {
                return;
            }
            let (parent, child_idx) = path.pop().expect("non-root node has a parent");
            self.fix_deficient_child(parent, child_idx);
            node = parent;
        }
    }

    fn collapse_root_if_needed(&mut self) {
        while let Node::Inner { children, .. } = self.pages.node(self.pages.root) {
            if children.len() > 1 {
                return;
            }
            let only_child = children[0];
            let old_root = self.pages.root;
            self.pages.root = only_child;
            self.pages.height -= 1;
            self.release(old_root);
        }
    }

    /// Repair the deficient `children[child_idx]` of `parent` by borrowing
    /// from a sibling or merging.
    fn fix_deficient_child(&mut self, parent: usize, child_idx: usize) {
        let (left_idx, right_idx) = {
            let Node::Inner { children, .. } = self.pages.node(parent) else {
                unreachable!()
            };
            let left = child_idx.checked_sub(1).map(|i| children[i]);
            let right = children.get(child_idx + 1).copied();
            (left, right)
        };
        // Prefer borrowing from the sibling with surplus.
        if let Some(left) = left_idx {
            self.charge_read(left);
            if self.has_surplus(left) {
                self.borrow_from_left(parent, child_idx, left);
                return;
            }
        }
        if let Some(right) = right_idx {
            self.charge_read(right);
            if self.has_surplus(right) {
                self.borrow_from_right(parent, child_idx, right);
                return;
            }
        }
        // Merge with a sibling (left preferred).
        if left_idx.is_some() {
            self.merge_children(parent, child_idx - 1);
        } else {
            self.merge_children(parent, child_idx);
        }
    }

    fn has_surplus(&self, node: usize) -> bool {
        match self.pages.node(node) {
            Node::Leaf { entries, .. } => self.pages.count(entries) > self.pages.min_leaf(),
            Node::Inner { children, .. } => children.len() > self.pages.min_children(),
            Node::Free => unreachable!(),
        }
    }

    fn borrow_from_left(&mut self, parent: usize, child_idx: usize, left: usize) {
        let sep_idx = child_idx - 1;
        let stride = self.pages.stride;
        let child = {
            let Node::Inner { children, .. } = self.pages.node(parent) else {
                unreachable!()
            };
            children[child_idx]
        };
        if matches!(self.pages.node(child), Node::Leaf { .. }) {
            // Move the left sibling's last entry over; separator becomes
            // the moved key.
            let moved = {
                let Node::Leaf { entries, .. } = self.pages.node_mut(left) else {
                    unreachable!()
                };
                entries.split_off(entries.len() - stride)
            };
            let new_sep = L::sep(L::key(&moved));
            let Node::Leaf { entries, .. } = self.pages.node_mut(child) else {
                unreachable!()
            };
            entries.splice(0..0, moved);
            let Node::Inner { keys, .. } = self.pages.node_mut(parent) else {
                unreachable!()
            };
            keys[sep_idx] = new_sep;
        } else {
            // Rotate through the parent separator.
            let (moved_key, moved_child) = {
                let Node::Inner { keys, children } = self.pages.node_mut(left) else {
                    unreachable!()
                };
                (
                    keys.pop().expect("surplus"),
                    children.pop().expect("surplus"),
                )
            };
            let old_sep = {
                let Node::Inner { keys, .. } = self.pages.node_mut(parent) else {
                    unreachable!()
                };
                std::mem::replace(&mut keys[sep_idx], moved_key)
            };
            let Node::Inner { keys, children } = self.pages.node_mut(child) else {
                unreachable!()
            };
            keys.insert(0, old_sep);
            children.insert(0, moved_child);
        }
        self.charge_write(left);
        self.charge_write(child);
        self.charge_write(parent);
    }

    fn borrow_from_right(&mut self, parent: usize, child_idx: usize, right: usize) {
        let sep_idx = child_idx;
        let stride = self.pages.stride;
        let child = {
            let Node::Inner { children, .. } = self.pages.node(parent) else {
                unreachable!()
            };
            children[child_idx]
        };
        if matches!(self.pages.node(child), Node::Leaf { .. }) {
            let (moved, new_sep) = {
                let Node::Leaf { entries, .. } = self.pages.node_mut(right) else {
                    unreachable!()
                };
                let moved: Vec<L::Elem> = entries.drain(..stride).collect();
                (moved, L::sep(L::key(&entries[..stride])))
            };
            let Node::Leaf { entries, .. } = self.pages.node_mut(child) else {
                unreachable!()
            };
            entries.extend(moved);
            let Node::Inner { keys, .. } = self.pages.node_mut(parent) else {
                unreachable!()
            };
            keys[sep_idx] = new_sep;
        } else {
            let (moved_key, moved_child) = {
                let Node::Inner { keys, children } = self.pages.node_mut(right) else {
                    unreachable!()
                };
                (keys.remove(0), children.remove(0))
            };
            let old_sep = {
                let Node::Inner { keys, .. } = self.pages.node_mut(parent) else {
                    unreachable!()
                };
                std::mem::replace(&mut keys[sep_idx], moved_key)
            };
            let Node::Inner { keys, children } = self.pages.node_mut(child) else {
                unreachable!()
            };
            keys.push(old_sep);
            children.push(moved_child);
        }
        self.charge_write(right);
        self.charge_write(child);
        self.charge_write(parent);
    }

    /// Merge `children[idx+1]` of `parent` into `children[idx]`.
    fn merge_children(&mut self, parent: usize, idx: usize) {
        let (left, right, separator) = {
            let Node::Inner { keys, children } = self.pages.node_mut(parent) else {
                unreachable!()
            };
            let left = children[idx];
            let right = children.remove(idx + 1);
            let separator = keys.remove(idx);
            (left, right, separator)
        };
        match Arc::unwrap_or_clone(self.release(right)).node {
            Node::Leaf { mut entries, next } => {
                let Node::Leaf {
                    entries: left_entries,
                    next: left_next,
                } = self.pages.node_mut(left)
                else {
                    unreachable!()
                };
                left_entries.append(&mut entries);
                *left_next = next;
            }
            Node::Inner {
                mut keys,
                mut children,
            } => {
                let Node::Inner {
                    keys: left_keys,
                    children: left_children,
                } = self.pages.node_mut(left)
                else {
                    unreachable!()
                };
                left_keys.push(separator);
                left_keys.append(&mut keys);
                left_children.append(&mut children);
            }
            Node::Free => unreachable!(),
        }
        self.charge_write(left);
        self.charge_write(parent);
    }

    /// Verify all structural invariants; returns a descriptive error on the
    /// first violation.  Charges no page accesses.
    pub fn check_invariants(&self) -> Result<()> {
        self.pages.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoStats;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    fn tiny_tree() -> BPlusTree<u32, u32> {
        // Capacity 4/4 forces frequent splits.
        BPlusTree::with_capacities(4, 4, IoStats::new_handle())
    }

    #[test]
    fn capacities_derive_from_page_geometry() {
        let t: BPlusTree<u64, u64> = BPlusTree::new(16, 8, IoStats::new_handle());
        assert_eq!(t.pages().leaf_capacity(), 4056 / 16);
        assert_eq!(t.pages().inner_capacity(), 338);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = tiny_tree();
        for k in 0..100u32 {
            t.insert(k, k * 10).unwrap();
        }
        t.check_invariants().unwrap();
        assert_eq!(t.pages().len(), 100);
        for k in 0..100u32 {
            assert_eq!(t.get(&k), Some(k * 10));
        }
        assert_eq!(t.get(&100), None);
        assert!(
            t.pages().height() > 2,
            "100 entries at capacity 4 must be deep"
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = tiny_tree();
        t.insert(1, 1).unwrap();
        assert!(matches!(t.insert(1, 2), Err(PageSimError::DuplicateKey(_))));
        assert_eq!(t.pages().len(), 1);
    }

    #[test]
    fn reverse_and_shuffled_insertion_orders() {
        for order in [
            (0..200u32).rev().collect::<Vec<_>>(),
            (0..200u32).map(|i| (i * 73) % 200).collect::<Vec<_>>(),
        ] {
            let mut t = tiny_tree();
            for &k in &order {
                t.insert(k, k).unwrap();
            }
            t.check_invariants().unwrap();
            let mut all = Vec::new();
            t.scan_all(|k, _| all.push(*k));
            assert_eq!(all, (0..200).collect::<Vec<_>>());
        }
    }

    #[test]
    fn range_scans_are_half_open_and_ordered() {
        let mut t = tiny_tree();
        for k in (0..100u32).step_by(2) {
            t.insert(k, k).unwrap();
        }
        let r = t.range_collect(&10, &20);
        assert_eq!(
            r.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 12, 14, 16, 18]
        );
        // Bounds not present in the tree.
        let r = t.range_collect(&9, &15);
        assert_eq!(
            r.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 12, 14]
        );
        // Empty range.
        assert!(t.range_collect(&15, &15).is_empty());
    }

    #[test]
    fn removal_with_rebalancing() {
        let mut t = tiny_tree();
        for k in 0..300u32 {
            t.insert(k, k).unwrap();
        }
        // Remove every other key, then everything.
        for k in (0..300).step_by(2) {
            assert_eq!(t.remove(&k), Some(k));
            t.check_invariants().unwrap();
        }
        assert_eq!(t.pages().len(), 150);
        for k in (1..300).step_by(2) {
            assert_eq!(t.remove(&k), Some(k));
        }
        t.check_invariants().unwrap();
        assert!(t.pages().is_empty());
        assert_eq!(
            t.pages().height(),
            1,
            "tree collapses back to a single leaf"
        );
        assert_eq!(t.remove(&5), None);
    }

    #[test]
    fn point_lookup_costs_height_reads() {
        let mut t = tiny_tree();
        for k in 0..500u32 {
            t.insert(k, k).unwrap();
        }
        let stats = Rc::clone(t.stats());
        stats.reset();
        t.get(&250);
        assert_eq!(stats.reads(), t.pages().height() as u64);
        assert_eq!(stats.writes(), 0);
    }

    #[test]
    fn range_scan_charges_extra_leaves_only() {
        let mut t = tiny_tree();
        for k in 0..500u32 {
            t.insert(k, k).unwrap();
        }
        let stats = Rc::clone(t.stats());
        stats.reset();
        let r = t.range_collect(&0, &500);
        assert_eq!(r.len(), 500);
        let expected = t.pages().height() as u64 + (t.pages().leaf_page_count() - 1);
        assert_eq!(stats.reads(), expected);
    }

    #[test]
    fn page_counts_track_structure() {
        let mut t = tiny_tree();
        assert_eq!(t.pages().page_count(), 1);
        for k in 0..100u32 {
            t.insert(k, k).unwrap();
        }
        assert!(t.pages().leaf_page_count() >= (100 / 4) as u64);
        assert!(t.pages().inner_page_count() >= 1);
        // Pages are reclaimed on mass deletion.
        for k in 0..100u32 {
            t.remove(&k);
        }
        assert_eq!(t.pages().page_count(), 1);
    }

    #[test]
    fn composite_keys_support_prefix_scans() {
        let mut t: BPlusTree<(u64, u64), ()> =
            BPlusTree::with_capacities(4, 4, IoStats::new_handle());
        for a in 0..10u64 {
            for b in 0..5u64 {
                t.insert((a, b), ()).unwrap();
            }
        }
        let r = t.range_collect(&(3, 0), &(4, 0));
        assert_eq!(r.len(), 5);
        assert!(r.iter().all(|((a, _), _)| *a == 3));
    }

    /// Rows of three cells, each its own key: inserts in any order keep
    /// them sorted inline, a prefix range is a cluster, and point
    /// lookups and removals find whole rows.
    #[test]
    fn row_tree_holds_rows_inline_and_probes_prefixes() {
        let mut t: RowTree<u32> = BTree::with_layout(3, 4, 4, IoStats::new_handle());
        let rows: Vec<[u32; 3]> = (0..200u32).map(|k| [(k * 7) % 23, k, k % 5]).collect();
        for r in &rows {
            t.insert(r).unwrap();
        }
        assert!(matches!(
            t.insert(&rows[3]),
            Err(PageSimError::DuplicateKey(_))
        ));
        t.check_invariants().unwrap();
        let mut want = rows.clone();
        want.sort();
        let mut all = Vec::new();
        t.visit_all(|e| all.push(<[u32; 3]>::try_from(e).unwrap()));
        assert_eq!(all, want);
        // Clusters, batched: each prefix's rows, grouped in probe order.
        let firsts = [0u32, 5, 22, 30];
        let mut got = Vec::new();
        t.probe_sorted(firsts.map(Prefix), |i, e| got.push((i, e[0], e[1])));
        let expect: Vec<_> = (firsts.iter().enumerate())
            .flat_map(|(i, &f)| {
                (want.iter())
                    .filter(move |r| r[0] == f)
                    .map(move |r| (i, r[0], r[1]))
            })
            .collect();
        assert_eq!(got, expect);
        assert_eq!(t.get_entry(&rows[10]), Some(&rows[10][..]));
        assert_eq!(t.get_entry(&[0, 1, 2]), None);
        for r in rows.iter().step_by(2) {
            assert!(t.remove(r));
        }
        assert!(!t.remove(&rows[0]));
        t.check_invariants().unwrap();
        assert_eq!(t.pages().len(), 100);
    }

    #[test]
    fn buffered_tree_amortizes_root_reads() {
        let mut t = tiny_tree();
        for k in 0..500u32 {
            t.insert(k, k).unwrap();
        }
        t.set_buffer(BufferPool::with_capacity(1024));
        let stats = Rc::clone(t.stats());
        stats.reset();
        t.get(&1);
        let cold = stats.reads();
        t.get(&1);
        assert_eq!(stats.reads(), cold, "warm lookup served from buffer");
        assert!(stats.buffer_hits() >= t.pages().height() as u64);
    }

    #[test]
    fn bulk_load_round_trips_and_is_valid() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 100, 1000, 4097] {
            let entries = (0..n as u32).map(|k| (k, k * 2));
            let t: BPlusTree<u32, u32> =
                BPlusTree::bulk_load(entries, 16, 8, IoStats::new_handle()).unwrap();
            assert_eq!(t.pages().len(), n, "n={n}");
            t.check_invariants().unwrap();
            if n > 0 {
                assert_eq!(t.get(&0), Some(0));
                assert_eq!(t.get(&(n as u32 - 1)), Some((n as u32 - 1) * 2));
            }
            let mut scanned = 0;
            t.scan_all(|_, _| scanned += 1);
            assert_eq!(scanned, n);
        }
    }

    #[test]
    fn bulk_load_with_tiny_capacities() {
        for (leaf, inner) in [(2, 3), (3, 3), (4, 5), (5, 4)] {
            for n in 0usize..60 {
                let mut t: BPlusTree<u32, ()> =
                    BPlusTree::with_capacities(leaf, inner, IoStats::new_handle());
                t.fill((0..n as u32).map(|k| (k, ()))).unwrap();
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("leaf={leaf} inner={inner} n={n}: {e}"));
                assert_eq!(t.pages().len(), n);
            }
        }
    }

    #[test]
    fn bulk_loaded_tree_supports_updates() {
        let mut t: BPlusTree<u32, u32> = BPlusTree::with_capacities(4, 4, IoStats::new_handle());
        t.fill((0..100).map(|k| (k * 2, k))).unwrap();
        // Insert odds, remove some evens.
        for k in 0..100u32 {
            t.insert(k * 2 + 1, k).unwrap();
        }
        for k in (0..100u32).step_by(3) {
            t.remove(&(k * 2));
        }
        t.check_invariants().unwrap();
        assert!(matches!(t.insert(3, 9), Err(PageSimError::DuplicateKey(_))));
    }

    #[test]
    fn bulk_load_rejects_disorder() {
        let r: Result<BPlusTree<u32, ()>> =
            BPlusTree::bulk_load([(2, ()), (1, ())], 16, 8, IoStats::new_handle());
        assert!(matches!(r, Err(PageSimError::CorruptStructure(_))));
        let r: Result<BPlusTree<u32, ()>> =
            BPlusTree::bulk_load([(1, ()), (1, ())], 16, 8, IoStats::new_handle());
        assert!(r.is_err(), "duplicates rejected");
    }

    #[test]
    fn bulk_load_charges_one_write_per_node() {
        let stats = IoStats::new_handle();
        let t: BPlusTree<u32, u32> =
            BPlusTree::bulk_load((0..10_000u32).map(|k| (k, k)), 16, 8, Rc::clone(&stats)).unwrap();
        assert_eq!(stats.writes(), t.pages().page_count());
        assert_eq!(stats.reads(), 0);
        // Far cheaper than item-at-a-time insertion.
        let stats2 = IoStats::new_handle();
        let mut t2: BPlusTree<u32, u32> = BPlusTree::new(16, 8, Rc::clone(&stats2));
        for k in 0..10_000u32 {
            t2.insert(k, k).unwrap();
        }
        assert!(stats.accesses() * 3 < stats2.accesses());
    }

    #[test]
    fn chunk_plan_respects_bounds() {
        for total in 0..200usize {
            for (target, min, cap) in [(9, 5, 10), (2, 1, 2), (4, 3, 5), (304, 169, 338)] {
                let plan = super::chunk_plan(total, target, min, cap);
                assert_eq!(plan.iter().sum::<usize>(), total);
                if plan.len() > 1 {
                    assert!(
                        plan.iter().all(|&s| s >= min && s <= cap),
                        "total={total} target={target} min={min} cap={cap}: {plan:?}"
                    );
                } else if let Some(&only) = plan.first() {
                    assert!(only <= cap);
                }
            }
        }
    }

    #[test]
    fn batched_range_scan_matches_per_range_scans() {
        let mut t = tiny_tree();
        for k in 0..500u32 {
            t.insert(k * 2, k).unwrap();
        }
        let los: Vec<u32> = (0..100).map(|i| i * 10).collect();
        let ranges: Vec<(u32, u32)> = los.iter().map(|&lo| (lo, lo + 6)).collect();

        // Reference: independent per-range scans.
        let mut naive: Vec<Vec<(u32, u32)>> = Vec::new();
        let stats = Rc::clone(t.stats());
        stats.reset();
        for (lo, hi) in &ranges {
            naive.push(t.range_collect(lo, hi));
        }
        let naive_reads = stats.reads();

        stats.reset();
        let mut batched: Vec<Vec<(u32, u32)>> = vec![Vec::new(); ranges.len()];
        let report = t.scan_ranges_sorted(
            ranges
                .iter()
                .map(|(lo, hi)| (Bound::Included(lo), Bound::Excluded(hi))),
            |idx, k, v| batched[idx].push((*k, *v)),
        );
        assert_eq!(batched, naive, "batched results must be bit-identical");
        assert_eq!(report.probes, ranges.len() as u64);
        assert_eq!(report.pages_read, stats.reads());
        assert_eq!(report.naive_pages, naive_reads);
        assert!(
            report.pages_read < naive_reads,
            "adjacent ranges must share pages: {} vs {naive_reads}",
            report.pages_read
        );
        assert_eq!(stats.batch_probes(), ranges.len() as u64);
        assert_eq!(stats.batch_pages_saved(), naive_reads - report.pages_read);
    }

    #[test]
    fn batched_scan_never_charges_a_page_twice() {
        let mut t = tiny_tree();
        for k in 0..300u32 {
            t.insert(k, k).unwrap();
        }
        let stats = Rc::clone(t.stats());
        stats.reset();
        // A batch covering the whole key space leaf-by-leaf.
        let los: Vec<u32> = (0..300).collect();
        let report = t.scan_ranges_sorted(
            los.iter()
                .map(|lo| (Bound::Included(lo), Bound::Included(lo))),
            |_, _, _| {},
        );
        assert!(
            report.pages_read <= t.pages().page_count(),
            "at most one charge per page: {} vs {} pages",
            report.pages_read,
            t.pages().page_count()
        );
    }

    #[test]
    fn single_probe_batch_costs_no_more_than_a_plain_scan() {
        let mut t = tiny_tree();
        for k in 0..100u32 {
            t.insert(k, k).unwrap();
        }
        let stats = Rc::clone(t.stats());
        stats.reset();
        t.scan_range(Bound::Included(&40), Bound::Excluded(&60), |_, _| {});
        let plain = stats.reads();
        stats.reset();
        let report =
            t.scan_ranges_sorted([(Bound::Included(&40), Bound::Excluded(&60))], |_, _, _| {});
        assert_eq!(stats.reads(), plain);
        assert_eq!(report.naive_pages, plain);
        assert_eq!(report.pages_saved(), 0);
    }

    #[test]
    fn batched_scan_with_unbounded_start() {
        let mut t = tiny_tree();
        for k in 0..50u32 {
            t.insert(k, k).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_ranges_sorted(
            [
                (Bound::Unbounded, Bound::Excluded(&3)),
                (Bound::Included(&47), Bound::Unbounded),
            ],
            |idx, k, _| seen.push((idx, *k)),
        );
        assert_eq!(
            seen,
            vec![(0, 0), (0, 1), (0, 2), (1, 47), (1, 48), (1, 49)]
        );
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut t = tiny_tree();
        for k in 0..100u32 {
            t.insert(k, k).unwrap();
        }
        let peak = t.pages().slot_count();
        for k in 0..100u32 {
            t.remove(&k);
        }
        for k in 0..100u32 {
            t.insert(k, k).unwrap();
        }
        assert!(
            t.pages().slot_count() <= peak + 1,
            "slab reuses freed pages"
        );
        t.check_invariants().unwrap();
    }

    /// A tree with both history (splits, merges, freed slots) for image
    /// round-trip tests.
    fn weathered_tree() -> BPlusTree<u32, u32> {
        let mut t = tiny_tree();
        for k in 0..300u32 {
            t.insert(k, k * 7).unwrap();
        }
        for k in (0..300).step_by(3) {
            t.remove(&k);
        }
        t
    }

    #[test]
    fn image_round_trip_is_physical_identity() {
        let t = weathered_tree();
        let image = t.dump_image();
        assert!(
            !image.free.is_empty(),
            "weathered tree must have freed slots"
        );

        let stats = IoStats::new_handle();
        let mut r: BPlusTree<u32, u32> = BPlusTree::with_capacities(4, 4, Rc::clone(&stats));
        r.adopt_image(image.clone()).unwrap();

        // Adoption itself is free — the caller prices the medium read.
        assert_eq!(stats.reads(), 0);
        assert_eq!(stats.writes(), 0);
        r.charge_restore_reads(3);
        assert_eq!(stats.reads(), 3, "restore reads charge through the tree");
        assert_eq!(stats.writes(), 0);
        stats.reset();
        // Physical identity: re-dumping yields the same image.
        assert_eq!(r.dump_image(), image);
        // Query identity.
        let mut a = Vec::new();
        let mut b = Vec::new();
        t.scan_all(|k, v| a.push((*k, *v)));
        r.scan_all(|k, v| b.push((*k, *v)));
        assert_eq!(a, b);
        // The restored tree keeps maintaining: future slot reuse matches
        // the original tree's, operation for operation.
        let mut t2 = t;
        let mut r2 = r;
        for k in [1000u32, 1001, 1002] {
            t2.insert(k, k).unwrap();
            r2.insert(k, k).unwrap();
        }
        assert_eq!(t2.dump_image(), r2.dump_image());
    }

    #[test]
    fn empty_tree_image_round_trips() {
        let t = tiny_tree();
        let image = t.dump_image();
        let mut r: BPlusTree<u32, u32> = tiny_tree();
        r.adopt_image(image.clone()).unwrap();
        assert_eq!(r.dump_image(), image);
        assert!(r.pages().is_empty());
    }

    #[test]
    fn corrupt_images_error_without_panicking() {
        let good = weathered_tree().dump_image();
        let adopt = |img: TreeImage<Pairs<u32, u32>>| {
            let mut r: BPlusTree<u32, u32> = tiny_tree();
            let err = r.adopt_image(img).unwrap_err();
            // The tree stays usable as an empty fallback target.
            assert!(r.pages().is_empty());
            r.check_invariants().unwrap();
            match err {
                PageSimError::CorruptStructure(msg) => msg,
                other => panic!("expected CorruptStructure, got {other:?}"),
            }
        };

        // Root out of bounds.
        let mut img = good.clone();
        img.root = img.nodes.len();
        assert!(adopt(img).contains("root"));

        // Child reference cycle (point a child back at the root).
        let mut img = good.clone();
        let root = img.root;
        for node in img.nodes.iter_mut() {
            if let NodeImage::Inner { children, .. } = node {
                children[0] = root;
            }
        }
        adopt(img);

        // Leaf sibling chain cycle.
        let mut img = good.clone();
        let mut first_leaf = None;
        for (id, node) in img.nodes.iter().enumerate() {
            if matches!(node, NodeImage::Leaf { .. }) {
                first_leaf = Some(id);
                break;
            }
        }
        let target = first_leaf.unwrap();
        for node in img.nodes.iter_mut() {
            if let NodeImage::Leaf { next, .. } = node {
                *next = Some(target);
            }
        }
        adopt(img);

        // Free list disagrees with the slab.
        let mut img = good.clone();
        img.free.pop();
        assert!(adopt(img).contains("free"));

        // Wrong entry count.
        let mut img = good.clone();
        img.len += 1;
        assert!(adopt(img).contains("len"));

        // Unsorted keys pass structural checks but fail the semantic
        // invariant pass — tree must roll back cleanly.
        let mut img = good.clone();
        for node in img.nodes.iter_mut() {
            if let NodeImage::Leaf { entries, .. } = node {
                entries.reverse();
            }
        }
        adopt(img);
    }

    #[test]
    fn adopt_image_rejects_overfull_pages() {
        // Five sequential inserts at capacity 4 leave a 3-entry leaf,
        // overfull for a capacity-2 tree.
        let mut t = tiny_tree();
        for k in 0..5u32 {
            t.insert(k, k).unwrap();
        }
        let big = t.dump_image();
        let mut r: BPlusTree<u32, u32> = BPlusTree::with_capacities(2, 3, IoStats::new_handle());
        assert!(matches!(
            r.adopt_image(big),
            Err(PageSimError::CorruptStructure(_))
        ));
    }

    /// Patch `base` with the pages of `t` not shared with `marks`, the way
    /// a snapshot reader applies a delta: grow the slab, overwrite the
    /// changed pages, install the geometry.
    fn apply_changes(
        base: &TreeImage<Pairs<u32, u32>>,
        t: &BPlusTree<u32, u32>,
        marks: &PageMarks<Pairs<u32, u32>>,
    ) -> TreeImage<Pairs<u32, u32>> {
        let pages = t.pages();
        let mut nodes = base.nodes.clone();
        assert!(pages.slot_count() >= nodes.len(), "slab never shrinks");
        nodes.resize(pages.slot_count(), NodeImage::Free);
        for slot in pages.changed_since(marks) {
            nodes[slot] = pages.page(slot).to_image();
        }
        TreeImage {
            root: pages.root_slot(),
            height: pages.height(),
            len: pages.len(),
            free: pages.free_slots().to_vec(),
            nodes,
        }
    }

    fn changed(t: &BPlusTree<u32, u32>, marks: &PageMarks<Pairs<u32, u32>>) -> usize {
        t.pages().changed_since(marks).count()
    }

    #[test]
    fn an_encoded_length_lasts_until_the_page_is_written() {
        let mut t = tiny_tree();
        for k in 0..12 {
            t.insert(k, k).unwrap();
        }
        let slots = t.pages().slot_count();
        for slot in 0..slots {
            assert_eq!(t.pages().encoded_len(slot), None);
            t.pages().remember_encoded_len(slot, 10 + slot);
        }
        // A frozen version shares the lengths with the tree.
        let frozen = t.freeze();
        let marks = t.pages().marks();
        t.insert(100, 100).unwrap();
        let written: BTreeSet<usize> = t.pages().changed_since(&marks).collect();
        assert!(!written.is_empty());
        for slot in 0..slots {
            let kept = (!written.contains(&slot)).then_some(10 + slot);
            assert_eq!(t.pages().encoded_len(slot), kept, "slot {slot}");
            assert_eq!(frozen.encoded_len(slot), Some(10 + slot), "slot {slot}");
        }
        // Written in place (nothing pins the page): forgotten all the same.
        drop((frozen, marks));
        for slot in 0..t.pages().slot_count() {
            t.pages().remember_encoded_len(slot, 7);
        }
        t.insert(101, 101).unwrap();
        let forgotten = (0..t.pages().slot_count()).filter(|&s| t.pages().encoded_len(s).is_none());
        assert!(forgotten.count() > 0, "the written leaf forgets its length");
    }

    #[test]
    fn a_mark_moves_only_the_first_write() {
        let mut t = tiny_tree();
        t.insert(1, 1).unwrap();
        let page = |t: &BPlusTree<u32, u32>| Arc::as_ptr(&t.pages.nodes[0]);
        // No mark: writes stay in place.
        let unmarked = page(&t);
        t.insert(2, 2).unwrap();
        assert_eq!(page(&t), unmarked);
        // Under a mark the first write moves the page, later ones do not.
        let marks = t.pages().marks();
        t.insert(3, 3).unwrap();
        let moved = page(&t);
        assert_ne!(moved, unmarked);
        t.insert(4, 4).unwrap();
        assert_eq!(page(&t), moved);
        assert_eq!(changed(&t, &marks), 1);
    }

    #[test]
    fn marks_bound_delta_pages() {
        let mut t = tiny_tree();
        for k in 0..500u32 {
            t.insert(k, k).unwrap();
        }
        // Against empty marks: everything has changed.
        assert_eq!(
            changed(&t, &PageMarks::default()) as u64,
            t.pages().page_count() + t.dump_image().free.len() as u64
        );
        let marks = t.pages().marks();
        assert_eq!(changed(&t, &marks), 0);
        // One point update touches at most a root-to-leaf path of pages.
        t.remove(&250).unwrap();
        t.insert(250, 999).unwrap();
        let n = changed(&t, &marks);
        assert!(n > 0);
        assert!(
            n <= 2 * t.pages().height(),
            "point update changed {n} of {} pages",
            t.pages().page_count()
        );
    }

    #[test]
    fn delta_applied_to_base_matches_full_image() {
        let mut t = tiny_tree();
        for k in 0..400u32 {
            t.insert(k, k).unwrap();
        }
        let base = t.dump_image();
        let marks = t.pages().marks();
        // A mixed workload: inserts (splits grow the slab), removals
        // (merges free pages), and value updates.
        for k in 400..480u32 {
            t.insert(k, k).unwrap();
        }
        for k in (0..200u32).step_by(3) {
            t.remove(&k).unwrap();
        }
        t.remove(&399).unwrap();
        t.insert(399, 1).unwrap();
        assert!(changed(&t, &marks) < t.pages().slot_count());
        assert_eq!(apply_changes(&base, &t, &marks), t.dump_image());
    }

    #[test]
    fn delta_covers_pages_freed_since_the_marks() {
        let mut t = tiny_tree();
        for k in 0..300u32 {
            t.insert(k, k).unwrap();
        }
        let base = t.dump_image();
        let marks = t.pages().marks();
        for k in 0..300u32 {
            t.remove(&k).unwrap();
        }
        assert!(
            t.pages()
                .changed_since(&marks)
                .any(|slot| matches!(t.pages().page(slot), PageRef::Free)),
            "mass deletion must report freed pages"
        );
        let patched = apply_changes(&base, &t, &marks);
        assert_eq!(patched, t.dump_image());
        // The patched image adopts cleanly into a fresh tree.
        let mut r = tiny_tree();
        r.adopt_image(patched).unwrap();
        r.check_invariants().unwrap();
        assert!(r.pages().is_empty());
    }

    #[test]
    fn adoption_changes_every_marked_page() {
        let mut t = tiny_tree();
        for k in 0..100u32 {
            t.insert(k, k).unwrap();
        }
        let img = t.dump_image();
        let mut r = tiny_tree();
        let marks = r.pages().marks();
        r.adopt_image(img).unwrap();
        // Every adopted page is changed relative to the pre-adoption marks.
        assert_eq!(changed(&r, &marks), r.dump_image().nodes.len());
        let marks = r.pages().marks();
        assert_eq!(changed(&r, &marks), 0);
    }

    thread_local! {
        /// `Counted` values cloned on this thread: copying a leaf page
        /// clones each of its entries once.
        static VALUE_CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A value that counts its clones.
    #[derive(Debug, PartialEq, Eq)]
    struct Counted(u32);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            VALUE_CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    /// One full scan and one batched probe of `slab`: what they visit,
    /// and the pages they charge.
    fn reads(
        slab: &PageSlab<Pairs<u32, Counted>>,
    ) -> (Vec<u32>, u64, Vec<(usize, u32)>, BatchReport) {
        let pages = std::cell::Cell::new(0u64);
        let charge = |_| pages.set(pages.get() + 1);
        let mut all = Vec::new();
        slab.scan_all(charge, |e| all.push(e[0].0 + e[0].1 .0));
        let scanned = pages.replace(0);
        let mut hits = Vec::new();
        let report = slab.scan_ranges_sorted(
            [(10u32, 30u32), (31, 40), (200, 230)]
                .map(|(lo, hi)| (Bound::Included(lo), Bound::Excluded(hi))),
            charge,
            |idx, e| hits.push((idx, e[0].0)),
        );
        assert_eq!(pages.get(), report.pages_read);
        (all, scanned, hits, report)
    }

    #[test]
    fn writes_copy_only_the_pages_a_frozen_version_shares() {
        let mut t: BPlusTree<u32, Counted> =
            BPlusTree::with_capacities(4, 4, IoStats::new_handle());
        for k in 0..200u32 {
            t.insert(k * 2, Counted(k)).unwrap();
        }
        let frozen = t.freeze();
        let before = reads(&frozen);

        // A frozen read charges exactly what the same live read charges.
        let stats = Rc::clone(t.stats());
        stats.reset();
        t.scan_all(|_, _| {});
        assert_eq!(stats.reads(), before.1);
        stats.reset();
        let live = t.scan_ranges_sorted(
            [(10u32, 30u32), (31, 40), (200, 230)]
                .map(|(lo, hi)| (Bound::Included(lo), Bound::Excluded(hi))),
            |_, _, _| {},
        );
        assert_eq!((live, stats.reads()), (before.3, before.3.pages_read));

        // Inserts that split, removals that borrow and merge.
        let marks = t.pages().marks();
        VALUE_CLONES.with(|c| c.set(0));
        for k in (1..200u32).step_by(2).chain(400..480) {
            t.insert(k, Counted(k)).unwrap();
        }
        assert!(
            t.pages().slot_count() > frozen.slot_count(),
            "splits grew the slab"
        );
        for k in (0..400u32).step_by(3).chain(150..300) {
            t.remove(&k);
        }
        assert!(!t.pages().free_slots().is_empty(), "merges freed pages");
        t.check_invariants().unwrap();

        let written: BTreeSet<usize> = t.pages().changed_since(&marks).collect();
        let mut copied_entries = 0;
        for slot in 0..frozen.slot_count() {
            let shared = Arc::ptr_eq(&frozen.nodes[slot], &t.pages.nodes[slot]);
            assert_eq!(shared, !written.contains(&slot), "slot {slot}");
            if let (false, PageRef::Leaf { entries, .. }) = (shared, frozen.page(slot)) {
                copied_entries += entries.len();
            }
        }
        // Every written leaf the version held was copied exactly once:
        // the first write cloned its entries, later writes found it
        // unshared.
        assert_eq!(VALUE_CLONES.with(|c| c.get()), copied_entries);

        // The version still reads, and charges, what it did at freeze time.
        frozen.check_invariants().unwrap();
        assert_eq!(reads(&frozen), before);
    }
}
