//! The per-node knowledge set.

use rand::Rng;
use rd_sim::NodeId;

/// The set of identifiers a node has learned, with freshness tracking.
///
/// Resource-discovery protocols constantly ask three things of their
/// knowledge state: *do I know this id?* (fast), *give me everything I
/// learned since I last forwarded* (the freshness queue, drained by
/// [`take_fresh`](Self::take_fresh)), and *pick a uniformly random known
/// id* (Name-Dropper's only primitive). `KnowledgeSet` serves all three.
///
/// Internally membership starts as a small **sorted index** (binary
/// search) and spills into a **growable bitmap** over raw identifier
/// indices once the set exceeds `SPARSE_MAX` entries, plus an
/// insertion-order list for O(1) random sampling. The hybrid matters at
/// scale: a bitmap alone costs `max_id / 8` bytes *per set*, which sums
/// to Θ(n²) bytes across a million singleton clusters — the sparse tier
/// keeps per-set memory proportional to what the set actually holds,
/// while big sets (merged clusters, full rosters) still get O(1) bitmap
/// lookups. This is a set *representation* choice only — protocols
/// still treat identifiers as opaque and learn them exclusively through
/// messages.
///
/// # Example
///
/// ```
/// use rd_core::KnowledgeSet;
/// use rd_sim::NodeId;
///
/// let mut k = KnowledgeSet::new(NodeId::new(3));
/// assert!(k.contains(NodeId::new(3)));
/// k.insert(NodeId::new(7));
/// k.insert(NodeId::new(7)); // duplicate: no effect
/// assert_eq!(k.len(), 2);
/// assert_eq!(k.take_fresh(), vec![NodeId::new(7)]); // self is not "fresh"
/// assert!(k.take_fresh().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct KnowledgeSet {
    membership: Membership,
    list: Vec<NodeId>,
    fresh: Vec<NodeId>,
}

/// Spill threshold: sets at or below this size stay sorted-vec (≤ 2 KiB,
/// O(log s) lookups); beyond it the bitmap's `max_id / 8` bytes are
/// amortised over enough members to be worth paying.
const SPARSE_MAX: usize = 512;

#[derive(Debug, Clone)]
enum Membership {
    /// Sorted raw indices — the small-set tier.
    Sparse(Vec<u32>),
    /// Bitmap over raw indices — the large-set tier.
    Dense(Vec<u64>),
}

impl Default for Membership {
    fn default() -> Self {
        Membership::Sparse(Vec::new())
    }
}

impl KnowledgeSet {
    /// Creates a knowledge set containing only the node's own id (which
    /// is *not* queued as fresh: a node never needs to tell anyone about
    /// an id they necessarily learn from the message envelope).
    pub fn new(own: NodeId) -> Self {
        let mut k = KnowledgeSet::default();
        k.insert_quiet(own);
        k
    }

    fn word_bit(id: NodeId) -> (usize, u64) {
        let i = id.index();
        (i / 64, 1u64 << (i % 64))
    }

    /// Heap bytes this set currently holds (capacities, not lengths),
    /// plus the inline struct itself. Sampled per round by the profiler
    /// to build the memory timeline; never read by protocol logic.
    pub fn resident_bytes(&self) -> usize {
        let membership = match &self.membership {
            Membership::Sparse(sorted) => sorted.capacity() * std::mem::size_of::<u32>(),
            Membership::Dense(bits) => bits.capacity() * std::mem::size_of::<u64>(),
        };
        std::mem::size_of::<Self>()
            + membership
            + self.list.capacity() * std::mem::size_of::<NodeId>()
            + self.fresh.capacity() * std::mem::size_of::<NodeId>()
    }

    /// `true` if `id` has been learned.
    pub fn contains(&self, id: NodeId) -> bool {
        match &self.membership {
            Membership::Sparse(sorted) => sorted.binary_search(&(id.index() as u32)).is_ok(),
            Membership::Dense(bits) => {
                let (w, b) = Self::word_bit(id);
                bits.get(w).is_some_and(|word| word & b != 0)
            }
        }
    }

    /// Learns `id`, queuing it as fresh if new. Returns `true` if new.
    pub fn insert(&mut self, id: NodeId) -> bool {
        if self.insert_quiet(id) {
            self.fresh.push(id);
            true
        } else {
            false
        }
    }

    fn insert_quiet(&mut self, id: NodeId) -> bool {
        let added = match &mut self.membership {
            Membership::Sparse(sorted) => {
                let raw = id.index() as u32;
                match sorted.binary_search(&raw) {
                    Ok(_) => false,
                    Err(pos) => {
                        sorted.insert(pos, raw);
                        true
                    }
                }
            }
            Membership::Dense(bits) => {
                let (w, b) = Self::word_bit(id);
                if w >= bits.len() {
                    bits.resize(w + 1, 0);
                }
                if bits[w] & b != 0 {
                    false
                } else {
                    bits[w] |= b;
                    true
                }
            }
        };
        if added {
            self.list.push(id);
            self.maybe_spill();
        }
        added
    }

    /// Converts sparse membership to the bitmap once past the threshold.
    fn maybe_spill(&mut self) {
        if let Membership::Sparse(sorted) = &self.membership {
            if sorted.len() > SPARSE_MAX {
                let max = *sorted.last().expect("non-empty past threshold") as usize;
                let mut bits = vec![0u64; max / 64 + 1];
                for &raw in sorted {
                    bits[raw as usize / 64] |= 1 << (raw % 64);
                }
                self.membership = Membership::Dense(bits);
            }
        }
    }

    /// Learns every id in `ids`; returns how many were new.
    pub fn extend(&mut self, ids: impl IntoIterator<Item = NodeId>) -> usize {
        let mut added = 0;
        for id in ids {
            if self.insert(id) {
                added += 1;
            }
        }
        added
    }

    /// Learns `id` without queueing it as fresh. Returns `true` if new.
    ///
    /// For protocols that track dissemination with [`mark`](Self::mark)
    /// frontiers instead of the fresh queue — mixing both on one set
    /// would leak queue entries that are never drained.
    pub fn insert_untracked(&mut self, id: NodeId) -> bool {
        self.insert_quiet(id)
    }

    /// Learns every id in `ids` without queueing them as fresh; returns
    /// how many were new.
    pub fn extend_untracked(&mut self, ids: impl IntoIterator<Item = NodeId>) -> usize {
        let mut added = 0;
        for id in ids {
            if self.insert_quiet(id) {
                added += 1;
            }
        }
        added
    }

    /// Merges `other` into `self`; returns how many ids were newly
    /// learned (queued as fresh, like [`insert`](Self::insert)).
    ///
    /// When both sets are in the dense tier this is a **word-level**
    /// union: one pass of `new = theirs & !ours; ours |= theirs` per
    /// u64 chunk with a popcount for the newly-learned count — 64
    /// membership decisions per instruction instead of a per-id insert
    /// loop, and zero per-id work on chunks that contribute nothing
    /// (the common case once knowledge has mostly converged). Only the
    /// genuinely new ids are extracted bit-by-bit to extend the
    /// learning-order list.
    ///
    /// Newly learned ids enter the list in ascending id order (the
    /// order a word scan discovers them) — deterministic, but not
    /// necessarily the insertion order `other` was built in, so bulk
    /// union and per-id iteration are interchangeable only where
    /// learning *order* is not wire-visible.
    pub fn union_from(&mut self, other: &KnowledgeSet) -> usize {
        // A dense peer can push a sparse self far past the spill
        // threshold; promote first so the merge below is word-level.
        if matches!(self.membership, Membership::Sparse(_))
            && matches!(other.membership, Membership::Dense(_))
        {
            self.spill_now();
        }
        match (&mut self.membership, &other.membership) {
            (Membership::Dense(ours), Membership::Dense(theirs)) => {
                if theirs.len() > ours.len() {
                    ours.resize(theirs.len(), 0);
                }
                let mut added = 0;
                for (w, (a, &b)) in ours.iter_mut().zip(theirs).enumerate() {
                    let mut new = b & !*a;
                    if new != 0 {
                        *a |= b;
                        added += new.count_ones() as usize;
                        while new != 0 {
                            let id = NodeId::new((w * 64 + new.trailing_zeros() as usize) as u32);
                            self.list.push(id);
                            self.fresh.push(id);
                            new &= new - 1;
                        }
                    }
                }
                added
            }
            // Sparse other: its sorted index doubles as the iteration
            // order, so dense self pays one O(1) bit probe per id and
            // sparse self one two-pointer merge instead of repeated
            // binary-search inserts.
            (Membership::Dense(ours), Membership::Sparse(theirs)) => {
                let mut added = 0;
                for &raw in theirs {
                    let (w, b) = (raw as usize / 64, 1u64 << (raw % 64));
                    if w >= ours.len() {
                        ours.resize(w + 1, 0);
                    }
                    if ours[w] & b == 0 {
                        ours[w] |= b;
                        let id = NodeId::new(raw);
                        self.list.push(id);
                        self.fresh.push(id);
                        added += 1;
                    }
                }
                added
            }
            (Membership::Sparse(ours), Membership::Sparse(theirs)) => {
                let mut merged = Vec::with_capacity(ours.len() + theirs.len());
                let (mut i, mut j) = (0, 0);
                let mut added = 0;
                while i < ours.len() && j < theirs.len() {
                    let (x, y) = (ours[i], theirs[j]);
                    merged.push(x.min(y));
                    if y < x {
                        let id = NodeId::new(y);
                        self.list.push(id);
                        self.fresh.push(id);
                        added += 1;
                    }
                    i += (x <= y) as usize;
                    j += (y <= x) as usize;
                }
                merged.extend_from_slice(&ours[i..]);
                for &raw in &theirs[j..] {
                    merged.push(raw);
                    let id = NodeId::new(raw);
                    self.list.push(id);
                    self.fresh.push(id);
                    added += 1;
                }
                *ours = merged;
                self.maybe_spill();
                added
            }
            (Membership::Sparse(_), Membership::Dense(_)) => {
                unreachable!("sparse self promoted above when other is dense")
            }
        }
    }

    /// Forces the sparse→dense promotion regardless of the threshold.
    fn spill_now(&mut self) {
        if let Membership::Sparse(sorted) = &self.membership {
            let max = sorted.last().copied().unwrap_or(0) as usize;
            let mut bits = vec![0u64; max / 64 + 1];
            for &raw in sorted {
                bits[raw as usize / 64] |= 1 << (raw % 64);
            }
            self.membership = Membership::Dense(bits);
        }
    }

    /// Number of identifiers known.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// `true` only for the (unreachable in practice) empty set.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// All known identifiers, in learning order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.list.iter().copied()
    }

    /// A copy of the full knowledge, in learning order.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.list.clone()
    }

    /// The full knowledge in learning order, borrowed — the zero-copy
    /// sibling of [`to_vec`](Self::to_vec). Position `0` is the id the
    /// set was constructed with ([`new`](Self::new)); the list is
    /// append-only, so positions are stable forever.
    pub fn list(&self) -> &[NodeId] {
        &self.list
    }

    /// The current frontier position: the number of ids learned so far.
    /// Capture it after a send, and [`since`](Self::since) later yields
    /// exactly the ids learned after that point — a borrow-only
    /// alternative to the [`take_fresh`](Self::take_fresh) queue that
    /// supports any number of independent readers (e.g. one high-water
    /// mark per neighbor).
    pub fn mark(&self) -> usize {
        self.list.len()
    }

    /// The ids learned since `mark` (a value previously returned by
    /// [`mark`](Self::mark)), in learning order.
    pub fn since(&self, mark: usize) -> &[NodeId] {
        &self.list[mark.min(self.list.len())..]
    }

    /// Drains and returns identifiers learned since the previous drain
    /// (never includes the node's own id from construction).
    pub fn take_fresh(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.fresh)
    }

    /// `true` if identifiers have been learned since the last drain.
    pub fn has_fresh(&self) -> bool {
        !self.fresh.is_empty()
    }

    /// A uniformly random known id, excluding `exclude` (typically the
    /// node itself). Returns `None` if no other id is known.
    pub fn sample_other<R: Rng + ?Sized>(&self, rng: &mut R, exclude: NodeId) -> Option<NodeId> {
        // The list contains at most one excluded entry, so rejection
        // sampling terminates in O(1) expected tries once len > 1.
        if self.list.is_empty() || (self.list.len() == 1 && self.list[0] == exclude) {
            return None;
        }
        loop {
            let id = self.list[rng.random_range(0..self.list.len())];
            if id != exclude {
                return Some(id);
            }
        }
    }

    /// The maximum known id (total-order tie-breaking primitive used by
    /// the deterministic baseline and the cluster protocol).
    pub fn max_id(&self) -> Option<NodeId> {
        self.list.iter().copied().max()
    }
}

impl FromIterator<NodeId> for KnowledgeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut k = KnowledgeSet::default();
        for id in iter {
            k.insert_quiet(id);
        }
        k
    }
}

impl Extend<NodeId> for KnowledgeSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        KnowledgeSet::extend(self, iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn new_contains_self_only() {
        let k = KnowledgeSet::new(id(5));
        assert!(k.contains(id(5)));
        assert!(!k.contains(id(4)));
        assert_eq!(k.len(), 1);
        assert!(!k.has_fresh());
    }

    #[test]
    fn insert_tracks_freshness_once() {
        let mut k = KnowledgeSet::new(id(0));
        assert!(k.insert(id(9)));
        assert!(!k.insert(id(9)));
        assert_eq!(k.take_fresh(), vec![id(9)]);
        assert!(k.take_fresh().is_empty());
        assert!(k.contains(id(9)));
    }

    #[test]
    fn extend_counts_new_only() {
        let mut k = KnowledgeSet::new(id(0));
        let added = KnowledgeSet::extend(&mut k, [id(1), id(2), id(1), id(0)]);
        assert_eq!(added, 2);
        assert_eq!(k.len(), 3);
    }

    #[test]
    fn iteration_preserves_learning_order() {
        let mut k = KnowledgeSet::new(id(2));
        k.insert(id(7));
        k.insert(id(1));
        assert_eq!(k.to_vec(), vec![id(2), id(7), id(1)]);
    }

    #[test]
    fn sample_other_excludes_self() {
        let mut k = KnowledgeSet::new(id(0));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(k.sample_other(&mut rng, id(0)), None);
        k.insert(id(3));
        for _ in 0..20 {
            assert_eq!(k.sample_other(&mut rng, id(0)), Some(id(3)));
        }
    }

    #[test]
    fn sample_other_is_roughly_uniform() {
        let mut k = KnowledgeSet::new(id(0));
        for i in 1..5 {
            k.insert(id(i));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 5];
        for _ in 0..4000 {
            counts[k.sample_other(&mut rng, id(0)).unwrap().index()] += 1;
        }
        assert_eq!(counts[0], 0);
        for &c in &counts[1..] {
            assert!((800..1200).contains(&c), "skewed counts {counts:?}");
        }
    }

    #[test]
    fn max_id_tracks_maximum() {
        let mut k = KnowledgeSet::new(id(4));
        assert_eq!(k.max_id(), Some(id(4)));
        k.insert(id(9));
        k.insert(id(2));
        assert_eq!(k.max_id(), Some(id(9)));
    }

    #[test]
    fn huge_ids_in_small_sets_stay_sparse() {
        // The scale-critical property: holding a few ids never costs
        // O(max id) memory — a million-node simulation allocates
        // per-node sets proportional to what each node knows.
        let mut k = KnowledgeSet::new(id(0));
        k.insert(id(1_000_000));
        assert!(k.contains(id(1_000_000)));
        assert!(!k.contains(id(999_999)));
        assert_eq!(k.len(), 2);
        assert!(matches!(k.membership, Membership::Sparse(_)));
    }

    #[test]
    fn spill_to_bitmap_preserves_membership() {
        let mut k = KnowledgeSet::new(id(0));
        for i in 0..2 * SPARSE_MAX as u32 {
            k.insert(id(3 * i));
        }
        assert!(matches!(k.membership, Membership::Dense(_)));
        assert_eq!(k.len(), 2 * SPARSE_MAX); // id(0) deduplicated
        for i in 0..2 * SPARSE_MAX as u32 {
            assert!(k.contains(id(3 * i)), "lost id {}", 3 * i);
            assert!(!k.contains(id(3 * i + 1)));
        }
        // Dedup keeps working across the representation change.
        assert!(!k.insert(id(3)));
        assert!(k.insert(id(1)));
    }

    #[test]
    fn from_iterator_dedups_without_freshness() {
        let k: KnowledgeSet = [id(1), id(2), id(2)].into_iter().collect();
        assert_eq!(k.len(), 2);
        assert!(!k.has_fresh());
    }

    #[test]
    fn marks_window_learning_order() {
        let mut k = KnowledgeSet::new(id(0));
        k.insert(id(7));
        let m = k.mark();
        assert!(k.since(m).is_empty());
        k.insert_untracked(id(3));
        k.insert_untracked(id(9));
        assert_eq!(k.since(m), &[id(3), id(9)]);
        assert_eq!(k.list()[0], id(0));
        assert!(!k.has_fresh() || k.take_fresh() == vec![id(7)]);
        // A stale over-long mark (can't arise from `mark()`) clamps.
        assert!(k.since(usize::MAX).is_empty());
    }

    #[test]
    fn untracked_inserts_skip_fresh_queue() {
        let mut k = KnowledgeSet::new(id(0));
        assert!(k.insert_untracked(id(4)));
        assert!(!k.insert_untracked(id(4)));
        assert_eq!(k.extend_untracked([id(4), id(5), id(6)]), 2);
        assert!(!k.has_fresh());
        assert_eq!(k.len(), 4);
    }

    #[test]
    fn union_from_covers_all_tier_pairs() {
        // (self tier, other tier) — every Sparse/Dense combination.
        let sparse_small: KnowledgeSet = (0..10u32).map(|i| id(5 * i)).collect();
        let dense_big: KnowledgeSet = (0..2000u32).map(|i| id(3 * i)).collect();
        for a_src in [&sparse_small, &dense_big] {
            for b in [&sparse_small, &dense_big] {
                let mut a = a_src.clone();
                let expect_new = b.iter().filter(|&v| !a.contains(v)).count();
                let added = a.union_from(b);
                assert_eq!(added, expect_new);
                assert_eq!(a.len(), a_src.len() + expect_new);
                for v in b.iter() {
                    assert!(a.contains(v));
                }
                for v in a_src.iter() {
                    assert!(a.contains(v));
                }
                // Idempotent: a second union learns nothing.
                assert_eq!(a.union_from(b), 0);
            }
        }
    }

    #[test]
    fn union_from_queues_new_ids_as_fresh() {
        let mut a = KnowledgeSet::new(id(0));
        a.insert(id(2));
        a.take_fresh();
        let b: KnowledgeSet = [id(2), id(4), id(6)].into_iter().collect();
        assert_eq!(a.union_from(&b), 2);
        assert_eq!(a.take_fresh(), vec![id(4), id(6)]);
    }

    #[test]
    fn extend_trait_matches_inherent() {
        let mut k = KnowledgeSet::new(id(0));
        Extend::extend(&mut k, [id(1), id(2)]);
        assert_eq!(k.len(), 3);
        assert!(k.has_fresh());
    }
}
