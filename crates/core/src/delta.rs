//! Delta-encoded knowledge transfers: per-neighbor high-water marks.
//!
//! A node that repeatedly gossips to the *same* peers wastes bandwidth
//! resending ids the peer was already told. Because a
//! [`KnowledgeSet`]'s learning-order list is
//! append-only, "everything I learned since I last sent to `p`" is just
//! a suffix `list[mark_p..]` — no per-id bookkeeping, no set
//! difference, one `usize` per neighbor. [`DeltaFrontier`] stores those
//! marks and hands back the suffix to ship.
//!
//! Correctness under loss: a mark must only advance when delivery is
//! certain. On an unreliable link, advance the mark optimistically and
//! [`rewind`](DeltaFrontier::rewind) to the pre-send mark when the
//! retransmission timer fires — the resend then covers the lost suffix
//! (supersets are fine: knowledge merges are idempotent). The
//! round-trip property test in `crates/core/tests/prop_delta.rs` drives
//! exactly this drop/retransmit loop.
//!
//! When deltas pay — and when they don't: the frontier only saves work
//! if it *empties*. Fixed-neighbor flooding converges to empty deltas
//! and quiesces, so [`FloodingNode`](crate::algorithms::flooding) uses
//! marks natively. The bench gossip workload
//! (`rd-bench::workload`) was measured to be the opposite case —
//! random-peer push means a sender has almost always learned something
//! since it last met any given peer, so per-peer marks suppressed <10%
//! of messages while costing extra bookkeeping; that workload ships
//! full windows on purpose.

use rd_sim::NodeId;
use std::collections::HashMap;

use crate::KnowledgeSet;

/// Per-neighbor high-water marks over a knowledge set's learning-order
/// list.
///
/// # Example
///
/// ```
/// use rd_core::delta::DeltaFrontier;
/// use rd_core::KnowledgeSet;
/// use rd_sim::NodeId;
///
/// let mut k = KnowledgeSet::new(NodeId::new(0));
/// k.insert_untracked(NodeId::new(7));
/// let mut front = DeltaFrontier::new();
/// let peer = NodeId::new(7);
/// // First contact: everything (the caller typically ships this as a
/// // full greeting anyway).
/// assert_eq!(front.delta(peer, &k).len(), 2);
/// front.advance(peer, &k);
/// // Nothing learned since: empty delta, nothing to send.
/// assert!(front.delta(peer, &k).is_empty());
/// k.insert_untracked(NodeId::new(9));
/// assert_eq!(front.delta(peer, &k), &[NodeId::new(9)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaFrontier {
    marks: HashMap<NodeId, usize>,
}

impl DeltaFrontier {
    /// An empty frontier: every peer is at mark 0 (never contacted).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current mark for `peer` (0 if never advanced).
    pub fn mark(&self, peer: NodeId) -> usize {
        self.marks.get(&peer).copied().unwrap_or(0)
    }

    /// The ids `peer` has not yet been sent: the suffix of `knowledge`'s
    /// learning-order list past this peer's mark.
    pub fn delta<'k>(&self, peer: NodeId, knowledge: &'k KnowledgeSet) -> &'k [NodeId] {
        knowledge.since(self.mark(peer))
    }

    /// Records that `peer` has now been sent everything currently in
    /// `knowledge`; returns the *previous* mark (keep it if the link is
    /// unreliable, to [`rewind`](Self::rewind) on a timeout).
    pub fn advance(&mut self, peer: NodeId, knowledge: &KnowledgeSet) -> usize {
        self.marks.insert(peer, knowledge.mark()).unwrap_or(0)
    }

    /// Rolls `peer`'s mark back to `mark` — after a send is known (or
    /// presumed) lost, so the next delta re-covers the lost suffix.
    /// Never moves a mark forward.
    pub fn rewind(&mut self, peer: NodeId, mark: usize) {
        let entry = self.marks.entry(peer).or_insert(0);
        *entry = (*entry).min(mark);
    }

    /// Forgets `peer` entirely (e.g. after it is declared crashed); the
    /// next delta for it is the full list again.
    pub fn forget(&mut self, peer: NodeId) {
        self.marks.remove(&peer);
    }

    /// Number of peers with a recorded mark.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// `true` if no peer has ever been advanced.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn first_contact_ships_everything_then_only_news() {
        let mut k = KnowledgeSet::new(id(0));
        k.insert_untracked(id(3));
        let mut f = DeltaFrontier::new();
        assert_eq!(f.delta(id(3), &k), &[id(0), id(3)]);
        f.advance(id(3), &k);
        assert!(f.delta(id(3), &k).is_empty());
        k.insert_untracked(id(8));
        k.insert_untracked(id(5));
        assert_eq!(f.delta(id(3), &k), &[id(8), id(5)]);
    }

    #[test]
    fn marks_are_independent_per_peer() {
        let mut k = KnowledgeSet::new(id(0));
        let mut f = DeltaFrontier::new();
        f.advance(id(1), &k);
        k.insert_untracked(id(9));
        assert!(f.delta(id(1), &k) == [id(9)]);
        assert_eq!(f.delta(id(2), &k), &[id(0), id(9)]);
    }

    #[test]
    fn rewind_recovers_lost_suffix_and_never_advances() {
        let mut k = KnowledgeSet::new(id(0));
        k.insert_untracked(id(4));
        let mut f = DeltaFrontier::new();
        let before = f.advance(id(4), &k);
        assert_eq!(before, 0);
        k.insert_untracked(id(6));
        let before = f.advance(id(4), &k); // this send gets "lost"
        f.rewind(id(4), before);
        assert_eq!(f.delta(id(4), &k), &[id(6)]);
        // Rewinding to a later mark is a no-op.
        f.rewind(id(4), usize::MAX);
        assert_eq!(f.delta(id(4), &k), &[id(6)]);
    }

    #[test]
    fn forget_resets_to_full_list() {
        let k = KnowledgeSet::new(id(0));
        let mut f = DeltaFrontier::new();
        f.advance(id(1), &k);
        assert_eq!(f.len(), 1);
        f.forget(id(1));
        assert!(f.is_empty());
        assert_eq!(f.delta(id(1), &k), &[id(0)]);
    }
}
