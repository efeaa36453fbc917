//! Causal message-level provenance: the knowledge-provenance DAG.
//!
//! When causal tracing is enabled, the routing phase offers one
//! [`ProvEdge`] per identifier carried by every delivered message. The
//! [`CausalTrace`] keeps, for each `(id, node)` pair, the *first
//! delivery* — which message, from whom, sent and delivered in which
//! rounds — that could have taught `node` about `id`. Edges chain into
//! a DAG: the sender of the edge for `(id, y)` learned `id` through its
//! own edge `(id, src)`, and walking those links backwards yields the
//! causal history of any single fact (see
//! [`critical_path`](crate::critical_path)).
//!
//! # Cost: per fact, not per pointer
//!
//! Every round carries Θ(n) identifiers per node, but at most n² facts
//! can ever produce an edge, so the trace sorts offers by what they can
//! still change. Each `(id, node)` pair is *free*, *open* (retained,
//! may still improve), *sealed* or a DAG *root*. The states are a
//! two-bit-per-pair matrix (n²/4 bytes) when that costs at most 16 MiB
//! or no more than the capacity's worth of edges; otherwise a hash map
//! holds only the roots and retained pairs, so a sampled or
//! small-capacity trace never pays n² memory. The engine calls
//! [`CausalTrace::seal`] at each round barrier with a round that no
//! later offer can be delivered at or before; every open edge delivered
//! by then is final, and its pair seals. So:
//!
//! - self-knowledge, roots and sealed pairs are rejected after one state
//!   read (a bit lookup, or a hash probe in the sparse layout);
//! - a free pair once the capacity is reached is counted as `overflow`
//!   after the same read;
//! - a free pair below the capacity opens with one append, and a repeat
//!   offer for an open pair is appended to a queue that the barrier
//!   settles against the open edges — the queue sorted, each open edge
//!   looked up in it once — keeping the best-ranked edge per pair.
//!
//! No offer inserts in order, and in the dense layout none probes a
//! map. The retained edges are
//! sorted into `(id, node)` order once, when the engine hands the trace
//! over ([`CausalTrace::sort_edges`]).
//!
//! Like the [`Recorder`](crate::Recorder), the trace lives strictly
//! outside the determinism boundary: it is write-only from the engine's
//! perspective, offers arrive in the canonical `(sender, send
//! sequence)` order on every engine and worker count, and sampling is a
//! pure function of `(seed, src, round, seq)` — so the retained DAG is
//! byte-identical across engines and cannot perturb a run. Parallel
//! routers screen their offers against the trace read-only
//! ([`ProvShard`]) and ship only the ones that can still land.

use std::collections::HashMap;

/// One provenance edge: a delivered message from `src` that offered
/// identifier `id` to `node`.
///
/// Rounds are 1-based, matching the archive's `round` records: a
/// message sent during round `sent` is processed by its receiver during
/// round `round = sent + 1 + extra_delay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvEdge {
    /// The identifier being learned.
    pub id: u32,
    /// The node learning it (the receiver).
    pub node: u32,
    /// The sender that already knew `id`.
    pub src: u32,
    /// 1-based round the message was sent in.
    pub sent: u64,
    /// 1-based round the message was delivered (processed) in.
    pub round: u64,
    /// The sender's send-sequence number within `sent`.
    pub seq: u64,
}

impl ProvEdge {
    /// Delivery-order key: earlier delivery wins; among same-round
    /// deliveries the earlier send, then the canonical `(src, seq)`
    /// routing order, breaks ties deterministically.
    fn rank(&self) -> (u64, u64, u32, u64) {
        (self.round, self.sent, self.src, self.seq)
    }

    fn pair(&self) -> (u32, u32) {
        (self.id, self.node)
    }

    /// Pair order, then delivery order: the first edge of each pair's
    /// run is its best.
    fn settle_order(a: &Self, b: &Self) -> std::cmp::Ordering {
        a.pair()
            .cmp(&b.pair())
            .then_with(|| a.rank().cmp(&b.rank()))
    }
}

/// A pair that no retained edge covers yet.
const FREE: u64 = 0;
/// A pair with a retained edge that may still improve.
const OPEN: u64 = 1;
/// A pair whose retained edge is final.
const SEALED: u64 = 2;
/// An initially-known pair: a DAG root, never given an edge.
const ROOT: u64 = 3;

/// Below this many bytes a dense pair-state matrix is always affordable.
const DENSE_FLOOR_BYTES: usize = 16 << 20;

/// The state of every `(id, node)` pair. Dense: two bits per pair,
/// node-major so one message's identifiers (all bound for one node) hit
/// one row, n²/4 bytes. Sparse: only the roots and retained pairs, in a
/// hash map keyed `node << 32 | id` — for traces whose matrix would
/// dwarf what they can ever retain.
#[derive(Clone)]
enum PairStates {
    Dense { side: usize, words: Vec<u64> },
    Sparse(HashMap<u64, u8>),
}

impl Default for PairStates {
    fn default() -> Self {
        PairStates::Sparse(HashMap::new())
    }
}

impl PairStates {
    #[inline]
    fn get(&self, id: u32, node: u32) -> u64 {
        match self {
            PairStates::Dense { side, words } => {
                let (id, node) = (id as usize, node as usize);
                if id >= *side || node >= *side {
                    return FREE;
                }
                let slot = node * side + id;
                words[slot >> 5] >> ((slot & 31) * 2) & 3
            }
            PairStates::Sparse(map) => map
                .get(&(u64::from(node) << 32 | u64::from(id)))
                .map_or(FREE, |&s| s.into()),
        }
    }

    fn set(&mut self, id: u32, node: u32, state: u64) {
        match self {
            PairStates::Dense { side, words } => {
                let (i, v) = (id as usize, node as usize);
                if i >= *side || v >= *side {
                    // Outside the reserved matrix: fall back to sparse.
                    self.relayout(None);
                    return self.set(id, node, state);
                }
                let slot = v * *side + i;
                let shift = (slot & 31) * 2;
                let word = &mut words[slot >> 5];
                *word = *word & !(3 << shift) | state << shift;
            }
            PairStates::Sparse(map) => {
                // No pair ever returns to free.
                map.insert(u64::from(node) << 32 | u64::from(id), state as u8);
            }
        }
    }

    /// Re-lays every non-free pair out densely with side `side`, or
    /// sparsely for `None`.
    fn relayout(&mut self, side: Option<usize>) {
        let pairs: Vec<(u32, u32, u64)> = match self {
            PairStates::Dense { side, .. } => {
                let side = *side as u32;
                let this = &*self;
                let all = (0..side).flat_map(|node| (0..side).map(move |id| (id, node)));
                all.map(|(id, node)| (id, node, this.get(id, node)))
                    .filter(|&(.., s)| s != FREE)
                    .collect()
            }
            PairStates::Sparse(map) => map
                .iter()
                .map(|(&k, &s)| (k as u32, (k >> 32) as u32, s.into()))
                .collect(),
        };
        *self = match side {
            Some(side) => PairStates::Dense {
                side,
                words: vec![0; (side * side).div_ceil(32)],
            },
            None => PairStates::Sparse(HashMap::with_capacity(pairs.len())),
        };
        for (id, node, state) in pairs {
            self.set(id, node, state);
        }
    }
}

impl std::fmt::Debug for PairStates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The matrix is n²/4 bytes: never dump it into a failed assert.
        match self {
            PairStates::Dense { side, .. } => f
                .debug_struct("Dense")
                .field("side", side)
                .finish_non_exhaustive(),
            PairStates::Sparse(map) => f
                .debug_struct("Sparse")
                .field("pairs", &map.len())
                .finish_non_exhaustive(),
        }
    }
}

/// What an offer can still do to the DAG.
enum Screen {
    /// Self-knowledge, a root, or a sealed pair: nothing.
    Dominated,
    /// A new pair with the capacity reached: counted, dropped.
    Overflow,
    /// A new pair with room left, or an open pair it may improve.
    Live,
}

/// The per-run knowledge-provenance DAG, bounded in memory by its
/// capacity (see [`reserve_nodes`](Self::reserve_nodes)).
///
/// `capacity` bounds the number of retained `(id, node)` pairs; offers
/// for *new* pairs past the cap are counted in `overflow` and dropped
/// (offers that improve an already-retained pair always land).
/// `sample_ppm` is the per-message sampling rate in parts per million;
/// the sampling decision itself is made by the engine (it owns the run
/// seed), the trace only records how many messages were skipped.
///
/// Two traces are equal when their configuration, counters and retained
/// edges are.
#[derive(Debug, Clone)]
pub struct CausalTrace {
    capacity: usize,
    sample_ppm: u32,
    /// Every pair's state: free, open, sealed or root.
    pairs: PairStates,
    /// The final edges of the sealed pairs.
    sealed: Vec<ProvEdge>,
    /// The best edge so far of every open pair, one per pair.
    open: Vec<ProvEdge>,
    /// Repeat offers for open pairs since the last settle, each a
    /// candidate to beat its pair's edge in `open`.
    repeats: Vec<ProvEdge>,
    /// Whether `sealed` and `open` are each in `(id, node)` order and
    /// no repeat is pending.
    sorted: bool,
    /// Every offer from now on is delivered after this round.
    sealed_through: u64,
    /// Identifier offers inspected (post-sampling).
    candidates: u64,
    /// Messages skipped by the deterministic sampler.
    sampled_out: u64,
    /// Offers for new pairs dropped at capacity.
    overflow: u64,
}

impl PartialEq for CausalTrace {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.sample_ppm == other.sample_ppm
            && self.candidates == other.candidates
            && self.sampled_out == other.sampled_out
            && self.overflow == other.overflow
            && self.len() == other.len()
            && self.edges().eq(other.edges())
    }
}

impl CausalTrace {
    /// A trace retaining at most `capacity` `(id, node)` pairs, with
    /// messages sampled at `sample_ppm` parts per million (values
    /// `>= 1_000_000` trace every message).
    pub fn new(capacity: usize, sample_ppm: u32) -> Self {
        CausalTrace {
            capacity,
            sample_ppm,
            pairs: PairStates::default(),
            sealed: Vec::new(),
            open: Vec::new(),
            repeats: Vec::new(),
            sorted: true,
            sealed_through: 0,
            candidates: 0,
            sampled_out: 0,
            overflow: 0,
        }
    }

    /// Lays the pair states out for ids and nodes below `n`, once, before
    /// the run: a dense n²/4-byte matrix when that costs at most 16 MiB
    /// or no more than the edges the capacity can retain, so memory
    /// follows the capacity; otherwise the states stay sparse.
    pub fn reserve_nodes(&mut self, n: usize) {
        let matrix = n.saturating_mul(n) / 4;
        let retained = self
            .capacity
            .saturating_mul(std::mem::size_of::<ProvEdge>());
        if matrix <= DENSE_FLOOR_BYTES.max(retained) {
            self.pairs.relayout(Some(n));
        }
    }

    /// Declares the initially-known `(id, node)` pairs: the DAG roots.
    /// Offers for these pairs are ignored — nothing *caused* them.
    /// Declare roots before offering: a pair that already has an edge
    /// keeps it and is not a root.
    pub fn seed_known<I: IntoIterator<Item = (u32, u32)>>(&mut self, pairs: I) {
        for (id, node) in pairs {
            if self.pairs.get(id, node) == FREE {
                self.pairs.set(id, node, ROOT);
            }
        }
    }

    /// Whether `(id, node)` was declared initially known.
    pub fn is_root(&self, id: u32, node: u32) -> bool {
        self.pairs.get(id, node) == ROOT
    }

    /// Offers one edge. Self-knowledge, declared roots and sealed pairs
    /// are skipped; otherwise the edge is kept iff it is the first for
    /// its pair or beats the retained one in delivery order.
    pub fn offer(&mut self, edge: ProvEdge) {
        self.candidates += 1;
        self.admit(edge);
    }

    /// The state of `edge`'s pair, self-knowledge reading as a root.
    #[inline]
    fn state(&self, edge: &ProvEdge) -> u64 {
        debug_assert!(
            edge.round > self.sealed_through,
            "offer delivered in round {} after sealing through round {}",
            edge.round,
            self.sealed_through
        );
        if edge.id == edge.node {
            ROOT
        } else {
            self.pairs.get(edge.id, edge.node)
        }
    }

    /// What `edge` can still do, judged read-only against the trace as
    /// of the last barrier. Within a round no pair seals and a trace at
    /// capacity opens no pair, so a verdict other than [`Screen::Live`]
    /// holds whatever else is offered first.
    fn screen(&self, edge: &ProvEdge) -> Screen {
        match self.state(edge) {
            SEALED | ROOT => Screen::Dominated,
            FREE if self.len() >= self.capacity => Screen::Overflow,
            _ => Screen::Live,
        }
    }

    /// Insert-if-better, without counting a candidate: a new pair opens
    /// with this edge; a repeat offer for an open pair waits until the
    /// next settle compares it with the pair's best.
    fn admit(&mut self, edge: ProvEdge) {
        match self.state(&edge) {
            SEALED | ROOT => {}
            OPEN => {
                self.repeats.push(edge);
                self.sorted = false;
                // Settle early once repeats outnumber the open pairs,
                // so each settle is paid for by the appends before it.
                if self.repeats.len() > self.open.len() + (1 << 12) {
                    self.settle();
                }
            }
            _ if self.len() < self.capacity => {
                self.pairs.set(edge.id, edge.node, OPEN);
                self.open.push(edge);
                self.sorted = false;
            }
            _ => self.overflow += 1,
        }
    }

    /// Folds the pending repeats into the open edges: the repeats are
    /// sorted by `(pair, rank)` and deduplicated to each pair's best,
    /// then one pass over the open edges takes every better one.
    fn settle(&mut self) {
        if self.repeats.is_empty() {
            return;
        }
        let repeats = &mut self.repeats;
        repeats.sort_unstable_by(ProvEdge::settle_order);
        repeats.dedup_by_key(|e| e.pair());
        for best in &mut self.open {
            if let Ok(i) = repeats.binary_search_by_key(&best.pair(), ProvEdge::pair) {
                if repeats[i].rank() < best.rank() {
                    *best = repeats[i];
                }
            }
        }
        repeats.clear();
    }

    /// The round barrier: the caller guarantees every later offer is
    /// delivered after `through_round`, so every open edge delivered by
    /// then is final and its pair seals.
    pub fn seal(&mut self, through_round: u64) {
        self.settle();
        let (pairs, sealed) = (&mut self.pairs, &mut self.sealed);
        let before = sealed.len();
        self.open.retain(|e| {
            let open = e.round > through_round;
            if !open {
                pairs.set(e.id, e.node, SEALED);
                sealed.push(*e);
            }
            open
        });
        self.sorted &= self.sealed.len() == before;
        if self.open.capacity() > 4 * self.open.len() + (1 << 12) {
            self.open.shrink_to_fit();
        }
        self.sealed_through = self.sealed_through.max(through_round);
    }

    /// Sorts the retained edges into `(id, node)` order, so
    /// [`edges`](Self::edges) and [`edge`](Self::edge) need no per-call
    /// work. Engines call it once when they hand the trace over.
    pub fn sort_edges(&mut self) {
        if !self.sorted {
            self.settle();
            self.sealed.sort_unstable_by_key(ProvEdge::pair);
            self.open.sort_unstable_by_key(ProvEdge::pair);
            self.sorted = true;
        }
    }

    /// Counts a message the sampler skipped (its id offers were never
    /// inspected).
    #[inline]
    pub fn note_sampled_out(&mut self) {
        self.sampled_out += 1;
    }

    /// Counts `extra` skipped messages in one shot — hot routing loops
    /// tally locally and flush once per batch.
    #[inline]
    pub fn note_sampled_out_by(&mut self, extra: u64) {
        self.sampled_out += extra;
    }

    /// The configured pair capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The per-message sampling rate in parts per million.
    #[inline]
    pub fn sample_ppm(&self) -> u32 {
        self.sample_ppm
    }

    /// The retained edges in `(id, node)` order: a merge of the sealed
    /// and open edges once [`sort_edges`](Self::sort_edges) has run,
    /// otherwise a sorted copy.
    pub fn edges(&self) -> impl Iterator<Item = ProvEdge> + '_ {
        let (sealed, open, copy): (&[ProvEdge], &[ProvEdge], Vec<ProvEdge>) = if self.sorted {
            (&self.sealed, &self.open, Vec::new())
        } else {
            let mut all = [&self.sealed[..], &self.open, &self.repeats].concat();
            all.sort_unstable_by(ProvEdge::settle_order);
            all.dedup_by_key(|e| e.pair());
            (&[], &[], all)
        };
        let (mut sealed, mut open) = (sealed.iter().peekable(), open.iter().peekable());
        std::iter::from_fn(move || match (sealed.peek(), open.peek()) {
            (Some(s), Some(o)) if o.pair() < s.pair() => open.next(),
            (Some(_), _) => sealed.next(),
            (None, _) => open.next(),
        })
        .copied()
        .chain(copy)
    }

    /// The retained edge for `(id, node)`, if any: a binary search once
    /// [`sort_edges`](Self::sort_edges) has run, a scan otherwise.
    pub fn edge(&self, id: u32, node: u32) -> Option<ProvEdge> {
        let edges = match self.pairs.get(id, node) {
            SEALED => &self.sealed,
            OPEN => &self.open,
            _ => return None,
        };
        let found = if self.sorted {
            let i = edges
                .binary_search_by_key(&(id, node), ProvEdge::pair)
                .ok()?;
            edges[i]
        } else {
            *edges.iter().find(|e| e.pair() == (id, node))?
        };
        let repeats = self.repeats.iter().filter(|e| e.pair() == (id, node));
        repeats.chain([&found]).min_by_key(|e| e.rank()).copied()
    }

    /// Number of retained `(id, node)` pairs.
    pub fn len(&self) -> usize {
        self.sealed.len() + self.open.len()
    }

    /// Whether no edges were retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Identifier offers inspected (post-sampling).
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Messages the deterministic sampler skipped.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Offers for new pairs dropped because the capacity was reached —
    /// when nonzero the DAG is a prefix of the full provenance story.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Folds a routing worker's fragment in. Fragments must be folded
    /// in canonical shard order for determinism; the shipped edges land
    /// exactly as [`offer`](Self::offer) would have landed them, and
    /// the counts add up to what offering every screened edge would
    /// have counted.
    pub fn fold(&mut self, shard: ProvShard) {
        self.candidates += shard.candidates;
        self.sampled_out += shard.sampled_out;
        self.overflow += shard.overflow;
        for edge in shard.edges {
            self.admit(edge);
        }
    }
}

/// One routing worker's provenance for one round, screened read-only
/// against the trace as it stood at the last barrier: the edges that
/// can still land, plus counts of the offers that cannot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvShard {
    /// Offers for open or new pairs, in canonical order.
    pub edges: Vec<ProvEdge>,
    /// Identifier offers inspected (post-sampling), shipped or not.
    pub candidates: u64,
    /// Delivered messages the sampler skipped.
    pub sampled_out: u64,
    /// Offers for new pairs already past the capacity.
    pub overflow: u64,
}

impl ProvShard {
    /// Screens one offer against `trace` (read-only).
    #[inline]
    pub fn offer(&mut self, trace: &CausalTrace, edge: ProvEdge) {
        self.candidates += 1;
        match trace.screen(&edge) {
            Screen::Dominated => {}
            Screen::Overflow => self.overflow += 1,
            Screen::Live => self.edges.push(edge),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(id: u32, node: u32, src: u32, sent: u64, round: u64, seq: u64) -> ProvEdge {
        ProvEdge {
            id,
            node,
            src,
            sent,
            round,
            seq,
        }
    }

    #[test]
    fn first_delivery_wins_regardless_of_offer_order() {
        let mut t = CausalTrace::new(16, 1_000_000);
        // Sent earlier but delayed: delivered round 6.
        t.offer(edge(1, 2, 3, 2, 6, 0));
        // Sent later, delivered earlier: round 5 must win.
        t.offer(edge(1, 2, 4, 4, 5, 1));
        assert_eq!(t.edge(1, 2).unwrap().src, 4);
        // A still-later delivery does not displace it.
        t.offer(edge(1, 2, 5, 5, 6, 0));
        assert_eq!(t.edge(1, 2).unwrap().src, 4);
        assert_eq!(t.candidates(), 3);
    }

    #[test]
    fn ties_break_toward_canonical_routing_order() {
        let mut t = CausalTrace::new(16, 1_000_000);
        t.offer(edge(1, 2, 7, 3, 4, 5));
        t.offer(edge(1, 2, 7, 3, 4, 2));
        t.offer(edge(1, 2, 6, 3, 4, 9));
        assert_eq!(t.edge(1, 2).unwrap().src, 6);
        assert_eq!(t.edge(1, 2).unwrap().seq, 9);
    }

    #[test]
    fn roots_and_self_knowledge_are_never_recorded() {
        let mut t = CausalTrace::new(16, 1_000_000);
        t.seed_known([(3, 1)]);
        t.offer(edge(3, 1, 0, 1, 2, 0));
        t.offer(edge(5, 5, 0, 1, 2, 0));
        assert!(t.is_empty());
        assert!(t.is_root(3, 1));
        assert_eq!(t.candidates(), 2);
    }

    #[test]
    fn capacity_bounds_pairs_and_counts_overflow() {
        let mut t = CausalTrace::new(2, 1_000_000);
        t.offer(edge(1, 2, 0, 1, 2, 0));
        t.offer(edge(1, 3, 0, 1, 2, 1));
        t.offer(edge(1, 4, 0, 1, 2, 2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.overflow(), 1);
        // Improving a retained pair still lands at capacity.
        t.offer(edge(1, 3, 9, 1, 1, 0));
        assert_eq!(t.edge(1, 3).unwrap().src, 9);
    }

    #[test]
    fn fold_merges_fragments_in_offer_order() {
        let mut t = CausalTrace::new(16, 500_000);
        let mut a = ProvShard::default();
        a.offer(&t, edge(1, 2, 3, 1, 2, 0));
        a.sampled_out = 4;
        let mut b = ProvShard::default();
        b.offer(&t, edge(1, 2, 4, 1, 2, 1));
        b.offer(&t, edge(2, 2, 4, 1, 2, 1));
        b.sampled_out = 1;
        t.fold(a);
        t.fold(b);
        assert_eq!(t.edge(1, 2).unwrap().src, 3);
        assert_eq!(t.len(), 1);
        assert_eq!(t.candidates(), 3);
        assert_eq!(t.sampled_out(), 5);
        assert_eq!(t.sample_ppm(), 500_000);
    }

    #[test]
    fn sealed_pairs_close_and_stay_retained() {
        let mut t = CausalTrace::new(16, 1_000_000);
        t.seed_known([(9, 1)]);
        t.offer(edge(1, 2, 3, 1, 2, 0));
        t.offer(edge(1, 3, 3, 1, 4, 0));
        t.seal(2);
        // (1, 2) is final; (1, 3) may still improve.
        t.offer(edge(1, 2, 0, 2, 3, 0));
        t.offer(edge(1, 3, 5, 2, 3, 0));
        assert_eq!(t.edge(1, 2).unwrap().src, 3);
        assert_eq!(t.edge(1, 3).unwrap().src, 5);
        assert!(t.is_root(9, 1));
        assert!(!t.is_root(1, 2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.candidates(), 4);
    }

    #[test]
    fn screening_at_capacity_matches_offering() {
        let mut t = CausalTrace::new(1, 1_000_000);
        t.offer(edge(1, 2, 3, 1, 2, 0));
        let mut shard = ProvShard::default();
        for e in [
            edge(1, 2, 0, 1, 2, 0),
            edge(1, 4, 0, 1, 2, 0),
            edge(4, 4, 0, 1, 2, 0),
        ] {
            shard.offer(&t, e);
        }
        assert_eq!((shard.edges.len(), shard.overflow), (1, 1));
        t.fold(shard);
        assert_eq!(t.edge(1, 2).unwrap().src, 0);
        assert_eq!((t.candidates(), t.overflow()), (4, 1));
        // Once sealed, a full trace has nothing open: every new pair
        // overflows on its state alone.
        t.seal(2);
        let mut shard = ProvShard::default();
        shard.offer(&t, edge(2, 2, 0, 2, 3, 0));
        shard.offer(&t, edge(1, 2, 0, 2, 3, 0));
        shard.offer(&t, edge(5, 2, 0, 2, 3, 0));
        assert!(shard.edges.is_empty());
        assert_eq!(shard.overflow, 1);
    }

    #[test]
    fn pair_state_layout_follows_the_capacity() {
        // 2^12 nodes: a 4 MiB matrix, under the dense floor.
        let mut t = CausalTrace::new(1 << 16, 1_000);
        t.reserve_nodes(1 << 12);
        assert!(matches!(t.pairs, PairStates::Dense { side: 4096, .. }));
        // 2^16 nodes: a 1 GiB matrix against 2.5 MiB of retainable edges.
        let mut t = CausalTrace::new(1 << 16, 1_000);
        t.reserve_nodes(1 << 16);
        assert!(matches!(t.pairs, PairStates::Sparse(_)));
        // Full capacity at 2^14: a 64 MiB matrix against 40 MiB of edges.
        let mut t = CausalTrace::new(1 << 20, 1_000_000);
        t.reserve_nodes(1 << 14);
        assert!(matches!(t.pairs, PairStates::Sparse(_)));
        let mut t = CausalTrace::new(1 << 21, 1_000_000);
        t.reserve_nodes(1 << 14);
        assert!(matches!(t.pairs, PairStates::Dense { .. }));
    }

    #[test]
    fn relayout_keeps_every_pair_state() {
        let mut t = CausalTrace::new(16, 1_000_000);
        t.seed_known([(3, 1), (0, 2)]);
        t.offer(edge(1, 2, 3, 1, 2, 0));
        t.offer(edge(2, 1, 3, 1, 4, 0));
        t.seal(2);
        // Sparse to dense, then an id past the matrix back to sparse.
        t.reserve_nodes(4);
        assert!(matches!(t.pairs, PairStates::Dense { side: 4, .. }));
        t.offer(edge(7, 1, 3, 2, 3, 0));
        assert!(matches!(t.pairs, PairStates::Sparse(_)));
        for (id, node, state) in [(3, 1, ROOT), (0, 2, ROOT), (1, 2, SEALED), (2, 1, OPEN)] {
            assert_eq!(t.pairs.get(id, node), state);
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn edges_iterate_in_pair_order_before_and_after_sorting() {
        let mut t = CausalTrace::new(16, 1_000_000);
        t.offer(edge(5, 1, 0, 1, 2, 0));
        t.offer(edge(2, 7, 0, 1, 2, 0));
        t.offer(edge(2, 3, 0, 1, 4, 0));
        let pairs = |t: &CausalTrace| t.edges().map(|e| (e.id, e.node)).collect::<Vec<_>>();
        let want = vec![(2, 3), (2, 7), (5, 1)];
        assert_eq!(pairs(&t), want);
        let before = t.clone();
        t.sort_edges();
        assert_eq!(pairs(&t), want);
        assert_eq!(t, before);
        // Open pairs stay addressable after the re-layout.
        t.offer(edge(2, 3, 9, 1, 3, 0));
        assert_eq!(t.edge(2, 3).unwrap().src, 9);
    }
}
