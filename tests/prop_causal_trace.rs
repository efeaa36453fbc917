//! The causal trace against a reference model.
//!
//! The oracle below is the provenance trace as first written: a
//! `BTreeMap` of best edges plus a sorted list of roots, every offer
//! paying a binary search and a map probe. It has no notion of sealing,
//! screening or folding, so it pins what those shortcuts must preserve:
//! on any offer stream whose delivery rounds respect the seal
//! watermarks, the trace retains exactly the oracle's edges and counts
//! exactly its candidates, overflow and sampled-out messages — whether
//! offers arrive one by one or screened per shard and folded, and
//! whether the pair states are dense, sparse or re-laid out mid-run.

use proptest::prelude::*;
use resource_discovery::obs::{CausalTrace, ProvEdge, ProvShard};
use std::collections::BTreeMap;

/// The reference model (see the module docs).
struct Oracle {
    capacity: usize,
    edges: BTreeMap<(u32, u32), ProvEdge>,
    known: Vec<(u32, u32)>,
    candidates: u64,
    sampled_out: u64,
    overflow: u64,
}

impl Oracle {
    fn new(capacity: usize, roots: &[(u32, u32)]) -> Self {
        let mut known = roots.to_vec();
        known.sort_unstable();
        known.dedup();
        Oracle {
            capacity,
            edges: BTreeMap::new(),
            known,
            candidates: 0,
            sampled_out: 0,
            overflow: 0,
        }
    }

    fn offer(&mut self, edge: ProvEdge) {
        self.candidates += 1;
        let key = (edge.id, edge.node);
        if edge.id == edge.node || self.known.binary_search(&key).is_ok() {
            return;
        }
        let rank = |e: &ProvEdge| (e.round, e.sent, e.src, e.seq);
        let room = self.edges.len() < self.capacity;
        match self.edges.get_mut(&key) {
            Some(best) if rank(&edge) < rank(best) => *best = edge,
            Some(_) => {}
            None if room => {
                self.edges.insert(key, edge);
            }
            None => self.overflow += 1,
        }
    }
}

/// Decodes one generated word into an offer delivered in
/// `floor + 1 + (0..3)`, over `n` nodes; small ranges force self ids,
/// root hits and rank ties.
fn decode(word: u64, n: u32, floor: u64) -> ProvEdge {
    let field = |shift: u32, m: u64| (word >> shift) % m;
    let round = floor + 1 + field(24, 3);
    ProvEdge {
        id: field(0, n.into()) as u32,
        node: field(8, n.into()) as u32,
        src: field(16, n.into()) as u32,
        sent: round - 1 - field(28, 2).min(round - 1),
        round,
        seq: field(32, 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trace_matches_the_reference_model(
        n in 2u32..7,
        capacity_pick in 0usize..64,
        // 0 keeps the pair states sparse; otherwise they are laid out
        // densely for this many nodes (possibly too few, falling back
        // to sparse mid-stream), before or after seeding the roots.
        reserve in 0usize..8,
        reserve_first in any::<bool>(),
        roots in prop::collection::vec((0u32..7, 0u32..7), 0..12),
        batches in prop::collection::vec(
            (0u64..3, 0usize..4, prop::collection::vec(any::<u64>(), 0..24)),
            1..10,
        ),
    ) {
        // Capacities from 0 up to above the n² pair count.
        let capacity = capacity_pick % (n * n + 3) as usize;
        let roots: Vec<(u32, u32)> = roots.iter().map(|&(i, v)| (i % n, v % n)).collect();
        let mut trace = CausalTrace::new(capacity, 1_000_000);
        if reserve > 0 && reserve_first {
            trace.reserve_nodes(reserve);
        }
        trace.seed_known(roots.iter().copied());
        if reserve > 0 && !reserve_first {
            trace.reserve_nodes(reserve);
        }
        let mut oracle = Oracle::new(capacity, &roots);
        let mut sealed = 0u64;
        for (advance, shards, words) in &batches {
            let offers: Vec<(ProvEdge, bool)> = words
                .iter()
                .map(|&w| (decode(w, n, sealed), (w >> 40) % 8 == 0))
                .collect();
            for &(edge, skipped) in &offers {
                if skipped {
                    oracle.sampled_out += 1;
                } else {
                    oracle.offer(edge);
                }
            }
            if *shards == 0 {
                for &(edge, skipped) in &offers {
                    if skipped {
                        trace.note_sampled_out();
                    } else {
                        trace.offer(edge);
                    }
                }
            } else {
                // Contiguous chunks, screened against the trace as of
                // the last barrier, folded back in chunk order.
                let chunk = offers.len().div_ceil(*shards).max(1);
                let screened: Vec<ProvShard> = offers
                    .chunks(chunk)
                    .map(|part| {
                        let mut shard = ProvShard::default();
                        for &(edge, skipped) in part {
                            if skipped {
                                shard.sampled_out += 1;
                            } else {
                                shard.offer(&trace, edge);
                            }
                        }
                        shard
                    })
                    .collect();
                for shard in screened {
                    trace.fold(shard);
                }
            }
            // Every later batch is delivered after the new watermark.
            sealed += advance;
            trace.seal(sealed);
        }

        let check = |trace: &CausalTrace| -> Result<(), TestCaseError> {
            let got: Vec<ProvEdge> = trace.edges().collect();
            let want: Vec<ProvEdge> = oracle.edges.values().copied().collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(trace.len(), oracle.edges.len());
            prop_assert_eq!(trace.candidates(), oracle.candidates);
            prop_assert_eq!(trace.overflow(), oracle.overflow);
            prop_assert_eq!(trace.sampled_out(), oracle.sampled_out);
            for id in 0..n {
                for node in 0..n {
                    prop_assert_eq!(trace.edge(id, node), oracle.edges.get(&(id, node)).copied());
                    prop_assert_eq!(
                        trace.is_root(id, node),
                        oracle.known.binary_search(&(id, node)).is_ok()
                    );
                }
            }
            Ok(())
        };
        check(&trace)?;
        // What an engine hands over: the same DAG, sorted in place.
        trace.sort_edges();
        check(&trace)?;
    }
}
