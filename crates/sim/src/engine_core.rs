//! The engine-agnostic round machinery shared by every execution engine.
//!
//! [`EngineCore`] owns everything about a run *except* the node programs:
//! mailboxes, the round counter, metrics, the fault layer, tracing, the
//! failure-detector schedule, receive caps, and delay jitter. Every
//! engine — the one [`DeliveryEngine`](crate::DeliveryEngine), under
//! whichever delivery policy — is a thin driver over this core, so
//! accounting and fault semantics cannot drift between them.
//!
//! A round splits into three phases every engine performs identically:
//!
//! 1. [`EngineCore::begin_round`] — metrics, detector reports, and
//!    delivery of delay-expired messages;
//! 2. node stepping — [`StepInputs::step_block`] takes each live node's
//!    inbox (via [`take_capped`]) and runs it with [`step_node`]; node
//!    steps are order-independent because each draws from a private
//!    per-`(seed, node, round)` random stream, which is what makes
//!    parallel stepping bit-identical to sequential stepping;
//! 3. routing — staged envelopes, in `(sender, send-sequence)` order,
//!    pass through the fault layer and into mailboxes or the delay
//!    queue, and [`EngineCore::finish_round`] advances the clock.
//!
//! # Order-independent routing
//!
//! Routing used to be inherently serial: drop and delay coins were drawn
//! from two shared random streams, so stream *position* — and therefore
//! global routing order — was part of the deterministic contract. Now
//! every message's fate is a pure function of
//! `(seed, sender, round, send-sequence)` ([`route_fate`], backed by
//! [`rng::message_route_rng`]): routing one envelope never advances any
//! state another envelope reads. That makes the phase embarrassingly
//! parallel. A sequential engine calls [`EngineCore::route_batch`] over
//! the canonically ordered staging buffer; a parallel engine splits the
//! same buffer by sender shard, routes each shard with [`route_shard`]
//! into per-destination-shard buckets, merges the buckets per
//! destination with [`merge_dest_shard`], and folds the shard-local
//! [`RouteDelta`]s back with [`EngineCore::apply_route_deltas`]. Both
//! paths evaluate `route_fate` on identical `(sender, sequence)` pairs,
//! so they are bit-identical by construction.

use crate::faults::{DropCause, FaultPlan};
use crate::id::NodeId;
use crate::message::{Envelope, MessageCost};
use crate::metrics::{NodeLane, RoundMetrics, RunMetrics};
use crate::node::{Node, RoundContext};
use crate::pool::BufferPool;
use crate::rng;
use crate::trace::{Trace, TraceEvent};
use rand::Rng;
use rd_obs::{CausalTrace, ProvEdge, ProvShard};

/// What the failure detector does at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum DetectorAction {
    /// Report a crash to every live node.
    Suspect,
    /// Withdraw an earlier report after the node recovered.
    Retract,
}

/// The non-node state of a run: mailboxes, clock, metrics, faults,
/// tracing, and delivery policy. See the [module docs](self) for the
/// round protocol engines drive it with.
pub struct EngineCore<M: MessageCost> {
    inboxes: Vec<Vec<Envelope<M>>>,
    round: u64,
    seed: u64,
    metrics: RunMetrics,
    faults: FaultPlan,
    trace: Option<Trace>,
    /// Causal knowledge-provenance trace (`None` = disabled). Strictly
    /// outside the deterministic state: write-only from routing, with
    /// sampling coins drawn from their own counter-based stream.
    causal: Option<CausalTrace>,
    /// Detector schedule `(round, node, action)`, report-time order.
    detect_schedule: Vec<(u64, NodeId, DetectorAction)>,
    /// Crashes currently reported to the nodes.
    active_suspects: Vec<NodeId>,
    next_detection: usize,
    /// Per-node per-round delivery cap (`None` = unbounded).
    receive_cap: Option<usize>,
    /// Maximum extra delivery delay in rounds (0 = synchronous).
    max_extra_delay: u64,
    /// Messages awaiting a later delivery round, keyed by that round.
    delayed: std::collections::BTreeMap<u64, Vec<Envelope<M>>>,
    /// Recycled batch buffers for the delay queue.
    pool: BufferPool<Envelope<M>>,
    /// Retransmission policy (`None` = best-effort delivery).
    reliable: Option<RetryPolicy>,
    /// Dropped messages awaiting retransmission, keyed by resend round.
    retransmit_queue: std::collections::BTreeMap<u64, Vec<RetryEnvelope<M>>>,
}

/// The opt-in reliable-delivery policy: every dropped message is
/// retransmitted after a per-message timeout with capped exponential
/// backoff, up to a retry budget. Retransmissions are charged against
/// the message-complexity metrics like any other send (and tallied in
/// [`RoundMetrics::retransmissions`]), and their fates come from a
/// dedicated counter-based stream ([`retry_fate`]), so enabling the
/// layer never perturbs first-attempt coins and stays bit-identical
/// across engines and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Rounds to wait before the first retransmission (≥ 1).
    pub timeout: u64,
    /// Maximum number of retransmission attempts per message (≥ 1).
    pub max_retries: u32,
    /// Cap on the exponential backoff interval, in rounds.
    pub max_backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: 2,
            max_retries: 5,
            max_backoff: 16,
        }
    }
}

impl RetryPolicy {
    /// Rounds to wait before the next retransmission, after `attempts`
    /// retransmissions have already been made: `timeout · 2^attempts`,
    /// capped at `max_backoff` and floored at one round.
    fn delay_after(&self, attempts: u32) -> u64 {
        let factor = 1u64.checked_shl(attempts).unwrap_or(u64::MAX);
        self.timeout
            .saturating_mul(factor)
            .min(self.max_backoff)
            .max(1)
    }
}

/// A dropped message parked for retransmission. Carries the identity of
/// its *original* send (`orig_round`, `orig_seq`) so every attempt's
/// fate is derivable from the counter-based retry stream alone.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryEnvelope<M> {
    env: Envelope<M>,
    orig_round: u64,
    orig_seq: u64,
    /// Retransmission attempts already made (0 for a fresh drop).
    attempts: u32,
}

/// The slice of [`EngineCore`] state an engine needs while stepping
/// nodes: mailboxes plus the read-only delivery policy. Borrowing it
/// (via [`EngineCore::step_state`]) leaves the routing state untouched,
/// and the mailbox slice can be split per worker shard.
pub struct StepState<'a, M: MessageCost> {
    /// One mailbox per node, holding this round's deliveries.
    pub inboxes: &'a mut [Vec<Envelope<M>>],
    /// The fault plan (for the crashed-node check before stepping).
    pub faults: &'a FaultPlan,
    /// The run seed (for per-node round randomness).
    pub seed: u64,
    /// Per-node per-round delivery cap (`None` = unbounded).
    pub receive_cap: Option<usize>,
}

/// One round's read-only stepping inputs, shared by every block of nodes
/// the round steps (via [`EngineCore::step_parts`]).
#[derive(Clone, Copy)]
pub struct StepInputs<'a> {
    /// The round being stepped.
    pub round: u64,
    /// The run seed (for per-node round randomness).
    pub seed: u64,
    /// The fault plan (for the crashed-node check before stepping).
    pub faults: &'a FaultPlan,
    /// Per-node per-round delivery cap (`None` = unbounded).
    pub receive_cap: Option<usize>,
    /// The failure detector's current crash report, lent to every node.
    pub suspects: &'a [NodeId],
}

impl StepInputs<'_> {
    /// Steps one contiguous block of nodes — `nodes[k]` is node
    /// `base + k`, its mailbox `inboxes[k]` — appending their sends to
    /// `staged` in canonical `(sender, send-sequence)` order. A crashed
    /// node neither runs nor receives: its pending deliveries are
    /// consumed and lost. A live node takes its (capped) inbox via
    /// [`take_capped`] and runs via [`step_node`]. Every engine steps
    /// through here, one block for the whole population or one per
    /// shard.
    pub fn step_block<N: Node>(
        self,
        nodes: &mut [N],
        inboxes: &mut [Vec<Envelope<N::Msg>>],
        base: usize,
        staged: &mut Vec<Envelope<N::Msg>>,
        scratch: &mut Vec<Envelope<N::Msg>>,
    ) {
        // Hoisted: with no crashes scheduled (the common case) the
        // per-node map probe below is skipped entirely.
        let crashes_possible = self.faults.has_crashes();
        for (offset, (node, inbox)) in nodes.iter_mut().zip(inboxes).enumerate() {
            let i = base + offset;
            if crashes_possible && self.faults.is_crashed_at(i, self.round) {
                inbox.clear();
                continue;
            }
            let inbox = take_capped(inbox, scratch, self.receive_cap);
            step_node(node, i, self.round, self.seed, self.suspects, inbox, staged);
        }
    }
}

/// What the fault layer decided for one message: dropped (with a
/// cause), or delivered with `extra_delay` additional rounds of latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteFate {
    /// Why the message was discarded (`None` = delivered).
    pub dropped: Option<DropCause>,
    /// Extra delivery latency in rounds beyond the synchronous one
    /// (always 0 for dropped messages and synchronous runs).
    pub extra_delay: u64,
}

impl RouteFate {
    /// A synchronous delivery.
    pub const DELIVER: RouteFate = RouteFate {
        dropped: None,
        extra_delay: 0,
    };

    /// A drop with the given cause.
    pub const fn drop(cause: DropCause) -> RouteFate {
        RouteFate {
            dropped: Some(cause),
            extra_delay: 0,
        }
    }

    /// Whether the message was discarded.
    pub fn is_dropped(&self) -> bool {
        self.dropped.is_some()
    }
}

/// Decides the fate of one message: a pure function of
/// `(seed, round, sender, send-sequence)` plus the delivery policy.
///
/// This is the *single* source of routing randomness for every engine
/// (and for test oracles that recompute fates independently). A message
/// whose path is hard-`blocked` — crashed destination, active partition,
/// or adversarial suppression, classified by [`FaultGuards::blocked`] —
/// is dropped without consuming any randomness, so scheduling those
/// faults never shifts the coins of any unaffected message. The coin
/// itself drops with `drop_probability` and attributes to `coin_cause`
/// ([`DropCause::Coin`] for the base plan coin, [`DropCause::Link`] when
/// the per-link loss overlay supplied the probability); either way it is
/// drawn from the same per-message stream, so enabling the overlay never
/// re-keys a fate. A message under a fault-free, synchronous policy is
/// delivered without even constructing a generator — the common case
/// stays coin-free.
#[allow(clippy::too_many_arguments)]
pub fn route_fate(
    seed: u64,
    round: u64,
    src: usize,
    sequence: u64,
    blocked: Option<DropCause>,
    drop_probability: f64,
    coin_cause: DropCause,
    max_extra_delay: u64,
) -> RouteFate {
    if let Some(cause) = blocked {
        return RouteFate::drop(cause);
    }
    if drop_probability <= 0.0 && max_extra_delay == 0 {
        return RouteFate::DELIVER;
    }
    let mut rng = rng::message_route_rng(seed, src, round, sequence);
    let dropped = drop_probability > 0.0 && rng.random_bool(drop_probability);
    let extra_delay = if !dropped && max_extra_delay > 0 {
        rng.random_range(0..=max_extra_delay)
    } else {
        0
    };
    RouteFate {
        dropped: dropped.then_some(coin_cause),
        extra_delay,
    }
}

/// Decides the fate of one *retransmission attempt*: the retry analogue
/// of [`route_fate`], drawing from the independent counter-based retry
/// stream ([`rng::message_retry_rng`]) keyed by the message's original
/// `(sender, round, send-sequence)` identity and the attempt number.
/// Block checks use the state of the network at the attempt's own send
/// round, so a retransmission outlives the fault that killed the
/// original copy.
#[allow(clippy::too_many_arguments)]
pub fn retry_fate(
    seed: u64,
    src: usize,
    orig_round: u64,
    orig_seq: u64,
    attempt: u32,
    blocked: Option<DropCause>,
    drop_probability: f64,
    coin_cause: DropCause,
    max_extra_delay: u64,
) -> RouteFate {
    if let Some(cause) = blocked {
        return RouteFate::drop(cause);
    }
    if drop_probability <= 0.0 && max_extra_delay == 0 {
        return RouteFate::DELIVER;
    }
    let mut rng = rng::message_retry_rng(seed, src, orig_round, orig_seq, attempt);
    let dropped = drop_probability > 0.0 && rng.random_bool(drop_probability);
    let extra_delay = if !dropped && max_extra_delay > 0 {
        rng.random_range(0..=max_extra_delay)
    } else {
        0
    };
    RouteFate {
        dropped: dropped.then_some(coin_cause),
        extra_delay,
    }
}

/// The per-round hoisted fault classifier every routing path shares: one
/// cheap boolean per fault family per message instead of repeated plan
/// queries, and a single definition of block precedence
/// (crash > partition > suppression) and coin selection (link-loss
/// overlay over base coin), so no engine can drift on either.
#[derive(Clone, Copy)]
pub struct FaultGuards<'a> {
    faults: &'a FaultPlan,
    has_crashes: bool,
    has_partitions: bool,
    has_suppression: bool,
    has_link_loss: bool,
    base_p: f64,
}

impl<'a> FaultGuards<'a> {
    /// Hoists the plan's guard booleans and base drop probability.
    pub fn new(faults: &'a FaultPlan) -> Self {
        FaultGuards {
            faults,
            has_crashes: faults.has_crashes(),
            has_partitions: faults.has_partitions(),
            has_suppression: faults.has_suppression(),
            has_link_loss: faults.has_link_loss(),
            base_p: faults.drop_probability(),
        }
    }

    /// The coin-free block cause for a send from `src` to `dst` staged
    /// in `send_round` and arriving at `arrival_round`, if any. Liveness
    /// is checked at arrival (a long-latency message can outlive its
    /// destination); partitions and suppression at the send round.
    #[inline]
    pub fn blocked(
        &self,
        src: usize,
        dst: usize,
        send_round: u64,
        arrival_round: u64,
    ) -> Option<DropCause> {
        if self.has_crashes && self.faults.is_crashed_at(dst, arrival_round) {
            return Some(DropCause::Crash);
        }
        if self.has_partitions && self.faults.partition_blocks(src, dst, send_round) {
            return Some(DropCause::Partition);
        }
        if self.has_suppression && self.faults.suppression_blocks(src, dst, send_round) {
            return Some(DropCause::Suppression);
        }
        None
    }

    /// The effective drop coin for the link `src -> dst`: the base
    /// probability under [`DropCause::Coin`], or the link-loss overlay's
    /// under [`DropCause::Link`] when the link is lossy and the overlay
    /// bites harder.
    #[inline]
    pub fn coin(&self, src: usize, dst: usize) -> (f64, DropCause) {
        if self.has_link_loss {
            let spec = self.faults.link_loss().expect("guard implies overlay");
            if spec.is_lossy(src, dst) {
                let p = spec.loss_probability();
                if p > self.base_p {
                    return (p, DropCause::Link);
                }
            }
        }
        (self.base_p, DropCause::Coin)
    }
}

/// The read-only routing parameters one round shares across every
/// routing worker.
#[derive(Clone, Copy)]
pub struct RouteParams<'a> {
    /// The run seed.
    pub seed: u64,
    /// The round being routed.
    pub round: u64,
    /// The fault plan.
    pub faults: &'a FaultPlan,
    /// Maximum extra delivery delay in rounds (0 = synchronous).
    pub max_extra_delay: u64,
    /// Trace event capacity, when tracing is enabled.
    pub trace_capacity: Option<usize>,
    /// The causal trace as of the last barrier, when causal tracing is
    /// enabled: read-only during the route phase, it screens offers so
    /// only those that can still land are shipped.
    pub causal: Option<&'a CausalTrace>,
    /// Retransmission policy (`None` = best-effort delivery).
    pub reliable: Option<RetryPolicy>,
    /// Total number of nodes (for the unknown-destination check).
    pub node_count: usize,
    /// Nodes per shard (destination shard of node `i` is
    /// `i / shard_len`).
    pub shard_len: usize,
}

/// The shard-local output of routing one sender shard's staged
/// envelopes: a metrics row, a trace fragment, and per-destination-shard
/// buckets of deliverable messages. Deltas fold associatively into the
/// core's `RunMetrics`/`Trace`/delay queue (via
/// [`EngineCore::apply_route_deltas`]), which is what lets routing run
/// on independent workers without locks.
pub struct RouteDelta<M> {
    /// Messages/pointers/drops routed by this shard.
    pub row: RoundMetrics,
    /// Trace events recorded by this shard (canonical order, bounded by
    /// the trace capacity).
    pub trace_events: Vec<TraceEvent>,
    /// Events this shard observed beyond its local capacity.
    pub trace_overflow: u64,
    /// This shard's sampled deliveries, screened against the causal
    /// trace: the provenance edges that can still land (canonical
    /// order) plus offer, overflow and sampled-out counts.
    pub prov: ProvShard,
    /// Deliverable messages per destination shard, each tagged with its
    /// extra delivery delay (0 = next round).
    pub buckets: Vec<Vec<(u64, Envelope<M>)>>,
    /// Dropped messages parked for retransmission (canonical order;
    /// empty unless reliable delivery is enabled).
    pub retries: Vec<RetryEnvelope<M>>,
}

/// Offers one sampled message's identifier payload: calls `offer` with
/// the provenance edge of every identifier `env` carries.
///
/// Archive rounds are 1-based: a message staged while the round counter
/// reads `r` is the protocol's round `sent = r + 1` send, processed by
/// its receiver in round `delivered = sent + 1 + extra_delay`.
fn offer_payload<M: MessageCost>(
    env: &Envelope<M>,
    sequence: u64,
    sent: u64,
    delivered: u64,
    mut offer: impl FnMut(ProvEdge),
) {
    let (src, dst) = (u32::from(env.src), u32::from(env.dst));
    env.payload.visit_ids(&mut |id| {
        offer(ProvEdge {
            id: u32::from(id),
            node: dst,
            src,
            sent,
            round: delivered,
            seq: sequence,
        });
    });
}

/// Offers a delivered message to the causal trace, when one is
/// attached, or counts it as sampled out. The sampling coin is keyed on
/// the message's original send `(src, orig_round, orig_seq)`, so every
/// attempt of a retransmitted message gets the same decision; `sent` and
/// `delivered` are the 1-based rounds of the attempt that got through.
fn trace_delivery<M: MessageCost>(
    causal: Option<&mut CausalTrace>,
    seed: u64,
    env: &Envelope<M>,
    (orig_round, orig_seq): (u64, u64),
    sent: u64,
    delivered: u64,
) {
    let Some(causal) = causal else { return };
    if env.payload.pointers() == 0 {
        return;
    }
    if rng::prov_sample(
        seed,
        env.src.index(),
        orig_round,
        orig_seq,
        causal.sample_ppm(),
    ) {
        offer_payload(env, orig_seq, sent, delivered, |e| causal.offer(e));
    } else {
        causal.note_sampled_out();
    }
}

/// Routes one sender shard's staged envelopes (canonical
/// `(sender, send-sequence)` order, senders contiguous) into
/// per-destination-shard buckets, recording sender-side tallies into
/// this shard's `sent_*` lanes (sliced from the run metrics;
/// `sent_base` is the shard's first node index).
///
/// `buckets` must hold one (empty) bucket per destination shard; they
/// are returned inside the [`RouteDelta`].
///
/// # Panics
///
/// Panics if any envelope addresses a node index `>= params.node_count`.
pub fn route_shard<M: MessageCost>(
    params: RouteParams<'_>,
    staged: &mut Vec<Envelope<M>>,
    sent_base: usize,
    sent_lanes: &mut [NodeLane],
    mut buckets: Vec<Vec<(u64, Envelope<M>)>>,
) -> RouteDelta<M> {
    let mut delta = RouteDelta {
        row: RoundMetrics::default(),
        trace_events: Vec::new(),
        trace_overflow: 0,
        prov: ProvShard::default(),
        buckets: Vec::new(),
        retries: Vec::new(),
    };
    let guards = FaultGuards::new(params.faults);
    let round = params.round;
    let mut prev_src = usize::MAX;
    let mut seq = 0u64;
    for env in staged.drain(..) {
        let src = env.src.index();
        if src != prev_src {
            prev_src = src;
            seq = 0;
        }
        let sequence = seq;
        seq += 1;
        let dst = env.dst.index();
        assert!(
            dst < params.node_count,
            "message to unknown node {} from {}",
            env.dst,
            env.src
        );
        let pointers = env.payload.pointers();
        // Delivery happens at the start of the next round at the
        // earliest; a node dead by then never sees the message.
        let blocked = guards.blocked(src, dst, round, round + 1);
        let (drop_p, coin_cause) = guards.coin(src, dst);
        let fate = route_fate(
            params.seed,
            round,
            src,
            sequence,
            blocked,
            drop_p,
            coin_cause,
            params.max_extra_delay,
        );
        if let Some(capacity) = params.trace_capacity {
            if delta.trace_events.len() < capacity {
                delta.trace_events.push(TraceEvent {
                    round,
                    src: env.src,
                    dst: env.dst,
                    pointers,
                    dropped: fate.dropped,
                });
            } else {
                delta.trace_overflow += 1;
            }
        }
        let lane = &mut sent_lanes[src - sent_base];
        lane.sent_messages += 1;
        lane.sent_pointers += pointers as u64;
        if let Some(cause) = fate.dropped {
            delta.row.drops.add(cause);
            if params.reliable.is_some() {
                delta.retries.push(RetryEnvelope {
                    env,
                    orig_round: round,
                    orig_seq: sequence,
                    attempts: 0,
                });
            }
        } else {
            if pointers > 0 {
                if let Some(causal) = params.causal {
                    // Same 1-based round arithmetic as the serial
                    // path in `EngineCore::route_batch`.
                    if rng::prov_sample(params.seed, src, round, sequence, causal.sample_ppm()) {
                        let sent = round + 1;
                        let delivered = sent + 1 + fate.extra_delay;
                        let prov = &mut delta.prov;
                        offer_payload(&env, sequence, sent, delivered, |e| prov.offer(causal, e));
                    } else {
                        delta.prov.sampled_out += 1;
                    }
                }
            }
            delta.row.messages += 1;
            delta.row.pointers += pointers as u64;
            buckets[dst / params.shard_len].push((fate.extra_delay, env));
        }
    }
    delta.buckets = buckets;
    delta
}

/// Merges one destination shard's buckets — one per routing worker, in
/// worker (= sender shard) order — into that shard's mailboxes and
/// `recv_*` lanes (`base` is the shard's first node index). Messages
/// with a nonzero delay are appended to `delayed_out` as
/// `(arrival round, envelope)` instead of delivered.
///
/// Processing workers in order preserves, for every destination, the
/// canonical sender order of its deliveries — the same order the
/// sequential [`EngineCore::route_batch`] produces.
pub fn merge_dest_shard<M: MessageCost>(
    round: u64,
    base: usize,
    bucket_parts: &mut [Vec<(u64, Envelope<M>)>],
    inboxes: &mut [Vec<Envelope<M>>],
    recv_lanes: &mut [NodeLane],
    delayed_out: &mut Vec<(u64, Envelope<M>)>,
) {
    for part in bucket_parts {
        for (extra, env) in part.drain(..) {
            let slot = env.dst.index() - base;
            let lane = &mut recv_lanes[slot];
            lane.recv_messages += 1;
            lane.recv_pointers += env.payload.pointers() as u64;
            if extra == 0 {
                inboxes[slot].push(env);
            } else {
                delayed_out.push((round + 1 + extra, env));
            }
        }
    }
}

/// Disjoint borrows of everything a parallel router needs from the
/// core: the routing parameters, the mailboxes, and the four per-node
/// metric lanes, each independently sliceable per shard. Obtained via
/// [`EngineCore::parallel_parts`].
pub struct ParallelParts<'a, M: MessageCost> {
    /// The run seed.
    pub seed: u64,
    /// The round being routed.
    pub round: u64,
    /// The fault plan.
    pub faults: &'a FaultPlan,
    /// Maximum extra delivery delay in rounds (0 = synchronous).
    pub max_extra_delay: u64,
    /// Trace event capacity, when tracing is enabled.
    pub trace_capacity: Option<usize>,
    /// The causal trace, read-only until the deltas fold back.
    pub causal: Option<&'a CausalTrace>,
    /// Retransmission policy (`None` = best-effort delivery).
    pub reliable: Option<RetryPolicy>,
    /// One mailbox per node.
    pub inboxes: &'a mut [Vec<Envelope<M>>],
    /// Per-node send/receive tallies. The route phase slices this by
    /// *sender* shard (writing `sent_*` fields only) and the merge
    /// phase re-slices it by *destination* shard (writing `recv_*`
    /// fields only); the two phases are sequential, so the same array
    /// serves both without overlapping borrows.
    pub node_lanes: &'a mut [NodeLane],
}

impl<M: MessageCost> EngineCore<M> {
    /// Creates the core for a population of `n` nodes. `seed` determines
    /// all protocol and fault randomness.
    pub fn new(n: usize, seed: u64) -> Self {
        EngineCore {
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            round: 0,
            seed,
            metrics: RunMetrics::new(n),
            faults: FaultPlan::new(),
            trace: None,
            causal: None,
            detect_schedule: Vec::new(),
            active_suspects: Vec::new(),
            next_detection: 0,
            receive_cap: None,
            max_extra_delay: 0,
            delayed: std::collections::BTreeMap::new(),
            pool: BufferPool::new(),
            reliable: None,
            retransmit_queue: std::collections::BTreeMap::new(),
        }
    }

    /// Installs a fault plan (drops, crashes, recoveries, partitions).
    ///
    /// # Panics
    ///
    /// Panics if the plan crashes a node index that does not exist.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        for c in faults.crashed_nodes() {
            assert!(c < self.inboxes.len(), "crash target {c} out of range");
        }
        if let Some(delay) = faults.detection_delay() {
            let mut schedule = Vec::new();
            for (node, crash) in faults.crash_schedule() {
                let report = crash.saturating_add(delay);
                let id = NodeId::new(node as u32);
                match faults.recovery_round(node) {
                    // Recovered before the detector would have reported
                    // it: the crash goes entirely unnoticed.
                    Some(recovery) if recovery <= report => {}
                    Some(recovery) => {
                        schedule.push((report, id, DetectorAction::Suspect));
                        schedule.push((
                            recovery.saturating_add(delay),
                            id,
                            DetectorAction::Retract,
                        ));
                    }
                    None => schedule.push((report, id, DetectorAction::Suspect)),
                }
            }
            // Churn naps are crash/recovery windows like any other: a
            // nap the detector would report before it ends gets a
            // suspect/retract pair; a nap shorter than the detector's
            // latency goes unnoticed.
            if let Some(churn) = faults.churn() {
                for node in 0..self.inboxes.len() {
                    let id = NodeId::new(node as u32);
                    for (down, up) in churn.naps(node) {
                        let report = down.saturating_add(delay);
                        if up <= report {
                            continue;
                        }
                        schedule.push((report, id, DetectorAction::Suspect));
                        schedule.push((up.saturating_add(delay), id, DetectorAction::Retract));
                    }
                }
            }
            schedule.sort_unstable();
            self.detect_schedule = schedule;
        }
        self.faults = faults;
    }

    /// Enables reliable delivery under the given retransmission policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's timeout is 0 (a retransmission cannot
    /// happen in the round that dropped it) or its retry budget is 0
    /// (the layer would park messages and never resend them).
    pub fn set_reliable(&mut self, policy: RetryPolicy) {
        assert!(
            policy.timeout >= 1,
            "a retransmit timeout of 0 cannot resend within the dropping round"
        );
        assert!(
            policy.max_retries >= 1,
            "a reliable policy with a retry budget of 0 does nothing"
        );
        self.reliable = Some(policy);
    }

    /// Enables message tracing with the given event capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::with_capacity(capacity));
    }

    /// Attaches a causal knowledge-provenance trace (typically with the
    /// initially-known pairs already seeded). Like the message trace and
    /// the recorder, it is strictly observational: sampling decisions
    /// come from their own counter-based stream ([`rng::prov_sample`]),
    /// so attaching or re-rating the trace never perturbs any message
    /// fate, on any engine or worker count.
    pub fn set_causal(&mut self, mut causal: CausalTrace) {
        causal.reserve_nodes(self.inboxes.len());
        self.causal = Some(causal);
    }

    /// The causal provenance trace, if enabled.
    pub fn causal(&self) -> Option<&CausalTrace> {
        self.causal.as_ref()
    }

    /// Detaches the causal provenance trace so a driver can archive it
    /// after the run, its edges sorted into `(id, node)` order.
    pub fn take_causal(&mut self) -> Option<CausalTrace> {
        let mut causal = self.causal.take()?;
        causal.sort_edges();
        Some(causal)
    }

    /// Caps deliveries at `cap` messages per node per round; excess
    /// messages queue (in arrival order) for later rounds.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (nothing could ever be delivered).
    pub fn set_receive_cap(&mut self, cap: usize) {
        assert!(cap > 0, "a receive cap of 0 can never deliver anything");
        self.receive_cap = Some(cap);
    }

    /// Makes delivery asynchronous: every message independently takes
    /// `1 + U{0..=max_extra}` rounds to arrive instead of exactly one.
    pub fn set_max_extra_delay(&mut self, max_extra: u64) {
        self.max_extra_delay = max_extra;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inboxes.len()
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The complexity record.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The message trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Hit-rate counters of the core's delay-batch buffer pool
    /// (observability export).
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Peak bytes ever parked in the delay-batch buffer pool
    /// (profiler export).
    pub fn pool_high_water_bytes(&self) -> u64 {
        self.pool.high_water_bytes()
    }

    /// Opens a round: starts its metrics row, folds newly reportable
    /// crashes into the suspect list, and moves messages whose
    /// asynchronous delay expires this round into the mailboxes.
    /// Returns the round number being executed.
    pub fn begin_round(&mut self) -> u64 {
        self.metrics.begin_round();
        let round = self.round;
        // The perfect failure detector reports each crash once its
        // per-crash latency has elapsed, and retracts the report the
        // same latency after a recovery.
        while let Some(&(at, node, action)) = self.detect_schedule.get(self.next_detection) {
            if at > round {
                break;
            }
            match action {
                DetectorAction::Suspect => self.active_suspects.push(node),
                DetectorAction::Retract => {
                    self.active_suspects.retain(|&s| s != node);
                    self.metrics.record_retraction();
                }
            }
            self.next_detection += 1;
        }
        while self
            .delayed
            .first_key_value()
            .is_some_and(|(&at, _)| at <= round)
        {
            let (_, mut batch) = self.delayed.pop_first().expect("nonempty");
            for env in batch.drain(..) {
                self.inboxes[env.dst.index()].push(env);
            }
            self.pool.put(batch);
        }
        round
    }

    /// The failure detector's current crash report (engines lend it to
    /// the nodes through [`step_parts`](EngineCore::step_parts)).
    pub fn suspects(&self) -> &[NodeId] {
        &self.active_suspects
    }

    /// Borrows the state needed to step nodes; see [`StepState`].
    pub fn step_state(&mut self) -> StepState<'_, M> {
        StepState {
            inboxes: &mut self.inboxes,
            faults: &self.faults,
            seed: self.seed,
            receive_cap: self.receive_cap,
        }
    }

    /// Splits the core for stepping nodes: the mailboxes, plus the
    /// round's read-only [`StepInputs`] (the crash report included, lent
    /// without a copy).
    pub fn step_parts(&mut self) -> (&mut [Vec<Envelope<M>>], StepInputs<'_>) {
        let inputs = StepInputs {
            round: self.round,
            seed: self.seed,
            faults: &self.faults,
            receive_cap: self.receive_cap,
            suspects: &self.active_suspects,
        };
        (&mut self.inboxes, inputs)
    }

    /// Routes a round's staged envelopes — canonical
    /// `(sender, send-sequence)` order, senders contiguous — through the
    /// fault layer into next-round mailboxes (or the delay queue),
    /// accounting every message in the metrics and the trace. The buffer
    /// is drained and left empty for reuse.
    ///
    /// Because message fates are counter-based ([`route_fate`]), calling
    /// this once over a whole round or once per sender shard (in shard
    /// order) is observationally identical — and both are bit-identical
    /// to the parallel shard/merge path.
    ///
    /// # Panics
    ///
    /// Panics if any envelope addresses a node that does not exist.
    pub fn route_batch(&mut self, staged: &mut Vec<Envelope<M>>) {
        let round = self.round;
        let n = self.inboxes.len();
        if self.trace.is_none() && self.max_extra_delay == 0 && self.faults.is_fault_free() {
            if let Some(causal) = self.causal.as_mut() {
                // Straight-line delivery, plus the causal sampler:
                // every message is delivered (fault-free, no jitter), so
                // the only extra work is the per-message sampling coin
                // and, for the sampled few, the edge offers.
                let seed = self.seed;
                let ppm = causal.sample_ppm();
                let lanes = self.metrics.lanes();
                let mut prev_src = usize::MAX;
                let mut seq = 0u64;
                let mut base = 0u64;
                let mut sampled_out = 0u64;
                for env in staged.drain(..) {
                    let src = env.src.index();
                    if src != prev_src {
                        prev_src = src;
                        seq = 0;
                        base = rng::prov_base(seed, src, round);
                    }
                    let sequence = seq;
                    seq += 1;
                    let dst = env.dst.index();
                    assert!(
                        dst < n,
                        "message to unknown node {} from {}",
                        env.dst,
                        env.src
                    );
                    let pointers = env.payload.pointers() as u64;
                    if pointers > 0 {
                        if rng::prov_sample_from(base, sequence, ppm) {
                            offer_payload(&env, sequence, round + 1, round + 2, |e| {
                                causal.offer(e)
                            });
                        } else {
                            sampled_out += 1;
                        }
                    }
                    lanes.row.messages += 1;
                    lanes.row.pointers += pointers;
                    let lane = &mut lanes.nodes[src];
                    lane.sent_messages += 1;
                    lane.sent_pointers += pointers;
                    let lane = &mut lanes.nodes[dst];
                    lane.recv_messages += 1;
                    lane.recv_pointers += pointers;
                    self.inboxes[dst].push(env);
                }
                causal.note_sampled_out_by(sampled_out);
            } else {
                // Fault-free, synchronous, untraced: every message is a
                // straight-line tally-and-push — no coins, no branches
                // on per-message state, no map lookups.
                let lanes = self.metrics.lanes();
                for env in staged.drain(..) {
                    let src = env.src.index();
                    let dst = env.dst.index();
                    assert!(
                        dst < n,
                        "message to unknown node {} from {}",
                        env.dst,
                        env.src
                    );
                    let pointers = env.payload.pointers() as u64;
                    lanes.row.messages += 1;
                    lanes.row.pointers += pointers;
                    let lane = &mut lanes.nodes[src];
                    lane.sent_messages += 1;
                    lane.sent_pointers += pointers;
                    let lane = &mut lanes.nodes[dst];
                    lane.recv_messages += 1;
                    lane.recv_pointers += pointers;
                    self.inboxes[dst].push(env);
                }
            }
            return;
        }

        self.route_batch_with(staged, |_, _, _, _, _| 1);
    }

    /// Routes a round's staged envelopes with a caller-supplied base
    /// latency per message: the one routing loop behind every faulty,
    /// jittered or timed round.
    ///
    /// `latency(src, dst, orig_round, orig_seq, attempt)` returns a
    /// transmission's base delivery latency in rounds (`>= 1`); a
    /// message's first send is `(round, send-sequence, attempt 0)`. The
    /// round engines use 1 for every message; the discrete-event engine
    /// draws it from its latency model. A message routed at round `r`
    /// with base latency `lat` and jitter `extra` (from [`route_fate`])
    /// arrives at round `r + lat + extra`; the crash check uses its
    /// arrival without jitter, `r + lat`, so a long-latency message can
    /// outlive its destination. Envelope order, fate coins and all
    /// accounting are otherwise those of [`route_batch`], and dropped
    /// messages park for retransmission at `r + timeout` when reliable
    /// delivery is on.
    ///
    /// [`route_batch`]: EngineCore::route_batch
    ///
    /// # Panics
    ///
    /// Panics if any envelope addresses a node that does not exist, or
    /// if a latency of 0 is returned.
    pub fn route_batch_with<F>(&mut self, staged: &mut Vec<Envelope<M>>, mut latency: F)
    where
        F: FnMut(usize, usize, u64, u64, u32) -> u64,
    {
        let round = self.round;
        let n = self.inboxes.len();
        let seed = self.seed;
        let max_extra = self.max_extra_delay;
        let reliable = self.reliable;
        let guards = FaultGuards::new(&self.faults);
        let trace = &mut self.trace;
        let causal = &mut self.causal;
        let inboxes = &mut self.inboxes;
        let delayed = &mut self.delayed;
        let pool = &mut self.pool;
        let queue = &mut self.retransmit_queue;
        let lanes = self.metrics.lanes();
        let mut prev_src = usize::MAX;
        let mut seq = 0u64;
        for env in staged.drain(..) {
            let src = env.src.index();
            if src != prev_src {
                prev_src = src;
                seq = 0;
            }
            let sequence = seq;
            seq += 1;
            let dst = env.dst.index();
            assert!(
                dst < n,
                "message to unknown node {} from {}",
                env.dst,
                env.src
            );
            let pointers = env.payload.pointers();
            let lat = latency(src, dst, round, sequence, 0);
            assert!(lat >= 1, "a delivery latency of 0 beats causality");
            let blocked = guards.blocked(src, dst, round, round + lat);
            let (drop_p, coin_cause) = guards.coin(src, dst);
            let fate = route_fate(
                seed, round, src, sequence, blocked, drop_p, coin_cause, max_extra,
            );
            if let Some(trace) = trace.as_mut() {
                trace.record(TraceEvent {
                    round,
                    src: env.src,
                    dst: env.dst,
                    pointers,
                    dropped: fate.dropped,
                });
            }
            let lane = &mut lanes.nodes[src];
            lane.sent_messages += 1;
            lane.sent_pointers += pointers as u64;
            if let Some(cause) = fate.dropped {
                lanes.row.drops.add(cause);
                if let Some(policy) = reliable {
                    queue
                        .entry(round + policy.timeout)
                        .or_default()
                        .push(RetryEnvelope {
                            env,
                            orig_round: round,
                            orig_seq: sequence,
                            attempts: 0,
                        });
                }
            } else {
                let arrival = round + lat + fate.extra_delay;
                trace_delivery(
                    causal.as_mut(),
                    seed,
                    &env,
                    (round, sequence),
                    round + 1,
                    arrival + 1,
                );
                lanes.row.messages += 1;
                lanes.row.pointers += pointers as u64;
                let lane = &mut lanes.nodes[dst];
                lane.recv_messages += 1;
                lane.recv_pointers += pointers as u64;
                if arrival == round + 1 {
                    inboxes[dst].push(env);
                } else {
                    delayed
                        .entry(arrival)
                        .or_insert_with(|| pool.take())
                        .push(env);
                }
            }
        }
    }

    /// Borrows the state a parallel router needs; see [`ParallelParts`].
    ///
    /// # Panics
    ///
    /// Panics if no round is open (`begin_round` not called).
    pub fn parallel_parts(&mut self) -> ParallelParts<'_, M> {
        let lanes = self.metrics.lanes();
        ParallelParts {
            seed: self.seed,
            round: self.round,
            faults: &self.faults,
            max_extra_delay: self.max_extra_delay,
            trace_capacity: self.trace.as_ref().map(Trace::capacity),
            causal: self.causal.as_ref(),
            reliable: self.reliable,
            inboxes: &mut self.inboxes,
            node_lanes: lanes.nodes,
        }
    }

    /// Folds per-shard routing results back into the core: metric rows
    /// and trace fragments from `deltas` (in shard order) and delayed
    /// deliveries from the merge phase (as `(arrival round, envelope)`,
    /// one list per destination shard, in shard order).
    ///
    /// Trace fragments concatenate to the canonical global order, so
    /// re-recording them through the capacity-bounded [`Trace`] stores
    /// exactly the events the sequential path would have stored. Delayed
    /// lists are keyed into the delay queue; only per-destination
    /// relative order is observable at delivery time, and that order
    /// (canonical sender order per destination) is already fixed by the
    /// merge phase.
    pub fn apply_route_deltas(
        &mut self,
        deltas: &mut [RouteDelta<M>],
        delayed_lists: &mut [Vec<(u64, Envelope<M>)>],
    ) {
        let reliable = self.reliable;
        let round = self.round;
        let queue = &mut self.retransmit_queue;
        let lanes = self.metrics.lanes();
        for delta in deltas.iter_mut() {
            lanes.row.messages += delta.row.messages;
            lanes.row.pointers += delta.row.pointers;
            lanes.row.drops.merge(&delta.row.drops);
            lanes.row.retransmissions += delta.row.retransmissions;
            if let Some(trace) = self.trace.as_mut() {
                for event in delta.trace_events.drain(..) {
                    trace.record(event);
                }
                trace.add_overflow(delta.trace_overflow);
            }
            if let Some(causal) = self.causal.as_mut() {
                // Shard order = canonical offer order, so folding the
                // fragments reproduces the serial path's DAG, capacity
                // effects included.
                causal.fold(std::mem::take(&mut delta.prov));
            }
            if let Some(policy) = reliable {
                if !delta.retries.is_empty() {
                    // Shard order = canonical sender order, so the queue
                    // batch matches what the serial path builds.
                    queue
                        .entry(round + policy.timeout)
                        .or_default()
                        .append(&mut delta.retries);
                }
            }
        }
        let delayed = &mut self.delayed;
        let pool = &mut self.pool;
        for list in delayed_lists.iter_mut() {
            for (at, env) in list.drain(..) {
                delayed.entry(at).or_insert_with(|| pool.take()).push(env);
            }
        }
    }

    /// Closes the round: makes every retransmission attempt due by now
    /// (when reliable delivery is enabled), at the round engines' unit
    /// base latency, then [`finish_tick`](EngineCore::finish_tick).
    pub fn finish_round(&mut self) {
        if self.reliable.is_some() {
            self.retransmit_due(|_, _, _, _, _| 1);
        }
        self.finish_tick();
    }

    /// Closes a tick *without* a retransmission sweep: seals the causal
    /// trace and advances the clock, nothing else. The discrete-event
    /// engine, which makes due attempts when its timer fires (via
    /// [`retransmit_due`](EngineCore::retransmit_due)), closes with
    /// this instead of [`finish_round`](EngineCore::finish_round).
    pub fn finish_tick(&mut self) {
        if let Some(causal) = self.causal.as_mut() {
            // The causal trace's round barrier, after every offer of the
            // round (retransmissions included). A message routed while
            // the counter reads `r` is delivered in 1-based round `r + 2`
            // at the earliest, so once this round's sends are routed
            // every later offer lands in round `r + 3` or after:
            // retained edges delivered by `r + 2` are final.
            causal.seal(self.round + 2);
        }
        self.round += 1;
    }

    /// Makes every retransmission attempt due by the current round: the
    /// one retransmission sweep, with a caller-supplied base latency per
    /// attempt exactly as in [`route_batch_with`] (the attempt's
    /// `(orig_round, orig_seq)` name its original send).
    ///
    /// Runs serially after routing, draining the resend queue in
    /// `(resend round, canonical drop order)` order, so every engine and
    /// worker count replays attempts identically. Attempts are charged
    /// like fresh sends (plus the `retransmissions` tally) but are not
    /// traced — the trace records the protocol's own sends. An attempt
    /// that gets through is offered to the causal trace like any
    /// delivery, with the attempt's own send and delivery rounds. A
    /// still-failing attempt re-parks the message with exponentially
    /// backed-off delay until the retry budget runs out; because crash
    /// and partition checks use the attempt's own round, a
    /// retransmission can land after its destination recovers or the
    /// partition heals.
    ///
    /// [`route_batch_with`]: EngineCore::route_batch_with
    ///
    /// # Panics
    ///
    /// Panics if reliable delivery is not enabled or a latency of 0 is
    /// returned.
    pub fn retransmit_due<F>(&mut self, mut latency: F)
    where
        F: FnMut(usize, usize, u64, u64, u32) -> u64,
    {
        let policy = self.reliable.expect("reliable delivery enabled");
        let round = self.round;
        let seed = self.seed;
        let max_extra = self.max_extra_delay;
        let guards = FaultGuards::new(&self.faults);
        let causal = &mut self.causal;
        let inboxes = &mut self.inboxes;
        let delayed = &mut self.delayed;
        let pool = &mut self.pool;
        let queue = &mut self.retransmit_queue;
        let lanes = self.metrics.lanes();
        while queue.first_key_value().is_some_and(|(&at, _)| at <= round) {
            let (_, batch) = queue.pop_first().expect("nonempty");
            for retry in batch {
                let src = retry.env.src.index();
                let dst = retry.env.dst.index();
                let attempt = retry.attempts + 1;
                let lat = latency(src, dst, retry.orig_round, retry.orig_seq, attempt);
                assert!(lat >= 1, "a delivery latency of 0 beats causality");
                let blocked = guards.blocked(src, dst, round, round + lat);
                let (drop_p, coin_cause) = guards.coin(src, dst);
                let fate = retry_fate(
                    seed,
                    src,
                    retry.orig_round,
                    retry.orig_seq,
                    attempt,
                    blocked,
                    drop_p,
                    coin_cause,
                    max_extra,
                );
                let pointers = retry.env.payload.pointers() as u64;
                lanes.row.retransmissions += 1;
                let lane = &mut lanes.nodes[src];
                lane.sent_messages += 1;
                lane.sent_pointers += pointers;
                if let Some(cause) = fate.dropped {
                    lanes.row.drops.add(cause);
                    if attempt < policy.max_retries {
                        // Backoff delays are ≥ 1, so the new slot is
                        // strictly in the future and never re-drained
                        // by this loop.
                        queue
                            .entry(round + policy.delay_after(attempt))
                            .or_default()
                            .push(RetryEnvelope {
                                attempts: attempt,
                                ..retry
                            });
                    }
                } else {
                    let arrival = round + lat + fate.extra_delay;
                    trace_delivery(
                        causal.as_mut(),
                        seed,
                        &retry.env,
                        (retry.orig_round, retry.orig_seq),
                        round + 1,
                        arrival + 1,
                    );
                    lanes.row.messages += 1;
                    lanes.row.pointers += pointers;
                    let lane = &mut lanes.nodes[dst];
                    lane.recv_messages += 1;
                    lane.recv_pointers += pointers;
                    if arrival == round + 1 {
                        inboxes[dst].push(retry.env);
                    } else {
                        delayed
                            .entry(arrival)
                            .or_insert_with(|| pool.take())
                            .push(retry.env);
                    }
                }
            }
        }
    }

    /// The earliest round at which a parked retransmission becomes due,
    /// if any. The discrete-event engine arms its retransmission timer
    /// at this instant.
    pub fn next_retransmission_due(&self) -> Option<u64> {
        self.retransmit_queue.keys().next().copied()
    }
}

/// Takes a node's deliverable inbox for this round: the whole mailbox,
/// or — under a receive cap — the oldest `cap` messages (moved into
/// `scratch`, which is overwritten), leaving the rest queued for later
/// rounds. Either way the returned buffer is the one to hand to
/// [`step_node`], which clears it after the node runs, so mailbox
/// capacity is recycled across rounds instead of reallocated.
pub fn take_capped<'a, M>(
    inbox: &'a mut Vec<Envelope<M>>,
    scratch: &'a mut Vec<Envelope<M>>,
    cap: Option<usize>,
) -> &'a mut Vec<Envelope<M>> {
    match cap {
        Some(cap) if inbox.len() > cap => {
            // Deliver the oldest `cap` messages; the rest wait.
            scratch.clear();
            scratch.extend(inbox.drain(..cap));
            scratch
        }
        _ => inbox,
    }
}

/// Runs one node for one round: builds its private
/// per-`(seed, node, round)` random stream and its [`RoundContext`],
/// and hands it `inbox` (cleared afterwards, so the buffer can be
/// reused). Sends are appended to `outbox` in send order.
///
/// This is the single entry point through which every engine executes
/// protocol logic, so context construction (and thus the randomness a
/// node observes) cannot differ between engines.
pub fn step_node<N: Node>(
    node: &mut N,
    index: usize,
    round: u64,
    seed: u64,
    suspects: &[NodeId],
    inbox: &mut Vec<Envelope<N::Msg>>,
    outbox: &mut Vec<Envelope<N::Msg>>,
) {
    let mut node_rng = rng::node_round_rng(seed, index, round);
    let mut ctx = RoundContext::new(NodeId::new(index as u32), round, &mut node_rng, outbox)
        .with_suspects(suspects);
    node.on_round(inbox, &mut ctx);
    inbox.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MessageCost for u32 {
        fn pointers(&self) -> usize {
            1
        }
        fn visit_ids(&self, visit: &mut dyn FnMut(NodeId)) {
            visit(NodeId::new(*self));
        }
    }

    fn env(src: u32, dst: u32, payload: u32) -> Envelope<u32> {
        Envelope::new(NodeId::new(src), NodeId::new(dst), payload)
    }

    #[test]
    fn take_capped_full_and_split() {
        let mut inbox = vec![env(1, 0, 10), env(2, 0, 20), env(3, 0, 30)];
        let mut scratch = Vec::new();
        {
            let got = take_capped(&mut inbox, &mut scratch, Some(2));
            assert_eq!(got.len(), 2);
            assert_eq!(got[0].payload, 10);
        }
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].payload, 30);

        let got = take_capped(&mut inbox, &mut scratch, None);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 30);
    }

    #[test]
    fn route_batch_delivers_into_next_round_mailbox() {
        let mut core: EngineCore<u32> = EngineCore::new(3, 1);
        assert_eq!(core.begin_round(), 0);
        core.route_batch(&mut vec![env(0, 2, 7)]);
        core.finish_round();
        assert_eq!(core.round(), 1);
        assert_eq!(core.metrics().total_messages(), 1);
        let state = core.step_state();
        assert_eq!(state.inboxes[2].len(), 1);
        assert!(state.inboxes[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn route_batch_rejects_unknown_destination() {
        let mut core: EngineCore<u32> = EngineCore::new(2, 1);
        core.begin_round();
        core.route_batch(&mut vec![env(0, 5, 1)]);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn route_shard_rejects_unknown_destination() {
        let params = RouteParams {
            seed: 1,
            round: 0,
            faults: &FaultPlan::new(),
            max_extra_delay: 0,
            trace_capacity: None,
            causal: None,
            reliable: None,
            node_count: 2,
            shard_len: 2,
        };
        route_shard(
            params,
            &mut vec![env(0, 5, 1)],
            0,
            &mut [NodeLane::default(), NodeLane::default()],
            vec![Vec::new()],
        );
    }

    #[test]
    fn route_fate_is_a_pure_function_of_its_inputs() {
        let fate = |seq| route_fate(9, 3, 1, seq, None, 0.5, DropCause::Coin, 4);
        assert_eq!(fate(0), fate(0));
        assert_eq!(fate(7), fate(7));
        // A fault-free synchronous policy never drops or delays.
        assert_eq!(
            route_fate(9, 3, 1, 0, None, 0.0, DropCause::Coin, 0),
            RouteFate::DELIVER
        );
        // A blocked path always drops with its cause, without consuming
        // coins.
        for cause in [
            DropCause::Crash,
            DropCause::Partition,
            DropCause::Suppression,
        ] {
            assert_eq!(
                route_fate(9, 3, 1, 0, Some(cause), 0.0, DropCause::Coin, 0),
                RouteFate::drop(cause)
            );
        }
        // The coin attributes to the caller-selected cause (the link
        // overlay substitutes `Link`) without changing the coin itself.
        for seq in 0..128 {
            let base = route_fate(9, 3, 1, seq, None, 0.5, DropCause::Coin, 4);
            let link = route_fate(9, 3, 1, seq, None, 0.5, DropCause::Link, 4);
            assert_eq!(base.is_dropped(), link.is_dropped(), "same coin, seq {seq}");
            assert_eq!(base.extra_delay, link.extra_delay);
            if link.is_dropped() {
                assert_eq!(link.dropped, Some(DropCause::Link));
            }
        }
        // Fates vary across the sequence axis (statistically: across
        // 128 sequence numbers at p = 0.5, both outcomes must occur).
        let drops = (0..128).filter(|&s| fate(s).is_dropped()).count();
        assert!(drops > 0 && drops < 128, "sequence axis ignored: {drops}");
    }

    #[test]
    fn retry_fate_is_pure_and_independent_of_the_route_stream() {
        let fate = |attempt| retry_fate(9, 1, 3, 0, attempt, None, 0.5, DropCause::Coin, 0);
        assert_eq!(fate(1), fate(1));
        // Attempts draw independent coins (statistically: across 128
        // attempts at p = 0.5, both outcomes must occur).
        let drops = (1..=128).filter(|&a| fate(a).is_dropped()).count();
        assert!(drops > 0 && drops < 128, "attempt axis ignored: {drops}");
        assert_eq!(
            retry_fate(
                9,
                1,
                3,
                0,
                1,
                Some(DropCause::Crash),
                0.0,
                DropCause::Coin,
                0
            ),
            RouteFate::drop(DropCause::Crash)
        );
        assert_eq!(
            retry_fate(
                9,
                1,
                3,
                0,
                1,
                Some(DropCause::Partition),
                0.0,
                DropCause::Coin,
                0
            ),
            RouteFate::drop(DropCause::Partition)
        );
        assert_eq!(
            retry_fate(9, 1, 3, 0, 1, None, 0.0, DropCause::Coin, 0),
            RouteFate::DELIVER
        );
    }

    #[test]
    fn fault_guards_classify_blocks_and_coins() {
        let plan = FaultPlan::new()
            .with_drop_probability(0.1)
            .with_crash_at(3, 5)
            .with_partition([vec![0, 1], vec![2, 3]], 0, 10)
            .with_suppression(crate::faults::SuppressionSpec::new(
                7,
                [(0, 1)],
                0,
                10,
                1_000_000,
            ))
            .with_link_loss(crate::faults::LinkLossSpec::new(7, 1_000_000, 400_000));
        let guards = FaultGuards::new(&plan);
        // Precedence: crash beats partition beats suppression.
        assert_eq!(guards.blocked(0, 3, 6, 7), Some(DropCause::Crash));
        assert_eq!(guards.blocked(0, 3, 2, 3), Some(DropCause::Partition));
        assert_eq!(guards.blocked(0, 1, 2, 3), Some(DropCause::Suppression));
        assert_eq!(guards.blocked(0, 1, 12, 13), None, "windows expired");
        // Every link is lossy at 40% > base 10%: the overlay's coin wins.
        assert_eq!(guards.coin(0, 1), (0.4, DropCause::Link));
        // A weaker overlay defers to the base coin.
        let weak = FaultPlan::new()
            .with_drop_probability(0.5)
            .with_link_loss(crate::faults::LinkLossSpec::new(7, 1_000_000, 400_000));
        assert_eq!(FaultGuards::new(&weak).coin(0, 1), (0.5, DropCause::Coin));
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let policy = RetryPolicy {
            timeout: 2,
            max_retries: 8,
            max_backoff: 12,
        };
        assert_eq!(policy.delay_after(0), 2);
        assert_eq!(policy.delay_after(1), 4);
        assert_eq!(policy.delay_after(2), 8);
        assert_eq!(policy.delay_after(3), 12, "capped");
        assert_eq!(policy.delay_after(63), 12, "no overflow");
        let min = RetryPolicy {
            timeout: 1,
            max_retries: 1,
            max_backoff: 0,
        };
        assert_eq!(min.delay_after(5), 1, "floored at one round");
    }

    #[test]
    fn batch_and_shard_routing_agree_under_faults_and_delay() {
        // The serial batch path and the shard/merge path must produce
        // identical mailboxes, delay queues, metrics, and traces.
        let staged = || -> Vec<Envelope<u32>> {
            let mut v = Vec::new();
            for src in 0..4u32 {
                for k in 0..5u32 {
                    v.push(env(src, (src + k + 1) % 6, src * 10 + k));
                }
            }
            v
        };
        let plan = || {
            FaultPlan::new()
                .with_drop_probability(0.3)
                .with_crashes([5])
                .with_partition([vec![0, 1, 2], vec![3, 4]], 0, 2)
        };

        let mut serial: EngineCore<u32> = EngineCore::new(6, 42);
        serial.set_faults(plan());
        serial.set_max_extra_delay(2);
        serial.enable_trace(1 << 10);
        serial.set_causal(CausalTrace::new(1 << 10, 600_000));
        serial.set_reliable(RetryPolicy::default());
        serial.begin_round();
        serial.route_batch(&mut staged());

        let mut sharded: EngineCore<u32> = EngineCore::new(6, 42);
        sharded.set_faults(plan());
        sharded.set_max_extra_delay(2);
        sharded.enable_trace(1 << 10);
        sharded.set_causal(CausalTrace::new(1 << 10, 600_000));
        sharded.set_reliable(RetryPolicy::default());
        sharded.begin_round();
        let shard_len = 2;
        {
            let parts = sharded.parallel_parts();
            let params = RouteParams {
                seed: parts.seed,
                round: parts.round,
                faults: parts.faults,
                max_extra_delay: parts.max_extra_delay,
                trace_capacity: parts.trace_capacity,
                causal: parts.causal,
                reliable: parts.reliable,
                node_count: 6,
                shard_len,
            };
            let all = staged();
            let mut deltas = Vec::new();
            for w in 0..3 {
                // Sender shard w: envelopes whose src is in the shard.
                let mut mine: Vec<_> = all
                    .iter()
                    .filter(|e| e.src.index() / shard_len == w)
                    .cloned()
                    .collect();
                let lo = w * shard_len;
                let hi = lo + shard_len;
                deltas.push(route_shard(
                    params,
                    &mut mine,
                    lo,
                    &mut parts.node_lanes[lo..hi],
                    (0..3).map(|_| Vec::new()).collect(),
                ));
            }
            let mut delayed_lists: Vec<Vec<(u64, Envelope<u32>)>> =
                (0..3).map(|_| Vec::new()).collect();
            for (d, delayed) in delayed_lists.iter_mut().enumerate() {
                let mut parts_d: Vec<Vec<(u64, Envelope<u32>)>> = deltas
                    .iter_mut()
                    .map(|delta| std::mem::take(&mut delta.buckets[d]))
                    .collect();
                let lo = d * shard_len;
                let hi = lo + shard_len;
                merge_dest_shard(
                    params.round,
                    lo,
                    &mut parts_d,
                    &mut parts.inboxes[lo..hi],
                    &mut parts.node_lanes[lo..hi],
                    delayed,
                );
            }
            sharded.apply_route_deltas(&mut deltas, &mut delayed_lists);
        }

        assert_eq!(serial.metrics(), sharded.metrics());
        assert!(serial.metrics().drop_tally().partition > 0);
        assert_eq!(
            serial.trace().unwrap().events(),
            sharded.trace().unwrap().events()
        );
        // The provenance DAG (edges, roots, and every counter) folds to
        // the exact serial result, sampling included.
        assert_eq!(serial.causal(), sharded.causal());
        assert!(!serial.causal().unwrap().is_empty());
        assert!(serial.causal().unwrap().sampled_out() > 0);
        // Every drop was parked for retransmission, in the same order.
        assert_eq!(serial.retransmit_queue, sharded.retransmit_queue);
        assert_eq!(
            serial
                .retransmit_queue
                .values()
                .map(Vec::len)
                .sum::<usize>() as u64,
            serial.metrics().total_dropped()
        );
        // Mailbox contents agree exactly.
        for i in 0..6 {
            assert_eq!(
                serial.step_state().inboxes[i],
                sharded.step_state().inboxes[i],
                "mailbox {i} diverged"
            );
        }
        // Delay queues agree on arrival rounds and, per destination, on
        // the exact delivery sequence. (Cross-destination interleaving
        // inside a batch is unobservable: `begin_round` splits every
        // batch into per-node mailboxes.)
        let keys = |c: &EngineCore<u32>| c.delayed.keys().copied().collect::<Vec<_>>();
        assert_eq!(keys(&serial), keys(&sharded));
        for (at, batch) in &serial.delayed {
            let other = &sharded.delayed[at];
            for dst in 0..6u32 {
                let per_dst = |b: &[Envelope<u32>]| {
                    b.iter()
                        .filter(|e| e.dst == NodeId::new(dst))
                        .map(|e| e.payload)
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    per_dst(batch),
                    per_dst(other),
                    "delayed to {dst} at {at} diverged"
                );
            }
        }
    }

    #[test]
    fn detector_feeds_suspects_in_report_order() {
        let mut core: EngineCore<u32> = EngineCore::new(4, 1);
        core.set_faults(
            FaultPlan::new()
                .with_crashes([2])
                .with_crash_at(1, 3)
                .with_crash_detection_after(2),
        );
        for expect in [
            &[][..],
            &[][..],
            &[NodeId::new(2)][..],
            &[NodeId::new(2)][..],
            &[NodeId::new(2)][..],
            &[NodeId::new(2), NodeId::new(1)][..],
        ] {
            core.begin_round();
            assert_eq!(core.suspects(), expect, "round {}", core.round());
            core.finish_round();
        }
    }

    #[test]
    fn detector_retracts_suspicion_after_recovery() {
        // Node 1 dead rounds 2..5, detector latency 2: suspected at 4,
        // retracted at 7. Node 2 dead 0..3 but its recovery (3) lands
        // before its report (2 + 2 = 4)? No — report would be at 2,
        // recovery at 3 is after it, so it is suspected then retracted.
        let mut core: EngineCore<u32> = EngineCore::new(4, 1);
        core.set_faults(
            FaultPlan::new()
                .with_crash_at(1, 2)
                .with_recovery_at(1, 5)
                .with_crashes([2])
                .with_recovery_at(2, 3)
                .with_crash_detection_after(2),
        );
        for (round, expect) in [
            (0u64, &[][..]),
            (1, &[][..]),
            (2, &[NodeId::new(2)][..]),
            (3, &[NodeId::new(2)][..]),
            (4, &[NodeId::new(2), NodeId::new(1)][..]),
            (5, &[NodeId::new(1)][..]), // node 2's retraction at 3+2
            (6, &[NodeId::new(1)][..]),
            (7, &[][..]), // node 1's retraction at 5+2
            (8, &[][..]),
        ] {
            core.begin_round();
            assert_eq!(core.suspects(), expect, "round {round}");
            core.finish_round();
        }
        assert_eq!(core.metrics().detector_retractions(), 2);
    }

    #[test]
    fn fast_recovery_is_never_suspected() {
        // Recovery at 3 beats the would-be report at 0 + 4 = 4.
        let mut core: EngineCore<u32> = EngineCore::new(4, 1);
        core.set_faults(
            FaultPlan::new()
                .with_crashes([2])
                .with_recovery_at(2, 3)
                .with_crash_detection_after(4),
        );
        for _ in 0..8 {
            core.begin_round();
            assert_eq!(core.suspects(), &[][..]);
            core.finish_round();
        }
        assert_eq!(core.metrics().detector_retractions(), 0);
    }

    #[test]
    fn reliable_delivery_retries_through_a_crash_window() {
        // Node 1 is dead for rounds 1..4. A message sent to it in round
        // 0 is dropped, parked, and retried (timeout 1, backoff 1-2-4…)
        // until an attempt lands after the recovery.
        let mut core: EngineCore<u32> = EngineCore::new(2, 7);
        core.set_faults(FaultPlan::new().with_crash_at(1, 1).with_recovery_at(1, 4));
        core.set_reliable(RetryPolicy {
            timeout: 1,
            max_retries: 5,
            max_backoff: 8,
        });
        core.begin_round();
        core.route_batch(&mut vec![env(0, 1, 99)]);
        core.finish_round();
        for _ in 0..5 {
            core.begin_round();
            core.route_batch(&mut Vec::new());
            core.finish_round();
        }
        let delivered = core.step_state().inboxes[1].iter().any(|e| e.payload == 99);
        assert!(delivered, "retransmission never landed");
        let m = core.metrics();
        assert_eq!(m.total_retransmissions(), 2, "attempts at rounds 1 and 3");
        assert_eq!(m.total_dropped(), 2, "original send plus first retry");
        assert_eq!(m.drop_tally().crash, 2);
        assert_eq!(
            m.total_messages(),
            3,
            "one original send plus two retransmissions"
        );
    }

    #[test]
    fn reliable_delivery_gives_up_after_its_retry_budget() {
        // Node 1 never recovers; the retry budget (2) runs out and the
        // queue drains without delivering.
        let mut core: EngineCore<u32> = EngineCore::new(2, 7);
        core.set_faults(FaultPlan::new().with_crash_at(1, 1));
        core.set_reliable(RetryPolicy {
            timeout: 1,
            max_retries: 2,
            max_backoff: 8,
        });
        core.begin_round();
        core.route_batch(&mut vec![env(0, 1, 99)]);
        core.finish_round();
        for _ in 0..8 {
            core.begin_round();
            core.route_batch(&mut Vec::new());
            core.finish_round();
        }
        assert!(core.step_state().inboxes[1].is_empty());
        assert!(core.retransmit_queue.is_empty(), "budget exhausted");
        assert_eq!(core.metrics().total_retransmissions(), 2);
        assert_eq!(core.metrics().total_dropped(), 3);
    }

    #[test]
    fn reliable_delivery_retries_across_a_partition_heal() {
        let mut core: EngineCore<u32> = EngineCore::new(4, 7);
        core.set_faults(FaultPlan::new().with_partition([vec![0, 1], vec![2, 3]], 0, 2));
        core.set_reliable(RetryPolicy {
            timeout: 2,
            max_retries: 3,
            max_backoff: 8,
        });
        core.begin_round();
        core.route_batch(&mut vec![env(0, 2, 55)]);
        core.finish_round();
        for _ in 0..4 {
            core.begin_round();
            core.route_batch(&mut Vec::new());
            core.finish_round();
        }
        // Dropped at round 0 (partition), retried at round 2 (healed).
        assert!(core.step_state().inboxes[2].iter().any(|e| e.payload == 55));
        let m = core.metrics();
        assert_eq!(m.drop_tally().partition, 1);
        assert_eq!(m.total_retransmissions(), 1);
    }
}
