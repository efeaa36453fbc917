#![warn(missing_docs)]

//! A sharded, multi-threaded execution engine for large discovery runs.
//!
//! [`ShardedEngine`] is `rd-sim`'s one [`DeliveryEngine`] under the
//! [`Sharded`] delivery policy: it drives the same [`Node`] programs as
//! the sequential [`rd_sim::Engine`], with the same builder, accessors
//! and [`RoundEngine`](rd_sim::RoundEngine) contract, but steps nodes
//! on several worker threads per round. The population is sharded
//! *statically by `NodeId`* into contiguous blocks — one block of nodes
//! and the matching block of mailboxes per worker — so workers need no
//! locks: each owns its slice of nodes and inboxes for the duration of
//! the stepping phase. The first shard runs on the calling thread, so a
//! single worker spawns no thread at all.
//!
//! # Determinism
//!
//! The engine is **bit-identical** to the sequential engine: same seed,
//! same nodes, same faults ⇒ same `RunOutcome`, same `RunMetrics`, same
//! trace, round for round. Three properties make this work:
//!
//! 1. *Node steps are order-independent.* Every node draws from a
//!    private per-`(seed, node, round)` random stream
//!    ([`rd_sim::rng::node_round_rng`]) and sees only its own inbox, so
//!    stepping nodes concurrently cannot change what any node computes.
//! 2. *Message fates are order-independent.* Drop and delay coins are a
//!    pure function of `(seed, sender, round, send-sequence)`
//!    ([`rd_sim::route_fate`]): routing one envelope never advances any
//!    stream another envelope reads, so routing order — and therefore
//!    worker count — cannot change any coin.
//! 3. *Deliveries merge in canonical `(sender, sequence)` order.* Each
//!    worker stages and routes its shard's sends in node-index order
//!    (each node's sends in send order) into per-destination-shard
//!    buckets; the merge phase processes, for every destination shard,
//!    the workers' buckets in worker (= sender shard) order. Because
//!    shards are contiguous index blocks, every mailbox receives its
//!    messages in exactly the global sender order the sequential engine
//!    produces.
//!
//! Round bookkeeping and the routing/accounting primitives are
//! inherited from [`EngineCore`] — the single accounting layer every
//! engine uses, so metrics and fault semantics cannot drift between
//! them. Both the node-stepping phase and the routing phase are fanned
//! out across `crossbeam` scoped threads; shard-local routing results
//! ([`rd_sim::engine_core::RouteDelta`]) fold associatively back into
//! the core's metrics, trace, and delay queue. The policy lives in this
//! crate rather than in `rd-sim` because `rd-sim` takes no threading
//! dependency.
//!
//! # Example
//!
//! ```
//! use rd_exec::ShardedEngine;
//! use rd_sim::{Engine, Envelope, MessageCost, Node, NodeId, RoundContext, RoundEngine};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl MessageCost for Ping {
//!     fn pointers(&self) -> usize { 0 }
//! }
//!
//! #[derive(Clone)]
//! struct Player { peer: NodeId, hits: u32 }
//! impl Node for Player {
//!     type Msg = Ping;
//!     fn on_round(
//!         &mut self,
//!         inbox: &mut Vec<Envelope<Ping>>,
//!         ctx: &mut RoundContext<'_, Ping>,
//!     ) {
//!         if ctx.round() == 0 && ctx.id() == NodeId::new(0) {
//!             ctx.send(self.peer, Ping);
//!         }
//!         for _ in inbox.drain(..) {
//!             self.hits += 1;
//!             if self.hits < 3 { ctx.send(self.peer, Ping); }
//!         }
//!     }
//! }
//!
//! let players = vec![
//!     Player { peer: NodeId::new(1), hits: 0 },
//!     Player { peer: NodeId::new(0), hits: 0 },
//! ];
//! let done = |nodes: &[Player]| nodes.iter().all(|p| p.hits >= 2);
//!
//! let mut sharded = ShardedEngine::new(players.clone(), 42, 2);
//! let mut sequential = Engine::new(players, 42);
//! assert_eq!(
//!     sharded.run_until(20, done),
//!     sequential.run_until(20, done),
//! );
//! assert_eq!(sharded.metrics(), sequential.metrics());
//! ```

use rd_obs::{Phase, Recorder, SpanEvent};
use rd_sim::engine_core::{merge_dest_shard, route_shard, EngineCore, RouteDelta, RouteParams};
use rd_sim::{
    in_span, BufferPool, Delivery, DeliveryEngine, Envelope, FromParam, MessageCost, Node, NodeLane,
};
use std::time::Instant;

/// Below this many staged messages per round, the per-destination merge
/// runs on the calling thread: spawning merge workers costs more than
/// the merge itself. (The *routing* fan-out has no such threshold — the
/// route workers exist anyway, and running every configuration through
/// the sharded route path keeps it continuously exercised by the
/// equivalence tests.)
const PARALLEL_MERGE_MIN_MESSAGES: usize = 4096;

/// Deliverable messages tagged with their extra delay, one bucket per
/// destination shard.
type RoutedBuckets<M> = Vec<Vec<(u64, Envelope<M>)>>;

/// One destination shard's merge inputs: its mailboxes and recv-tally
/// lanes, the per-worker bucket parts addressed to it, and its delayed
/// deliveries.
type MergeJob<'a, M> = (
    (&'a mut [Vec<Envelope<M>>], &'a mut [NodeLane]),
    (&'a mut RoutedBuckets<M>, &'a mut Vec<(u64, Envelope<M>)>),
);

/// A round engine that steps nodes on `workers` threads:
/// `ShardedEngine::new(nodes, seed, workers)`. The builder knobs and
/// accessors are those of every [`DeliveryEngine`]; see the [crate
/// docs](crate) for the sharding scheme and the determinism argument.
pub type ShardedEngine<N> = DeliveryEngine<N, Sharded<<N as Node>::Msg>>;

/// The sharded delivery policy: contiguous node shards stepped in
/// parallel, then routed through [`route_staged`].
pub struct Sharded<M> {
    workers: usize,
    /// Recycled staging/scratch buffers for the stepping phase.
    env_pool: BufferPool<Envelope<M>>,
    /// Recycled bucket/delay buffers for the routing phase.
    routed_pool: BufferPool<(u64, Envelope<M>)>,
    /// This round's staged sends, one buffer per shard, held from the
    /// stepping phase to the routing phase.
    staged: Vec<Vec<Envelope<M>>>,
}

impl<M> FromParam for Sharded<M> {
    type Param = usize;

    /// # Panics
    ///
    /// Panics if `workers == 0`.
    fn from_param(workers: usize, _node_count: usize) -> Self {
        assert!(workers > 0, "a sharded engine needs at least one worker");
        Sharded {
            workers,
            env_pool: BufferPool::new(),
            routed_pool: BufferPool::new(),
            staged: Vec::new(),
        }
    }
}

impl<M> Sharded<M> {
    /// Nodes per shard: contiguous blocks of ⌈n / workers⌉ nodes, the
    /// final shard possibly short.
    fn shard_len(&self, n: usize) -> usize {
        n.div_ceil(self.workers.min(n).max(1)).max(1)
    }
}

/// Runs `job` over `items` — the first on the calling thread, each other
/// on a scoped thread of its own — and returns the results in item
/// order. A panicking job (e.g. a panicking node program) panics the
/// caller, exactly as in the sequential engine.
fn fan_out<I, R>(items: impl IntoIterator<Item = I>, job: impl Fn(usize, I) -> R + Sync) -> Vec<R>
where
    I: Send,
    R: Send,
{
    let mut items = items.into_iter().enumerate();
    let Some((_, first)) = items.next() else {
        return Vec::new();
    };
    let job = &job;
    let scoped = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .map(|(i, item)| scope.spawn(move |_| job(i, item)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(job(0, first));
        for handle in handles {
            match handle.join() {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    });
    match scoped {
        Ok(out) => out,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Times `f` as a `phase` span of `worker` against the recorder's
/// `epoch`, when one is attached.
fn timed<R>(
    epoch: Option<Instant>,
    phase: Phase,
    round: u64,
    worker: usize,
    f: impl FnOnce() -> R,
) -> (R, Option<SpanEvent>) {
    let start = epoch.map(|_| Instant::now());
    let out = f();
    let span = epoch.map(|e| {
        SpanEvent::from_instants(
            e,
            phase,
            round,
            worker as u32,
            start.unwrap(),
            Instant::now(),
        )
    });
    (out, span)
}

impl<N> Delivery<N> for Sharded<N::Msg>
where
    N: Node + Send,
    N::Msg: Send,
{
    /// Steps each shard on its own worker (the first on the calling
    /// thread). Workers time their own slice against the recorder's
    /// shared epoch (`Instant` is `Copy + Send`); the spans fold back in
    /// shard order after the join, so telemetry never races.
    fn step(&mut self, nodes: &mut [N], core: &mut EngineCore<N::Msg>, obs: Option<&mut Recorder>) {
        let shard_len = self.shard_len(nodes.len());
        let shard_count = nodes.len().div_ceil(shard_len).max(1);
        let mut bufs: Vec<_> = (0..shard_count)
            .map(|_| (self.env_pool.take(), self.env_pool.take()))
            .collect();
        let epoch = obs.as_ref().map(|rec| rec.epoch());
        let (inboxes, inputs) = core.step_parts();
        let shards = nodes
            .chunks_mut(shard_len)
            .zip(inboxes.chunks_mut(shard_len))
            .zip(bufs.iter_mut());
        let spans = fan_out(shards, |shard, ((nodes, inboxes), (staged, scratch))| {
            timed(epoch, Phase::OnRound, inputs.round, shard, || {
                inputs.step_block(nodes, inboxes, shard * shard_len, staged, scratch)
            })
            .1
        });
        if let Some(rec) = obs {
            for span in spans.into_iter().flatten() {
                rec.record_span(span);
            }
        }
        for (staged, scratch) in bufs {
            self.env_pool.put(scratch);
            self.staged.push(staged);
        }
    }

    fn route(&mut self, core: &mut EngineCore<N::Msg>, obs: Option<&mut Recorder>) {
        let shard_len = self.shard_len(core.node_count());
        route_staged(
            core,
            &mut self.staged,
            shard_len,
            &mut self.routed_pool,
            obs,
        );
        for staged in self.staged.drain(..) {
            self.env_pool.put(staged);
        }
    }

    fn pool_counters(&self, core: &EngineCore<N::Msg>) -> Vec<(&'static str, u64, u64)> {
        let delay = core.pool_stats();
        let env = self.env_pool.stats();
        let routed = self.routed_pool.stats();
        vec![
            ("delay", delay.takes, delay.reuses),
            ("env", env.takes, env.reuses),
            ("routed", routed.takes, routed.reuses),
        ]
    }

    fn pool_high_water(&self, core: &EngineCore<N::Msg>) -> Vec<(&'static str, u64)> {
        vec![
            ("delay", core.pool_high_water_bytes()),
            ("env", self.env_pool.high_water_bytes()),
            ("routed", self.routed_pool.high_water_bytes()),
        ]
    }
}

/// Routes one round's staged envelopes — one buffer per sender shard,
/// shard order, each in canonical `(sender, send-sequence)` order —
/// through the parallel shard/route/merge pipeline into `core`.
///
/// With a single shard this degenerates to the serial
/// [`EngineCore::route_batch`]. Otherwise every sender shard is routed
/// on its own thread into per-destination-shard buckets
/// ([`route_shard`]), the buckets are merged per destination shard
/// ([`merge_dest_shard`] — in parallel too, once the round carries
/// enough messages to pay for the spawns), and the shard-local deltas
/// fold back into the core. Bit-identical to the serial path for every
/// shard count; the staged buffers are drained and left empty for
/// reuse.
///
/// Public so the routing micro-benchmark can drive the exact pipeline
/// the engine uses.
///
/// When a [`Recorder`] is passed, every route worker and merge job
/// times itself against the recorder's epoch ([`Phase::RouteShard`] and
/// [`Phase::MergeDestShard`] spans, one per shard), and the serial
/// delta fold is timed as [`Phase::ApplyDeltas`]. Telemetry is folded
/// back only after the joins, in shard order, so it cannot perturb the
/// run.
///
/// # Panics
///
/// Panics if any envelope addresses a node that does not exist.
pub fn route_staged<M: MessageCost + Send>(
    core: &mut EngineCore<M>,
    staged_shards: &mut [Vec<Envelope<M>>],
    shard_len: usize,
    routed_pool: &mut BufferPool<(u64, Envelope<M>)>,
    mut obs: Option<&mut Recorder>,
) {
    if staged_shards.len() <= 1 {
        if let Some(staged) = staged_shards.first_mut() {
            in_span(obs, Phase::RouteShard, core.round(), || {
                core.route_batch(staged)
            });
        }
        return;
    }
    let epoch = obs.as_ref().map(|rec| rec.epoch());
    let shard_count = staged_shards.len();
    let total_messages: usize = staged_shards.iter().map(Vec::len).sum();
    let bucket_sets: Vec<RoutedBuckets<M>> = (0..shard_count)
        .map(|_| (0..shard_count).map(|_| routed_pool.take()).collect())
        .collect();
    let mut delayed_lists: Vec<Vec<(u64, Envelope<M>)>> =
        (0..shard_count).map(|_| routed_pool.take()).collect();

    let parts = core.parallel_parts();
    let params = RouteParams {
        seed: parts.seed,
        round: parts.round,
        faults: parts.faults,
        max_extra_delay: parts.max_extra_delay,
        trace_capacity: parts.trace_capacity,
        causal: parts.causal,
        reliable: parts.reliable,
        node_count: parts.inboxes.len(),
        shard_len,
    };
    let round = params.round;
    let mut spans = Vec::new();

    // Route phase: one worker per sender shard, each writing only its
    // own shard's sent-tally lanes and its own destination buckets.
    let route_jobs = staged_shards
        .iter_mut()
        .zip(parts.node_lanes.chunks_mut(shard_len))
        .zip(bucket_sets);
    let mut deltas: Vec<RouteDelta<M>> = Vec::with_capacity(shard_count);
    for (delta, span) in fan_out(route_jobs, |w, ((staged, sent_lanes), buckets)| {
        timed(epoch, Phase::RouteShard, round, w, || {
            route_shard(params, staged, w * shard_len, sent_lanes, buckets)
        })
    }) {
        deltas.push(delta);
        spans.extend(span);
    }

    // Transpose: per destination shard, the per-worker bucket parts in
    // worker (= sender shard) order.
    let mut per_dest: Vec<RoutedBuckets<M>> = (0..shard_count)
        .map(|_| Vec::with_capacity(shard_count))
        .collect();
    for delta in &mut deltas {
        for (d, bucket) in delta.buckets.drain(..).enumerate() {
            per_dest[d].push(bucket);
        }
    }

    // Merge phase: one job per destination shard, each owning its
    // shard's mailboxes and recv-tally lanes.
    let merge_jobs = parts
        .inboxes
        .chunks_mut(shard_len)
        .zip(parts.node_lanes.chunks_mut(shard_len))
        .zip(per_dest.iter_mut().zip(delayed_lists.iter_mut()));
    let merge = |d: usize, ((inboxes, recv_lanes), (parts_d, delayed)): MergeJob<'_, M>| {
        timed(epoch, Phase::MergeDestShard, round, d, || {
            merge_dest_shard(round, d * shard_len, parts_d, inboxes, recv_lanes, delayed)
        })
        .1
    };
    if total_messages >= PARALLEL_MERGE_MIN_MESSAGES {
        spans.extend(fan_out(merge_jobs, merge).into_iter().flatten());
    } else {
        spans.extend(merge_jobs.enumerate().filter_map(|(d, job)| merge(d, job)));
    }
    if let Some(rec) = obs.as_deref_mut() {
        for span in spans {
            rec.record_span(span);
        }
    }

    in_span(obs, Phase::ApplyDeltas, round, || {
        core.apply_route_deltas(&mut deltas, &mut delayed_lists)
    });
    for set in per_dest {
        for bucket in set {
            routed_pool.put(bucket);
        }
    }
    for list in delayed_lists {
        routed_pool.put(list);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_sim::{Engine, FaultPlan, MessageCost, NodeId, RetryPolicy, RoundContext};

    /// Gossip probe exercising every determinism-sensitive surface:
    /// randomness, fan-out, and inbox contents.
    #[derive(Clone, Debug, PartialEq)]
    struct Gossiper {
        n: u32,
        heard: Vec<NodeId>,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Rumor(Vec<NodeId>);
    impl MessageCost for Rumor {
        fn pointers(&self) -> usize {
            self.0.len()
        }
    }

    impl Node for Gossiper {
        type Msg = Rumor;
        fn on_round(
            &mut self,
            inbox: &mut Vec<Envelope<Rumor>>,
            ctx: &mut RoundContext<'_, Rumor>,
        ) {
            use rand::Rng;
            for env in inbox.drain(..) {
                self.heard.push(env.src);
                self.heard.extend(env.payload.0);
            }
            // Two random contacts per round, avoiding self-sends.
            for _ in 0..2 {
                let dst = NodeId::new(ctx.rng().random_range(0..self.n));
                if dst != ctx.id() {
                    ctx.send(dst, Rumor(self.heard.clone()));
                }
            }
            self.heard.truncate(8);
        }
    }

    fn gossipers(n: u32) -> Vec<Gossiper> {
        (0..n)
            .map(|_| Gossiper {
                n,
                heard: Vec::new(),
            })
            .collect()
    }

    fn states(nodes: &[Gossiper]) -> Vec<Gossiper> {
        nodes.to_vec()
    }

    /// Runs both engines for `rounds` rounds under the same plan and
    /// asserts identical nodes, metrics, and traces.
    fn assert_engines_agree(
        n: u32,
        seed: u64,
        workers: usize,
        rounds: u64,
        configure: impl Fn(Engine<Gossiper>) -> Engine<Gossiper>,
        configure_sharded: impl Fn(ShardedEngine<Gossiper>) -> ShardedEngine<Gossiper>,
    ) {
        let mut seq = configure(Engine::new(gossipers(n), seed).with_trace(1 << 14));
        let mut par =
            configure_sharded(ShardedEngine::new(gossipers(n), seed, workers).with_trace(1 << 14));
        for _ in 0..rounds {
            seq.step();
            par.step();
        }
        assert_eq!(states(seq.nodes()), states(par.nodes()));
        assert_eq!(seq.metrics(), par.metrics());
        assert_eq!(seq.trace().unwrap().events(), par.trace().unwrap().events());
    }

    #[test]
    fn matches_sequential_engine_exactly() {
        for workers in [1, 2, 3, 8] {
            assert_engines_agree(23, 7, workers, 12, |e| e, |e| e);
        }
    }

    #[test]
    fn matches_under_faults_and_detection() {
        let plan = || {
            FaultPlan::new()
                .with_crashes([3])
                .with_crash_at(11, 4)
                .with_drop_probability(0.2)
                .with_crash_detection_after(2)
        };
        assert_engines_agree(
            19,
            5,
            4,
            15,
            |e| e.with_faults(plan()),
            |e| e.with_faults(plan()),
        );
    }

    #[test]
    fn matches_under_churn_with_reliable_delivery() {
        // Crash-recovery, a partition window, drops, detection, and the
        // retransmission layer all at once — the full adversarial
        // schedule must stay bit-identical across worker counts.
        let plan = || {
            FaultPlan::new()
                .with_crash_at(3, 2)
                .with_recovery_at(3, 7)
                .with_crashes([14])
                .with_drop_probability(0.15)
                .with_partition([vec![0, 1, 2, 3, 4], vec![10, 11, 12]], 3, 8)
                .with_crash_detection_after(2)
        };
        let policy = RetryPolicy {
            timeout: 1,
            max_retries: 4,
            max_backoff: 4,
        };
        for workers in [2, 5] {
            assert_engines_agree(
                19,
                13,
                workers,
                18,
                |e| e.with_faults(plan()).with_reliable_delivery(policy),
                |e| e.with_faults(plan()).with_reliable_delivery(policy),
            );
        }
    }

    #[test]
    fn matches_under_receive_cap_and_delay() {
        assert_engines_agree(
            17,
            9,
            3,
            15,
            |e| e.with_receive_cap(2).with_max_extra_delay(3),
            |e| e.with_receive_cap(2).with_max_extra_delay(3),
        );
    }

    #[test]
    fn more_workers_than_nodes_is_fine() {
        assert_engines_agree(3, 1, 16, 6, |e| e, |e| e);
    }

    /// High-fan-out probe: enough traffic per round to cross
    /// `PARALLEL_MERGE_MIN_MESSAGES`, so the threaded merge path (not
    /// just its serial fallback) is pinned against the sequential
    /// engine — including delayed deliveries and drops.
    #[derive(Clone, Debug, PartialEq)]
    struct Spammer {
        n: u32,
        received: u64,
    }

    impl Node for Spammer {
        type Msg = Rumor;
        fn on_round(
            &mut self,
            inbox: &mut Vec<Envelope<Rumor>>,
            ctx: &mut RoundContext<'_, Rumor>,
        ) {
            self.received += inbox.len() as u64;
            inbox.clear();
            let me = u32::from(ctx.id());
            for k in 0..200u32 {
                let dst = NodeId::new((me + 1 + k % (self.n - 1)) % self.n);
                if dst != ctx.id() {
                    ctx.send(dst, Rumor(vec![ctx.id()]));
                }
            }
        }
    }

    #[test]
    fn parallel_merge_is_bit_identical_above_threshold() {
        let n = 32u32;
        let spammers = || -> Vec<Spammer> { (0..n).map(|_| Spammer { n, received: 0 }).collect() };
        assert!(
            (n as usize) * 200 >= super::PARALLEL_MERGE_MIN_MESSAGES,
            "workload must cross the parallel-merge threshold"
        );
        let plan = || {
            FaultPlan::new()
                .with_drop_probability(0.1)
                .with_crash_at(5, 2)
        };
        let mut seq = Engine::new(spammers(), 11)
            .with_faults(plan())
            .with_max_extra_delay(2)
            .with_trace(1 << 12);
        let mut par = ShardedEngine::new(spammers(), 11, 4)
            .with_faults(plan())
            .with_max_extra_delay(2)
            .with_trace(1 << 12);
        for _ in 0..6 {
            seq.step();
            par.step();
        }
        assert_eq!(seq.nodes().to_vec(), par.nodes().to_vec());
        assert_eq!(seq.metrics(), par.metrics());
        assert_eq!(seq.trace().unwrap().events(), par.trace().unwrap().events());
        assert_eq!(
            seq.trace().unwrap().overflow(),
            par.trace().unwrap().overflow()
        );
    }

    #[test]
    fn run_until_agrees_on_outcome() {
        let done = |nodes: &[Gossiper]| nodes.iter().all(|g| !g.heard.is_empty());
        let mut seq = Engine::new(gossipers(32), 2);
        let mut par = ShardedEngine::new(gossipers(32), 2, 4);
        assert_eq!(seq.run_until(64, done), par.run_until(64, done));
        assert_eq!(seq.metrics(), par.metrics());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ShardedEngine::new(gossipers(4), 1, 0);
    }

    #[test]
    fn empty_population_steps_harmlessly() {
        let mut engine = ShardedEngine::new(Vec::<Gossiper>::new(), 1, 4);
        engine.step();
        assert_eq!(engine.round(), 1);
    }
}
