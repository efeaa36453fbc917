//! The round engine: one step skeleton and one builder surface, generic
//! over a delivery policy.
//!
//! [`DeliveryEngine`] owns everything the three engines share — the
//! node programs, the [`EngineCore`], the optional [`Recorder`], the
//! builder knobs, the accessors and the [`RoundEngine`] contract — and
//! runs every round through one skeleton: open the round, step the
//! nodes, route their sends, close the round, record the round's
//! telemetry. A [`Delivery`] policy supplies the three middle steps and
//! nothing else:
//!
//! * [`Rounds`] (this crate) — unit-latency synchronous rounds on the
//!   calling thread: the sequential [`Engine`];
//! * `rd_exec::Sharded` — threaded stepping over contiguous node shards
//!   plus the parallel route/merge pipeline: `rd_exec::ShardedEngine`;
//! * `rd_event::Timed` — a latency model, logical clocks and a timer
//!   wheel for retransmissions: `rd_event::EventEngine`.
//!
//! The policies live in those crates, not here, because the crate graph
//! is fixed (the benchmark package's lockfile pins it): `rd-sim` takes
//! no threading dependency, and the latency models stay in `rd-event`.

use crate::engine_core::{EngineCore, RetryPolicy};
use crate::faults::FaultPlan;
use crate::message::Envelope;
use crate::metrics::{round_obs, RunMetrics};
use crate::node::Node;
use crate::trace::Trace;
use rd_obs::{CausalTrace, Phase, Recorder};
use std::time::Instant;

/// Result of [`RoundEngine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Whether the completion predicate became true within the round
    /// budget.
    pub completed: bool,
    /// Rounds executed when the run stopped.
    pub rounds: u64,
}

/// The driving interface of every engine: step rounds, observe nodes,
/// read the clock and the complexity record.
///
/// [`DeliveryEngine`] implements it for every delivery policy, so
/// runners, experiments and completion predicates are engine-agnostic,
/// and the provided [`run_until`] and [`run_observed`] loops — including
/// the per-round progress callback — exist once.
///
/// [`run_until`]: RoundEngine::run_until
/// [`run_observed`]: RoundEngine::run_observed
pub trait RoundEngine<N: Node> {
    /// Executes one round: delivers current inboxes, runs every live
    /// node, and routes outboxes through the fault layer.
    fn step(&mut self);

    /// Read access to the node programs (for completion predicates,
    /// verification, and white-box observations such as cluster counts).
    fn nodes(&self) -> &[N];

    /// Rounds executed so far.
    fn round(&self) -> u64;

    /// The complexity record.
    fn metrics(&self) -> &RunMetrics;

    /// The message trace, if enabled.
    fn trace(&self) -> Option<&Trace>;

    /// The causal knowledge-provenance trace, if enabled. Like the
    /// recorder, it is write-only from the engine's side and never
    /// feeds back into protocol execution.
    fn causal(&self) -> Option<&CausalTrace>;

    /// Detaches the causal provenance trace so the driver can archive
    /// it after the run.
    fn take_causal(&mut self) -> Option<CausalTrace>;

    /// The attached telemetry recorder, if observability is enabled.
    /// Strictly write-only from the engine's side: recorder state never
    /// feeds back into protocol execution.
    fn obs_mut(&mut self) -> Option<&mut Recorder>;

    /// Detaches the recorder so the driver can call
    /// [`Recorder::finish`] after the run.
    fn take_obs(&mut self) -> Option<Recorder>;

    /// `(name, takes, reuses)` counters for every buffer pool the
    /// engine owns (observability export).
    fn pool_counters(&self) -> Vec<(&'static str, u64, u64)>;

    /// `(name, peak_bytes)` high-water marks for every buffer pool the
    /// engine owns (profiler export). Like [`pool_counters`], read once
    /// by the driver after the run; never consulted by engine logic.
    ///
    /// [`pool_counters`]: Self::pool_counters
    fn pool_high_water(&self) -> Vec<(&'static str, u64)>;

    /// Runs until `done(nodes)` holds (checked before the first round and
    /// after every round) or `max_rounds` have executed.
    fn run_until(&mut self, max_rounds: u64, mut done: impl FnMut(&[N]) -> bool) -> RunOutcome
    where
        Self: Sized,
    {
        self.run_observed(max_rounds, &mut done, |_, _| {})
    }

    /// Like [`run_until`](Self::run_until), additionally invoking
    /// `observe(round, nodes)` after every round — the per-round progress
    /// hook white-box experiments (e.g. cluster-count evolution, figure
    /// F3) and long-run progress reporting use.
    fn run_observed(
        &mut self,
        max_rounds: u64,
        mut done: impl FnMut(&[N]) -> bool,
        mut observe: impl FnMut(u64, &[N]),
    ) -> RunOutcome
    where
        Self: Sized,
    {
        if done(self.nodes()) {
            return RunOutcome {
                completed: true,
                rounds: self.round(),
            };
        }
        while self.round() < max_rounds {
            self.step();
            observe(self.round(), self.nodes());
            if done(self.nodes()) {
                return RunOutcome {
                    completed: true,
                    rounds: self.round(),
                };
            }
        }
        RunOutcome {
            completed: false,
            rounds: self.round(),
        }
    }
}

/// How an engine steps its nodes, routes their sends and closes a round:
/// the only code that differs between engines. See the [module
/// docs](self) for the three policies.
///
/// A policy records the spans of the phases it runs (`OnRound`,
/// `RouteShard` and, when sharded, `MergeDestShard`/`ApplyDeltas`) into
/// the recorder it is handed; the skeleton records the rest.
pub trait Delivery<N: Node> {
    /// Whether the policy honours the core's uniform-jitter knob
    /// ([`DeliveryEngine::with_max_extra_delay`]). A policy with a latency
    /// model of its own does not, and the builder rejects the knob.
    const JITTER: bool = true;

    /// Steps every live node of the open round, staging their sends.
    fn step(&mut self, nodes: &mut [N], core: &mut EngineCore<N::Msg>, obs: Option<&mut Recorder>);

    /// Routes the sends staged by [`step`](Self::step) into `core`.
    fn route(&mut self, core: &mut EngineCore<N::Msg>, obs: Option<&mut Recorder>);

    /// Closes the round (due retransmissions, the causal seal, the
    /// clock).
    fn close(&mut self, core: &mut EngineCore<N::Msg>) {
        core.finish_round();
    }

    /// `(name, takes, reuses)` counters of every buffer pool the engine
    /// owns, the core's delay pool first.
    fn pool_counters(&self, core: &EngineCore<N::Msg>) -> Vec<(&'static str, u64, u64)> {
        let delay = core.pool_stats();
        vec![("delay", delay.takes, delay.reuses)]
    }

    /// `(name, peak_bytes)` high-water marks of the same pools.
    fn pool_high_water(&self, core: &EngineCore<N::Msg>) -> Vec<(&'static str, u64)> {
        vec![("delay", core.pool_high_water_bytes())]
    }
}

/// A delivery policy built from one parameter — `rd-exec`'s worker
/// count, `rd-event`'s latency model — so its engine has a three-argument
/// [`DeliveryEngine::new`].
pub trait FromParam {
    /// The parameter.
    type Param;

    /// Builds the policy for a population of `node_count` nodes.
    fn from_param(param: Self::Param, node_count: usize) -> Self;
}

/// Runs `f`, recording it as a `phase` span of worker 0 when a recorder
/// is attached (without one, no clock is read).
pub fn in_span<R>(
    obs: Option<&mut Recorder>,
    phase: Phase,
    round: u64,
    f: impl FnOnce() -> R,
) -> R {
    let Some(rec) = obs else { return f() };
    let start = Instant::now();
    let out = f();
    rec.span_from(phase, round, 0, start);
    out
}

/// Unit-latency synchronous rounds on the calling thread: every live
/// node steps in index order, then [`EngineCore::route_batch`] delivers
/// its sends at the start of the next round. The policy of the
/// sequential [`Engine`].
pub struct Rounds<M> {
    /// Round-persistent staging buffer for outgoing envelopes; drained
    /// by routing, so its allocation is reused every round.
    staged: Vec<Envelope<M>>,
    /// Round-persistent scratch buffer for capped inbox delivery.
    scratch: Vec<Envelope<M>>,
}

impl<M> Default for Rounds<M> {
    fn default() -> Self {
        Rounds {
            staged: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl<M> Rounds<M> {
    /// The sends staged by the last step (the discrete-event policy
    /// steps through [`Rounds`] and routes these with its own
    /// latencies).
    pub fn staged(&mut self) -> &mut Vec<Envelope<M>> {
        &mut self.staged
    }
}

impl<N: Node> Delivery<N> for Rounds<N::Msg> {
    /// Steps every live node in index order, as one `OnRound` span of
    /// worker 0.
    fn step(&mut self, nodes: &mut [N], core: &mut EngineCore<N::Msg>, obs: Option<&mut Recorder>) {
        let (inboxes, inputs) = core.step_parts();
        in_span(obs, Phase::OnRound, inputs.round, || {
            inputs.step_block(nodes, inboxes, 0, &mut self.staged, &mut self.scratch)
        });
    }

    fn route(&mut self, core: &mut EngineCore<N::Msg>, obs: Option<&mut Recorder>) {
        in_span(obs, Phase::RouteShard, core.round(), || {
            core.route_batch(&mut self.staged)
        });
    }
}

/// One round engine, generic over its [`Delivery`] policy `D`: see the
/// [module docs](self). The sequential [`Engine`] is
/// `DeliveryEngine<N, Rounds<_>>`.
///
/// Per round, the engine hands every live node its inbox together with
/// a deterministic per-`(seed, node, round)` random generator, then
/// routes the node's outbox through the fault layer, accounting every
/// message in [`RunMetrics`]. Every policy is bit-identical to
/// [`Rounds`] wherever their delivery models coincide.
pub struct DeliveryEngine<N: Node, D> {
    nodes: Vec<N>,
    core: EngineCore<N::Msg>,
    /// Telemetry recorder; `None` (the default) costs one branch per
    /// phase and never reads a clock.
    obs: Option<Recorder>,
    delivery: D,
}

/// The sequential round engine: one thread steps every node in index
/// order, then routes. See the crate-level documentation for an example.
pub type Engine<N> = DeliveryEngine<N, Rounds<<N as Node>::Msg>>;

impl<N: Node> DeliveryEngine<N, Rounds<N::Msg>> {
    /// Creates a sequential engine over `nodes`, where node `i` has
    /// identifier `NodeId::new(i)`. `seed` determines all protocol and
    /// fault randomness.
    pub fn new(nodes: Vec<N>, seed: u64) -> Self {
        Self::with_delivery(nodes, seed, Rounds::default())
    }
}

impl<N: Node, D: Delivery<N> + FromParam> DeliveryEngine<N, D> {
    /// Creates an engine over `nodes` whose policy is built from `param`
    /// (e.g. `ShardedEngine::new(nodes, seed, workers)`).
    pub fn new(nodes: Vec<N>, seed: u64, param: D::Param) -> Self {
        let delivery = D::from_param(param, nodes.len());
        Self::with_delivery(nodes, seed, delivery)
    }
}

impl<N: Node, D: Delivery<N>> DeliveryEngine<N, D> {
    /// Creates an engine over `nodes` delivering under `delivery`, where
    /// node `i` has identifier `NodeId::new(i)`. `seed` determines all
    /// protocol, fault and latency randomness.
    fn with_delivery(nodes: Vec<N>, seed: u64, delivery: D) -> Self {
        let core = EngineCore::new(nodes.len(), seed);
        DeliveryEngine {
            nodes,
            core,
            obs: None,
            delivery,
        }
    }

    /// Attaches a telemetry [`Recorder`]: phases are timed (per worker
    /// when sharded), rounds are archived, and the recorder's sinks
    /// export at run end. Purely observational — a run with a recorder
    /// is bit-identical to the same run without one. Span rows carry the
    /// round (the simulated tick, under a latency model) in their round
    /// field.
    pub fn with_obs(mut self, mut recorder: Recorder) -> Self {
        // One-time message-cost registration: the profiler attributes
        // per-kind byte costs at finish from these constants plus the
        // deterministic round counters (no-op unless profiling is on).
        recorder.profile_msg_kind(
            crate::short_type_name::<N::Msg>(),
            std::mem::size_of::<Envelope<N::Msg>>() as u64,
            std::mem::size_of::<crate::NodeId>() as u64,
        );
        self.obs = Some(recorder);
        self
    }

    /// Installs a fault plan (drops, crashes, partitions).
    ///
    /// # Panics
    ///
    /// Panics if the plan crashes a node index that does not exist.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.core.set_faults(faults);
        self
    }

    /// Enables message tracing with the given event capacity.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.core.enable_trace(capacity);
        self
    }

    /// Attaches a causal knowledge-provenance trace: the routing phase
    /// records, per `(id, node)` pair, the first delivered message that
    /// could have taught `node` about `id` (deterministically sampled
    /// at the trace's ppm rate). Sampling is counter-based and sharded
    /// offers fold in canonical shard order, so the retained DAG is
    /// byte-identical for every worker count. Purely observational — a
    /// run with the trace is bit-identical to the same run without it.
    pub fn with_causal_trace(mut self, causal: CausalTrace) -> Self {
        self.core.set_causal(causal);
        self
    }

    /// Caps deliveries at `cap` messages per node per round; excess
    /// messages queue (in arrival order) for later rounds. Models the
    /// *connection bottleneck* of bandwidth-limited networks: protocols
    /// whose hot spots (e.g. a popular merge target) rely on unbounded
    /// fan-in slow down accordingly.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (nothing could ever be delivered).
    pub fn with_receive_cap(mut self, cap: usize) -> Self {
        self.core.set_receive_cap(cap);
        self
    }

    /// Makes delivery asynchronous: every message independently takes
    /// `1 + U{0..=max_extra}` rounds to arrive instead of exactly one.
    /// With this knob the round counter reads as *time units* and the
    /// synchronized phase structure of round-based protocols is
    /// deliberately scrambled — the robustness-to-asynchrony experiment.
    ///
    /// # Panics
    ///
    /// Panics if `max_extra > 0` and the policy has a latency model of
    /// its own ([`Delivery::JITTER`] is false), which supersedes the
    /// knob.
    pub fn with_max_extra_delay(mut self, max_extra: u64) -> Self {
        assert!(
            D::JITTER || max_extra == 0,
            "the latency model supersedes the uniform-jitter knob"
        );
        self.core.set_max_extra_delay(max_extra);
        self
    }

    /// Enables reliable delivery: every dropped message is
    /// retransmitted under `policy` (per-message timeout, capped
    /// exponential backoff, bounded retry budget), with every attempt
    /// charged against the message-complexity metrics.
    ///
    /// # Panics
    ///
    /// Panics if the policy's timeout or retry budget is 0.
    pub fn with_reliable_delivery(mut self, policy: RetryPolicy) -> Self {
        self.core.set_reliable(policy);
        self
    }

    /// Read access to the node programs (for completion predicates,
    /// verification, and white-box observations such as cluster counts).
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Rounds executed so far (simulated ticks, under a latency model).
    pub fn round(&self) -> u64 {
        self.core.round()
    }

    /// The complexity record.
    pub fn metrics(&self) -> &RunMetrics {
        self.core.metrics()
    }

    /// The message trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.core.trace()
    }

    /// The causal provenance trace, if enabled.
    pub fn causal(&self) -> Option<&CausalTrace> {
        self.core.causal()
    }

    /// The delivery policy (e.g. the event engine's clocks and timers).
    pub fn delivery(&self) -> &D {
        &self.delivery
    }

    /// Executes one round: opens it, lets the policy step the nodes and
    /// route their sends, closes it, and records its telemetry.
    pub fn step(&mut self) {
        let round = self.core.round();
        if let Some(rec) = &mut self.obs {
            rec.begin_round();
        }
        in_span(self.obs.as_mut(), Phase::BeginRound, round, || {
            self.core.begin_round()
        });
        self.delivery
            .step(&mut self.nodes, &mut self.core, self.obs.as_mut());
        self.delivery.route(&mut self.core, self.obs.as_mut());
        in_span(self.obs.as_mut(), Phase::FinishRound, round, || {
            self.delivery.close(&mut self.core)
        });
        if let Some(rec) = &mut self.obs {
            // Under profiling, the recorder's own round-close
            // bookkeeping is timed as a `Telemetry` span so the
            // profiler's self-cost shows up in the attribution instead
            // of inflating the unattributed remainder.
            let t_tel = rec.profiling_enabled().then(Instant::now);
            let row = *self.core.metrics().rounds().last().expect("open round row");
            rec.end_round(round_obs(round, &row));
            if let Some(t) = t_tel {
                rec.span_from(Phase::Telemetry, round, 0, t);
            }
        }
    }

    /// Runs until `done(nodes)` holds (checked before the first round and
    /// after every round) or `max_rounds` have executed.
    pub fn run_until(&mut self, max_rounds: u64, done: impl FnMut(&[N]) -> bool) -> RunOutcome {
        RoundEngine::run_until(self, max_rounds, done)
    }

    /// Like [`run_until`](Self::run_until), additionally invoking
    /// `observe(round, nodes)` after every round — the hook white-box
    /// experiments (e.g. cluster-count evolution, figure F3) use.
    pub fn run_observed(
        &mut self,
        max_rounds: u64,
        done: impl FnMut(&[N]) -> bool,
        observe: impl FnMut(u64, &[N]),
    ) -> RunOutcome {
        RoundEngine::run_observed(self, max_rounds, done, observe)
    }
}

impl<N: Node, D: Delivery<N>> RoundEngine<N> for DeliveryEngine<N, D> {
    fn step(&mut self) {
        DeliveryEngine::step(self)
    }

    fn nodes(&self) -> &[N] {
        &self.nodes
    }

    fn round(&self) -> u64 {
        self.core.round()
    }

    fn metrics(&self) -> &RunMetrics {
        self.core.metrics()
    }

    fn trace(&self) -> Option<&Trace> {
        self.core.trace()
    }

    fn causal(&self) -> Option<&CausalTrace> {
        self.core.causal()
    }

    fn take_causal(&mut self) -> Option<CausalTrace> {
        self.core.take_causal()
    }

    fn obs_mut(&mut self) -> Option<&mut Recorder> {
        self.obs.as_mut()
    }

    fn take_obs(&mut self) -> Option<Recorder> {
        self.obs.take()
    }

    fn pool_counters(&self) -> Vec<(&'static str, u64, u64)> {
        self.delivery.pool_counters(&self.core)
    }

    fn pool_high_water(&self) -> Vec<(&'static str, u64)> {
        self.delivery.pool_high_water(&self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;
    use crate::message::MessageCost;
    use crate::node::RoundContext;

    /// Test payload: a bag of ids.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ids(Vec<NodeId>);
    impl MessageCost for Ids {
        fn pointers(&self) -> usize {
            self.0.len()
        }
    }

    /// Broadcast relay: node 0 floods a token along a ring; each node
    /// forwards once.
    struct RingRelay {
        next: NodeId,
        has_token: bool,
        forwarded: bool,
    }

    impl Node for RingRelay {
        type Msg = Ids;
        fn on_round(&mut self, inbox: &mut Vec<Envelope<Ids>>, ctx: &mut RoundContext<'_, Ids>) {
            if ctx.round() == 0 && ctx.id() == NodeId::new(0) {
                self.has_token = true;
            }
            for env in inbox.drain(..) {
                assert_eq!(env.dst, ctx.id());
                self.has_token = true;
            }
            if self.has_token && !self.forwarded {
                self.forwarded = true;
                if self.next != ctx.id() {
                    ctx.send(self.next, Ids(vec![ctx.id()]));
                }
            }
        }
    }

    fn ring(n: usize) -> Vec<RingRelay> {
        (0..n)
            .map(|i| RingRelay {
                next: NodeId::new(((i + 1) % n) as u32),
                has_token: false,
                forwarded: false,
            })
            .collect()
    }

    #[test]
    fn ring_broadcast_takes_n_rounds() {
        // Node i first processes the token in round i, so the last node
        // holds it only after the n-th step.
        let mut engine = Engine::new(ring(8), 1);
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 8);
        // Every node forwarded exactly once; the last delivery closes the
        // ring back to node 0.
        assert_eq!(engine.metrics().total_messages(), 8);
        assert_eq!(engine.metrics().total_pointers(), 8);
    }

    #[test]
    fn completion_checked_before_first_round() {
        let mut engine = Engine::new(ring(4), 1);
        let outcome = engine.run_until(100, |_| true);
        assert!(outcome.completed);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(engine.metrics().round_count(), 0);
    }

    #[test]
    fn round_budget_is_respected() {
        let mut engine = Engine::new(ring(8), 1);
        let outcome = engine.run_until(3, |_| false);
        assert!(!outcome.completed);
        assert_eq!(outcome.rounds, 3);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut e = Engine::new(ring(16), seed);
            let o = e.run_until(64, |nodes| nodes.iter().all(|r| r.has_token));
            (
                o,
                e.metrics().total_messages(),
                e.metrics().total_pointers(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn crashed_node_breaks_the_ring() {
        let mut engine = Engine::new(ring(8), 1).with_faults(FaultPlan::new().with_crashes([4]));
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(!outcome.completed);
        // Token reached nodes 1..4 then died at the crashed node.
        let have: Vec<bool> = engine.nodes().iter().map(|r| r.has_token).collect();
        assert_eq!(
            have,
            vec![true, true, true, true, false, false, false, false]
        );
        assert_eq!(engine.metrics().total_dropped(), 1);
    }

    #[test]
    fn drops_slow_but_are_accounted() {
        // With a ring, a single drop halts the broadcast: use it to check
        // drop accounting end-to-end at p close to 1.
        let mut engine =
            Engine::new(ring(4), 3).with_faults(FaultPlan::new().with_drop_probability(0.999));
        let outcome = engine.run_until(10, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(!outcome.completed);
        assert!(engine.metrics().total_dropped() >= 1);
    }

    #[test]
    fn trace_records_sends() {
        let mut engine = Engine::new(ring(4), 1).with_trace(100);
        engine.run_until(10, |nodes| nodes.iter().all(|r| r.has_token));
        let trace = engine.trace().unwrap();
        assert_eq!(trace.events().len(), 4);
        assert_eq!(trace.in_round(0).count(), 1);
        assert_eq!(trace.events()[0].src, NodeId::new(0));
        assert_eq!(trace.events()[0].dst, NodeId::new(1));
    }

    #[test]
    fn observer_sees_every_round() {
        let mut engine = Engine::new(ring(5), 1);
        let mut observed = Vec::new();
        engine.run_observed(
            100,
            |nodes| nodes.iter().all(|r| r.has_token),
            |round, nodes| observed.push((round, nodes.iter().filter(|r| r.has_token).count())),
        );
        assert_eq!(observed.len(), 5);
        assert_eq!(observed.first(), Some(&(1, 1)));
        assert_eq!(observed.last(), Some(&(5, 5)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crashing_nonexistent_node_rejected() {
        let _ = Engine::new(ring(2), 1).with_faults(FaultPlan::new().with_crashes([9]));
    }

    #[test]
    fn dynamic_crash_kills_mid_run() {
        // Node 4 dies at round 3: the token (which reaches it in round 4)
        // is lost in flight.
        let mut engine = Engine::new(ring(8), 1).with_faults(FaultPlan::new().with_crash_at(4, 3));
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(!outcome.completed);
        let have: Vec<bool> = engine.nodes().iter().map(|r| r.has_token).collect();
        assert_eq!(
            have,
            vec![true, true, true, true, false, false, false, false]
        );
    }

    #[test]
    fn dynamic_crash_after_passing_token_is_harmless() {
        // Node 4 forwards the token in round 4 and dies at round 6: the
        // broadcast still completes.
        let mut engine = Engine::new(ring(8), 1).with_faults(FaultPlan::new().with_crash_at(4, 6));
        let outcome = engine.run_until(100, |nodes| {
            nodes.iter().enumerate().all(|(i, r)| i == 4 || r.has_token)
        });
        assert!(outcome.completed);
    }

    /// Probe used by detector tests: records the suspect reports it sees.
    struct SuspectWatcher {
        seen: Vec<(u64, Vec<NodeId>)>,
    }
    impl Node for SuspectWatcher {
        type Msg = Ids;
        fn on_round(&mut self, _inbox: &mut Vec<Envelope<Ids>>, ctx: &mut RoundContext<'_, Ids>) {
            self.seen.push((ctx.round(), ctx.suspects().to_vec()));
        }
    }

    #[test]
    fn detector_reports_each_crash_after_its_latency() {
        let watchers = vec![
            SuspectWatcher { seen: vec![] },
            SuspectWatcher { seen: vec![] },
            SuspectWatcher { seen: vec![] },
        ];
        let mut engine = Engine::new(watchers, 1).with_faults(
            FaultPlan::new()
                .with_crashes([1])
                .with_crash_at(2, 4)
                .with_crash_detection_after(3),
        );
        for _ in 0..10 {
            engine.step();
        }
        let seen = &engine.nodes()[0].seen;
        let at = |round: u64| -> &[NodeId] { &seen.iter().find(|(r, _)| *r == round).unwrap().1 };
        assert!(at(2).is_empty(), "node 1 reported before its latency");
        assert_eq!(at(3), &[NodeId::new(1)]);
        assert_eq!(at(6), &[NodeId::new(1)], "node 2 dies at 4, reported at 7");
        assert_eq!(at(7), &[NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn recovery_plus_reliable_delivery_completes_the_ring() {
        // Node 4 is dead for rounds 2..8, exactly when the token would
        // reach it. Reliable delivery keeps retrying the in-flight hop
        // until node 4 recovers, and the broadcast completes.
        let mut engine = Engine::new(ring(8), 1)
            .with_faults(FaultPlan::new().with_crash_at(4, 2).with_recovery_at(4, 8))
            .with_reliable_delivery(RetryPolicy {
                timeout: 1,
                max_retries: 8,
                max_backoff: 2,
            });
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(outcome.completed);
        assert!(engine.metrics().total_retransmissions() >= 1);
        assert!(engine.metrics().drop_tally().crash >= 1);
    }

    #[test]
    fn partition_blocks_the_boundary_until_it_heals() {
        let split = || FaultPlan::new().with_partition([vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 0, 6);
        // Best-effort: the 3→4 hop is inside the window and the token
        // dies at the boundary.
        let mut engine = Engine::new(ring(8), 1).with_faults(split());
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(!outcome.completed);
        assert_eq!(engine.metrics().drop_tally().partition, 1);
        // Reliable delivery: a retransmission crosses after the heal.
        let mut engine = Engine::new(ring(8), 1)
            .with_faults(split())
            .with_reliable_delivery(RetryPolicy::default());
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(outcome.completed);
        assert!(engine.metrics().total_retransmissions() >= 1);
    }

    #[test]
    fn recovered_node_resumes_with_its_pre_crash_state() {
        // Node 4 forwards the token in round 4, dies at 5, recovers at
        // 9: the broadcast already completed through it, and its own
        // has_token state survives the outage.
        let mut engine = Engine::new(ring(8), 1)
            .with_faults(FaultPlan::new().with_crash_at(4, 5).with_recovery_at(4, 9));
        let outcome = engine.run_until(100, |nodes| nodes.iter().all(|r| r.has_token));
        assert!(outcome.completed);
        assert!(engine.nodes()[4].has_token);
    }

    #[test]
    fn receive_cap_defers_excess_messages() {
        // Three senders target node 0 in round 0; with cap 1, node 0
        // sees them one per round, oldest first.
        struct Blaster {
            got: Vec<NodeId>,
        }
        impl Node for Blaster {
            type Msg = Ids;
            fn on_round(
                &mut self,
                inbox: &mut Vec<Envelope<Ids>>,
                ctx: &mut RoundContext<'_, Ids>,
            ) {
                for env in inbox.drain(..) {
                    self.got.push(env.src);
                }
                if ctx.round() == 0 && ctx.id() != NodeId::new(0) {
                    ctx.send(NodeId::new(0), Ids(vec![]));
                }
            }
        }
        let nodes = (0..4).map(|_| Blaster { got: vec![] }).collect();
        let mut engine = Engine::new(nodes, 1).with_receive_cap(1);
        for _ in 0..5 {
            engine.step();
        }
        assert_eq!(
            engine.nodes()[0].got,
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]
        );
        // Uncapped, all three arrive in round 1 together.
        let nodes = (0..4).map(|_| Blaster { got: vec![] }).collect();
        let mut engine = Engine::new(nodes, 1);
        engine.step();
        engine.step();
        assert_eq!(engine.nodes()[0].got.len(), 3);
    }

    #[test]
    #[should_panic(expected = "never deliver")]
    fn zero_receive_cap_rejected() {
        let _ = Engine::new(ring(2), 1).with_receive_cap(0);
    }

    #[test]
    fn async_delays_preserve_delivery_and_determinism() {
        // The ring broadcast still completes under heavy jitter, just
        // slower, and identically for identical seeds.
        let run = |seed: u64| {
            let mut e = Engine::new(ring(8), seed).with_max_extra_delay(4);
            let o = e.run_until(200, |nodes| nodes.iter().all(|r| r.has_token));
            (o, e.metrics().total_messages())
        };
        let (outcome, messages) = run(5);
        assert!(outcome.completed);
        assert_eq!(messages, 8, "no message may be lost to delay");
        assert!(outcome.rounds >= 8, "jitter cannot beat the sync time");
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn zero_extra_delay_is_exactly_synchronous() {
        let sync = {
            let mut e = Engine::new(ring(8), 1);
            e.run_until(100, |nodes| nodes.iter().all(|r| r.has_token))
        };
        let zero = {
            let mut e = Engine::new(ring(8), 1).with_max_extra_delay(0);
            e.run_until(100, |nodes| nodes.iter().all(|r| r.has_token))
        };
        assert_eq!(sync, zero);
    }

    #[test]
    fn no_detector_means_no_reports() {
        let watchers = vec![
            SuspectWatcher { seen: vec![] },
            SuspectWatcher { seen: vec![] },
        ];
        let mut engine = Engine::new(watchers, 1).with_faults(FaultPlan::new().with_crashes([1]));
        for _ in 0..5 {
            engine.step();
        }
        assert!(engine.nodes()[0].seen.iter().all(|(_, s)| s.is_empty()));
    }
}
