//! The [`Recorder`]: the one object an engine talks to when
//! observability is enabled.
//!
//! Engines hold an `Option<Recorder>`; when it is `None` no clock is
//! ever read and no branch beyond the `Option` check runs — that is
//! the zero-cost-when-disabled contract. When present, the recorder
//! accumulates spans, per-round rows, and registry metrics entirely
//! *outside* deterministic engine state: nothing an engine computes
//! ever depends on a recorder value, so enabling observability cannot
//! perturb a run (pinned by `tests/prop_engine_equivalence.rs`).
//!
//! At run end the driver calls [`Recorder::finish`], which assembles
//! the [`ObsReport`] — distributions, phase timings, worker
//! utilization, hot nodes — and hands it to every attached
//! [`ObsSink`] for export.

use crate::hist::Histogram;
use crate::monitor::Alert;
use crate::prof::{ProfileReport, Profiler};
use crate::registry::MetricsRegistry;
use crate::sink::ObsSink;
use crate::span::{Phase, SpanEvent};
use crate::trace::CausalTrace;
use std::time::Instant;

/// Identity of a run, echoed into every exported artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    pub algorithm: String,
    pub topology: String,
    pub n: usize,
    pub seed: u64,
    /// `"sequential"`, `"sharded:<workers>"`, or `"event:<model>"`.
    pub engine: String,
    pub workers: usize,
    /// The latency model's spec string when the run used the
    /// discrete-event engine (`None` for the round engines, which keeps
    /// their archives byte-identical to what earlier builds wrote).
    pub latency_model: Option<String>,
}

/// One round's observed counters plus its wall-clock cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundObs {
    pub round: u64,
    pub wall_ns: u64,
    pub messages: u64,
    pub pointers: u64,
    pub dropped_coin: u64,
    pub dropped_crash: u64,
    pub dropped_partition: u64,
    pub dropped_link: u64,
    pub dropped_suppression: u64,
    pub retransmissions: u64,
    /// New identifiers learned across all nodes this round; filled in
    /// at [`Recorder::finish`] from the driver's knowledge series
    /// (engines cannot see algorithm knowledge).
    pub knowledge_delta: Option<u64>,
}

/// The run verdict and totals as the driver saw them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOutcomeObs {
    pub verdict: String,
    pub completed: bool,
    pub sound: bool,
    pub rounds: u64,
    pub messages: u64,
    pub pointers: u64,
    pub trace_events: u64,
    pub trace_overflow: u64,
    /// The last round at which total knowledge still grew, when the
    /// driver's watchdog tracked it (surfaced for stalled runs).
    pub last_progress: Option<u64>,
}

/// Aggregate timing of one phase across the whole run.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSummary {
    pub phase: Phase,
    pub count: u64,
    pub total_ns: u64,
    pub hist: Histogram,
}

/// One worker's total observed busy time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerSummary {
    pub worker: u32,
    pub spans: u64,
    pub busy_ns: u64,
}

/// Everything the recorder learned about one run, ready for export.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsReport {
    pub meta: RunMeta,
    pub outcome: RunOutcomeObs,
    pub rounds: Vec<RoundObs>,
    pub registry: MetricsRegistry,
    pub phases: Vec<PhaseSummary>,
    pub workers: Vec<WorkerSummary>,
    /// Top senders/receivers as `(node id, message count)`, hottest
    /// first, ties broken toward lower ids.
    pub hot_senders: Vec<(u32, u64)>,
    pub hot_receivers: Vec<(u32, u64)>,
    pub spans: Vec<SpanEvent>,
    pub span_overflow: u64,
    /// The knowledge-provenance DAG, when causal tracing was enabled
    /// (exported as the schema-v2 archive section).
    pub causal: Option<CausalTrace>,
    /// Cost attribution, when profiling was enabled (exported as the
    /// schema-v3 archive section).
    pub profile: Option<ProfileReport>,
    /// Alerts the online monitor fired, in firing order (exported as
    /// schema-v4 `alert` records; empty for alert-free runs, which
    /// keeps their archives byte-identical to earlier schemas).
    pub alerts: Vec<Alert>,
}

/// How many hot senders/receivers the report keeps.
pub const HOT_NODES_K: usize = 8;

/// Spans pre-allocated at construction (≈ 16 phases × 1k rounds,
/// 512 KiB) so span recording is allocation-free for typical runs.
const SPAN_PREALLOC: usize = 1 << 14;

/// Round rows pre-allocated at construction.
const ROUND_PREALLOC: usize = 1 << 10;

/// Collects telemetry for one run. See the module docs for the
/// determinism contract.
pub struct Recorder {
    epoch: Instant,
    meta: RunMeta,
    spans: Vec<SpanEvent>,
    span_cap: usize,
    span_overflow: u64,
    round_start: Option<Instant>,
    rounds: Vec<RoundObs>,
    registry: MetricsRegistry,
    sinks: Vec<Box<dyn ObsSink>>,
    causal: Option<CausalTrace>,
    prof: Option<Profiler>,
    /// Per-worker parallel-phase busy time over the *current* round —
    /// the live bus's shard-utilization tap, reset in
    /// [`begin_round`](Self::begin_round) and accumulated as spans
    /// arrive (O(1) per span; no end-of-round scan).
    round_busy: Vec<u64>,
    last_round_wall_ns: u64,
    alerts: Vec<Alert>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("meta", &self.meta)
            .field("spans", &self.spans.len())
            .field("rounds", &self.rounds.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Recorder {
    /// A recorder with no sinks: telemetry is still aggregated and the
    /// [`ObsReport`] still comes back from [`finish`](Self::finish),
    /// there is just no file export. This is the configuration the
    /// overhead benchmarks measure.
    pub fn new(meta: RunMeta) -> Self {
        let lanes = meta.workers.max(1);
        Recorder {
            epoch: Instant::now(),
            meta,
            // Pre-sized so the steady-state hot path (a handful of
            // spans plus one round row per round) never reallocates
            // mid-run: buffer growth would be charged to whichever
            // round happens to cross a power of two, skewing both the
            // per-phase profile and the measured obs overhead.
            spans: Vec::with_capacity(SPAN_PREALLOC),
            span_cap: 1 << 20,
            span_overflow: 0,
            round_start: None,
            rounds: Vec::with_capacity(ROUND_PREALLOC),
            registry: MetricsRegistry::new(),
            sinks: Vec::new(),
            causal: None,
            prof: None,
            round_busy: vec![0; lanes],
            last_round_wall_ns: 0,
            alerts: Vec::new(),
        }
    }

    /// Enables cost-attribution profiling. Purely additive: a profiled
    /// run is bit-identical to an un-profiled one (wall-clock still
    /// only flows *into* the recorder), but the finished report gains
    /// a [`ProfileReport`] and archives move to
    /// schema v3. Chainable.
    pub fn with_profiling(mut self) -> Self {
        self.prof = Some(Profiler::new());
        self
    }

    /// Whether profiling is enabled — engines and drivers gate their
    /// profiling-only work (extra spans, memory sampling) on this so
    /// un-profiled runs pay nothing.
    pub fn profiling_enabled(&self) -> bool {
        self.prof.is_some()
    }

    /// Registers one message kind's byte costs with the profiler
    /// (no-op when profiling is off). Engines call this once at
    /// construction; sizes are compile-time facts.
    pub fn profile_msg_kind(&mut self, kind: &str, env_bytes: u64, ptr_bytes: u64) {
        if let Some(prof) = &mut self.prof {
            prof.add_msg_kind(kind, env_bytes, ptr_bytes);
        }
    }

    /// Records one per-round memory sample (no-op when profiling is
    /// off). Driver-side: engines cannot see algorithm knowledge.
    pub fn profile_memory(&mut self, round: u64, knowledge_bytes: u64) {
        if let Some(prof) = &mut self.prof {
            prof.add_mem_sample(round, knowledge_bytes);
        }
    }

    /// Records end-of-run buffer-pool high-water marks (no-op when
    /// profiling is off).
    pub fn profile_pool_high_water(&mut self, pools: &[(&str, u64)]) {
        if let Some(prof) = &mut self.prof {
            prof.set_pool_high_water(pools);
        }
    }

    /// Hands the engine's finished causal trace to the recorder so the
    /// archive sink can export it as the schema-v2 provenance section.
    /// Called by the driver after the run, never during it — the trace
    /// is engine-collected but strictly observational.
    pub fn attach_causal(&mut self, causal: CausalTrace) {
        self.causal = Some(causal);
    }

    /// Attaches an export sink (archives, traces, exposition — any
    /// [`ObsSink`]). Chainable.
    pub fn with_sink(mut self, sink: Box<dyn ObsSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Caps the retained span buffer (default 2²⁰ spans); further
    /// spans are counted in `span_overflow` but not stored.
    pub fn with_span_capacity(mut self, cap: usize) -> Self {
        self.span_cap = cap;
        self
    }

    /// The shared clock epoch: worker threads convert their `Instant`
    /// reads to offsets from this via [`SpanEvent::from_instants`].
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Direct access to the counter/gauge/histogram registry, for
    /// drivers that publish their own metrics (detector retractions,
    /// registry-service tallies) before `finish`.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// Marks the wall-clock start of a round.
    pub fn begin_round(&mut self) {
        self.round_start = Some(Instant::now());
        self.round_busy.fill(0);
    }

    /// Records a span that started at `start` and ends now (the serial
    /// engine's "time this phase inline" helper).
    pub fn span_from(&mut self, phase: Phase, round: u64, worker: u32, start: Instant) {
        let span =
            SpanEvent::from_instants(self.epoch, phase, round, worker, start, Instant::now());
        self.record_span(span);
    }

    /// Records a pre-built span (the sharded engine folds per-worker
    /// spans in through here after joining its scope).
    pub fn record_span(&mut self, span: SpanEvent) {
        if matches!(span.phase, Phase::OnRound | Phase::RouteShard) {
            let lane = span.worker as usize;
            if lane >= self.round_busy.len() {
                self.round_busy.resize(lane + 1, 0);
            }
            self.round_busy[lane] += span.dur_ns;
        }
        for sink in &mut self.sinks {
            sink.on_span(&span);
        }
        if self.spans.len() < self.span_cap {
            self.spans.push(span);
        } else {
            self.span_overflow += 1;
        }
    }

    /// Closes out a round: `obs.wall_ns` is overwritten with the time
    /// since the matching [`begin_round`](Self::begin_round).
    pub fn end_round(&mut self, mut obs: RoundObs) {
        obs.wall_ns = self
            .round_start
            .take()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.last_round_wall_ns = obs.wall_ns;
        for sink in &mut self.sinks {
            sink.on_round(&obs);
        }
        self.rounds.push(obs);
    }

    /// Per-worker parallel-phase busy time over the round now closing
    /// (the live snapshot's shard-utilization source).
    pub fn live_shard_busy(&self) -> &[u64] {
        &self.round_busy
    }

    /// Wall time of the most recently closed round.
    pub fn last_round_wall_ns(&self) -> u64 {
        self.last_round_wall_ns
    }

    /// Stores an alert the online monitor fired, for export as a
    /// schema-v4 `alert` archive record.
    pub fn record_alert(&mut self, alert: Alert) {
        self.alerts.push(alert);
    }

    /// Assembles the [`ObsReport`] and runs every sink's export.
    ///
    /// `per_node_sent`/`per_node_recv` feed the hot-node top-k;
    /// `knowledge` is the driver's `(round, total known ids)` series
    /// (empty when the driver does not observe knowledge); `pools` are
    /// `(name, takes, reuses)` counters from every buffer pool the
    /// engine exposes.
    pub fn finish(
        mut self,
        outcome: RunOutcomeObs,
        per_node_sent: &[u64],
        per_node_recv: &[u64],
        knowledge: &[(u64, u64)],
        pools: &[(&str, u64, u64)],
    ) -> std::io::Result<ObsReport> {
        // Knowledge deltas: consecutive differences of the series,
        // keyed by round. The first observation has no predecessor and
        // stays `None`.
        for pair in knowledge.windows(2) {
            let (_, prev_total) = pair[0];
            let (round, total) = pair[1];
            if let Some(row) = self.rounds.iter_mut().find(|r| r.round == round) {
                row.knowledge_delta = Some(total.saturating_sub(prev_total));
            }
        }

        let mut reg = self.registry;
        reg.add_counter("messages_total", outcome.messages);
        reg.add_counter("pointers_total", outcome.pointers);
        let coin: u64 = self.rounds.iter().map(|r| r.dropped_coin).sum();
        let crash: u64 = self.rounds.iter().map(|r| r.dropped_crash).sum();
        let partition: u64 = self.rounds.iter().map(|r| r.dropped_partition).sum();
        let link: u64 = self.rounds.iter().map(|r| r.dropped_link).sum();
        let suppression: u64 = self.rounds.iter().map(|r| r.dropped_suppression).sum();
        let retrans: u64 = self.rounds.iter().map(|r| r.retransmissions).sum();
        reg.add_counter("dropped_coin_total", coin);
        reg.add_counter("dropped_crash_total", crash);
        reg.add_counter("dropped_partition_total", partition);
        reg.add_counter("dropped_link_total", link);
        reg.add_counter("dropped_suppression_total", suppression);
        reg.add_counter("retransmissions_total", retrans);
        reg.add_counter("trace_events_total", outcome.trace_events);
        reg.add_counter("trace_overflow_total", outcome.trace_overflow);
        // Registered only when something fired: alert-free runs keep
        // their registry — and therefore their archive bytes —
        // identical to builds without the monitor.
        if !self.alerts.is_empty() {
            reg.add_counter("alerts_total", self.alerts.len() as u64);
        }
        if let Some(causal) = &self.causal {
            reg.add_counter("causal_edges_total", causal.len() as u64);
            reg.add_counter("causal_candidates_total", causal.candidates());
            reg.add_counter("causal_sampled_out_total", causal.sampled_out());
            reg.add_counter("causal_overflow_total", causal.overflow());
        }
        for &(name, takes, reuses) in pools {
            reg.add_counter(&format!("pool_{name}_takes_total"), takes);
            reg.add_counter(&format!("pool_{name}_reuses_total"), reuses);
            let rate = if takes == 0 {
                0.0
            } else {
                reuses as f64 / takes as f64
            };
            reg.set_gauge(&format!("pool_{name}_hit_rate"), rate);
        }
        for row in &self.rounds {
            reg.record("round_messages", row.messages);
            reg.record("round_pointers", row.pointers);
            reg.record("round_wall_ns", row.wall_ns);
            if let Some(delta) = row.knowledge_delta {
                reg.record("knowledge_delta", delta);
            }
        }

        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let mut hist = Histogram::new();
            let mut total_ns = 0u64;
            for s in self.spans.iter().filter(|s| s.phase == phase) {
                hist.record(s.dur_ns);
                total_ns += s.dur_ns;
            }
            if hist.count() > 0 {
                reg.record_hist_merge(&format!("span_{}_ns", phase.name()), &hist);
                phases.push(PhaseSummary {
                    phase,
                    count: hist.count(),
                    total_ns,
                    hist,
                });
            }
        }

        let mut workers: Vec<WorkerSummary> = Vec::new();
        for s in &self.spans {
            match workers.iter_mut().find(|w| w.worker == s.worker) {
                Some(w) => {
                    w.spans += 1;
                    w.busy_ns += s.dur_ns;
                }
                None => workers.push(WorkerSummary {
                    worker: s.worker,
                    spans: 1,
                    busy_ns: s.dur_ns,
                }),
            }
        }
        workers.sort_by_key(|w| w.worker);
        // Imbalance over the parallel phases only: max/mean of
        // per-worker busy time in `OnRound` + `RouteShard` (1.0 means
        // perfectly even shards).
        let mut parallel_busy: Vec<(u32, u64)> = Vec::new();
        for s in self
            .spans
            .iter()
            .filter(|s| matches!(s.phase, Phase::OnRound | Phase::RouteShard))
        {
            match parallel_busy.iter_mut().find(|(w, _)| *w == s.worker) {
                Some((_, ns)) => *ns += s.dur_ns,
                None => parallel_busy.push((s.worker, s.dur_ns)),
            }
        }
        if parallel_busy.len() > 1 {
            let max = parallel_busy.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
            let mean: f64 = parallel_busy.iter().map(|&(_, ns)| ns as f64).sum::<f64>()
                / parallel_busy.len() as f64;
            if mean > 0.0 {
                reg.set_gauge("worker_imbalance", max as f64 / mean);
            }
        }
        let wall_total: u64 = self.rounds.iter().map(|r| r.wall_ns).sum();
        reg.set_gauge("wall_seconds_total", wall_total as f64 / 1e9);

        // Profile assembly is the one place attribution arithmetic
        // runs — nothing above this line changes shape when profiling
        // is enabled, which is what keeps un-profiled archives
        // byte-identical.
        let profile = self
            .prof
            .take()
            .map(|p| p.assemble(&self.rounds, &self.spans, &outcome));

        let report = ObsReport {
            meta: self.meta,
            outcome,
            rounds: self.rounds,
            registry: reg,
            phases,
            workers,
            hot_senders: top_k(per_node_sent, HOT_NODES_K),
            hot_receivers: top_k(per_node_recv, HOT_NODES_K),
            spans: self.spans,
            span_overflow: self.span_overflow,
            causal: self.causal,
            profile,
            alerts: self.alerts,
        };
        for sink in &mut self.sinks {
            sink.on_finish(&report)?;
        }
        Ok(report)
    }
}

/// Top `k` indices of `values` by value, descending, ties toward the
/// lower index. Zero entries are skipped.
fn top_k(values: &[u64], k: usize) -> Vec<(u32, u64)> {
    let mut ranked: Vec<(u32, u64)> = values
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v > 0)
        .map(|(i, &v)| (i as u32, v))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            algorithm: "test".into(),
            topology: "k-out-3".into(),
            n: 8,
            seed: 1,
            engine: "sequential".into(),
            workers: 1,
            latency_model: None,
        }
    }

    fn round(round: u64, messages: u64) -> RoundObs {
        RoundObs {
            round,
            wall_ns: 0,
            messages,
            pointers: messages * 2,
            dropped_coin: 1,
            dropped_crash: 0,
            dropped_partition: 0,
            dropped_link: 0,
            dropped_suppression: 0,
            retransmissions: 0,
            knowledge_delta: None,
        }
    }

    #[test]
    fn finish_assembles_rounds_phases_and_hot_nodes() {
        let mut rec = Recorder::new(meta());
        for r in 1..=3u64 {
            rec.begin_round();
            rec.span_from(Phase::OnRound, r, 0, Instant::now());
            rec.span_from(Phase::RouteShard, r, 0, Instant::now());
            rec.end_round(round(r, 10 * r));
        }
        let outcome = RunOutcomeObs {
            verdict: "complete-sound".into(),
            completed: true,
            sound: true,
            rounds: 3,
            messages: 60,
            pointers: 120,
            trace_events: 5,
            trace_overflow: 0,
            last_progress: None,
        };
        let report = rec
            .finish(
                outcome,
                &[5, 0, 9, 9],
                &[1, 2, 3, 4],
                &[(0, 100), (1, 130), (2, 160), (3, 200)],
                &[("delay", 10, 7)],
            )
            .unwrap();
        assert_eq!(report.rounds.len(), 3);
        // Knowledge deltas: round 1 has a predecessor at round 0.
        assert_eq!(report.rounds[0].knowledge_delta, Some(30));
        assert_eq!(report.rounds[2].knowledge_delta, Some(40));
        assert_eq!(report.registry.counter("messages_total"), Some(60));
        assert_eq!(report.registry.counter("dropped_coin_total"), Some(3));
        assert_eq!(report.registry.counter("pool_delay_reuses_total"), Some(7));
        assert!((report.registry.gauge("pool_delay_hit_rate").unwrap() - 0.7).abs() < 1e-9);
        assert_eq!(report.hot_senders, vec![(2, 9), (3, 9), (0, 5)]);
        assert_eq!(report.hot_receivers[0], (3, 4));
        let on_round = report
            .phases
            .iter()
            .find(|p| p.phase == Phase::OnRound)
            .unwrap();
        assert_eq!(on_round.count, 3);
        assert_eq!(
            report.registry.histogram("round_messages").unwrap().count(),
            3
        );
    }

    #[test]
    fn span_capacity_overflows_are_counted() {
        let mut rec = Recorder::new(meta()).with_span_capacity(2);
        for r in 0..5 {
            rec.span_from(Phase::FinishRound, r, 0, Instant::now());
        }
        let report = rec
            .finish(RunOutcomeObs::default(), &[], &[], &[], &[])
            .unwrap();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.span_overflow, 3);
    }
}
