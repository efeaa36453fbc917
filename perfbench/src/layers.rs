//! One traced iteration: the workload's work driven through each
//! layer's public functions, with a span around every call, reduced to
//! the per-layer metrics.
//!
//! The `rd-sim` layer is measured on a replica of `Engine::step` built
//! from `EngineCore`'s public round protocol, so its phases can be timed
//! from outside the engine; the replica's counts must equal the
//! engine's. Metrics of layers a workload does not exercise are left
//! out here and read 0 in the report.

use crate::spans::Spans;
use crate::{
    build, build_kind, hm, runs_json, Args, Json, RunRecord, Workload, CAUSAL_CAPACITY,
    CAUSAL_SAMPLE_PPM, KOUT3,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_core::problem::{self, InitialKnowledge};
use rd_core::runner::ObsSpec;
use rd_core::{verify, AlgorithmKind, KnowledgeSet, KnowledgeView, RunConfig, RunVerdict};
use rd_exec::ShardedEngine;
use rd_obs::CausalTrace;
use rd_scenarios::{gate, library};
use rd_sim::{step_node, take_capped, EngineCore, Envelope, Node, NodeId, RoundEngine, RunMetrics};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const MB: f64 = (1u64 << 20) as f64;

pub fn iteration(args: &Args) -> String {
    let mut sp = Spans::new();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut runs = Vec::new();
    let traced_wall = match args.workload {
        Workload::FaultCampaigns => campaigns(args, &mut sp, &mut m, &mut runs),
        _ => hm_kout(args, &mut sp, &mut m, &mut runs),
    };
    let (insert_ns, contains_ns, union_ns) =
        sp.time("bench.kernels", || kernels(args.n, args.seed));
    m.insert("core.knowledge_insert_ns".into(), insert_ns);
    m.insert("core.knowledge_contains_ns".into(), contains_ns);
    m.insert("core.union_from_ns_per_word".into(), union_ns);

    let spans_path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", args.seed, std::process::id()));
    let spans_written = std::fs::write(&spans_path, sp.to_jsonl()).is_ok();
    let mut metrics = Json::default();
    for (name, value) in &m {
        metrics.num(name, *value);
    }
    let self_time: Vec<String> = sp
        .self_times()
        .iter()
        .map(|(name, s)| format!("[{},{s:?}]", crate::json_str(name)))
        .collect();
    let mut o = Json::default();
    o.num("wall_s", traced_wall)
        .raw("metrics", &metrics.finish())
        .raw("runs", &runs_json(&runs))
        .raw("self_time", &format!("[{}]", self_time.join(",")));
    if spans_written {
        o.str("spans", &spans_path.display().to_string());
    }
    o.finish()
}

/// The set-up layers' metrics from the `build` calls inside `root`.
fn setup_metrics(sp: &Spans, root: usize, m: &mut BTreeMap<String, f64>) {
    for name in [
        "graphs.generate",
        "core.initial_knowledge",
        "core.make_nodes",
    ] {
        m.insert(format!("{name}_s"), sp.total(root, name));
    }
}

/// The `hm-kout-*` workloads. The traced run (the span
/// `bench.traced_run`) covers what `runner::run` covers untraced: the
/// instance build, the round loop with its per-round completion check,
/// and post-run verification.
fn hm_kout(
    args: &Args,
    sp: &mut Spans,
    m: &mut BTreeMap<String, f64>,
    runs: &mut Vec<RunRecord>,
) -> f64 {
    let max_rounds = RunConfig::new(KOUT3, args.n, args.seed).max_rounds;
    let root = sp.enter("bench.traced_run");
    let (initial, nodes) = build(&hm(), KOUT3, args.n, args.seed, sp);
    let traced_wall;
    let sim;
    if args.workload == Workload::HmKoutSharded2 {
        let exec = exec_loop(nodes, &initial, args.seed, 2, max_rounds, sp);
        traced_wall = sp.exit(root);
        runs.push(exec.record("exec/sharded:2".into()));
        // The sim replica on the same seed: the baseline of
        // `exec.speedup_vs_sim`, and (through its counts) the engines'
        // cross-check.
        let reference = sp.enter("bench.sim_reference");
        let (initial, nodes) = build(&hm(), KOUT3, args.n, args.seed, sp);
        sim = sim_replica(nodes, &initial, args.seed, max_rounds, None, sp);
        sp.exit(reference);
        runs.push(sim.record("sim-replica".into()));
        let exec_s: f64 = exec.round_s.iter().sum();
        m.insert("exec.step_s".into(), exec_s);
        m.insert("exec.round_ms_p50".into(), median(&exec.round_s) * 1e3);
        m.insert(
            "exec.speedup_vs_sim".into(),
            sim.round_s.iter().sum::<f64>() / exec_s,
        );
        m.insert(
            "exec.pool_high_water_mb".into(),
            exec.pool_hw_bytes as f64 / MB,
        );
    } else {
        let causal = (args.workload == Workload::HmKoutCausal).then(|| causal_trace(&initial));
        sim = sim_replica(nodes, &initial, args.seed, max_rounds, causal, sp);
        traced_wall = sp.exit(root);
        runs.push(sim.record("sim-replica".into()));
        if let Some(trace) = &sim.causal {
            m.insert("obs.causal_offers".into(), trace.candidates() as f64);
            m.insert("obs.causal_edges".into(), trace.len() as f64);
            m.insert(
                "obs.causal_useful_ratio".into(),
                trace.len() as f64 / trace.candidates().max(1) as f64,
            );
        }
    }
    setup_metrics(sp, root, m);
    driver_metrics(sp, root, m);
    sim.insert_metrics(m);
    if args.workload == Workload::HmKoutCausal {
        obs_pairs(args, sp, m, runs);
    }
    traced_wall
}

/// The causal trace the runner attaches for the causal workload's
/// `ObsSpec`: every initial pointer (and every node's own id) is a root.
fn causal_trace(initial: &InitialKnowledge) -> CausalTrace {
    let mut trace = CausalTrace::new(CAUSAL_CAPACITY, CAUSAL_SAMPLE_PPM);
    trace.seed_known(initial.rows().enumerate().flat_map(|(node, ids)| {
        ids.iter()
            .map(move |id| (u32::from(*id), node as u32))
            .chain(std::iter::once((node as u32, node as u32)))
    }));
    trace
}

/// What a traced round loop measured.
struct LoopOut {
    metrics: RunMetrics,
    rounds: u64,
    completed: bool,
    sound: bool,
    /// Per-round step time in seconds (`sim.round` / `exec.step`).
    round_s: Vec<f64>,
    pool_hw_bytes: u64,
    resident_peak_bytes: u64,
    phase_s: [f64; 4],
    causal: Option<CausalTrace>,
}

impl LoopOut {
    fn record(&self, name: String) -> RunRecord {
        RunRecord {
            name,
            verdict: if self.completed {
                "complete"
            } else {
                "budget-exhausted"
            }
            .into(),
            passed: self.completed,
            sound: self.sound,
            notes: Vec::new(),
            rounds: self.rounds,
            messages: self.metrics.total_messages(),
            pointers: self.metrics.total_pointers(),
            bits: self.metrics.total_bits(),
        }
    }

    fn insert_metrics(&self, m: &mut BTreeMap<String, f64>) {
        let [begin, deliver, route, finish] = self.phase_s;
        m.insert("sim.begin_round_s".into(), begin);
        m.insert("sim.deliver_compute_s".into(), deliver);
        m.insert("sim.route_s".into(), route);
        m.insert("sim.finish_round_s".into(), finish);
        m.insert("sim.round_ms_p50".into(), median(&self.round_s) * 1e3);
        m.insert("sim.round_ms_tail".into(), tail(&self.round_s) * 1e3);
        m.insert("sim.envelopes".into(), self.metrics.total_messages() as f64);
        m.insert(
            "sim.ns_per_pointer".into(),
            self.round_s.iter().sum::<f64>() * 1e9 / self.metrics.total_pointers().max(1) as f64,
        );
        m.insert(
            "sim.pool_high_water_mb".into(),
            self.pool_hw_bytes as f64 / MB,
        );
        m.insert(
            "core.knowledge_resident_mb".into(),
            self.resident_peak_bytes as f64 / MB,
        );
    }
}

fn resident<N: KnowledgeView>(nodes: &[N]) -> u64 {
    nodes.iter().map(KnowledgeView::resident_bytes).sum()
}

/// A replica of `rd_sim::Engine::step` from `EngineCore`'s public round
/// protocol (`begin_round`, `step_state`, `take_capped`, `step_node`,
/// `route_batch`, `finish_round`), driven like `runner::run` drives an
/// engine, with a span around each phase.
fn sim_replica<N: Node + KnowledgeView>(
    mut nodes: Vec<N>,
    initial: &InitialKnowledge,
    seed: u64,
    max_rounds: u64,
    causal: Option<CausalTrace>,
    sp: &mut Spans,
) -> LoopOut {
    let n = nodes.len();
    let live = vec![true; n];
    let mut core: EngineCore<N::Msg> = EngineCore::new(n, seed);
    if let Some(trace) = causal {
        core.set_causal(trace);
    }
    let mut staged: Vec<Envelope<N::Msg>> = Vec::new();
    let mut scratch: Vec<Envelope<N::Msg>> = Vec::new();
    let env_bytes = std::mem::size_of::<Envelope<N::Msg>>() as u64;
    let mut out = LoopOut {
        metrics: RunMetrics::new(n),
        rounds: 0,
        completed: false,
        sound: false,
        round_s: Vec::new(),
        pool_hw_bytes: 0,
        resident_peak_bytes: resident(&nodes),
        phase_s: [0.0; 4],
        causal: None,
    };
    let mut done = sp.time("driver.completion_check", || {
        problem::everyone_knows_everyone_among(&nodes, &live)
    });
    while !done && core.round() < max_rounds {
        let r = sp.enter("sim.round");
        let (round, begin) = sp.timed("sim.begin_round", || core.begin_round());
        let suspects = core.suspects().to_vec();
        let ((), deliver) = sp.timed("sim.deliver_compute", || {
            let state = core.step_state();
            let crashes_possible = state.faults.has_crashes();
            for (i, node) in nodes.iter_mut().enumerate() {
                if crashes_possible && state.faults.is_crashed_at(i, round) {
                    state.inboxes[i].clear();
                    continue;
                }
                let inbox = take_capped(&mut state.inboxes[i], &mut scratch, state.receive_cap);
                step_node(node, i, round, state.seed, &suspects, inbox, &mut staged);
            }
        });
        let buffered = (staged.capacity() + scratch.capacity()) as u64 * env_bytes;
        let ((), route) = sp.timed("sim.route", || core.route_batch(&mut staged));
        let ((), finish) = sp.timed("sim.finish_round", || core.finish_round());
        out.round_s.push(sp.exit(r));
        for (acc, s) in out.phase_s.iter_mut().zip([begin, deliver, route, finish]) {
            *acc += s;
        }
        out.pool_hw_bytes = out
            .pool_hw_bytes
            .max(buffered + core.pool_high_water_bytes());
        let bytes = sp.time("core.resident_bytes", || resident(&nodes));
        out.resident_peak_bytes = out.resident_peak_bytes.max(bytes);
        done = sp.time("driver.completion_check", || {
            problem::everyone_knows_everyone_among(&nodes, &live)
        });
    }
    out.rounds = core.round();
    out.completed = done;
    out.sound = verify_run(&nodes, initial, &live, done, sp);
    out.metrics = core.metrics().clone();
    out.causal = core.take_causal();
    out
}

/// The sharded engine stepped from outside, one `exec.step` span per
/// round, driven like `runner::run` drives it.
fn exec_loop<N>(
    nodes: Vec<N>,
    initial: &InitialKnowledge,
    seed: u64,
    workers: usize,
    max_rounds: u64,
    sp: &mut Spans,
) -> LoopOut
where
    N: Node + KnowledgeView + Send,
    N::Msg: Send,
{
    let n = nodes.len();
    let live = vec![true; n];
    let mut engine = ShardedEngine::new(nodes, seed, workers);
    let mut round_s = Vec::new();
    let mut done = sp.time("driver.completion_check", || {
        problem::everyone_knows_everyone_among(engine.nodes(), &live)
    });
    while !done && engine.round() < max_rounds {
        round_s.push(sp.timed("exec.step", || engine.step()).1);
        done = sp.time("driver.completion_check", || {
            problem::everyone_knows_everyone_among(engine.nodes(), &live)
        });
    }
    let sound = verify_run(engine.nodes(), initial, &live, done, sp);
    LoopOut {
        metrics: engine.metrics().clone(),
        rounds: engine.round(),
        completed: done,
        sound,
        round_s,
        pool_hw_bytes: engine.pool_high_water().iter().map(|&(_, b)| b).sum(),
        resident_peak_bytes: 0,
        phase_s: [0.0; 4],
        causal: None,
    }
}

/// `runner::run`'s post-run soundness verification, one span per check.
fn verify_run<N: KnowledgeView>(
    nodes: &[N],
    initial: &InitialKnowledge,
    live: &[bool],
    completed: bool,
    sp: &mut Spans,
) -> bool {
    let mut sound = sp.time("driver.verify.no_fabricated", || {
        verify::no_fabricated_ids(nodes)
    }) && sp.time("driver.verify.knows_self", || verify::knows_self(nodes));
    sound &= sp.time("driver.verify.retains_initial", || {
        verify::retains_initial_knowledge(nodes, initial)
    });
    if completed {
        sound &= sp.time("driver.verify.eke", || {
            problem::everyone_knows_everyone_among(nodes, live)
        });
        sound &= sp.time("driver.verify.live_component", || {
            verify::live_component_complete(nodes, initial, live)
        });
    }
    sound
}

fn driver_metrics(sp: &Spans, root: usize, m: &mut BTreeMap<String, f64>) {
    for name in [
        "driver.completion_check",
        "driver.verify.eke",
        "driver.verify.live_component",
        "driver.verify.no_fabricated",
    ] {
        m.insert(format!("{name}_s"), sp.total(root, name));
    }
}

/// The telemetry overhead pairs of the causal workload's instance:
/// untraced, archive only, and archive plus profiler, interleaved with
/// the order rotated each pass so host drift cancels out of the ratios.
fn obs_pairs(
    args: &Args,
    sp: &mut Spans,
    m: &mut BTreeMap<String, f64>,
    runs: &mut Vec<RunRecord>,
) {
    const PASSES: usize = 3;
    let modes = ["plain", "archive", "profile"];
    let mut walls: [Vec<f64>; 3] = Default::default();
    let root = sp.enter("bench.obs_pairs");
    for pass in 0..PASSES {
        for k in 0..modes.len() {
            let mode = (pass + k) % modes.len();
            let path = args.out_dir.join(format!(
                "pair-{}-{}-{}.jsonl",
                modes[mode],
                args.seed,
                std::process::id()
            ));
            let mut config = RunConfig::new(KOUT3, args.n, args.seed);
            match mode {
                1 => config = config.with_obs(ObsSpec::new().with_archive(&path)),
                2 => config = config.with_obs(ObsSpec::new().with_archive(&path).with_profile()),
                _ => {}
            }
            let (report, wall) = sp.timed(format!("obs.{}", modes[mode]), || {
                rd_core::run(AlgorithmKind::Hm(Default::default()), &config)
            });
            walls[mode].push(wall);
            let _ = std::fs::remove_file(&path);
            let passed = report.completed && report.verdict == RunVerdict::Complete;
            runs.push(RunRecord::from_report(
                format!("obs-{}", modes[mode]),
                &report,
                passed,
            ));
        }
    }
    sp.exit(root);
    let pct = |num: &[f64], den: &[f64]| {
        let ratios: Vec<f64> = num
            .iter()
            .zip(den)
            .map(|(a, b)| (a / b - 1.0) * 100.0)
            .collect();
        median(&ratios)
    };
    m.insert("obs.archive_overhead_pct".into(), pct(&walls[1], &walls[0]));
    m.insert("obs.profile_overhead_pct".into(), pct(&walls[2], &walls[1]));
}

/// `fault-campaigns`: every campaign run through `runner::run` and its
/// gate, one span per run. The traced run is the sum of those spans —
/// what the untraced `wall_s` sums.
fn campaigns(
    args: &Args,
    sp: &mut Spans,
    m: &mut BTreeMap<String, f64>,
    runs: &mut Vec<RunRecord>,
) -> f64 {
    let scenarios = sp.time("scenarios.library", || library(args.n, args.seed));
    let setup = sp.enter("bench.setup");
    for s in &scenarios {
        for kind in &s.algorithms {
            build_kind(kind, s.topology, s.n, s.seed, sp);
        }
    }
    sp.exit(setup);
    setup_metrics(sp, setup, m);
    let (mut drops, mut retx, mut messages) = (0u64, 0u64, 0u64);
    let root = sp.enter("bench.traced_run");
    for s in &scenarios {
        for kind in &s.algorithms {
            let name = format!("scenarios.{}.{}", s.name, kind.name());
            let id = sp.enter(name.clone());
            let config = s.run_config(None, kind);
            let report = sp.time("core.runner.run", || rd_core::run(*kind, &config));
            let outcome = sp.time("scenarios.gate", || gate(s, report, None));
            m.insert(format!("{name}.wall_s"), sp.exit(id));
            drops += outcome.report.dropped();
            retx += outcome.report.retransmissions;
            messages += outcome.report.messages;
            let mut record = RunRecord::from_report(
                format!("{}/{}", outcome.scenario, outcome.algorithm),
                &outcome.report,
                outcome.passed(),
            );
            record.notes = outcome
                .checks
                .iter()
                .filter(|c| !c.pass)
                .map(|c| format!("{}: {} (limit {})", c.gate, c.actual, c.limit))
                .collect();
            runs.push(record);
        }
    }
    let traced_wall = sp.exit(root);
    m.insert("faults.drops".into(), drops as f64);
    m.insert("faults.retransmissions".into(), retx as f64);
    m.insert(
        "faults.delivery_ratio".into(),
        messages.saturating_sub(drops) as f64 / messages.max(1) as f64,
    );
    traced_wall
}

/// The knowledge kernels on sets over the workload's id universe:
/// nanoseconds per `insert` and per `contains` call, and per 64-bit
/// word of a dense-dense `union_from`. Ids come from `seed`.
fn kernels(n: usize, seed: u64) -> (f64, f64, f64) {
    const TARGET_OPS: usize = 1 << 20;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e_656c_7321);
    let per_set = (n / 2).max(1);
    let sets_count = (TARGET_OPS / per_set).clamp(2, 1024);
    let ids: Vec<NodeId> = (0..sets_count * per_set)
        .map(|_| NodeId::new(rng.random_range(0..n as u32)))
        .collect();

    let started = Instant::now();
    let sets: Vec<KnowledgeSet> = ids
        .chunks(per_set)
        .enumerate()
        .map(|(s, chunk)| {
            let mut set = KnowledgeSet::new(NodeId::new((s % n) as u32));
            for &id in chunk {
                set.insert(id);
            }
            set
        })
        .collect();
    let insert_ns = started.elapsed().as_secs_f64() * 1e9 / ids.len() as f64;

    let started = Instant::now();
    let mut hits = 0u64;
    for (i, &id) in ids.iter().enumerate() {
        hits += u64::from(sets[i % sets_count].contains(id));
    }
    black_box(hits);
    let contains_ns = started.elapsed().as_secs_f64() * 1e9 / ids.len() as f64;

    let words = n.div_ceil(64);
    let reps = (TARGET_OPS / words).clamp(64, 1 << 15);
    let mut union_s = 0.0;
    for rep in 0..reps {
        let mut ours = sets[rep % sets_count].clone();
        let theirs = &sets[(rep + 1) % sets_count];
        let started = Instant::now();
        black_box(ours.union_from(theirs));
        union_s += started.elapsed().as_secs_f64();
    }
    let union_ns_per_word = union_s * 1e9 / (reps * words) as f64;
    (insert_ns, contains_ns, union_ns_per_word)
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it (the
/// maximum when there are fewer than eleven samples).
fn tail(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        len if len < 11 => v[len - 1],
        len => v[len - 11],
    }
}
