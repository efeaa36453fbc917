//! End-to-end checks of the causal provenance layer: on a fault-free
//! HM run with full sampling, the critical path extracted from the
//! archive must terminate exactly at the reported final round — the
//! last delivery that completed someone's knowledge *is* the last round
//! of the run — and the `rd-inspect why` narrative must say so.

use resource_discovery::core::algorithms::hm::HmConfig;
use resource_discovery::obs::archive;
use resource_discovery::obs::critical_path::{critical_path, why};
use resource_discovery::prelude::*;

fn traced_run(topo: Topology, n: usize, seed: u64, tag: &str) -> (RunReport, archive::Archive) {
    let dir = std::env::temp_dir().join(format!("rd-causal-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.jsonl"));
    let spec = ObsSpec::new()
        .with_archive(&path)
        .with_causal_trace(1 << 20, 1_000_000);
    let report = run(
        AlgorithmKind::Hm(HmConfig::default()),
        &RunConfig::new(topo, n, seed)
            .with_max_rounds(2_000)
            .with_obs(spec),
    );
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let problems = archive::validate(&text);
    assert!(problems.is_empty(), "invalid archive: {problems:?}");
    (report, archive::parse(&text).unwrap())
}

#[test]
fn critical_path_terminates_at_the_reported_final_round() {
    for (seed, topo) in [
        (3u64, Topology::Cycle),
        (7, Topology::KOut { k: 3 }),
        (11, Topology::RandomTree),
    ] {
        let (report, parsed) = traced_run(topo, 48, seed, &format!("cp-{seed}"));
        assert!(report.completed, "{topo} did not complete");
        let chain = critical_path(&parsed).expect("fault-free full-sampling run has edges");
        let terminal = chain.last().unwrap();
        // The run ends the round the last node learns its last id; with
        // every message traced, that delivery is the terminal edge.
        assert_eq!(
            terminal.round, report.rounds,
            "{topo}: critical path ends at round {} but the run took {}",
            terminal.round, report.rounds
        );
        // Hops are real deliveries, so the chain fits inside the run
        // and each hop strictly advances the delivery round.
        assert!(chain.len() as u64 <= report.rounds);
        for pair in chain.windows(2) {
            assert!(pair[0].round < pair[1].round, "path rounds must increase");
            assert_eq!(pair[0].node, pair[1].src, "hops must chain by sender");
            assert_eq!(pair[0].id, pair[1].id, "a chain follows one id");
        }
        // No sampling, ample capacity: the trace saw everything.
        let tm = parsed.trace_meta.as_ref().unwrap();
        assert_eq!(tm.sampled_out, 0);
        assert_eq!(tm.overflow, 0);
    }
}

#[test]
fn why_narrative_names_the_final_round() {
    let (report, parsed) = traced_run(Topology::Cycle, 32, 5, "why");
    let text = why(&parsed);
    assert!(
        text.contains(&format!(
            "final round of the run is round {}",
            report.rounds
        )),
        "narrative missing the final round:\n{text}"
    );
    assert!(text.contains("critical path:"), "{text}");
}

/// FNV-1a over the archive's provenance section (`trace_meta` + `edge`
/// lines, newline-joined).
fn provenance_digest(text: &str) -> (u64, usize) {
    let section: Vec<&str> = text
        .lines()
        .filter(|l| {
            l.starts_with("{\"type\":\"trace_meta\"") || l.starts_with("{\"type\":\"edge\"")
        })
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in section.join("\n").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, section.len())
}

#[test]
fn overflowing_provenance_section_is_pinned() {
    // HM on 3-out at 2^9 with a pair capacity far below the 2^18 pairs:
    // the trace fills mid-run and every later new pair overflows. The
    // digest pins which edges the capacity keeps and how many offers
    // it turns away, on every engine.
    const PINNED: (u64, usize) = (8_440_221_218_452_170_463, 16_385);
    let dir = std::env::temp_dir().join(format!("rd-causal-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (tag, engine) in [
        ("seq", EngineKind::Sequential),
        ("sharded2", EngineKind::Sharded { workers: 2 }),
        (
            "event",
            EngineKind::Event {
                latency: LatencyModel::Constant { ticks: 1 },
            },
        ),
    ] {
        let path = dir.join(format!("{tag}.jsonl"));
        let spec = ObsSpec::new()
            .with_archive(&path)
            .with_causal_trace(1 << 14, 1_000_000);
        let report = run(
            AlgorithmKind::Hm(HmConfig::default()),
            &RunConfig::new(Topology::KOut { k: 3 }, 1 << 9, 42)
                .with_engine(engine)
                .with_obs(spec),
        );
        assert!(report.completed, "{tag} did not complete");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let tm = archive::parse(&text).unwrap().trace_meta.unwrap();
        assert!(tm.overflow > 0, "{tag}: the capacity never filled");
        assert_eq!(
            provenance_digest(&text),
            PINNED,
            "{tag}: provenance drifted"
        );
    }
}

/// Every fact a node holds must be self-knowledge, a root, or the head
/// of a retained edge.
fn assert_every_fact_has_a_cause<N: KnowledgeView>(
    engine: &str,
    nodes: &[N],
    trace: &resource_discovery::obs::CausalTrace,
) {
    let mut facts = 0;
    for (v, node) in nodes.iter().enumerate() {
        let v = v as u32;
        for id in node.known_ids() {
            let id = u32::from(id);
            facts += 1;
            assert!(
                id == v || trace.is_root(id, v) || trace.edge(id, v).is_some(),
                "{engine}: node {v} knows {id} with no root and no edge"
            );
        }
    }
    assert!(facts > nodes.len(), "{engine}: nothing was learned");
}

#[test]
fn retransmitted_deliveries_leave_provenance() {
    // A lossy run under reliable delivery: many facts arrive only in a
    // retransmission. With full sampling and room for every pair, each
    // of them must still have a first-delivery edge.
    use resource_discovery::obs::CausalTrace;
    let (n, seed) = (48, 9);
    let graph = Topology::KOut { k: 2 }.generate(n, seed);
    let initial = problem::initial_knowledge(&graph);
    let alg = HmDiscovery::new(HmConfig::default());
    let trace = || {
        let mut t = CausalTrace::new(n * n, 1_000_000);
        t.seed_known(
            initial
                .rows()
                .enumerate()
                .flat_map(|(node, ids)| ids.iter().map(move |id| (u32::from(*id), node as u32))),
        );
        t
    };
    let plan = || FaultPlan::new().with_drop_probability(0.4);
    let done = |nodes: &[_]| problem::everyone_knows_everyone(nodes);
    const MAX: u64 = 400;

    let mut seq = Engine::new(alg.make_nodes(&initial), seed)
        .with_faults(plan())
        .with_reliable_delivery(RetryPolicy::default())
        .with_causal_trace(trace());
    seq.run_until(MAX, done);
    assert!(seq.metrics().total_retransmissions() > 0);
    let t = seq.causal().unwrap().clone();
    assert_every_fact_has_a_cause("sequential", seq.nodes(), &t);

    let mut sharded = ShardedEngine::new(alg.make_nodes(&initial), seed, 2)
        .with_faults(plan())
        .with_reliable_delivery(RetryPolicy::default())
        .with_causal_trace(trace());
    sharded.run_until(MAX, done);
    assert_eq!(sharded.causal(), Some(&t), "sharded trace diverged");
    assert_every_fact_has_a_cause("sharded:2", sharded.nodes(), &t);

    let mut event = EventEngine::new(
        alg.make_nodes(&initial),
        seed,
        LatencyModel::Uniform { min: 1, max: 3 },
    )
    .with_faults(plan())
    .with_reliable_delivery(RetryPolicy::default())
    .with_causal_trace(trace());
    event.run_until(MAX, done);
    assert_every_fact_has_a_cause("event", event.nodes(), event.causal().unwrap());
}
