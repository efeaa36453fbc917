//! One untraced iteration: timed set-up repetitions, then the
//! workload's discovery runs through `rd_core::runner::run`, each
//! checked against its acceptance rule.

use crate::spans::Spans;
use crate::{
    build, build_kind, hm, runs_json, setup_total, Args, Json, RunRecord, Workload,
    CAUSAL_CAPACITY, CAUSAL_SAMPLE_PPM, KOUT3,
};
use rd_core::runner::ObsSpec;
use rd_core::{AlgorithmKind, RunConfig, RunVerdict};
use rd_scenarios::library;
use std::time::Instant;

pub fn iteration(args: &Args) -> String {
    let setup: Vec<String> = (0..args.setup_reps)
        .map(|_| format!("{:?}", setup_once(args)))
        .collect();
    let mut o = Json::default();
    o.raw("setup_s", &format!("[{}]", setup.join(",")));
    let (wall, runs) = match args.workload {
        Workload::FaultCampaigns => campaigns(args),
        _ => {
            let archive = args.causal.then(|| {
                args.out_dir
                    .join(format!("causal-{}-{}.jsonl", args.seed, std::process::id()))
            });
            if let Some(path) = &archive {
                o.str("archive", &path.display().to_string());
            }
            hm_kout(args, archive)
        }
    };
    o.num("wall_s", wall).raw("runs", &runs_json(&runs));
    o.finish()
}

/// One set-up repetition: the instance build of every run the
/// workload makes (plus the campaign library for `fault-campaigns`),
/// each call timed on its own.
fn setup_once(args: &Args) -> f64 {
    let mut sp = Spans::new();
    let root = sp.enter("bench.setup");
    if args.workload == Workload::FaultCampaigns {
        let scenarios = sp.time("scenarios.library", || library(args.n, args.seed));
        for s in &scenarios {
            for kind in &s.algorithms {
                build_kind(kind, s.topology, s.n, s.seed, &mut sp);
            }
        }
    } else {
        drop(build(&hm(), KOUT3, args.n, args.seed, &mut sp));
    }
    sp.exit(root);
    setup_total(&sp, root) + sp.total(root, "scenarios.library")
}

/// The `hm-kout-*` run: HM must reach `Complete` under the default
/// everyone-knows-everyone predicate. With `archive`, the run keeps the
/// causal workload's telemetry: the JSONL archive plus the causal
/// tracer at full sampling (`scenario_runner --obs` without the
/// heartbeat).
fn hm_kout(args: &Args, archive: Option<std::path::PathBuf>) -> (f64, Vec<RunRecord>) {
    let mut config = RunConfig::new(KOUT3, args.n, args.seed).with_engine(args.workload.engine());
    if let Some(path) = archive {
        config = config.with_obs(
            ObsSpec::new()
                .with_archive(path)
                .with_causal_trace(CAUSAL_CAPACITY, CAUSAL_SAMPLE_PPM),
        );
    }
    let started = Instant::now();
    let report = rd_core::run(AlgorithmKind::Hm(Default::default()), &config);
    let wall = started.elapsed().as_secs_f64();
    let passed = report.completed && report.verdict == RunVerdict::Complete;
    let name = format!("{}/{}", KOUT3.name(), config.engine.name());
    (wall, vec![RunRecord::from_report(name, &report, passed)])
}

/// Every campaign of the library, each through `Scenario::execute` and
/// its gate; the wall is summed over the campaigns.
fn campaigns(args: &Args) -> (f64, Vec<RunRecord>) {
    let mut wall = 0.0;
    let mut runs = Vec::new();
    for scenario in library(args.n, args.seed) {
        let started = Instant::now();
        let outcomes = scenario.execute(None);
        wall += started.elapsed().as_secs_f64();
        for outcome in outcomes {
            let name = format!("{}/{}", outcome.scenario, outcome.algorithm);
            let mut record = RunRecord::from_report(name, &outcome.report, outcome.passed());
            record.notes = outcome
                .checks
                .iter()
                .filter(|c| !c.pass)
                .map(|c| format!("{}: {} (limit {})", c.gate, c.actual, c.limit))
                .collect();
            runs.push(record);
        }
    }
    (wall, runs)
}
