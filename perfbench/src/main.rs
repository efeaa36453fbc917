//! Worker binary of the discovery benchmark.
//!
//! `perfbench/run.py` drives it and runs every iteration in a child
//! process of its own, so a child's peak RSS is that iteration's. Two
//! commands, each printing one JSON object as its last stdout line:
//!
//! ```text
//! rd-perfbench run    <workload> --seed S [--log2-n K] [--setup-reps R] [--obs none|causal] [--out-dir DIR]
//! rd-perfbench layers <workload> --seed S [--log2-n K] [--out-dir DIR]
//! ```
//!
//! `run` is one untraced iteration: timed set-up repetitions, then the
//! workload's discovery runs through `rd_core::runner::run` (or
//! `rd_scenarios`), each checked. `layers` is one traced iteration: the
//! same work driven through each layer's public functions, with a span
//! around every call, reduced to the per-layer metrics.

mod layers;
mod run;
mod spans;

use rd_core::algorithms::hm::HmConfig;
use rd_core::algorithms::{
    Flooding, HmDiscovery, NameDropper, PointerDoubling, RandomPointerJump, Swamping,
};
use rd_core::problem::{self, InitialKnowledge};
use rd_core::{AlgorithmKind, DiscoveryAlgorithm, EngineKind, RunReport};
use rd_graphs::Topology;
use spans::Spans;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;

/// The four workloads. Why each was chosen is in `perfbench/README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HM on 3-out at 2^14, sequential engine, telemetry off.
    HmKoutSeq,
    /// The same instance on the sharded engine with two workers.
    HmKoutSharded2,
    /// All eight `rd_scenarios` campaigns at 2^11, gated.
    FaultCampaigns,
    /// HM on 3-out at 2^12 with the archive and the causal tracer on.
    HmKoutCausal,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "hm-kout-seq" => Some(Workload::HmKoutSeq),
            "hm-kout-sharded2" => Some(Workload::HmKoutSharded2),
            "fault-campaigns" => Some(Workload::FaultCampaigns),
            "hm-kout-causal" => Some(Workload::HmKoutCausal),
            _ => None,
        }
    }

    fn default_log2_n(self) -> u32 {
        match self {
            Workload::HmKoutSeq | Workload::HmKoutSharded2 => 14,
            Workload::FaultCampaigns => 11,
            Workload::HmKoutCausal => 12,
        }
    }

    /// The engine of the `hm-kout-*` workloads.
    fn engine(self) -> EngineKind {
        match self {
            Workload::HmKoutSharded2 => EngineKind::Sharded { workers: 2 },
            _ => EngineKind::Sequential,
        }
    }
}

/// The topology of every `hm-kout-*` workload.
pub const KOUT3: Topology = Topology::KOut { k: 3 };

/// The causal workload's tracer: `scenario_runner --obs`'s capacity and
/// sampling rate (every message).
pub const CAUSAL_CAPACITY: usize = 1 << 20;
pub const CAUSAL_SAMPLE_PPM: u32 = 1_000_000;

/// The algorithm of every `hm-kout-*` workload.
pub fn hm() -> HmDiscovery {
    HmDiscovery::new(HmConfig::default())
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub n: usize,
    pub setup_reps: usize,
    /// Whether the causal workload keeps its archive and causal tracer
    /// (`--obs causal`, its default) or runs bare (`--obs none`, the
    /// untraced half of the causal-overhead pair).
    pub causal: bool,
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let cmd = argv
        .first()
        .ok_or("missing command (run | layers)")?
        .clone();
    if cmd != "run" && cmd != "layers" {
        return Err(format!("unknown command {cmd:?} (run | layers)"));
    }
    let name = argv.get(1).ok_or("missing workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut seed = 42u64;
    let mut log2_n = workload.default_log2_n();
    let mut setup_reps = 5usize;
    let mut causal = workload == Workload::HmKoutCausal;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut rest = argv[2..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--seed" => seed = value.parse().map_err(bad)?,
            "--log2-n" => log2_n = value.parse().map_err(bad)?,
            "--setup-reps" => setup_reps = value.parse().map_err(bad)?,
            "--obs" => match value.as_str() {
                "none" => causal = false,
                "causal" if workload == Workload::HmKoutCausal => causal = true,
                _ => {
                    return Err(format!(
                        "--obs {value:?}: none, or causal on hm-kout-causal"
                    ))
                }
            },
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(4..=20).contains(&log2_n) || setup_reps == 0 {
        return Err("--log2-n must be in 4..=20 and --setup-reps at least 1".into());
    }
    Ok((
        cmd,
        Args {
            workload,
            seed,
            n: 1 << log2_n,
            setup_reps,
            causal,
            out_dir,
        },
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("rd-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "rd-perfbench: cannot create {}: {err}",
            args.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let line = if cmd == "run" {
        run::iteration(&args)
    } else {
        layers::iteration(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// Builds an instance through the set-up layers, one span per call:
/// `graphs.generate`, `core.initial_knowledge` and `core.make_nodes`.
pub fn build<A: DiscoveryAlgorithm>(
    alg: &A,
    topology: Topology,
    n: usize,
    seed: u64,
    sp: &mut Spans,
) -> (InitialKnowledge, Vec<A::NodeState>) {
    let graph = sp.time("graphs.generate", || black_box(topology.generate(n, seed)));
    let initial = sp.time("core.initial_knowledge", || {
        black_box(problem::initial_knowledge(&graph))
    });
    drop(graph);
    let nodes = sp.time("core.make_nodes", || black_box(alg.make_nodes(&initial)));
    (initial, nodes)
}

/// [`build`] for an algorithm named by kind; the instance is dropped.
pub fn build_kind(kind: &AlgorithmKind, topology: Topology, n: usize, seed: u64, sp: &mut Spans) {
    match kind {
        AlgorithmKind::Flooding => drop(build(&Flooding, topology, n, seed, sp)),
        AlgorithmKind::NameDropper => drop(build(&NameDropper, topology, n, seed, sp)),
        AlgorithmKind::PointerDoubling => drop(build(&PointerDoubling, topology, n, seed, sp)),
        AlgorithmKind::Swamping => drop(build(&Swamping, topology, n, seed, sp)),
        AlgorithmKind::RandomPointerJump => drop(build(&RandomPointerJump, topology, n, seed, sp)),
        AlgorithmKind::Hm(cfg) => drop(build(&HmDiscovery::new(*cfg), topology, n, seed, sp)),
    }
}

/// Set-up time of the [`build`] calls inside span `root`, read back
/// from their spans.
pub fn setup_total(sp: &Spans, root: usize) -> f64 {
    [
        "graphs.generate",
        "core.initial_knowledge",
        "core.make_nodes",
    ]
    .iter()
    .map(|name| sp.total(root, name))
    .sum()
}

/// One checked discovery run: its verdict against the workload's
/// acceptance rule, its soundness, and the counts the model reports.
pub struct RunRecord {
    pub name: String,
    pub verdict: String,
    /// The run reached the verdict (or passed the gate) it must.
    pub passed: bool,
    pub sound: bool,
    /// Why the run missed its verdict or gate, when it did.
    pub notes: Vec<String>,
    pub rounds: u64,
    pub messages: u64,
    pub pointers: u64,
    pub bits: u64,
}

impl RunRecord {
    pub fn from_report(name: String, report: &RunReport, passed: bool) -> Self {
        RunRecord {
            name,
            verdict: report.verdict.name().to_string(),
            passed,
            sound: report.sound,
            notes: Vec::new(),
            rounds: report.rounds,
            messages: report.messages,
            pointers: report.pointers,
            bits: report.bits,
        }
    }

    fn to_json(&self) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        let mut o = Json::default();
        o.str("name", &self.name)
            .str("verdict", &self.verdict)
            .bool("passed", self.passed)
            .bool("sound", self.sound)
            .raw("notes", &format!("[{}]", notes.join(",")))
            .int("rounds", self.rounds)
            .int("messages", self.messages)
            .int("pointers", self.pointers)
            .int("bits", self.bits);
        o.finish()
    }
}

/// `[run, ...]` as a JSON array.
pub fn runs_json(runs: &[RunRecord]) -> String {
    let items: Vec<String> = runs.iter().map(RunRecord::to_json).collect();
    format!("[{}]", items.join(","))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A flat JSON object written field by field.
#[derive(Default)]
pub struct Json(String);

impl Json {
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "{}:{value}", json_str(key));
        self
    }

    /// A measured number; non-finite values are a bug in the benchmark.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "{key} is not finite: {value}");
        self.raw(key, &format!("{value:?}"))
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, &json_str(value))
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}
