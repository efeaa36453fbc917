//! The JSONL run-archive format: schemas v1 through v4.
//!
//! One file per run, one JSON object per line, `"type"` tagging the
//! record kind. Line order is fixed so archives diff cleanly as text:
//!
//! ```text
//! {"type":"header","schema":1,"algorithm":…,"topology":…,"n":…,"seed":"…","engine":…,"workers":…
//!   [,"latency_model":"…"]}       (the latency model appears only for event-engine runs)
//! {"type":"round","round":1,"wall_ns":…,"messages":…,"pointers":…,"dropped_coin":…,
//!   "dropped_crash":…,"dropped_partition":…,"dropped_link":…,"dropped_suppression":…,
//!   "retransmissions":…,"knowledge_delta":…|null}                                           × rounds
//! {"type":"phase","phase":"route_shard","count":…,"total_ns":…,"p50_ns":…,"p99_ns":…,"max_ns":…} × phases
//! {"type":"worker","worker":0,"spans":…,"busy_ns":…}                                        × workers
//! {"type":"counter","name":…,"value":…}                                                     × counters
//! {"type":"gauge","name":…,"value":…}                                                       × gauges
//! {"type":"hist","name":…,"count":…,"mean":…,"min":…,"p50":…,"p90":…,"p99":…,"max":…}        × histograms
//! {"type":"hot_nodes","metric":"sent"|"recv","top":[{"node":…,"value":…},…]}                × 2
//! {"type":"trace_meta","capacity":…,"sample_ppm":…,"edges":…,"candidates":…,
//!   "sampled_out":…,"overflow":…}                                                  (v2) × 0..1
//! {"type":"edge","id":…,"node":…,"src":…,"sent":…,"round":…,"seq":…}               (v2) × edges
//! {"type":"profile_meta","coverage_pct":…,"samples":…,"utilization_pct":…,
//!   "imbalance_mean":…,"imbalance_max":…,"peak_knowledge_bytes":…,
//!   "peak_pool_bytes":…,"peak_rss_bytes":…}                                        (v3) × 0..1
//! {"type":"profile_phase","phase":…,"total_ns":…,"round_pct":…,"ns_per_envelope":…} (v3) × phases
//! {"type":"profile_msg","kind":…,"envelopes":…,"payload_bytes":…,"ns_per_envelope":…}(v3) × kinds
//! {"type":"profile_mem","round":…,"knowledge_bytes":…,"pool_bytes":…,"rss_bytes":…} (v3) × samples
//! {"type":"alert","rule":…,"round":…,"value":…,"threshold":…,"message":…}           (v4) × alerts
//! {"type":"summary","verdict":…,"completed":…,"sound":…,"rounds":…,"messages":…,"pointers":…,
//!   "trace_events":…,"trace_overflow":…,"span_overflow":…,"wall_ns_total":…
//!   [,"last_progress":…]}        (the stall watermark appears only when the driver tracked it)
//! ```
//!
//! The header is always first, the summary always last and unique.
//! `seed` is a JSON *string*: a full-range `u64` does not survive the
//! f64 number pipeline. Consumers must reject unknown record types and
//! unknown schema versions — that is what makes the version field
//! load-bearing ([`validate`] enforces both).
//!
//! Schema v2 adds the causal-provenance section (`trace_meta` + `edge`
//! records, in ascending `(id, node)` order). Schema v3 adds the
//! profiling section (`profile_meta` first, then `profile_phase` /
//! `profile_msg` / `profile_mem` records, the memory timeline in
//! strictly ascending round order). Schema v4 adds `alert` records —
//! online SLO monitor firings, in ascending round order just before
//! the summary. Each section is opt-in and the declared schema is the
//! *lowest* that covers the records actually present: a run without
//! causal tracing or profiling still renders as schema 1,
//! byte-identical to what earlier builds wrote, a profiled-but-
//! untraced run skips the v2 section while declaring v3, and an
//! alert-free live run declares whatever its other sections need.
//! Archives may not contain record types newer than their declared
//! schema.

use crate::json::{escape, fmt_f64, Json};
use crate::recorder::ObsReport;
use std::collections::BTreeMap;

/// The newest archive schema this crate reads and writes. Archives
/// declare the lowest schema covering the sections they contain:
/// without alerts they render as schema 3 (or 2 without a profile
/// section, or 1 without a causal-trace section either).
pub const SCHEMA_VERSION: u64 = 4;

const KNOWN_TYPES: [&str; 16] = [
    "header",
    "round",
    "phase",
    "worker",
    "counter",
    "gauge",
    "hist",
    "hot_nodes",
    "trace_meta",
    "edge",
    "profile_meta",
    "profile_phase",
    "profile_msg",
    "profile_mem",
    "alert",
    "summary",
];

/// Record types that need at least a schema v2 archive.
const V2_TYPES: [&str; 2] = ["trace_meta", "edge"];

/// Record types that need at least a schema v3 archive.
const V3_TYPES: [&str; 4] = [
    "profile_meta",
    "profile_phase",
    "profile_msg",
    "profile_mem",
];

/// Record types that need at least a schema v4 archive.
const V4_TYPES: [&str; 1] = ["alert"];

/// Renders a finished run as the full archive text (tests and tools;
/// the archive sink streams through [`render_to`] instead).
pub fn render(report: &ObsReport) -> String {
    let mut out = Vec::new();
    render_to(report, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("archive records are UTF-8")
}

/// Streams a finished run's archive text into `out`, record by record.
pub fn render_to(report: &ObsReport, out: &mut impl std::io::Write) -> std::io::Result<()> {
    let m = &report.meta;
    // The lowest schema that covers the sections actually present, so
    // un-profiled (and untraced) archives stay byte-identical to what
    // earlier builds wrote.
    let schema = if !report.alerts.is_empty() {
        SCHEMA_VERSION
    } else if report.profile.is_some() {
        3
    } else if report.causal.is_some() {
        2
    } else {
        1
    };
    // `latency_model` renders only when set, so round-engine archives
    // stay byte-identical to what pre-event-engine builds wrote.
    let latency = m.latency_model.as_ref().map_or(String::new(), |l| {
        format!(",\"latency_model\":{}", escape(l))
    });
    writeln!(
        out,
        "{{\"type\":\"header\",\"schema\":{schema},\"algorithm\":{},\"topology\":{},\"n\":{},\"seed\":{},\"engine\":{},\"workers\":{}{latency}}}",
        escape(&m.algorithm),
        escape(&m.topology),
        m.n,
        escape(&m.seed.to_string()),
        escape(&m.engine),
        m.workers
    )?;
    for r in &report.rounds {
        let delta = r
            .knowledge_delta
            .map_or("null".to_string(), |d| d.to_string());
        writeln!(
            out,
            "{{\"type\":\"round\",\"round\":{},\"wall_ns\":{},\"messages\":{},\"pointers\":{},\"dropped_coin\":{},\"dropped_crash\":{},\"dropped_partition\":{},\"dropped_link\":{},\"dropped_suppression\":{},\"retransmissions\":{},\"knowledge_delta\":{delta}}}",
            r.round, r.wall_ns, r.messages, r.pointers, r.dropped_coin, r.dropped_crash,
            r.dropped_partition, r.dropped_link, r.dropped_suppression, r.retransmissions
        )?;
    }
    for p in &report.phases {
        writeln!(
            out,
            "{{\"type\":\"phase\",\"phase\":{},\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            escape(p.phase.name()),
            p.count,
            p.total_ns,
            p.hist.quantile(0.5),
            p.hist.quantile(0.99),
            p.hist.max()
        )?;
    }
    for w in &report.workers {
        writeln!(
            out,
            "{{\"type\":\"worker\",\"worker\":{},\"spans\":{},\"busy_ns\":{}}}",
            w.worker, w.spans, w.busy_ns
        )?;
    }
    for (name, v) in report.registry.counters() {
        writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}",
            escape(name)
        )?;
    }
    for (name, v) in report.registry.gauges() {
        writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
            escape(name),
            fmt_f64(v)
        )?;
    }
    for (name, h) in report.registry.histograms() {
        writeln!(
            out,
            "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"mean\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            escape(name),
            h.count(),
            fmt_f64(h.mean()),
            h.min(),
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.max()
        )?;
    }
    for (metric, top) in [
        ("sent", &report.hot_senders),
        ("recv", &report.hot_receivers),
    ] {
        let items: Vec<String> = top
            .iter()
            .map(|&(node, value)| format!("{{\"node\":{node},\"value\":{value}}}"))
            .collect();
        writeln!(
            out,
            "{{\"type\":\"hot_nodes\",\"metric\":{},\"top\":[{}]}}",
            escape(metric),
            items.join(",")
        )?;
    }
    if let Some(causal) = &report.causal {
        writeln!(
            out,
            "{{\"type\":\"trace_meta\",\"capacity\":{},\"sample_ppm\":{},\"edges\":{},\"candidates\":{},\"sampled_out\":{},\"overflow\":{}}}",
            causal.capacity(),
            causal.sample_ppm(),
            causal.len(),
            causal.candidates(),
            causal.sampled_out(),
            causal.overflow()
        )?;
        for e in causal.edges() {
            writeln!(
                out,
                "{{\"type\":\"edge\",\"id\":{},\"node\":{},\"src\":{},\"sent\":{},\"round\":{},\"seq\":{}}}",
                e.id, e.node, e.src, e.sent, e.round, e.seq
            )?;
        }
    }
    if let Some(prof) = &report.profile {
        writeln!(
            out,
            "{{\"type\":\"profile_meta\",\"coverage_pct\":{},\"samples\":{},\"utilization_pct\":{},\"imbalance_mean\":{},\"imbalance_max\":{},\"peak_knowledge_bytes\":{},\"peak_pool_bytes\":{},\"peak_rss_bytes\":{}}}",
            fmt_f64(prof.coverage_pct),
            prof.samples,
            fmt_f64(prof.utilization_pct),
            fmt_f64(prof.imbalance_mean),
            fmt_f64(prof.imbalance_max),
            prof.peak_knowledge_bytes,
            prof.peak_pool_bytes,
            prof.peak_rss_bytes
        )?;
        for p in &prof.phases {
            writeln!(
                out,
                "{{\"type\":\"profile_phase\",\"phase\":{},\"total_ns\":{},\"round_pct\":{},\"ns_per_envelope\":{}}}",
                escape(p.phase.name()),
                p.total_ns,
                fmt_f64(p.round_pct),
                fmt_f64(p.ns_per_envelope)
            )?;
        }
        for msg in &prof.msgs {
            writeln!(
                out,
                "{{\"type\":\"profile_msg\",\"kind\":{},\"envelopes\":{},\"payload_bytes\":{},\"ns_per_envelope\":{}}}",
                escape(&msg.kind),
                msg.envelopes,
                msg.payload_bytes,
                fmt_f64(msg.ns_per_envelope)
            )?;
        }
        for s in &prof.mem {
            writeln!(
                out,
                "{{\"type\":\"profile_mem\",\"round\":{},\"knowledge_bytes\":{},\"pool_bytes\":{},\"rss_bytes\":{}}}",
                s.round, s.knowledge_bytes, s.pool_bytes, s.rss_bytes
            )?;
        }
    }
    for a in &report.alerts {
        writeln!(
            out,
            "{{\"type\":\"alert\",\"rule\":{},\"round\":{},\"value\":{},\"threshold\":{},\"message\":{}}}",
            escape(&a.rule),
            a.round,
            fmt_f64(a.value),
            fmt_f64(a.threshold),
            escape(&a.message)
        )?;
    }
    let o = &report.outcome;
    let wall_total: u64 = report.rounds.iter().map(|r| r.wall_ns).sum();
    // `last_progress` renders only when the driver tracked it, so
    // archives from drivers without a watchdog stay byte-identical.
    let last_progress = o
        .last_progress
        .map_or(String::new(), |r| format!(",\"last_progress\":{r}"));
    writeln!(
        out,
        "{{\"type\":\"summary\",\"verdict\":{},\"completed\":{},\"sound\":{},\"rounds\":{},\"messages\":{},\"pointers\":{},\"trace_events\":{},\"trace_overflow\":{},\"span_overflow\":{},\"wall_ns_total\":{wall_total}{last_progress}}}",
        escape(&o.verdict),
        o.completed,
        o.sound,
        o.rounds,
        o.messages,
        o.pointers,
        o.trace_events,
        o.trace_overflow,
        report.span_overflow
    )?;
    Ok(())
}

/// Parsed `header` record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Header {
    pub schema: u64,
    pub algorithm: String,
    pub topology: String,
    pub n: u64,
    pub seed: String,
    pub engine: String,
    pub workers: u64,
    /// Latency-model spec of event-engine runs; absent (and not
    /// rendered) for round-engine archives.
    pub latency_model: Option<String>,
}

/// Parsed `round` record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundRec {
    pub round: u64,
    pub wall_ns: u64,
    pub messages: u64,
    pub pointers: u64,
    pub dropped_coin: u64,
    pub dropped_crash: u64,
    pub dropped_partition: u64,
    /// Zero on archives written before link-loss overlays existed.
    pub dropped_link: u64,
    /// Zero on archives written before suppression campaigns existed.
    pub dropped_suppression: u64,
    pub retransmissions: u64,
    pub knowledge_delta: Option<u64>,
}

/// Parsed `phase` record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseRec {
    pub phase: String,
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// Parsed `worker` record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerRec {
    pub worker: u64,
    pub spans: u64,
    pub busy_ns: u64,
}

/// Parsed `hist` record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistRec {
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub min: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// Parsed `trace_meta` record (schema v2).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceMetaRec {
    pub capacity: u64,
    pub sample_ppm: u64,
    pub edges: u64,
    pub candidates: u64,
    pub sampled_out: u64,
    pub overflow: u64,
}

/// Parsed `edge` record (schema v2): one provenance edge of the
/// knowledge DAG — the first delivery that taught `node` about `id`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeRec {
    pub id: u64,
    pub node: u64,
    pub src: u64,
    pub sent: u64,
    pub round: u64,
    pub seq: u64,
}

/// Parsed `profile_meta` record (schema v3): run-level attribution
/// summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileMetaRec {
    pub coverage_pct: f64,
    pub samples: u64,
    pub utilization_pct: f64,
    pub imbalance_mean: f64,
    pub imbalance_max: f64,
    pub peak_knowledge_bytes: u64,
    pub peak_pool_bytes: u64,
    pub peak_rss_bytes: u64,
}

/// Parsed `profile_phase` record (schema v3): one phase's share.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfilePhaseRec {
    pub phase: String,
    pub total_ns: u64,
    pub round_pct: f64,
    pub ns_per_envelope: f64,
}

/// Parsed `profile_msg` record (schema v3): one message kind's cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileMsgRec {
    pub kind: String,
    pub envelopes: u64,
    pub payload_bytes: u64,
    pub ns_per_envelope: f64,
}

/// Parsed `profile_mem` record (schema v3): one memory sample.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileMemRec {
    pub round: u64,
    pub knowledge_bytes: u64,
    pub pool_bytes: u64,
    pub rss_bytes: u64,
}

/// Parsed `alert` record (schema v4): one online-monitor firing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlertRec {
    pub rule: String,
    pub round: u64,
    pub value: f64,
    pub threshold: f64,
    pub message: String,
}

/// Parsed `summary` record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SummaryRec {
    pub verdict: String,
    pub completed: bool,
    pub sound: bool,
    pub rounds: u64,
    pub messages: u64,
    pub pointers: u64,
    pub trace_events: u64,
    pub trace_overflow: u64,
    pub span_overflow: u64,
    pub wall_ns_total: u64,
    /// Last round that still grew total knowledge; present only when
    /// the driver tracked a stall watermark.
    pub last_progress: Option<u64>,
}

/// A fully parsed archive.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Archive {
    pub header: Header,
    pub rounds: Vec<RoundRec>,
    pub phases: Vec<PhaseRec>,
    pub workers: Vec<WorkerRec>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub hists: Vec<HistRec>,
    /// `metric name → [(node, value)]`, hottest first.
    pub hot: BTreeMap<String, Vec<(u64, u64)>>,
    /// Causal-trace metadata (schema v2; `None` on v1 archives).
    pub trace_meta: Option<TraceMetaRec>,
    /// Provenance edges in ascending `(id, node)` order (schema v2).
    pub edges: Vec<EdgeRec>,
    /// Profile summary (schema v3; `None` on un-profiled archives).
    pub profile_meta: Option<ProfileMetaRec>,
    /// Per-phase attribution rows (schema v3).
    pub profile_phases: Vec<ProfilePhaseRec>,
    /// Per-message-kind cost rows (schema v3).
    pub profile_msgs: Vec<ProfileMsgRec>,
    /// The memory timeline in ascending round order (schema v3).
    pub profile_mem: Vec<ProfileMemRec>,
    /// Online-monitor firings in ascending round order (schema v4).
    pub alerts: Vec<AlertRec>,
    pub summary: SummaryRec,
}

/// Parses an archive strictly; the error is the first problem
/// [`validate`] would report.
pub fn parse(text: &str) -> Result<Archive, String> {
    let (archive, problems) = scan(text);
    match problems.into_iter().next() {
        None => Ok(archive),
        Some(p) => Err(p),
    }
}

/// Validates an archive against schema v1, returning *every* problem
/// found (empty = valid).
pub fn validate(text: &str) -> Vec<String> {
    scan(text).1
}

fn scan(text: &str) -> (Archive, Vec<String>) {
    let mut archive = Archive::default();
    let mut problems = Vec::new();
    let mut saw_header = false;
    let mut summary_line: Option<usize> = None;
    let mut last_round: Option<u64> = None;
    let mut last_edge: Option<(u64, u64)> = None;
    let mut last_mem_round: Option<u64> = None;
    let mut last_alert_round: Option<u64> = None;
    let mut nonempty_lines = 0usize;

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        nonempty_lines += 1;
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                problems.push(format!("line {lineno}: invalid JSON: {e}"));
                continue;
            }
        };
        let ty = match v.get("type").and_then(Json::as_str) {
            Some(t) => t.to_string(),
            None => {
                problems.push(format!("line {lineno}: missing \"type\""));
                continue;
            }
        };
        if !KNOWN_TYPES.contains(&ty.as_str()) {
            problems.push(format!("line {lineno}: unknown record type \"{ty}\""));
            continue;
        }
        if nonempty_lines == 1 && ty != "header" {
            problems.push(format!("line {lineno}: first record must be the header"));
        }
        if V2_TYPES.contains(&ty.as_str()) && saw_header && archive.header.schema < 2 {
            problems.push(format!(
                "line {lineno}: record type \"{ty}\" requires schema 2, archive declares {}",
                archive.header.schema
            ));
        }
        if V3_TYPES.contains(&ty.as_str()) && saw_header && archive.header.schema < 3 {
            problems.push(format!(
                "line {lineno}: record type \"{ty}\" requires schema 3, archive declares {}",
                archive.header.schema
            ));
        }
        if V4_TYPES.contains(&ty.as_str()) && saw_header && archive.header.schema < 4 {
            problems.push(format!(
                "line {lineno}: record type \"{ty}\" requires schema 4, archive declares {}",
                archive.header.schema
            ));
        }
        macro_rules! field {
            ($name:literal) => {
                num_field(&v, $name, &ty, lineno, &mut problems)
            };
        }
        match ty.as_str() {
            "header" => {
                if saw_header {
                    problems.push(format!("line {lineno}: duplicate header"));
                    continue;
                }
                saw_header = true;
                let schema = field!("schema");
                if !(1..=SCHEMA_VERSION).contains(&schema) {
                    problems.push(format!(
                        "line {lineno}: unsupported schema {schema} (this build reads 1..={SCHEMA_VERSION})"
                    ));
                }
                archive.header = Header {
                    schema,
                    algorithm: str_field(&v, "algorithm", lineno, &mut problems),
                    topology: str_field(&v, "topology", lineno, &mut problems),
                    n: field!("n"),
                    seed: str_field(&v, "seed", lineno, &mut problems),
                    engine: str_field(&v, "engine", lineno, &mut problems),
                    workers: field!("workers"),
                    latency_model: v
                        .get("latency_model")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                };
            }
            "round" => {
                let rec = RoundRec {
                    round: field!("round"),
                    wall_ns: field!("wall_ns"),
                    messages: field!("messages"),
                    pointers: field!("pointers"),
                    dropped_coin: field!("dropped_coin"),
                    dropped_crash: field!("dropped_crash"),
                    dropped_partition: field!("dropped_partition"),
                    // Lenient: archives written before these fault
                    // classes existed omit the fields and stay valid.
                    dropped_link: v.get("dropped_link").and_then(Json::as_u64).unwrap_or(0),
                    dropped_suppression: v
                        .get("dropped_suppression")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    retransmissions: field!("retransmissions"),
                    knowledge_delta: match v.get("knowledge_delta") {
                        Some(Json::Null) => None,
                        Some(d) => d.as_u64().or_else(|| {
                            problems.push(format!(
                                "line {lineno}: knowledge_delta must be a number or null"
                            ));
                            None
                        }),
                        None => {
                            problems.push(format!(
                                "line {lineno}: round record missing \"knowledge_delta\""
                            ));
                            None
                        }
                    },
                };
                if let Some(prev) = last_round {
                    if rec.round <= prev {
                        problems.push(format!(
                            "line {lineno}: round {} out of order (previous {prev})",
                            rec.round
                        ));
                    }
                }
                last_round = Some(rec.round);
                archive.rounds.push(rec);
            }
            "phase" => archive.phases.push(PhaseRec {
                phase: str_field(&v, "phase", lineno, &mut problems),
                count: field!("count"),
                total_ns: field!("total_ns"),
                p50_ns: field!("p50_ns"),
                p99_ns: field!("p99_ns"),
                max_ns: field!("max_ns"),
            }),
            "worker" => archive.workers.push(WorkerRec {
                worker: field!("worker"),
                spans: field!("spans"),
                busy_ns: field!("busy_ns"),
            }),
            "counter" => {
                let name = str_field(&v, "name", lineno, &mut problems);
                archive.counters.insert(name, field!("value"));
            }
            "gauge" => {
                let name = str_field(&v, "name", lineno, &mut problems);
                let value = match v.get("value").and_then(Json::as_f64) {
                    Some(x) => x,
                    None => {
                        problems.push(format!(
                            "line {lineno}: gauge record missing numeric \"value\""
                        ));
                        0.0
                    }
                };
                archive.gauges.insert(name, value);
            }
            "hist" => archive.hists.push(HistRec {
                name: str_field(&v, "name", lineno, &mut problems),
                count: field!("count"),
                mean: v.get("mean").and_then(Json::as_f64).unwrap_or_else(|| {
                    problems.push(format!("line {lineno}: hist record missing \"mean\""));
                    0.0
                }),
                min: field!("min"),
                p50: field!("p50"),
                p90: field!("p90"),
                p99: field!("p99"),
                max: field!("max"),
            }),
            "hot_nodes" => {
                let metric = str_field(&v, "metric", lineno, &mut problems);
                let mut top = Vec::new();
                match v.get("top").and_then(Json::as_arr) {
                    Some(items) => {
                        for item in items {
                            match (
                                item.get("node").and_then(Json::as_u64),
                                item.get("value").and_then(Json::as_u64),
                            ) {
                                (Some(node), Some(value)) => top.push((node, value)),
                                _ => problems.push(format!(
                                    "line {lineno}: hot_nodes entries need \"node\" and \"value\""
                                )),
                            }
                        }
                    }
                    None => problems.push(format!(
                        "line {lineno}: hot_nodes record missing \"top\" array"
                    )),
                }
                archive.hot.insert(metric, top);
            }
            "trace_meta" => {
                if archive.trace_meta.is_some() {
                    problems.push(format!("line {lineno}: duplicate trace_meta"));
                    continue;
                }
                archive.trace_meta = Some(TraceMetaRec {
                    capacity: field!("capacity"),
                    sample_ppm: field!("sample_ppm"),
                    edges: field!("edges"),
                    candidates: field!("candidates"),
                    sampled_out: field!("sampled_out"),
                    overflow: field!("overflow"),
                });
            }
            "edge" => {
                let rec = EdgeRec {
                    id: field!("id"),
                    node: field!("node"),
                    src: field!("src"),
                    sent: field!("sent"),
                    round: field!("round"),
                    seq: field!("seq"),
                };
                if archive.trace_meta.is_none() {
                    problems.push(format!("line {lineno}: edge record before any trace_meta"));
                }
                if let Some(prev) = last_edge {
                    if (rec.id, rec.node) <= prev {
                        problems.push(format!(
                            "line {lineno}: edge ({}, {}) out of (id, node) order",
                            rec.id, rec.node
                        ));
                    }
                }
                last_edge = Some((rec.id, rec.node));
                archive.edges.push(rec);
            }
            "profile_meta" => {
                if archive.profile_meta.is_some() {
                    problems.push(format!("line {lineno}: duplicate profile_meta"));
                    continue;
                }
                archive.profile_meta = Some(ProfileMetaRec {
                    coverage_pct: f64_field(&v, "coverage_pct", &ty, lineno, &mut problems),
                    samples: field!("samples"),
                    utilization_pct: f64_field(&v, "utilization_pct", &ty, lineno, &mut problems),
                    imbalance_mean: f64_field(&v, "imbalance_mean", &ty, lineno, &mut problems),
                    imbalance_max: f64_field(&v, "imbalance_max", &ty, lineno, &mut problems),
                    peak_knowledge_bytes: field!("peak_knowledge_bytes"),
                    peak_pool_bytes: field!("peak_pool_bytes"),
                    peak_rss_bytes: field!("peak_rss_bytes"),
                });
            }
            "profile_phase" => {
                if archive.profile_meta.is_none() {
                    problems.push(format!(
                        "line {lineno}: profile_phase record before any profile_meta"
                    ));
                }
                archive.profile_phases.push(ProfilePhaseRec {
                    phase: str_field(&v, "phase", lineno, &mut problems),
                    total_ns: field!("total_ns"),
                    round_pct: f64_field(&v, "round_pct", &ty, lineno, &mut problems),
                    ns_per_envelope: f64_field(&v, "ns_per_envelope", &ty, lineno, &mut problems),
                });
            }
            "profile_msg" => {
                if archive.profile_meta.is_none() {
                    problems.push(format!(
                        "line {lineno}: profile_msg record before any profile_meta"
                    ));
                }
                archive.profile_msgs.push(ProfileMsgRec {
                    kind: str_field(&v, "kind", lineno, &mut problems),
                    envelopes: field!("envelopes"),
                    payload_bytes: field!("payload_bytes"),
                    ns_per_envelope: f64_field(&v, "ns_per_envelope", &ty, lineno, &mut problems),
                });
            }
            "profile_mem" => {
                if archive.profile_meta.is_none() {
                    problems.push(format!(
                        "line {lineno}: profile_mem record before any profile_meta"
                    ));
                }
                let rec = ProfileMemRec {
                    round: field!("round"),
                    knowledge_bytes: field!("knowledge_bytes"),
                    pool_bytes: field!("pool_bytes"),
                    rss_bytes: field!("rss_bytes"),
                };
                if let Some(prev) = last_mem_round {
                    if rec.round <= prev {
                        problems.push(format!(
                            "line {lineno}: profile_mem round {} out of order (previous {prev})",
                            rec.round
                        ));
                    }
                }
                last_mem_round = Some(rec.round);
                archive.profile_mem.push(rec);
            }
            "alert" => {
                let rec = AlertRec {
                    rule: str_field(&v, "rule", lineno, &mut problems),
                    round: field!("round"),
                    value: f64_field(&v, "value", &ty, lineno, &mut problems),
                    threshold: f64_field(&v, "threshold", &ty, lineno, &mut problems),
                    message: str_field(&v, "message", lineno, &mut problems),
                };
                // Two rules may fire in the same round, so the order
                // constraint is non-strict, unlike rounds and samples.
                if let Some(prev) = last_alert_round {
                    if rec.round < prev {
                        problems.push(format!(
                            "line {lineno}: alert round {} out of order (previous {prev})",
                            rec.round
                        ));
                    }
                }
                last_alert_round = Some(rec.round);
                archive.alerts.push(rec);
            }
            "summary" => {
                if summary_line.is_some() {
                    problems.push(format!("line {lineno}: duplicate summary"));
                    continue;
                }
                summary_line = Some(nonempty_lines);
                archive.summary = SummaryRec {
                    verdict: str_field(&v, "verdict", lineno, &mut problems),
                    completed: bool_field(&v, "completed", lineno, &mut problems),
                    sound: bool_field(&v, "sound", lineno, &mut problems),
                    rounds: field!("rounds"),
                    messages: field!("messages"),
                    pointers: field!("pointers"),
                    trace_events: field!("trace_events"),
                    trace_overflow: field!("trace_overflow"),
                    span_overflow: field!("span_overflow"),
                    wall_ns_total: field!("wall_ns_total"),
                    last_progress: v.get("last_progress").and_then(Json::as_u64),
                };
            }
            _ => unreachable!("filtered by KNOWN_TYPES"),
        }
    }

    if let Some(tm) = &archive.trace_meta {
        if tm.edges != archive.edges.len() as u64 {
            problems.push(format!(
                "trace_meta declares {} edges, archive contains {}",
                tm.edges,
                archive.edges.len()
            ));
        }
    }
    if let Some(pm) = &archive.profile_meta {
        if pm.samples != archive.profile_mem.len() as u64 {
            problems.push(format!(
                "profile_meta declares {} samples, archive contains {}",
                pm.samples,
                archive.profile_mem.len()
            ));
        }
    }
    if nonempty_lines == 0 {
        problems.push("empty archive".to_string());
    } else {
        if !saw_header {
            problems.push("no header record".to_string());
        }
        match summary_line {
            None => problems.push("no summary record".to_string()),
            Some(at) if at != nonempty_lines => {
                problems.push("summary record is not the last record".to_string());
            }
            Some(_) => {}
        }
    }
    (archive, problems)
}

fn num_field(v: &Json, name: &str, ty: &str, lineno: usize, problems: &mut Vec<String>) -> u64 {
    match v.get(name).and_then(Json::as_u64) {
        Some(x) => x,
        None => {
            problems.push(format!(
                "line {lineno}: {ty} record missing numeric \"{name}\""
            ));
            0
        }
    }
}

fn f64_field(v: &Json, name: &str, ty: &str, lineno: usize, problems: &mut Vec<String>) -> f64 {
    match v.get(name).and_then(Json::as_f64) {
        Some(x) => x,
        None => {
            problems.push(format!(
                "line {lineno}: {ty} record missing numeric \"{name}\""
            ));
            0.0
        }
    }
}

fn str_field(v: &Json, name: &str, lineno: usize, problems: &mut Vec<String>) -> String {
    match v.get(name).and_then(Json::as_str) {
        Some(s) => s.to_string(),
        None => {
            problems.push(format!("line {lineno}: missing string \"{name}\""));
            String::new()
        }
    }
}

fn bool_field(v: &Json, name: &str, lineno: usize, problems: &mut Vec<String>) -> bool {
    match v.get(name).and_then(Json::as_bool) {
        Some(b) => b,
        None => {
            problems.push(format!("line {lineno}: missing boolean \"{name}\""));
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, RoundObs, RunMeta, RunOutcomeObs};
    use crate::span::Phase;
    use std::time::Instant;

    fn sample_archive_text() -> String {
        let mut rec = Recorder::new(RunMeta {
            algorithm: "name-dropper".into(),
            topology: "k-out-3".into(),
            n: 128,
            seed: u64::MAX - 1,
            engine: "sharded:4".into(),
            workers: 4,
            latency_model: None,
        });
        for r in 1..=4u64 {
            rec.begin_round();
            for w in 0..4 {
                rec.span_from(Phase::OnRound, r, w, Instant::now());
                rec.span_from(Phase::RouteShard, r, w, Instant::now());
            }
            rec.span_from(Phase::FinishRound, r, 0, Instant::now());
            rec.end_round(RoundObs {
                round: r,
                wall_ns: 0,
                messages: 100 + r,
                pointers: 300 + r,
                dropped_coin: r % 2,
                dropped_crash: 0,
                dropped_partition: 0,
                dropped_link: 0,
                dropped_suppression: 0,
                retransmissions: 1,
                knowledge_delta: None,
            });
        }
        let report = rec
            .finish(
                RunOutcomeObs {
                    verdict: "complete-sound".into(),
                    completed: true,
                    sound: true,
                    rounds: 4,
                    messages: 410,
                    pointers: 1210,
                    trace_events: 77,
                    trace_overflow: 3,
                    last_progress: None,
                },
                &[9, 1, 4],
                &[2, 8, 4],
                &[(0, 500), (1, 600), (2, 640), (3, 680), (4, 700)],
                &[("delay", 8, 5)],
            )
            .unwrap();
        render(&report)
    }

    #[test]
    fn rendered_archives_validate_and_round_trip() {
        let text = sample_archive_text();
        assert_eq!(validate(&text), Vec::<String>::new());
        let a = parse(&text).unwrap();
        // No causal section: stays on schema 1 so v1 readers keep working.
        assert_eq!(a.header.schema, 1);
        assert!(a.trace_meta.is_none());
        assert!(a.edges.is_empty());
        assert_eq!(a.header.seed, (u64::MAX - 1).to_string());
        assert_eq!(a.rounds.len(), 4);
        assert_eq!(a.rounds[1].knowledge_delta, Some(40));
        assert_eq!(a.summary.trace_overflow, 3);
        assert_eq!(a.counters["retransmissions_total"], 4);
        assert_eq!(a.hot["sent"][0], (0, 9));
        assert!(a.phases.iter().any(|p| p.phase == "route_shard"));
        assert_eq!(a.workers.len(), 4);
    }

    fn sample_v2_archive_text() -> String {
        let mut rec = Recorder::new(RunMeta {
            algorithm: "hm".into(),
            topology: "k-out-3".into(),
            n: 8,
            seed: 7,
            engine: "sequential".into(),
            workers: 1,
            latency_model: None,
        });
        rec.begin_round();
        rec.end_round(RoundObs {
            round: 1,
            wall_ns: 0,
            messages: 3,
            pointers: 5,
            dropped_coin: 0,
            dropped_crash: 0,
            dropped_partition: 0,
            dropped_link: 0,
            dropped_suppression: 0,
            retransmissions: 0,
            knowledge_delta: None,
        });
        let mut causal = crate::trace::CausalTrace::new(64, 1_000_000);
        causal.offer(crate::trace::ProvEdge {
            id: 3,
            node: 1,
            src: 0,
            sent: 1,
            round: 2,
            seq: 0,
        });
        causal.offer(crate::trace::ProvEdge {
            id: 4,
            node: 2,
            src: 3,
            sent: 1,
            round: 2,
            seq: 1,
        });
        rec.attach_causal(causal);
        let report = rec
            .finish(
                RunOutcomeObs {
                    verdict: "complete".into(),
                    completed: true,
                    sound: true,
                    rounds: 2,
                    messages: 3,
                    pointers: 5,
                    trace_events: 0,
                    trace_overflow: 0,
                    last_progress: None,
                },
                &[],
                &[],
                &[],
                &[],
            )
            .unwrap();
        render(&report)
    }

    #[test]
    fn causal_sections_render_as_schema_2_and_round_trip() {
        let text = sample_v2_archive_text();
        assert_eq!(validate(&text), Vec::<String>::new());
        let a = parse(&text).unwrap();
        assert_eq!(a.header.schema, 2);
        let tm = a.trace_meta.as_ref().unwrap();
        assert_eq!(tm.edges, 2);
        assert_eq!(tm.sample_ppm, 1_000_000);
        assert_eq!(a.edges.len(), 2);
        assert_eq!(
            a.edges[0],
            EdgeRec {
                id: 3,
                node: 1,
                src: 0,
                sent: 1,
                round: 2,
                seq: 0
            }
        );
        assert_eq!(a.counters["causal_edges_total"], 2);
    }

    fn sample_v3_archive_text() -> String {
        let mut rec = Recorder::new(RunMeta {
            algorithm: "hm".into(),
            topology: "k-out-3".into(),
            n: 16,
            seed: 3,
            engine: "sharded:2".into(),
            workers: 2,
            latency_model: None,
        })
        .with_profiling();
        rec.profile_msg_kind("Rumor", 40, 4);
        for r in 1..=3u64 {
            rec.begin_round();
            for w in 0..2 {
                rec.span_from(Phase::OnRound, r, w, Instant::now());
            }
            rec.span_from(Phase::FinishRound, r, 0, Instant::now());
            rec.profile_memory(r, 512 * r);
            rec.end_round(RoundObs {
                round: r,
                wall_ns: 0,
                messages: 10,
                pointers: 20,
                dropped_coin: 0,
                dropped_crash: 0,
                dropped_partition: 0,
                dropped_link: 0,
                dropped_suppression: 0,
                retransmissions: 0,
                knowledge_delta: None,
            });
        }
        rec.profile_pool_high_water(&[("env", 2048)]);
        let report = rec
            .finish(
                RunOutcomeObs {
                    verdict: "complete-sound".into(),
                    completed: true,
                    sound: true,
                    rounds: 3,
                    messages: 30,
                    pointers: 60,
                    trace_events: 0,
                    trace_overflow: 0,
                    last_progress: None,
                },
                &[1, 2],
                &[2, 1],
                &[],
                &[("env", 6, 4)],
            )
            .unwrap();
        render(&report)
    }

    #[test]
    fn profiled_archives_render_as_schema_3_and_round_trip() {
        let text = sample_v3_archive_text();
        assert_eq!(validate(&text), Vec::<String>::new());
        let a = parse(&text).unwrap();
        assert_eq!(a.header.schema, 3);
        // Profiling without causal tracing: no v2 section.
        assert!(a.trace_meta.is_none());
        let pm = a.profile_meta.as_ref().unwrap();
        assert_eq!(pm.samples, 3);
        assert_eq!(pm.peak_knowledge_bytes, 512 * 3);
        assert_eq!(pm.peak_pool_bytes, 2048);
        assert!(pm.peak_rss_bytes >= pm.peak_knowledge_bytes + pm.peak_pool_bytes);
        assert!(a.profile_phases.iter().any(|p| p.phase == "on_round"));
        assert_eq!(a.profile_msgs.len(), 1);
        assert_eq!(a.profile_msgs[0].kind, "Rumor");
        assert_eq!(a.profile_msgs[0].envelopes, 30);
        assert_eq!(a.profile_msgs[0].payload_bytes, 30 * 40 + 60 * 4);
        assert_eq!(a.profile_mem.len(), 3);
        assert_eq!(a.profile_mem[2].round, 3);
        assert_eq!(a.profile_mem[2].knowledge_bytes, 1536);
    }

    #[test]
    fn v3_records_are_rejected_under_lower_schemas() {
        let text = sample_v3_archive_text();
        for downgrade in ["\"schema\":1", "\"schema\":2"] {
            let downgraded = text.replace("\"schema\":3", downgrade);
            assert!(
                validate(&downgraded)
                    .iter()
                    .any(|p| p.contains("requires schema 3")),
                "downgrade to {downgrade} must be rejected"
            );
        }
    }

    #[test]
    fn profile_section_structure_is_validated() {
        let text = sample_v3_archive_text();
        // Drop one memory sample: profile_meta's count no longer holds.
        let truncated: String = text
            .lines()
            .filter(|l| !(l.contains("profile_mem") && l.contains("\"round\":2")))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate(&truncated)
            .iter()
            .any(|p| p.contains("declares 3 samples, archive contains 2")));

        // Swap two memory samples: round order breaks.
        let mut lines: Vec<&str> = text.lines().collect();
        let first_mem = lines
            .iter()
            .position(|l| l.contains("\"type\":\"profile_mem\""))
            .unwrap();
        lines.swap(first_mem, first_mem + 1);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(validate(&swapped)
            .iter()
            .any(|p| p.contains("out of order")));

        // A profile row with no preceding profile_meta is orphaned.
        let orphaned: String = text
            .lines()
            .filter(|l| !l.contains("\"type\":\"profile_meta\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate(&orphaned)
            .iter()
            .any(|p| p.contains("before any profile_meta")));
    }

    fn sample_v4_archive_text() -> String {
        let mut rec = Recorder::new(RunMeta {
            algorithm: "hm".into(),
            topology: "k-out-3".into(),
            n: 32,
            seed: 11,
            engine: "sequential".into(),
            workers: 1,
            latency_model: None,
        });
        rec.begin_round();
        rec.end_round(RoundObs {
            round: 1,
            wall_ns: 0,
            messages: 4,
            pointers: 8,
            dropped_coin: 0,
            dropped_crash: 0,
            dropped_partition: 0,
            dropped_link: 0,
            dropped_suppression: 0,
            retransmissions: 0,
            knowledge_delta: None,
        });
        rec.record_alert(crate::monitor::Alert {
            rule: "stall".into(),
            round: 40,
            value: 40.0,
            threshold: 5.0,
            message: "no knowledge growth for 40 rounds".into(),
        });
        rec.record_alert(crate::monitor::Alert {
            rule: "drop-rate".into(),
            round: 40,
            value: 0.95,
            threshold: 0.9,
            message: "drop ratio 0.95 exceeds 0.9".into(),
        });
        let report = rec
            .finish(
                RunOutcomeObs {
                    verdict: "stalled".into(),
                    completed: false,
                    sound: true,
                    rounds: 40,
                    messages: 4,
                    pointers: 8,
                    trace_events: 0,
                    trace_overflow: 0,
                    last_progress: Some(1),
                },
                &[],
                &[],
                &[],
                &[],
            )
            .unwrap();
        render(&report)
    }

    #[test]
    fn alert_archives_render_as_schema_4_and_round_trip() {
        let text = sample_v4_archive_text();
        assert_eq!(validate(&text), Vec::<String>::new());
        let a = parse(&text).unwrap();
        assert_eq!(a.header.schema, 4);
        assert_eq!(a.alerts.len(), 2);
        assert_eq!(a.alerts[0].rule, "stall");
        assert_eq!(a.alerts[0].round, 40);
        assert!((a.alerts[1].value - 0.95).abs() < 1e-9);
        assert_eq!(a.counters["alerts_total"], 2);
        // Same round twice is fine (two rules firing together).
        assert_eq!(a.alerts[1].round, a.alerts[0].round);
    }

    #[test]
    fn v4_records_are_rejected_under_lower_schemas() {
        let text = sample_v4_archive_text();
        for downgrade in ["\"schema\":1", "\"schema\":2", "\"schema\":3"] {
            let downgraded = text.replace("\"schema\":4", downgrade);
            assert!(
                validate(&downgraded)
                    .iter()
                    .any(|p| p.contains("requires schema 4")),
                "downgrade to {downgrade} must be rejected"
            );
        }
    }

    #[test]
    fn alert_free_archives_keep_their_pre_v4_schema() {
        // No alerts + no profile + no causal ⇒ still schema 1: a live
        // run on which nothing fired archives byte-identically to
        // builds without the monitor.
        assert!(sample_archive_text().contains("\"schema\":1"));
        assert!(sample_v3_archive_text().contains("\"schema\":3"));
    }

    #[test]
    fn v2_records_are_rejected_under_schema_1() {
        let text = sample_v2_archive_text();
        let downgraded = text.replace("\"schema\":2", "\"schema\":1");
        assert!(validate(&downgraded)
            .iter()
            .any(|p| p.contains("requires schema 2")));
    }

    #[test]
    fn edge_order_and_counts_are_validated() {
        let text = sample_v2_archive_text();
        // Swap the two edge lines: (id, node) order breaks.
        let mut lines: Vec<&str> = text.lines().collect();
        let first_edge = lines
            .iter()
            .position(|l| l.contains("\"type\":\"edge\""))
            .unwrap();
        lines.swap(first_edge, first_edge + 1);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(validate(&swapped)
            .iter()
            .any(|p| p.contains("out of (id, node) order")));

        // Drop one edge line: trace_meta's count no longer matches.
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("\"id\":4"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate(&truncated)
            .iter()
            .any(|p| p.contains("declares 2 edges, archive contains 1")));
    }

    #[test]
    fn validate_rejects_schema_drift() {
        let text = sample_archive_text();
        let bumped = text.replace("\"schema\":1", "\"schema\":999");
        assert!(validate(&bumped)
            .iter()
            .any(|p| p.contains("unsupported schema 999")));

        let unknown = text.replace("\"type\":\"worker\"", "\"type\":\"wurker\"");
        assert!(validate(&unknown)
            .iter()
            .any(|p| p.contains("unknown record type")));
    }

    #[test]
    fn validate_rejects_structural_damage() {
        let text = sample_archive_text();
        // Drop the summary line.
        let truncated: String = text
            .lines()
            .filter(|l| !l.contains("\"type\":\"summary\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate(&truncated)
            .iter()
            .any(|p| p.contains("no summary record")));

        // Reorder so the header is not first.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(0, 1);
        let swapped = lines.join("\n");
        let problems = validate(&swapped);
        assert!(problems.iter().any(|p| p.contains("first record")));

        assert!(validate("").iter().any(|p| p.contains("empty archive")));
    }
}
