//! `rd-inspect watch`: a terminal dashboard over a live run's
//! `/status` endpoint.
//!
//! The binary polls `http://ADDR/status`, parses the reply with the
//! serde-free [`Json`] parser, and redraws a single
//! fixed-height frame in place. Everything that decides what a frame
//! looks like lives here — [`render_frame`] is a pure function of the
//! parsed document plus a rolling [`WatchState`] — so the dashboard is
//! unit-testable without a server or a terminal.

use crate::json::Json;
use std::fmt::Write as _;

/// Width of the rounds/s sparkline (and the history window backing it).
pub const SPARK_WIDTH: usize = 32;

const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Rolling per-session state: the rounds/s history the sparkline draws.
#[derive(Debug, Default)]
pub struct WatchState {
    history: Vec<f64>,
}

impl WatchState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one rounds/s sample, keeping the last [`SPARK_WIDTH`].
    pub fn observe(&mut self, rounds_per_sec: f64) {
        self.history.push(rounds_per_sec.max(0.0));
        if self.history.len() > SPARK_WIDTH {
            self.history.remove(0);
        }
    }

    pub fn history(&self) -> &[f64] {
        &self.history
    }
}

/// Renders `values` as a unicode sparkline scaled to the window max.
/// A flat-zero (or empty) window renders as all-minimum glyphs padded
/// to `width` so the frame height and width never jitter.
pub fn sparkline(values: &[f64], width: usize) -> String {
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    let mut out = String::with_capacity(width * 3);
    for &v in values.iter().rev().take(width).rev() {
        let idx = if max > 0.0 {
            (((v / max) * (SPARK_GLYPHS.len() - 1) as f64).round() as usize)
                .min(SPARK_GLYPHS.len() - 1)
        } else {
            0
        };
        out.push(SPARK_GLYPHS[idx]);
    }
    for _ in values.len().min(width)..width {
        out.insert(0, ' ');
    }
    out
}

fn field_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn field_f64(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn field_str<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// The drop-cause breakdown from `/status`, sorted heaviest-first,
/// zero causes omitted.
fn drop_causes(doc: &Json) -> Vec<(&'static str, u64)> {
    let dropped = doc.get("dropped");
    let mut causes: Vec<(&'static str, u64)> =
        ["coin", "crash", "partition", "link", "suppression"]
            .iter()
            .map(|&cause| {
                (
                    cause,
                    dropped
                        .and_then(|d| d.get(cause))
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                )
            })
            .filter(|&(_, count)| count > 0)
            .collect();
    causes.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    causes
}

/// Renders one dashboard frame from a parsed `/status` document and
/// the rolling state. Pure: no IO, no terminal control sequences.
pub fn render_frame(doc: &Json, state: &WatchState) -> Result<String, String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("status document is not a JSON object".to_string());
    }
    let round = field_u64(doc, "round");
    let max_rounds = field_u64(doc, "max_rounds");
    let rps = field_f64(doc, "rounds_per_sec");
    let mps = field_f64(doc, "msgs_per_sec");
    let convergence = field_f64(doc, "convergence_pct");
    let finished = doc.get("finished").and_then(Json::as_bool).unwrap_or(false);
    let alerts = field_u64(doc, "alerts");

    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "rd-live watch | {} on {} | n={} seed={} | {} ({} workers)",
        field_str(doc, "algorithm"),
        field_str(doc, "topology"),
        field_u64(doc, "n"),
        field_u64(doc, "seed"),
        field_str(doc, "engine"),
        field_u64(doc, "workers"),
    );
    let status = if finished {
        format!("finished: {}", field_str(doc, "verdict"))
    } else {
        "running".to_string()
    };
    let _ = writeln!(out, "  round       {round:>10} / {max_rounds}  [{status}]");
    let _ = writeln!(
        out,
        "  rounds/s    {rps:>10.1}  {}",
        sparkline(state.history(), SPARK_WIDTH)
    );
    let _ = writeln!(out, "  msgs/s      {mps:>10.0}");

    // Convergence bar: 24 cells, clamped — `convergence_pct` is
    // already capped at 100 server-side.
    let cells = ((convergence / 100.0) * 24.0).round() as usize;
    let bar: String = (0..24)
        .map(|i| if i < cells.min(24) { '#' } else { '.' })
        .collect();
    let _ = writeln!(out, "  convergence {convergence:>9.1}%  [{bar}]");
    let _ = writeln!(
        out,
        "  messages    {:>10}  (retransmissions {})",
        field_u64(doc, "messages"),
        field_u64(doc, "retransmissions"),
    );

    let causes = drop_causes(doc);
    if causes.is_empty() {
        let _ = writeln!(out, "  drops              none");
    } else {
        let top: Vec<String> = causes
            .iter()
            .take(3)
            .map(|(cause, count)| format!("{cause} {count}"))
            .collect();
        let total: u64 = causes.iter().map(|&(_, c)| c).sum();
        let _ = writeln!(out, "  drops       {total:>10}  ({})", top.join(", "));
    }
    let _ = writeln!(
        out,
        "  shards      {:>9.2}x imbalance, {:>4.0}% utilization",
        field_f64(doc, "imbalance"),
        field_f64(doc, "utilization") * 100.0,
    );
    let _ = writeln!(
        out,
        "  resident    {:>8.1} MiB (pools {:.1} MiB)",
        field_u64(doc, "resident_bytes") as f64 / (1024.0 * 1024.0),
        field_u64(doc, "pool_bytes") as f64 / (1024.0 * 1024.0),
    );
    if alerts > 0 {
        let _ = writeln!(
            out,
            "  ALERTS      {alerts:>10}  (see run stderr / archive)"
        );
    } else {
        let _ = writeln!(out, "  alerts             none");
    }
    Ok(out)
}

/// One poll step shared by the binary's loop: fetch `/status`, parse,
/// update the sparkline history, render. Returns the frame plus the
/// `finished` flag so the caller knows when to stop.
pub fn poll_frame(addr: &str, state: &mut WatchState) -> Result<(String, bool), String> {
    let (code, body) =
        crate::http::http_get(addr, "/status").map_err(|e| format!("GET {addr}/status: {e}"))?;
    if code != 200 && code != 503 {
        return Err(format!("GET {addr}/status: HTTP {code}"));
    }
    let doc = Json::parse(&body).map_err(|e| format!("bad /status JSON: {e}"))?;
    state.observe(
        doc.get("rounds_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    let finished = doc.get("finished").and_then(Json::as_bool).unwrap_or(false);
    let frame = render_frame(&doc, state)?;
    Ok((frame, finished))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveSnapshot;

    fn sample_doc() -> Json {
        let snap = LiveSnapshot {
            algorithm: "hm".into(),
            topology: "3-out".into(),
            engine: "sharded:4".into(),
            n: 1024,
            seed: 42,
            workers: 4,
            round: 37,
            max_rounds: 100_000,
            rounds_per_sec: 210.5,
            msgs_per_sec: 80_000.0,
            messages: 123_456,
            retransmissions: 78,
            dropped_coin: 900,
            dropped_crash: 40,
            dropped_partition: 1200,
            knowledge_total: 524_288,
            knowledge_target: 1_048_576,
            shard_busy_ns: vec![100, 200, 300, 400],
            round_wall_ns: 500,
            resident_bytes: 64 * 1024 * 1024,
            ..Default::default()
        };
        Json::parse(&snap.status_json()).expect("valid status JSON")
    }

    #[test]
    fn sparkline_scales_to_window_max() {
        assert_eq!(sparkline(&[], 4), "    ");
        assert_eq!(sparkline(&[0.0, 0.0], 4), "  ▁▁");
        let ramp = sparkline(&[1.0, 4.0, 8.0], 3);
        let glyphs: Vec<char> = ramp.chars().collect();
        assert_eq!(glyphs.len(), 3);
        assert_eq!(glyphs[2], '█', "window max renders full-height");
        assert!(glyphs[0] < glyphs[2]);
    }

    #[test]
    fn state_caps_history_at_the_spark_width() {
        let mut state = WatchState::new();
        for i in 0..(SPARK_WIDTH + 10) {
            state.observe(i as f64);
        }
        assert_eq!(state.history().len(), SPARK_WIDTH);
        assert_eq!(state.history()[0], 10.0, "oldest samples evicted");
    }

    #[test]
    fn frame_renders_identity_rates_drops_and_convergence() {
        let doc = sample_doc();
        let mut state = WatchState::new();
        state.observe(100.0);
        state.observe(210.5);
        let frame = render_frame(&doc, &state).expect("renders");
        assert!(frame.contains("hm on 3-out"));
        assert!(frame.contains("n=1024"));
        assert!(frame.contains("37 / 100000"));
        assert!(frame.contains("210.5"));
        assert!(frame.contains("50.0%"), "convergence half-way: {frame}");
        // Drop causes sorted heaviest-first.
        assert!(frame.contains("partition 1200, coin 900, crash 40"));
        assert!(frame.contains("alerts             none"));
        assert!(frame.contains("[running]"));
        assert!(frame.contains('█'), "sparkline present");
    }

    #[test]
    fn finished_runs_show_their_verdict_and_alert_count() {
        let snap = LiveSnapshot {
            finished: true,
            verdict: "complete".into(),
            alerts: 2,
            ..Default::default()
        };
        let doc = Json::parse(&snap.status_json()).unwrap();
        let frame = render_frame(&doc, &WatchState::new()).unwrap();
        assert!(frame.contains("[finished: complete]"));
        assert!(frame.contains("ALERTS               2"));
        assert!(frame.contains("drops              none"));
    }

    #[test]
    fn non_object_documents_are_rejected() {
        assert!(render_frame(&Json::Arr(vec![]), &WatchState::new()).is_err());
    }
}
