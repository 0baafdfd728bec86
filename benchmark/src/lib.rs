//! # jc_benchmark — the coupled-iteration and session benchmark
//!
//! The instrument every later performance claim in this repository is
//! measured with. It claims nothing itself. One run measures one
//! workload for a fixed time and prints one JSON line:
//!
//! ```text
//! jc-benchmark --workload cluster_local --seed 39 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with tracing off;
//! `--trace 1` reports the per-layer metrics from a traced round plus
//! direct probes. `jc-benchmark run` drives the whole suite (see
//! [`suite`]). README.md beside this crate defines every workload and
//! metric and maps each layer to the end-to-end number it should move.
//!
//! Every layer is measured from outside, through public functions of
//! the repository's crates; nothing in the repository is instrumented.

#![warn(missing_docs)]

pub mod affinity;
pub mod alloc;
pub mod coupler;
pub mod metrics;
pub mod probes;
pub mod service;
pub mod stats;
pub mod suite;
pub mod trace;

use metrics::LayerSheet;
use stats::RunOutput;
use std::path::PathBuf;
use std::time::Duration;

/// Where trace files and per-run detail files go (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `contents` to `file` under [`out_dir`]; on failure, what went
/// wrong (a run's numbers do not depend on these files).
pub fn write_out(file: &str, contents: &str) -> Result<(), String> {
    let path = out_dir().join(file);
    std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(&path, contents))
        .map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Segments of an end-to-end run. Each sets the system up afresh and
/// measures a fifth of the time on it, so the set-up samples are spread
/// over the whole run, not taken in its first quarter second. `setup_s`
/// is the shortest of them, a quiet time like the other timings.
pub const SEGMENTS: usize = 5;

/// Timed loops the probe battery runs; sizes each probe's share of a
/// traced run's time.
const PROBE_LOOPS: f64 = 30.0;

/// Measure one workload for about `seconds`. `None` for an unknown
/// workload name.
pub fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<RunOutput> {
    let spec = match workload {
        "cluster_local" => Some(coupler::CLUSTER_LOCAL),
        "cluster_tcp_chatty" => Some(coupler::CLUSTER_TCP_CHATTY),
        "wire_bulk_null" => Some(coupler::WIRE_BULK_NULL),
        "service_open" => None,
        _ => return None,
    };
    // Every workload is single-threaded compute by definition (thread
    // scaling cannot be shown on the two cores this was sized on);
    // jc_compute::par reads this per call, and no thread exists yet.
    std::env::set_var("JC_THREADS", "1");
    // One CPU for the whole process (see `affinity`): threads spawned
    // from here on inherit it.
    let cpus = affinity::allowed();
    let pinned = cpus.as_ref().and_then(affinity::pin_to_last);
    let mut out = match (trace, &spec) {
        (false, Some(spec)) => coupler::run_end_to_end(spec, seed, seconds),
        (false, None) => service::run_end_to_end(seed, seconds),
        (true, _) => {
            // half the time for the workload's own rounds, half for the probes
            let mut out = RunOutput { correct: true, ..RunOutput::default() };
            let mut sheet = LayerSheet::default();
            match &spec {
                Some(spec) => coupler::run_layers(spec, seed, seconds / 2.0, &mut sheet, &mut out),
                None => service::run_layers(seed, seconds / 2.0, &mut sheet, &mut out),
            }
            let budget = Duration::from_secs_f64(seconds / 2.0 / PROBE_LOOPS);
            probes::run_all(&mut sheet, budget, spec.as_ref(), cpus.as_ref(), &mut out.notes);
            service::probes(&mut sheet, budget);
            let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
            sheet.set("failed_share", failed_share, out.attempted as usize);
            out.metrics = sheet.into_metrics();
            out
        }
    };
    match pinned {
        Some(cpu) => out.notes.push(format!("whole run confined to CPU {cpu}")),
        None => out.notes.push("NOT PINNED: could not set CPU affinity; timings include cross-CPU wake-ups and are not comparable with pinned runs".into()),
    }
    Some(out)
}

/// The one JSON object a run prints as the last line of its standard
/// output: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                stats::json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// What the result line has no room for: sample counts beside every
/// value, per-block values beside every median, and the notes.
pub fn detail_json(out: &RunOutput) -> String {
    let samples: Vec<String> =
        out.metrics.iter().map(|m| format!("\"{}\": {}", m.name, m.samples)).collect();
    let blocks: Vec<String> = out
        .blocks
        .iter()
        .map(|(name, v)| {
            let v: Vec<String> = v.iter().map(|x| stats::json_num(*x)).collect();
            format!("\"{name}\": [{}]", v.join(", "))
        })
        .collect();
    let notes: Vec<String> =
        out.notes.iter().map(|n| format!("\"{}\"", stats::escape(n))).collect();
    format!(
        "{{\"samples\": {{{}}}, \"blocks\": {{{}}}, \"notes\": [{}]}}\n",
        samples.join(", "),
        blocks.join(", "),
        notes.join(", ")
    )
}
