//! Small statistics, the metric record, and the process/machine facts
//! every result carries.

use std::time::{Duration, Instant};

/// One reported number. Names and units are the ones `BENCHMARK.json`
/// declares; the suite refuses a run whose names differ.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (0 = a single direct reading or a count).
    pub samples: usize,
}

impl Metric {
    /// A metric backed by `samples` observations.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// What one benchmark run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// All output checks passed.
    pub correct: bool,
    /// Operations attempted (iterations, or sessions offered).
    pub attempted: u64,
    /// Operations that errored, mis-digested, or (steady phase) were shed.
    pub failed: u64,
    /// The metrics of this trace mode.
    pub metrics: Vec<Metric>,
    /// Per-block values of the median-type metrics (the noise estimate
    /// inside one run), keyed by metric name.
    pub blocks: Vec<(&'static str, Vec<f64>)>,
    /// Human-readable findings (failed checks, skipped probes).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// Record a failed check: the run is reported as incorrect.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }
}

/// The next uniform variate in `[0, 1)` from the repository's own
/// splitmix generator (53 random mantissa bits).
pub fn uniform(rng: &mut jc_amuse::chaos::ChaosRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The quantiles a run's detail file lists for its latency samples.
pub const QUANTILES: [f64; 8] = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];

/// Linear-interpolated percentile of an ascending-sorted slice
/// (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort in place (values are finite timings) and return the slice.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    values
}

/// Smallest value of a sample (infinite for an empty one).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value of a sample (0 for an empty one; timings are positive).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    percentile(sorted(&mut v), 0.5)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) computes them — the rule the
/// acceptance driver applies to ten runs of each workload.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    let m = v.len();
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread figure the
/// acceptance driver compares against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// Call `f` repeatedly for about `budget` (at least `min_calls` times),
/// returning each call's wall time in nanoseconds. One untimed call
/// first warms buffers and faults pages in.
pub fn sample_ns(budget: Duration, min_calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let mut out = Vec::with_capacity(1024);
    let t_end = Instant::now() + budget;
    while out.len() < min_calls || Instant::now() < t_end {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_nanos() as f64);
    }
    out
}

/// Median wall time of `f` in nanoseconds (see [`sample_ns`]) and the
/// sample count behind it.
pub fn median_ns(budget: Duration, min_calls: usize, f: impl FnMut()) -> (f64, usize) {
    let s = sample_ns(budget, min_calls, f);
    (median(&s), s.len())
}

/// `VmHWM` of this process in MiB (peak resident set), 0 where
/// `/proc` does not offer it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The facts about this machine a reader needs before comparing two
/// results: rendered as one JSON object.
pub fn machine_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let wanted = ["sse2", "sse4_2", "avx", "avx2", "fma", "avx512f"];
    let have: Vec<String> = wanted
        .iter()
        .filter(|w| flags.split_whitespace().any(|f| f == **w))
        .map(|w| format!("\"{w}\""))
        .collect();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    format!(
        "{{\"logical_cores\": {cores}, \"jc_threads\": \"{}\", \"cpu_model\": \"{}\", \
         \"cpu_flags\": [{}], \"kernel\": \"{}\", \"network\": \"loopback TCP (127.0.0.1), \
         coupler and workers share this machine\", \"placement\": \"each run confines itself \
         and every thread it spawns to one CPU (a run that could not says so in its notes)\"}}",
        std::env::var("JC_THREADS").unwrap_or_else(|_| "unset".into()),
        escape(&field("model name")),
        have.join(", "),
        escape(kernel.trim()),
    )
}

/// Minimal JSON string escaping for the few free-text fields we emit.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// A float as JSON: every digit Rust's shortest round-trip form has.
/// Non-finite values (a broken measurement) become 0 and the caller's
/// checks flag them.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
