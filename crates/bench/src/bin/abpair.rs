//! Interleaved parent/change pairs of the `benchmark/` runs: the protocol
//! a performance claim is accepted under, as one command.
//!
//! ```text
//! abpair --parent REV --change REV --workload W [--workload W2 …]
//!        [--pairs 10] [--seconds 20] [--seed 1000] [--trace] [--work DIR] [--out FILE]
//! ```
//!
//! Both sides build at one path: a detached `git worktree` added under
//! `--work` (default `target/abpair`) as `src`, and removed again when
//! done. The parent is checked out there and built into
//! `target-parent`, then the change is checked out at the same path and
//! built into `target-change`, before any measured run. The source path
//! enters the package ids that partition codegen units, so two paths
//! can give one commit two codegens; one path gives one. Each side's
//! `jc-benchmark` binaries are copied out of its target directory.
//!
//! Pair *i* of a workload runs the side's `jc-benchmark --workload W
//! --seed S --seconds T --trace 0` in the worktree, with the environment
//! `benchmark/run.sh` sets (`JC_THREADS=1`), on both sides with the
//! fresh seed `S = seed + i`, parent first on even pairs and change
//! first on odd ones. With
//! `--trace`, three more pairs per workload run with `--trace 1`, in the
//! same alternating order, and each per-layer metric is printed with
//! each side's median and min–max over its traced runs. A row whose two
//! ranges overlap is marked "within noise": three runs a side cannot
//! tell its difference from the box's drift.
//!
//! For every end-to-end metric `BENCHMARK.json` names, the summary holds
//! each side's quartiles, the pairs the change won (in the metric's
//! `better` direction), the gap between the medians and that gap over
//! the parent's interquartile range — a claim needs ≥ 9/10 wins and a
//! gap/IQR above 1. `all_correct` says whether every run read `correct`
//! with 0 `failed`. The summary is printed as a table on stderr and as
//! one JSON document on stdout (and to `--out`).

use jc_deploy::json::{self, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// What one `--trace 0|1` run printed as its last line.
struct RunResult {
    correct: bool,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// One side of the comparison: its `jc-benchmark` binaries (plain, and
/// built with the traced runs' `count-alloc` feature) and the checkout
/// they run in.
struct Side {
    label: &'static str,
    dir: PathBuf,
    bins: [PathBuf; 2],
}

impl Side {
    /// Check `rev` out in the worktree `dir` and build what
    /// `benchmark/run.sh` runs into `work/target-<label>` (with the
    /// traced runs' `count-alloc` feature too when `trace`), so no
    /// measured run pays for a compile. Each binary is copied out before
    /// the next build overwrites it.
    fn build(
        label: &'static str,
        rev: &str,
        dir: &Path,
        work: &Path,
        trace: bool,
    ) -> Result<Side, String> {
        let path = dir.to_string_lossy();
        run_git(&["-C", &path, "checkout", "--quiet", "--detach", "--force", rev])?;
        eprintln!("abpair: building {label} ({rev}) in {path}");
        let target = work.join(format!("target-{label}"));
        let bins = ["", "-traced"].map(|t| work.join(format!("{label}{t}.jc-benchmark")));
        for (traced, bin) in bins.iter().enumerate().take(1 + trace as usize) {
            let mut cmd = Command::new("cargo");
            cmd.args(["build", "--release", "--offline", "--quiet", "--manifest-path"])
                .arg(dir.join("benchmark/Cargo.toml"));
            if traced == 1 {
                cmd.args(["--features", "count-alloc"]);
            }
            let st = cmd
                .env("CARGO_TARGET_DIR", &target)
                .status()
                .map_err(|e| format!("{label}: cargo: {e}"))?;
            if !st.success() {
                return Err(format!("{label}: build failed: {st}"));
            }
            std::fs::copy(target.join("release/jc-benchmark"), bin)
                .map_err(|e| format!("{label}: {}: {e}", bin.display()))?;
        }
        Ok(Side { label, dir: dir.to_path_buf(), bins })
    }

    /// One benchmark run on this side; the parsed last line of stdout.
    fn run(
        &self,
        workload: &str,
        seed: u64,
        seconds: u64,
        trace: bool,
    ) -> Result<RunResult, String> {
        let out = Command::new(&self.bins[trace as usize])
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .env("JC_THREADS", "1")
            .current_dir(&self.dir)
            .output()
            .map_err(|e| format!("{}: cannot run jc-benchmark: {e}", self.label))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().rev().find(|l| l.trim_start().starts_with('{'));
        let Some(line) = line.filter(|_| out.status.success()) else {
            return Err(format!(
                "{} {workload} seed {seed}: run failed ({}): {}",
                self.label,
                out.status,
                String::from_utf8_lossy(&out.stderr).lines().last().unwrap_or("")
            ));
        };
        let v = json::parse(line).map_err(|e| format!("{}: bad result line: {e}", self.label))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(RunResult {
            correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
            failed: v.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN),
            metrics,
        })
    }
}

/// Linear-interpolation quantile of sorted `xs` (`q` in [0, 1]).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| quantile(&s, q))
}

/// Traced pairs per workload with `--trace`.
const TRACED_PAIRS: u64 = 3;

/// The order pair `i` runs its sides in: parent first on even pairs.
fn order(i: u64) -> [usize; 2] {
    if i.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    }
}

/// Run git, its stdout kept off ours (which carries only the JSON).
fn run_git(args: &[&str]) -> Result<(), String> {
    let mut git = Command::new("git");
    git.args(args).stdout(Stdio::null());
    let st = git.status().map_err(|e| format!("git: {e}"))?;
    st.success().then_some(()).ok_or_else(|| format!("git {} failed: {st}", args.join(" ")))
}

/// `rev` as a commit hash, resolved here: inside the worktree a name
/// like `HEAD` would name the worktree's own checkout.
fn commit_of(rev: &str) -> Result<String, String> {
    let out = Command::new("git")
        .args(["rev-parse", "--verify", "--quiet", &format!("{rev}^{{commit}}")])
        .output()
        .map_err(|e| format!("git: {e}"))?;
    let hash = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !hash.is_empty()).then_some(hash).ok_or(format!("{rev}: not a commit"))
}

/// Options from the command line.
struct Opts {
    parent: Option<String>,
    change: Option<String>,
    workloads: Vec<String>,
    pairs: u64,
    seconds: u64,
    seed: u64,
    trace: bool,
    work: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        parent: None,
        change: None,
        workloads: Vec::new(),
        pairs: 10,
        seconds: 20,
        seed: 1000,
        trace: false,
        work: PathBuf::from("target/abpair"),
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            o.trace = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--parent" => o.parent = Some(value),
            "--change" => o.change = Some(value),
            "--workload" => o.workloads.push(value),
            "--pairs" => o.pairs = number()?,
            "--seconds" => o.seconds = number()?,
            "--seed" => o.seed = number()?,
            "--work" => o.work = value.into(),
            "--out" => o.out = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.workloads.is_empty() || o.pairs == 0 {
        return Err("at least one --workload and one pair".into());
    }
    Ok(o)
}

/// The end-to-end metrics and their directions, from a side's
/// `BENCHMARK.json`: `(name, lower_is_better)`.
fn end_to_end(dir: &Path) -> Result<Vec<(String, bool)>, String> {
    let text = std::fs::read_to_string(dir.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v.get("end_to_end").and_then(Value::as_array).unwrap_or(&[]);
    Ok(list
        .iter()
        .filter_map(|m| {
            let lower = m.get("better")?.as_str()? == "lower";
            Some((m.get("name")?.as_str()?.to_string(), lower))
        })
        .collect())
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// `xs` as the items of a JSON list.
fn json_list(xs: &[f64]) -> String {
    xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(", ")
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("abpair: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let o = parse_args()?;
    std::fs::create_dir_all(&o.work).map_err(|e| format!("{}: {e}", o.work.display()))?;
    let work = o.work.canonicalize().map_err(|e| format!("{}: {e}", o.work.display()))?;
    let rev = |label: &str, rev: &Option<String>| {
        commit_of(rev.as_deref().ok_or_else(|| format!("--{label} REV"))?)
    };
    let (parent, change) = (rev("parent", &o.parent)?, rev("change", &o.change)?);
    // both sides build and run in this one worktree, removed again
    // whatever failed
    let dir = work.join("src");
    let path = dir.to_string_lossy().into_owned();
    run_git(&["worktree", "add", "--detach", "--force", &path, &parent])?;
    let result = Side::build("parent", &parent, &dir, &work, o.trace).and_then(|p| {
        let c = Side::build("change", &change, &dir, &work, o.trace)?;
        measure(&o, &[p, c])
    });
    let _ = run_git(&["worktree", "remove", "--force", &path]);
    let json = result?;
    println!("{json}");
    if let Some(path) = &o.out {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Run every pair and summarize; the JSON document.
fn measure(o: &Opts, sides: &[Side; 2]) -> Result<String, String> {
    // the worktree holds the change now
    let metrics = end_to_end(&sides[1].dir)?;
    let mut doc = String::from("{\"pairs\": ");
    write!(doc, "{}, \"seconds\": {}, \"workloads\": {{", o.pairs, o.seconds).unwrap();
    for (wi, workload) in o.workloads.iter().enumerate() {
        let mut runs: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for i in 0..o.pairs {
            let seed = o.seed + i;
            for k in order(i) {
                let r = sides[k].run(workload, seed, o.seconds, false)?;
                eprintln!(
                    "abpair: {workload} pair {i} seed {seed} {}: p50 {:?} correct {} failed {}",
                    sides[k].label,
                    r.metric("latency_ms_p50"),
                    r.correct,
                    r.failed
                );
                runs[k].push(r);
            }
        }
        let all_correct = runs.iter().flatten().all(|r| r.correct && r.failed == 0.0);
        eprintln!("\n{workload}: {} pairs, {} s, all correct: {all_correct}", o.pairs, o.seconds);
        eprintln!(
            "{:<18} {:>30} {:>30} {:>6} {:>10} {:>8}",
            "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "gap", "gap/IQR"
        );
        if wi > 0 {
            doc.push_str(", ");
        }
        write!(doc, "\"{workload}\": {{\"all_correct\": {all_correct}, \"metrics\": {{").unwrap();
        for (mi, (name, lower)) in metrics.iter().enumerate() {
            let col = |k: usize| -> Vec<f64> {
                runs[k].iter().map(|r| r.metric(name).unwrap_or(f64::NAN)).collect()
            };
            let (p, c) = (col(0), col(1));
            let wins = p.iter().zip(&c).filter(|(a, b)| if *lower { b < a } else { b > a }).count();
            let (qp, qc) = (quartiles(&p), quartiles(&c));
            let gap = qc[1] - qp[1];
            let iqr = qp[2] - qp[0];
            let ratio = gap.abs() / iqr;
            eprintln!(
                "{name:<18} {:>30} {:>30} {:>3}/{:<2} {:>+10.4} {:>8.2}",
                format!("{:.4}/{:.4}/{:.4}", qp[0], qp[1], qp[2]),
                format!("{:.4}/{:.4}/{:.4}", qc[0], qc[1], qc[2]),
                wins,
                o.pairs,
                gap,
                ratio
            );
            if mi > 0 {
                doc.push_str(", ");
            }
            write!(
                doc,
                "\"{name}\": {{\"better\": \"{}\", \"parent\": [{}], \"change\": [{}], \
                 \"parent_quartiles\": [{}], \"change_quartiles\": [{}], \"wins\": {wins}, \
                 \"gap\": {}, \"gap_over_iqr\": {}}}",
                if *lower { "lower" } else { "higher" },
                json_list(&p),
                json_list(&c),
                json_list(&qp),
                json_list(&qc),
                num(gap),
                num(ratio)
            )
            .unwrap();
        }
        doc.push('}');
        if o.trace {
            let mut traced: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
            for i in 0..TRACED_PAIRS {
                for k in order(i) {
                    traced[k].push(sides[k].run(
                        workload,
                        o.seed + o.pairs + i,
                        o.seconds,
                        true,
                    )?);
                }
            }
            eprintln!("\n{workload} traced, {TRACED_PAIRS} pairs (median [min–max]):");
            eprintln!("{:<34} {:>30} {:>30} {:>9}", "layer", "parent", "change", "change%");
            doc.push_str(", \"traced\": {");
            let names = traced[0][0].metrics.iter().map(|(name, _)| name);
            for (li, name) in names.enumerate() {
                let col = |k: usize| -> Vec<f64> {
                    traced[k].iter().map(|r| r.metric(name).unwrap_or(f64::NAN)).collect()
                };
                let (p, c) = (col(0), col(1));
                let range = |xs: &[f64]| {
                    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                    (lo, xs.iter().copied().fold(f64::NEG_INFINITY, f64::max))
                };
                let ((p_lo, p_hi), (c_lo, c_hi)) = (range(&p), range(&c));
                let (pm, cm) = (quartiles(&p)[1], quartiles(&c)[1]);
                let noise = p_lo <= c_hi && c_lo <= p_hi;
                eprintln!(
                    "{name:<34} {:>30} {:>30} {:>+8.1}%{}",
                    format!("{pm:.4} [{p_lo:.4}–{p_hi:.4}]"),
                    format!("{cm:.4} [{c_lo:.4}–{c_hi:.4}]"),
                    if cm == pm { 0.0 } else { 100.0 * (cm - pm) / pm.abs() },
                    if noise { "  within noise" } else { "" }
                );
                if li > 0 {
                    doc.push_str(", ");
                }
                write!(
                    doc,
                    "\"{name}\": {{\"parent\": [{}], \"change\": [{}], \"within_noise\": {noise}}}",
                    json_list(&p),
                    json_list(&c)
                )
                .unwrap();
            }
            doc.push('}');
        }
        doc.push('}');
    }
    doc.push_str("}}");
    Ok(doc)
}
