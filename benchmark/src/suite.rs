//! The suite driver: runs whole sets of single-workload runs as child
//! processes (through `run.sh`, so each child is built with the right
//! features and starts with a clean allocator, thread pool and peak
//! RSS), checks what they print against `BENCHMARK.json`, and reports.
//!
//! * `run` — every workload, end-to-end then traced; one JSON document
//!   with every metric, its unit, direction, bound, sample count and
//!   per-block values, the machine descriptor, and `"claim": null`.
//! * `run --selfcheck` — A/A: per workload, three pairs of end-to-end
//!   runs on one seed, the two sides taking turns; fails if the sides'
//!   medians differ by more than a metric's own bound. The acceptance
//!   run of this benchmark.
//! * `run --spread N` — N end-to-end runs per workload on N seeds;
//!   prints each metric's interquartile range as a share of its median
//!   (the figure the acceptance driver holds against the bound) and
//!   fails if one exceeds its bound. The tool for re-measuring the
//!   noise floor.

use crate::metrics::Decl;
use crate::stats;
use jc_deploy::json::{self, Value};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What to do with the runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// One full set.
    Run,
    /// Two full sets, compared.
    Selfcheck,
    /// This many end-to-end runs per workload, each on its own seed.
    Spread(usize),
}

/// Suite options.
#[derive(Clone, Debug)]
pub struct Options {
    /// What to do.
    pub mode: Mode,
    /// First seed.
    pub seed: u64,
    /// Only this workload.
    pub workload: Option<String>,
    /// Two-second rounds: a smoke run whose numbers are not comparable.
    pub quick: bool,
}

/// `BENCHMARK.json`, as far as the suite needs it.
struct Contract {
    run_seconds: f64,
    workloads: Vec<(String, String)>,
    end_to_end: Vec<Decl>,
    per_layer: Vec<Decl>,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn leak(s: &str) -> &'static str {
    Box::leak(s.to_string().into_boxed_str())
}

fn load_contract() -> Result<Contract, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key).and_then(Value::as_array).ok_or_else(|| format!("BENCHMARK.json: no {key}"))
    };
    let text_of = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without {key}"))
    };
    let decls = |key: &str| -> Result<Vec<Decl>, String> {
        list(key)?
            .iter()
            .map(|v| {
                Ok(Decl {
                    name: leak(&text_of(v, "name")?),
                    unit: leak(&text_of(v, "unit")?),
                    better: leak(&text_of(v, "better")?),
                    bound: v.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|v| Ok((text_of(v, "name")?, text_of(v, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: decls("end_to_end")?,
        per_layer: decls("per_layer")?,
    })
}

/// One child run's result, validated.
struct Outcome {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(value, samples, blocks)` in the order of the declared metrics.
    values: Vec<(f64, f64, Vec<f64>)>,
    notes: Vec<String>,
}

/// Run one workload once in a child process and validate its output
/// against the declared metric names and units.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    declared: &[Decl],
) -> Result<Outcome, String> {
    let trace_arg = if trace { "1" } else { "0" };
    eprintln!("== {workload} --seed {seed} --seconds {seconds} --trace {trace_arg}");
    let output = Command::new("bash")
        .arg(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("run.sh"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", trace_arg])
        .current_dir(repo_root())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start run.sh: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    let doc = json::parse(line).map_err(|e| format!("{workload}: last line is not JSON: {e:?}"))?;
    let keys: Vec<&str> =
        doc.as_object().map(|o| o.iter().map(|(k, _)| k.as_str()).collect()).unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{workload}: result keys are {keys:?}"));
    }
    let metrics = doc.get("metrics").and_then(Value::as_object).ok_or("metrics is no object")?;
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|d| d.name).collect();
    if got != want {
        let missing: Vec<&&str> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<&&str> = got.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "{workload}: metrics differ from BENCHMARK.json (missing {missing:?}, undeclared \
             {extra:?}, or out of order)"
        ));
    }
    // the detail file the same run left behind
    let detail_path = crate::out_dir().join(format!("run-{workload}-trace{trace_arg}.json"));
    let detail = std::fs::read_to_string(&detail_path).ok().and_then(|t| json::parse(&t).ok());
    let detail_of = |section: &str, name: &str| -> Option<Value> {
        detail.as_ref()?.get(section)?.get(name).cloned()
    };
    let mut values = Vec::with_capacity(declared.len());
    for (d, (_, m)) in declared.iter().zip(metrics) {
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        if unit != d.unit {
            return Err(format!("{workload}: {} is in {unit:?}, declared {:?}", d.name, d.unit));
        }
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}: {} has no numeric value", d.name))?;
        let samples = detail_of("samples", d.name).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let blocks = detail_of("blocks", d.name)
            .and_then(|v| v.as_array().map(|a| a.iter().filter_map(Value::as_f64).collect()))
            .unwrap_or_default();
        values.push((value, samples, blocks));
    }
    let notes = detail
        .as_ref()
        .and_then(|d| d.get("notes"))
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(|n| n.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    Ok(Outcome {
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: doc.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
        values,
        notes,
    })
}

/// Both runs of one workload.
struct WorkloadResult {
    name: String,
    why: String,
    end_to_end: Outcome,
    per_layer: Outcome,
}

fn metric_json(d: &Decl, v: &(f64, f64, Vec<f64>), with_bound: bool) -> String {
    let blocks: Vec<String> = v.2.iter().map(|x| stats::json_num(*x)).collect();
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\"{}, \"samples\": {}{}}}",
        d.name,
        stats::json_num(v.0),
        d.unit,
        d.better,
        if with_bound { format!(", \"bound\": {}", d.bound) } else { String::new() },
        v.1,
        if blocks.is_empty() {
            String::new()
        } else {
            format!(", \"blocks\": [{}]", blocks.join(", "))
        },
    )
}

fn set_json(results: &[WorkloadResult], c: &Contract) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            let e2e: Vec<String> = c
                .end_to_end
                .iter()
                .zip(&r.end_to_end.values)
                .map(|(d, v)| metric_json(d, v, true))
                .collect();
            let layers: Vec<String> = c
                .per_layer
                .iter()
                .zip(&r.per_layer.values)
                .map(|(d, v)| metric_json(d, v, false))
                .collect();
            let notes: Vec<String> = r
                .end_to_end
                .notes
                .iter()
                .chain(&r.per_layer.notes)
                .map(|n| format!("\"{}\"", stats::escape(n)))
                .collect();
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\",\n     \"correct\": {}, \"attempted\": {}, \
                 \"failed\": {},\n     \"end_to_end\": {{{}}},\n     \"per_layer\": {{{}}},\n     \
                 \"notes\": [{}]}}",
                r.name,
                stats::escape(&r.why),
                r.end_to_end.correct && r.per_layer.correct,
                r.end_to_end.attempted,
                r.end_to_end.failed,
                e2e.join(", "),
                layers.join(", "),
                notes.join(", ")
            )
        })
        .collect();
    format!("[\n{}\n  ]", workloads.join(",\n"))
}

/// One set: every workload end-to-end and, unless `quick`, traced.
fn run_set(
    c: &Contract,
    names: &[(String, String)],
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<Vec<WorkloadResult>, String> {
    names
        .iter()
        .map(|(name, why)| {
            let end_to_end = child(name, seed, seconds, false, &c.end_to_end)?;
            let per_layer = if quick {
                Outcome {
                    correct: true,
                    attempted: 0.0,
                    failed: 0.0,
                    values: Vec::new(),
                    notes: vec!["--quick: no traced round, no per-layer metrics".into()],
                }
            } else {
                child(name, seed, seconds, true, &c.per_layer)?
            };
            Ok(WorkloadResult { name: name.clone(), why: why.clone(), end_to_end, per_layer })
        })
        .collect()
}

fn print_table(results: &[WorkloadResult], c: &Contract) {
    for r in results {
        eprintln!(
            "\n{} — correct {}, attempted {}, failed {}",
            r.name,
            r.end_to_end.correct && r.per_layer.correct,
            r.end_to_end.attempted,
            r.end_to_end.failed
        );
        for (d, v) in c.end_to_end.iter().zip(&r.end_to_end.values) {
            let spread = match (
                v.2.iter().cloned().reduce(f64::min),
                v.2.iter().cloned().reduce(f64::max),
            ) {
                (Some(lo), Some(hi)) => format!("  blocks {lo:.4} … {hi:.4}"),
                _ => String::new(),
            };
            eprintln!(
                "  {:<28} {:>14.4} {:<6} {} is better, bound {:>4.0}%  n={}{spread}",
                d.name,
                v.0,
                d.unit,
                d.better,
                d.bound * 100.0,
                v.1
            );
        }
        for (d, v) in c.per_layer.iter().zip(&r.per_layer.values) {
            eprintln!("    {:<34} {:>16.4} {:<6} n={}", d.name, v.0, d.unit, v.1);
        }
        for n in r.end_to_end.notes.iter().chain(&r.per_layer.notes) {
            eprintln!("  note: {n}");
        }
    }
}

/// Pairs of runs `--selfcheck` makes per workload.
const SELFCHECK_PAIRS: usize = 3;

fn json_list(v: &[f64]) -> String {
    let v: Vec<String> = v.iter().map(|x| stats::json_num(*x)).collect();
    format!("[{}]", v.join(", "))
}

/// One end-to-end run of `name` per seed; the values of each declared
/// metric across those runs. A run with wrong outputs ends the suite.
fn end_to_end_runs(
    c: &Contract,
    name: &str,
    seeds: impl Iterator<Item = u64>,
    seconds: f64,
) -> Result<Vec<Vec<f64>>, String> {
    let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); c.end_to_end.len()];
    for seed in seeds {
        let o = child(name, seed, seconds, false, &c.end_to_end)?;
        if !o.correct || o.failed > 0.0 {
            return Err(format!("{name} seed {seed}: incorrect or failed operations"));
        }
        for (slot, v) in per_metric.iter_mut().zip(&o.values) {
            slot.push(v.0);
        }
    }
    Ok(per_metric)
}

/// Run the suite. Returns the process exit code.
pub fn run(opts: &Options) -> i32 {
    match run_inner(opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("jc-benchmark: {e}");
            2
        }
    }
}

fn run_inner(opts: &Options) -> Result<i32, String> {
    let c = load_contract()?;
    let mut names = c.workloads.clone();
    if let Some(only) = &opts.workload {
        names.retain(|(n, _)| n == only);
        if names.is_empty() {
            return Err(format!("no workload {only:?} in BENCHMARK.json"));
        }
    }
    let seconds = if opts.quick { 2.0 } else { c.run_seconds };
    let head = format!(
        "\"benchmark\": \"jc_benchmark\", \"seed\": {}, \"run_seconds\": {seconds}, \
         \"comparable\": {},\n  \"machine\": {}",
        opts.seed,
        !opts.quick,
        stats::machine_json()
    );
    match opts.mode {
        Mode::Run => {
            let set = run_set(&c, &names, opts.seed, seconds, opts.quick)?;
            print_table(&set, &c);
            println!(
                "{{\n  {head},\n  \"workloads\": {},\n  \"claim\": null\n}}",
                set_json(&set, &c)
            );
            let ok = set.iter().all(|r| r.end_to_end.correct && r.per_layer.correct);
            Ok(if ok { 0 } else { 1 })
        }
        Mode::Selfcheck => {
            let mut outside = 0;
            let mut rows = Vec::new();
            eprintln!(
                "\nA/A: the same commit, the same seed, {SELFCHECK_PAIRS} pairs of runs per workload"
            );
            for (name, _) in &names {
                // A and B take turns, so a busy spell of the machine falls
                // on both sides; each side's median is what is compared
                let seeds = std::iter::repeat_n(opts.seed, 2 * SELFCHECK_PAIRS);
                let per_metric = end_to_end_runs(&c, name, seeds, seconds)?;
                for (d, v) in c.end_to_end.iter().zip(&per_metric) {
                    let side =
                        |k: usize| -> Vec<f64> { v.iter().skip(k).step_by(2).copied().collect() };
                    let (a, b) = (side(0), side(1));
                    let (ma, mb) = (stats::median(&a), stats::median(&b));
                    let diff = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
                    let over = diff.abs() > d.bound;
                    outside += over as i32;
                    eprintln!(
                        "  {:<20} {:<18} A {:>12.4}  B {:>12.4}  {:>+7.2}%  bound {:>3.0}%{}",
                        name,
                        d.name,
                        ma,
                        mb,
                        diff * 100.0,
                        d.bound * 100.0,
                        if over { "  OUTSIDE" } else { "" }
                    );
                    rows.push(format!(
                        "{{\"workload\": \"{name}\", \"metric\": \"{}\", \"a\": {}, \"b\": {}, \
                         \"a_median\": {}, \"b_median\": {}, \"relative_difference\": {}, \
                         \"bound\": {}, \"within_bound\": {}}}",
                        d.name,
                        json_list(&a),
                        json_list(&b),
                        stats::json_num(ma),
                        stats::json_num(mb),
                        stats::json_num(diff),
                        d.bound,
                        !over
                    ));
                }
            }
            println!(
                "{{\n  {head},\n  \"selfcheck\": [\n    {}\n  ],\n  \"claim\": null\n}}",
                rows.join(",\n    ")
            );
            Ok(if outside == 0 { 0 } else { 1 })
        }
        Mode::Spread(n) => {
            let mut rows = Vec::new();
            let mut outside = 0;
            for (name, _) in &names {
                let seeds = opts.seed..opts.seed + n as u64;
                let per_metric = end_to_end_runs(&c, name, seeds, seconds)?;
                eprintln!("\n{name}: {n} seeds from {}", opts.seed);
                for (d, v) in c.end_to_end.iter().zip(&per_metric) {
                    let [q1, q2, q3] = stats::quartiles(v);
                    let share = stats::iqr_share(v);
                    // set-up time is exempt from the spread rule (its
                    // medians are compared instead)
                    let over = share > d.bound && d.name != "setup_s";
                    outside += over as i32;
                    eprintln!(
                        "  {:<18} median {:>12.4} {:<5} quartiles {:>12.4} … {:>12.4}  IQR/median \
                         {:>6.2}%  bound {:>3.0}% (target {:>4.1}%){}",
                        d.name,
                        q2,
                        d.unit,
                        q1,
                        q3,
                        share * 100.0,
                        d.bound * 100.0,
                        d.bound / 3.0 * 100.0,
                        if over {
                            "  OUTSIDE"
                        } else if share > d.bound / 3.0 {
                            "  above target"
                        } else {
                            ""
                        }
                    );
                    rows.push(format!(
                        "{{\"workload\": \"{name}\", \"metric\": \"{}\", \"values\": {}, \
                         \"median\": {}, \"iqr_share\": {}, \"bound\": {}}}",
                        d.name,
                        json_list(v),
                        stats::json_num(q2),
                        stats::json_num(share),
                        d.bound
                    ));
                }
            }
            println!(
                "{{\n  {head},\n  \"spread\": [\n    {}\n  ],\n  \"claim\": null\n}}",
                rows.join(",\n    ")
            );
            Ok(if outside == 0 { 0 } else { 1 })
        }
    }
}
