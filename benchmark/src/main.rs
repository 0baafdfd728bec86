//! `jc-benchmark` — one measured run, or the suite.
//!
//! ```text
//! jc-benchmark --workload NAME --seed N --seconds S --trace 0|1    one run, one JSON line
//! jc-benchmark run [--seed N] [--workload NAME] [--quick]          every workload, both modes
//! jc-benchmark run --selfcheck                                     the set twice, compared (A/A)
//! jc-benchmark run --spread N                                      N seeds per workload: IQR/median
//! ```
//!
//! Use `run.sh` rather than this binary directly: it builds offline and
//! picks the counting-allocator build for traced runs.

use jc_benchmark::suite::{self, Mode, Options};
use jc_benchmark::{detail_json, result_line, run_workload, write_out};

fn usage() -> ! {
    eprintln!(
        "usage: jc-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
         jc-benchmark run [--seed N] [--workload NAME] [--quick] [--selfcheck | --spread N]\n\
         workloads: {}",
        jc_benchmark::metrics::WORKLOADS.join(", ")
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let suite_mode = args.peek().map(String::as_str) == Some("run");
    if suite_mode {
        args.next();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 39u64, None, false);
    let (mut mode, mut quick) = (Mode::Run, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = Some(value().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" if suite_mode => quick = true,
            "--selfcheck" if suite_mode => mode = Mode::Selfcheck,
            "--spread" if suite_mode => {
                mode = Mode::Spread(
                    value().parse().ok().filter(|n| *n >= 2).unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    if suite_mode {
        std::process::exit(suite::run(&Options { mode, seed, workload, quick }));
    }

    let (Some(workload), Some(seconds)) = (workload, seconds) else { usage() };
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    let Some(out) = run_workload(&workload, seed, seconds, trace) else { usage() };
    for note in &out.notes {
        eprintln!("[{workload}] {note}");
    }
    let detail = format!("run-{workload}-trace{}.json", trace as u8);
    if let Err(e) = write_out(&detail, &detail_json(&out)) {
        eprintln!("[{workload}] {e}");
    }
    println!("{}", result_line(&out));
    // a run that measured wrong outputs still reports them (correct:
    // false, failed > 0); only a run that could not measure exits non-zero
    if out.metrics.is_empty() {
        std::process::exit(1);
    }
}
