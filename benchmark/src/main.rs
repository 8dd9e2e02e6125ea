//! The two-clock benchmark of the sli-edge testbed.
//!
//! ```text
//! sli-benchmark [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out NAME]
//! sli-benchmark compare BASE.json NEW.json
//! sli-benchmark describe
//! ```
//!
//! One process, one thread. Every round's length is fixed by counts;
//! `--seconds` only decides how many extra rounds add wall-clock samples.
//! See `README.md` for the metric and workload glossary.

mod alloc;
mod calib;
mod drivers;
mod e2e;
mod report;
mod run;
mod spans;
mod spec;
mod stack;
mod stats;
#[cfg(test)]
mod tests;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use report::{RunInfo, WorkloadResult};
use spec::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: sli-benchmark [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--out NAME]\n       sli-benchmark compare BASE.json NEW.json\n       \
sli-benchmark describe   (prints BENCHMARK.json)";

/// Parsed command line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 0 and 600".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--out" => {
                let name = value("--out")?;
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                {
                    return Err("--out takes a file stem of letters, digits, _ . -".to_owned());
                }
                args.out = Some(name);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// How long a run's rounds are and how many must happen.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub quick: bool,
    /// Rounds that always run and carry the exact metrics.
    pub exact_rounds: usize,
    /// Wall seconds one workload's rounds may use before it stops adding.
    pub seconds: f64,
}

impl Sizes {
    pub fn sessions(&self, w: &Workload) -> usize {
        if self.quick {
            w.quick_sessions
        } else {
            w.sessions
        }
    }
}

/// One workload's rounds so far, of either kind.
struct Progress<R> {
    workload: Workload,
    rounds: Vec<R>,
    spent_s: f64,
}

/// Runs rounds of `workloads` interleaved round-robin — a noisy minute then
/// hits all of them — until each has its exact rounds and has used its
/// seconds. Round `r` of every workload uses seed `seed + r`.
fn interleave<R>(
    workloads: &[Workload],
    sizes: Sizes,
    seed: u64,
    mut round: impl FnMut(&Workload, u64) -> R,
) -> Vec<(Workload, Vec<R>)> {
    let mut progress: Vec<Progress<R>> = workloads
        .iter()
        .map(|&workload| Progress {
            workload,
            rounds: Vec::new(),
            spent_s: 0.0,
        })
        .collect();
    loop {
        let mut ran = false;
        for p in &mut progress {
            let done = p.rounds.len();
            // Another round must fit in what is left of the budget.
            let next_fits =
                done > 0 && p.spent_s * (done + 1) as f64 / done as f64 <= sizes.seconds;
            if done >= sizes.exact_rounds && !next_fits {
                continue;
            }
            let start = Instant::now();
            p.rounds.push(round(&p.workload, seed + done as u64));
            p.spent_s += start.elapsed().as_secs_f64();
            ran = true;
        }
        if !ran {
            break;
        }
    }
    progress
        .into_iter()
        .map(|p| (p.workload, p.rounds))
        .collect()
}

/// The untraced run: end-to-end metrics on the real testbed.
pub fn run_untraced(workloads: &[Workload], sizes: Sizes, seed: u64) -> Vec<WorkloadResult> {
    interleave(workloads, sizes, seed, |w, round_seed| {
        run::round(w, round_seed, sizes.sessions(w), false)
    })
    .into_iter()
    .map(|(w, rounds)| {
        let (attempted, failed) = e2e::attempts(&rounds);
        WorkloadResult {
            name: w.name,
            attempted,
            failed,
            rounds: rounds.len(),
            metrics: e2e::end_to_end(&rounds, sizes.exact_rounds),
            diagnostics: e2e::diagnostics(&rounds),
            problems: e2e::problems(&rounds),
        }
    })
    .collect()
}

fn run(args: Args) -> Result<bool, String> {
    let workloads: Vec<Workload> = match &args.workload {
        Some(name) => vec![spec::workload(name).ok_or_else(|| {
            let names: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })?],
        None => spec::workloads().to_vec(),
    };
    let sizes = Sizes {
        quick: args.quick,
        exact_rounds: if args.quick { 1 } else { spec::EXACT_ROUNDS },
        seconds: args.seconds.unwrap_or(if args.quick {
            0.0
        } else {
            spec::RUN_SECONDS as f64
        }),
    };
    let results = if args.trace {
        traced::run_traced(&workloads, sizes, args.seed)
    } else {
        run_untraced(&workloads, sizes, args.seed)
    };
    report::print_table(&results);
    let info = RunInfo {
        seed: args.seed,
        seconds: sizes.seconds,
        trace: args.trace,
        quick: args.quick,
    };
    // The full run always leaves a result file; a single workload (the
    // driver's call) does only when asked.
    let out = args.out.or_else(|| {
        args.workload.is_none().then(|| {
            format!(
                "{}-{}",
                if args.trace { "traced" } else { "untraced" },
                args.seed
            )
        })
    });
    if let Some(name) = out {
        let path = report::write_out(&name, &report::to_json(info, &results))
            .map_err(|e| format!("writing the result file: {e}"))?;
        println!("wrote {}", path.display());
    }
    if let [result] = results.as_slice() {
        if args.workload.is_some() {
            println!("{}", report::result_line(result));
        }
    }
    Ok(results.iter().all(WorkloadResult::correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, base, new] => report::compare(base, new),
            _ => Err(USAGE.to_owned()),
        },
        Some("describe") => {
            print!("{}", report::describe());
            return ExitCode::SUCCESS;
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv).and_then(run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("a check failed (see CHECK FAILED / worse above)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
