//! `slicheck` — drives the schedule-exploring serializability checker
//! from the command line.
//!
//! Each run picks an architecture × flavor combination and a seed, puts
//! its bank clients on that combination's data tier (the assembly the
//! figures measure, [`sli_arch::DataTier`]) and executes them under a
//! deterministic scheduler ([`sli_arch::run_slicheck`]), then checks the recorded
//! operation history for serializability and the SLI invariants. The
//! default is a seed sweep over all seven combinations; on a violation the
//! failing schedule is shrunk to a minimal prefix and exported as
//! `results/slicheck-counterexample.json` (validated against
//! `sli-edge.slicheck-counterexample/v2`), and the process exits non-zero.
//!
//! `--inject-bug` seeds a deliberately broken validate-apply variant
//! (updates skip before-image validation — the classic lost update) and
//! *inverts* the exit code: the run succeeds only if the checker catches
//! the bug. CI runs both modes: a clean sweep must stay clean, and the
//! seeded bug must be found.
//!
//! `--crashes N` lets the scheduler interleave N backend kill/restart
//! cycles (WAL replay + dedup reseed) with the clients, checking that no
//! acknowledged commit is ever lost. `--inject-wal-bug` arms the
//! torn-commit bug — the WAL acknowledges group-commit flushes it actually
//! drops — and inverts the exit code like `--inject-bug`: the run succeeds
//! only if the checker catches a lost committed write. Unlike the
//! lost-update bug, the WAL bug lives in the shared datastore, so every
//! combination supports it.
//!
//! `--faults PER_MILLE` makes the edge ↔ back-end request path lossy
//! (drops, duplicates, refusals). Only ES/RBES has that path, so like
//! `--inject-bug` the flag narrows the sweep to the combinations it
//! reaches and is a usage error when none is left.
//!
//! `--exhaustive <DEPTH>` switches from seeded random walks to bounded-
//! exhaustive enumeration of every interleaving whose first `DEPTH`
//! scheduling decisions differ, at most [`MAX_EXHAUSTIVE_RUNS`] runs per
//! combination.

use sli_arch::{
    arch_by_key, arch_key, counterexample_json, run_slicheck, shrink_schedule, Architecture,
    Flavor, ScheduleSource, SliCheckConfig, SliCheckOutcome, ARCH_KEYS,
};
use sli_bench::Cli;
use sli_simnet::{ExhaustiveExplorer, FaultPlan};
use sli_telemetry::validate;

/// Where the counterexample export lands.
const COUNTEREXAMPLE_PATH: &str = "results/slicheck-counterexample.json";

/// Cap on exhaustive runs per combination.
const MAX_EXHAUSTIVE_RUNS: u64 = 20_000;

/// Whether the seeded lost-update bug can reach this combination's commit
/// path (the pessimistic flavors never run optimistic validation).
fn supports_injected_bug(arch: Architecture) -> bool {
    matches!(
        arch,
        Architecture::EsRdb(Flavor::CachedEjb)
            | Architecture::ClientsRas(Flavor::CachedEjb)
            | Architecture::EsRbes
    )
}

/// Whether `--faults` reaches this combination: the plan lands on the
/// edge ↔ back-end request path ([`SliCheckConfig::faults`]).
fn supports_faults(arch: Architecture) -> bool {
    arch == Architecture::EsRbes
}

fn parse_u64(args: &sli_bench::CliArgs, name: &str, default: u64) -> u64 {
    args.value(name, "a non-negative integer", |_| true)
        .unwrap_or(default)
}

/// One violating run, shrunk and exported. Returns the shrunk outcome.
fn report_violation(cfg: &SliCheckConfig, outcome: &SliCheckOutcome) -> SliCheckOutcome {
    let choices: Vec<u32> = outcome.schedule.iter().map(|s| s.choice).collect();
    let (shrunk, shrunk_outcome) = shrink_schedule(cfg, &choices);
    println!(
        "  violation on {} seed {}: {} -> shrunk schedule {} of {} steps",
        arch_key(cfg.arch),
        cfg.seed,
        shrunk_outcome
            .violations
            .first()
            .map_or_else(|| "?".to_owned(), |v| v.kind.clone()),
        shrunk.len(),
        choices.len(),
    );
    for v in &shrunk_outcome.violations {
        println!("    [{}] {}", v.kind, v.details);
    }
    let doc = counterexample_json(cfg, &shrunk_outcome);
    if let Err(e) = validate(&doc) {
        eprintln!("error: counterexample failed its own validator: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::create_dir_all("results")
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::write(COUNTEREXAMPLE_PATH, doc.render()).map_err(|e| e.to_string()))
    {
        eprintln!("error: writing {COUNTEREXAMPLE_PATH}: {e}");
        std::process::exit(1);
    }
    println!("  wrote {COUNTEREXAMPLE_PATH}");
    shrunk_outcome
}

fn main() {
    let args = Cli::new(
        "slicheck",
        "Schedule-exploring serializability checker for the OCC commit protocol",
    )
    .option("arch", "KEY", "one combination (e.g. es-rbes) or 'all'")
    .option("seed", "N", "run exactly one seed instead of a sweep")
    .option(
        "seeds",
        "N",
        "seeds per combination in sweep mode (default 256)",
    )
    .option("clients", "N", "concurrent logical clients (default 3)")
    .option(
        "faults",
        "PER_MILLE",
        "lossy edge<->backend request path (narrows the sweep to es-rbes)",
    )
    .option(
        "exhaustive",
        "DEPTH",
        "bounded-exhaustive exploration instead of random walks",
    )
    .option(
        "crashes",
        "N",
        "backend kill/restart cycles the scheduler interleaves (default 0)",
    )
    .flag(
        "inject-bug",
        "seed the lost-update bug; succeed only if it is caught",
    )
    .flag(
        "inject-wal-bug",
        "seed the torn-commit WAL bug; succeed only if it is caught",
    )
    .parse();

    let archs: Vec<Architecture> = match args.get("arch") {
        None | Some("all") => ARCH_KEYS
            .iter()
            .map(|k| arch_by_key(k).expect("built-in key"))
            .collect(),
        Some(key) => match arch_by_key(key) {
            Some(arch) => vec![arch],
            None => {
                eprintln!(
                    "error: unknown --arch {key:?} (expected one of {}, or 'all')",
                    ARCH_KEYS.join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    let inject_bug = args.has("inject-bug");
    let inject_wal_bug = args.has("inject-wal-bug");
    // The counterexample carries the seed as a JSON number, exact below 2^53.
    let single_seed: Option<u64> = args.value("seed", "an integer below 2^53", |v| *v < 1 << 53);
    let seeds = parse_u64(&args, "seeds", 256);
    let per_mille: u64 = args
        .value("faults", "a per-mille rate in 0..=1000", |v| *v <= 1000)
        .unwrap_or(0);
    // A flag that reaches only some combinations narrows the sweep to them;
    // a sweep that would run without the flag's effect is a usage error.
    let narrowing = [
        (
            inject_bug,
            supports_injected_bug as fn(Architecture) -> bool,
            "--inject-bug needs an optimistic commit path \
             (es-rdb-cached, clients-ras-cached or es-rbes)",
        ),
        (
            per_mille > 0,
            supports_faults,
            "--faults needs the edge<->back-end request path (es-rbes)",
        ),
    ];
    let mut archs = archs;
    for (_, reaches, needs) in narrowing.into_iter().filter(|(on, ..)| *on) {
        archs.retain(|&a| reaches(a));
        if archs.is_empty() {
            eprintln!("error: {needs}");
            std::process::exit(2);
        }
    }
    let exhaustive_depth: Option<usize> = args.value("exhaustive", "a depth", |_| true);
    // The torn-commit bug only bites when something crashes and recovers,
    // so arming it implies at least one crash cycle.
    let floor = u64::from(inject_wal_bug);
    let crashes = parse_u64(&args, "crashes", floor).max(floor) as u32;

    let make_cfg = |arch: Architecture, seed: u64| {
        let mut cfg = SliCheckConfig::new(arch, seed);
        cfg.clients = parse_u64(&args, "clients", u64::from(cfg.clients)) as u32;
        if per_mille > 0 {
            cfg.faults = FaultPlan::lossy(seed, per_mille as u16);
        }
        cfg.inject_bug = inject_bug;
        cfg.crashes = crashes;
        cfg.inject_wal_bug = inject_wal_bug;
        cfg
    };

    let mut total_runs = 0u64;
    let mut total_committed = 0usize;
    let mut caught: Option<(SliCheckConfig, SliCheckOutcome)> = None;

    'outer: for &arch in &archs {
        let key = arch_key(arch);
        if let Some(depth) = exhaustive_depth {
            // Bounded-exhaustive: one seed fixes the client programs, the
            // explorer enumerates every schedule prefix up to `depth`.
            let seed = single_seed.unwrap_or(1);
            let cfg = make_cfg(arch, seed);
            let mut explorer = ExhaustiveExplorer::new(depth);
            while let Some(script) = explorer.script() {
                let outcome = run_slicheck(&cfg, ScheduleSource::Replay(script));
                total_runs += 1;
                total_committed += outcome.committed;
                if !outcome.violations.is_empty() {
                    let shrunk = report_violation(&cfg, &outcome);
                    caught = Some((cfg, shrunk));
                    break 'outer;
                }
                explorer.advance(&outcome.schedule);
                if explorer.runs() >= MAX_EXHAUSTIVE_RUNS {
                    println!(
                        "  {key}: {MAX_EXHAUSTIVE_RUNS} runs reached before the tree was exhausted"
                    );
                    break;
                }
            }
            println!(
                "ok   {key}: {} schedule(s) explored exhaustively (depth {depth}), 0 violations",
                explorer.runs()
            );
        } else {
            let seed_range = match single_seed {
                Some(s) => s..s + 1,
                None => 1..seeds + 1,
            };
            let mut committed = 0usize;
            let mut aborted = 0usize;
            for seed in seed_range.clone() {
                let cfg = make_cfg(arch, seed);
                let outcome = run_slicheck(&cfg, ScheduleSource::Random(seed));
                total_runs += 1;
                committed += outcome.committed;
                aborted += outcome.aborted;
                if !outcome.violations.is_empty() {
                    let shrunk = report_violation(&cfg, &outcome);
                    caught = Some((cfg, shrunk));
                    break 'outer;
                }
            }
            total_committed += committed;
            println!(
                "ok   {key}: {} seed(s), {committed} committed / {aborted} aborted txns, 0 violations",
                seed_range.end - seed_range.start
            );
        }
    }

    match (caught, inject_bug || inject_wal_bug) {
        (Some(_), true) => {
            println!("inject-bug: the seeded bug was caught and shrunk, as expected");
        }
        (None, true) => {
            eprintln!(
                "FAIL inject-bug: {total_runs} run(s), {total_committed} committed txns, \
                 but the seeded bug was never detected"
            );
            std::process::exit(1);
        }
        (Some(_), false) => {
            eprintln!("FAIL: consistency violation found (see {COUNTEREXAMPLE_PATH})");
            std::process::exit(1);
        }
        (None, false) => {
            println!("{total_runs} run(s), {total_committed} committed txns, no violations");
        }
    }
}
