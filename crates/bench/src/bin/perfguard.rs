//! Performance baseline recorder.
//!
//! Because the testbed runs on virtual time, every metric is a pure
//! function of the code and the seeds. `perfguard` measures the guarded
//! points — four closed-loop combinations at 20 ms and two open-loop
//! loaded points at 10 ms, each on its quick protocol and the paper's
//! wire, then the JDBC loaded point again on the batched wire — prints
//! them as `point,metric,value` and writes the same CSV to
//! `results/perfguard.csv` (checked in). There is no separate check: the
//! gate is
//!
//! ```text
//! cargo run --release -p sli-bench --bin perfguard
//! git diff --exit-code -- results/perfguard.csv
//! ```
//!
//! and a moved metric shows in the diff as the line naming its point and
//! metric. A change that moves one on purpose commits the re-recorded file.

use sli_bench::{guard_csv, guard_suite, results_dir, ArtifactSet, Cli};

fn main() {
    Cli::new(
        "perfguard",
        "Records the guarded performance metrics to results/perfguard.csv",
    )
    .parse();
    let csv = guard_csv(&guard_suite());
    print!("{}", csv.render());
    let out = ArtifactSet {
        csvs: vec![("perfguard", csv)],
        ..ArtifactSet::default()
    };
    out.write_or_exit(results_dir(false), "perfguard");
}
