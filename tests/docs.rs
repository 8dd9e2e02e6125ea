//! The prose stays true to the repository: every `DESIGN §N` a source file
//! or document cites names a section that exists, the numbers
//! EXPERIMENTS.md quotes from a checked-in result file are that file's, and
//! the result files hold the paper's claims by the judge `paper` runs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use sli_bench::paper::{factors, judge, records, Results, PAPER, TABLE1};
use sli_bench::{knee_index, RunSummary};
use sli_workload::Csv;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The section numbers a text cites as `DESIGN §N` or `DESIGN.md §N`,
/// including a citation wrapped onto the next comment line.
fn design_citations(text: &str) -> Vec<u32> {
    let mut cited = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let rest = text[at + "DESIGN".len()..].trim_start_matches(".md");
        let rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == '/' || c == '!');
        let Some(number) = rest.strip_prefix('§') else {
            continue;
        };
        let digits: String = number.chars().take_while(char::is_ascii_digit).collect();
        // A placeholder such as `§N` in prose about citations is not one.
        if let Ok(n) = digits.parse() {
            cited.push(n);
        }
    }
    cited
}

#[test]
fn every_design_citation_names_an_existing_section() {
    let design = read(&root().join("DESIGN.md"));
    let sections: Vec<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## ")?.split_once(". ")?.0.parse().ok())
        .collect();
    let mut files = Vec::new();
    rust_files(&root().join("crates"), &mut files);
    rust_files(&root().join("tests"), &mut files);
    files.extend(["README.md", "EXPERIMENTS.md"].map(|f| root().join(f)));
    let mut citations = 0;
    for file in &files {
        for n in design_citations(&read(file)) {
            citations += 1;
            assert!(
                sections.contains(&n),
                "{} cites DESIGN §{n}, which has no `## {n}.` heading",
                file.display()
            );
        }
    }
    assert!(citations >= 20, "found only {citations} citations");
}

/// The first pipe table after `heading` in `text`: header cells, then one
/// cell vector per body row.
fn table_after(text: &str, heading: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let at = text
        .find(heading)
        .unwrap_or_else(|| panic!("no {heading:?}"));
    let mut rows = text[at..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let cells = l.trim().trim_matches('|').split('|');
            cells.map(|c| c.trim().to_owned()).collect::<Vec<_>>()
        });
    let header = rows.next().expect("a table header");
    let body = rows.skip(1).collect();
    (header, body)
}

/// `csv` rendered at the precision `printed` shows, so `8.52` matches
/// `8.523` but not `8.53`; text cells compare as they are.
fn agrees(printed: &str, csv: &str) -> bool {
    match (printed.parse::<f64>(), csv.parse::<f64>()) {
        (Ok(_), Ok(value)) => {
            let decimals = printed.split_once('.').map_or(0, |(_, d)| d.len());
            format!("{value:.decimals$}") == printed
        }
        _ => printed == csv,
    }
}

/// The text of `results/{name}`.
fn result(name: &str) -> String {
    read(&root().join("results").join(name))
}

/// The records of `results/{name}`, header first.
fn csv(name: &str) -> Vec<Vec<String>> {
    records(&result(name))
}

/// The position of column `name` in the header record of `results/{file}`.
fn column(records: &[Vec<String>], name: &str, file: &str) -> usize {
    records[0]
        .iter()
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("{file} has no {name} column"))
}

fn experiments() -> String {
    read(&root().join("EXPERIMENTS.md"))
}

/// Asserts that each table row quotes the record of `results/{name}` in
/// the same place, cell for cell.
fn assert_quotes(rows: &[Vec<String>], records: &[Vec<String>], name: &str) {
    assert_eq!(rows.len(), records.len(), "one table row per {name} record");
    for (row, record) in rows.iter().zip(records) {
        assert_eq!(row.len(), record.len(), "{row:?}");
        for (printed, value) in row.iter().zip(record) {
            assert!(
                agrees(printed, value),
                "EXPERIMENTS.md reads {printed}, results/{name} {value} (row {row:?})"
            );
        }
    }
}

#[test]
fn the_contention_table_quotes_its_csv() {
    let (header, rows) = table_after(&experiments(), "### Contention");
    let records = csv("contention.csv");
    assert_eq!(header, records[0]);
    assert_quotes(&rows, &records[1..], "contention.csv");
}

/// One row per combination of `knee.csv`, in its order: the knee rate
/// [`knee_index`] finds in the combination's rate sweep, and the achieved
/// throughput at the sweep's heaviest rate, 16 sessions/s.
#[test]
fn the_knee_table_quotes_its_csv() {
    let (_, rows) = table_after(&experiments(), "### Saturation knee");
    let records = csv("knee.csv");
    let col = |name| column(&records, name, "knee.csv");
    let (arch, rps) = (col("arch"), col("session_rps"));
    let number = |r: &[String], name| -> f64 { r[col(name)].parse().expect("a number") };
    let mut combos: Vec<&str> = records[1..].iter().map(|r| r[arch].as_str()).collect();
    combos.dedup();
    assert_eq!(
        rows.iter().map(|r| r[0].as_str()).collect::<Vec<_>>(),
        combos
    );
    for row in &rows {
        let sweep: Vec<&[String]> = records[1..]
            .iter()
            .filter(|r| r[arch] == row[0])
            .map(Vec::as_slice)
            .collect();
        let points: Vec<RunSummary> = sweep
            .iter()
            // The three columns the knee is judged by; the rest are unread.
            .map(|r| RunSummary {
                offered_tps: number(r, "offered_tps"),
                achieved_tps: number(r, "achieved_tps"),
                latency_ms: number(r, "latency_ms"),
                delay_ms: 0.0,
                latency_stdev_ms: 0.0,
                latency_p50_ms: 0.0,
                latency_p95_ms: 0.0,
                latency_p99_ms: 0.0,
                service_ms: 0.0,
                queue_wait_p95_ms: 0.0,
                peak_queue_depth: 0,
                shared_bytes_per_interaction: 0.0,
                round_trips_per_interaction: 0.0,
                round_trips: 0,
                ok: 0,
                failed: 0,
            })
            .collect();
        let knee = knee_index(&points).map_or("none", |at| sweep[at][rps].as_str());
        let heaviest = sweep.last().expect("a swept combination");
        assert_eq!(heaviest[rps], "16.00", "{}", row[0]);
        for (printed, value) in [(&row[1], knee), (&row[2], &heaviest[col("achieved_tps")])] {
            assert!(
                agrees(printed, value),
                "EXPERIMENTS.md reads {printed} for {}, results/knee.csv {value}",
                row[0]
            );
        }
    }
}

/// Each cell is the median (the upper one of an even count) and the range
/// of the combinations' detection latencies for that detector and fault,
/// or the one latency when a single combination detected it.
#[test]
fn the_time_to_detect_table_summarises_its_csv() {
    let (header, rows) = table_after(&experiments(), "### Time-to-detect");
    let records = csv("monitor_ttd.csv");
    let col = |name| column(&records, name, "monitor_ttd.csv");
    let (fault, detector, ttd) = (col("fault"), col("detector"), col("ttd_ms"));
    let all = |c: usize| -> BTreeSet<&str> { records[1..].iter().map(|r| r[c].as_str()).collect() };
    assert_eq!(
        header[1..]
            .iter()
            .map(String::as_str)
            .collect::<BTreeSet<_>>(),
        all(fault)
    );
    assert_eq!(
        rows.iter().map(|r| r[0].as_str()).collect::<BTreeSet<_>>(),
        all(detector)
    );
    for row in &rows {
        for (f, printed) in header[1..].iter().zip(&row[1..]) {
            let mut ttds: Vec<&str> = records[1..]
                .iter()
                .filter(|r| r[detector] == row[0] && r[fault] == *f)
                .map(|r| r[ttd].as_str())
                .collect();
            ttds.sort_by(|a, b| a.parse::<f64>().unwrap().total_cmp(&b.parse().unwrap()));
            let expected = match ttds[..] {
                [] => panic!("no {} detection under {f} in monitor_ttd.csv", row[0]),
                [one] => one.to_owned(),
                [first, .., last] => format!("{} [{first}..{last}]", ttds[ttds.len() / 2]),
            };
            assert_eq!(
                *printed, expected,
                "EXPERIMENTS.md's {} cell under {f} is not monitor_ttd.csv's",
                row[0]
            );
        }
    }
}

/// Each detector's count is the number of (combination, fault) pairs on
/// which it fired strictly before every other detector; a shared earliest
/// instant counts for none. Every detector must lead somewhere, and with no
/// ties the counts cover every pair.
#[test]
fn the_first_to_page_table_counts_its_csv() {
    let (_, rows) = table_after(&experiments(), "#### First to page");
    let records = csv("monitor_ttd.csv");
    let col = |name| column(&records, name, "monitor_ttd.csv");
    let (arch, fault, detector, at) = (
        col("arch"),
        col("fault"),
        col("detector"),
        col("detected_at_us"),
    );
    let mut pairs: BTreeMap<(&str, &str), Vec<(u64, &str)>> = BTreeMap::new();
    let mut first: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &records[1..] {
        let fired = r[at].parse().expect("an integer detected_at_us");
        let pair = (r[arch].as_str(), r[fault].as_str());
        pairs
            .entry(pair)
            .or_default()
            .push((fired, r[detector].as_str()));
        first.entry(r[detector].as_str()).or_default();
    }
    for fired in pairs.values_mut() {
        fired.sort_unstable();
        match fired[..] {
            [(t, _), (u, _), ..] if t == u => {}
            [(_, lead), ..] => *first.get_mut(lead).expect("a counted detector") += 1,
            [] => unreachable!("a pair is made by its first row"),
        }
    }
    for (name, n) in &first {
        assert_ne!(
            *n, 0,
            "{name} is never strictly first to page in monitor_ttd.csv"
        );
    }
    assert_eq!(
        first.values().sum::<usize>(),
        pairs.len(),
        "a pair's first page is tied"
    );
    assert_eq!(
        rows.len(),
        first.len(),
        "one table row per monitor_ttd.csv detector"
    );
    for row in &rows {
        let n = first
            .get(row[0].as_str())
            .unwrap_or_else(|| panic!("{} has no row in monitor_ttd.csv", row[0]));
        assert_eq!(
            row[1],
            n.to_string(),
            "EXPERIMENTS.md's count for {}",
            row[0]
        );
    }
}

#[test]
fn the_latency_figures_quote_their_csvs() {
    for (heading, name) in [("## Figure 6", "fig6.csv"), ("## Figure 7", "fig7.csv")] {
        let (_, rows) = table_after(&experiments(), heading);
        assert_quotes(&rows, &csv(name)[1..], name);
    }
}

#[test]
fn table_2_and_its_factors_quote_the_csv() {
    let text = experiments();
    let (_, rows) = table_after(&text, "## Table 2");
    let records = csv("table2.csv");
    let records = &records[1..];
    assert_eq!(rows.len(), records.len(), "one row per algorithm");
    for (row, record) in rows.iter().zip(records) {
        assert_eq!(row[0].to_lowercase().replace(' ', "_"), record[0]);
        assert_eq!(row.len(), record.len(), "{row:?}");
        for (cell, value) in row[1..].iter().zip(&record[1..]) {
            // `measured (paper)`; an architecture without the algorithm
            // is `N/A` here and an empty cell there.
            let measured = cell.split(" (").next().expect("a measured value");
            let value = if value.is_empty() { "N/A" } else { value };
            assert!(
                agrees(measured, value),
                "EXPERIMENTS.md reads {cell}, results/table2.csv {value} (row {row:?})"
            );
        }
    }

    // Each factor in bold, then the paper's in bold.
    let measured = Results::read(&result("table2.csv"), &result("fig8.csv"));
    let factors_at = &text[text.find("Relative factors").expect("the factors")..];
    for ((name, ratio), (_, paper)) in factors(&measured).into_iter().zip(factors(&PAPER)) {
        let label = format!("{name} = **");
        let at = factors_at.find(&label).expect("a quoted factor") + label.len();
        let mut bold = factors_at[at..].split("**").step_by(2);
        for (value, file) in [(ratio, "results/table2.csv"), (paper, "the paper")] {
            let printed = bold.next().expect("a bold number");
            assert!(
                agrees(printed, &value.to_string()),
                "EXPERIMENTS.md quotes {name} = {printed} where {file} gives {value}"
            );
        }
    }
}

#[test]
fn figure_8_quotes_its_bytes() {
    let (_, rows) = table_after(&experiments(), "## Figure 8");
    let records = csv("fig8.csv");
    assert_eq!(rows.len(), records.len() - 1, "one row per architecture");
    for row in &rows {
        let record = records[1..]
            .iter()
            .find(|r| r[0] == row[0])
            .unwrap_or_else(|| panic!("results/fig8.csv has no {:?}", row[0]));
        assert!(
            agrees(&row[1], &record[1]),
            "EXPERIMENTS.md reads {} bytes for {}, results/fig8.csv {}",
            row[1],
            row[0],
            record[1]
        );
    }
}

#[test]
fn table_1_quotes_its_csv() {
    let (header, rows) = table_after(&experiments(), "## Table 1");
    let records = csv("table1.csv");
    let record = |combination: &str, action: &str| {
        let found = records
            .iter()
            .find(|r| r[0] == combination && r[1] == action);
        found.unwrap_or_else(|| panic!("results/table1.csv has no {combination} {action}"))
    };
    let vanilla = records.iter().filter(|r| r[0] == "ES/RDB (Vanilla EJBs)");
    assert_eq!(rows.len(), vanilla.count(), "one row per action in the mix");
    assert_eq!(header.len(), 7, "{header:?}");
    for row in &rows {
        let vanilla = record("ES/RDB (Vanilla EJBs)", &row[0]);
        assert_eq!(row[1], vanilla[2], "interactions of {}", row[0]);
        assert_eq!(row[2], vanilla[4], "observed DB activity of {}", row[0]);
        let (key, paper) = (format!("{} | ", row[0]), format!(" | {}", row[3]));
        let quoted = TABLE1
            .iter()
            .any(|r| r.starts_with(&key) && r.ends_with(&paper));
        assert!(quoted, "{}: not TABLE1's DB activity", row[0]);
        for (printed, flavor) in row[4..].iter().zip(["JDBC", "Vanilla EJBs", "Cached EJBs"]) {
            let r = record(&format!("ES/RDB ({flavor})"), &row[0]);
            let trips = r[3].parse::<f64>().unwrap() / r[2].parse::<f64>().unwrap();
            assert!(
                agrees(printed, &trips.to_string()),
                "EXPERIMENTS.md reads {printed} trips for {} on {flavor}, results/table1.csv {trips}",
                row[0]
            );
        }
    }
}

/// `text` with `value` in `column` of the record whose leading cells are
/// `row`.
fn moved(text: &str, row: &[&str], column: usize, value: &str) -> String {
    let mut records = records(text);
    let lead = |r: &&mut Vec<String>| r.get(..row.len()).is_some_and(|lead| lead == row);
    let record = records.iter_mut().find(lead);
    record.unwrap_or_else(|| panic!("no record {row:?}"))[column] = value.to_owned();
    let header: Vec<&str> = records[0].iter().map(String::as_str).collect();
    let mut csv = Csv::new(&header);
    for record in &records[1..] {
        csv.row(record.clone());
    }
    csv.render()
}

/// The three checked-in result tables, by name and as text.
fn results() -> ([&'static str; 3], [String; 3]) {
    let names = ["table1.csv", "table2.csv", "fig8.csv"];
    (names, names.map(result))
}

/// Each `(table, record, column, value, claim)` in `moves`, made alone on
/// `tables`, fails the judge's claim named `claim`.
fn each_move_fails_its_claim(
    names: &[&str; 3],
    tables: &[String; 3],
    moves: &[(usize, &[&str], usize, &str, &str)],
) {
    for &(table, row, column, value, claim) in moves {
        let mut tables = tables.clone();
        tables[table] = moved(&tables[table], row, column, value);
        let [table1, table2, fig8] = &tables;
        let failures = judge(table1, table2, fig8);
        assert!(
            failures.iter().any(|f| f.starts_with(claim)),
            "{claim} holds with {value} in {} {row:?}: {failures:#?}",
            names[table]
        );
    }
}

/// The checked-in tables hold every claim `paper` judges a run by, and one
/// moved cell fails the band, ordering or Table 1 claim that reads it,
/// named in the failures.
#[test]
fn the_results_keep_the_papers_claims_within_their_bands() {
    let (names, tables) = results();
    let [table1, table2, fig8] = &tables;
    assert_eq!(judge(table1, table2, fig8), Vec::<String>::new());
    // A table re-rendered with nothing moved is the same bytes.
    for (name, text) in names.iter().zip(&tables) {
        assert_eq!(moved(text, &[], 0, &csv(name)[0][0]), *text, "{name}");
    }

    let (rbes, ras) = ("ES/RBES (Cached EJBs)", "Clients/RAS (JDBC)");
    let vanilla = "ES/RDB (Vanilla EJBs)";
    let dropped = "Account R, U; Holding R; Quote R";
    // (table, record, column, value, the claim it must fail)
    let moves: [(usize, &[&str], usize, &str, &str); 10] = [
        (1, &["vanilla_ejbs"], 1, "20.00", "vanilla/JDBC"),
        (1, &["cached_ejbs"], 1, "3.40", "cached/JDBC"),
        (1, &["cached_ejbs"], 2, "4.00", "ES/RDB-cached / ES/RBES"),
        (1, &["jdbc"], 3, "2.10", "Clients/RAS JDBC"),
        (1, &["vanilla_ejbs"], 1, "1.00", "ES/RDB cached < vanilla"),
        (1, &["cached_ejbs"], 2, "40.00", "ES/RBES cached < "),
        (1, &["cached_ejbs"], 2, "1.00", "Clients/RAS floor < "),
        (2, &[rbes], 1, "400", "Fig. 8 bytes ES/RDB (JDBC) < ES/RBES"),
        (2, &[ras], 1, "800", "Fig. 8 bytes ES/RBES < Clients/RAS"),
        (0, &[vanilla, "buy"], 4, dropped, "Table 1 buy"),
    ];
    each_move_fails_its_claim(&names, &tables, &moves);
}

/// Table 2's slopes and Fig. 8's trips are the ledger's delayed round trips
/// per interaction at print precision, one per combination: a moved ledger
/// count, slope or bar fails the identity that reads it.
#[test]
fn table_2_and_figure_8_are_table_1s_delayed_round_trips() {
    let (names, tables) = results();
    let [table1, table2, fig8] = &tables;
    assert_eq!(judge(table1, table2, fig8), Vec::<String>::new());

    let jdbc = "ES/RDB (JDBC)";
    let moves: [(usize, &[&str], usize, &str, &str); 4] = [
        (0, &[jdbc, "account"], 3, "602", "Table 2 ES/RDB (JDBC)"),
        (1, &["jdbc"], 3, "2.01", "Table 2 Clients/RAS (JDBC)"),
        (2, &[jdbc], 2, "1.99", "Fig. 8 trips ES/RDB (JDBC)"),
        (1, &["jdbc"], 2, "2.00", "Every Table 2 cell"),
    ];
    each_move_fails_its_claim(&names, &tables, &moves);
}
