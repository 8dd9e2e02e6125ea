//! The prose stays true to the repository: every `DESIGN §N` a source file
//! or document cites names a section that exists, the numbers
//! EXPERIMENTS.md quotes from a checked-in result file are that file's, and
//! the result files agree where the paper's identity ties them together.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

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

/// The records of `results/{name}`, header first. A quoted cell may hold
/// commas; no cell here holds a quote.
fn csv(name: &str) -> Vec<Vec<String>> {
    let text = read(&root().join("results").join(name));
    let split = |line: &str| {
        let mut cells = vec![String::new()];
        let mut quoted = false;
        for c in line.chars() {
            match c {
                '"' => quoted = !quoted,
                ',' if !quoted => cells.push(String::new()),
                _ => cells.last_mut().expect("a cell").push(c),
            }
        }
        cells
    };
    text.lines().map(split).collect()
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

/// Each cell is the median (the upper one of an even count) and the range
/// of the combinations' detection latencies for that detector and fault,
/// or the one latency when a single combination detected it.
#[test]
fn the_time_to_detect_table_summarises_its_csv() {
    let (header, rows) = table_after(&experiments(), "### Time-to-detect");
    let records = csv("monitor_ttd.csv");
    let col = |name: &str| {
        records[0]
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("monitor_ttd.csv has no {name} column"))
    };
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

    let slope = |algorithm: &str, column: usize| -> f64 {
        let record = records.iter().find(|r| r[0] == algorithm).expect("a row");
        record[column].parse().expect("a slope")
    };
    let (jdbc, cached) = (slope("jdbc", 1), slope("cached_ejbs", 1));
    let factors = &text[text.find("Relative factors").expect("the factors")..];
    for (label, ratio) in [
        ("vanilla/JDBC = **", slope("vanilla_ejbs", 1) / jdbc),
        ("cached/JDBC = **", cached / jdbc),
        (
            "ES/RDB-cached / ES/RBES = **",
            cached / slope("cached_ejbs", 2),
        ),
    ] {
        let at = factors.find(label).expect("a quoted factor") + label.len();
        let printed = factors[at..].split("**").next().expect("a bold number");
        assert!(
            agrees(printed, &ratio.to_string()),
            "EXPERIMENTS.md quotes {label}{printed}**, results/table2.csv gives {ratio}"
        );
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

/// A DB-activity label (`Registry R, U; Account R`) as its set of
/// `(table, kind)` pairs.
fn activity_pairs(label: &str) -> BTreeSet<(&str, &str)> {
    let parts = label.split("; ").filter_map(|part| part.split_once(' '));
    parts
        .flat_map(|(table, kinds)| kinds.split(", ").map(move |kind| (table, kind)))
        .collect()
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
        assert_eq!(
            activity_pairs(&row[2]),
            activity_pairs(&row[3]),
            "{}: the observed DB activity is not the paper's",
            row[0]
        );
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

/// Where Table 2 and Fig. 8 disagree with Table 1's ledger, one message
/// each. A delayed round trip costs twice the one-way delay and nothing
/// else depends on it, so a combination's Table 2 slope is 2 × its delayed
/// round trips per interaction, and Fig. 8's round trips per interaction
/// are those trips, each at the precision its file prints.
fn identity_failures(
    table1: &[Vec<String>],
    table2: &[Vec<String>],
    fig8: &[Vec<String>],
) -> Vec<String> {
    let mut failures = Vec::new();
    let (mut slopes, mut bars) = (0, 0);
    let mut combinations: Vec<&str> = table1[1..].iter().map(|r| r[0].as_str()).collect();
    combinations.dedup();
    for combination in combinations {
        let rows = table1[1..].iter().filter(|r| r[0] == combination);
        let sum = |column: usize| -> u64 {
            rows.clone()
                .map(|r| r[column].parse::<u64>().unwrap())
                .sum()
        };
        let per = sum(3) as f64 / sum(2) as f64;
        let (arch, flavor) = combination.split_once(" (").expect("`ARCH (Flavor)`");
        let key = flavor
            .trim_end_matches(')')
            .to_lowercase()
            .replace(' ', "_");
        let column = ["ES/RDB", "ES/RBES", "Clients/RAS"]
            .iter()
            .position(|a| *a == arch);
        let row = table2[1..].iter().find(|r| r[0] == key);
        match (row, column) {
            (Some(row), Some(column)) if row[column + 1] == format!("{:.2}", 2.0 * per) => {
                slopes += 1
            }
            _ => failures.push(format!(
                "{combination}: 2 x {per} trips per interaction is not its table2.csv slope"
            )),
        }
        if let Some(bar) = fig8[1..]
            .iter()
            .find(|r| r[0].replace(", supplementary", "") == combination)
        {
            if bar[2] == format!("{per:.2}") {
                bars += 1;
            } else {
                failures.push(format!(
                    "{combination}: {per} trips per interaction, fig8.csv reads {}",
                    bar[2]
                ));
            }
        }
    }
    let cells = table2[1..]
        .iter()
        .flat_map(|r| &r[1..])
        .filter(|c| !c.is_empty())
        .count();
    if (slopes, bars) != (cells, fig8.len() - 1) {
        failures.push(format!(
            "{slopes} of {cells} slopes and {bars} of {} bars agree",
            fig8.len() - 1
        ));
    }
    failures
}

#[test]
fn table_2_and_figure_8_are_table_1s_delayed_round_trips() {
    let (table1, table2, fig8) = (csv("table1.csv"), csv("table2.csv"), csv("fig8.csv"));
    assert_eq!(
        identity_failures(&table1, &table2, &fig8),
        Vec::<String>::new()
    );

    // One moved cell in either file breaks the identity, and the failure
    // names the combination.
    let names = |failures: Vec<String>, combination: &str| {
        failures.iter().any(|f| f.starts_with(combination))
    };
    let mut moved = table1.clone();
    assert_eq!(moved[1][0], "ES/RDB (JDBC)");
    let trips: u64 = moved[1][3].parse().unwrap();
    moved[1][3] = (trips + 300).to_string();
    assert!(names(
        identity_failures(&moved, &table2, &fig8),
        "ES/RDB (JDBC)"
    ));
    let mut moved = table2.clone();
    assert_eq!(moved[2][0], "jdbc");
    moved[2][3] = "2.01".to_owned();
    assert!(names(
        identity_failures(&table1, &moved, &fig8),
        "Clients/RAS (JDBC)"
    ));
}

/// The paper's claims as bands over Table 2 and Figure 8, each failure
/// naming its claim. The bands are set from the spread over seeds, so a
/// checked-in cell outside one is a finding, not noise.
fn band_failures(table2: &[Vec<String>], fig8: &[Vec<String>]) -> Vec<String> {
    let slope = |algorithm: &str, column: usize| -> f64 {
        let record = table2.iter().find(|r| r[0] == algorithm).expect("a row");
        record[column].parse().expect("a slope")
    };
    let bytes = |architecture: &str| -> f64 {
        let record = fig8.iter().find(|r| r[0] == architecture).expect("a row");
        record[1].parse().expect("a byte count")
    };
    let mut failures = Vec::new();
    let mut band = |claim: String, value: f64, low: f64, high: f64| {
        if !(low..=high).contains(&value) {
            failures.push(format!("{claim}: reads {value:.3}"));
        }
    };
    let jdbc = slope("jdbc", 1);
    let cached = slope("cached_ejbs", 1);
    let paper_vanilla_over_jdbc = 23.6 / 9.4;
    band(
        "vanilla/JDBC within 20 % of the paper's 2.51".into(),
        slope("vanilla_ejbs", 1) / jdbc,
        0.8 * paper_vanilla_over_jdbc,
        1.2 * paper_vanilla_over_jdbc,
    );
    band(
        "cached/JDBC ≥ 1.25: cached EJBs lose to JDBC on combined servers".into(),
        cached / jdbc,
        1.25,
        f64::INFINITY,
    );
    band(
        "ES/RDB-cached / ES/RBES ≥ 2.0: splitting the servers more than halves the slope".into(),
        cached / slope("cached_ejbs", 2),
        2.0,
        f64::INFINITY,
    );
    for algorithm in ["cached_ejbs", "jdbc", "vanilla_ejbs"] {
        band(
            format!("Clients/RAS {algorithm} = 2.0 ± 0.05"),
            slope(algorithm, 3),
            1.95,
            2.05,
        );
    }
    let (ras, rbes, rdb) = (
        bytes("Clients/RAS (JDBC)"),
        bytes("ES/RBES (Cached EJBs)"),
        bytes("ES/RDB (JDBC)"),
    );
    if !(ras > rbes && rbes > rdb) {
        failures.push(format!(
            "Fig. 8 Clients/RAS > ES/RBES > ES/RDB JDBC: reads {ras} / {rbes} / {rdb}"
        ));
    }
    failures
}

#[test]
fn the_results_keep_the_papers_claims_within_their_bands() {
    let (table2, fig8) = (csv("table2.csv"), csv("fig8.csv"));
    assert_eq!(band_failures(&table2, &fig8), Vec::<String>::new());

    // A cell moved out of its band fails the claim it carries.
    let fails = |table2: &[Vec<String>], fig8: &[Vec<String>], claim: &str| {
        let failures = band_failures(table2, fig8);
        assert!(
            failures.iter().any(|f| f.starts_with(claim)),
            "{claim} holds after a move: {failures:?}"
        );
    };
    let at =
        |table: &[Vec<String>], name: &str| table.iter().position(|r| r[0] == name).expect("a row");
    for (algorithm, column, value, claim) in [
        ("vanilla_ejbs", 1, "20.00", "vanilla/JDBC"),
        ("cached_ejbs", 1, "3.40", "cached/JDBC"),
        ("cached_ejbs", 2, "4.00", "ES/RDB-cached / ES/RBES"),
        ("jdbc", 3, "2.10", "Clients/RAS jdbc"),
    ] {
        let mut moved = table2.clone();
        let row = at(&moved, algorithm);
        moved[row][column] = value.to_owned();
        fails(&moved, &fig8, claim);
    }
    let mut moved = fig8.clone();
    let row = at(&moved, "ES/RBES (Cached EJBs)");
    moved[row][1] = "400".to_owned();
    fails(&table2, &moved, "Fig. 8");
}
