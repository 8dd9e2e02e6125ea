//! The prose stays true to the repository: every `DESIGN §N` a source file
//! or document cites names a section that exists, and the numbers
//! EXPERIMENTS.md quotes from a checked-in result file are that file's.

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

#[test]
fn the_contention_table_quotes_its_csv() {
    let experiments = read(&root().join("EXPERIMENTS.md"));
    let (header, rows) = table_after(&experiments, "### Contention");
    let csv = read(&root().join("results/contention.csv"));
    let mut lines = csv.lines().map(|l| l.split(',').collect::<Vec<_>>());
    assert_eq!(header, lines.next().expect("a CSV header"));
    let records: Vec<Vec<&str>> = lines.collect();
    assert_eq!(rows.len(), records.len(), "one table row per CSV record");
    for (row, record) in rows.iter().zip(&records) {
        assert_eq!(row.len(), record.len(), "{row:?}");
        for (printed, value) in row.iter().zip(record) {
            assert!(
                agrees(printed, value),
                "EXPERIMENTS.md reads {printed}, results/contention.csv {value} (row {row:?})"
            );
        }
    }
}
