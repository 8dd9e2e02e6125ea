//! The paper's numbers, the layout of its tables, and the one judge of a
//! reproduction against them (DESIGN §4).
//!
//! `paper` renders Tables 1 and 2 and Fig. 8 as CSV text and hands that
//! text to [`judge`] before it exits; `tests/docs.rs` hands it the
//! checked-in `results/` files. Both judge the same bytes by the same
//! claims, so a run at any seed is held to what the checked-in run is.

use std::collections::BTreeSet;

use sli_arch::Architecture;
use sli_arch::Flavor::{self, CachedEjb, Jdbc, VanillaEjb};

/// Table 2 and Fig. 8 in the paper's layout.
pub struct Results {
    /// Per algorithm (Table 2's rows), the latency-sensitivity slope on
    /// ES/RDB, ES/RBES and Clients/RAS; `None` where the architecture does
    /// not run the algorithm.
    pub slopes: [(Flavor, [Option<f64>; 3]); 3],
    /// Bytes to the shared site per interaction on [`FIG8_BARS`].
    pub bytes: [f64; 3],
}

impl Results {
    /// Table 2 and Fig. 8 as `table2.csv` and `fig8.csv` print them; a
    /// missing or unreadable cell is `None` (a slope) or NaN (a bar), so
    /// every claim that reads it fails.
    pub fn read(table2: &str, fig8: &str) -> Results {
        let (table2, fig8) = (records(table2), records(fig8));
        let slope = |flavor, column| cell(&table2, &[&row_key(flavor)], column).parse().ok();
        Results {
            slopes: PAPER
                .slopes
                .map(|(flavor, _)| (flavor, [1, 2, 3].map(|c| slope(flavor, c)))),
            bytes: FIG8_BARS
                .map(|arch| cell(&fig8, &[&label(arch)], 1).parse().unwrap_or(f64::NAN)),
        }
    }

    /// `flavor`'s slope in Table 2's `column` ([`column()`]); NaN where the
    /// cell is empty, so every comparison with it fails.
    fn slope(&self, flavor: Flavor, column: usize) -> f64 {
        let row = self.slopes.iter().find(|(f, _)| *f == flavor);
        row.and_then(|(_, cells)| cells[column]).unwrap_or(f64::NAN)
    }
}

/// What the paper reports: the one place its numbers appear.
pub const PAPER: Results = Results {
    slopes: [
        (CachedEjb, [Some(13.0), Some(3.1), Some(2.0)]),
        (Jdbc, [Some(9.4), None, Some(2.0)]),
        (VanillaEjb, [Some(23.6), None, Some(2.0)]),
    ],
    bytes: [2_000.0, 3_000.0, 7_000.0],
};

/// The paper's Table 1, "Trade Runtime and Database Usage
/// Characteristics", `|`-separated: per action, the key its servlet span
/// and `table1.csv` name it by, then the paper's name, description, CMP
/// bean operation and DB activity (per table, the statement kinds C/R/U/D).
/// The session mix never issues Register.
pub const TABLE1: [&str; 10] = [
    "login | Login | User sign in, session creation | Update | Registry R, U; Account R",
    "logout | Logout | User sign-off, session destroy | Update | Registry R, U",
    "register | Register | Create a new user profile and account | Multi-Bean Create | Account C, R; Profile C; Registry C",
    "home | Home | Personalized home page incl. market conditions | Read | Account R",
    "account | Account | Review current user profile information | Read | Profile R",
    "update | Account Update | \"Account\" followed by user profile update | Read/Update | Profile R, U",
    "portfolio | Portfolio | View user's current security holdings | Read | Holding R",
    "quote | Quote | View a current security quote | Read | Quote R",
    "buy | Buy | \"Quote\" followed by a security purchase | Multi-Bean Read/Update | Quote R; Account R, U; Holding C, R",
    "sell | Sell | \"Portfolio\" followed by the sell of a holding | Multi-Bean Read/Update | Quote R; Account R, U; Holding D, R",
];

/// Fig. 8's bars, in Table 2's column order: ES/RDB is represented by its
/// best algorithm.
pub const FIG8_BARS: [Architecture; 3] = [
    Architecture::EsRdb(Jdbc),
    Architecture::EsRbes,
    Architecture::ClientsRas(Jdbc),
];

/// Fig. 8's rows: its bars, and ES/RDB's cached flavor as detail.
pub const FIG8: [(&str, Architecture); 4] = [
    ("ES/RDB (JDBC)", FIG8_BARS[0]),
    (
        "ES/RDB (Cached EJBs, supplementary)",
        Architecture::EsRdb(CachedEjb),
    ),
    ("ES/RBES (Cached EJBs)", FIG8_BARS[1]),
    ("Clients/RAS (JDBC)", FIG8_BARS[2]),
];

/// `arch`'s column in Table 2, and its bar in Fig. 8.
pub fn column(arch: Architecture) -> usize {
    match arch {
        Architecture::EsRdb(_) => 0,
        Architecture::EsRbes => 1,
        Architecture::ClientsRas(_) => 2,
    }
}

/// `arch`'s series name, e.g. `ES/RDB (Vanilla EJBs)`: its `table1.csv`
/// combination.
pub fn label(arch: Architecture) -> String {
    format!("{} ({})", arch.label(), arch.flavor().label())
}

/// `flavor`'s row key in `table2.csv`, e.g. `vanilla_ejbs`.
pub fn row_key(flavor: Flavor) -> String {
    flavor.label().to_lowercase().replace(' ', "_")
}

/// A DB-activity label (`Registry R, U; Account R`) as its set of
/// `(table, kind)` pairs.
pub fn activity_pairs(label: &str) -> BTreeSet<(&str, &str)> {
    let parts = label.split("; ").filter_map(|part| part.split_once(' '));
    parts
        .flat_map(|(table, kinds)| kinds.split(", ").map(move |kind| (table, kind)))
        .collect()
}

/// The records of a CSV text, header first. A quoted cell may hold commas;
/// no cell here holds a quote.
pub fn records(text: &str) -> Vec<Vec<String>> {
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

/// The three relative factors of Table 2's ES/RDB and ES/RBES slopes, each
/// with the name EXPERIMENTS.md quotes it by.
pub fn factors(r: &Results) -> [(&'static str, f64); 3] {
    let [vanilla, cached, jdbc] = [VanillaEjb, CachedEjb, Jdbc].map(|f| r.slope(f, 0));
    let split = r.slope(CachedEjb, 1);
    [
        ("vanilla/JDBC", vanilla / jdbc),
        ("cached/JDBC", cached / jdbc),
        ("ES/RDB-cached / ES/RBES", cached / split),
    ]
}

/// Cell `column` of the first record whose leading cells are `keys`;
/// empty where there is none.
fn cell<'a>(rows: &'a [Vec<String>], keys: &[&str], column: usize) -> &'a str {
    let lead = |r: &&Vec<String>| r.get(..keys.len()).is_some_and(|lead| lead == keys);
    let row = rows.iter().find(lead);
    row.and_then(|r| r.get(column)).map_or("", String::as_str)
}

/// Judges `table1.csv`, `table2.csv` and `fig8.csv` (as text) by DESIGN
/// §4's claims: one message per failed claim, each starting with the
/// claim's name. Empty when the reproduction holds.
pub fn judge(table1: &str, table2: &str, fig8: &str) -> Vec<String> {
    let measured = Results::read(table2, fig8);
    let (table1, table2, fig8) = (records(table1), records(table2), records(fig8));
    let mut failures = Vec::new();
    let mut check = |holds: bool, claim: String| failures.extend((!holds).then_some(claim));

    // Bands, set from the spread over seeds.
    let (paper, inf) = (factors(&PAPER)[0].1, f64::INFINITY);
    let ranges = [(0.8 * paper, 1.2 * paper), (1.25, inf), (2.0, inf)];
    for ((name, value), (low, high)) in factors(&measured).into_iter().zip(ranges) {
        let claim = format!("{name} in [{low:.2}, {high:.2}]");
        let holds = (low..=high).contains(&value);
        check(holds, format!("{claim}: reads {value:.2}"));
    }
    let (rdb, rbes, ras) = (0, 1, 2);
    for (flavor, _) in PAPER.slopes {
        let (paper, value) = (PAPER.slope(flavor, ras), measured.slope(flavor, ras));
        let claim = format!("Clients/RAS {} = {paper:.1} ± 0.05", flavor.label());
        let holds = (value - paper).abs() <= 0.05;
        check(holds, format!("{claim}: reads {value:.2}"));
    }

    // Orderings no band implies, each `(claim, lower, higher)`.
    let [vanilla, cached, jdbc] = [VanillaEjb, CachedEjb, Jdbc].map(|f| measured.slope(f, rdb));
    let (split, floor) = (measured.slope(CachedEjb, rbes), PAPER.slope(CachedEjb, ras));
    let [on_rdb, on_rbes, on_ras] = measured.bytes;
    let orderings = [
        ("ES/RDB cached < vanilla", cached, vanilla),
        ("ES/RBES cached < ES/RDB JDBC", split, jdbc),
        ("Clients/RAS floor < ES/RBES cached", floor, split),
        ("Fig. 8 bytes ES/RDB (JDBC) < ES/RBES", on_rdb, on_rbes),
        ("Fig. 8 bytes ES/RBES < Clients/RAS", on_rbes, on_ras),
    ];
    for (claim, low, high) in orderings {
        check(low < high, format!("{claim}: reads {low:.2} vs {high:.2}"));
    }

    // Table 1, on the combination that issues every statement on its own,
    // so each names its table.
    let vanilla = label(Architecture::EsRdb(VanillaEjb));
    for row in TABLE1.iter().filter(|row| !row.starts_with("register")) {
        let fields: Vec<&str> = row.split(" | ").collect();
        let (action, paper) = (fields[0], fields[4]);
        let seen = cell(&table1, &[&vanilla, action], 4);
        let claim = format!("Table 1 {action} on {vanilla} = {paper}");
        let holds = activity_pairs(seen) == activity_pairs(paper);
        check(holds, format!("{claim}: reads {seen:?}"));
    }

    // Identities: a delayed round trip costs twice the one-way delay and
    // nothing else depends on it, each at the precision its file prints.
    for (arch, _) in Architecture::ALL {
        let name = label(arch);
        let rows = table1.iter().filter(|r| r[0] == name);
        let sum = |c: usize| -> u64 {
            let counts = rows.clone().filter_map(|r| r.get(c)?.parse::<u64>().ok());
            counts.sum()
        };
        let per = sum(3) as f64 / sum(2) as f64;
        let (twice, once) = (format!("{:.2}", 2.0 * per), format!("{per:.2}"));
        let slope = cell(&table2, &[&row_key(arch.flavor())], column(arch) + 1);
        let claim = format!("Table 2 {name} = 2 × its ledger's trips per interaction, {twice}");
        check(slope == twice, format!("{claim}: reads {slope:?}"));
        if let Some((bar, _)) = FIG8.iter().find(|(_, a)| *a == arch) {
            let trips = cell(&fig8, &[bar], 2);
            let claim = format!("Fig. 8 trips {bar} = its ledger's, {once}");
            check(trips == once, format!("{claim}: reads {trips:?}"));
        }
    }
    let cells = table2.iter().skip(1).flat_map(|r| &r[1..]);
    let cells = cells.filter(|c| !c.is_empty()).count();
    let seen = (cells, fig8.len().saturating_sub(1));
    let want = (Architecture::ALL.len(), FIG8.len());
    let claim = format!("Every Table 2 cell and Fig. 8 bar is a combination's, {want:?}");
    check(seen == want, format!("{claim}: reads {seen:?}"));
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's own numbers as the three CSVs `paper` writes, headers
    /// aside: Table 2 and Fig. 8's bytes from [`PAPER`], and a ledger whose
    /// trips give those slopes (20 interactions per action and 10 × slope
    /// trips).
    fn the_papers_tables() -> [String; 3] {
        let [mut table1, mut table2, mut fig8] = ["header\n"; 3].map(String::from);
        for (arch, _) in Architecture::ALL {
            let slope = PAPER.slope(arch.flavor(), column(arch));
            let (name, vanilla) = (label(arch), arch == Architecture::EsRdb(VanillaEjb));
            for row in TABLE1 {
                let fields: Vec<&str> = row.split(" | ").collect();
                let activity = if vanilla { fields[4] } else { "" };
                let trips = 10.0 * slope;
                table1 += &format!("{name},{},20,{trips:.0},\"{activity}\"\n", fields[0]);
            }
            if let Some((bar, _)) = FIG8.iter().find(|(_, a)| *a == arch) {
                let bytes = PAPER.bytes[column(arch)];
                fig8 += &format!("\"{bar}\",{bytes},{:.2}\n", slope / 2.0);
            }
        }
        for (flavor, cells) in PAPER.slopes {
            let cells = cells.map(|c| c.map_or(String::new(), |s| format!("{s:.2}")));
            table2 += &format!("{},{}\n", row_key(flavor), cells.join(","));
        }
        [table1, table2, fig8]
    }

    #[test]
    fn the_papers_own_numbers_pass_every_claim() {
        let [table1, table2, fig8] = the_papers_tables();
        assert_eq!(judge(&table1, &table2, &fig8), Vec::<String>::new());
    }

    #[test]
    fn nothing_to_judge_fails_every_claim_without_a_panic() {
        // Six bands, five orderings, nine actions, seven cells, four bars
        // and the coverage.
        assert_eq!(judge("", "", "").len(), 32);
    }
}
