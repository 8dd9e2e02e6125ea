//! Regenerates **Table 1** — "Trade Runtime and Database Usage
//! Characteristics": for each trade action, the observed per-table database
//! activity (C/R/U/D), measured by running the action against a live,
//! seeded datastore and reading the engine's statement trace.
//!
//! Run with `cargo run -p sli-bench --bin table1`. The companion run is
//! already quick; `--smoke` only sends its artifacts to `results/smoke/`
//! like the figure binaries. Also emits a companion structured run report
//! (`results/table1.report.json`), span sample
//! (`results/table1.trace.json`) and virtual-time timelines
//! (`results/table1.timeline.json`) from a quick vanilla-EJB measurement
//! run, so the table ships the same telemetry the figure binaries do.

use sli_arch::{Architecture, Flavor};
use sli_bench::{results_dir, run, timeline_table, ArtifactSet, Cli, RunSpec};
use sli_component::share_connection;
use sli_datastore::Database;
use sli_simnet::SimDuration;
use sli_trade::deploy::vanilla_container;
use sli_trade::seed::{create_and_seed, Population};
use sli_trade::{EjbTradeEngine, TradeAction, TradeEngine};
use sli_workload::TextTable;

fn actions() -> Vec<(&'static str, &'static str, TradeAction)> {
    let user = "uid:1".to_owned();
    vec![
        (
            "Login",
            "User sign in, session creation",
            TradeAction::Login { user: user.clone() },
        ),
        (
            "Logout",
            "User sign-off, session destroy",
            TradeAction::Logout { user: user.clone() },
        ),
        (
            "Register",
            "Create a new user profile and account",
            TradeAction::Register {
                user: "uid:fresh".into(),
            },
        ),
        (
            "Home",
            "Personalized home page incl. market conditions",
            TradeAction::Home { user: user.clone() },
        ),
        (
            "Account",
            "Review current user profile information",
            TradeAction::Account { user: user.clone() },
        ),
        (
            "Account Update",
            "\"Account\" followed by user profile update",
            TradeAction::AccountUpdate {
                user: user.clone(),
                email: "new@trade.example.com".into(),
            },
        ),
        (
            "Portfolio",
            "View user's current security holdings",
            TradeAction::Portfolio { user: user.clone() },
        ),
        (
            "Quote",
            "View a current security quote",
            TradeAction::Quote {
                symbol: "s:1".into(),
            },
        ),
        (
            "Buy",
            "\"Quote\" followed by a security purchase",
            TradeAction::Buy {
                user: user.clone(),
                symbol: "s:2".into(),
                quantity: 100.0,
            },
        ),
        (
            "Sell",
            "\"Portfolio\" followed by the sell of a holding",
            TradeAction::Sell { user },
        ),
    ]
}

/// The paper's "CMP Bean Operation" column for each action.
fn bean_operation(action: &str) -> &'static str {
    match action {
        "Login" | "Logout" => "Update",
        "Register" => "Multi-Bean Create",
        "Home" | "Account" | "Portfolio" | "Quote" => "Read",
        "Account Update" => "Read/Update",
        "Buy" | "Sell" => "Multi-Bean Read/Update",
        _ => "",
    }
}

/// The per-table activity the paper's Table 1 lists, for comparison.
fn paper_expectation(action: &str) -> &'static str {
    match action {
        "Login" => "Registry R, U; Account R",
        "Logout" => "Registry R, U",
        "Register" => "Account C, R; Profile C; Registry C",
        "Home" => "Account R",
        "Account" => "Profile R",
        "Account Update" => "Profile R, U",
        "Portfolio" => "Holding R",
        "Quote" => "Quote R",
        "Buy" => "Quote R; Account R, U; Holding C, R",
        "Sell" => "Quote R; Account R, U; Holding D, R",
        _ => "",
    }
}

/// Formats the current trace as `Table K, K; ...` in a stable order.
fn observed_label(db: &Database) -> String {
    let snap = db.trace_snapshot();
    [
        ("registry", "Registry"),
        ("account", "Account"),
        ("profile", "Profile"),
        ("holding", "Holding"),
        ("quote", "Quote"),
    ]
    .iter()
    .filter_map(|(table, pretty)| {
        let counts = snap.table(table);
        if counts.total() > 0 {
            Some(format!("{pretty} {}", counts.crud_label()))
        } else {
            None
        }
    })
    .collect::<Vec<_>>()
    .join("; ")
}

fn main() {
    let args = Cli::new(
        "table1",
        "Regenerates Table 1: per-action database usage characteristics",
    )
    .flag(
        "smoke",
        "write the companion artifacts to results/smoke/ (the run is already quick)",
    )
    .parse();
    let db = Database::new();
    create_and_seed(&db, Population::default()).expect("seed");
    // Use the vanilla EJB container: its statement pattern is what Table 1
    // characterizes (CMP/BMP bean operations).
    let engine = EjbTradeEngine::new(
        vanilla_container(share_connection(db.connect())),
        "Vanilla EJBs",
        5_000_000,
    );

    println!("Table 1: Trade Runtime and Database Usage Characteristics");
    println!("(observed per-table statement kinds vs the paper's Table 1)\n");
    let mut table = TextTable::new(&[
        "Trade Action",
        "Description",
        "CMP Bean Operation",
        "DB Activity (observed)",
        "DB Activity (paper)",
    ]);
    for (name, description, action) in actions() {
        db.reset_trace();
        engine.perform(&action).expect("action succeeds");
        table.row(vec![
            name.to_owned(),
            description.to_owned(),
            bean_operation(name).to_owned(),
            observed_label(&db),
            paper_expectation(name).to_owned(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Note: BMP existence probes and ejbLoads both count as R, so the observed \
         column is a superset in kind-counts; the comparison target is which tables \
         see which operation kinds."
    );

    // Companion telemetry: one quick vanilla-EJB measurement over the wire
    // topology, reported in the same structured format as the figures.
    let mut out = ArtifactSet::new("Table 1 companion: ES/RDB (Vanilla EJBs), quick run");
    out.push(
        "ES/RDB (Vanilla EJBs)",
        run(&RunSpec::closed(
            Architecture::EsRdb(Flavor::VanillaEjb),
            SimDuration::ZERO,
            true,
        )),
    );
    println!("\n{}", out.report.render_text());
    println!("\nVirtual-time timeline of the companion run:");
    println!("{}", timeline_table(&out.timelines[0]));
    out.write_or_exit(results_dir(args.has("smoke")), env!("CARGO_BIN_NAME"));
}
