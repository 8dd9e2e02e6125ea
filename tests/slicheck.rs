//! Integration tests for the schedule-exploring consistency checker:
//! recorded histories from the hand-written consistency interleavings must
//! pass, a deliberately non-serializable history must be rejected
//! (checker-checks-the-checker), seeded runs must reproduce byte-identical
//! histories, and the counterexample export must round-trip through its
//! validator from rendered bytes.

mod common;

use std::sync::Arc;

use common::{balance_of, combined_edge_with_history, debit, seeded_db, SEED_ACCOUNTS};
use sli_edge::arch::{
    analyze, arch_by_key, counterexample_json, run_slicheck, shrink_schedule, ScheduleSource,
    SliCheckConfig, ARCH_KEYS,
};
use sli_edge::component::Memento;
use sli_edge::core::memento_digest;
use sli_edge::datastore::Value;
use sli_edge::simnet::Clock;
use sli_edge::telemetry::{
    history_json, parse_history, validate, HistoryEvent, HistoryImage, HistoryLog, Json, Schema,
};

/// `(bean, key, digest)` of the two seeded rows, for the checker's initial
/// version chains.
fn initial_digests() -> Vec<(String, String, u64)> {
    SEED_ACCOUNTS
        .iter()
        .map(|(user, balance)| {
            let key = Value::from(*user);
            let digest = memento_digest(
                &Memento::new("Account", key.clone()).with_field("balance", *balance),
            );
            ("Account".to_owned(), key.to_string(), digest)
        })
        .collect()
}

/// The `no_lost_updates_between_combined_edges` interleaving from
/// `tests/consistency.rs`, re-run with history recording: ten alternating
/// debits with optimistic retries. The checker must agree the outcome is
/// serializable and see every committed debit.
#[test]
fn recorded_alternating_debits_pass_the_checker() {
    let db = seeded_db();
    let log = Arc::new(HistoryLog::new());
    let clock = Arc::new(Clock::new());
    let (edge1, _s1) = combined_edge_with_history(&db, 1, &log, &clock);
    let (edge2, _s2) = combined_edge_with_history(&db, 2, &log, &clock);
    for i in 0..10 {
        let edge = if i % 2 == 0 { &edge1 } else { &edge2 };
        edge.with_retrying_transaction(10, |ctx, c| {
            let home = c.home("Account")?;
            let key = Value::from("alice");
            let balance = home.get_field(ctx, &key, "balance")?.as_double().unwrap();
            home.set_field(ctx, &key, "balance", Value::from(balance - 5.0))?;
            Ok(())
        })
        .unwrap();
    }
    assert_eq!(balance_of(&db, "alice"), 50.0);

    let analysis = analyze(&log.events(), &initial_digests());
    assert!(
        analysis.is_serializable(),
        "hand-written interleaving must check out: {:?}",
        analysis.violations
    );
    assert_eq!(analysis.committed, 10, "every debit commits exactly once");
    // The final chain state is the digest of alice at 50.0.
    let expected =
        memento_digest(&Memento::new("Account", Value::from("alice")).with_field("balance", 50.0));
    assert_eq!(
        analysis.latest_digest("Account", &Value::from("alice").to_string()),
        Some(Some(expected))
    );
}

/// The `stale_cache_write_aborts_and_leaves_no_trace` interleaving from
/// `tests/consistency.rs`, re-run with history recording: the aborted
/// stale write appears in the history as a conflict and must not disturb
/// serializability (its images never enter the version chains).
#[test]
fn recorded_stale_write_abort_passes_the_checker() {
    let db = seeded_db();
    let log = Arc::new(HistoryLog::new());
    let clock = Arc::new(Clock::new());
    let (edge1, _s1) = combined_edge_with_history(&db, 1, &log, &clock);
    let (edge2, store2) = combined_edge_with_history(&db, 2, &log, &clock);
    // Edge 2 caches alice; edge 1 changes her under the cache.
    edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")?;
            Ok(())
        })
        .unwrap();
    debit(&edge1, "alice", 30.0).unwrap();
    // Edge 2's write over the stale image aborts without touching state.
    let result = edge2.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        home.set_field(ctx, &Value::from("bob"), "balance", Value::from(0.0))?;
        home.set_field(ctx, &Value::from("alice"), "balance", Value::from(0.0))?;
        Ok(())
    });
    assert!(result.is_err());
    assert!(store2.get("Account", &Value::from("alice")).is_none());

    let analysis = analyze(&log.events(), &initial_digests());
    assert!(
        analysis.is_serializable(),
        "abort must leave a serializable history: {:?}",
        analysis.violations
    );
    assert!(
        analysis.aborted >= 1,
        "the stale write must appear as an abort"
    );
    // Bob's chain never left its seeded state: the aborted write to him
    // installed nothing.
    let bob_seed =
        memento_digest(&Memento::new("Account", Value::from("bob")).with_field("balance", 200.0));
    assert_eq!(
        analysis.latest_digest("Account", &Value::from("bob").to_string()),
        Some(Some(bob_seed))
    );
}

/// Checker-checks-the-checker: a hand-built lost-update history (two
/// committed writers that both validated the initial version) must be
/// rejected with a dependency cycle.
#[test]
fn checker_rejects_a_non_serializable_history() {
    let initial = initial_digests();
    let alice_seed = initial[0].2;
    let key = initial[0].1.clone();
    let update = |after: u64| HistoryImage {
        bean: "Account".to_owned(),
        key: key.clone(),
        kind: "update".to_owned(),
        before: Some(alice_seed),
        after: Some(after),
    };
    let mut events = Vec::new();
    for (origin, after, csn) in [(1u32, 0xAAAA, 1u64), (2, 0xBBBB, 2)] {
        events.push(HistoryEvent::Commit {
            origin,
            txn_id: 1,
            outcome: "committed".to_owned(),
            entries: vec![update(after)],
            t_us: u64::from(origin) * 10,
        });
        events.push(HistoryEvent::Apply {
            origin,
            txn_id: 1,
            csn,
            outcome: "committed".to_owned(),
            t_us: u64::from(origin) * 10,
        });
    }
    let analysis = analyze(&events, &initial);
    let violation = analysis
        .violations
        .iter()
        .find(|v| v.kind == "non-serializable")
        .expect("a lost update must be flagged as a dependency cycle");
    assert_eq!(violation.cycle.len(), 2, "T1 -> T2 -> T1");
}

/// Satellite pin: `slicheck --seed S --arch X` reproduces byte-identical
/// histories (and schedules) across two runs, for all seven architecture ×
/// flavor combinations.
#[test]
fn seeded_runs_reproduce_byte_identical_histories() {
    for key in ARCH_KEYS {
        let cfg = SliCheckConfig::new(arch_by_key(key).unwrap(), 5);
        let a = run_slicheck(&cfg, ScheduleSource::Random(5));
        let b = run_slicheck(&cfg, ScheduleSource::Random(5));
        assert_eq!(a.schedule, b.schedule, "{key}: schedules must replay");
        assert_eq!(
            history_json(&a.history).render(),
            history_json(&b.history).render(),
            "{key}: histories must be byte-identical"
        );
        assert!(!a.history.is_empty(), "{key}: history must not be empty");
    }
}

/// The counterexample export round-trips through its validator from its
/// rendered bytes — the same loop the `slicheck` bin performs before
/// writing `results/slicheck-counterexample.json`.
#[test]
fn counterexample_round_trips_from_rendered_bytes() {
    let mut cfg = SliCheckConfig::new(arch_by_key("clients-ras-cached").unwrap(), 1);
    cfg.inject_bug = true;
    let found = (1..=64)
        .find_map(|seed| {
            cfg.seed = seed;
            let outcome = run_slicheck(&cfg, ScheduleSource::Random(seed));
            (!outcome.violations.is_empty()).then_some((seed, outcome))
        })
        .expect("the seeded lost-update bug must surface within 64 seeds");
    let (seed, outcome) = found;
    cfg.seed = seed;
    let choices: Vec<u32> = outcome.schedule.iter().map(|s| s.choice).collect();
    let (shrunk, shrunk_outcome) = shrink_schedule(&cfg, &choices);
    assert!(shrunk.len() <= choices.len());
    let rendered = counterexample_json(&cfg, &shrunk_outcome).render();
    let reparsed = Json::parse(&rendered).expect("rendered counterexample must parse");
    assert_eq!(validate(&reparsed), Ok(Schema::Counterexample));
    // The document reproduces the recorded history exactly, 64-bit image
    // digests included.
    let history = parse_history(reparsed.get("history").expect("history member"));
    assert_eq!(history.as_ref(), Ok(&shrunk_outcome.history));
}
