//! End-to-end integration tests across the three deployment architectures:
//! every architecture serves the full Trade2 workload, latency scales with
//! injected delay the way the paper reports, and the three data-access
//! engines are observationally equivalent on committed state.

use sli_edge::arch::{
    Architecture, Flavor, LoadEngine, LoadPlan, RunHooks, Testbed, TestbedConfig, VirtualClient,
};
use sli_edge::datastore::{SqlConnection, Value};
use sli_edge::simnet::{FaultPlan, SimDuration};
use sli_edge::telemetry::{Profile, Resource, SpanEvent};
use sli_edge::trade::seed::Population;
use sli_edge::trade::session::SessionGenerator;
use sli_edge::trade::TradeAction;

#[test]
fn twenty_sessions_succeed_on_every_architecture() {
    for (arch, _) in Architecture::ALL {
        let tb = Testbed::build(arch, TestbedConfig::default());
        tb.set_delay(SimDuration::from_millis(10));
        let mut generator = SessionGenerator::new(99, Population::default());
        let mut client = VirtualClient::new(&tb, 0);
        let mut interactions = 0;
        for _ in 0..20 {
            for outcome in generator.session().iter().map(|a| client.perform(a)) {
                assert_eq!(outcome.status, 200, "{arch:?}");
                interactions += 1;
            }
        }
        assert_eq!(interactions, 20 * 11);
    }
}

#[test]
fn latency_is_affine_in_delay_for_fixed_workload() {
    // Replaying the *same* seeded workload at different delays must shift
    // latency purely linearly: same round-trip counts, bigger crossings.
    for arch in [Architecture::EsRdb(Flavor::Jdbc), Architecture::EsRbes] {
        let mut totals = Vec::new();
        for delay_ms in [0u64, 30, 60] {
            let tb = Testbed::build(arch, TestbedConfig::default());
            tb.set_delay(SimDuration::from_millis(delay_ms));
            let mut generator = SessionGenerator::new(7, Population::default());
            let mut client = VirtualClient::new(&tb, 0);
            let mut total = 0.0;
            for _ in 0..10 {
                for o in generator.session().iter().map(|a| client.perform(a)) {
                    total += o.latency.as_millis_f64();
                }
            }
            totals.push(total);
        }
        let first_step = totals[1] - totals[0];
        let second_step = totals[2] - totals[1];
        assert!(
            (first_step - second_step).abs() < 1e-6,
            "{arch:?}: steps {first_step} vs {second_step}"
        );
        assert!(first_step > 0.0, "{arch:?}: latency must grow with delay");
    }
}

#[test]
fn clients_ras_pays_exactly_one_round_trip_of_delay() {
    let tb = Testbed::build(
        Architecture::ClientsRas(Flavor::Jdbc),
        TestbedConfig::default(),
    );
    let mut client = VirtualClient::new(&tb, 0);
    let action = TradeAction::Quote {
        symbol: "s:3".into(),
    };
    let base = client.perform(&action).latency;
    tb.set_delay(SimDuration::from_millis(35));
    let delayed = client.perform(&action).latency;
    let extra = delayed.as_micros() as i64 - base.as_micros() as i64;
    assert_eq!(extra, 70_000, "exactly two one-way crossings of 35ms");
}

#[test]
fn edge_architectures_keep_pages_off_the_shared_path() {
    // The rendered HTML must never cross the edge↔shared-site path in the
    // edge architectures; in Clients/RAS it crosses the delayed path.
    let pop = Population::default();
    for arch in [Architecture::EsRdb(Flavor::Jdbc), Architecture::EsRbes] {
        let tb = Testbed::build(
            arch,
            TestbedConfig {
                population: pop,
                edges: 1,
                ..TestbedConfig::default()
            },
        );
        let mut generator = SessionGenerator::new(3, pop);
        let mut client = VirtualClient::new(&tb, 0);
        tb.reset_path_stats();
        let mut page_bytes = 0u64;
        for o in generator.session().iter().map(|a| client.perform(a)) {
            page_bytes += o.response_bytes as u64;
        }
        let shared = tb.shared_site_bytes();
        assert!(
            shared < page_bytes / 3,
            "{arch:?}: shared path carried {shared} bytes vs {page_bytes} page bytes"
        );
    }
    let tb = Testbed::build(
        Architecture::ClientsRas(Flavor::Jdbc),
        TestbedConfig::default(),
    );
    let mut generator = SessionGenerator::new(3, pop);
    let mut client = VirtualClient::new(&tb, 0);
    tb.reset_path_stats();
    let mut page_bytes = 0u64;
    for o in generator.session().iter().map(|a| client.perform(a)) {
        page_bytes += o.response_bytes as u64;
    }
    assert!(tb.shared_site_bytes() >= page_bytes);
}

/// Dumps all five Trade2 tables as sorted rows for state comparison.
fn dump_state(tb: &Testbed) -> Vec<(String, Vec<Vec<Value>>)> {
    let mut conn = tb.db.connect();
    ["account", "holding", "profile", "quote", "registry"]
        .iter()
        .map(|t| {
            let rs = conn
                .execute(&format!("SELECT * FROM {t}"), &[])
                .expect("dump");
            (t.to_string(), rs.rows().to_vec())
        })
        .collect()
}

#[test]
fn all_three_engines_commit_identical_state() {
    // The same deterministic action sequence must leave byte-identical
    // persistent state regardless of the data-access engine — the paper's
    // transparency requirement, checked end to end.
    let pop = Population {
        users: 8,
        quotes: 20,
        holdings_per_user: 3,
    };
    let script: Vec<TradeAction> = {
        let mut generator = SessionGenerator::new(1234, pop);
        (0..8).flat_map(|_| generator.session()).collect()
    };

    let mut states = Vec::new();
    for arch in [
        Architecture::EsRdb(Flavor::Jdbc),
        Architecture::EsRdb(Flavor::VanillaEjb),
        Architecture::EsRdb(Flavor::CachedEjb),
        Architecture::EsRbes,
    ] {
        let tb = Testbed::build(
            arch,
            TestbedConfig {
                population: pop,
                edges: 1,
                ..TestbedConfig::default()
            },
        );
        let mut client = VirtualClient::new(&tb, 0);
        for action in &script {
            let outcome = client.perform(action);
            assert_eq!(outcome.status, 200, "{arch:?}: {action:?}");
        }
        states.push((arch, dump_state(&tb)));
    }
    let (ref_arch, reference) = &states[0];
    for (arch, state) in &states[1..] {
        assert_eq!(
            state, reference,
            "{arch:?} diverged from {ref_arch:?} on identical input"
        );
    }
}

#[test]
fn cached_edges_make_fewer_shared_round_trips_than_vanilla() {
    let pop = Population::default();
    let mut round_trips = Vec::new();
    for flavor in [Flavor::VanillaEjb, Flavor::CachedEjb] {
        let tb = Testbed::build(Architecture::EsRdb(flavor), TestbedConfig::default());
        let mut generator = SessionGenerator::new(5, pop);
        let mut client = VirtualClient::new(&tb, 0);
        // warm up to fill the cache
        for _ in 0..10 {
            for action in &generator.session() {
                client.perform(action);
            }
        }
        tb.reset_path_stats();
        for _ in 0..10 {
            for action in &generator.session() {
                client.perform(action);
            }
        }
        round_trips.push(tb.delayed_path(0).stats().round_trips());
    }
    // Paper Table 2: caching cuts ES/RDB's vanilla sensitivity to about
    // 0.55× (sli_bench::paper::PAPER); require a clear reduction here.
    assert!(
        (round_trips[1] as f64) < round_trips[0] as f64 * 0.8,
        "cached {} vs vanilla {}",
        round_trips[1],
        round_trips[0]
    );
}

#[test]
fn session_cookie_lifecycle_matches_http_sessions() {
    let tb = Testbed::build(
        Architecture::EsRdb(Flavor::CachedEjb),
        TestbedConfig::default(),
    );
    let mut client = VirtualClient::new(&tb, 0);
    assert_eq!(tb.edges[0].server.session_count(), 0);
    client.perform(&TradeAction::Login {
        user: "uid:2".into(),
    });
    assert_eq!(tb.edges[0].server.session_count(), 1);
    client.perform(&TradeAction::Logout {
        user: "uid:2".into(),
    });
    assert_eq!(tb.edges[0].server.session_count(), 0);
}

/// Every architecture yields a schema-valid [`ArchReport`] row after a
/// short measured run, and the per-architecture telemetry tells the
/// paper's story: only the cached flavors have a cache to hit, and the
/// report's percentiles rise with the injected delay.
#[test]
fn every_architecture_emits_a_valid_run_report() {
    use sli_edge::arch::collect_report;
    use sli_edge::telemetry::{validate, RunReport, Schema};

    let mut run = RunReport::new("architectures integration smoke");
    for (arch, _) in Architecture::ALL {
        let tb = Testbed::build(arch, TestbedConfig::default());
        tb.set_delay(SimDuration::from_millis(15));
        let mut generator = SessionGenerator::new(41, Population::default());
        let mut client = VirtualClient::new(&tb, 0);
        // Warm up, then measure a clean telemetry window.
        for _ in 0..3 {
            for action in &generator.session() {
                client.perform(action);
            }
        }
        tb.reset_telemetry();
        let mut latencies = Vec::new();
        let mut failed = 0u64;
        for _ in 0..5 {
            for outcome in generator.session().iter().map(|a| client.perform(a)) {
                latencies.push(outcome.latency.as_millis_f64());
                if outcome.status != 200 {
                    failed += 1;
                }
            }
        }
        let report = collect_report(&tb, SimDuration::from_millis(15), &latencies, failed);
        assert_eq!(report.interactions, 5 * 11, "{arch:?}");
        assert_eq!(report.failed, 0, "{arch:?}");
        assert!(report.p50_ms > 0.0, "{arch:?}");
        assert!(report.p99_ms >= report.p50_ms, "{arch:?}");
        assert_eq!(report.status.get("200"), Some(&55), "{arch:?}");
        match arch.flavor() {
            Flavor::CachedEjb => assert!(report.hit_ratio > 0.0, "{arch:?} should hit its cache"),
            _ => assert_eq!(report.hit_ratio, 0.0, "{arch:?} has no cache"),
        }
        run.entries.push(report);
    }
    assert_eq!(run.entries.len(), 7);
    let json = run.to_json();
    assert_eq!(validate(&json), Ok(Schema::RunReport), "all seven rows");
}

/// What the clock charged each resource over one run of `plan` on a fresh
/// `arch` testbed (the paper's wire, `delay` each way, `faults` dialled on
/// the delayed path), beside the profile of the run's spans.
fn charged_and_profiled(
    arch: Architecture,
    delay: SimDuration,
    faults: FaultPlan,
    plan: &LoadPlan,
) -> ([u64; 4], Profile) {
    let tb = Testbed::build(
        arch,
        TestbedConfig {
            wire_batching: false,
            ..TestbedConfig::default()
        },
    );
    tb.set_delay(delay);
    tb.set_faults(faults);
    tb.reset_telemetry();
    let busy = || Resource::ALL.map(|r| tb.clock.busy(r).as_micros());
    let before = busy();
    let mut profile = Profile::default();
    let mut fold = |events: &[SpanEvent]| profile.fold(events);
    let hooks = RunHooks {
        observer: Some(&mut fold),
        ..RunHooks::default()
    };
    LoadEngine::new(&tb).run_with(plan, hooks);
    let after = busy();
    (std::array::from_fn(|r| after[r] - before[r]), profile)
}

/// The profile's time per resource, with the self time of the `backend.*`
/// classes moved from edge-cpu to store-lock, and that moved amount. The
/// profile files the ES/RBES back-end's request CPU (300 µs a fetch, query
/// or commit, 40 µs an image) by span name as edge compute; the clock
/// charges it to store-lock, as it does the same machine's commit steps.
fn profiled_as_charged(profile: &Profile) -> ([u64; 4], u64) {
    let backend: u64 = profile
        .classes()
        .filter(|(class, _)| class.starts_with("backend."))
        .map(|(_, stat)| stat.self_us)
        .sum();
    let mut us = Resource::ALL.map(|r| profile.resource_us(r));
    us[Resource::EdgeCpu as usize] -= backend;
    us[Resource::StoreLock as usize] += backend;
    (us, backend)
}

/// One client running `sessions` sessions back to back, without think time.
fn one_client(sessions: usize) -> LoadPlan {
    LoadPlan {
        closed: Some(1),
        think: SimDuration::ZERO,
        ..LoadPlan::poisson(1.0, sessions, 48)
    }
}

/// On every combination closed at 20 ms, and on perfguard's two loaded
/// points at 10 ms, the clock's busy counters equal the profile's resource
/// times once the back-end's misfiled CPU is moved, and only ES/RBES has
/// any to move.
#[test]
fn the_clock_charges_each_resource_what_the_profile_files_under_it() {
    let ms = SimDuration::from_millis;
    let closed = Architecture::ALL.map(|(arch, _)| (arch, ms(20), one_client(20)));
    let loaded = [
        (Architecture::EsRdb(Flavor::Jdbc), 3.0),
        (Architecture::EsRbes, 8.0),
    ]
    .map(|(arch, rps)| (arch, ms(10), LoadPlan::poisson(rps, 30, 48)));
    for (arch, delay, plan) in closed.into_iter().chain(loaded) {
        let (busy, profile) = charged_and_profiled(arch, delay, FaultPlan::NONE, &plan);
        let (profiled, backend) = profiled_as_charged(&profile);
        assert_eq!(
            busy, profiled,
            "{arch:?}: busy vs profile, in Resource::ALL order"
        );
        assert_eq!(
            backend > 0,
            arch == Architecture::EsRbes,
            "{arch:?}: {backend} µs of backend.* self time"
        );
    }
}

/// A browser's lost request or response is waited out, and a refused
/// connection crosses, inside `net.client.*` spans: off the wire the
/// clock and the profile agree, and on it the profile holds the charged
/// crossings plus the time-outs waited, which occupy no resource.
#[test]
fn a_lossy_access_link_is_charged_to_the_wire_and_waited_in_its_spans() {
    let arch = Architecture::ClientsRas(Flavor::Jdbc);
    let lossy = FaultPlan::lossy(48, 200);
    let (busy, profile) =
        charged_and_profiled(arch, SimDuration::from_millis(20), lossy, &one_client(20));
    let wire = Resource::Wire as usize;
    for r in Resource::ALL.into_iter().filter(|&r| r != Resource::Wire) {
        assert_eq!(busy[r as usize], profile.resource_us(r), "{}", r.label());
    }
    assert!(
        profile.resource_us(Resource::Wire) > busy[wire],
        "the time-outs waited: profile {} µs of wire, {} µs charged",
        profile.resource_us(Resource::Wire),
        busy[wire]
    );
}
