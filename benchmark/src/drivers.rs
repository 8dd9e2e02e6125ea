//! Layer drivers: the harness times one layer's public functions directly,
//! on inputs the decorators captured from the workload.
//!
//! A driver's number is the layer's cost outside the request path — no
//! caller, warm caches — so it sizes what a change to that function alone
//! can save. Every timing is calibrated like the rounds' and is the median
//! of a few repetitions.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sli_component::Memento;
use sli_core::{memento_digest, CommonStore, DirectSource, StateSource};
use sli_datastore::{sql, Connection, Database, SqlConnection, Value};
use sli_simnet::wire::{self, Reader, Writer};
use sli_simnet::{Clock, HttpRequest, HttpResponse, Path, PathSpec};
use sli_telemetry::{Profile, SpanEvent};
use sli_trade::model::trade_registry;
use sli_trade::page;
use sli_trade::seed::{create_and_seed, Population};
use sli_trade::session::SessionGenerator;
use sli_workload::ArrivalPlan;

use crate::calib;
use crate::spans::{Capture, ConnOp};
use crate::spec::Workload;
use crate::stats::{median, ratio};

/// What the drivers run on.
pub struct Inputs<'a> {
    pub workload: &'a Workload,
    /// Connection calls and engine results of the workload's first sessions.
    pub capture: &'a Capture,
    /// Virtual-time span events of whole requests.
    pub span_sample: &'a [SpanEvent],
    /// Images in the warm testbed's common stores (0 without a cache).
    pub store_len: usize,
    pub seed: u64,
    pub quick: bool,
}

/// Calibrated nanoseconds one call of `body` takes: the median of `reps`
/// timings, each between two calibration probes.
fn time_ns<T>(reps: usize, mut body: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let before = calib::speed_factor();
            let start = Instant::now();
            black_box(body());
            let ns = start.elapsed().as_nanos() as f64;
            ns / ((before + calib::speed_factor()) / 2.0)
        })
        .collect();
    median(&samples)
}

fn seeded_db(pop: Population) -> Arc<Database> {
    let db = Database::new();
    create_and_seed(&db, pop).expect("a fresh database seeds cleanly");
    db.attach_wal();
    db
}

/// Replays the captured connection calls on local connections over an
/// identically seeded, WAL-attached database: statement execution with no
/// wire in between. The first third warms the plan cache untimed. Returns
/// nanoseconds per statement.
fn exec_ns_per_stmt(inputs: &Inputs, reps: usize) -> f64 {
    let ops = &inputs.capture.conn_ops;
    let warm = ops.len() / 3;
    let statements: usize = ops[warm..]
        .iter()
        .map(|(_, op)| match op {
            ConnOp::Execute(..) => 1,
            ConnOp::Batch(stmts) => stmts.len(),
            _ => 0,
        })
        .sum();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let db = seeded_db(inputs.workload.population);
        let mut conns: BTreeMap<u8, Connection> = BTreeMap::new();
        let mut apply = |(id, op): &(u8, ConnOp)| {
            let conn = conns.entry(*id).or_insert_with(|| db.connect());
            // Statement errors are part of the stream (the workload saw the
            // same ones); transport cannot fail in process.
            match op {
                ConnOp::Begin => drop(black_box(conn.begin())),
                ConnOp::Execute(sql, params) => drop(black_box(conn.execute(sql, params))),
                ConnOp::Batch(stmts) => drop(black_box(conn.execute_batch(stmts))),
                ConnOp::Stamp(origin, txn) => conn.stamp_next_commit(*origin, *txn),
                ConnOp::Commit => drop(black_box(conn.commit())),
                ConnOp::Rollback => drop(black_box(conn.rollback())),
            }
        };
        ops[..warm].iter().for_each(&mut apply);
        let before = calib::speed_factor();
        let start = Instant::now();
        ops[warm..].iter().for_each(&mut apply);
        let ns = start.elapsed().as_nanos() as f64;
        samples.push(ns / ((before + calib::speed_factor()) / 2.0));
    }
    ratio(median(&samples), statements as f64)
}

/// Every captured statement with its parameters.
fn statements(capture: &Capture) -> Vec<(&str, &[Value])> {
    capture
        .conn_ops
        .iter()
        .flat_map(|(_, op)| match op {
            ConnOp::Execute(sql, params) => vec![(sql.as_str(), params.as_slice())],
            ConnOp::Batch(stmts) => stmts
                .iter()
                .map(|s| (s.sql.as_str(), s.params.as_slice()))
                .collect(),
            _ => Vec::new(),
        })
        .collect()
}

/// Trade-shaped mementos: twenty beans of each of the five types, read from
/// a seeded database.
fn mementos() -> Vec<Memento> {
    let db = seeded_db(Population::default());
    let source = DirectSource::new(Box::new(db.connect()), trade_registry());
    let mut out = Vec::new();
    for i in 0..20 {
        let user = Value::from(Population::user_id(i));
        for (bean, key) in [
            ("Account", user.clone()),
            ("Profile", user.clone()),
            ("Registry", user),
            ("Quote", Value::from(Population::symbol(i))),
            ("Holding", Value::from(i as i64)),
        ] {
            out.extend(source.fetch(bean, &key).expect("a seeded bean reads back"));
        }
    }
    out
}

/// Runs every driver; returns `(metric name, value)` pairs.
pub fn run(inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let reps = if inputs.quick { 2 } else { 5 };
    let w = inputs.workload;
    let stmts = statements(inputs.capture);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    out.push(("datastore.exec_ns_per_stmt", exec_ns_per_stmt(inputs, reps)));

    let texts: BTreeSet<&str> = stmts.iter().map(|(sql, _)| *sql).collect();
    out.push((
        "datastore.parse_ns_per_stmt",
        ratio(
            time_ns(reps, || {
                for _ in 0..20 {
                    for text in &texts {
                        let _ = black_box(sql::parse(text));
                    }
                }
            }),
            (20 * texts.len()) as f64,
        ),
    ));

    // The wire codec on the statements the workload shipped.
    let encode = |(sql, params): &(&str, &[Value])| {
        let mut w = Writer::new();
        w.put_str(sql).put_u32(params.len() as u32);
        for p in *params {
            p.encode(&mut w);
        }
        w.finish()
    };
    let payloads: Vec<Bytes> = stmts.iter().map(encode).collect();
    let kib = payloads.iter().map(Bytes::len).sum::<usize>() as f64 / 1024.0;
    out.push((
        "simnet.wire_codec_ns_per_kib",
        ratio(
            time_ns(reps, || {
                for stmt in &stmts {
                    let mut r = Reader::new(encode(stmt));
                    let _ = black_box(r.get_str());
                    for _ in 0..r.get_u32().unwrap_or(0) {
                        let _ = black_box(Value::decode(&mut r));
                    }
                }
            }),
            kib,
        ),
    ));
    out.push((
        "simnet.frame_ns_per_kib",
        ratio(
            time_ns(reps, || {
                for (i, payload) in payloads.iter().enumerate() {
                    let framed = wire::frame_traced(wire::protocol::JDBC, i as u64, 1, payload);
                    let _ = black_box(wire::unframe(framed));
                }
            }),
            kib,
        ),
    ));

    // Pages: rendering, then the HTTP codec on the rendered pages.
    let results = &inputs.capture.results;
    let pages: Vec<String> = results.iter().map(page::render).collect();
    out.push((
        "trade.page_render_ns",
        ratio(
            time_ns(reps, || {
                for result in results {
                    black_box(page::render(result));
                }
            }),
            results.len() as f64,
        ),
    ));
    out.push((
        "trade.page_bytes",
        ratio(
            pages.iter().map(String::len).sum::<usize>() as f64,
            pages.len() as f64,
        ),
    ));
    let params = || {
        vec![
            ("action".to_owned(), "quote".to_owned()),
            ("symbol".to_owned(), "s:1".to_owned()),
        ]
    };
    out.push((
        "simnet.http_codec_ns",
        ratio(
            time_ns(reps, || {
                for page in &pages {
                    let request = HttpRequest::get("/trade/app", params()).encode();
                    let _ = black_box(HttpRequest::parse(&request));
                    let response = HttpResponse::ok(page.clone()).encode();
                    let _ = black_box(HttpResponse::parse(&response));
                }
            }),
            pages.len() as f64,
        ),
    ));
    let path = Path::new("driver", Arc::new(Clock::new()), PathSpec::lan());
    out.push((
        "simnet.path_crossing_ns",
        time_ns(reps, || {
            for _ in 0..2000 {
                path.request(200);
                path.respond(3000);
            }
        }) / 2000.0,
    ));

    let images = mementos();
    out.push((
        "component.memento_clone_ns",
        ratio(
            time_ns(reps, || {
                for _ in 0..20 {
                    for m in &images {
                        black_box(m.clone());
                    }
                }
            }),
            (20 * images.len()) as f64,
        ),
    ));
    out.push((
        "component.memento_digest_ns",
        ratio(
            time_ns(reps, || {
                for _ in 0..20 {
                    for m in &images {
                        black_box(memento_digest(m));
                    }
                }
            }),
            (20 * images.len()) as f64,
        ),
    ));
    let registry = trade_registry();
    out.push((
        "component.meta_sql_ns",
        ratio(
            time_ns(reps, || {
                for _ in 0..200 {
                    for meta in registry.iter() {
                        black_box(meta.load_sql());
                    }
                }
            }),
            (200 * registry.len()) as f64,
        ),
    ));

    // The common store at the warm testbed's size and the workload's bound
    // (the default population's size where the workload has no cache).
    let size = if inputs.store_len == 0 {
        400
    } else {
        inputs.store_len
    };
    let store = match w.cache_capacity {
        Some(capacity) => CommonStore::with_capacity(capacity),
        None => CommonStore::new(),
    };
    let image = |i: usize| {
        Memento::new("Quote", Value::from(format!("k:{i}")))
            .with_field("companyname", format!("Company #{i} Incorporated"))
            .with_field("price", 25.0 + i as f64)
            .with_field("volume", 1_000_000.0)
    };
    for i in 0..size {
        store.put(image(i));
    }
    let resident = size.min(w.cache_capacity.unwrap_or(size));
    let keys: Vec<Value> = (size - resident..size)
        .map(|i| Value::from(format!("k:{i}")))
        .collect();
    let absent: Vec<Value> = (0..resident)
        .map(|i| Value::from(format!("absent:{i}")))
        .collect();
    for (name, probes) in [
        ("core.store_get_hit_ns", &keys),
        ("core.store_get_miss_ns", &absent),
    ] {
        out.push((
            name,
            ratio(
                time_ns(reps, || {
                    for _ in 0..10 {
                        for key in probes {
                            black_box(store.get("Quote", key));
                        }
                    }
                }),
                (10 * probes.len()) as f64,
            ),
        ));
    }
    // New keys: an unbounded store grows, a bounded one evicts.
    let mut fresh: Vec<Vec<Memento>> = (0..reps)
        .map(|rep| (0..1000).map(|i| image(size + rep * 1000 + i)).collect())
        .collect();
    out.push((
        "core.store_put_ns",
        time_ns(reps, || {
            for m in fresh.pop().expect("one batch per repetition") {
                store.put(m);
            }
        }) / 1000.0,
    ));

    out.push((
        "telemetry.profile_fold_ns_per_span",
        ratio(
            time_ns(reps, || {
                let mut profile = Profile::default();
                profile.fold(inputs.span_sample);
                profile
            }),
            inputs.span_sample.len() as f64,
        ),
    ));
    out.push((
        "workload.arrival_ns_per_session",
        time_ns(reps, || {
            ArrivalPlan::poisson(inputs.seed, 8.0).times_us(10_000)
        }) / 10_000.0,
    ));
    out.push((
        "trade.session_gen_ns_per_session",
        time_ns(reps, || {
            let mut generator = SessionGenerator::new(inputs.seed, w.population).with_mix(w.mix);
            for _ in 0..1000 {
                black_box(generator.session());
            }
        }) / 1000.0,
    ));
    out
}
