//! Randomized (but fully deterministic) tests over the core invariants:
//!
//! * every wire codec round-trips arbitrary data;
//! * bound predicates survive `to_sql` → parser round trips — including
//!   empty `IN` lists under every boolean connective;
//! * the two optimistic validators (SELECT-then-write vs one-statement-per-
//!   image) are observationally equivalent, and each matches a naive
//!   one-entry-at-a-time model of the table;
//! * a cache-enabled container and a vanilla container compute identical
//!   persistent state for arbitrary operation sequences;
//! * the common store is observationally a naive list-ordered LRU cache at
//!   every capacity;
//! * images are shared copy-on-write without aliasing, the per-transaction
//!   store is a map plus a touch order, and what the deployment descriptor
//!   resolves once (`row_is_image`, the five statements) is what it used to
//!   compute per call;
//! * an image decoded into a name-sorted vector, with or without a
//!   descriptor lending it names, is the image the map-building decoder
//!   built, whatever order and however often the wire names its fields; a
//!   string value behaves as it did while it owned a `String`; and the
//!   frame checksum folded eight bytes a step is the byte-by-byte fold;
//! * a message written into one buffer — an HTTP request or response, a
//!   frame behind its header, a nested commit request, a result set with
//!   its header in wire form and its rows one vector of cells, the
//!   validator's conditional statements — is byte for byte what formatting
//!   and copying it used to produce;
//! * a rolled-back transaction, and one torn by a crash and undone by
//!   recovery, both leave the database as if they had never run;
//! * money and doubles written from their integer cents are byte for byte
//!   what `core::fmt`'s `{:.2}` and `{}` write;
//! * the span fold that handles spans by number — interned classes, a
//!   stack trie, one index walk — exports byte for byte what the fold that
//!   built a string per frame and three maps per trace exported;
//! * the regression and batching math behaves on arbitrary affine data.
//!
//! These used to be `proptest` properties; they are now plain seeded loops
//! over the workspace's deterministic [`StdRng`] so the suite needs no
//! external crates and every failure reproduces from the printed seed.
//! Historical shrunken counterexamples live in
//! `tests/properties.proptest-regressions` and are pinned as explicit cases
//! below (see [`empty_in_regression_survives_sql_round_trip`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sli_edge::component::BmpHome;
use sli_edge::component::JdbcResourceManager;
use sli_edge::component::{
    share_connection, Container, EntityMeta, ImageNames, InstanceState, Memento, ResourceManager,
    TxContext,
};
use sli_edge::core::{
    memento_digest, validate_and_apply, CacheStats, CombinedCommitter, CommitEntry, CommitOutcome,
    CommitRequest, CommonStore, DirectSource, EntryKind, MetaRegistry, SliHome, SliResourceManager,
};
use sli_edge::datastore::{
    BatchStatement, CmpOp, Column, ColumnType, CrashPoint, Database, DbError, Money, Predicate,
    ResultSet, Schema, SqlConnection, Value,
};
use sli_edge::simnet::wire::{frame, frame_traced, protocol, unframe, Reader, StrTable, Writer};
use sli_edge::simnet::{HttpRequest, HttpResponse};
use sli_edge::telemetry::{
    bucket_for, chrome_trace, critical_path, resource_for, span_class, Bucket, ClassStat,
    ConflictInfo, Json, Profile, Resource, SpanDetail, SpanEvent, SpanOutcome, PROFILE_SCHEMA,
};
use sli_edge::workload::{batch_means, fit};

// ---------- generators ----------

fn gen_string(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

fn gen_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Null,
        1 => Value::from(rng.gen_range(0..2u32) == 1),
        2 => Value::from(rng.gen_range(i64::MIN..i64::MAX)),
        // Continuous draws are (almost surely) non-integral, so their
        // display form always reads back as a double. NULL/NaN round trips
        // are covered in unit tests.
        3 => Value::from(rng.gen_range(-1.0e12f64..1.0e12)),
        _ => Value::from(gen_string(rng, b"abcXYZ09 :'_-", 24)),
    }
}

fn gen_key(rng: &mut StdRng) -> Value {
    if rng.gen_range(0..2u32) == 0 {
        Value::from(rng.gen_range(0i64..1000))
    } else {
        let mut s = gen_string(rng, b"abz09:", 11);
        s.insert(0, 'k');
        Value::from(s)
    }
}

fn gen_memento(rng: &mut StdRng) -> Memento {
    let mut bean = gen_string(rng, b"abcdefghij", 10);
    bean.insert(0, 'B');
    let mut m = Memento::new(bean, gen_key(rng));
    for _ in 0..rng.gen_range(0..6u32) {
        let mut name = gen_string(rng, b"abcxyz09_", 10);
        name.insert(0, 'f');
        m.set(name, gen_value(rng));
    }
    m
}

/// A literal usable inside rendered SQL (strings get quote-escaped by
/// `to_sql`, and the escaping itself is part of what we exercise).
fn gen_sql_literal(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..3u32) {
        0 => Value::from(rng.gen_range(0i64..100)),
        1 => Value::from(rng.gen_range(-50.0f64..50.0)),
        _ => Value::from(gen_string(rng, b"az09:'", 8)),
    }
}

/// Bound predicates over the columns of the `holding` test schema, with
/// placeholder-free literals only (so `to_sql` round-trips). Empty `IN`
/// lists are generated deliberately: they are the hard case.
fn gen_predicate(rng: &mut StdRng, depth: u32) -> Predicate {
    if depth > 0 && rng.gen_range(0..8u32) < 3 {
        let a = Box::new(gen_predicate(rng, depth - 1));
        return match rng.gen_range(0..3u32) {
            0 => Predicate::And(a, Box::new(gen_predicate(rng, depth - 1))),
            1 => Predicate::Or(a, Box::new(gen_predicate(rng, depth - 1))),
            _ => Predicate::Not(a),
        };
    }
    let column = ["owner", "qty", "id"][rng.gen_range(0..3usize)];
    match rng.gen_range(0..6u32) {
        0 => {
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][rng.gen_range(0..6usize)];
            Predicate::cmp(column, op, gen_sql_literal(rng))
        }
        1 => Predicate::Like {
            column: "owner".into(),
            pattern: gen_string(rng, b"az09%_", 8),
        },
        2 => Predicate::IsNull {
            column: "note".into(),
        },
        3 => Predicate::IsNotNull {
            column: "owner".into(),
        },
        4 => Predicate::In {
            column: "owner".into(),
            // 0..4 values: the empty list is a quarter of the draws.
            values: (0..rng.gen_range(0..4u32))
                .map(|_| {
                    if rng.gen_range(0..2u32) == 0 {
                        Value::from(rng.gen_range(0i64..50))
                    } else {
                        Value::from(gen_string(rng, b"az09:", 6))
                    }
                })
                .collect(),
        },
        _ => Predicate::Between {
            column: "qty".into(),
            low: Value::from(rng.gen_range(0i64..50)),
            high: Value::from(rng.gen_range(50i64..100)),
        },
    }
}

// ---------- codec round trips ----------

#[test]
fn value_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x5ede_c0de);
    for _ in 0..500 {
        let v = gen_value(&mut rng);
        let mut w = Writer::new();
        v.encode(&mut w);
        let mut r = Reader::new(w.finish());
        assert_eq!(Value::decode(&mut r).unwrap(), v, "value {v:?}");
        assert!(r.is_empty());
    }
}

/// `Value` as it was while a string value owned its text: the derived
/// behaviour of this enum is what the hand-written `Ord`, `Hash`, `Display`
/// and encoding of `Value` have to keep.
#[derive(Debug, Clone, PartialEq)]
enum ModelValue {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(String),
}

impl ModelValue {
    fn of(v: &Value) -> ModelValue {
        match v {
            Value::Null => ModelValue::Null,
            Value::Bool(b) => ModelValue::Bool(*b),
            Value::Int(i) => ModelValue::Int(*i),
            Value::Double(d) => ModelValue::Double(*d),
            Value::Str(s) => ModelValue::Str(String::from(&**s)),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            ModelValue::Null => 0,
            ModelValue::Bool(_) => 1,
            ModelValue::Int(_) => 2,
            ModelValue::Double(_) => 3,
            ModelValue::Str(_) => 4,
        }
    }

    fn cmp(&self, other: &ModelValue) -> std::cmp::Ordering {
        match (self, other) {
            (ModelValue::Bool(a), ModelValue::Bool(b)) => a.cmp(b),
            (ModelValue::Int(a), ModelValue::Int(b)) => a.cmp(b),
            (ModelValue::Double(a), ModelValue::Double(b)) => a.total_cmp(b),
            (ModelValue::Str(a), ModelValue::Str(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }

    fn hash_code(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut state = std::collections::hash_map::DefaultHasher::new();
        self.rank().hash(&mut state);
        match self {
            ModelValue::Null => {}
            ModelValue::Bool(v) => v.hash(&mut state),
            ModelValue::Int(v) => v.hash(&mut state),
            ModelValue::Double(v) => v.to_bits().hash(&mut state),
            ModelValue::Str(v) => v.hash(&mut state),
        }
        state.finish()
    }

    fn display(&self) -> String {
        match self {
            ModelValue::Null => "NULL".to_owned(),
            ModelValue::Bool(v) => format!("{v}"),
            ModelValue::Int(v) => format!("{v}"),
            ModelValue::Double(v) => format!("{v}"),
            ModelValue::Str(v) => format!("'{v}'"),
        }
    }

    fn encode(&self, w: &mut Writer) {
        match self {
            ModelValue::Null => w.put_u8(0),
            ModelValue::Bool(v) => w.put_u8(1).put_bool(*v),
            ModelValue::Int(v) => w.put_u8(2).put_i64(*v),
            ModelValue::Double(v) => w.put_u8(3).put_f64(*v),
            ModelValue::Str(v) => w.put_u8(4).put_str(v),
        };
    }
}

#[test]
fn a_shared_string_value_behaves_as_an_owned_one_did() {
    use std::hash::{Hash, Hasher};
    let hash_code = |v: &Value| {
        let mut state = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut state);
        state.finish()
    };
    let mut rng = StdRng::seed_from_u64(0x5ede_c0df);
    let mut strings = 0;
    for case in 0..2_000 {
        // Short strings over a small alphabet, so equal texts and shared
        // prefixes both come up; a clone half the time, so two handles on
        // one text do too.
        let gen = |rng: &mut StdRng| match rng.gen_range(0..3u32) {
            0 => gen_value(rng),
            _ => Value::from(gen_string(rng, b"ab'", 3)),
        };
        let a = gen(&mut rng);
        let b = if rng.gen_range(0..2u32) == 0 {
            a.clone()
        } else {
            gen(&mut rng)
        };
        let (ma, mb) = (ModelValue::of(&a), ModelValue::of(&b));
        assert_eq!(a.cmp(&b), ma.cmp(&mb), "case {case}: {a} vs {b}");
        assert_eq!(a == b, ma == mb, "case {case}: {a} vs {b}");
        assert_eq!(hash_code(&a), ma.hash_code(), "case {case}: {a}");
        assert_eq!(a.to_string(), ma.display(), "case {case}");
        let (mut w, mut model) = (Writer::new(), Writer::new());
        a.encode(&mut w);
        ma.encode(&mut model);
        assert_eq!(a.encoded_len(), w.len(), "case {case}: {a}");
        let bytes = w.finish();
        assert_eq!(bytes, model.finish(), "case {case}: {a}");
        let back = Value::decode(&mut Reader::new(bytes)).unwrap();
        assert_eq!(ModelValue::of(&back), ma, "case {case}");
        if let ModelValue::Str(text) = &ma {
            strings += 1;
            assert_eq!(a.as_str(), Some(text.as_str()), "case {case}");
            assert_eq!(Value::from(text.as_str()), a, "case {case}");
            assert_eq!(Value::from(text.clone()), a, "case {case}");
        }
    }
    assert!(strings > 1_000, "{strings} string cases");
}

#[test]
fn memento_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0001);
    for _ in 0..300 {
        let m = gen_memento(&mut rng);
        let mut w = Writer::new();
        m.encode(&mut w);
        assert_eq!(m.encoded_len(), w.len(), "memento {m:?}");
        let mut r = Reader::new(w.finish());
        let decoded = Memento::decode(&mut r, None).unwrap();
        assert_eq!(decoded, m, "memento {m:?}");
    }
}

#[test]
fn predicate_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0002);
    for _ in 0..300 {
        let p = gen_predicate(&mut rng, 3);
        let mut w = Writer::new();
        p.encode(&mut w);
        let mut r = Reader::new(w.finish());
        assert_eq!(Predicate::decode(&mut r).unwrap(), p, "predicate {p:?}");
    }
}

fn assert_sql_round_trip(p: &Predicate) {
    let sql = format!("SELECT * FROM holding WHERE {p}");
    let stmt = sli_edge::datastore::sql::parse(&sql)
        .unwrap_or_else(|e| panic!("{sql:?} does not parse: {e}"));
    match stmt {
        sli_edge::datastore::sql::Statement::Select { predicate, .. } => {
            assert_eq!(&predicate, p, "via {sql:?}")
        }
        other => panic!("unexpected statement {other:?}"),
    }
}

#[test]
fn predicate_to_sql_round_trips_through_parser() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0003);
    for _ in 0..300 {
        assert_sql_round_trip(&gen_predicate(&mut rng, 3));
    }
}

// ---------- in-place placeholder evaluation ----------

/// [`gen_predicate`] with `?` placeholders: a third of the leaves compare a
/// column with parameter 0..`params`.
fn gen_param_predicate(rng: &mut StdRng, depth: u32, params: usize) -> Predicate {
    if depth > 0 && rng.gen_range(0..8u32) < 4 {
        let a = Box::new(gen_param_predicate(rng, depth - 1, params));
        return match rng.gen_range(0..3u32) {
            0 => Predicate::And(a, Box::new(gen_param_predicate(rng, depth - 1, params))),
            1 => Predicate::Or(a, Box::new(gen_param_predicate(rng, depth - 1, params))),
            _ => Predicate::Not(a),
        };
    }
    if rng.gen_range(0..3u32) > 0 {
        return gen_predicate(rng, 0);
    }
    Predicate::CmpParam {
        column: ["owner", "qty", "id"][rng.gen_range(0..3usize)].into(),
        // Equalities are over-weighted: they are what `equality_on` finds.
        op: [CmpOp::Eq, CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge][rng.gen_range(0..5usize)],
        index: rng.gen_range(0..params),
    }
}

/// The engine evaluates `?` placeholders where they stand instead of
/// building `bind`'s owned copy of the predicate. For every tree, row and
/// parameter vector — vectors too short for the tree included — the two
/// must agree: the same `bool` or the same error from `matches`, the same
/// pinned value from `equality_on`.
#[test]
fn in_place_evaluation_equals_bind_then_match() {
    const PARAMS: usize = 4;
    let schema = Schema::new(
        "holding",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("owner", ColumnType::Varchar),
            Column::new("qty", ColumnType::Double),
            Column::new("note", ColumnType::Varchar),
        ],
        "id",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x3e3e_000a);
    let (mut matched, mut rejected, mut short, mut pinned) = (0, 0, 0, 0);
    for case in 0..4_000 {
        let p = gen_param_predicate(&mut rng, 3, PARAMS);
        let mut row = [
            Value::from(rng.gen_range(0i64..100)),
            Value::from(gen_string(&mut rng, b"az09:", 4)),
            Value::from(rng.gen_range(0.0f64..100.0)),
            Value::from("n"),
        ];
        for cell in &mut row[1..] {
            if rng.gen_range(0..6u32) == 0 {
                *cell = Value::Null;
            }
        }
        let mut params: Vec<Value> = (0..PARAMS)
            .map(|_| match rng.gen_range(0..4u32) {
                // Values present in the row, so equalities also hold.
                0 => row[rng.gen_range(0..3usize)].clone(),
                1 => Value::Null,
                _ => gen_sql_literal(&mut rng),
            })
            .collect();
        if rng.gen_range(0..4u32) == 0 {
            params.truncate(rng.gen_range(0..PARAMS));
        }
        let at = format!("case {case}: {p:?} on {row:?} with {params:?}");

        let bound = p.bind(&params);
        let in_place = p.matches(&schema, &row, &params);
        let via_bind = bound
            .clone()
            .and_then(|bound| bound.matches(&schema, &row, &[]));
        assert_eq!(in_place, via_bind, "{at}");
        match in_place {
            Ok(true) => matched += 1,
            Ok(false) => rejected += 1,
            Err(e) => {
                assert!(matches!(e, DbError::ParamCount { .. }), "{at}: {e}");
                short += 1;
            }
        }
        if let Ok(bound) = bound {
            for column in ["id", "owner", "qty", "note"] {
                let value = p.equality_on(column, &params);
                assert_eq!(value, bound.equality_on(column, &[]), "{at}: {column}");
                pinned += usize::from(value.is_some());
            }
        }
    }
    // Every outcome is well represented, so none of the checks is vacuous.
    for (what, n) in [
        ("matched", matched),
        ("rejected", rejected),
        ("too few parameters", short),
        ("pinned columns", pinned),
    ] {
        assert!(n >= 200, "only {n} cases of: {what}");
    }
}

/// The shrunken counterexample recorded in
/// `tests/properties.proptest-regressions`: an empty `IN` nested under
/// disjunctions used to render as an `IS NULL AND IS NOT NULL`
/// contradiction, which parsed back to a different tree than it evaluated
/// as. It must round-trip structurally now.
#[test]
fn empty_in_regression_survives_sql_round_trip() {
    let p = Predicate::Or(
        Box::new(Predicate::Or(
            Box::new(Predicate::cmp("owner", CmpOp::Eq, 0)),
            Box::new(Predicate::In {
                column: "owner".into(),
                values: vec![],
            }),
        )),
        Box::new(Predicate::cmp("owner", CmpOp::Eq, 0)),
    );
    assert_sql_round_trip(&p);
    // And the other connectives around the same hard leaf.
    let empty = || Predicate::In {
        column: "owner".into(),
        values: vec![],
    };
    assert_sql_round_trip(&Predicate::Not(Box::new(empty())));
    assert_sql_round_trip(&empty().and(Predicate::eq("owner", "uid:1")));
    assert_sql_round_trip(&empty());
}

#[test]
fn commit_request_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0004);
    for _ in 0..150 {
        let entries: Vec<CommitEntry> = (0..rng.gen_range(1..6u32))
            .map(|i| {
                let m = gen_memento(&mut rng);
                CommitEntry {
                    bean: m.bean().into(),
                    key: m.primary_key().clone(),
                    kind: match i % 4 {
                        0 => EntryKind::Read { before: m.clone() },
                        1 => EntryKind::Update {
                            before: m.clone(),
                            after: m.clone(),
                        },
                        2 => EntryKind::Create { after: m.clone() },
                        _ => EntryKind::Remove { before: m },
                    },
                }
            })
            .collect();
        let req = CommitRequest {
            origin: rng.gen_range(0..8u32),
            txn_id: rng.gen_range(0..u64::MAX),
            entries,
        };
        let frame = req.encode();
        // Written in place under a back-patched length, it is the bytes a
        // finished encoding is nested as.
        let (mut nested, mut copied) = (Writer::new(), Writer::new());
        nested.put_u8(3).put_nested(|w| req.encode_into(w));
        copied.put_u8(3).put_frame(&frame);
        assert_eq!(nested.finish(), copied.finish());
        let back = CommitRequest::decode(&mut Reader::new(frame), &MetaRegistry::new()).unwrap();
        assert_eq!(back, req);
    }
}

// ---------- the message path: one buffer, the same bytes ----------

/// `HttpRequest::encode` as it was while it formatted a string per line,
/// over the parts a request is built from.
fn format_request(uri: &str, params: &[(String, String)], cookie: Option<&str>) -> Vec<u8> {
    let mut out = String::new();
    let query: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let uri = if query.is_empty() {
        uri.to_owned()
    } else {
        format!("{}?{}", uri, query.join("&"))
    };
    out.push_str(&format!("GET {uri} HTTP/1.0\r\n"));
    out.push_str("Host: trade.example.com\r\n");
    out.push_str("User-Agent: sli-edge-loadgen/1.0\r\n");
    out.push_str("Accept: text/html\r\n");
    if let Some(c) = cookie {
        out.push_str(&format!("Cookie: JSESSIONID={c}\r\n"));
    }
    out.push_str("\r\n");
    out.into_bytes()
}

/// `HttpResponse::encode` as it was while it formatted a string per line.
fn format_response(resp: &HttpResponse) -> Vec<u8> {
    let mut out = String::new();
    let reason = match resp.status {
        200 => "OK",
        302 => "Found",
        404 => "Not Found",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    out.push_str(&format!("HTTP/1.0 {} {}\r\n", resp.status, reason));
    out.push_str("Server: sli-edge/1.0\r\n");
    out.push_str("Content-Type: text/html; charset=iso-8859-1\r\n");
    out.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
    if let Some(c) = &resp.set_cookie {
        out.push_str(&format!("Set-Cookie: JSESSIONID={c}; Path=/\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(&resp.body);
    out.into_bytes()
}

#[test]
fn http_messages_are_what_the_formatter_wrote() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0019);
    // No parameters, empty names and values, an empty cookie and a status
    // outside the reason table are all drawn.
    const STATUSES: [u16; 8] = [200, 302, 404, 409, 500, 503, 418, 7];
    for _ in 0..300 {
        let params: Vec<(String, String)> = (0..rng.gen_range(0..5u32))
            .map(|_| {
                (
                    gen_string(&mut rng, b"abcxyz", 6),
                    gen_string(&mut rng, b"abz09:.@-", 12),
                )
            })
            .collect();
        let uri = format!("/{}", gen_string(&mut rng, b"abc/", 9));
        let cookie = (rng.gen_range(0..3u32) > 0).then(|| gen_string(&mut rng, b"abz09:-", 12));
        let mut req = HttpRequest::get(&uri, params.iter().map(|(k, v)| (k, v)));
        if let Some(c) = &cookie {
            req = req.with_cookie(c);
        }
        let raw = req.clone().encode();
        assert_eq!(
            raw,
            format_request(&uri, &params, cookie.as_deref()),
            "{req:?}"
        );
        assert_eq!(raw.len(), req.encoded_len(), "{req:?}");
        let parsed = HttpRequest::parse(&raw).unwrap();
        assert_eq!(parsed, req);
        for r in [&req, &parsed] {
            assert_eq!(
                (r.method(), r.uri(), r.session_cookie()),
                ("GET", uri.as_str(), cookie.as_deref())
            );
            assert!(r
                .params()
                .eq(params.iter().map(|(k, v)| (k.as_str(), v.as_str()))));
        }
        for (name, _) in &params {
            let first = params
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str());
            assert_eq!(req.param(name), first, "{req:?}");
            assert_eq!(parsed.param(name), first, "{req:?}");
        }

        let body = gen_string(&mut rng, b"<html>/ \r\n09", 4000);
        let status = STATUSES[rng.gen_range(0..STATUSES.len())];
        let mut resp = HttpResponse::error(status, body);
        if rng.gen_range(0..3u32) > 0 {
            resp = resp.with_cookie(gen_string(&mut rng, b"abz09:-", 12));
        }
        let raw = resp.clone().encode();
        assert_eq!(raw, format_response(&resp), "status {status}");
        assert_eq!(raw.len(), resp.encoded_len(), "status {status}");
        assert_eq!(HttpResponse::parse(&raw).unwrap(), resp);
    }
}

/// Fails unless [`Money`] and a [`Value`] write `v` byte for byte as
/// `core::fmt`'s `{:.2}` and `{}` do.
fn assert_written_as_core_fmt(v: f64) {
    let bits = v.to_bits();
    assert_eq!(
        Money(v).to_string(),
        format!("{v:.2}"),
        "Money of {v:?} ({bits:#x})"
    );
    assert_eq!(
        Value::Double(v).to_string(),
        format!("{v}"),
        "{v:?} ({bits:#x})"
    );
}

#[test]
fn money_and_doubles_are_written_as_core_fmt_writes_them() {
    let check = assert_written_as_core_fmt;
    // Ties of the exact value, ties only in decimal, the fast path's
    // bounds, signed zero, the smallest subnormal and the non-finite.
    for v in [
        0.125,
        0.375,
        2.675,
        1.005,
        0.005,
        0.015,
        0.0,
        5e-324,
        0.1 + 0.2,
    ] {
        check(v);
        check(-v);
    }
    for v in [1e9, 1e9 - 0.005, 1e9 + 0.005, 1e9 - 0.01, 999_999_999.995] {
        check(v);
        check(-v);
    }
    for v in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
    ] {
        check(v);
    }
    let mut rng = StdRng::seed_from_u64(0x0c0f_fee5);
    for _ in 0..250_000 {
        // Whole cents, as prices and balances are, and sums of them.
        let cents = rng.gen_range(0..100_000_000_000u64) as f64 / 100.0;
        let sign = if rng.gen_range(0..2u32) == 0 {
            1.0
        } else {
            -1.0
        };
        check(sign * cents);
        check(cents - rng.gen_range(0..1_000_000u64) as f64 / 100.0);
        // Any bit pattern: mostly what the fallback writes.
        check(f64::from_bits(rng.next_u64()));
        // Uniforms scaled over the fast path's range and past it, and a
        // half cent nudged by a few ulps.
        let scaled = rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-4..12i32));
        check(scaled);
        let half = (rng.gen_range(0..1_000_000u64) as f64 + 0.5) / 100.0;
        check(f64::from_bits(half.to_bits() + rng.gen_range(0..5u64) - 2));
    }
}

#[test]
fn a_message_written_behind_its_header_is_the_framed_payload() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0119);
    // Empty, short, and longer than the room a framed writer starts with.
    let mut lens = vec![0, 1, 31, 224, 225, 5000];
    lens.extend((0..100).map(|_| rng.gen_range(0..2000usize)));
    for len in lens {
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let (proto, correlation, trace_id) = (
            [protocol::JDBC, protocol::BACKEND][rng.gen_range(0..2usize)],
            rng.gen_range(0..u64::MAX),
            rng.gen_range(0..u64::MAX),
        );
        let (mut framed, mut plain) = (Writer::framed(), Writer::new());
        assert!(framed.is_empty());
        for w in [&mut framed, &mut plain] {
            w.put_u8(2).put_bytes(&payload).put_str("tail");
        }
        assert_eq!(framed.len(), plain.len());
        let message = framed.finish_frame(proto, correlation, trace_id);
        let payload = plain.finish();
        assert_eq!(
            message,
            frame_traced(proto, correlation, trace_id, &payload),
            "{len} bytes"
        );
        let (header, body) = unframe(message).unwrap();
        assert_eq!(
            (header.protocol, header.correlation, header.trace_id),
            (proto, correlation, trace_id)
        );
        assert_eq!(body, payload);
    }
}

/// The frame checksum as it was computed a byte a step: `acc * 31 + byte`,
/// wrapping.
fn byte_fold(payload: &[u8]) -> u32 {
    payload.iter().fold(0u32, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u32::from(*b))
    })
}

/// The checksum `wire::frame` wrote for `payload`: bytes 28..32 of the
/// frame's header.
fn framed_checksum(payload: &[u8]) -> u32 {
    let framed = frame(protocol::JDBC, 1, &payload.to_vec().into());
    assert_eq!(&framed[32..], payload);
    u32::from_be_bytes(framed[28..32].try_into().unwrap())
}

#[test]
fn the_strided_checksum_is_the_byte_fold() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0018);
    // Every length around the stride: no lane, a tail alone, whole strides,
    // strides and a tail. High bytes included, so a lane's product wraps.
    for len in 0..=64usize {
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        assert_eq!(
            framed_checksum(&payload),
            byte_fold(&payload),
            "{len} bytes"
        );
        let ones = vec![0xFF; len];
        assert_eq!(
            framed_checksum(&ones),
            byte_fold(&ones),
            "{len} bytes of 0xFF"
        );
    }
    for case in 0..1_200 {
        let len = rng.gen_range(0..8 * 1024 + 1usize);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        assert_eq!(
            framed_checksum(&payload),
            byte_fold(&payload),
            "case {case}: {len} bytes"
        );
    }
    // A flipped payload byte is still caught wherever it lies: in any lane
    // of any stride, or in the tail.
    for len in [64usize, 61] {
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let framed = frame(protocol::BACKEND, 9, &payload.clone().into());
        assert_eq!(&unframe(framed.clone()).unwrap().1[..], &payload[..]);
        for at in 0..len {
            let mut bad = framed.to_vec();
            bad[32 + at] ^= 1 << rng.gen_range(0..8u32);
            assert!(unframe(bad.into()).is_err(), "byte {at} of {len}");
        }
    }
}

#[test]
fn result_set_codec_round_trips_and_names_its_columns() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0219);
    // No columns, empty names and names outside ASCII are all drawn.
    let alphabet: Vec<char> = "abz_09 é漢🙂".chars().collect();
    for _ in 0..300 {
        let names: Vec<String> = (0..rng.gen_range(0..5u32))
            .map(|_| {
                (0..rng.gen_range(0..7u32))
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect()
            })
            .collect();
        let rows: Vec<Vec<Value>> = (0..rng.gen_range(0..4u32))
            .map(|_| names.iter().map(|_| gen_value(&mut rng)).collect())
            .collect();
        let rs = ResultSet::with_rows(names.clone(), rows.clone());
        assert_eq!(rs.columns().collect::<Vec<_>>(), names);
        for (i, name) in names.iter().enumerate() {
            let first = names.iter().position(|n| n == name).unwrap();
            assert_eq!(rs.column_index(name), Some(first));
            if let (true, Some(row)) = (first == i, rows.first()) {
                assert_eq!(rs.value(0, name), Some(&row[i]));
            }
        }
        let mut w = Writer::new();
        rs.encode(&mut w);
        w.put_str("next");
        let mut r = Reader::new(w.finish());
        let back = ResultSet::decode(&mut r).unwrap();
        assert_eq!(back, rs);
        assert_eq!(back.columns().collect::<Vec<_>>(), names);
        assert_eq!(back.rows().to_vec(), rows);
        assert_eq!(r.get_str().unwrap(), "next", "decode stops at its end");
    }
}

/// A result as it was before its cells were one vector: its names, and a
/// vector of cells per row — encoded the way that form encoded itself.
fn encode_nested(names: &[String], rows: &[Vec<Value>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(0).put_u32(names.len() as u32);
    for name in names {
        w.put_str(name);
    }
    w.put_u32(rows.len() as u32);
    for row in rows {
        for v in row {
            v.encode(&mut w);
        }
    }
    w.finish().to_vec()
}

#[test]
fn a_result_is_its_rows_in_one_vector_of_cells() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0226);
    let alphabet: Vec<char> = "ab_9 é漢🙂".chars().collect();
    let mut shapes = std::collections::BTreeSet::new();
    for case in 0..400 {
        // 0–4 columns (none with rows too), 0–6 rows, every kind of value,
        // strings outside ASCII.
        let (width, len) = (rng.gen_range(0..5usize), rng.gen_range(0..7usize));
        shapes.insert((width, len));
        let names: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
        let rows: Vec<Vec<Value>> = (0..len)
            .map(|_| {
                (0..width)
                    .map(|_| match rng.gen_range(0..6u32) {
                        5 => Value::from(
                            (0..rng.gen_range(0..6u32))
                                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                                .collect::<String>(),
                        ),
                        _ => gen_value(&mut rng),
                    })
                    .collect()
            })
            .collect();
        let rs = ResultSet::with_rows(names.clone(), rows.clone());
        let mut w = Writer::new();
        rs.encode(&mut w);
        let encoded = w.finish();
        assert_eq!(
            encoded.to_vec(),
            encode_nested(&names, &rows),
            "case {case}"
        );

        // Rows of no columns cost no bytes, so a reply holding them must
        // have as many bytes behind it to decode: the next message's.
        let mut w = Writer::new();
        w.put_raw(&encoded).put_str("next");
        let mut r = Reader::new(w.finish());
        let back = ResultSet::decode(&mut r).unwrap();
        assert_eq!(
            r.get_str().unwrap(),
            "next",
            "case {case}: decode stops at its end"
        );
        assert_eq!(back, rs, "case {case}");
        for result in [&rs, &back] {
            let view = result.rows();
            assert_eq!((result.len(), view.len()), (len, len), "case {case}");
            assert_eq!(result.is_empty(), len == 0);
            assert_eq!(view.first(), rows.first().map(Vec::as_slice));
            assert_eq!(view.get(len), None);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(&view[i], row.as_slice(), "case {case}: row {i}");
                assert_eq!(view.get(i), Some(row.as_slice()));
            }
            assert!(
                view.iter().eq(rows.iter().map(Vec::as_slice)),
                "case {case}"
            );
            assert_eq!(view.iter().len(), len);
            assert_eq!(view.to_vec(), rows);
            let scalar = (width == 1 && len == 1).then(|| &rows[0][0]);
            assert_eq!(result.scalar(), scalar, "case {case}");
        }
    }
    assert_eq!(shapes.len(), 5 * 7, "every shape drawn");
}

// ---------- validator equivalence ----------

fn account_meta() -> EntityMeta {
    EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
        .field("balance", ColumnType::Double)
        .field("note", ColumnType::Varchar)
}

fn registry() -> MetaRegistry {
    MetaRegistry::new().with(account_meta())
}

fn db_with_rows(rows: &[(String, f64)]) -> Arc<Database> {
    let db = Database::new();
    registry().create_schema(&db).unwrap();
    let mut conn = db.connect();
    for (user, balance) in rows {
        // ignore duplicates from the generator: first write wins
        let _ = conn.execute(
            "INSERT INTO account (userid, balance) VALUES (?, ?)",
            &[Value::from(user.clone()), Value::from(*balance)],
        );
    }
    db
}

fn dump(db: &Arc<Database>) -> Vec<Vec<Value>> {
    let mut conn = db.connect();
    conn.execute("SELECT * FROM account", &[])
        .unwrap()
        .rows()
        .to_vec()
}

fn account_image(user: &str, balance: f64) -> Memento {
    Memento::new("Account", Value::from(user))
        .with_field("balance", balance)
        .with_field("note", Value::Null)
}

fn gen_user(rng: &mut StdRng) -> String {
    char::from(b'a' + rng.gen_range(0..4u8)).to_string()
}

/// An arbitrary commit request of one to four entries of any kind, with
/// before-images drawn at random, over an arbitrary table: most conflict,
/// including in the middle of an applied prefix.
fn arbitrary_case(rng: &mut StdRng) -> (HashMap<String, f64>, Vec<CommitEntry>) {
    let mut initial: HashMap<String, f64> = HashMap::new();
    for _ in 0..rng.gen_range(0..4u32) {
        // first write wins
        let (user, balance) = (gen_user(rng), rng.gen_range(0.0f64..100.0));
        initial.entry(user).or_insert(balance);
    }
    let entries = (0..rng.gen_range(1..5u32))
        .map(|_| {
            let user = gen_user(rng);
            let before = rng.gen_range(0.0f64..100.0);
            let after = rng.gen_range(0.0f64..100.0);
            CommitEntry {
                bean: "Account".into(),
                key: Value::from(user.clone()),
                kind: match rng.gen_range(0..4u32) {
                    0 => EntryKind::Read {
                        before: account_image(&user, before),
                    },
                    1 => EntryKind::Update {
                        before: account_image(&user, before),
                        after: account_image(&user, after),
                    },
                    2 => EntryKind::Create {
                        after: account_image(&user, after),
                    },
                    _ => EntryKind::Remove {
                        before: account_image(&user, before),
                    },
                },
            }
        })
        .collect();
    (initial, entries)
}

/// The naive reference the validator is pinned to: the table as a map,
/// entries applied strictly one at a time. Returns whether `entry`
/// validated (and, if so, applies its after-image to `rows`).
fn model_step(rows: &mut HashMap<String, f64>, entry: &CommitEntry) -> bool {
    let user = entry.key.as_str().expect("string key").to_owned();
    let current = rows
        .get(&user)
        .map(|balance| account_image(&user, *balance));
    let balance_of = |image: &Memento| {
        image
            .get("balance")
            .and_then(Value::as_double)
            .expect("balance field")
    };
    match &entry.kind {
        EntryKind::Read { before } => current.as_ref() == Some(before),
        EntryKind::Update { before, after } => {
            current.as_ref() == Some(before) && rows.insert(user, balance_of(after)).is_some()
        }
        EntryKind::Create { after } => {
            current.is_none() && rows.insert(user, balance_of(after)).is_none()
        }
        EntryKind::Remove { before } => {
            current.as_ref() == Some(before) && rows.remove(&user).is_some()
        }
    }
}

/// All-or-nothing commit over the model: the first entry that fails
/// validation aborts the request and leaves the table untouched.
fn model_commit(
    rows: &HashMap<String, f64>,
    entries: &[CommitEntry],
) -> (bool, HashMap<String, f64>) {
    let mut work = rows.clone();
    if entries.iter().all(|e| model_step(&mut work, e)) {
        (true, work)
    } else {
        (false, rows.clone())
    }
}

fn table_as_map(db: &Arc<Database>) -> HashMap<String, f64> {
    dump(db)
        .into_iter()
        .map(|row| {
            assert_eq!(row[2], Value::Null, "note column stays NULL");
            (
                row[0].as_str().expect("userid").to_owned(),
                row[1].as_double().expect("balance"),
            )
        })
        .collect()
}

/// Runs `entries` through the validator over a table holding `initial`
/// and checks it against the model: the same outcome, the same final table
/// and no transaction left open. Returns whether the model committed.
fn check_against_model(initial: &HashMap<String, f64>, entries: Vec<CommitEntry>) -> bool {
    let (model_committed, model_rows) = model_commit(initial, &entries);
    let request = CommitRequest {
        origin: 0,
        txn_id: 0,
        entries,
    };
    let rows: Vec<(String, f64)> = initial.iter().map(|(u, b)| (u.clone(), *b)).collect();
    let db = db_with_rows(&rows);
    let mut conn = db.connect();
    let outcome = validate_and_apply(&mut conn, &registry(), &request).unwrap();
    assert_eq!(
        matches!(outcome, CommitOutcome::Committed),
        model_committed,
        "outcome vs model on {request:?} over {initial:?}: {outcome:?}"
    );
    assert_eq!(
        table_as_map(&db),
        model_rows,
        "state vs model on {request:?} over {initial:?}"
    );
    assert!(
        !conn.in_transaction(),
        "a transaction left open on {request:?}"
    );
    model_committed
}

/// The validator must match the naive model on outcome and final table —
/// including for requests that name the same `(bean, key)` more than once,
/// where a later entry must see an earlier entry's write — and leave no
/// transaction open. Two generators feed it: requests drawn against a
/// shadow of the table, so that about half commit, and arbitrary requests
/// over arbitrary tables, most of which conflict.
#[test]
fn validators_match_the_one_entry_at_a_time_model() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0006);
    let (cases, mut duplicated, mut committed) = (96, 0, 0);
    for case in 0..cases {
        let mut initial: HashMap<String, f64> = HashMap::new();
        for _ in 0..rng.gen_range(0..4u32) {
            initial
                .entry(gen_user(&mut rng))
                .or_insert(rng.gen_range(0.0f64..100.0));
        }
        // Entries are drawn against a shadow of the table as earlier
        // entries leave it, so most before-images are current and whole
        // requests commit; a stale image or an impossible kind is mixed in
        // to keep conflicts — and the rollback of applied prefixes — common.
        let mut shadow = initial.clone();
        let mut entries: Vec<CommitEntry> = Vec::new();
        for i in 0..rng.gen_range(2..6u32) {
            let user = match entries.first() {
                // Every other case repeats the first entry's key.
                Some(first) if i == 1 && case % 2 == 0 => {
                    first.key.as_str().expect("string key").to_owned()
                }
                _ => gen_user(&mut rng),
            };
            let stale = rng.gen_range(0..5u32) == 0;
            let before = match shadow.get(&user) {
                Some(balance) if !stale => *balance,
                _ => rng.gen_range(0.0f64..100.0),
            };
            let after = rng.gen_range(0.0f64..100.0);
            let exists = shadow.contains_key(&user) != stale;
            let kind = match (exists, rng.gen_range(0..3u32)) {
                (false, _) => EntryKind::Create {
                    after: account_image(&user, after),
                },
                (true, 0) => EntryKind::Read {
                    before: account_image(&user, before),
                },
                (true, 1) => EntryKind::Update {
                    before: account_image(&user, before),
                    after: account_image(&user, after),
                },
                (true, _) => EntryKind::Remove {
                    before: account_image(&user, before),
                },
            };
            let entry = CommitEntry {
                bean: "Account".into(),
                key: Value::from(user),
                kind,
            };
            model_step(&mut shadow, &entry);
            entries.push(entry);
        }
        let mut keys: Vec<&Value> = entries.iter().map(|e| &e.key).collect();
        keys.sort_by_key(|k| k.to_string());
        duplicated += usize::from(keys.windows(2).any(|w| w[0] == w[1]));

        committed += usize::from(check_against_model(&initial, entries));
    }
    let mut rng = StdRng::seed_from_u64(0x3e3e_0005);
    for _ in 0..64 {
        let (initial, entries) = arbitrary_case(&mut rng);
        check_against_model(&initial, entries);
    }
    assert!(
        3 * duplicated >= cases,
        "only {duplicated} duplicate-key cases"
    );
    assert!(
        committed >= cases / 4 && committed <= 3 * cases / 4,
        "generator must mix outcomes, got {committed} commits of {cases}"
    );
}

// ---------- cache transparency ----------

#[derive(Debug, Clone)]
enum Op {
    Set(u8, f64),
    Remove(u8),
    Create(u8, f64),
    Read(u8),
}

fn gen_op(rng: &mut StdRng) -> Op {
    let key = rng.gen_range(0..6u8);
    match rng.gen_range(0..4u32) {
        0 => Op::Set(key, rng.gen_range(0.0f64..100.0)),
        1 => Op::Remove(key),
        2 => Op::Create(key, rng.gen_range(0.0f64..100.0)),
        _ => Op::Read(key),
    }
}

fn apply_ops(container: &Container, ops: &[Op]) {
    for op in ops {
        // Each op runs in its own transaction; business errors (not found,
        // duplicates) are expected and ignored — both deployments must
        // ignore the *same* ones.
        let _ = container.with_transaction(|ctx: &mut TxContext, c: &Container| {
            let home = c.home("Account")?;
            match op {
                Op::Set(k, v) => {
                    home.set_field(ctx, &Value::from(*k as i64), "balance", Value::from(*v))?;
                }
                Op::Remove(k) => {
                    home.remove(ctx, &Value::from(*k as i64))?;
                }
                Op::Create(k, v) => {
                    home.create(
                        ctx,
                        Memento::new("Account", Value::from(*k as i64)).with_field("balance", *v),
                    )?;
                }
                Op::Read(k) => {
                    home.get_field(ctx, &Value::from(*k as i64), "balance")?;
                }
            }
            Ok(())
        });
    }
}

fn int_account_meta() -> EntityMeta {
    EntityMeta::new("Account", "account", "userid", ColumnType::Int)
        .field("balance", ColumnType::Double)
}

/// The transparency property (§1.3): swapping BMP homes for SLI homes
/// must not change observable persistent state, for arbitrary operation
/// sequences.
#[test]
fn sli_cache_is_transparent_to_arbitrary_workloads() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0006);
    for _ in 0..48 {
        let ops: Vec<Op> = (0..rng.gen_range(1..30u32))
            .map(|_| gen_op(&mut rng))
            .collect();
        let reg = MetaRegistry::new().with(int_account_meta());

        // vanilla deployment
        let db_vanilla = Database::new();
        reg.create_schema(&db_vanilla).unwrap();
        let conn = share_connection(db_vanilla.connect());
        let mut vanilla = Container::new(Arc::new(JdbcResourceManager::new(Arc::clone(&conn))));
        vanilla.register(Arc::new(BmpHome::new(int_account_meta(), conn)));

        // cached deployment
        let db_cached = Database::new();
        reg.create_schema(&db_cached).unwrap();
        let store = CommonStore::new();
        let source = Arc::new(DirectSource::new(
            Box::new(db_cached.connect()),
            reg.clone(),
        ));
        let committer = Arc::new(CombinedCommitter::new(
            Box::new(db_cached.connect()),
            reg.clone(),
        ));
        let rm = Arc::new(SliResourceManager::new(1, committer, Arc::clone(&store)));
        let mut cached = Container::new(rm as Arc<dyn ResourceManager>);
        cached.register(Arc::new(SliHome::new(int_account_meta(), store, source)));

        apply_ops(&vanilla, &ops);
        apply_ops(&cached, &ops);

        assert_eq!(dump(&db_vanilla), dump(&db_cached), "ops {ops:?}");
        assert_eq!(db_vanilla.lock_manager().lock_count(), 0);
        assert_eq!(db_cached.lock_manager().lock_count(), 0);
    }
}

// ---------- common store vs. a reference LRU ----------

/// The naive LRU the common store must be indistinguishable from: images in
/// a `Vec` ordered least- to most-recently used, every operation a linear
/// scan.
#[derive(Default)]
struct ModelLru {
    capacity: Option<usize>,
    order: Vec<Memento>,
    stats: CacheStats,
}

impl ModelLru {
    fn take(&mut self, bean: &str, key: &Value) -> Option<Memento> {
        let at = self
            .order
            .iter()
            .position(|m| m.bean() == bean && m.primary_key() == key)?;
        Some(self.order.remove(at))
    }

    fn get(&mut self, bean: &str, key: &Value) -> Option<Memento> {
        let found = self.take(bean, key);
        match &found {
            Some(image) => {
                self.order.push(image.clone());
                self.stats.hits += 1;
            }
            None => self.stats.misses += 1,
        }
        found
    }

    fn put(&mut self, image: Memento) {
        self.take(image.bean(), image.primary_key());
        self.order.push(image);
        while self.capacity.is_some_and(|c| self.order.len() > c) {
            self.order.remove(0);
            self.stats.evictions += 1;
        }
    }

    fn invalidate(&mut self, bean: &str, key: &Value) {
        if self.take(bean, key).is_some() {
            self.stats.invalidations += 1;
        }
    }

    fn resident_bytes(&self) -> u64 {
        self.order.iter().map(|m| m.encoded_len() as u64).sum()
    }
}

#[test]
fn common_store_matches_a_naive_lru_model() {
    const OPS: usize = 10_000;
    const BEANS: [&str; 2] = ["Account", "Quote"];
    const KEYS: usize = 48;
    // Every (bean, key) image has its own encoded size, so a wrong eviction
    // victim shows up in `resident_bytes` on the very op that picks it.
    let gen_slot = |rng: &mut StdRng| {
        let (b, k) = (rng.gen_range(0..BEANS.len()), rng.gen_range(0..KEYS));
        (BEANS[b], Value::from(format!("k{k}")), b * KEYS + k)
    };
    for capacity in [Some(1), Some(2), Some(7), Some(64), None] {
        let mut rng = StdRng::seed_from_u64(0x3e3e_0009);
        let store = capacity.map_or_else(CommonStore::new, CommonStore::with_capacity);
        let mut model = ModelLru {
            capacity,
            ..ModelLru::default()
        };
        for op in 0..OPS {
            let at = format!("capacity {capacity:?}, op {op}");
            let (bean, key, pad) = gen_slot(&mut rng);
            match rng.gen_range(0..500u32) {
                0 => {
                    store.clear();
                    model.order.clear();
                }
                1..=200 => {
                    let image = Memento::new(bean, key)
                        .with_field("balance", rng.gen_range(0.0f64..1.0e6))
                        .with_field("pad", "x".repeat(pad));
                    store.put(image.clone());
                    model.put(image);
                }
                201..=400 => assert_eq!(store.get(bean, &key), model.get(bean, &key), "{at}"),
                _ => {
                    store.invalidate(bean, &key);
                    model.invalidate(bean, &key);
                }
            }
            // Periodically read every slot back through both: the surviving
            // key sets (and images) must be identical, not just their sizes.
            if op % 256 == 255 {
                for bean in BEANS {
                    for k in 0..KEYS {
                        let key = Value::from(format!("k{k}"));
                        assert_eq!(store.get(bean, &key), model.get(bean, &key), "{at}");
                    }
                }
            }
            assert_eq!(store.len(), model.order.len(), "{at}");
            assert_eq!(store.is_empty(), model.order.is_empty(), "{at}");
            assert_eq!(store.resident_bytes(), model.resident_bytes(), "{at}");
            assert_eq!(store.stats(), model.stats, "{at}");
        }
        let s = store.stats();
        assert!(s.hits > 0 && s.misses > 0 && s.invalidations > 0, "{s:?}");
        assert_eq!(s.evictions > 0, capacity.is_some(), "{capacity:?}: {s:?}");
    }
}

// ---------- the image path: shared images, borrowed keys, resolved SQL ----------

/// `m` rebuilt name by name and value by value: equal to it, sharing
/// nothing with it.
fn rebuilt(m: &Memento) -> Memento {
    let empty = Memento::new(m.bean().to_owned(), m.primary_key().clone());
    m.fields().iter().fold(empty, |copy, (name, value)| {
        copy.with_field(name.to_string(), value.clone())
    })
}

/// The bytes of an image of `bean` / `key` whose fields the wire names as
/// `fields` does, in that order and as often — which `Memento::encode`
/// writes only for sorted, distinct names.
fn encode_image(bean: &str, key: &Value, fields: &[(String, Value)]) -> bytes::Bytes {
    let mut head = Writer::new();
    Memento::new(bean, key.clone()).encode(&mut head);
    let head = head.finish();
    let mut w = Writer::new();
    // Everything up to the field count, which is the last four bytes.
    w.put_raw(&head[..head.len() - 4])
        .put_u32(fields.len() as u32);
    for (name, value) in fields {
        w.put_str(name);
        value.encode(&mut w);
    }
    w.finish()
}

/// `Memento::decode` as it was while an image kept its fields in a map:
/// every name copied off the wire and inserted, the last value of a
/// repeated name standing.
fn model_decode(frame: bytes::Bytes) -> (String, Value, BTreeMap<String, Value>) {
    let mut r = Reader::new(frame);
    let class = r.get_str().unwrap();
    let _uid = r.get_u64().unwrap();
    let bean = r.get_str().unwrap();
    assert_eq!(
        class,
        format!("com.ibm.websphere.samples.trade.ejb.{bean}Memento")
    );
    let key = Value::decode(&mut r).unwrap();
    let mut fields = BTreeMap::new();
    for _ in 0..r.get_u32().unwrap() {
        let name = r.get_str().unwrap();
        fields.insert(name, Value::decode(&mut r).unwrap());
    }
    assert!(r.is_empty());
    (bean, key, fields)
}

/// The names a descriptor of `bean` declaring `fields` lends, taken from an
/// `EntityMeta` that declares them in that order.
fn lent_names(bean: &str, fields: &[String]) -> ImageNames {
    let meta = fields.iter().fold(
        EntityMeta::new(bean, "t", "id", ColumnType::Int),
        |meta, name| meta.field(name.as_str(), ColumnType::Varchar),
    );
    let names = meta.image_names().clone();
    let mut sorted: Vec<&str> = fields.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(&**names.bean(), bean);
    assert!(names.fields().iter().map(|n| &**n).eq(sorted));
    names
}

#[test]
fn an_image_decodes_as_the_map_built_one_did_whoever_lends_the_names() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0019);
    let (mut tidy_cases, mut repeats, mut shared_names) = (0, 0, 0);
    // One string table across every case, as an endpoint keeps one.
    let strings = StrTable::shared();
    for case in 0..600 {
        let image = gen_memento(&mut rng);
        let (bean, key) = (image.bean(), image.primary_key());
        let own: Vec<String> = image.fields().iter().map(|(n, _)| n.to_string()).collect();
        // What the wire says: one time in three what `encode` writes, else
        // the fields shuffled, some named again with another value.
        let mut wire: Vec<(String, Value)> = own
            .iter()
            .cloned()
            .zip(image.fields().iter().map(|(_, v)| v.clone()))
            .collect();
        let tidy = rng.gen_range(0..3u32) == 0;
        if !tidy && !wire.is_empty() {
            for _ in 0..rng.gen_range(0..3u32) {
                let name = wire[rng.gen_range(0..wire.len())].0.clone();
                let at = rng.gen_range(0..wire.len() + 1);
                wire.insert(at, (name, gen_value(&mut rng)));
                repeats += 1;
            }
            for i in (1..wire.len()).rev() {
                wire.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let frame = encode_image(bean, key, &wire);
        let (model_bean, model_key, model_fields) = model_decode(frame.clone());
        let model_fields: Vec<(String, Value)> = model_fields.into_iter().collect();
        let model_bytes = encode_image(&model_bean, &model_key, &model_fields);
        let model = model_fields
            .iter()
            .fold(Memento::new(model_bean, model_key), |m, (name, value)| {
                m.with_field(name.as_str(), value.clone())
            });
        if tidy {
            tidy_cases += 1;
            assert_eq!(frame, model_bytes, "case {case}");
            assert_eq!(model, image, "case {case}");
        }

        // Who lends the names: nobody; the bean's descriptor, declaring its
        // fields in the wire's order; descriptors that lack one of the
        // fields, declare one more, or spell one differently; and the
        // descriptor of another bean with the same fields. Every other one
        // reads through the string table, which earlier cases filled — what
        // it may share, never what it decodes to.
        let declared: Vec<String> = wire.iter().map(|(n, _)| n.clone()).collect();
        let mut lacking = own.clone();
        let mut renamed = own.clone();
        if !own.is_empty() {
            let at = rng.gen_range(0..own.len());
            lacking.remove(at);
            renamed[at].push('x');
        }
        let mut extra = own.clone();
        extra.push(format!("f{}", gen_string(&mut rng, b"abcxyz09_", 4)));
        let lenders = [
            None,
            Some(lent_names(bean, &declared)),
            Some(lent_names(bean, &lacking)),
            Some(lent_names(bean, &extra)),
            Some(lent_names(bean, &renamed)),
            Some(lent_names("Other", &own)),
        ];
        for (which, lender) in lenders.iter().enumerate() {
            let at = format!("case {case}, lender {which}");
            let mut r = match (case + which) % 2 {
                0 => Reader::new(frame.clone()),
                _ => Reader::sharing(frame.clone(), &strings),
            };
            let decoded =
                Memento::decode(&mut r, lender.as_ref()).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(decoded, model, "{at}");
            assert_eq!(decoded.bean(), model.bean(), "{at}");
            assert_eq!(decoded.primary_key(), model.primary_key(), "{at}");
            let fields: Vec<(String, Value)> = decoded
                .fields()
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect();
            assert_eq!(fields, model_fields, "{at}");
            for (name, value) in &model_fields {
                assert_eq!(decoded.get(name), Some(value), "{at}: {name}");
            }
            assert_eq!(decoded.get("no such field"), None, "{at}");
            let mut w = Writer::new();
            decoded.encode(&mut w);
            assert_eq!(decoded.encoded_len(), w.len(), "{at}");
            assert_eq!(w.finish(), model_bytes, "{at}");
            assert_eq!(memento_digest(&decoded), memento_digest(&model), "{at}");
            // Where the descriptor is the bean's own and the wire is what
            // `encode` writes, every name is the descriptor's, not a copy.
            if let (1, true, Some(lender)) = (which, tidy, lender) {
                for ((name, _), lent) in decoded.fields().iter().zip(lender.fields()) {
                    assert!(Arc::ptr_eq(name, lent), "{at}: {name}");
                    shared_names += 1;
                }
            }
            // Another bean's descriptor lends nothing, however it spells.
            if let (5, Some(lender)) = (which, lender) {
                for ((name, _), lent) in decoded.fields().iter().zip(lender.fields()) {
                    assert!(!Arc::ptr_eq(name, lent), "{at}: {name}");
                }
            }
        }
    }
    assert!(tidy_cases > 100 && repeats > 100 && shared_names > 100);
}

#[test]
fn a_write_through_one_handle_never_reaches_another() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_000b);
    for case in 0..300 {
        let original = gen_memento(&mut rng);
        let pristine = rebuilt(&original);
        // Half the time the image is one decoded against its descriptor, so
        // the names it holds are the descriptor's, lent to every image of
        // the bean.
        let own: Vec<String> = original
            .fields()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        let lender = lent_names(original.bean(), &own);
        let original = if rng.gen_range(0..2u32) == 0 {
            let mut w = Writer::new();
            original.encode(&mut w);
            Memento::decode(&mut Reader::new(w.finish()), Some(&lender)).unwrap()
        } else {
            original
        };
        let (bean, key) = (original.bean(), original.primary_key());
        // One image, four holders: the caller, the common store, and a
        // transaction's before-image and current state.
        let store = CommonStore::new();
        store.put(original.clone());
        let mut ctx = TxContext::new();
        let st = ctx.enlist(bean, key);
        st.load_from(&store.get(bean, key).expect("just put"));
        // Write an existing field half the time, a new one otherwise.
        let name = match original.fields().first() {
            Some((name, _)) if rng.gen_range(0..2u32) == 0 => name.to_string(),
            _ => "fresh".to_owned(),
        };
        let (a, b) = (gen_value(&mut rng), gen_value(&mut rng));
        let mut clone = original.clone();
        clone.set(name.as_str(), a.clone());
        st.set_field(bean, key, &name, b.clone());
        assert_eq!(clone.get(&name), Some(&a), "case {case}");
        assert_eq!(st.field(&name), b, "case {case}");
        assert_eq!(st.to_memento(bean, key).get(&name), Some(&b), "case {case}");
        // The writer's copy stays an image: sorted, every name once.
        assert!(
            clone.fields().windows(2).all(|p| p[0].0 < p[1].0),
            "case {case}"
        );
        let expected = original.fields().len() + usize::from(original.get(&name).is_none());
        assert_eq!(clone.fields().len(), expected, "case {case}");
        // Neither write is visible through any other holder, nor in the
        // names the descriptor lends.
        assert_eq!(lender, lent_names(pristine.bean(), &own), "case {case}");
        assert_eq!(original, pristine, "case {case}: the caller's handle");
        assert_eq!(st.before.as_ref(), Some(&pristine), "case {case}");
        assert_eq!(store.get(bean, key), Some(pristine), "case {case}");
    }
}

#[test]
fn row_is_image_agrees_with_building_the_image() {
    let meta = EntityMeta::new("Holding", "holding", "id", ColumnType::Int)
        .field("owner", ColumnType::Varchar)
        .field("qty", ColumnType::Double)
        .field("note", ColumnType::Varchar);
    // Small domains, so equal and unequal cells both come up often.
    let gen_cell = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
        0 => Value::Null,
        1 => Value::from(rng.gen_range(0i64..3)),
        2 => Value::from(rng.gen_range(0..3u32) as f64),
        _ => Value::from(["ann", "bob", ""][rng.gen_range(0..3usize)]),
    };
    let mut rng = StdRng::seed_from_u64(0x3e3e_000c);
    let mut same = 0;
    const CASES: usize = 4_000;
    for case in 0..CASES {
        let row: Vec<Value> = (0..4).map(|_| gen_cell(&mut rng)).collect();
        // An image of the row, then, one time in six each: another bean,
        // another key, a missing field, a changed (perhaps NULL) field, an
        // extra field.
        let odd = |rng: &mut StdRng| rng.gen_range(0..6u32) == 0;
        let bean = if odd(&mut rng) { "Lot" } else { "Holding" };
        let key = if odd(&mut rng) {
            Value::from(99)
        } else {
            row[0].clone()
        };
        let mut image = Memento::new(bean, key);
        for (f, cell) in meta.fields().iter().zip(&row[1..]) {
            if odd(&mut rng) {
                continue;
            }
            image.set(f.name.clone(), cell.clone());
        }
        if odd(&mut rng) {
            let f = &meta.fields()[case % 3];
            image.set(f.name.clone(), gen_cell(&mut rng));
        }
        if odd(&mut rng) {
            image.set("ghost", gen_cell(&mut rng));
        }
        let expected = meta.memento_from_row(&row) == image;
        assert_eq!(
            meta.row_is_image(&row, &image),
            expected,
            "case {case}: {row:?} vs {image:?}"
        );
        same += usize::from(expected);
    }
    assert!(same > CASES / 10 && same < CASES * 9 / 10, "{same}");
}

#[test]
fn tx_context_matches_a_map_and_touch_order_model() {
    const BEANS: [&str; 3] = ["Account", "Quote", "Acc"];
    let mut rng = StdRng::seed_from_u64(0x3e3e_000d);
    let mut ctx = TxContext::new();
    let mut model: HashMap<(String, Value), InstanceState> = HashMap::new();
    let mut order: Vec<(String, Value)> = Vec::new();
    for op in 0..6_000 {
        let bean = BEANS[rng.gen_range(0..BEANS.len())];
        let key = match rng.gen_range(0..3u32) {
            0 => Value::from(rng.gen_range(0i64..4)),
            1 => Value::from(format!("k{}", rng.gen_range(0..4u32))),
            _ => Value::Null,
        };
        let slot = (bean.to_owned(), key.clone());
        match rng.gen_range(0..100u32) {
            0 => {
                ctx.clear();
                model.clear();
                order.clear();
            }
            1..=40 => {
                // Enlist and leave a mark only this touch could have left.
                let image = Memento::new(bean, key.clone()).with_field("op", op);
                if !model.contains_key(&slot) {
                    order.push(slot.clone());
                }
                model.entry(slot).or_default().load_from(&image);
                ctx.enlist(bean, &key).load_from(&image);
            }
            41..=60 => {
                if let Some(st) = ctx.instance_mut(bean, &key) {
                    st.removed = !st.removed;
                }
                if let Some(st) = model.get_mut(&slot) {
                    st.removed = !st.removed;
                }
            }
            _ => assert_eq!(ctx.instance(bean, &key), model.get(&slot), "op {op}"),
        }
        assert_eq!(ctx.len(), order.len(), "op {op}");
        assert_eq!(ctx.is_empty(), order.is_empty(), "op {op}");
        let seen: Vec<_> = ctx.iter().collect();
        let expected: Vec<_> = order
            .iter()
            .map(|slot| (slot.0.as_str(), &slot.1, &model[slot]))
            .collect();
        let seen: Vec<_> = seen.into_iter().map(|(b, k, st)| (&**b, k, st)).collect();
        assert_eq!(seen, expected, "op {op}");
    }
}

#[test]
fn resolved_sql_is_what_the_descriptor_used_to_format() {
    for meta in sli_edge::trade::model::trade_registry().iter() {
        let (table, key) = (meta.table(), meta.key_field());
        let cols = meta.select_columns().join(", ");
        let marks = vec!["?"; meta.fields().len() + 1].join(", ");
        let sets: Vec<String> = meta
            .fields()
            .iter()
            .map(|f| format!("{} = ?", f.name))
            .collect();
        let sets = sets.join(", ");
        let bean = meta.bean();
        assert_eq!(
            meta.exists_sql(),
            format!("SELECT {key} FROM {table} WHERE {key} = ?"),
            "{bean}"
        );
        assert_eq!(
            meta.load_sql(),
            format!("SELECT {cols} FROM {table} WHERE {key} = ?"),
            "{bean}"
        );
        assert_eq!(
            meta.insert_sql(),
            format!("INSERT INTO {table} ({cols}) VALUES ({marks})"),
            "{bean}"
        );
        assert_eq!(
            meta.update_sql(),
            format!("UPDATE {table} SET {sets} WHERE {key} = ?"),
            "{bean}"
        );
        assert_eq!(
            meta.delete_sql(),
            format!("DELETE FROM {table} WHERE {key} = ?"),
            "{bean}"
        );
        // A descriptor extended after it was built re-resolves.
        let wider = meta.clone().field("extra", ColumnType::Int);
        assert!(wider.load_sql().contains(", extra FROM"), "{bean}");
        assert!(wider.update_sql().contains(", extra = ? WHERE"), "{bean}");
    }
}

/// The per-image validator's three texts as they were while each was a
/// clause list joined and formatted.
fn format_conditional_sql(
    meta: &EntityMeta,
    before: &Memento,
    after: &Memento,
) -> [(String, Vec<Value>); 3] {
    let mut clauses = vec![format!("{} = ?", meta.key_field())];
    let mut where_params = vec![before.primary_key().clone()];
    for f in meta.fields() {
        match before.get(&f.name) {
            Some(Value::Null) | None => clauses.push(format!("{} IS NULL", f.name)),
            Some(v) => {
                clauses.push(format!("{} = ?", f.name));
                where_params.push(v.clone());
            }
        }
    }
    let clause = clauses.join(" AND ");
    let sets = meta
        .fields()
        .iter()
        .map(|f| format!("{} = ?", f.name))
        .collect::<Vec<_>>()
        .join(", ");
    let mut update_params: Vec<Value> = meta
        .fields()
        .iter()
        .map(|f| after.get(&f.name).cloned().unwrap_or(Value::Null))
        .collect();
    update_params.extend(where_params.iter().cloned());
    let table = meta.table();
    [
        (clause.clone(), where_params.clone()),
        (
            format!("UPDATE {table} SET {sets} WHERE {clause}"),
            update_params,
        ),
        (format!("DELETE FROM {table} WHERE {clause}"), where_params),
    ]
}

#[test]
fn conditional_sql_is_what_the_descriptor_used_to_format() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0319);
    for meta in sli_edge::trade::model::trade_registry().iter() {
        for _ in 0..40 {
            // Each field present, NULL or missing, in both images.
            let image = |rng: &mut StdRng| {
                let mut m = Memento::new(meta.bean(), gen_key(rng));
                for f in meta.fields() {
                    match rng.gen_range(0..4u32) {
                        0 => {}
                        1 => m.set(f.name.clone(), Value::Null),
                        _ => m.set(f.name.clone(), gen_sql_literal(rng)),
                    }
                }
                m
            };
            let (before, after) = (image(&mut rng), image(&mut rng));
            let [clause, update, delete] = format_conditional_sql(meta, &before, &after);
            // Written over whatever the statement held before, as a
            // session's buffers are.
            let mut stmt = BatchStatement::new(update.0.clone(), clause.1.clone());
            meta.conditional_update_statement(&mut stmt, &before, &after);
            assert_eq!(
                (stmt.sql.clone(), stmt.params.clone()),
                update,
                "{before:?} -> {after:?}"
            );
            meta.conditional_delete_statement(&mut stmt, &before);
            assert_eq!(
                (stmt.sql.clone(), stmt.params.clone()),
                delete,
                "{before:?}"
            );
            let table = meta.table();
            let check = stmt
                .sql
                .strip_prefix(&format!("DELETE FROM {table} WHERE "));
            assert_eq!(
                (check, &stmt.params),
                (Some(&*clause.0), &clause.1),
                "{before:?}"
            );
        }
    }
}

// ---------- one transaction log: rollback ≡ recovery undo ≡ never happened ----------

const LOG_IDS: i64 = 3;
const LOG_OWNERS: [&str; 3] = ["ann", "bob", "cy"];

/// The write statements over `plain (id, v)` and `indexed (id, owner, v)`:
/// SQL, what each `?` binds (`k`ey, `o`wner, `v`alue) and — for a statement
/// aimed at one primary key — the table it aims at.
const LOG_WRITES: [(&str, &str, Option<&str>); 8] = [
    (
        "INSERT INTO plain (id, v) VALUES (?, ?)",
        "kv",
        Some("plain"),
    ),
    (
        "INSERT INTO indexed (id, owner, v) VALUES (?, ?, ?)",
        "kov",
        Some("indexed"),
    ),
    ("UPDATE plain SET v = ? WHERE id = ?", "vk", Some("plain")),
    (
        "UPDATE indexed SET owner = ?, v = ? WHERE id = ?",
        "ovk",
        Some("indexed"),
    ),
    ("UPDATE indexed SET v = ? WHERE owner = ?", "vo", None),
    ("DELETE FROM plain WHERE id = ?", "k", Some("plain")),
    ("DELETE FROM indexed WHERE id = ?", "k", Some("indexed")),
    ("DELETE FROM indexed WHERE owner = ?", "o", None),
];

/// A random write, its parameters and the `(table, id)` row it aims at.
fn gen_write(rng: &mut StdRng) -> (&'static str, Vec<Value>, Option<(&'static str, i64)>) {
    let (sql, binds, table) = LOG_WRITES[rng.gen_range(0..LOG_WRITES.len())];
    let id = rng.gen_range(0..LOG_IDS);
    let params = binds
        .chars()
        .map(|bind| match bind {
            'k' => Value::from(id),
            'o' => Value::from(LOG_OWNERS[rng.gen_range(0..LOG_OWNERS.len())]),
            _ => Value::from(rng.gen_range(0i64..1000)),
        })
        .collect();
    (sql, params, table.map(|t| (t, id)))
}

/// Probes the secondary index for every owner: it must find exactly the
/// rows a scan of the table finds, and lock exactly those rows — an index
/// entry left behind for a row that moved or vanished shows as a lock on a
/// row the statement never returns.
fn assert_index_probe_equals_scan(db: &Arc<Database>, at: &str) {
    let rows = db.dump_rows("indexed");
    let mut conn = db.connect();
    for owner in LOG_OWNERS {
        let scanned: Vec<Value> = rows
            .iter()
            .filter(|row| row[1] == Value::from(owner))
            .map(|row| row[0].clone())
            .collect();
        conn.begin().unwrap();
        let rs = conn
            .execute(
                "SELECT id FROM indexed WHERE owner = ? ORDER BY id",
                &[Value::from(owner)],
            )
            .unwrap();
        let probed: Vec<Value> = rs.rows().iter().map(|row| row[0].clone()).collect();
        // One intent lock on the table, one shared lock per candidate row.
        let locks = db.lock_manager().lock_count();
        conn.commit().unwrap();
        assert_eq!(probed, scanned, "{at}: owner {owner}");
        assert_eq!(locks, scanned.len() + 1, "{at}: owner {owner}");
    }
}

#[test]
fn rollback_and_recovery_undo_both_leave_no_trace() {
    const CASES: u64 = 400;
    let mut rng = StdRng::seed_from_u64(0x3e3e_0010);
    let (mut rewrites, mut reinserts, mut torn) = (0, 0, 0);
    for case in 0..CASES {
        let db = Database::new();
        db.execute_ddl("CREATE TABLE plain (id INT PRIMARY KEY, v INT)")
            .unwrap();
        db.execute_ddl("CREATE TABLE indexed (id INT PRIMARY KEY, owner VARCHAR, v INT)")
            .unwrap();
        db.execute_ddl("CREATE INDEX indexed_owner ON indexed (owner)")
            .unwrap();
        let mut conn = db.connect();
        for id in 0..LOG_IDS {
            if rng.gen_range(0..2u32) == 0 {
                conn.execute(
                    "INSERT INTO plain (id, v) VALUES (?, ?)",
                    &[Value::from(id), Value::from(id * 10)],
                )
                .unwrap();
            }
            if rng.gen_range(0..2u32) == 0 {
                let owner = LOG_OWNERS[rng.gen_range(0..LOG_OWNERS.len())];
                conn.execute(
                    "INSERT INTO indexed (id, owner, v) VALUES (?, ?, ?)",
                    &[Value::from(id), Value::from(owner), Value::from(id * 10)],
                )
                .unwrap();
            }
        }
        db.attach_wal();
        let before = db.checkpoint();
        let writes: Vec<_> = (0..rng.gen_range(1..13u32))
            .map(|_| gen_write(&mut rng))
            .collect();

        // (a) Run, then roll back. A statement may fail (a duplicate key)
        // or match nothing; the transaction goes on either way.
        let mut touched: Vec<(&str, i64, bool)> = Vec::new();
        conn.begin().unwrap();
        for (sql, params, target) in &writes {
            if let (Ok(rs), Some((table, id))) = (conn.execute(sql, params), target) {
                if rs.affected_rows() > 0 {
                    touched.push((table, *id, sql.starts_with("INSERT")));
                }
            }
        }
        conn.rollback().unwrap();
        let at = format!("case {case}, rolled back {writes:?}");
        assert_eq!(db.checkpoint(), before, "{at}");
        assert_index_probe_equals_scan(&db, &at);
        assert_eq!(db.lock_manager().lock_count(), 0, "{at}");
        let wrote_before = |i: usize| {
            let (table, id, _) = touched[i];
            touched[..i].iter().any(|(t, k, _)| (*t, *k) == (table, id))
        };
        rewrites += u32::from((0..touched.len()).any(wrote_before));
        reinserts += u32::from((0..touched.len()).any(|i| touched[i].2 && wrote_before(i)));

        // (b) The same statements, torn by a crash between the op records
        // and the commit record, then undone by recovery.
        db.script_crash(CrashPoint::MidApply);
        conn.begin().unwrap();
        for (sql, params, _) in &writes {
            let _ = conn.execute(sql, params);
        }
        if conn.commit().is_err() {
            torn += 1;
            assert!(db.is_crashed());
            let report = db.recover().unwrap();
            let at = format!("case {case}, recovered {writes:?}");
            assert_eq!(report.torn_txns, 1, "{at}");
            assert!(report.undo_count > 0, "{at}");
            // The log held the torn transaction alone: all of it redone,
            // all of it undone.
            assert_eq!(report.redo_count, report.undo_count, "{at}");
            assert_eq!(db.checkpoint(), before, "{at}");
            assert_index_probe_equals_scan(&db, &at);
        } else {
            // Nothing was written, so there was no commit to tear.
            assert!(touched.is_empty(), "case {case}");
        }
    }
    assert!(rewrites >= 100, "several writes to one key: {rewrites}");
    assert!(reinserts >= 30, "delete-then-reinsert: {reinserts}");
    assert!(torn >= 300, "torn commits: {torn}");
}

// ---------- the span fold: numbers inside, the same bytes outside ----------

/// One span of a complete trace as the fold met it while it built maps:
/// the span, its self time and its ancestors, parent first.
struct ModelVisit<'a> {
    span: &'a SpanEvent,
    self_us: u64,
    ancestors: Vec<&'a SpanEvent>,
}

/// `walk_complete_traces` as it was — a map of traces and, per trace, a map
/// of spans by id and a map of child time by parent id — under the
/// completeness rule as it stands: every chain of parent links must reach
/// a root. (As it was, a chain that came back on itself was followed for
/// ever.) Returns the visits in order, the traces walked and their summed
/// root durations.
fn model_walk(events: &[SpanEvent]) -> (Vec<ModelVisit<'_>>, u64, u64) {
    let mut traces: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
    for e in events {
        if e.trace_id != 0 {
            traces.entry(e.trace_id).or_default().push(e);
        }
    }
    let (mut visits, mut walked, mut total_us) = (Vec::new(), 0, 0);
    'traces: for spans in traces.values() {
        let by_id: BTreeMap<u64, &SpanEvent> = spans.iter().map(|s| (s.span_id, *s)).collect();
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent_span_id != 0) {
            *child_us.entry(s.parent_span_id).or_default() += s.duration_us();
        }
        let mut of_trace = Vec::new();
        for &span in spans {
            let mut ancestors = Vec::new();
            let mut at = span.parent_span_id;
            while at != 0 {
                let Some(&parent) = by_id.get(&at) else {
                    continue 'traces;
                };
                if ancestors.len() == spans.len() {
                    continue 'traces;
                }
                ancestors.push(parent);
                at = parent.parent_span_id;
            }
            let nested = child_us.get(&span.span_id).copied().unwrap_or(0);
            of_trace.push(ModelVisit {
                span,
                self_us: span.duration_us().saturating_sub(nested),
                ancestors,
            });
        }
        total_us += spans
            .iter()
            .filter(|s| s.parent_span_id == 0)
            .map(|s| s.duration_us())
            .sum::<u64>();
        visits.extend(of_trace);
        walked += 1;
    }
    (visits, walked, total_us)
}

/// `Profile` as it was: a map from class name to its statistics and a map
/// from the joined stack to its self time, a `String` built per span for
/// the one and per ancestor for the other.
#[derive(Debug, Default, PartialEq)]
struct ModelProfile {
    classes: BTreeMap<String, ClassStat>,
    stacks: BTreeMap<String, u64>,
    total_us: u64,
    traces: u64,
}

impl ModelProfile {
    fn fold(&mut self, events: &[SpanEvent]) {
        let (visits, traces, total_us) = model_walk(events);
        for v in visits {
            let slot = self.classes.entry(span_class(v.span)).or_insert(ClassStat {
                self_us: 0,
                spans: 0,
                bucket: bucket_for(v.span.op),
            });
            slot.self_us += v.self_us;
            slot.spans += 1;
            let mut frames: Vec<String> = std::iter::once(v.span)
                .chain(v.ancestors.iter().copied())
                .map(span_class)
                .collect();
            frames.reverse();
            *self.stacks.entry(frames.join(";")).or_default() += v.self_us;
        }
        self.traces += traces;
        self.total_us += total_us;
    }

    fn resource_us(&self, resource: Resource) -> u64 {
        self.classes
            .values()
            .filter(|s| resource_for(s.bucket) == resource)
            .map(|s| s.self_us)
            .sum()
    }

    fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, us) in &self.stacks {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    }

    fn to_json(&self, label: &str) -> Json {
        let classes = self
            .classes
            .iter()
            .map(|(class, stat)| {
                Json::obj([
                    ("class", Json::from(class.clone())),
                    ("bucket", Json::from(stat.bucket.label())),
                    ("resource", Json::from(resource_for(stat.bucket).label())),
                    ("self_us", Json::from(stat.self_us)),
                    ("spans", Json::from(stat.spans)),
                ])
            })
            .collect();
        let resources = Resource::ALL
            .into_iter()
            .map(|r| {
                let share = match self.total_us {
                    0 => 0.0,
                    total => self.resource_us(r) as f64 / total as f64,
                };
                Json::obj([
                    ("resource", Json::from(r.label())),
                    ("self_us", Json::from(self.resource_us(r))),
                    ("share", Json::from(share)),
                ])
            })
            .collect();
        let stacks = self
            .stacks
            .iter()
            .map(|(stack, us)| {
                Json::obj([
                    ("stack", Json::from(stack.clone())),
                    ("self_us", Json::from(*us)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::from(PROFILE_SCHEMA)),
            ("label", Json::from(label)),
            ("traces", Json::from(self.traces)),
            ("total_us", Json::from(self.total_us)),
            ("classes", Json::Arr(classes)),
            ("resources", Json::Arr(resources)),
            ("stacks", Json::Arr(stacks)),
        ])
    }
}

/// `chrome_trace` over the model's walk: one complete event per visited
/// span, in visit order.
fn model_chrome_trace(events: &[SpanEvent]) -> Json {
    let event_json = |e: &SpanEvent| {
        let mut args = vec![
            ("trace_id", Json::from(e.trace_id)),
            ("span_id", Json::from(e.span_id)),
            ("parent_span_id", Json::from(e.parent_span_id)),
            ("origin", Json::from(u64::from(e.origin))),
            ("txn_id", Json::from(e.txn_id)),
            ("outcome", Json::from(e.outcome.label())),
        ];
        let mut name = e.op.to_owned();
        match &e.detail {
            Some(SpanDetail::Statement { class }) if !class.is_empty() => {
                name = format!("{} {class}", e.op);
                args.push(("statement", Json::from(class.to_string())));
            }
            Some(SpanDetail::Statement { .. }) | None => {}
            Some(SpanDetail::Conflict(info)) => {
                args.push(("entity", Json::from(info.entity())));
                if let Some(field) = &info.field {
                    args.push(("field", Json::from(field.clone())));
                }
                args.push((
                    "expected_digest",
                    Json::from(format!("{:016x}", info.expected_digest)),
                ));
                args.push((
                    "found_digest",
                    info.found_digest
                        .map_or(Json::Null, |d| Json::from(format!("{d:016x}"))),
                ));
            }
            Some(SpanDetail::Attempt { number }) => {
                args.push(("attempt", Json::from(u64::from(*number))));
            }
        }
        Json::obj([
            ("name", Json::from(name)),
            ("cat", Json::from(bucket_for(e.op).label())),
            ("ph", Json::from("X")),
            ("ts", Json::from(e.start_us)),
            ("dur", Json::from(e.duration_us())),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(e.trace_id)),
            ("args", Json::obj(args)),
        ])
    };
    let (visits, _, _) = model_walk(events);
    Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        (
            "traceEvents",
            Json::Arr(visits.iter().map(|v| event_json(v.span)).collect()),
        ),
    ])
}

/// Real ops, and two made up so that one op is the head of another
/// (`db.stmt.slow` sorts between `db.stmt` and `db.stmt:a` as a name,
/// after both as an op).
const SPAN_OPS: [&str; 14] = [
    "request",
    "servlet.buy",
    "rpc.call",
    "rpc.attempt",
    "net.request",
    "net.request.retry",
    "db.stmt",
    "db.stmt.slow",
    "db.batch",
    "db.txn.begin",
    "db.open",
    "commit.validate_apply",
    "occ.conflict",
    "invalidate.deliver",
];

const STATEMENT_CLASSES: [&str; 8] = [
    "",
    "a",
    "account.read",
    "quote.read",
    "holding.update",
    "batch:1",
    "batch:2",
    "batch:12",
];

/// What [`gen_span_batch`] put into a batch besides well-formed traces.
#[derive(Default)]
struct BatchFaults {
    orphans: u32,
    duplicate_ids: u32,
    cycles: u32,
}

/// One drained batch: a few traces of up to ten spans each, their events
/// interleaved and in no particular order (so parents come both before and
/// after their children), untraced events among them. Span ids are small
/// and collide across traces. Some traces are damaged: a parent id nobody
/// has, a span id used twice, a root hung under one of its descendants.
fn gen_span_batch(rng: &mut StdRng, first_trace: u64, faults: &mut BatchFaults) -> Vec<SpanEvent> {
    const OUTCOMES: [SpanOutcome; 4] = [
        SpanOutcome::Committed,
        SpanOutcome::Conflict,
        SpanOutcome::Replayed,
        SpanOutcome::Error,
    ];
    let mut events = Vec::new();
    let mut trace_ids: Vec<u64> = (0..rng.gen_range(1..6u64))
        .map(|t| first_trace + t)
        .collect();
    // Ascending ids in descending event order, and the other way round.
    if rng.gen_range(0..2u32) == 0 {
        trace_ids.reverse();
    }
    for &trace_id in &trace_ids {
        let n = rng.gen_range(1..11usize);
        let base = rng.gen_range(1..20u64);
        let mut spans: Vec<SpanEvent> = (0..n)
            .map(|k| {
                let start_us = rng.gen_range(0..1_000u64);
                // Now and then a span that ends before it starts, or
                // outlasts its parent: durations saturate.
                let end_us =
                    (start_us + rng.gen_range(0..200u64)).saturating_sub(rng.gen_range(0..20u64));
                let parent_span_id = match k {
                    0 => 0,
                    _ if rng.gen_range(0..20u32) == 0 => 0,
                    _ => base + rng.gen_range(0..k) as u64,
                };
                let detail = match rng.gen_range(0..10u32) {
                    0..=3 => Some(SpanDetail::Statement {
                        class: STATEMENT_CLASSES[rng.gen_range(0..STATEMENT_CLASSES.len())].into(),
                    }),
                    4 => Some(SpanDetail::Attempt {
                        number: rng.gen_range(1..4u32),
                    }),
                    5 => Some(SpanDetail::Conflict(ConflictInfo {
                        bean: "holding".to_owned(),
                        key: rng.gen_range(0..9u32).to_string(),
                        field: (rng.gen_range(0..2u32) == 0).then(|| "quantity".to_owned()),
                        expected_digest: rng.next_u64(),
                        found_digest: (rng.gen_range(0..2u32) == 0).then(|| rng.next_u64()),
                    })),
                    _ => None,
                };
                SpanEvent {
                    op: SPAN_OPS[rng.gen_range(0..SPAN_OPS.len())],
                    origin: rng.gen_range(0..3u32),
                    txn_id: rng.gen_range(0..50u64),
                    start_us,
                    end_us,
                    outcome: OUTCOMES[rng.gen_range(0..OUTCOMES.len())],
                    trace_id,
                    span_id: base + k as u64,
                    parent_span_id,
                    detail,
                }
            })
            .collect();
        match rng.gen_range(0..12u32) {
            0 => {
                let k = rng.gen_range(0..n);
                spans[k].parent_span_id = 9_999;
                faults.orphans += 1;
            }
            1 | 2 if n > 1 => {
                let k = rng.gen_range(1..n);
                spans[k].span_id = spans[rng.gen_range(0..k)].span_id;
                faults.duplicate_ids += 1;
            }
            3 if n > 1 => {
                spans[0].parent_span_id = spans[rng.gen_range(0..n)].span_id;
                faults.cycles += 1;
            }
            _ => {}
        }
        events.extend(spans);
    }
    for _ in 0..rng.gen_range(0..4u32) {
        let mut flat = SpanEvent::flat("commit.validate_apply", 1, 7, 0, 5, SpanOutcome::Committed);
        flat.span_id = rng.gen_range(0..20u64);
        flat.parent_span_id = rng.gen_range(0..20u64);
        events.push(flat);
    }
    for i in (1..events.len()).rev() {
        events.swap(i, rng.gen_range(0..i + 1));
    }
    events
}

/// Everything a profile exports: the collapsed stacks, the rendered
/// document, the class table, the per-resource totals, `total_us` and
/// `traces`.
type ProfileExports = (String, String, Vec<(String, ClassStat)>, Vec<u64>, u64, u64);

fn profile_exports(p: &Profile) -> ProfileExports {
    (
        p.folded(),
        p.to_json("x").render(),
        p.classes().collect(),
        Resource::ALL
            .into_iter()
            .map(|r| p.resource_us(r))
            .collect(),
        p.total_us,
        p.traces,
    )
}

fn model_exports(p: &ModelProfile) -> ProfileExports {
    (
        p.folded(),
        p.to_json("x").render(),
        p.classes.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        Resource::ALL
            .into_iter()
            .map(|r| p.resource_us(r))
            .collect(),
        p.total_us,
        p.traces,
    )
}

#[test]
fn the_span_fold_exports_what_the_string_building_fold_exported() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0023);
    let mut faults = BatchFaults::default();
    let (mut skipped, mut folded_traces) = (0u64, 0u64);
    let (mut parent_first, mut child_first, mut twice_in_a_complete_trace) = (0u32, 0u32, 0u32);
    for case in 0..2_000 {
        let first_trace = 1 + rng.gen_range(0..90u64);
        let a = gen_span_batch(&mut rng, first_trace, &mut faults);
        let b = gen_span_batch(&mut rng, 1_000 + first_trace, &mut faults);
        for events in [&a, &b] {
            let profile = Profile::from_events(events);
            let mut model = ModelProfile::default();
            model.fold(events);
            assert_eq!(
                profile_exports(&profile),
                model_exports(&model),
                "case {case}: {events:#?}"
            );

            let (visits, walked, total_us) = model_walk(events);
            let breakdown = critical_path(events);
            assert_eq!(
                (breakdown.traces, breakdown.total_us),
                (walked, total_us),
                "case {case}: {events:#?}"
            );
            for bucket in Bucket::ALL {
                let us: u64 = visits
                    .iter()
                    .filter(|v| bucket_for(v.span.op) == bucket)
                    .map(|v| v.self_us)
                    .sum();
                assert_eq!(
                    breakdown.bucket_us(bucket),
                    us,
                    "{bucket:?}, case {case}: {events:#?}"
                );
            }
            assert_eq!(
                chrome_trace(events).render(),
                model_chrome_trace(events).render(),
                "case {case}: {events:#?}"
            );

            // What the batch exercised.
            let traced: std::collections::BTreeSet<u64> = events
                .iter()
                .map(|e| e.trace_id)
                .filter(|&t| t != 0)
                .collect();
            folded_traces += walked;
            skipped += traced.len() as u64 - walked;
            let position = |span: &SpanEvent| events.iter().position(|e| std::ptr::eq(e, span));
            for v in &visits {
                if let Some(parent) = v.ancestors.first() {
                    if position(parent) < position(v.span) {
                        parent_first += 1;
                    } else {
                        child_first += 1;
                    }
                }
                let same_id =
                    |e: &&SpanEvent| (e.trace_id, e.span_id) == (v.span.trace_id, v.span.span_id);
                twice_in_a_complete_trace += u32::from(events.iter().filter(same_id).count() > 1);
            }
        }

        // Merging two profiles is folding both batches into one, in either
        // order, and is folding the concatenation (the batches share no
        // trace id).
        let whole: Vec<SpanEvent> = a.iter().chain(&b).cloned().collect();
        let mut model = ModelProfile::default();
        model.fold(&whole);
        let (pa, pb) = (Profile::from_events(&a), Profile::from_events(&b));
        let mut merged = pa.clone();
        merged.merge(&pb);
        let mut a_then_b = pa.clone();
        a_then_b.fold(&b);
        let mut b_then_a = pb.clone();
        b_then_a.fold(&a);
        let mut merged_into_b = pb.clone();
        merged_into_b.merge(&pa);
        let concatenated = Profile::from_events(&whole);
        for (how, p) in [
            ("merge(a, b)", &merged),
            ("merge(b, a)", &merged_into_b),
            ("fold a, fold b", &a_then_b),
            ("fold b, fold a", &b_then_a),
            ("fold a ++ b", &concatenated),
        ] {
            assert_eq!(
                profile_exports(p),
                model_exports(&model),
                "case {case}: {how}"
            );
            assert!(*p == merged, "case {case}: {how} == merge(a, b)");
        }
        if pb.traces > 0 {
            assert!(pa != merged, "case {case}: a profile is not its merge");
        }
    }
    assert!(faults.orphans >= 200, "orphans: {}", faults.orphans);
    assert!(
        faults.duplicate_ids >= 400,
        "duplicated ids: {}",
        faults.duplicate_ids
    );
    assert!(faults.cycles >= 200, "cycles: {}", faults.cycles);
    assert!(skipped >= 500, "incomplete traces: {skipped}");
    assert!(folded_traces >= 8_000, "complete traces: {folded_traces}");
    assert!(
        twice_in_a_complete_trace >= 300,
        "an id used twice in a trace that folds: {twice_in_a_complete_trace}"
    );
    assert!(
        parent_first >= 5_000 && child_first >= 5_000,
        "{parent_first} / {child_first}"
    );
}

// ---------- measurement math ----------

#[test]
fn fit_recovers_affine_relationships() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0007);
    for _ in 0..100 {
        let slope = rng.gen_range(-50.0f64..50.0);
        let intercept = rng.gen_range(-100.0f64..100.0);
        let mut xs: Vec<u32> = (0..rng.gen_range(2..20u32))
            .map(|_| rng.gen_range(0..1000u32))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        if xs.len() < 2 {
            xs = vec![1, 2];
        }
        let points: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x as f64, slope * x as f64 + intercept))
            .collect();
        let f = fit(&points).unwrap();
        assert!((f.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        assert!((f.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
        assert!(f.r2 > 1.0 - 1e-9);
    }
}

#[test]
fn batch_means_preserve_the_grand_mean_for_even_splits() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0008);
    for _ in 0..100 {
        let values: Vec<f64> = (0..rng.gen_range(20..100u32))
            .map(|_| rng.gen_range(0.0f64..1000.0))
            .collect();
        let batches = rng.gen_range(1..10usize);
        // When batches divide the sample evenly, the mean of batch means
        // equals the grand mean.
        let len = values.len() - values.len() % batches;
        let values = &values[..len];
        let b = batch_means(values, batches);
        let grand = values.iter().sum::<f64>() / values.len() as f64;
        assert!((b.overall.mean - grand).abs() < 1e-9 * (1.0 + grand.abs()));
    }
}
