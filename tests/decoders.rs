//! Seeded fuzz loops over the decoders that read bytes off a simulated
//! link. Arbitrary bytes, every prefix of a valid message and single-byte
//! flips of one go in; each decoder must answer `Ok` or `Err` and never
//! panic, and what an HTTP parser's `Ok` hands back must be a view of the
//! input.
//!
//! Like `tests/properties.rs`, these are plain loops over the workspace's
//! deterministic [`StdRng`]: a failure prints the input that caused it.

use std::panic::{catch_unwind, AssertUnwindSafe, RefUnwindSafe};
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sli_edge::arch::{
    arch_by_key, counterexample_json, run_slicheck, shrink_schedule, ScheduleSource, SliCheckConfig,
};
use sli_edge::component::Memento;
use sli_edge::core::{CommitEntry, CommitRequest, EntryKind, MetaRegistry};
use sli_edge::datastore::{
    sql, BatchStatement, CmpOp, Database, DbError, Predicate, ResultSet, SqlConnection, Value,
    MAX_PREDICATE_DEPTH,
};
use sli_edge::simnet::wire::{self, Reader, Writer};
use sli_edge::simnet::{HeadLines, HttpRequest, HttpResponse};
use sli_edge::telemetry::{
    chrome_trace, validate, ArchReport, Counter, Json, Profile, RunReport, Schema, SloMonitor,
    SpanDetail, SpanEvent, SpanOutcome, Timeline, TimelineDoc, MAX_JSON_DEPTH,
};
use sli_edge::trade::model::trade_registry;
use sli_edge::trade::seed::{create_and_seed, Population};
use sli_edge::trade::TradeAction;

/// Whether `part` lies inside `raw`.
fn lies_in(raw: &[u8], part: &str) -> bool {
    let (outer, inner) = (raw.as_ptr_range(), part.as_bytes().as_ptr_range());
    outer.start <= inner.start && inner.end <= outer.end
}

/// Reads everything a parsed request offers and checks it is `raw`'s.
fn inspect_request(raw: &[u8], req: &HttpRequest<'_>) {
    let mut parts = vec![req.method(), req.uri()];
    parts.extend(req.session_cookie());
    for (k, v) in req.params() {
        assert!(req.param(k).is_some());
        parts.extend([k, v]);
    }
    for part in parts {
        assert!(lies_in(raw, part), "{part:?} is not a view of the input");
    }
    let head = req.clone().encode();
    assert!(
        raw.starts_with(&head),
        "a parsed request is a prefix of its input"
    );
    assert_eq!(req.encoded_len(), head.len());
    let recookied = req.clone().with_cookie("sess-x");
    assert_eq!(recookied.session_cookie(), Some("sess-x"));
}

/// Reads everything a parsed response offers and checks its body is `raw`'s.
fn inspect_response(raw: &[u8], resp: &HttpResponse<'_>) {
    assert!(
        lies_in(raw, &resp.body),
        "the body is not a view of the input"
    );
    assert!(raw.ends_with(resp.body.as_bytes()));
    let _ = (resp.status, resp.set_cookie.as_deref());
}

/// Where `needle` first lies in `raw`, by the substring search the head
/// scanner replaced: `str::find`, or a window search over bytes that are
/// not UTF-8.
fn find(raw: &[u8], needle: &str) -> Option<usize> {
    match std::str::from_utf8(raw) {
        Ok(text) => text.find(needle),
        Err(_) => raw
            .windows(needle.len())
            .position(|w| w == needle.as_bytes()),
    }
}

/// Checks the head scanner both parsers use against the substring search:
/// its first line ends at the first CRLF, and its head just past the first
/// blank line.
fn check_head_lines(raw: &[u8]) {
    let mut lines = HeadLines::new(raw);
    let first_end = lines.next().map(|line| line.end);
    assert_eq!(
        first_end,
        find(raw, "\r\n"),
        "first CRLF of b\"{}\"",
        raw.escape_ascii()
    );
    lines.by_ref().for_each(drop);
    let blank = find(raw, "\r\n\r\n").map(|at| at + 4);
    assert_eq!(
        lines.end(),
        blank,
        "blank line of b\"{}\"",
        raw.escape_ascii()
    );
}

/// Runs both parsers on `raw`, inspects what they accept, and reports
/// whether each accepted it. A panic fails with the input spelled out.
fn decode(raw: &[u8]) -> (bool, bool) {
    check_head_lines(raw);
    catch_unwind(AssertUnwindSafe(|| {
        let request = HttpRequest::parse(raw).map(|req| inspect_request(raw, &req));
        let response = HttpResponse::parse(raw).map(|resp| inspect_response(raw, &resp));
        (request.is_ok(), response.is_ok())
    }))
    .unwrap_or_else(|_| panic!("a decoder panicked on b\"{}\"", raw.escape_ascii()))
}

/// Encoded requests: every Trade action, with and without a cookie, and
/// requests with empty, odd and repeated parameters.
fn valid_requests() -> Vec<Vec<u8>> {
    let user = || "uid:37".to_owned();
    let actions = [
        TradeAction::Login { user: user() },
        TradeAction::Logout { user: user() },
        TradeAction::Register { user: user() },
        TradeAction::Home { user: user() },
        TradeAction::Account { user: user() },
        TradeAction::AccountUpdate {
            user: user(),
            email: "uid:37@newmail.example.com".into(),
        },
        TradeAction::Portfolio { user: user() },
        TradeAction::Quote {
            symbol: "s:12".into(),
        },
        TradeAction::Buy {
            user: user(),
            symbol: "s:12".into(),
            quantity: 12.5,
        },
        TradeAction::Sell { user: user() },
    ];
    let mut out = Vec::new();
    for action in &actions {
        let req = HttpRequest::get("/trade/app", action.query_params());
        out.push(req.clone().encode());
        out.push(req.with_cookie("sess-uid:37").encode());
    }
    let odd = [("", ""), ("k", ""), ("", "v"), ("k", "1"), ("k", "2")];
    out.push(HttpRequest::get("/", odd).with_cookie("").encode());
    out.push(HttpRequest::get("/", [("a", "é€")]).encode());
    out
}

/// Encoded responses: empty, short, multi-byte and page-sized bodies, with
/// and without a cookie, under known and unknown statuses.
fn valid_responses(rng: &mut StdRng) -> Vec<Vec<u8>> {
    let page: String = (0..300)
        .map(|_| ['<', 'a', '>', ' ', '\r', '\n', '9', 'é', '€'][rng.gen_range(0..9usize)])
        .collect();
    let mut out = Vec::new();
    for body in ["", "x", "<html>é€</html>", page.as_str()] {
        for status in [200, 409, 7] {
            let resp = HttpResponse::error(status, body);
            out.push(resp.clone().encode());
            out.push(resp.with_cookie("sess-uid:37").encode());
        }
    }
    out
}

/// Pieces HTTP is made of, so random inputs get past the first check.
const TOKENS: [&[u8]; 18] = [
    b"GET",
    b" ",
    b"/trade/app",
    b"?",
    b"&",
    b"=",
    b"HTTP/1.0",
    b" 200 OK",
    b"\r\n",
    b"\r\n\r\n",
    b"Cookie: ",
    b"JSESSIONID=",
    b"; ",
    b"Set-Cookie: JSESSIONID=",
    b"Content-Length: ",
    b"1",
    "é".as_bytes(),
    b"\xff",
];

#[test]
fn http_decoders_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x4774_7001);
    let requests = valid_requests();
    let responses = valid_responses(&mut rng);

    // A message parses whole, and no prefix of it does.
    for (messages, as_request) in [(&requests, true), (&responses, false)] {
        for raw in messages {
            let pick = |(req, resp): (bool, bool)| if as_request { req } else { resp };
            assert!(pick(decode(raw)), "b\"{}\" parses", raw.escape_ascii());
            for len in 0..raw.len() {
                let cut = &raw[..len];
                assert!(
                    !pick(decode(cut)),
                    "a prefix parsed: b\"{}\"",
                    cut.escape_ascii()
                );
            }
        }
    }

    // Every byte of every message changed once. Most changes land in a
    // value or a header nobody reads, so the views get inspected too.
    let mut accepted = 0;
    for raw in requests.iter().chain(&responses) {
        for at in 0..raw.len() {
            let mut flipped = raw.clone();
            flipped[at] ^= rng.gen_range(1..256u32) as u8;
            let (req, resp) = decode(&flipped);
            accepted += usize::from(req) + usize::from(resp);
        }
    }
    assert!(accepted > 1_000, "only {accepted} flipped messages parsed");

    // Arbitrary bytes, and arbitrary strings of HTTP's own pieces.
    for _ in 0..3_000 {
        let noise: Vec<u8> = (0..rng.gen_range(0..200usize))
            .map(|_| rng.gen_range(0..256u32) as u8)
            .collect();
        decode(&noise);
        let pieces: Vec<u8> = (0..rng.gen_range(0..40usize))
            .flat_map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
            .copied()
            .collect();
        decode(&pieces);
    }
}

/// Decodes `raw` as a predicate, as the back-end does an `OP_QUERY`'s. A
/// panic fails with the input spelled out.
fn decode_predicate(raw: &[u8]) -> Option<Predicate> {
    let bytes = Bytes::copy_from_slice(raw);
    catch_unwind(|| Predicate::decode(&mut Reader::new(bytes)).ok())
        .unwrap_or_else(|_| panic!("Predicate::decode panicked on b\"{}\"", raw.escape_ascii()))
}

/// Every kind of predicate, a nested one among them.
fn valid_predicates() -> Vec<Predicate> {
    let price = Predicate::Cmp {
        column: "price".into(),
        op: CmpOp::Ge,
        value: Value::from(25.5),
    };
    let owner = Predicate::Cmp {
        column: "owner".into(),
        op: CmpOp::Eq,
        value: Value::from("uid:37"),
    };
    let symbol = || "symbol".to_owned();
    vec![
        Predicate::True,
        price.clone(),
        Predicate::CmpParam {
            column: symbol(),
            op: CmpOp::Ne,
            index: 2,
        },
        Predicate::Like {
            column: symbol(),
            pattern: "s:1%é".into(),
        },
        Predicate::IsNull {
            column: "email".into(),
        },
        Predicate::IsNotNull {
            column: "email".into(),
        },
        Predicate::In {
            column: symbol(),
            values: vec![
                Value::from("s:1"),
                Value::Null,
                Value::from(7),
                Value::from(true),
            ],
        },
        Predicate::In {
            column: symbol(),
            values: Vec::new(),
        },
        Predicate::Between {
            column: "quantity".into(),
            low: Value::from(1),
            high: Value::from(9.5),
        },
        Predicate::And(
            Box::new(price),
            Box::new(Predicate::Not(Box::new(Predicate::Or(
                Box::new(owner),
                Box::new(Predicate::True),
            )))),
        ),
    ]
}

#[test]
fn the_predicate_decoder_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5052_4544);
    let mut accepted = 0;
    for predicate in valid_predicates() {
        let mut w = Writer::new();
        predicate.encode(&mut w);
        let raw = w.finish().to_vec();
        // A predicate decodes whole, and no prefix of it does.
        assert_eq!(decode_predicate(&raw).as_ref(), Some(&predicate));
        for len in 0..raw.len() {
            let cut = &raw[..len];
            let prefix = decode_predicate(cut);
            assert!(
                prefix.is_none(),
                "a prefix decoded: b\"{}\"",
                cut.escape_ascii()
            );
        }
        // Every byte changed once.
        for at in 0..raw.len() {
            let mut flipped = raw.clone();
            flipped[at] ^= rng.gen_range(1..256u32) as u8;
            accepted += usize::from(decode_predicate(&flipped).is_some());
        }
    }
    assert!(accepted > 50, "only {accepted} flipped predicates decoded");

    // Arbitrary bytes.
    for _ in 0..3_000 {
        let noise: Vec<u8> = (0..rng.gen_range(0..200usize))
            .map(|_| rng.gen_range(0..256u32) as u8)
            .collect();
        decode_predicate(&noise);
    }
}

/// A stack overflow aborts the process rather than unwinding, so these
/// inputs must be refused before they recurse: each would take a frame per
/// level to decode or parse, and again to evaluate and to drop.
#[test]
fn a_predicate_deeper_than_the_bound_is_refused() {
    // `NOT` tags around `TRUE`: the bound decodes, one more does not.
    let nots = |n: usize| [vec![8u8; n], vec![0]].concat();
    assert_eq!(decode_predicate(&nots(200_000)), None);
    assert_eq!(decode_predicate(&nots(MAX_PREDICATE_DEPTH + 1)), None);
    let mut deepest = Predicate::True;
    for _ in 0..MAX_PREDICATE_DEPTH {
        deepest = Predicate::Not(Box::new(deepest));
    }
    assert_eq!(decode_predicate(&nots(MAX_PREDICATE_DEPTH)), Some(deepest));
}

#[test]
fn sql_nested_deeper_than_the_bound_is_refused() {
    let db = Database::new();
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY)")
        .unwrap();
    let mut conn = db.connect();
    conn.execute("INSERT INTO t (id) VALUES (1)", &[]).unwrap();
    let mut rows = |predicate: String| {
        let sql = format!("SELECT * FROM t WHERE {predicate}");
        conn.execute(&sql, &[]).map(|result| result.len())
    };
    let nots = |n: usize| format!("{}id = 1", "NOT ".repeat(n));
    // A left-deep chain: `terms - 1` OR nodes, the first term the deepest.
    let ors = |terms: usize| format!("id = 1{}", " OR id = 1".repeat(terms - 1));
    for refused in [
        nots(200_000),
        ors(200_000),
        nots(MAX_PREDICATE_DEPTH + 1),
        ors(MAX_PREDICATE_DEPTH + 2),
    ] {
        let head = refused[..40].to_owned();
        assert!(
            matches!(rows(refused), Err(DbError::Parse(_))),
            "{head}… was not refused"
        );
    }
    // The deepest accepted: an even number of NOTs keeps the row.
    let even = usize::from(MAX_PREDICATE_DEPTH.is_multiple_of(2));
    assert_eq!(rows(nots(MAX_PREDICATE_DEPTH)), Ok(even));
    assert_eq!(rows(ors(MAX_PREDICATE_DEPTH + 1)), Ok(1));
}

/// The seeded search every decoder below goes through: each of `valid`
/// must decode, then every prefix of it, every byte of it changed once and
/// arbitrary bytes go in. `decode` answers whether it accepted; a panic
/// fails with the input spelled out. Returns how many changed inputs were
/// accepted and whether any proper prefix was.
fn search(
    name: &str,
    seed: u64,
    valid: &[Vec<u8>],
    decode: impl Fn(&[u8]) -> bool + RefUnwindSafe,
) -> (usize, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let run = |raw: &[u8]| {
        catch_unwind(|| decode(raw))
            .unwrap_or_else(|_| panic!("{name} panicked on b\"{}\"", raw.escape_ascii()))
    };
    let (mut accepted, mut prefix) = (0, false);
    for raw in valid {
        assert!(run(raw), "{name} refused b\"{}\"", raw.escape_ascii());
        for len in 0..raw.len() {
            prefix |= run(&raw[..len]);
        }
        for at in 0..raw.len() {
            let mut flipped = raw.clone();
            flipped[at] ^= rng.gen_range(1..256u32) as u8;
            accepted += usize::from(run(&flipped));
        }
    }
    for _ in 0..3_000 {
        let noise: Vec<u8> = (0..rng.gen_range(0..200usize))
            .map(|_| rng.gen_range(0..256u32) as u8)
            .collect();
        run(&noise);
    }
    (accepted, prefix)
}

/// What `tracecheck` does with a file it reads back: parse it, and check
/// a document that parses with `validate`, which must name the violation
/// rather than panic on it.
fn parse_json(raw: &[u8]) -> bool {
    let parsed = Json::parse(&String::from_utf8_lossy(raw));
    if let Ok(doc) = &parsed {
        let _ = validate(doc);
    }
    parsed.is_ok()
}

/// One small document of each kind the bins export, built by its emitter.
fn exported_documents() -> Vec<(Schema, Json)> {
    let span = |op, id, parent, start_us, end_us| SpanEvent {
        trace_id: 1,
        span_id: id,
        parent_span_id: parent,
        ..SpanEvent::flat(op, 1, 7, start_us, end_us, SpanOutcome::Committed)
    };
    let mut leaf = span("db.stmt", 2, 1, 10, 30);
    leaf.detail = Some(SpanDetail::Statement {
        class: "quote.read".into(),
    });
    let spans = [leaf, span("request", 1, 0, 0, 40)];

    let mut report = RunReport::new("decoders");
    report.entries.push(ArchReport {
        arch: "ES/RBES".to_owned(),
        delay_ms: 40.0,
        interactions: 3,
        failed: 1,
        hit_ratio: 0.5,
        abort_rate: 0.25,
        retries: 1,
        timeouts: 0,
        dedup_replays: 0,
        p50_ms: 80.5,
        p95_ms: 120.0,
        p99_ms: 130.0,
        mean_ms: 90.25,
        status: [("200".to_owned(), 2), ("503".to_owned(), 1)].into(),
    });

    let (hits, timeline) = (Counter::new(), Timeline::new(1_000));
    timeline.track_counter("hits", &hits);
    for at_us in [0, 1_500, 2_500] {
        hits.add(2);
        timeline.sample(at_us);
    }
    let mut timelines = TimelineDoc::new("decoders");
    timelines.runs.push(timeline.report("es-rbes @ 40ms"));

    // Clean completions, then an outage that trips the burn rate on its
    // sixth failure, 820 ms in: the incident holds two spans and two
    // recorder windows, small enough for the search to walk.
    let mut monitor = SloMonitor::new().with_label("decoders");
    monitor.observe_spans(&spans);
    for i in 0..1_000u64 {
        monitor.observe_interaction(4_000 * i, 10_000, i < 200);
    }
    let incident = monitor
        .incidents()
        .first()
        .expect("an outage freezes an incident");

    // The seeded lost-update bug gives the checker a violation to report.
    let mut slicheck = SliCheckConfig::new(arch_by_key("clients-ras-cached").expect("key"), 1);
    slicheck.inject_bug = true;
    slicheck.clients = 2;
    let found = (1..=64)
        .find_map(|seed| {
            slicheck.seed = seed;
            let outcome = run_slicheck(&slicheck, ScheduleSource::Random(seed));
            (!outcome.violations.is_empty()).then_some(outcome)
        })
        .expect("the seeded bug surfaces within 64 seeds");
    let choices: Vec<u32> = found.schedule.iter().map(|s| s.choice).collect();
    let (_, outcome) = shrink_schedule(&slicheck, &choices);

    vec![
        (Schema::RunReport, report.to_json()),
        (Schema::Timeline, timelines.to_json()),
        (
            Schema::Profile,
            Profile::from_events(&spans).to_json("decoders"),
        ),
        (Schema::Incident, incident.to_json()),
        (
            Schema::Counterexample,
            counterexample_json(&slicheck, &outcome),
        ),
        (Schema::ChromeTrace, chrome_trace(&spans)),
    ]
}

#[test]
fn the_json_parser_never_panics() {
    let doc = Json::obj([
        ("schema", Json::from("sli-edge.run-report/v1")),
        ("escaped", Json::from("q\"b\\n\n\t\u{1}é€")),
        (
            "rows",
            Json::Arr(vec![
                Json::obj([("p50", Json::Num(-2.5e-3)), ("n", Json::from(7u64))]),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
                Json::Arr(Vec::new()),
            ]),
        ),
        ("empty", Json::obj::<&str>([])),
    ]);
    let mut valid = vec![
        doc.render(),
        " { \"a\" : [ 1 , -2.5E3 , \"\\u00e9\\/\" ] } ".to_owned(),
        "12".to_owned(),
    ];
    for (kind, doc) in exported_documents() {
        assert_eq!(validate(&doc), Ok(kind), "{}", doc.render());
        valid.push(doc.render());
    }
    let valid: Vec<Vec<u8>> = valid.into_iter().map(String::into_bytes).collect();
    let (accepted, _) = search("Json::parse", 0x4a53_4f4e, &valid, parse_json);
    assert!(accepted > 20, "only {accepted} changed documents parsed");
}

/// A stack overflow aborts the process rather than unwinding, so nesting
/// past the bound must be refused before the parser recurses into it.
#[test]
fn json_nested_deeper_than_the_bound_is_refused() {
    let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
    let objects = |n: usize| "{\"k\":".repeat(n) + "0" + &"}".repeat(n);
    for refused in [
        "[".repeat(1_000_000),
        "{\"a\":".repeat(1_000_000),
        arrays(MAX_JSON_DEPTH + 1),
        objects(MAX_JSON_DEPTH + 1),
    ] {
        let head = refused[..20].to_owned();
        assert!(Json::parse(&refused).is_err(), "{head}… was not refused");
    }
    assert!(Json::parse(&arrays(MAX_JSON_DEPTH)).is_ok());
    assert!(Json::parse(&objects(MAX_JSON_DEPTH)).is_ok());
}

#[test]
fn the_frame_decoder_never_panics() {
    let payloads = [&b""[..], b"x", &[0xa5; 300]];
    let valid: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| wire::frame(wire::protocol::BACKEND, 7, &Bytes::copy_from_slice(p)).to_vec())
        .collect();
    let unframe = |raw: &[u8]| wire::unframe(Bytes::copy_from_slice(raw)).is_ok();
    let (accepted, prefix) = search("wire::unframe", 0x4652_414d, &valid, unframe);
    assert!(!prefix, "a truncated frame was accepted");
    // The header names the protocol and the correlation id, which a
    // change may leave valid; the checksum catches one in the payload.
    assert!(accepted > 0, "no changed frame was accepted");
}

/// Values of every kind a `wire::Reader` reads, each after the tag that
/// [`read_tagged`] dispatches on, so the bytes choose the sequence of
/// reads: a valid buffer is a seeded mix, and noise is any mix at all.
fn write_tagged(rng: &mut StdRng, texts: &[&str]) -> Vec<u8> {
    let mut w = Writer::new();
    for _ in 0..24 {
        let tag = rng.gen_range(0..15u8);
        let text = texts[rng.gen_range(0..texts.len())];
        let bits = rng.next_u64();
        w.put_u8(tag);
        match tag {
            0 => w.put_u8(bits as u8),
            1 => w.put_u16(bits as u16),
            2 => w.put_u32(bits as u32),
            3 => w.put_u64(bits),
            4 => w.put_i64(bits as i64),
            5 => w.put_f64(f64::from_bits(bits)),
            6 => w.put_bool(bits & 1 == 1),
            7..=11 => w.put_str(text),
            12 => w.put_bytes(&[0xff, 0x00, 0xc3]),
            13 => w.put_nested(|w| {
                w.put_str(text).put_u32(9);
            }),
            _ => w.put_u8(text.len() as u8).put_raw(text.as_bytes()),
        };
    }
    w.finish().to_vec()
}

/// Reads what [`write_tagged`] writes with every `Reader::get_*`, the
/// string views dereferenced; whether all of it decoded.
fn read_tagged(raw: &[u8], known: &Arc<str>) -> bool {
    let mut r = Reader::new(Bytes::copy_from_slice(raw));
    let mut read = || -> Result<(), wire::DecodeError> {
        while !r.is_empty() {
            match r.get_u8()? {
                0 => r.get_u8().map(drop)?,
                1 => r.get_u16().map(drop)?,
                2 => r.get_u32().map(drop)?,
                3 => r.get_u64().map(drop)?,
                4 => r.get_i64().map(drop)?,
                5 => r.get_f64().map(drop)?,
                6 => r.get_bool().map(drop)?,
                7 => r.get_str().map(drop)?,
                8 => assert!(r.get_str_view()?.len() <= raw.len()),
                9 => r.skip_str()?,
                10 => r.get_shared_str().map(drop)?,
                11 => r.get_shared_str_as(Some(known)).map(drop)?,
                12 => r.get_bytes().map(drop)?,
                13 => {
                    let mut nested = Reader::new(r.get_frame()?);
                    assert!(nested.get_str_view()?.chars().count() <= raw.len());
                    nested.get_u32()?;
                }
                14 => {
                    let len = r.get_u8()?;
                    r.get_bytes_raw(usize::from(len))?;
                }
                _ => return Err(wire::DecodeError::new("tag")),
            }
        }
        Ok(())
    };
    read().is_ok()
}

#[test]
fn the_wire_reader_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5245_4144);
    let known: Arc<str> = Arc::from("quote");
    let texts = ["", "quote", "é€", "a much longer string than the others"];
    let valid: Vec<Vec<u8>> = (0..4).map(|_| write_tagged(&mut rng, &texts)).collect();
    let read = |raw: &[u8]| read_tagged(raw, &known);
    let (accepted, _) = search("wire::Reader", 0x5245_4144, &valid, read);
    // A changed number is another valid number; a changed tag or length
    // prefix is mostly caught.
    assert!(accepted > 0, "no changed buffer was accepted");
}

#[test]
fn the_result_set_decoder_never_panics() {
    let db = Database::new();
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR, price DOUBLE, ok BOOLEAN)")
        .unwrap();
    let mut conn = db.connect();
    conn.execute(
        "INSERT INTO t (id, name, price, ok) VALUES (1, 'é€', 2.5, TRUE)",
        &[],
    )
    .unwrap();
    conn.execute("INSERT INTO t (id, name) VALUES (2, NULL)", &[])
        .unwrap();
    let valid: Vec<Vec<u8>> = [
        "SELECT * FROM t",
        "SELECT name FROM t WHERE id = 3",
        "UPDATE t SET price = 1.0 WHERE id = 2",
    ]
    .iter()
    .map(|sql| {
        let mut w = Writer::new();
        conn.execute(sql, &[]).unwrap().encode(&mut w);
        w.finish().to_vec()
    })
    .collect();
    let decode = |raw: &[u8]| {
        let mut r = Reader::new(Bytes::copy_from_slice(raw));
        ResultSet::decode(&mut r).is_ok()
    };
    let (accepted, prefix) = search("ResultSet::decode", 0x5253_4554, &valid, decode);
    assert!(!prefix, "a truncated result set was accepted");
    assert!(accepted > 0, "no changed result set was accepted");
}

/// The Trade registry and one seeded image of each of its beans, in
/// registry order: what an edge holds as before-images.
fn trade_images() -> (MetaRegistry, Vec<Memento>) {
    let registry = trade_registry();
    let db = Arc::new(Database::new());
    create_and_seed(&db, Population::default()).unwrap();
    let mut conn = db.connect();
    let images = registry
        .iter()
        .map(|meta| {
            let rows = conn.execute(meta.select_sql(), &[]).unwrap();
            meta.memento_from_row(rows.rows().first().unwrap())
        })
        .collect();
    (registry, images)
}

fn parse_sql(raw: &[u8]) -> bool {
    sql::parse(&String::from_utf8_lossy(raw)).is_ok()
}

/// What the EJB flavors send for each Trade bean, and the JDBC engine's
/// portfolio and sell reads.
fn trade_statements() -> Vec<String> {
    let (registry, images) = trade_images();
    let mut valid = vec![
        "SELECT holdingid, symbol, quantity, purchaseprice FROM holding WHERE userid = ? \
         ORDER BY holdingid"
            .to_owned(),
        "SELECT holdingid, symbol, quantity FROM holding WHERE userid = ? \
         ORDER BY holdingid LIMIT 1"
            .to_owned(),
    ];
    for (meta, image) in registry.iter().zip(&images) {
        let texts = [
            meta.exists_sql(),
            meta.load_sql(),
            meta.select_sql(),
            meta.insert_sql(),
            meta.update_sql(),
            meta.delete_sql(),
        ];
        valid.extend(texts.map(str::to_owned));
        let mut stmt = BatchStatement::default();
        meta.conditional_update_statement(&mut stmt, image, image);
        valid.push(stmt.sql.clone());
        meta.conditional_delete_statement(&mut stmt, image);
        valid.push(stmt.sql);
    }
    valid
}

#[test]
fn the_sql_parser_never_panics() {
    let valid: Vec<Vec<u8>> = trade_statements()
        .into_iter()
        .map(String::into_bytes)
        .collect();
    let (accepted, _) = search("sql::parse", 0x5351_4c50, &valid, parse_sql);
    assert!(accepted > 20, "only {accepted} changed statements parsed");
}

/// The lexer on its own: whether it accepts `raw`, and that what it
/// accepts is at most one token per byte of the text it read (it emits no
/// end marker).
fn tokenize_sql(raw: &[u8]) -> bool {
    let text = String::from_utf8_lossy(raw);
    match sql::tokenize(&text) {
        Ok(tokens) => {
            assert!(
                tokens.len() <= text.len(),
                "{} tokens from {} bytes: {text:?}",
                tokens.len(),
                text.len()
            );
            true
        }
        Err(_) => false,
    }
}

#[test]
fn the_sql_lexer_never_panics() {
    let mut valid = trade_statements();
    valid.extend(
        [
            "SELECT * FROM quote WHERE companyname = 'it''s' OR companyname = ''''",
            "SELECT a FROM t WHERE b >= -7 AND c < -2.5 AND d <> 1.5e-3 AND e != 1e3",
            "UPDATE t SET a = 0.25, b = -0 WHERE c = 9223372036854775807",
        ]
        .map(str::to_owned),
    );
    let valid: Vec<Vec<u8>> = valid.into_iter().map(String::into_bytes).collect();
    for unterminated in ["SELECT a FROM t WHERE b = 'open", "'", "'it''s"] {
        assert!(!tokenize_sql(unterminated.as_bytes()), "{unterminated}");
    }
    let (accepted, _) = search("sql::tokenize", 0x4c45_5853, &valid, tokenize_sql);
    assert!(accepted > 100, "only {accepted} changed statements lexed");
}

#[test]
fn the_commit_request_decoder_never_panics() {
    let (registry, images) = trade_images();
    let image = |bean: &str| images.iter().find(|m| m.bean() == bean).unwrap().clone();
    let entry = |kind: EntryKind| {
        let (EntryKind::Read { before: image }
        | EntryKind::Update { before: image, .. }
        | EntryKind::Remove { before: image }
        | EntryKind::Create { after: image }) = &kind;
        CommitEntry {
            bean: image.bean().into(),
            key: image.primary_key().clone(),
            kind,
        }
    };
    let (account, holding) = (image("Account"), image("Holding"));
    let bought = holding.fields().iter().fold(
        Memento::new("Holding", Value::from(250)),
        |m, (name, value)| m.with_field(name.clone(), value.clone()),
    );
    let debited = account.clone().with_field("balance", 1_234.5);
    // A buy, a sell, a login and a profile update, as Trade commits them.
    let transactions = [
        vec![
            entry(EntryKind::Read {
                before: image("Quote"),
            }),
            entry(EntryKind::Update {
                before: account.clone(),
                after: debited.clone(),
            }),
            entry(EntryKind::Create { after: bought }),
        ],
        vec![
            entry(EntryKind::Update {
                before: account,
                after: debited,
            }),
            entry(EntryKind::Remove { before: holding }),
        ],
        vec![entry(EntryKind::Update {
            before: image("Registry"),
            after: image("Registry").with_field("loggedin", true),
        })],
        vec![entry(EntryKind::Update {
            before: image("Profile"),
            after: image("Profile").with_field("email", "uid:0@newmail.example.com"),
        })],
    ];
    let valid: Vec<Vec<u8>> = transactions
        .into_iter()
        .zip(1..)
        .map(|(entries, txn_id)| {
            let request = CommitRequest {
                origin: 1,
                txn_id,
                entries,
            };
            request.encode().to_vec()
        })
        .collect();
    let decode = |raw: &[u8]| {
        let mut r = Reader::new(Bytes::copy_from_slice(raw));
        CommitRequest::decode(&mut r, &registry).is_ok()
    };
    let (accepted, prefix) = search("CommitRequest::decode", 0x434f_4d4d, &valid, decode);
    assert!(!prefix, "a truncated commit request was accepted");
    assert!(accepted > 0, "no changed commit request was accepted");
}

#[test]
fn the_memento_decoder_never_panics() {
    let (registry, images) = trade_images();
    let valid: Vec<Vec<u8>> = images
        .iter()
        .map(|image| {
            let mut w = Writer::new();
            image.encode(&mut w);
            w.finish().to_vec()
        })
        .collect();
    // A descriptor decides which names an image shares, never whether or
    // what it decodes: every bean's, and none, must agree.
    let decode = |raw: &[u8]| {
        let read = |names| {
            let mut frame = Reader::new(Bytes::copy_from_slice(raw));
            Memento::decode(&mut frame, names)
        };
        let own = read(None).ok();
        for meta in registry.iter() {
            assert_eq!(read(Some(meta.image_names())).ok(), own, "{}", meta.bean());
        }
        own.is_some()
    };
    let (accepted, prefix) = search("Memento::decode", 0x4d45_4d4f, &valid, decode);
    assert!(!prefix, "a truncated image was accepted");
    assert!(accepted > 0, "no changed image was accepted");
}
