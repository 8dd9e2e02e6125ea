//! Chrome trace-event JSON export.
//!
//! Serialises a span log into the Chrome trace-event format (an object
//! with a `traceEvents` array of `ph: "X"` complete events), which loads
//! directly into Perfetto / `chrome://tracing`. Virtual microseconds map
//! 1:1 onto the format's `ts`/`dur` fields, and each request's trace
//! renders as its own track (`tid` = trace id) so the per-request span
//! tree shows up as a flame graph.
//!
//! [`validate_chrome_trace`] is the CI-side well-formedness check: it
//! re-parses the emitted JSON and verifies every span's `ts + dur` lies
//! within its parent's interval.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::span::{SpanDetail, SpanEvent};
use crate::tree::{bucket_for, walk_complete_traces};

/// Builds a Chrome trace-event JSON document from `events`.
///
/// Only *complete* traces are exported — a trace beheaded by log eviction
/// (some span's parent missing) is dropped entirely, so the emitted file
/// always satisfies [`validate_chrome_trace`]. Untraced events
/// (`trace_id == 0`) are skipped.
pub fn chrome_trace(events: &[SpanEvent]) -> Json {
    let mut out = Vec::new();
    walk_complete_traces(events, |v| out.push(event_json(v.span)));
    Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::Arr(out)),
    ])
}

fn event_json(e: &SpanEvent) -> Json {
    let mut args = vec![
        ("trace_id".to_owned(), Json::from(e.trace_id)),
        ("span_id".to_owned(), Json::from(e.span_id)),
        ("parent_span_id".to_owned(), Json::from(e.parent_span_id)),
        ("origin".to_owned(), Json::from(u64::from(e.origin))),
        ("txn_id".to_owned(), Json::from(e.txn_id)),
        ("outcome".to_owned(), Json::from(e.outcome.label())),
    ];
    let mut name = e.op.to_owned();
    match &e.detail {
        Some(SpanDetail::Statement { class }) if !class.is_empty() => {
            name = format!("{} {class}", e.op);
            args.push(("statement".to_owned(), Json::from(&**class)));
        }
        Some(SpanDetail::Statement { .. }) | None => {}
        Some(SpanDetail::Conflict(info)) => {
            args.push(("entity".to_owned(), Json::from(info.entity())));
            if let Some(field) = &info.field {
                args.push(("field".to_owned(), Json::from(field.clone())));
            }
            args.push((
                "expected_digest".to_owned(),
                Json::from(format!("{:016x}", info.expected_digest)),
            ));
            args.push((
                "found_digest".to_owned(),
                match info.found_digest {
                    Some(d) => Json::from(format!("{d:016x}")),
                    None => Json::Null,
                },
            ));
        }
        Some(SpanDetail::Attempt { number }) => {
            args.push(("attempt".to_owned(), Json::from(u64::from(*number))));
        }
    }
    Json::obj([
        ("name".to_owned(), Json::from(name)),
        ("cat".to_owned(), Json::from(bucket_for(e.op).label())),
        ("ph".to_owned(), Json::from("X")),
        ("ts".to_owned(), Json::from(e.start_us)),
        ("dur".to_owned(), Json::from(e.duration_us())),
        ("pid".to_owned(), Json::from(1u64)),
        ("tid".to_owned(), Json::from(e.trace_id)),
        ("args".to_owned(), Json::Obj(args.into_iter().collect())),
    ])
}

/// Validates a Chrome trace-event document produced by [`chrome_trace`]:
/// structural shape, required fields, and — the causal invariant — every
/// span's `[ts, ts + dur]` interval contained within its parent's.
///
/// # Errors
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    // (trace_id, span_id) -> interval.
    let mut intervals: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
    let mut parsed = Vec::new();
    for (at, event) in events.iter().enumerate() {
        match event.get("ph").and_then(Json::as_str) {
            Some("X") => {}
            Some(_) => continue, // metadata events are fine, just unchecked
            None => return Err(format!("event {at}: missing ph")),
        }
        event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {at}: missing name"))?;
        let what = format!("event {at}");
        let ts = event.req_u64("ts", &what)?;
        let dur = event.req_u64("dur", &what)?;
        let args = event.req("args", &what)?;
        let trace_id = args.req_u64("trace_id", &what)?;
        let span_id = args.req_u64("span_id", &what)?;
        let parent = args.req_u64("parent_span_id", &what)?;
        if span_id == 0 {
            return Err(format!("event {at}: span_id must be non-zero"));
        }
        if intervals
            .insert((trace_id, span_id), (ts, ts + dur))
            .is_some()
        {
            return Err(format!(
                "event {at}: duplicate span id {span_id} in trace {trace_id}"
            ));
        }
        parsed.push((at, trace_id, span_id, parent, ts, ts + dur));
    }
    for (at, trace_id, span_id, parent, start, end) in parsed {
        if parent == 0 {
            continue;
        }
        let Some(&(p_start, p_end)) = intervals.get(&(trace_id, parent)) else {
            return Err(format!(
                "event {at}: span {span_id} references missing parent {parent} in trace {trace_id}"
            ));
        };
        if start < p_start || end > p_end {
            return Err(format!(
                "event {at}: span {span_id} [{start}, {end}] escapes parent {parent} \
                 [{p_start}, {p_end}] in trace {trace_id}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanOutcome;

    fn span(op: &'static str, trace: u64, id: u64, parent: u64, start: u64, end: u64) -> SpanEvent {
        SpanEvent {
            op,
            origin: 1,
            txn_id: 9,
            start_us: start,
            end_us: end,
            outcome: SpanOutcome::Committed,
            trace_id: trace,
            span_id: id,
            parent_span_id: parent,
            detail: None,
        }
    }

    #[test]
    fn export_round_trips_through_validation() {
        let events = vec![
            span("request", 1, 1, 0, 0, 100),
            span("servlet.buy", 1, 2, 1, 10, 90),
            span("db.stmt", 1, 3, 2, 20, 60),
        ];
        let doc = chrome_trace(&events);
        validate_chrome_trace(&doc).unwrap();
        // And through the parser, as CI does with the on-disk bytes.
        let reparsed = Json::parse(&doc.render()).unwrap();
        validate_chrome_trace(&reparsed).unwrap();
        assert_eq!(
            reparsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );
    }

    #[test]
    fn beheaded_traces_are_not_exported() {
        let events = vec![
            span("db.stmt", 1, 3, 99, 20, 60), // parent evicted
            span("request", 2, 4, 0, 0, 10),
        ];
        let doc = chrome_trace(&events);
        validate_chrome_trace(&doc).unwrap();
        let exported = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(exported.len(), 1, "only the complete trace survives");
    }

    #[test]
    fn statement_detail_reaches_name_and_args() {
        let mut e = span("db.stmt", 1, 1, 0, 0, 10);
        e.detail = Some(SpanDetail::Statement {
            class: "account.read".into(),
        });
        let doc = chrome_trace(&[e]);
        let event = &doc.get("traceEvents").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            event.get("name").unwrap().as_str(),
            Some("db.stmt account.read")
        );
        assert_eq!(
            event
                .get("args")
                .unwrap()
                .get("statement")
                .unwrap()
                .as_str(),
            Some("account.read")
        );
        assert_eq!(
            event.get("cat").unwrap().as_str(),
            Some("statement-execution")
        );
    }

    #[test]
    fn validator_rejects_escaping_child() {
        let doc = Json::parse(
            r#"{"traceEvents":[
                {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,
                 "args":{"trace_id":1,"span_id":1,"parent_span_id":0}},
                {"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1,
                 "args":{"trace_id":1,"span_id":2,"parent_span_id":1}}
            ]}"#,
        )
        .unwrap();
        let err = validate_chrome_trace(&doc).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_parent_and_shape_errors() {
        let missing_parent = Json::parse(
            r#"{"traceEvents":[{"name":"b","ph":"X","ts":0,"dur":1,
                "args":{"trace_id":1,"span_id":2,"parent_span_id":7}}]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&missing_parent)
            .unwrap_err()
            .contains("missing parent"));
        assert!(validate_chrome_trace(&Json::Arr(vec![])).is_err());
        let no_ts = Json::parse(r#"{"traceEvents":[{"name":"a","ph":"X"}]}"#).unwrap();
        assert!(validate_chrome_trace(&no_ts).unwrap_err().contains("ts"));
    }
}
