//! Chrome trace-event JSON export.
//!
//! Serialises a span log into the Chrome trace-event format (an object
//! with a `traceEvents` array of `ph: "X"` complete events), which loads
//! directly into Perfetto / `chrome://tracing`. Virtual microseconds map
//! 1:1 onto the format's `ts`/`dur` fields, and each request's trace
//! renders as its own track (`tid` = trace id) so the per-request span
//! tree shows up as a flame graph.
//!
//! [`validate`](crate::validate) is the CI-side well-formedness check: it
//! re-parses the emitted JSON and verifies every span's `ts + dur` lies
//! within its parent's interval.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::schema::Shape::{self, *};
use crate::schema::{items, uint};
use crate::span::{SpanDetail, SpanEvent};
use crate::tree::{bucket_for, walk_complete_traces, Bucket};

/// Builds a Chrome trace-event JSON document from `events`.
///
/// Only *complete* traces are exported — a trace beheaded by log eviction
/// (some span's parent missing) is dropped entirely, so the emitted file
/// always satisfies [`validate`](crate::validate). Untraced events
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

/// The Chrome trace-event document [`chrome_trace`] writes. The format is
/// Chrome's: no schema id, the `traceEvents` array names it.
pub(crate) const SHAPE: Shape = Obj(&[
    ("displayTimeUnit", OneOf(&["ms"])),
    ("traceEvents", List(&EVENT)),
]);

/// One [`event_json`].
const EVENT: Shape = Obj(&[
    ("name", Str),
    ("cat", OneOf(&Bucket::LABELS)),
    ("ph", OneOf(&["X"])),
    ("ts", U64),
    ("dur", U64),
    ("pid", U64),
    ("tid", U64),
    ("args", ARGS),
]);

/// The arguments every event carries.
const ARGS: Shape = Obj(&[
    ("trace_id", U64),
    ("span_id", U64),
    ("parent_span_id", U64),
    ("origin", U64),
    ("txn_id", U64),
    ("outcome", Str),
]);

/// The trace's causal invariant: span ids are non-zero and unique within
/// their trace, and every span's `[ts, ts + dur]` interval lies within its
/// parent's, which the trace holds.
pub(crate) fn law(doc: &Json) -> Result<(), String> {
    let mut intervals = BTreeMap::new();
    let mut children = Vec::new();
    for (i, event) in items(doc, "traceEvents").iter().enumerate() {
        let args = event.get("args").unwrap_or(&Json::Null);
        let (trace, span) = (uint(args, "trace_id"), uint(args, "span_id"));
        let (start, parent) = (uint(event, "ts"), uint(args, "parent_span_id"));
        let interval = (start, start + uint(event, "dur"));
        if span == 0 || intervals.insert((trace, span), interval).is_some() {
            return Err(format!(
                "traceEvents[{i}]: span id {span} is 0 or repeated in trace {trace}"
            ));
        }
        if parent != 0 {
            children.push((i, trace, span, parent, interval));
        }
    }
    for (i, trace, span, parent, (start, end)) in children {
        let Some(&(p_start, p_end)) = intervals.get(&(trace, parent)) else {
            return Err(format!(
                "traceEvents[{i}]: span {span}'s parent {parent} is missing"
            ));
        };
        if start < p_start || end > p_end {
            return Err(format!(
                "traceEvents[{i}]: span {span} [{start}, {end}] escapes parent {parent} \
                 [{p_start}, {p_end}] in trace {trace}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// A known-good trace of one three-span request, for the schema tests.
    pub(crate) fn sample() -> Json {
        chrome_trace(&[
            span("request", 1, 1, 0, 0, 100),
            span("servlet.buy", 1, 2, 1, 10, 90),
            span("db.stmt", 1, 3, 2, 20, 60),
        ])
    }

    #[test]
    fn beheaded_traces_are_not_exported() {
        let events = vec![
            span("db.stmt", 1, 3, 99, 20, 60), // parent evicted
            span("request", 2, 4, 0, 0, 10),
        ];
        let doc = chrome_trace(&events);
        assert_eq!(crate::validate(&doc), Ok(crate::Schema::ChromeTrace));
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
}
