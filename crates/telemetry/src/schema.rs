//! One validator for every exported artifact.
//!
//! Each artifact module declares the [`Shape`] of the document its
//! `to_json` writes, and the law its format carries if it has one (a
//! conservation sum, an interval nesting, a cross reference), right beside
//! that `to_json`. This module holds the rest: the one walker that checks a
//! document against a shape, and the dispatch list ([`Schema::id`],
//! [`Schema::rules`]) that finds a document's kind from its embedded id.
//! [`validate`] does both and then runs the kind's law.
//!
//! Adding a kind is a [`Schema`] variant listed in [`Schema::ALL`], its
//! shape and optional law, and its arm in each of the two dispatch
//! matches.

use crate::json::Json;
use crate::{export, history, monitor, profile, report, timeline};
use crate::{COUNTEREXAMPLE_SCHEMA, INCIDENT_SCHEMA, PROFILE_SCHEMA};
use crate::{RUN_REPORT_SCHEMA, TIMELINE_SCHEMA};

/// The artifact kinds [`validate`] knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schema {
    /// A bench run report ([`RUN_REPORT_SCHEMA`]).
    RunReport,
    /// A windowed timeline document ([`TIMELINE_SCHEMA`]).
    Timeline,
    /// An aggregate profile ([`PROFILE_SCHEMA`]).
    Profile,
    /// A frozen SLO incident ([`INCIDENT_SCHEMA`]).
    Incident,
    /// A `slicheck` counterexample ([`COUNTEREXAMPLE_SCHEMA`]).
    Counterexample,
    /// A Chrome trace-event document ([`chrome_trace`](crate::chrome_trace)).
    ChromeTrace,
}

/// A cross-field rule of a format, run on a document its shape accepted.
type Law = fn(&Json) -> Result<(), String>;

impl Schema {
    /// Every kind, in the order [`validate`] tries them.
    const ALL: [Schema; 6] = [
        Schema::RunReport,
        Schema::Timeline,
        Schema::Profile,
        Schema::Incident,
        Schema::Counterexample,
        Schema::ChromeTrace,
    ];

    /// The member that names this kind in a document, and the id it holds
    /// (`None`: the member's presence names the kind).
    fn id(self) -> (&'static str, Option<&'static str>) {
        match self {
            Schema::RunReport => ("schema", Some(RUN_REPORT_SCHEMA)),
            Schema::Timeline => ("schema", Some(TIMELINE_SCHEMA)),
            Schema::Profile => ("schema", Some(PROFILE_SCHEMA)),
            Schema::Incident => ("schema", Some(INCIDENT_SCHEMA)),
            Schema::Counterexample => ("version", Some(COUNTEREXAMPLE_SCHEMA)),
            // Chrome's format carries no id of ours.
            Schema::ChromeTrace => ("traceEvents", None),
        }
    }

    /// This kind's shape, and its law if the format has one.
    fn rules(self) -> (&'static Shape, Option<Law>) {
        match self {
            Schema::RunReport => (&report::SHAPE, None),
            Schema::Timeline => (&timeline::SHAPE, Some(timeline::law)),
            Schema::Profile => (&profile::SHAPE, Some(profile::law)),
            Schema::Incident => (&monitor::SHAPE, Some(monitor::law)),
            Schema::Counterexample => (&history::SHAPE, Some(history::law)),
            Schema::ChromeTrace => (&export::SHAPE, Some(export::law)),
        }
    }
}

/// The declared shape of a JSON value, as its emitter writes it.
pub(crate) enum Shape {
    /// A string.
    Str,
    /// A number.
    Num,
    /// A non-negative integer below 2^53: everything an emitter writes
    /// from an integer.
    U64,
    /// A number in [0, 1].
    Ratio,
    /// One of these strings.
    OneOf(&'static [&'static str]),
    /// An object holding (at least) these members.
    Obj(&'static [(&'static str, Shape)]),
    /// An array of values of one shape.
    List(&'static Shape),
    /// A non-empty array of values of one shape.
    NonEmpty(&'static Shape),
    /// An object mapping any names to values of one shape.
    MapOf(&'static Shape),
}

impl Shape {
    /// What a value of this shape is, for messages.
    fn expected(&self) -> String {
        match self {
            Shape::Str => "a string".to_owned(),
            Shape::Num => "a number".to_owned(),
            Shape::U64 => "a non-negative integer below 2^53".to_owned(),
            Shape::Ratio => "a number in [0, 1]".to_owned(),
            Shape::OneOf(names) => format!("one of {names:?}"),
            Shape::Obj(_) | Shape::MapOf(_) => "an object".to_owned(),
            Shape::List(_) => "an array".to_owned(),
            Shape::NonEmpty(_) => "a non-empty array".to_owned(),
        }
    }
}

/// Validates an exported artifact: finds its kind from its embedded id
/// (`schema`, or `version` for a counterexample; a Chrome trace by its
/// `traceEvents` array), checks it against that kind's shape and then
/// against the kind's law.
///
/// # Errors
/// Describes the first violation, naming the path to it (e.g.
/// `entries[0]: missing key "p50_ms"`).
pub fn validate(doc: &Json) -> Result<Schema, String> {
    let named = |kind: &Schema| match kind.id() {
        (tag, Some(id)) => doc.get(tag).and_then(Json::as_str) == Some(id),
        (tag, None) => doc.get(tag).is_some(),
    };
    let Some(kind) = Schema::ALL.into_iter().find(named) else {
        let mut tags: Vec<&str> = Schema::ALL.iter().map(|kind| kind.id().0).collect();
        tags.dedup();
        return Err(tags
            .iter()
            .find_map(|tag| Some(format!("{tag}: unknown schema id {}", doc.get(tag)?)))
            .unwrap_or_else(|| format!("no schema id: none of {tags:?} is present")));
    };
    let (shape, law) = kind.rules();
    walk(shape, doc, "")?;
    law.map_or(Ok(()), |law| law(doc))?;
    Ok(kind)
}

/// Checks `v`, found at path `at` ("" for the document), against `shape`.
fn walk(shape: &Shape, v: &Json, at: &str) -> Result<(), String> {
    let fits = match (shape, v) {
        (Shape::Str, Json::Str(_)) | (Shape::Num, Json::Num(_)) => true,
        (Shape::U64, _) => v.as_u64().is_some(),
        (Shape::Ratio, Json::Num(r)) => (0.0..=1.0).contains(r),
        (Shape::OneOf(names), Json::Str(s)) => names.contains(&s.as_str()),
        (Shape::Obj(members), Json::Obj(_)) => {
            for (key, shape) in *members {
                let x = v
                    .get(key)
                    .ok_or_else(|| fail(at, format!("missing key {key:?}")))?;
                walk(shape, x, &member(at, key))?;
            }
            true
        }
        (Shape::List(item) | Shape::NonEmpty(item), Json::Arr(items)) => {
            for (i, x) in items.iter().enumerate() {
                walk(item, x, &format!("{at}[{i}]"))?;
            }
            !(items.is_empty() && matches!(shape, Shape::NonEmpty(_)))
        }
        (Shape::MapOf(item), Json::Obj(map)) => {
            for (name, x) in map {
                walk(item, x, &member(at, name))?;
            }
            true
        }
        _ => false,
    };
    if fits {
        return Ok(());
    }
    let found = match v {
        Json::Arr(items) => format!("an array of {}", items.len()),
        Json::Obj(map) => format!("an object of {} members", map.len()),
        scalar => scalar.render(),
    };
    let expected = shape.expected();
    Err(fail(at, format!("expected {expected}, found {found}")))
}

/// The path of member `key` of the object at `at`.
fn member(at: &str, key: &str) -> String {
    if at.is_empty() {
        key.to_owned()
    } else {
        format!("{at}.{key}")
    }
}

/// `what` went wrong at `at`.
fn fail(at: &str, what: String) -> String {
    if at.is_empty() {
        what
    } else {
        format!("{at}: {what}")
    }
}

/// Member `key` of `v` as a `u64`. For laws, which run only on documents
/// whose shape says it is one (0 otherwise).
pub(crate) fn uint(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Member `key` of `v` as an array. For laws, which run only on documents
/// whose shape says it is one (empty otherwise).
pub(crate) fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use Schema::*;

    /// A known-good sample of `schema`, built by its emitter (every list
    /// in it non-empty).
    fn sample(schema: Schema) -> Json {
        match schema {
            RunReport => report::tests::sample(),
            Timeline => timeline::tests::sample(),
            Profile => profile::tests::sample(),
            Incident => monitor::tests::sample(),
            Counterexample => history::tests::sample(),
            ChromeTrace => export::tests::sample(),
        }
    }

    /// The value at `path` (`a.b[0].c`) inside `v`.
    fn at_mut<'a>(mut v: &'a mut Json, path: &str) -> &'a mut Json {
        let path = path.replace('[', ".").replace(']', "");
        for step in path.split('.').filter(|step| !step.is_empty()) {
            v = match v {
                Json::Obj(map) => map.get_mut(step).expect(&path),
                Json::Arr(items) => &mut items[step.parse::<usize>().expect(&path)],
                _ => panic!("{path}"),
            };
        }
        v
    }

    /// Every way to break `v` (found at `at`) that `shape` forbids — a
    /// member dropped (`None`), a value mistyped, a number out of range, a
    /// non-empty list emptied, at every depth and in every element of
    /// every array — as the path edited, the edit, and what the error must
    /// say.
    fn probes(shape: &Shape, v: &Json, at: &str, out: &mut Vec<(String, Option<Json>, String)>) {
        // No shape accepts a boolean.
        let mut bad = vec![Json::Bool(true)];
        match shape {
            Shape::U64 => bad.extend([-3.0, 2.9, 1e300].map(Json::Num)),
            Shape::Ratio => bad.extend([-0.1, 1.5].map(Json::Num)),
            Shape::OneOf(_) => bad.push(Json::from("not-a-member")),
            Shape::NonEmpty(_) => bad.push(Json::Arr(vec![])),
            _ => {}
        }
        if !at.is_empty() {
            out.extend(
                bad.into_iter()
                    .map(|b| (at.to_owned(), Some(b), format!("{at}: "))),
            );
        }
        let parts: Vec<(String, &Shape, &Json)> = match (shape, v) {
            (Shape::Obj(members), _) => members
                .iter()
                .map(|(key, part)| (member(at, key), part, v.get(key).expect(key)))
                .collect(),
            (Shape::List(item) | Shape::NonEmpty(item), Json::Arr(xs)) => {
                let at = |i| format!("{at}[{i}]");
                xs.iter()
                    .enumerate()
                    .map(|(i, x)| (at(i), *item, x))
                    .collect()
            }
            (Shape::MapOf(item), Json::Obj(map)) => map
                .iter()
                .map(|(name, x)| (member(at, name), *item, x))
                .collect(),
            _ => vec![],
        };
        for (path, part, x) in parts {
            if let Shape::Obj(_) = shape {
                // At the top a dropped id leaves no kind to name.
                let key = path.rsplit('.').next().unwrap_or_default();
                let expect = match at {
                    "" => format!("{key:?}"),
                    _ => format!("{at}: missing key {key:?}"),
                };
                out.push((path.clone(), None, expect));
            }
            probes(part, x, &path, out);
        }
    }

    #[test]
    fn every_shape_takes_its_sample_and_rejects_each_breakage_at_every_depth() {
        // Empty profiles validate too (zero traces, zero totals).
        let empty = crate::Profile::default().to_json("empty");
        assert_eq!(validate(&empty), Ok(Profile));
        for schema in Schema::ALL {
            let doc = sample(schema);
            assert_eq!(validate(&Json::parse(&doc.render()).unwrap()), Ok(schema));
            let mut all = Vec::new();
            probes(schema.rules().0, &doc, "", &mut all);
            assert!(all.len() > 20, "{schema:?}: {} probes", all.len());
            for (path, edit, expect) in all {
                let mut broken = doc.clone();
                match edit {
                    Some(value) => *at_mut(&mut broken, &path) = value,
                    None => {
                        let (parent, key) = path.rsplit_once('.').unwrap_or(("", &path));
                        let Json::Obj(map) = at_mut(&mut broken, parent) else {
                            unreachable!("{path}")
                        };
                        map.remove(key);
                    }
                }
                let err = validate(&broken).expect_err(&path);
                assert!(
                    err.contains(&expect),
                    "{schema:?}: {err:?} names no {expect:?}"
                );
            }
        }
    }

    #[test]
    fn every_law_rejects_a_breakage_its_shape_lets_through() {
        for (schema, path, to) in [
            (Profile, "total_us", 1e6),
            (Profile, "stacks[0].self_us", 1e5),
            (Timeline, "runs[0].series[0].total", 999.0),
            (Timeline, "runs[0].windows", 5.0),
            (ChromeTrace, "traceEvents[1].dur", 1e3),
            (ChromeTrace, "traceEvents[0].args.parent_span_id", 7.0),
            (Counterexample, "violations[0].cycle[0].txn_id", 9.0),
            (Counterexample, "schedule[0].choice", 2.0),
            (Incident, "budget.bad_events", 1e6),
            (Incident, "recent_spans[0].end_us", 0.0),
        ] {
            let mut doc = sample(schema);
            *at_mut(&mut doc, path) = Json::Num(to);
            assert_law_breaks(schema, &doc);
        }
        // The same series name twice in one run.
        let mut doc = sample(Timeline);
        let Json::Arr(series) = at_mut(&mut doc, "runs[0].series") else {
            unreachable!()
        };
        series.push(series[0].clone());
        assert_law_breaks(Timeline, &doc);
    }

    /// `doc` keeps `schema`'s shape and breaks its law.
    fn assert_law_breaks(schema: Schema, doc: &Json) {
        let (shape, law) = schema.rules();
        assert_eq!(walk(shape, doc, ""), Ok(()));
        let err = law.expect("a law")(doc).expect_err("the law must break");
        assert_eq!(validate(doc), Err(err));
    }
}
