//! Predicate AST: the WHERE-clause language shared by the SQL engine and the
//! EJB custom-finder machinery.
//!
//! The paper extends its transactional-cache consistency algorithm to
//! *predicate-based queries* ("rather than simply direct access"); this type
//! is that predicate language. The same `Predicate` value is evaluated both
//! against the persistent store (server side) and against the transient EJB
//! cache (edge side), which is what lets custom finders run locally after
//! their result set has been faulted in.

use std::fmt;

use sli_simnet::wire::{DecodeError, Reader, Writer};

use crate::error::DbError;
use crate::schema::Schema;
use crate::value::Value;
use crate::DbResult;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    fn tag(self) -> u8 {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<CmpOp, DecodeError> {
        Ok(match tag {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            _ => return Err(DecodeError::new("cmp op tag")),
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// The deepest nesting of `AND`, `OR` and `NOT` — and, in SQL text, of
/// parentheses — that [`Predicate::decode`] and the SQL parser accept.
/// Evaluating, rendering and dropping a predicate recurse once per level,
/// so bytes off the wire must not choose the depth; a finder's predicate
/// nests a few levels, and a left-deep chain of `OR`s counts one per term.
pub const MAX_PREDICATE_DEPTH: usize = 64;

/// A boolean predicate over a row.
///
/// ```
/// use sli_datastore::{CmpOp, Column, ColumnType, Predicate, Schema, Value};
///
/// # fn main() -> Result<(), sli_datastore::DbError> {
/// let schema = Schema::new(
///     "holding",
///     vec![
///         Column::new("id", ColumnType::Int),
///         Column::new("owner", ColumnType::Varchar),
///     ],
///     "id",
/// )?;
/// let p = Predicate::eq("owner", "uid:7").and(Predicate::cmp("id", CmpOp::Lt, 100));
/// assert!(p.matches(&schema, &[Value::from(5), Value::from("uid:7")], &[])?);
/// assert!(!p.matches(&schema, &[Value::from(500), Value::from("uid:7")], &[])?);
/// assert_eq!(p.to_string(), "(owner = 'uid:7' AND id < 100)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (`WHERE` clause omitted).
    True,
    /// `column <op> value`.
    Cmp {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: Value,
    },
    /// `column <op> ?` — unbound placeholder, position `index`.
    CmpParam {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Placeholder position (0-based).
        index: usize,
    },
    /// `column LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// Column name.
        column: String,
        /// SQL LIKE pattern.
        pattern: String,
    },
    /// `column IS NULL`.
    IsNull {
        /// Column name.
        column: String,
    },
    /// `column IS NOT NULL`.
    IsNotNull {
        /// Column name.
        column: String,
    },
    /// `column IN (v1, v2, ...)`.
    In {
        /// Column name.
        column: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// `column BETWEEN low AND high` (inclusive on both ends).
    Between {
        /// Column name.
        column: String,
        /// Lower bound.
        low: Value,
        /// Upper bound.
        high: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for `column = value`.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience constructor for a general comparison.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Number of `?` placeholders in this predicate.
    pub fn param_count(&self) -> usize {
        match self {
            Predicate::CmpParam { index, .. } => index + 1,
            Predicate::And(a, b) | Predicate::Or(a, b) => a.param_count().max(b.param_count()),
            Predicate::Not(p) => p.param_count(),
            _ => 0,
        }
    }

    /// Substitutes placeholders with `params`, producing a fully bound
    /// predicate that owns its values.
    ///
    /// This copies the whole tree, so it is for predicates that outlive
    /// the call — a finder's bound definition, kept to filter cached beans.
    /// Statement execution reads placeholders in place instead (see
    /// [`Predicate::matches`]).
    ///
    /// # Errors
    /// Returns [`DbError::ParamCount`] if a placeholder index is out of
    /// range.
    pub fn bind(&self, params: &[Value]) -> DbResult<Predicate> {
        Ok(match self {
            Predicate::CmpParam { column, op, index } => Predicate::Cmp {
                column: column.clone(),
                op: *op,
                value: param(params, *index)?.clone(),
            },
            Predicate::And(a, b) => {
                Predicate::And(Box::new(a.bind(params)?), Box::new(b.bind(params)?))
            }
            Predicate::Or(a, b) => {
                Predicate::Or(Box::new(a.bind(params)?), Box::new(b.bind(params)?))
            }
            Predicate::Not(p) => Predicate::Not(Box::new(p.bind(params)?)),
            other => other.clone(),
        })
    }

    /// The first placeholder (in [`Predicate::bind`]'s order) that `params`
    /// is too short for, as the error `bind` would return.
    fn check_params(&self, params: &[Value]) -> DbResult<()> {
        match self {
            Predicate::CmpParam { index, .. } => param(params, *index).map(|_| ()),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.check_params(params)?;
                b.check_params(params)
            }
            Predicate::Not(p) => p.check_params(params),
            _ => Ok(()),
        }
    }

    /// Evaluates this predicate against `row` under `schema`, reading each
    /// `?` placeholder from `params` in place. The answer — value or error
    /// — is that of `self.bind(params)?` evaluated with no parameters,
    /// without building the bound copy. A predicate with no placeholders
    /// takes `&[]`.
    ///
    /// SQL three-valued logic is collapsed: comparisons involving NULL are
    /// false (except `IS NULL` / `IS NOT NULL`).
    ///
    /// # Errors
    /// Returns [`DbError::ParamCount`] if any placeholder index is out of
    /// range, and [`DbError::NoSuchColumn`] for unknown columns.
    pub fn matches(&self, schema: &Schema, row: &[Value], params: &[Value]) -> DbResult<bool> {
        self.check_params(params)?;
        self.eval(schema, row, params)
    }

    /// [`Predicate::matches`] once every placeholder is known to be in
    /// range.
    fn eval(&self, schema: &Schema, row: &[Value], params: &[Value]) -> DbResult<bool> {
        let compare = |column: &str, op: CmpOp, value: &Value| -> DbResult<bool> {
            let idx = schema.column_index(column)?;
            Ok(match row[idx].sql_cmp(value) {
                Some(ord) => op.eval(ord),
                None => false,
            })
        };
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp { column, op, value } => compare(column, *op, value),
            Predicate::CmpParam { column, op, index } => {
                compare(column, *op, param(params, *index)?)
            }
            Predicate::Like { column, pattern } => {
                let idx = schema.column_index(column)?;
                Ok(match row[idx].as_str() {
                    Some(s) => like_match(pattern, s),
                    None => false,
                })
            }
            Predicate::IsNull { column } => {
                let idx = schema.column_index(column)?;
                Ok(row[idx].is_null())
            }
            Predicate::IsNotNull { column } => {
                let idx = schema.column_index(column)?;
                Ok(!row[idx].is_null())
            }
            Predicate::In { column, values } => {
                let idx = schema.column_index(column)?;
                Ok(values
                    .iter()
                    .any(|v| row[idx].sql_cmp(v) == Some(std::cmp::Ordering::Equal)))
            }
            Predicate::Between { column, low, high } => {
                let idx = schema.column_index(column)?;
                let ge_low = matches!(
                    row[idx].sql_cmp(low),
                    Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                );
                let le_high = matches!(
                    row[idx].sql_cmp(high),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                );
                Ok(ge_low && le_high)
            }
            Predicate::And(a, b) => {
                Ok(a.eval(schema, row, params)? && b.eval(schema, row, params)?)
            }
            Predicate::Or(a, b) => Ok(a.eval(schema, row, params)? || b.eval(schema, row, params)?),
            Predicate::Not(p) => Ok(!p.eval(schema, row, params)?),
        }
    }

    /// If this predicate pins `column` to a single value via an equality
    /// conjunct — a literal, or a `?` read from `params` — returns that
    /// value. Drives primary-key point lookups and secondary-index probes.
    pub fn equality_on<'a>(&'a self, column: &str, params: &'a [Value]) -> Option<&'a Value> {
        match self {
            Predicate::Cmp {
                column: c,
                op: CmpOp::Eq,
                value,
            } if c == column => Some(value),
            Predicate::CmpParam {
                column: c,
                op: CmpOp::Eq,
                index,
            } if c == column => params.get(*index),
            Predicate::And(a, b) => a
                .equality_on(column, params)
                .or_else(|| b.equality_on(column, params)),
            _ => None,
        }
    }

    /// Encodes the predicate onto a wire frame (used when a finder query is
    /// shipped to the persistent store).
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Predicate::True => {
                w.put_u8(0);
            }
            Predicate::Cmp { column, op, value } => {
                w.put_u8(1).put_str(column).put_u8(op.tag());
                value.encode(w);
            }
            Predicate::CmpParam { column, op, index } => {
                w.put_u8(2)
                    .put_str(column)
                    .put_u8(op.tag())
                    .put_u32(*index as u32);
            }
            Predicate::Like { column, pattern } => {
                w.put_u8(3).put_str(column).put_str(pattern);
            }
            Predicate::IsNull { column } => {
                w.put_u8(4).put_str(column);
            }
            Predicate::IsNotNull { column } => {
                w.put_u8(5).put_str(column);
            }
            Predicate::In { column, values } => {
                w.put_u8(9).put_str(column).put_u32(values.len() as u32);
                for v in values {
                    v.encode(w);
                }
            }
            Predicate::Between { column, low, high } => {
                w.put_u8(10).put_str(column);
                low.encode(w);
                high.encode(w);
            }
            Predicate::And(a, b) => {
                w.put_u8(6);
                a.encode(w);
                b.encode(w);
            }
            Predicate::Or(a, b) => {
                w.put_u8(7);
                a.encode(w);
                b.encode(w);
            }
            Predicate::Not(p) => {
                w.put_u8(8);
                p.encode(w);
            }
        }
    }

    /// Decodes a predicate from a wire frame.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation, unknown tags, or `AND`, `OR`
    /// and `NOT` nested deeper than [`MAX_PREDICATE_DEPTH`].
    pub fn decode(r: &mut Reader) -> Result<Predicate, DecodeError> {
        Predicate::decode_within(r, MAX_PREDICATE_DEPTH)
    }

    /// [`Predicate::decode`] with `levels` of `AND`/`OR`/`NOT` nesting
    /// left: the frame, not the stack, runs out first.
    fn decode_within(r: &mut Reader, levels: usize) -> Result<Predicate, DecodeError> {
        let operand = |r: &mut Reader| match levels.checked_sub(1) {
            Some(left) => Predicate::decode_within(r, left).map(Box::new),
            None => Err(DecodeError::new("predicate nested too deep")),
        };
        Ok(match r.get_u8()? {
            0 => Predicate::True,
            1 => Predicate::Cmp {
                column: r.get_str()?,
                op: CmpOp::from_tag(r.get_u8()?)?,
                value: Value::decode(r)?,
            },
            2 => Predicate::CmpParam {
                column: r.get_str()?,
                op: CmpOp::from_tag(r.get_u8()?)?,
                index: r.get_u32()? as usize,
            },
            3 => Predicate::Like {
                column: r.get_str()?,
                pattern: r.get_str()?,
            },
            4 => Predicate::IsNull {
                column: r.get_str()?,
            },
            5 => Predicate::IsNotNull {
                column: r.get_str()?,
            },
            6 => Predicate::And(operand(r)?, operand(r)?),
            7 => Predicate::Or(operand(r)?, operand(r)?),
            8 => Predicate::Not(operand(r)?),
            9 => {
                let column = r.get_str()?;
                let n = r.get_u32()? as usize;
                // Every value is at least its tag byte: reserve for what
                // the frame can hold, not for the count it announces.
                let mut values = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    values.push(Value::decode(r)?);
                }
                Predicate::In { column, values }
            }
            10 => Predicate::Between {
                column: r.get_str()?,
                low: Value::decode(r)?,
                high: Value::decode(r)?,
            },
            _ => return Err(DecodeError::new("predicate tag")),
        })
    }
}

/// The predicate as the text of a `WHERE` clause — what a finder's
/// statement carries and the plan cache keys on.
///
/// `CmpParam` placeholders render as bare `?`; for the text to execute
/// correctly the placeholder *indexes must ascend left-to-right*, which is
/// how finder predicates are declared. String literals are quoted with
/// `''` escaping. The SQL parser reads a placeholder-free text back as the
/// same tree.
impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("TRUE"),
            Predicate::Cmp { column, op, value } => write!(f, "{column} {op} {}", Literal(value)),
            Predicate::CmpParam { column, op, .. } => write!(f, "{column} {op} ?"),
            Predicate::Like { column, pattern } => write!(f, "{column} LIKE {}", Quoted(pattern)),
            Predicate::IsNull { column } => write!(f, "{column} IS NULL"),
            Predicate::IsNotNull { column } => write!(f, "{column} IS NOT NULL"),
            // An empty IN list matches nothing. Standard SQL has no literal
            // for it, but this dialect's parser accepts `IN ()` — rendering
            // anything else (e.g. a `col IS NULL AND col IS NOT NULL`
            // contradiction) would not parse back to `In { values: [] }`,
            // breaking the text → parse round trip that the split
            // configuration relies on when it ships predicates by SQL text.
            Predicate::In { column, values } => {
                write!(f, "{column} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}", Literal(v))?;
                }
                f.write_str(")")
            }
            Predicate::Between { column, low, high } => {
                write!(f, "{column} BETWEEN {} AND {}", Literal(low), Literal(high))
            }
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT ({p})"),
        }
    }
}

/// A literal as SQL text: a string [`Quoted`], anything else as it
/// displays.
struct Literal<'a>(&'a Value);

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Str(text) => write!(f, "{}", Quoted(text)),
            other => write!(f, "{other}"),
        }
    }
}

/// A string literal: in single quotes, each quote inside doubled.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("'")?;
        for (i, part) in self.0.split('\'').enumerate() {
            if i > 0 {
                f.write_str("''")?;
            }
            f.write_str(part)?;
        }
        f.write_str("'")
    }
}

/// Placeholder `index` of `params`, or the [`DbError::ParamCount`] an
/// out-of-range `?` has always raised.
fn param(params: &[Value], index: usize) -> DbResult<&Value> {
    params.get(index).ok_or(DbError::ParamCount {
        expected: index + 1,
        actual: params.len(),
    })
}

/// SQL `LIKE` matching: `%` matches any run, `_` matches one character.
fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    like_rec(&p, &t)
}

fn like_rec(p: &[char], t: &[char]) -> bool {
    match p.first() {
        None => t.is_empty(),
        Some('%') => {
            // Collapse consecutive %; try every split point.
            let rest = &p[1..];
            (0..=t.len()).any(|i| like_rec(rest, &t[i..]))
        }
        Some('_') => !t.is_empty() && like_rec(&p[1..], &t[1..]),
        Some(c) => t.first() == Some(c) && like_rec(&p[1..], &t[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(
            "holding",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("owner", ColumnType::Varchar),
                Column::new("qty", ColumnType::Double),
                Column::new("note", ColumnType::Varchar),
            ],
            "id",
        )
        .unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::from(1),
            Value::from("uid:7"),
            Value::from(50.0),
            Value::Null,
        ]
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row();
        assert!(Predicate::eq("owner", "uid:7")
            .matches(&s, &r, &[])
            .unwrap());
        assert!(!Predicate::eq("owner", "uid:8")
            .matches(&s, &r, &[])
            .unwrap());
        assert!(Predicate::cmp("qty", CmpOp::Gt, 10)
            .matches(&s, &r, &[])
            .unwrap());
        assert!(Predicate::cmp("qty", CmpOp::Le, 50)
            .matches(&s, &r, &[])
            .unwrap());
        assert!(!Predicate::cmp("qty", CmpOp::Lt, 50)
            .matches(&s, &r, &[])
            .unwrap());
        assert!(Predicate::cmp("id", CmpOp::Ne, 2)
            .matches(&s, &r, &[])
            .unwrap());
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let r = row();
        // comparisons with NULL column are false
        assert!(!Predicate::eq("note", "x").matches(&s, &r, &[]).unwrap());
        assert!(Predicate::IsNull {
            column: "note".into()
        }
        .matches(&s, &r, &[])
        .unwrap());
        assert!(Predicate::IsNotNull {
            column: "owner".into()
        }
        .matches(&s, &r, &[])
        .unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let s = schema();
        let r = row();
        let p = Predicate::eq("owner", "uid:7").and(Predicate::cmp("qty", CmpOp::Ge, 50));
        assert!(p.matches(&s, &r, &[]).unwrap());
        let q = Predicate::eq("owner", "nope").or(Predicate::eq("id", 1));
        assert!(q.matches(&s, &r, &[]).unwrap());
        assert!(!Predicate::Not(Box::new(Predicate::True))
            .matches(&s, &r, &[])
            .unwrap());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("uid:%", "uid:42"));
        assert!(like_match("%:42", "uid:42"));
        assert!(like_match("u_d:42", "uid:42"));
        assert!(!like_match("uid:", "uid:42"));
        assert!(like_match("%", ""));
        assert!(like_match("%%x%%", "zzxyy"));
        assert!(!like_match("_", ""));
    }

    #[test]
    fn binding_parameters() {
        let p = Predicate::CmpParam {
            column: "owner".into(),
            op: CmpOp::Eq,
            index: 0,
        };
        assert_eq!(p.param_count(), 1);
        let bound = p.bind(&[Value::from("uid:7")]).unwrap();
        assert!(bound.matches(&schema(), &row(), &[]).unwrap());
        assert!(p.bind(&[]).is_err());
        // evaluating unbound is an error
        assert!(p.matches(&schema(), &row(), &[]).is_err());
    }

    #[test]
    fn equality_extraction() {
        let p = Predicate::eq("id", 5).and(Predicate::cmp("qty", CmpOp::Gt, 0));
        assert_eq!(p.equality_on("id", &[]), Some(&Value::from(5)));
        assert_eq!(p.equality_on("qty", &[]), None);
        let ne = Predicate::cmp("id", CmpOp::Ne, 5);
        assert_eq!(ne.equality_on("id", &[]), None);
    }

    #[test]
    fn in_and_between() {
        let s = schema();
        let r = row(); // id=1, owner="uid:7", qty=50.0
        let p = Predicate::In {
            column: "owner".into(),
            values: vec![Value::from("uid:1"), Value::from("uid:7")],
        };
        assert!(p.matches(&s, &r, &[]).unwrap());
        let p = Predicate::In {
            column: "owner".into(),
            values: vec![Value::from("uid:1")],
        };
        assert!(!p.matches(&s, &r, &[]).unwrap());
        let p = Predicate::In {
            column: "owner".into(),
            values: vec![],
        };
        assert!(!p.matches(&s, &r, &[]).unwrap());
        let p = Predicate::Between {
            column: "qty".into(),
            low: Value::from(50),
            high: Value::from(60),
        };
        assert!(p.matches(&s, &r, &[]).unwrap(), "inclusive lower bound");
        let p = Predicate::Between {
            column: "qty".into(),
            low: Value::from(10),
            high: Value::from(50),
        };
        assert!(p.matches(&s, &r, &[]).unwrap(), "inclusive upper bound");
        let p = Predicate::Between {
            column: "qty".into(),
            low: Value::from(51),
            high: Value::from(60),
        };
        assert!(!p.matches(&s, &r, &[]).unwrap());
        // NULL never matches
        let p = Predicate::Between {
            column: "note".into(),
            low: Value::from("a"),
            high: Value::from("z"),
        };
        assert!(!p.matches(&s, &r, &[]).unwrap());
    }

    #[test]
    fn in_between_sql_round_trip() {
        let p = Predicate::In {
            column: "owner".into(),
            values: vec![Value::from("uid:1"), Value::from("uid:7")],
        }
        .and(Predicate::Between {
            column: "qty".into(),
            low: Value::from(1),
            high: Value::from(100),
        });
        let sql = format!("SELECT * FROM t WHERE {p}");
        match crate::sql::parse(&sql).unwrap() {
            crate::sql::Statement::Select { predicate, .. } => assert_eq!(predicate, p),
            other => panic!("wrong statement {other:?}"),
        }
    }

    /// Parses `p`'s text back and asserts structural equality.
    fn assert_sql_round_trip(p: &Predicate) {
        let sql = format!("SELECT * FROM t WHERE {p}");
        match crate::sql::parse(&sql).unwrap() {
            crate::sql::Statement::Select { predicate, .. } => {
                assert_eq!(&predicate, p, "via {sql:?}")
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn empty_in_under_connectives_evaluates_and_round_trips() {
        let s = schema();
        let r = row(); // id=1, owner="uid:7", qty=50.0
        let empty = || Predicate::In {
            column: "owner".into(),
            values: vec![],
        };
        // `x IN ()` is FALSE, so it must be absorbing under AND, neutral
        // under OR, and flip under NOT — both in the evaluator and after a
        // text → parse round trip.
        let under_or = empty().or(Predicate::eq("owner", "uid:7"));
        assert!(under_or.matches(&s, &r, &[]).unwrap());
        assert_sql_round_trip(&under_or);

        let under_and = empty().and(Predicate::eq("owner", "uid:7"));
        assert!(!under_and.matches(&s, &r, &[]).unwrap());
        assert_sql_round_trip(&under_and);

        let under_not = Predicate::Not(Box::new(empty()));
        assert!(under_not.matches(&s, &r, &[]).unwrap());
        assert_sql_round_trip(&under_not);

        assert_sql_round_trip(&empty());
    }

    #[test]
    fn empty_in_regression_case() {
        // Checked-in regression: this exact tree used to render the empty
        // IN as a `owner IS NULL AND owner IS NOT NULL` contradiction,
        // which parsed back to a different tree than it evaluated as.
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
        // Type-mismatched comparison is simply false; the empty IN never
        // matches; the whole disjunction is false.
        assert!(!p.matches(&schema(), &row(), &[]).unwrap());
    }

    #[test]
    fn wire_round_trip() {
        let p = Predicate::eq("owner", "uid:7")
            .and(Predicate::cmp("qty", CmpOp::Ge, 50))
            .or(Predicate::Like {
                column: "owner".into(),
                pattern: "uid:%".into(),
            })
            .and(Predicate::Not(Box::new(Predicate::IsNull {
                column: "note".into(),
            })))
            .and(Predicate::In {
                column: "owner".into(),
                values: vec![Value::from("a"), Value::from("b")],
            })
            .and(Predicate::Between {
                column: "qty".into(),
                low: Value::from(0),
                high: Value::from(100),
            });
        let mut w = Writer::new();
        p.encode(&mut w);
        let mut r = Reader::new(w.finish());
        assert_eq!(Predicate::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn unknown_column_is_error() {
        let s = schema();
        assert!(matches!(
            Predicate::eq("ghost", 1).matches(&s, &row(), &[]),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn to_sql_round_trips_through_parser() {
        let p = Predicate::eq("owner", "it's")
            .and(Predicate::cmp("qty", CmpOp::Ge, 50))
            .or(Predicate::Like {
                column: "owner".into(),
                pattern: "uid:%".into(),
            });
        let sql = format!("SELECT * FROM t WHERE {p}");
        let stmt = crate::sql::parse(&sql).unwrap();
        match stmt {
            crate::sql::Statement::Select { predicate, .. } => assert_eq!(predicate, p),
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn to_sql_renders_params_as_question_marks() {
        let p = Predicate::CmpParam {
            column: "owner".into(),
            op: CmpOp::Eq,
            index: 0,
        };
        assert_eq!(p.to_string(), "owner = ?");
    }

    #[test]
    fn display_text_is_pinned() {
        // What a finder's statement carries and the plan cache keys on,
        // byte for byte, for every kind of predicate.
        let quoted = || Predicate::eq("owner", "it's 'x'");
        let cases = [
            (Predicate::True, "TRUE"),
            (quoted(), "owner = 'it''s ''x'''"),
            (Predicate::cmp("qty", CmpOp::Ge, 2.5), "qty >= 2.5"),
            (Predicate::cmp("id", CmpOp::Ne, -7), "id <> -7"),
            (Predicate::cmp("ok", CmpOp::Lt, true), "ok < true"),
            (Predicate::cmp("n", CmpOp::Le, Value::Null), "n <= NULL"),
            (
                Predicate::CmpParam {
                    column: "owner".into(),
                    op: CmpOp::Gt,
                    index: 3,
                },
                "owner > ?",
            ),
            (
                Predicate::Like {
                    column: "owner".into(),
                    pattern: "o'%".into(),
                },
                "owner LIKE 'o''%'",
            ),
            (
                Predicate::IsNull {
                    column: "note".into(),
                },
                "note IS NULL",
            ),
            (
                Predicate::IsNotNull {
                    column: "note".into(),
                },
                "note IS NOT NULL",
            ),
            (
                Predicate::In {
                    column: "owner".into(),
                    values: vec![],
                },
                "owner IN ()",
            ),
            (
                Predicate::In {
                    column: "owner".into(),
                    values: vec![Value::from("a'b"), Value::from(1), Value::from(0.5)],
                },
                "owner IN ('a''b', 1, 0.5)",
            ),
            (
                Predicate::Between {
                    column: "qty".into(),
                    low: Value::from("a"),
                    high: Value::from(100),
                },
                "qty BETWEEN 'a' AND 100",
            ),
            (
                Predicate::Not(Box::new(quoted().and(Predicate::True.or(Predicate::Not(
                    Box::new(Predicate::IsNull { column: "n".into() }),
                ))))),
                "NOT ((owner = 'it''s ''x''' AND (TRUE OR NOT (n IS NULL))))",
            ),
        ];
        for (p, text) in cases {
            assert_eq!(p.to_string(), text, "{p:?}");
        }
    }

    #[test]
    fn display_renders_sql() {
        let p = Predicate::eq("a", 1).and(Predicate::cmp("b", CmpOp::Lt, 2.5));
        assert_eq!(p.to_string(), "(a = 1 AND b < 2.5)");
    }
}
