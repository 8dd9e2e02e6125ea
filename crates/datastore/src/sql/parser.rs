//! Recursive-descent parser for the SQL subset.

use crate::error::DbError;
use crate::predicate::{CmpOp, Predicate, MAX_PREDICATE_DEPTH};
use crate::schema::{Column, ColumnType};
use crate::sql::ast::{Scalar, SelectList, Statement};
use crate::sql::lexer::{tokenize, Token};
use crate::value::Value;
use crate::DbResult;

/// Parses one SQL statement.
///
/// # Errors
/// Returns [`DbError::Parse`] describing the first syntax problem.
pub fn parse(sql: &str) -> DbResult<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        params: 0,
        open: 0,
    };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(DbError::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Running count of `?` placeholders, assigned left to right.
    params: usize,
    /// `NOT`s and parentheses open around the token at `pos`.
    open: usize,
}

/// A predicate and its height: the `AND`, `OR` and `NOT` nodes and
/// parenthesis levels on its longest branch.
type Parsed = DbResult<(Predicate, usize)>;

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> DbResult<T> {
        Err(DbError::Parse(msg.into()))
    }

    fn expect_word(&mut self, kw: &str) -> DbResult<()> {
        match self.next() {
            Some(Token::Word(w)) if w == kw => Ok(()),
            other => self.err(format!("expected '{kw}', found {other:?}")),
        }
    }

    fn expect(&mut self, tok: Token) -> DbResult<()> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            other => self.err(format!("expected {tok:?}, found {other:?}")),
        }
    }

    fn ident(&mut self) -> DbResult<String> {
        match self.next() {
            Some(Token::Word(w)) => Ok(w),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn at_aggregate(&self) -> bool {
        matches!(self.peek(), Some(Token::Word(w))
            if matches!(w.as_str(), "count" | "sum" | "min" | "max" | "avg"))
            && self.tokens.get(self.pos + 1) == Some(&Token::LParen)
    }

    fn at_word(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w == kw)
    }

    fn eat_word(&mut self, kw: &str) -> bool {
        if self.at_word(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn statement(&mut self) -> DbResult<Statement> {
        match self.peek() {
            Some(Token::Word(w)) => match w.as_str() {
                "create" => self.create(),
                "insert" => self.insert(),
                "select" => self.select(),
                "update" => self.update(),
                "delete" => self.delete(),
                other => self.err(format!("unsupported statement '{other}'")),
            },
            other => self.err(format!("expected statement, found {other:?}")),
        }
    }

    fn create(&mut self) -> DbResult<Statement> {
        self.expect_word("create")?;
        if self.eat_word("table") {
            let name = self.ident()?;
            self.expect(Token::LParen)?;
            let mut columns = Vec::new();
            let mut pk: Option<String> = None;
            loop {
                let col = self.ident()?;
                let ty = self.column_type()?;
                if self.eat_word("primary") {
                    self.expect_word("key")?;
                    if pk.is_some() {
                        return self.err("multiple PRIMARY KEY columns");
                    }
                    pk = Some(col.clone());
                }
                columns.push(Column::new(col, ty));
                match self.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => return self.err(format!("expected ',' or ')', found {other:?}")),
                }
            }
            let pk = match pk {
                Some(pk) => pk,
                None => return self.err("CREATE TABLE requires a PRIMARY KEY column"),
            };
            Ok(Statement::CreateTable { name, columns, pk })
        } else if self.eat_word("index") {
            let name = self.ident()?;
            self.expect_word("on")?;
            let table = self.ident()?;
            self.expect(Token::LParen)?;
            let column = self.ident()?;
            self.expect(Token::RParen)?;
            Ok(Statement::CreateIndex {
                name,
                table,
                column,
            })
        } else {
            self.err("expected TABLE or INDEX after CREATE")
        }
    }

    fn column_type(&mut self) -> DbResult<ColumnType> {
        let word = self.ident()?;
        let ty = match word.as_str() {
            "int" | "integer" | "bigint" => ColumnType::Int,
            "double" | "float" | "real" => ColumnType::Double,
            "varchar" | "text" | "char" => ColumnType::Varchar,
            "boolean" | "bool" => ColumnType::Bool,
            other => return self.err(format!("unknown column type '{other}'")),
        };
        // Optional length like VARCHAR(250)
        if self.peek() == Some(&Token::LParen) {
            self.next();
            match self.next() {
                Some(Token::Int(_)) => {}
                other => return self.err(format!("expected length, found {other:?}")),
            }
            self.expect(Token::RParen)?;
        }
        Ok(ty)
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_word("insert")?;
        self.expect_word("into")?;
        let table = self.ident()?;
        self.expect(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.ident()?);
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return self.err(format!("expected ',' or ')', found {other:?}")),
            }
        }
        self.expect_word("values")?;
        self.expect(Token::LParen)?;
        let mut values = Vec::new();
        loop {
            values.push(self.scalar()?);
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return self.err(format!("expected ',' or ')', found {other:?}")),
            }
        }
        if values.len() != columns.len() {
            return self.err(format!(
                "INSERT lists {} columns but {} values",
                columns.len(),
                values.len()
            ));
        }
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn scalar(&mut self) -> DbResult<Scalar> {
        match self.next() {
            Some(Token::Question) => {
                let idx = self.params;
                self.params += 1;
                Ok(Scalar::Param(idx))
            }
            Some(Token::Int(v)) => Ok(Scalar::Literal(Value::Int(v))),
            Some(Token::Float(v)) => Ok(Scalar::Literal(Value::Double(v))),
            Some(Token::Str(v)) => Ok(Scalar::Literal(Value::from(v))),
            Some(Token::Word(w)) if w == "null" => Ok(Scalar::Literal(Value::Null)),
            Some(Token::Word(w)) if w == "true" => Ok(Scalar::Literal(Value::Bool(true))),
            Some(Token::Word(w)) if w == "false" => Ok(Scalar::Literal(Value::Bool(false))),
            other => self.err(format!("expected value, found {other:?}")),
        }
    }

    fn select(&mut self) -> DbResult<Statement> {
        self.expect_word("select")?;
        let list = if self.peek() == Some(&Token::Star) {
            self.next();
            SelectList::Star
        } else if self.at_aggregate() {
            let func = self.ident()?;
            self.expect(Token::LParen)?;
            if self.peek() == Some(&Token::Star) {
                if func != "count" {
                    return self.err(format!("{func}(*) is not supported; name a column"));
                }
                self.next();
                self.expect(Token::RParen)?;
                SelectList::CountStar
            } else {
                let column = self.ident()?;
                self.expect(Token::RParen)?;
                let func = match func.as_str() {
                    "sum" => crate::sql::ast::AggregateFn::Sum,
                    "min" => crate::sql::ast::AggregateFn::Min,
                    "max" => crate::sql::ast::AggregateFn::Max,
                    "avg" => crate::sql::ast::AggregateFn::Avg,
                    "count" => crate::sql::ast::AggregateFn::Count,
                    other => return self.err(format!("unknown aggregate '{other}'")),
                };
                SelectList::Aggregate(func, column)
            }
        } else {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if self.peek() == Some(&Token::Comma) {
                    self.next();
                } else {
                    break;
                }
            }
            SelectList::Columns(cols)
        };
        self.expect_word("from")?;
        let table = self.ident()?;
        let predicate = self.where_clause()?;
        let order_by = if self.eat_word("order") {
            self.expect_word("by")?;
            let col = self.ident()?;
            let desc = self.eat_word("desc");
            if !desc {
                self.eat_word("asc");
            }
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_word("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => return self.err(format!("expected LIMIT count, found {other:?}")),
            }
        } else {
            None
        };
        Ok(Statement::Select {
            list,
            table,
            predicate,
            order_by,
            limit,
        })
    }

    fn update(&mut self) -> DbResult<Statement> {
        self.expect_word("update")?;
        let table = self.ident()?;
        self.expect_word("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(Token::Eq)?;
            sets.push((col, self.scalar()?));
            if self.peek() == Some(&Token::Comma) {
                self.next();
            } else {
                break;
            }
        }
        let predicate = self.where_clause()?;
        Ok(Statement::Update {
            table,
            sets,
            predicate,
        })
    }

    fn delete(&mut self) -> DbResult<Statement> {
        self.expect_word("delete")?;
        self.expect_word("from")?;
        let table = self.ident()?;
        let predicate = self.where_clause()?;
        Ok(Statement::Delete { table, predicate })
    }

    fn where_clause(&mut self) -> DbResult<Predicate> {
        if self.eat_word("where") {
            Ok(self.or_expr()?.0)
        } else {
            Ok(Predicate::True)
        }
    }

    /// The height of a node over operands at most `height` high: one more,
    /// unless that nests it, under the levels open around it, deeper than
    /// [`MAX_PREDICATE_DEPTH`].
    fn nest(&self, height: usize) -> DbResult<usize> {
        if self.open + height >= MAX_PREDICATE_DEPTH {
            return self.err(format!(
                "predicate nested deeper than {MAX_PREDICATE_DEPTH} levels"
            ));
        }
        Ok(height + 1)
    }

    /// Parses with `inner` one level in — a `NOT`'s operand or the inside
    /// of parentheses — and returns what it parsed with its height from
    /// this level.
    fn deeper(&mut self, inner: fn(&mut Parser) -> Parsed) -> Parsed {
        self.nest(0)?;
        self.open += 1;
        let parsed = inner(self);
        self.open -= 1;
        parsed.map(|(predicate, height)| (predicate, height + 1))
    }

    fn or_expr(&mut self) -> Parsed {
        let (mut left, mut height) = self.and_expr()?;
        while self.eat_word("or") {
            let (right, h) = self.and_expr()?;
            height = self.nest(height.max(h))?;
            left = left.or(right);
        }
        Ok((left, height))
    }

    fn and_expr(&mut self) -> Parsed {
        let (mut left, mut height) = self.not_expr()?;
        while self.eat_word("and") {
            let (right, h) = self.not_expr()?;
            height = self.nest(height.max(h))?;
            left = left.and(right);
        }
        Ok((left, height))
    }

    fn not_expr(&mut self) -> Parsed {
        if self.eat_word("not") {
            let (inner, height) = self.deeper(Parser::not_expr)?;
            Ok((Predicate::Not(Box::new(inner)), height))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Parsed {
        if self.peek() == Some(&Token::LParen) {
            self.next();
            let inner = self.deeper(Parser::or_expr)?;
            self.expect(Token::RParen)?;
            return Ok(inner);
        }
        self.leaf().map(|predicate| (predicate, 0))
    }

    fn leaf(&mut self) -> DbResult<Predicate> {
        let column = self.ident()?;
        if self.eat_word("like") {
            return match self.next() {
                Some(Token::Str(pattern)) => Ok(Predicate::Like { column, pattern }),
                other => self.err(format!("expected LIKE pattern string, found {other:?}")),
            };
        }
        if self.eat_word("in") {
            self.expect(Token::LParen)?;
            let mut values = Vec::new();
            // `IN ()` is the canonical spelling of the empty list (matches
            // no row), mirroring what `Predicate` displays as.
            if self.peek() == Some(&Token::RParen) {
                self.next();
                return Ok(Predicate::In { column, values });
            }
            loop {
                match self.scalar()? {
                    Scalar::Literal(v) => values.push(v),
                    Scalar::Param(_) => {
                        return self.err("IN lists take literals, not placeholders")
                    }
                }
                match self.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => return self.err(format!("expected ',' or ')', found {other:?}")),
                }
            }
            return Ok(Predicate::In { column, values });
        }
        if self.eat_word("between") {
            let low = match self.scalar()? {
                Scalar::Literal(v) => v,
                Scalar::Param(_) => return self.err("BETWEEN takes literals"),
            };
            self.expect_word("and")?;
            let high = match self.scalar()? {
                Scalar::Literal(v) => v,
                Scalar::Param(_) => return self.err("BETWEEN takes literals"),
            };
            return Ok(Predicate::Between { column, low, high });
        }
        if self.eat_word("is") {
            let negated = self.eat_word("not");
            self.expect_word("null")?;
            return Ok(if negated {
                Predicate::IsNotNull { column }
            } else {
                Predicate::IsNull { column }
            });
        }
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => return self.err(format!("expected comparison operator, found {other:?}")),
        };
        match self.scalar()? {
            Scalar::Literal(value) => Ok(Predicate::Cmp { column, op, value }),
            Scalar::Param(index) => Ok(Predicate::CmpParam { column, op, index }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let st = parse(
            "CREATE TABLE account (userid VARCHAR(250) PRIMARY KEY, balance DOUBLE, logins INT)",
        )
        .unwrap();
        match st {
            Statement::CreateTable { name, columns, pk } => {
                assert_eq!(name, "account");
                assert_eq!(pk, "userid");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[1].ty, ColumnType::Double);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn create_table_requires_pk() {
        assert!(parse("CREATE TABLE t (a INT)").is_err());
        assert!(parse("CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)").is_err());
    }

    #[test]
    fn parses_create_index() {
        let st = parse("CREATE INDEX h_owner ON holding (owner)").unwrap();
        assert_eq!(
            st,
            Statement::CreateIndex {
                name: "h_owner".into(),
                table: "holding".into(),
                column: "owner".into()
            }
        );
    }

    #[test]
    fn parses_insert_with_params() {
        let st = parse("INSERT INTO quote (symbol, price) VALUES (?, 12.5)").unwrap();
        match st {
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                assert_eq!(table, "quote");
                assert_eq!(columns, vec!["symbol", "price"]);
                assert_eq!(
                    values,
                    vec![Scalar::Param(0), Scalar::Literal(Value::from(12.5))]
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn insert_arity_mismatch_is_error() {
        assert!(parse("INSERT INTO t (a, b) VALUES (1)").is_err());
    }

    #[test]
    fn parses_select_star_with_where() {
        let st = parse("SELECT * FROM holding WHERE owner = ? AND qty > 0").unwrap();
        match st {
            Statement::Select {
                list, predicate, ..
            } => {
                assert_eq!(list, SelectList::Star);
                assert_eq!(predicate.param_count(), 1);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_select_columns_order_limit() {
        let st =
            parse("SELECT symbol, price FROM quote WHERE price >= 1.0 ORDER BY price DESC LIMIT 5")
                .unwrap();
        match st {
            Statement::Select {
                list,
                order_by,
                limit,
                ..
            } => {
                assert_eq!(
                    list,
                    SelectList::Columns(vec!["symbol".into(), "price".into()])
                );
                assert_eq!(order_by, Some(("price".into(), true)));
                assert_eq!(limit, Some(5));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_count_star() {
        let st = parse("SELECT COUNT(*) FROM account").unwrap();
        match st {
            Statement::Select { list, .. } => assert_eq!(list, SelectList::CountStar),
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_update_with_mixed_params() {
        let st = parse("UPDATE account SET balance = ?, logins = 3 WHERE userid = ?").unwrap();
        match st {
            Statement::Update {
                sets, predicate, ..
            } => {
                assert_eq!(sets[0], ("balance".into(), Scalar::Param(0)));
                assert_eq!(sets[1], ("logins".into(), Scalar::Literal(Value::from(3))));
                // placeholder numbering continues into WHERE clause
                assert_eq!(
                    predicate,
                    Predicate::CmpParam {
                        column: "userid".into(),
                        op: CmpOp::Eq,
                        index: 1
                    }
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_delete() {
        let st = parse("DELETE FROM holding WHERE id = ?").unwrap();
        match st {
            Statement::Delete { table, predicate } => {
                assert_eq!(table, "holding");
                assert_eq!(predicate.param_count(), 1);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn where_grammar_precedence_and_parens() {
        let st = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter than OR
        match st {
            Statement::Select { predicate, .. } => match predicate {
                Predicate::Or(l, r) => {
                    assert_eq!(*l, Predicate::eq("a", 1));
                    assert!(matches!(*r, Predicate::And(_, _)));
                }
                other => panic!("wrong tree: {other:?}"),
            },
            _ => unreachable!(),
        }
        let st2 = parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND NOT c = 3").unwrap();
        match st2 {
            Statement::Select { predicate, .. } => {
                assert!(matches!(predicate, Predicate::And(_, _)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn like_is_null_true_false() {
        let st = parse(
            "SELECT * FROM t WHERE name LIKE 'uid:%' AND note IS NULL AND flag = TRUE AND x IS NOT NULL",
        )
        .unwrap();
        assert_eq!(st.param_count(), 0);
    }

    #[test]
    fn parses_in_and_between() {
        let st =
            parse("SELECT * FROM t WHERE sym IN ('a', 'b', 'c') AND qty BETWEEN 1 AND 10").unwrap();
        match st {
            Statement::Select { predicate, .. } => match predicate {
                Predicate::And(l, r) => {
                    assert!(matches!(*l, Predicate::In { ref values, .. } if values.len() == 3));
                    assert!(matches!(*r, Predicate::Between { .. }));
                }
                other => panic!("wrong tree: {other:?}"),
            },
            _ => unreachable!(),
        }
        assert!(parse("SELECT * FROM t WHERE a IN (?)").is_err());
        assert!(parse("SELECT * FROM t WHERE a BETWEEN ? AND 3").is_err());
        // The empty list is legal in this dialect: it matches no row and is
        // what `Predicate` displays for `In { values: [] }`.
        match parse("SELECT * FROM t WHERE a IN ()").unwrap() {
            crate::sql::Statement::Select { predicate, .. } => {
                assert_eq!(
                    predicate,
                    Predicate::In {
                        column: "a".into(),
                        values: vec![],
                    }
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        assert!(parse("SELECT * FROM t WHERE a = 1 garbage garbage").is_err());
    }

    #[test]
    fn unsupported_statement_is_rejected() {
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("").is_err());
    }
}
