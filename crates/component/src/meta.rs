//! Entity deployment metadata.
//!
//! In the paper, a deployer specifies that e.g. an `Employee` bean's state
//! is backed by the `Employees` table, and tooling generates persistence
//! code from that description. [`EntityMeta`] is that deployment
//! descriptor; both the vanilla BMP homes and the cache-enabled SLI homes
//! are driven by the *same* metadata, which is what makes cache-enabling
//! transparent to the application.

use std::collections::BTreeMap;
use std::sync::Arc;

use sli_datastore::{BatchStatement, ColumnType, Predicate, Value};
use sli_simnet::wire::Writer;

use crate::error::EjbError;
use crate::memento::{encode_image, ImageNames};
use crate::EjbResult;

/// A non-key persistent field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field (column) name, shared with every image built from a row.
    pub name: Arc<str>,
    /// Declared type.
    pub ty: ColumnType,
}

/// A named custom finder: a parameterized predicate over the entity's
/// fields (`findByOwner(owner)` ⇒ `owner = ?0`).
#[derive(Debug, Clone, PartialEq)]
pub struct FinderDef {
    /// Finder name (`findByOwner`).
    pub name: String,
    /// Parameterized predicate; placeholders bind to the finder arguments.
    pub predicate: Predicate,
}

/// Deployment metadata for one entity bean type.
///
/// Whatever depends only on the descriptor is resolved when it is built:
/// the bean and field names every image points at, the order that sorts
/// the fields by name, the five primary-key statements and the finders'
/// `SELECT ... FROM <table>` (refreshed by each [`EntityMeta::field`] call).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityMeta {
    table: String,
    key_field: String,
    key_type: ColumnType,
    fields: Vec<FieldDef>,
    finders: BTreeMap<String, FinderDef>,
    indexes: Vec<String>,
    /// The bean's name and its fields' in name order, shared with every
    /// image of the bean.
    names: ImageNames,
    /// Indexes into `fields`, in name order: `names.fields()[i]` is
    /// `fields[by_name[i]].name`.
    by_name: Vec<usize>,
    sql: KeySql,
}

/// The five statements that address a bean by its primary key, and the
/// stem of every finder's statement.
#[derive(Debug, Clone, PartialEq, Default)]
struct KeySql {
    select: String,
    exists: String,
    load: String,
    insert: String,
    update: String,
    delete: String,
}

impl EntityMeta {
    /// Starts metadata for bean `bean` backed by `table`, keyed by
    /// `key_field` of type `key_type`.
    pub fn new(
        bean: impl Into<Arc<str>>,
        table: impl Into<String>,
        key_field: impl Into<String>,
        key_type: ColumnType,
    ) -> EntityMeta {
        EntityMeta {
            names: ImageNames::new(bean.into(), []),
            by_name: Vec::new(),
            table: table.into(),
            key_field: key_field.into(),
            key_type,
            fields: Vec::new(),
            finders: BTreeMap::new(),
            indexes: Vec::new(),
            sql: KeySql::default(),
        }
        .resolved()
    }

    /// Adds a persistent field (builder style).
    pub fn field(mut self, name: impl Into<Arc<str>>, ty: ColumnType) -> EntityMeta {
        self.fields.push(FieldDef {
            name: name.into(),
            ty,
        });
        self.resolved()
    }

    /// Rebuilds what is resolved once from the table, key and fields: the
    /// shared names and the statements.
    fn resolved(mut self) -> EntityMeta {
        let fields = &self.fields;
        self.names = ImageNames::new(
            Arc::clone(self.names.bean()),
            fields.iter().map(|f| Arc::clone(&f.name)),
        );
        // Of a name declared twice the last declaration stands, as the last
        // `Memento::set` does.
        let last_named = |name: &Arc<str>| fields.iter().rposition(|f| f.name == *name);
        self.by_name = self.names.fields().iter().filter_map(last_named).collect();
        let (table, key) = (&self.table, &self.key_field);
        let cols = self.select_columns().join(", ");
        let placeholders = vec!["?"; self.fields.len() + 1].join(", ");
        let sets: Vec<String> = self
            .fields
            .iter()
            .map(|f| format!("{} = ?", f.name))
            .collect();
        let sets = sets.join(", ");
        self.sql = KeySql {
            select: format!("SELECT {cols} FROM {table}"),
            exists: format!("SELECT {key} FROM {table} WHERE {key} = ?"),
            load: format!("SELECT {cols} FROM {table} WHERE {key} = ?"),
            insert: format!("INSERT INTO {table} ({cols}) VALUES ({placeholders})"),
            update: format!("UPDATE {table} SET {sets} WHERE {key} = ?"),
            delete: format!("DELETE FROM {table} WHERE {key} = ?"),
        };
        self
    }

    /// Declares a named custom finder.
    pub fn finder(mut self, name: impl Into<String>, predicate: Predicate) -> EntityMeta {
        let name = name.into();
        self.finders
            .insert(name.clone(), FinderDef { name, predicate });
        self
    }

    /// Requests a secondary index on `column` (generated in the DDL).
    pub fn index(mut self, column: impl Into<String>) -> EntityMeta {
        self.indexes.push(column.into());
        self
    }

    /// The bean type name.
    pub fn bean(&self) -> &str {
        self.names.bean()
    }

    /// The backing table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The primary-key field name.
    pub fn key_field(&self) -> &str {
        &self.key_field
    }

    /// Non-key fields in declaration order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Whether `name` is a persistent field (key or non-key).
    pub fn has_field(&self, name: &str) -> bool {
        name == self.key_field || self.fields.iter().any(|f| &*f.name == name)
    }

    /// Looks up a declared finder.
    ///
    /// # Errors
    /// Returns [`EjbError::NoSuchFinder`] for undeclared names.
    pub fn finder_def(&self, name: &str) -> EjbResult<&FinderDef> {
        self.finders
            .get(name)
            .ok_or_else(|| EjbError::NoSuchFinder {
                bean: self.bean().to_owned(),
                finder: name.to_owned(),
            })
    }

    /// All declared finders.
    pub fn finders(&self) -> impl Iterator<Item = &FinderDef> {
        self.finders.values()
    }

    /// A [`Schema`](sli_datastore::Schema) equivalent to the backing table,
    /// used to evaluate finder predicates against cached bean state without
    /// touching the persistent store.
    pub fn schema(&self) -> sli_datastore::Schema {
        let mut cols = vec![sli_datastore::Column::new(
            self.key_field.clone(),
            self.key_type,
        )];
        cols.extend(
            self.fields
                .iter()
                .map(|f| sli_datastore::Column::new(&*f.name, f.ty)),
        );
        sli_datastore::Schema::new(self.table.clone(), cols, &self.key_field)
            .expect("key field is always a column")
    }

    /// `SELECT <key> FROM <table> WHERE <key> = ?` — the existence probe.
    pub fn exists_sql(&self) -> &str {
        &self.sql.exists
    }

    /// `SELECT <all columns> FROM <table> WHERE <key> = ?` — `ejbLoad`.
    pub fn load_sql(&self) -> &str {
        &self.sql.load
    }

    /// `SELECT <all columns> FROM <table>` — every row, and the stem a
    /// finder's `WHERE` is appended to.
    pub fn select_sql(&self) -> &str {
        &self.sql.select
    }

    /// The names this descriptor lends to its bean's images: what
    /// [`Memento::decode`](crate::Memento::decode) takes to share them.
    pub fn image_names(&self) -> &ImageNames {
        &self.names
    }

    /// `INSERT INTO <table> (<all columns>) VALUES (?, ...)` — `ejbCreate`.
    pub fn insert_sql(&self) -> &str {
        &self.sql.insert
    }

    /// `UPDATE <table> SET f = ?, ... WHERE <key> = ?` — `ejbStore`.
    pub fn update_sql(&self) -> &str {
        &self.sql.update
    }

    /// `DELETE FROM <table> WHERE <key> = ?` — `ejbRemove`.
    pub fn delete_sql(&self) -> &str {
        &self.sql.delete
    }

    /// `stmt` becomes [`EntityMeta::load_sql`] binding `key`.
    pub fn load_statement(&self, stmt: &mut BatchStatement, key: &Value) {
        restart(stmt, &self.sql.load);
        stmt.params.push(key.clone());
    }

    /// `stmt` becomes [`EntityMeta::insert_sql`] binding the key, then the
    /// declared fields of `image` (missing ones NULL).
    pub fn insert_statement(&self, stmt: &mut BatchStatement, image: &crate::Memento) {
        restart(stmt, &self.sql.insert);
        stmt.params.push(image.primary_key().clone());
        self.bind_fields(stmt, image);
    }

    /// `stmt` becomes [`EntityMeta::update_sql`] binding the declared
    /// fields of `image` (missing ones NULL), then the key.
    pub fn update_statement(&self, stmt: &mut BatchStatement, image: &crate::Memento) {
        restart(stmt, &self.sql.update);
        self.bind_fields(stmt, image);
        stmt.params.push(image.primary_key().clone());
    }

    /// `stmt` becomes [`EntityMeta::delete_sql`] binding `key`.
    pub fn delete_statement(&self, stmt: &mut BatchStatement, key: &Value) {
        restart(stmt, &self.sql.delete);
        stmt.params.push(key.clone());
    }

    /// `stmt` becomes `UPDATE <table> SET f = ?, ... WHERE <before-image
    /// clause>` — the one-access-per-image optimistic update:
    /// [`EntityMeta::update_sql`] with the before-image check appended. It
    /// binds the new field values, then the before-image's.
    pub fn conditional_update_statement(
        &self,
        stmt: &mut BatchStatement,
        before: &crate::Memento,
        after: &crate::Memento,
    ) {
        restart(stmt, &self.sql.update);
        self.bind_fields(stmt, after);
        self.check_before_image(stmt, before);
    }

    /// `stmt` becomes `DELETE FROM <table> WHERE <before-image clause>` —
    /// the one-access-per-image optimistic remove:
    /// [`EntityMeta::delete_sql`] with the before-image check appended.
    pub fn conditional_delete_statement(&self, stmt: &mut BatchStatement, before: &crate::Memento) {
        restart(stmt, &self.sql.delete);
        self.check_before_image(stmt, before);
    }

    /// Binds `image`'s declared fields in declaration order, NULL where it
    /// has none.
    fn bind_fields(&self, stmt: &mut BatchStatement, image: &crate::Memento) {
        let values = self.fields.iter().map(|f| image.get(&f.name));
        stmt.params
            .extend(values.map(|value| value.cloned().unwrap_or(Value::Null)));
    }

    /// Appends the before-image check to a statement that ends in
    /// `<key> = ?` — ` AND f = ?` or ` AND f IS NULL` per field, so that it
    /// affects one row exactly when the persistent image still equals
    /// `before` — and binds the key and the checked values.
    fn check_before_image(&self, stmt: &mut BatchStatement, before: &crate::Memento) {
        let per_field = " AND ".len() + " IS NULL".len();
        let check: usize = self.fields.iter().map(|f| per_field + f.name.len()).sum();
        stmt.sql.reserve(check);
        stmt.params.push(before.primary_key().clone());
        for f in &self.fields {
            stmt.sql.push_str(" AND ");
            stmt.sql.push_str(&f.name);
            match before.get(&f.name) {
                Some(Value::Null) | None => stmt.sql.push_str(" IS NULL"),
                Some(v) => {
                    stmt.sql.push_str(" = ?");
                    stmt.params.push(v.clone());
                }
            }
        }
    }

    /// Builds a memento from a row laid out as [`EntityMeta::select_columns`]
    /// (key first, then fields), in one allocation.
    pub fn memento_from_row(&self, row: &[Value]) -> crate::Memento {
        let names = self.names.fields().iter();
        let fields = names
            .zip(&self.by_name)
            .map(|(name, &i)| (Arc::clone(name), row[i + 1].clone()));
        crate::Memento::from_parts(Arc::clone(self.names.bean()), row[0].clone(), fields)
    }

    /// Writes the wire form of the image `row` (laid out as for
    /// [`EntityMeta::memento_from_row`]) is — byte for byte what
    /// `self.memento_from_row(row).encode(w)` writes, with no image built.
    pub fn encode_row(&self, row: &[Value], w: &mut Writer) {
        let names = self.names.fields().iter();
        let fields = names
            .zip(&self.by_name)
            .map(|(name, &i)| (&**name, &row[i + 1]));
        encode_image(w, self.bean(), &row[0], fields);
    }

    /// Whether `row` (laid out as for [`EntityMeta::memento_from_row`]) is
    /// `image`: by definition `self.memento_from_row(row) == *image`,
    /// decided where the two lie, without building a memento. (Field names
    /// are a table's columns, so they are distinct.)
    pub fn row_is_image(&self, row: &[Value], image: &crate::Memento) -> bool {
        self.bean() == image.bean()
            && row.len() > self.fields.len()
            && row[0] == *image.primary_key()
            && image.fields().len() == self.fields.len()
            && self
                .fields
                .iter()
                .zip(&row[1..])
                .all(|(f, cell)| image.get(&f.name) == Some(cell))
    }

    /// `CREATE TABLE` DDL for the backing table.
    pub fn create_table_ddl(&self) -> String {
        let mut cols = vec![format!(
            "{} {} PRIMARY KEY",
            self.key_field,
            ddl_type(self.key_type)
        )];
        for f in &self.fields {
            cols.push(format!("{} {}", f.name, ddl_type(f.ty)));
        }
        format!("CREATE TABLE {} ({})", self.table, cols.join(", "))
    }

    /// `CREATE INDEX` DDL statements for the requested secondary indexes.
    pub fn create_index_ddl(&self) -> Vec<String> {
        self.indexes
            .iter()
            .map(|col| {
                format!(
                    "CREATE INDEX {}_{} ON {} ({})",
                    self.table, col, self.table, col
                )
            })
            .collect()
    }

    /// `SELECT *`-equivalent projection: key column then fields, in the
    /// order `fill_row`/`from_row` use.
    pub fn select_columns(&self) -> Vec<String> {
        let mut cols = vec![self.key_field.clone()];
        cols.extend(self.fields.iter().map(|f| f.name.to_string()));
        cols
    }

    /// Validates a field write against the metadata.
    ///
    /// # Errors
    /// [`EjbError::NoSuchField`] for undeclared fields.
    pub fn check_field(&self, field: &str) -> EjbResult<()> {
        if self.has_field(field) {
            Ok(())
        } else {
            Err(EjbError::NoSuchField {
                bean: self.bean().to_owned(),
                field: field.to_owned(),
            })
        }
    }

    /// Validates a field write: the field is declared and is not the
    /// primary key.
    ///
    /// # Errors
    /// [`EjbError::NoSuchField`] for undeclared fields and for the key.
    pub fn check_writable(&self, field: &str) -> EjbResult<()> {
        self.check_field(field)?;
        if field == self.key_field {
            return Err(EjbError::NoSuchField {
                bean: self.bean().to_owned(),
                field: format!("{field} (primary keys are immutable)"),
            });
        }
        Ok(())
    }

    /// Binds a finder's predicate to concrete arguments.
    ///
    /// # Errors
    /// [`EjbError::NoSuchFinder`] or a parameter-arity error from the
    /// datastore layer.
    pub fn bind_finder(&self, name: &str, params: &[Value]) -> EjbResult<Predicate> {
        let def = self.finder_def(name)?;
        Ok(def.predicate.bind(params)?)
    }
}

/// Empties `stmt`, keeping its buffers, and starts its text with `sql`.
fn restart(stmt: &mut BatchStatement, sql: &str) {
    stmt.sql.clear();
    stmt.sql.push_str(sql);
    stmt.params.clear();
}

fn ddl_type(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "INT",
        ColumnType::Double => "DOUBLE",
        ColumnType::Varchar => "VARCHAR",
        ColumnType::Bool => "BOOLEAN",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_datastore::CmpOp;

    fn holding_meta() -> EntityMeta {
        EntityMeta::new("Holding", "holding", "id", ColumnType::Int)
            .field("owner", ColumnType::Varchar)
            .field("symbol", ColumnType::Varchar)
            .field("qty", ColumnType::Double)
            .index("owner")
            .finder(
                "findByOwner",
                Predicate::CmpParam {
                    column: "owner".into(),
                    op: CmpOp::Eq,
                    index: 0,
                },
            )
    }

    #[test]
    fn ddl_generation() {
        let m = holding_meta();
        assert_eq!(
            m.create_table_ddl(),
            "CREATE TABLE holding (id INT PRIMARY KEY, owner VARCHAR, symbol VARCHAR, qty DOUBLE)"
        );
        assert_eq!(
            m.create_index_ddl(),
            vec!["CREATE INDEX holding_owner ON holding (owner)".to_owned()]
        );
    }

    #[test]
    fn field_checks() {
        let m = holding_meta();
        assert!(m.has_field("id"));
        assert!(m.has_field("qty"));
        assert!(!m.has_field("ghost"));
        assert!(m.check_field("owner").is_ok());
        assert!(matches!(
            m.check_field("ghost"),
            Err(EjbError::NoSuchField { .. })
        ));
    }

    #[test]
    fn finder_binding() {
        let m = holding_meta();
        let p = m
            .bind_finder("findByOwner", &[Value::from("uid:3")])
            .unwrap();
        assert_eq!(p, Predicate::eq("owner", "uid:3"));
        assert!(matches!(
            m.bind_finder("findByGhost", &[]),
            Err(EjbError::NoSuchFinder { .. })
        ));
        assert!(m.bind_finder("findByOwner", &[]).is_err());
        assert_eq!(m.finders().count(), 1);
    }

    /// What `build` writes into a statement that held something else.
    fn built(build: impl FnOnce(&mut BatchStatement)) -> (String, Vec<Value>) {
        let mut stmt = BatchStatement::new("SELECT stale FROM t WHERE x = ?", vec![Value::from(0)]);
        build(&mut stmt);
        (stmt.sql, stmt.params)
    }

    #[test]
    fn before_image_check_handles_nulls() {
        let m = holding_meta();
        let before = crate::Memento::new("Holding", Value::from(7))
            .with_field("owner", "uid:1")
            .with_field("qty", 5.0); // symbol missing → NULL
        let (sql, params) = built(|stmt| m.conditional_delete_statement(stmt, &before));
        assert_eq!(
            sql,
            "DELETE FROM holding WHERE id = ? AND owner = ? AND symbol IS NULL AND qty = ?"
        );
        assert_eq!(
            params,
            vec![Value::from(7), Value::from("uid:1"), Value::from(5.0)]
        );
    }

    #[test]
    fn conditional_update_sets_after_and_matches_before() {
        let m = holding_meta();
        let before = crate::Memento::new("Holding", Value::from(7))
            .with_field("owner", "uid:1")
            .with_field("symbol", "s:1")
            .with_field("qty", 5.0);
        let mut after = before.clone();
        after.set("qty", 6.0);
        let (sql, params) = built(|stmt| m.conditional_update_statement(stmt, &before, &after));
        assert_eq!(
            sql,
            "UPDATE holding SET owner = ?, symbol = ?, qty = ? \
             WHERE id = ? AND owner = ? AND symbol = ? AND qty = ?"
        );
        assert_eq!(params.len(), 7);
        assert_eq!(params[2], Value::from(6.0)); // new qty
        assert_eq!(params[6], Value::from(5.0)); // old qty in WHERE
    }

    #[test]
    fn conditional_delete_matches_full_image() {
        let m = holding_meta();
        let before = crate::Memento::new("Holding", Value::from(7))
            .with_field("owner", "uid:1")
            .with_field("symbol", "s:1")
            .with_field("qty", 5.0);
        let (sql, params) = built(|stmt| m.conditional_delete_statement(stmt, &before));
        assert!(sql.starts_with("DELETE FROM holding WHERE id = ?"));
        assert_eq!(params.len(), 4);
    }

    #[test]
    fn sql_helper_texts() {
        let m = holding_meta();
        assert_eq!(m.exists_sql(), "SELECT id FROM holding WHERE id = ?");
        assert_eq!(
            m.load_sql(),
            "SELECT id, owner, symbol, qty FROM holding WHERE id = ?"
        );
        assert_eq!(
            m.insert_sql(),
            "INSERT INTO holding (id, owner, symbol, qty) VALUES (?, ?, ?, ?)"
        );
        assert_eq!(
            m.update_sql(),
            "UPDATE holding SET owner = ?, symbol = ?, qty = ? WHERE id = ?"
        );
        assert_eq!(m.delete_sql(), "DELETE FROM holding WHERE id = ?");
        assert_eq!(m.select_sql(), "SELECT id, owner, symbol, qty FROM holding");
    }

    #[test]
    fn a_row_becomes_an_image_on_the_descriptors_names() {
        let m = holding_meta();
        let names = m.image_names();
        assert_eq!(&**names.bean(), "Holding");
        let sorted: Vec<&str> = names.fields().iter().map(|n| &**n).collect();
        assert_eq!(sorted, ["owner", "qty", "symbol"]);
        let row = [
            Value::from(7),
            Value::from("uid:1"),
            Value::from("s:1"),
            Value::from(5.0),
        ];
        let image = m.memento_from_row(&row);
        let built = crate::Memento::new("Holding", Value::from(7))
            .with_field("owner", "uid:1")
            .with_field("symbol", "s:1")
            .with_field("qty", 5.0);
        assert_eq!(image, built);
        for ((name, _), lent) in image.fields().iter().zip(names.fields()) {
            assert!(Arc::ptr_eq(name, lent), "{name} is the image's own copy");
        }
        // Of a name declared twice the last column stands, as the last
        // `set` would.
        let twice = EntityMeta::new("T", "t", "id", ColumnType::Int)
            .field("a", ColumnType::Int)
            .field("b", ColumnType::Int)
            .field("a", ColumnType::Int);
        let cells = [1, 10, 20, 30].map(Value::from);
        let image = twice.memento_from_row(&cells);
        let built = crate::Memento::new("T", Value::from(1))
            .with_field("a", 30)
            .with_field("b", 20);
        assert_eq!(image, built);
    }

    #[test]
    fn key_statements_bind_what_their_sql_names() {
        let m = holding_meta();
        let image = crate::Memento::new("Holding", Value::from(3)).with_field("qty", 1.5);
        let (sql, ins) = built(|stmt| m.insert_statement(stmt, &image));
        assert_eq!(sql, m.insert_sql());
        assert_eq!(
            ins,
            vec![Value::from(3), Value::Null, Value::Null, Value::from(1.5)]
        );
        let (sql, upd) = built(|stmt| m.update_statement(stmt, &image));
        assert_eq!(sql, m.update_sql());
        assert_eq!(
            upd,
            vec![Value::Null, Value::Null, Value::from(1.5), Value::from(3)]
        );
        let key = Value::from(3);
        let load = built(|stmt| m.load_statement(stmt, &key));
        assert_eq!(load, (m.load_sql().to_owned(), vec![Value::from(3)]));
        let delete = built(|stmt| m.delete_statement(stmt, &key));
        assert_eq!(delete, (m.delete_sql().to_owned(), vec![Value::from(3)]));
    }

    #[test]
    fn a_row_encodes_as_its_image_does() {
        let twice = EntityMeta::new("T", "t", "id", ColumnType::Int)
            .field("b", ColumnType::Varchar)
            .field("a", ColumnType::Int)
            .field("b", ColumnType::Varchar);
        for m in [holding_meta(), twice] {
            let row: Vec<Value> = (0..=m.fields().len() as i64).map(Value::from).collect();
            let mut built = Writer::new();
            m.memento_from_row(&row).encode(&mut built);
            let mut direct = Writer::new();
            m.encode_row(&row, &mut direct);
            assert_eq!(direct.finish(), built.finish(), "{}", m.bean());
        }
    }

    #[test]
    fn select_columns_order() {
        assert_eq!(
            holding_meta().select_columns(),
            vec!["id", "owner", "symbol", "qty"]
        );
    }
}
