//! Deployment registry: bean name → entity metadata.

use std::collections::BTreeMap;

use sli_component::{EjbError, EjbResult, EntityMeta, ImageNames};
use sli_datastore::Database;

/// A registry of the entity types deployed in a cache-enabled application.
///
/// Both sides of a split deployment hold the same registry: the edge uses
/// it to build homes and evaluate finders locally; the back-end uses it to
/// resolve commit-request entries to tables during validation.
#[derive(Debug, Clone, Default)]
pub struct MetaRegistry {
    metas: BTreeMap<String, EntityMeta>,
}

impl MetaRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetaRegistry {
        MetaRegistry::default()
    }

    /// Adds entity metadata (builder style).
    pub fn with(mut self, meta: EntityMeta) -> MetaRegistry {
        self.register(meta);
        self
    }

    /// Adds entity metadata.
    pub fn register(&mut self, meta: EntityMeta) {
        self.metas.insert(meta.bean().to_owned(), meta);
    }

    /// Resolves a bean name.
    ///
    /// # Errors
    /// [`EjbError::NotFound`] for unknown bean types.
    pub fn meta(&self, bean: &str) -> EjbResult<&EntityMeta> {
        self.metas.get(bean).ok_or_else(|| EjbError::NotFound {
            bean: bean.to_owned(),
            key: "<meta>".to_owned(),
        })
    }

    /// The names `bean`'s descriptor lends to the images decoded against
    /// it, if the bean is registered.
    pub fn image_names(&self, bean: &str) -> Option<&ImageNames> {
        self.metas.get(bean).map(EntityMeta::image_names)
    }

    /// All registered metadata, ordered by bean name.
    pub fn iter(&self) -> impl Iterator<Item = &EntityMeta> {
        self.metas.values()
    }

    /// Number of registered entity types.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Creates every backing table and secondary index in `db`.
    ///
    /// # Errors
    /// Propagates DDL failures (e.g. a table that already exists).
    pub fn create_schema(&self, db: &Database) -> EjbResult<()> {
        for meta in self.metas.values() {
            db.execute_ddl(&meta.create_table_ddl())?;
            for ddl in meta.create_index_ddl() {
                db.execute_ddl(&ddl)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_datastore::ColumnType;

    fn sample() -> MetaRegistry {
        MetaRegistry::new()
            .with(
                EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
                    .field("balance", ColumnType::Double),
            )
            .with(
                EntityMeta::new("Holding", "holding", "id", ColumnType::Int)
                    .field("owner", ColumnType::Varchar)
                    .index("owner"),
            )
    }

    #[test]
    fn lookup_and_iteration() {
        let reg = sample();
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert_eq!(reg.meta("Account").unwrap().table(), "account");
        assert!(reg.meta("Ghost").is_err());
        let lent = reg.image_names("Account").expect("registered");
        assert_eq!(lent, reg.meta("Account").unwrap().image_names());
        assert!(reg.image_names("Ghost").is_none());
        let names: Vec<&str> = reg.iter().map(|m| m.bean()).collect();
        assert_eq!(names, vec!["Account", "Holding"]);
    }

    #[test]
    fn create_schema_builds_tables_and_indexes() {
        let reg = sample();
        let db = Database::new();
        reg.create_schema(&db).unwrap();
        assert_eq!(db.table_names(), vec!["account", "holding"]);
        // second run fails: tables exist
        assert!(reg.create_schema(&db).is_err());
    }
}
