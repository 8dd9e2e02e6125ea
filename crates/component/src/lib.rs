//! # sli-component — an entity-bean component model
//!
//! The paper deploys its caching framework under the Enterprise JavaBeans
//! *entity bean* model. This crate is that component model rebuilt in Rust:
//!
//! * [`EntityMeta`] — deployment metadata: bean name, backing table, key
//!   field, typed fields and named *custom finders* (predicate queries);
//! * [`Memento`] — the serializable value object carrying a bean's state
//!   between address spaces, with the same notion of identity as the bean
//!   (the paper's *mementos*, after the GoF pattern);
//! * [`TxContext`] — the per-transaction instance store the container keeps
//!   for enlisted beans (before-images, dirty flags, pending creates and
//!   removes);
//! * [`Home`] — the home interface: `create`, `find_by_primary_key`, custom
//!   finders, `remove`, plus container-mediated field access;
//! * [`BmpHome`] — the *vanilla* bean-managed-persistence implementation
//!   that issues JDBC statements for every life-cycle event, faithfully
//!   reproducing the inefficiencies the paper measures (the
//!   `findByPrimaryKey` existence check that cannot be cached, the
//!   load-on-first-touch SELECT, the store-at-commit UPDATE, N+1 finders);
//! * [`Container`] — transaction demarcation around business logic with a
//!   pluggable [`ResourceManager`] (the pessimistic JDBC one lives here;
//!   the optimistic SLI one is the `sli-core` crate's contribution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bmp;
mod container;
mod context;
mod error;
mod home;
mod memento;
mod meta;

pub use bmp::BmpHome;
pub use container::{Container, JdbcResourceManager, ResourceManager, TxAttr};
pub use context::{InstanceState, TxContext};
pub use error::EjbError;
pub use home::{EjbRef, Home};
pub use memento::{ImageNames, Memento};
pub use meta::{EntityMeta, FieldDef, FinderDef};

/// Convenient result alias for component operations.
pub type EjbResult<T> = std::result::Result<T, EjbError>;

/// A shared, lockable JDBC-style connection as used by homes and resource
/// managers.
pub type SharedConnection =
    std::sync::Arc<parking_lot::Mutex<dyn sli_datastore::SqlConnection + Send>>;

/// Wraps a connection for sharing between homes and the resource manager.
pub fn share_connection<C>(conn: C) -> SharedConnection
where
    C: sli_datastore::SqlConnection + Send + 'static,
{
    std::sync::Arc::new(parking_lot::Mutex::new(conn))
}
