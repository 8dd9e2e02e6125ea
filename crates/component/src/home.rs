//! The Home interface and bean references.

use std::fmt;
use std::sync::Arc;

use sli_datastore::Value;

use crate::context::TxContext;
use crate::memento::Memento;
use crate::meta::EntityMeta;
use crate::EjbResult;

/// A reference to an entity bean: its type plus its primary key.
///
/// References are what finders return and what business logic passes
/// around; all state access goes back through the [`Home`] so the container
/// can mediate loading, caching and dirty tracking.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EjbRef {
    bean: Arc<str>,
    key: Value,
}

impl EjbRef {
    /// Creates a reference to bean `bean` with identity `key`. A home
    /// passes its descriptor's shared name.
    pub fn new(bean: impl Into<Arc<str>>, key: Value) -> EjbRef {
        EjbRef {
            bean: bean.into(),
            key,
        }
    }

    /// The bean type name.
    pub fn bean(&self) -> &str {
        &self.bean
    }

    /// The bean identity (`getPrimaryKey`).
    pub fn primary_key(&self) -> &Value {
        &self.key
    }
}

impl fmt::Display for EjbRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.bean, self.key)
    }
}

/// The home interface for one entity type.
///
/// This is the contract the application is written against. Two families
/// of implementation exist: [`BmpHome`](crate::BmpHome) (vanilla
/// bean-managed persistence, one JDBC statement per life-cycle event) and
/// the cache-enabled `SliHome` in `sli-core`. Because both expose exactly
/// this interface, "tooling takes standard EJBs as input and produces
/// cache-enabled EJB implementations with the same Java interface as
/// output" — swapping one for the other never touches business logic.
pub trait Home: Send + Sync {
    /// The deployment metadata this home serves.
    fn meta(&self) -> &EntityMeta;

    /// Creates a new bean from `state` (the EJB `create` method).
    ///
    /// # Errors
    /// [`EjbError::DuplicateKey`](crate::EjbError::DuplicateKey) if a bean
    /// with the same key already exists (for optimistic homes this may only
    /// surface at commit).
    fn create(&self, ctx: &mut TxContext, state: Memento) -> EjbResult<EjbRef>;

    /// Looks a bean up by primary key.
    ///
    /// # Errors
    /// [`EjbError::NotFound`](crate::EjbError::NotFound) if no such bean
    /// exists.
    fn find_by_primary_key(&self, ctx: &mut TxContext, key: &Value) -> EjbResult<EjbRef>;

    /// Runs the named custom finder with `params`, returning matching
    /// references.
    ///
    /// # Errors
    /// [`EjbError::NoSuchFinder`](crate::EjbError::NoSuchFinder) for
    /// undeclared finders; datastore errors propagate.
    fn find(&self, ctx: &mut TxContext, finder: &str, params: &[Value]) -> EjbResult<Vec<EjbRef>>;

    /// Removes the bean with the given key.
    ///
    /// # Errors
    /// [`EjbError::NotFound`](crate::EjbError::NotFound) if it does not
    /// exist.
    fn remove(&self, ctx: &mut TxContext, key: &Value) -> EjbResult<()>;

    /// Reads a persistent field, faulting the bean state in if necessary.
    ///
    /// # Errors
    /// [`EjbError::NotFound`](crate::EjbError::NotFound) /
    /// [`EjbError::NoSuchField`](crate::EjbError::NoSuchField).
    fn get_field(&self, ctx: &mut TxContext, key: &Value, field: &str) -> EjbResult<Value>;

    /// Writes a persistent field, faulting the bean state in if necessary.
    ///
    /// # Errors
    /// As for [`Home::get_field`].
    fn set_field(
        &self,
        ctx: &mut TxContext,
        key: &Value,
        field: &str,
        value: Value,
    ) -> EjbResult<()>;

    /// Writes back dirty instances (the `ejbStore` sweep the container runs
    /// at commit). No-op for homes whose resource manager ships state at
    /// commit itself.
    ///
    /// # Errors
    /// Datastore errors propagate.
    fn flush(&self, ctx: &mut TxContext) -> EjbResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejb_ref_identity() {
        let r = EjbRef::new("Account", Value::from("uid:1"));
        assert_eq!(r.bean(), "Account");
        assert_eq!(r.primary_key(), &Value::from("uid:1"));
        assert_eq!(r.to_string(), "Account['uid:1']");
        let r2 = EjbRef::new("Account", Value::from("uid:1"));
        assert_eq!(r, r2);
    }

    #[test]
    fn home_is_object_safe() {
        fn _takes_dyn(_h: &dyn Home) {}
    }
}
