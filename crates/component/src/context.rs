//! The per-transaction instance store.
//!
//! Every application transaction gets a [`TxContext`]: the container's
//! record of which beans the transaction has touched, their in-transaction
//! state, their **before-images** (the memento captured when the state was
//! first faulted in) and their pending life-cycle events (created/removed).
//! This is the paper's "per-transaction transient store"; the BMP container
//! uses it as the usual entity-instance cache, and the SLI runtime reads it
//! at commit time to build the optimistic commit request.

use std::sync::Arc;

use sli_datastore::Value;

use crate::memento::Memento;

/// In-transaction state of one enlisted bean.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstanceState {
    /// Current (possibly modified) state. It shares the loaded image until
    /// the first field write, which is the one deep copy a transaction
    /// makes of a bean; `None` until the state is loaded or created.
    pub current: Option<Memento>,
    /// Whether `current` has been populated from the store.
    pub loaded: bool,
    /// Whether the state diverged from the loaded image.
    pub dirty: bool,
    /// Whether this bean was created inside the transaction.
    pub created: bool,
    /// Whether this bean was removed inside the transaction.
    pub removed: bool,
    /// Whether the bean is known to exist (a find succeeded), even before
    /// any load.
    pub exists: bool,
    /// The state first observed by this transaction — the before-image the
    /// optimistic validator compares against the persistent store.
    pub before: Option<Memento>,
}

impl InstanceState {
    /// Snapshot of the current state as a memento (the after-image when
    /// taken at commit); an empty image of (`bean`, `key`) when there is no
    /// state yet.
    pub fn to_memento(&self, bean: &str, key: &Value) -> Memento {
        self.current
            .clone()
            .unwrap_or_else(|| Memento::new(bean, key.clone()))
    }

    /// Loads `image` as this instance's observed state and before-image.
    pub fn load_from(&mut self, image: &Memento) {
        self.current = Some(image.clone());
        self.loaded = true;
        self.exists = true;
        self.dirty = false;
        if self.before.is_none() {
            self.before = Some(image.clone());
        }
    }

    /// The current value of a non-key field (NULL when unset).
    pub fn field(&self, name: &str) -> Value {
        let value = self.current.as_ref().and_then(|m| m.get(name));
        value.cloned().unwrap_or(Value::Null)
    }

    /// Writes a non-key field of the bean (`bean`, `key`) and marks the
    /// state dirty.
    pub fn set_field(&mut self, bean: &str, key: &Value, name: &str, value: Value) {
        self.current
            .get_or_insert_with(|| Memento::new(bean, key.clone()))
            .set(name, value);
        self.dirty = true;
    }
}

/// The per-transaction transient store.
///
/// A transaction's footprint is a handful of beans, so the store is one
/// vector in first-touch order (the order commit processing needs) and a
/// lookup is a scan comparing borrowed keys: asking a question builds
/// nothing.
#[derive(Debug, Default)]
pub struct TxContext {
    instances: Vec<(Arc<str>, Value, InstanceState)>,
}

impl TxContext {
    /// Creates an empty context (one application transaction).
    pub fn new() -> TxContext {
        TxContext::default()
    }

    fn position(&self, bean: &str, key: &Value) -> Option<usize> {
        self.instances
            .iter()
            .position(|(b, k, _)| **b == *bean && k == key)
    }

    /// Read-only view of an enlisted instance.
    pub fn instance(&self, bean: &str, key: &Value) -> Option<&InstanceState> {
        self.position(bean, key).map(|i| &self.instances[i].2)
    }

    /// Mutable view of an enlisted instance.
    pub fn instance_mut(&mut self, bean: &str, key: &Value) -> Option<&mut InstanceState> {
        self.position(bean, key).map(|i| &mut self.instances[i].2)
    }

    /// Fetches or creates the instance entry for (`bean`, `key`). The bean
    /// name is converted only when a new instance is enlisted, so a home
    /// that passes its descriptor's shared name makes the context point at
    /// it.
    pub fn enlist(
        &mut self,
        bean: impl Into<Arc<str>> + AsRef<str>,
        key: &Value,
    ) -> &mut InstanceState {
        let i = match self.position(bean.as_ref(), key) {
            Some(i) => i,
            None => {
                self.instances
                    .push((bean.into(), key.clone(), InstanceState::default()));
                self.instances.len() - 1
            }
        };
        &mut self.instances[i].2
    }

    /// Iterates enlisted instances in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Value, &InstanceState)> {
        self.instances.iter().map(|(b, k, st)| (b, k, st))
    }

    /// Number of enlisted instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether no bean has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Drops all enlisted state (transaction end).
    pub fn clear(&mut self) {
        self.instances.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enlist_is_idempotent_and_ordered() {
        let mut ctx = TxContext::new();
        ctx.enlist("Account", &Value::from("a")).exists = true;
        ctx.enlist("Quote", &Value::from("q"));
        ctx.enlist("Account", &Value::from("a")).dirty = true;
        assert_eq!(ctx.len(), 2);
        let touched: Vec<&str> = ctx.iter().map(|(b, _, _)| &**b).collect();
        assert_eq!(touched, vec!["Account", "Quote"]);
        let acct = ctx.instance("Account", &Value::from("a")).unwrap();
        assert!(acct.exists && acct.dirty);
    }

    #[test]
    fn load_from_sets_before_image_once() {
        let mut st = InstanceState::default();
        let img1 = Memento::new("Account", Value::from("a")).with_field("balance", 10.0);
        st.load_from(&img1);
        assert!(st.loaded && st.exists && !st.dirty);
        assert_eq!(st.before.as_ref(), Some(&img1));
        // a re-load (e.g. refresh) must NOT overwrite the before-image
        let img2 = Memento::new("Account", Value::from("a")).with_field("balance", 20.0);
        st.load_from(&img2);
        assert_eq!(st.before.as_ref(), Some(&img1));
        assert_eq!(st.field("balance"), Value::from(20.0));
    }

    #[test]
    fn to_memento_captures_current_fields() {
        let mut st = InstanceState::default();
        assert_eq!(st.field("balance"), Value::Null);
        st.set_field("Account", &Value::from("a"), "balance", Value::from(42.0));
        assert!(st.dirty);
        let m = st.to_memento("Account", &Value::from("a"));
        assert_eq!(m.bean(), "Account");
        assert_eq!(m.get("balance"), Some(&Value::from(42.0)));
    }

    #[test]
    fn a_write_never_reaches_the_before_image() {
        let image = Memento::new("Account", Value::from("a")).with_field("balance", 10.0);
        let mut st = InstanceState::default();
        st.load_from(&image);
        st.set_field("Account", &Value::from("a"), "balance", Value::from(11.0));
        assert_eq!(st.field("balance"), Value::from(11.0));
        assert_eq!(st.before.as_ref(), Some(&image));
        assert_eq!(image.get("balance"), Some(&Value::from(10.0)));
    }

    #[test]
    fn an_enlisted_instance_points_at_the_name_it_was_given() {
        let mut ctx = TxContext::new();
        let bean: Arc<str> = Arc::from("Account");
        ctx.enlist(Arc::clone(&bean), &Value::from("a"));
        ctx.enlist("Account", &Value::from("a")).dirty = true;
        let (name, _, st) = ctx.iter().next().unwrap();
        assert!(Arc::ptr_eq(name, &bean) && st.dirty);
    }

    #[test]
    fn clear_resets() {
        let mut ctx = TxContext::new();
        ctx.enlist("A", &Value::from(1));
        assert!(!ctx.is_empty());
        ctx.clear();
        assert!(ctx.is_empty());
        assert_eq!(ctx.iter().count(), 0);
    }

    #[test]
    fn instance_mut_mutates() {
        let mut ctx = TxContext::new();
        ctx.enlist("A", &Value::from(1));
        ctx.instance_mut("A", &Value::from(1)).unwrap().removed = true;
        assert!(ctx.instance("A", &Value::from(1)).unwrap().removed);
        assert!(ctx.instance("B", &Value::from(1)).is_none());
    }
}
