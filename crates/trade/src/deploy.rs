//! Deployment wiring: building vanilla and cache-enabled containers.
//!
//! This module plays the role of the paper's deployment tooling: given the
//! same entity metadata, it either wires the standard JDBC/BMP homes with
//! the pessimistic resource manager ("vanilla EJBs"), or substitutes SLI
//! homes with the optimistic resource manager ("cached EJBs") — without the
//! application noticing.

use std::sync::Arc;

use sli_component::{BmpHome, Container, JdbcResourceManager, SharedConnection};
use sli_core::{Committer, CommonStore, SliHome, SliResourceManager, StateSource};

use crate::model::trade_registry;

/// Alias re-exported for engine constructors.
pub type SharedConn = SharedConnection;

/// Builds the vanilla (non-cached) Trade2 container: BMP homes over
/// `conn`, pessimistic JDBC resource manager.
pub fn vanilla_container(conn: SharedConnection) -> Container {
    let mut container = Container::new(Arc::new(JdbcResourceManager::new(Arc::clone(&conn))));
    for meta in trade_registry().iter() {
        container.register(Arc::new(BmpHome::new(meta.clone(), Arc::clone(&conn))));
    }
    container
}

/// Builds the cache-enabled Trade2 container: SLI homes over the shared
/// `store`, faulting through `source`, committing through `committer`.
///
/// `origin` identifies this edge server for invalidation fan-out.
pub fn cached_container(
    origin: u32,
    store: Arc<CommonStore>,
    source: Arc<dyn StateSource>,
    committer: Arc<dyn Committer>,
) -> Container {
    cached_container_with_rm(origin, store, source, committer).0
}

/// Builds a cache-enabled container and also returns its resource manager
/// so callers can read commit/conflict statistics.
pub fn cached_container_with_rm(
    origin: u32,
    store: Arc<CommonStore>,
    source: Arc<dyn StateSource>,
    committer: Arc<dyn Committer>,
) -> (Container, Arc<SliResourceManager>) {
    let rm = Arc::new(SliResourceManager::new(
        origin,
        committer,
        Arc::clone(&store),
    ));
    let mut container = Container::new(Arc::clone(&rm) as Arc<dyn sli_component::ResourceManager>);
    for meta in trade_registry().iter() {
        container.register(Arc::new(SliHome::new(
            meta.clone(),
            Arc::clone(&store),
            Arc::clone(&source),
        )));
    }
    (container, rm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_core::{CombinedCommitter, DirectSource};
    use sli_datastore::Database;

    #[test]
    fn vanilla_container_deploys_all_beans() {
        let db = Database::new();
        trade_registry().create_schema(&db).unwrap();
        let conn = sli_component::share_connection(db.connect());
        let c = vanilla_container(conn);
        assert_eq!(c.beans().count(), 5);
    }

    #[test]
    fn cached_container_deploys_all_beans() {
        let db = Database::new();
        trade_registry().create_schema(&db).unwrap();
        let store = CommonStore::new();
        let source = Arc::new(DirectSource::new(Box::new(db.connect()), trade_registry()));
        let committer = Arc::new(CombinedCommitter::new(
            Box::new(db.connect()),
            trade_registry(),
        ));
        let (c, rm) = cached_container_with_rm(1, store, source, committer);
        assert_eq!(c.beans().count(), 5);
        assert_eq!(rm.stats().commits, 0);
    }
}
