//! Transactional-consistency integration tests: the ACID guarantees the
//! paper requires from edge-cached EJBs ("bank accounts must show the same
//! balance at every edge server, and update operations must happen in an
//! ACID fashion"), exercised across multiple cache-enhanced edges sharing
//! one persistent store.

mod common;

use std::sync::Arc;

use common::{account_meta, balance_of, combined_edge, debit, registry, seeded_db, split_cluster};
use sli_edge::component::{Container, EjbError, Memento, ResourceManager};
use sli_edge::core::{
    BackendServer, BackendSource, CommonStore, InvalidationSink, SliHome, SliResourceManager,
    SplitCommitter,
};
use sli_edge::datastore::Value;
use sli_edge::simnet::{Clock, Path, PathSpec, Remote};

#[test]
fn no_lost_updates_between_combined_edges() {
    let db = seeded_db();
    let (edge1, _s1) = combined_edge(&db, 1);
    let (edge2, _s2) = combined_edge(&db, 2);
    // Both edges repeatedly debit the same account; optimistic retries must
    // serialize the updates so no debit is lost.
    for i in 0..10 {
        let edge = if i % 2 == 0 { &edge1 } else { &edge2 };
        edge.with_retrying_transaction(10, |ctx, c| {
            let home = c.home("Account")?;
            let key = Value::from("alice");
            let balance = home.get_field(ctx, &key, "balance")?.as_double().unwrap();
            home.set_field(ctx, &key, "balance", Value::from(balance - 5.0))?;
            Ok(())
        })
        .unwrap();
    }
    assert_eq!(balance_of(&db, "alice"), 100.0 - 50.0);
}

#[test]
fn stale_cache_write_aborts_and_leaves_no_trace() {
    let db = seeded_db();
    let (edge1, _s1) = combined_edge(&db, 1);
    let (edge2, store2) = combined_edge(&db, 2);
    // Edge 2 caches alice.
    edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")?;
            Ok(())
        })
        .unwrap();
    // Edge 1 changes alice under edge 2's cache.
    debit(&edge1, "alice", 30.0).unwrap();
    assert_eq!(balance_of(&db, "alice"), 70.0);
    // Edge 2's write over the stale image must abort without touching bob
    // or alice.
    let result = edge2.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        home.set_field(ctx, &Value::from("bob"), "balance", Value::from(0.0))?;
        home.set_field(ctx, &Value::from("alice"), "balance", Value::from(0.0))?;
        Ok(())
    });
    assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
    assert_eq!(balance_of(&db, "alice"), 70.0);
    assert_eq!(balance_of(&db, "bob"), 200.0);
    // The abort purged the stale image.
    assert!(store2.get("Account", &Value::from("alice")).is_none());
}

#[test]
fn split_cluster_invalidation_keeps_second_edge_fresh() {
    let db = seeded_db();
    let (_clock, _backend, edges) = split_cluster(&db, 2);
    let (edge1, _) = &edges[0];
    let (edge2, store2) = &edges[1];
    // Edge 2 caches alice.
    edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")?;
            Ok(())
        })
        .unwrap();
    assert!(store2.get("Account", &Value::from("alice")).is_some());
    // Edge 1 commits a debit through the backend → invalidation reaches
    // edge 2 before its next transaction.
    debit(edge1, "alice", 25.0).unwrap();
    assert!(
        store2.get("Account", &Value::from("alice")).is_none(),
        "invalidation must purge the peer cache"
    );
    // Edge 2's next write re-faults fresh state and succeeds first try.
    debit(edge2, "alice", 25.0).unwrap();
    assert_eq!(balance_of(&db, "alice"), 50.0);
}

#[test]
fn transfer_is_atomic_across_accounts() {
    let db = seeded_db();
    let (edge, _store) = combined_edge(&db, 1);
    // A transfer that fails business validation mid-way must roll back
    // entirely.
    let result: Result<(), EjbError> = edge.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        let alice = Value::from("alice");
        let bob = Value::from("bob");
        let a = home.get_field(ctx, &alice, "balance")?.as_double().unwrap();
        home.set_field(ctx, &alice, "balance", Value::from(a - 500.0))?;
        let b = home.get_field(ctx, &bob, "balance")?.as_double().unwrap();
        home.set_field(ctx, &bob, "balance", Value::from(b + 500.0))?;
        // insufficient funds discovered late
        if a - 500.0 < 0.0 {
            return Err(EjbError::TransactionRequired);
        }
        Ok(())
    });
    assert!(result.is_err());
    assert_eq!(balance_of(&db, "alice"), 100.0);
    assert_eq!(balance_of(&db, "bob"), 200.0);
    // A valid transfer commits both sides.
    edge.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        let alice = Value::from("alice");
        let bob = Value::from("bob");
        let a = home.get_field(ctx, &alice, "balance")?.as_double().unwrap();
        let b = home.get_field(ctx, &bob, "balance")?.as_double().unwrap();
        home.set_field(ctx, &alice, "balance", Value::from(a - 50.0))?;
        home.set_field(ctx, &bob, "balance", Value::from(b + 50.0))?;
        Ok(())
    })
    .unwrap();
    assert_eq!(balance_of(&db, "alice"), 50.0);
    assert_eq!(balance_of(&db, "bob"), 250.0);
}

#[test]
fn repeatable_read_within_a_transaction() {
    let db = seeded_db();
    let (edge1, _s1) = combined_edge(&db, 1);
    let (edge2, _s2) = combined_edge(&db, 2);
    // Edge 1 opens a transaction and reads alice twice; a concurrent commit
    // from edge 2 between the reads must NOT be visible (the per-txn store
    // serves the second read) — though the transaction will then abort at
    // validation, preserving the isolation contract.
    let result = edge1.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        let key = Value::from("alice");
        let first = home.get_field(ctx, &key, "balance")?;
        debit(&edge2, "alice", 10.0).unwrap();
        let second = home.get_field(ctx, &key, "balance")?;
        assert_eq!(first, second, "read must be repeatable inside the txn");
        Ok(())
    });
    // The read-set validation then detects the concurrent change.
    assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
}

#[test]
fn create_remove_lifecycle_across_edges() {
    let db = seeded_db();
    let (edge1, _s1) = combined_edge(&db, 1);
    let (edge2, _s2) = combined_edge(&db, 2);
    // Edge 1 creates carol.
    edge1
        .with_transaction(|ctx, c| {
            c.home("Account")?.create(
                ctx,
                Memento::new("Account", Value::from("carol")).with_field("balance", 10.0),
            )?;
            Ok(())
        })
        .unwrap();
    // Edge 2 sees her (cache miss → persistent fetch) and removes her.
    edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?.remove(ctx, &Value::from("carol"))?;
            Ok(())
        })
        .unwrap();
    // Edge 1 still holds a stale cached image; a write through it aborts,
    // and a subsequent read discovers the removal.
    let result = edge1.with_transaction(|ctx, c| {
        c.home("Account")?
            .set_field(ctx, &Value::from("carol"), "balance", Value::from(99.0))?;
        Ok(())
    });
    assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
    let result = edge1.with_transaction(|ctx, c| {
        c.home("Account")?
            .get_field(ctx, &Value::from("carol"), "balance")?;
        Ok(())
    });
    assert!(matches!(result, Err(EjbError::NotFound { .. })));
}

#[test]
fn concurrent_creates_of_same_key_one_wins() {
    let db = seeded_db();
    let (edge1, _s1) = combined_edge(&db, 1);
    let (edge2, _s2) = combined_edge(&db, 2);
    let create = |edge: &Container| {
        edge.with_transaction(|ctx, c| {
            c.home("Account")?.create(
                ctx,
                Memento::new("Account", Value::from("dave")).with_field("balance", 1.0),
            )?;
            Ok(())
        })
    };
    assert!(create(&edge1).is_ok());
    let second = create(&edge2);
    assert!(matches!(second, Err(EjbError::OptimisticConflict { .. })));
    assert_eq!(balance_of(&db, "dave"), 1.0);
}

#[test]
fn read_only_transactions_see_a_consistent_snapshot_or_abort() {
    let db = seeded_db();
    let (edge1, _s1) = combined_edge(&db, 1);
    let (edge2, _s2) = combined_edge(&db, 2);
    // Prime edge 1's cache with both accounts.
    edge1
        .with_transaction(|ctx, c| {
            let home = c.home("Account")?;
            home.get_field(ctx, &Value::from("alice"), "balance")?;
            home.get_field(ctx, &Value::from("bob"), "balance")?;
            Ok(())
        })
        .unwrap();
    // Edge 2 moves money between them (two separate committed transfers).
    debit(&edge2, "alice", 100.0).unwrap();
    // Edge 1 runs an "audit" that sums both balances from its (now
    // partially stale) cache: it must abort rather than report a sum that
    // never existed.
    let result = edge1.with_transaction(|ctx, c| {
        let home = c.home("Account")?;
        let a = home
            .get_field(ctx, &Value::from("alice"), "balance")?
            .as_double()
            .unwrap();
        let b = home
            .get_field(ctx, &Value::from("bob"), "balance")?
            .as_double()
            .unwrap();
        Ok(a + b)
    });
    assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
}

#[test]
fn deferred_invalidation_leaves_a_staleness_window_that_validation_catches() {
    use sli_edge::core::DeferredInvalidationSink;
    use sli_edge::simnet::SimDuration;

    let db = seeded_db();
    let clock = Arc::new(Clock::new());
    let backend = BackendServer::new(Box::new(db.connect()), registry(), Arc::clone(&clock));

    // Edge 1: plain immediate sink (reference behaviour).
    let build_edge = |id: u32, deferred: Option<SimDuration>| {
        let store = CommonStore::new();
        let path = Path::new(
            format!("edge{id}-backend"),
            Arc::clone(&clock),
            PathSpec::lan(),
        );
        let remote = Remote::new(path, Arc::clone(&backend));
        let inv = Path::new(format!("inv-{id}"), Arc::clone(&clock), PathSpec::lan());
        let sink = deferred.map(|latency| {
            inv.set_proxy_delay(latency);
            DeferredInvalidationSink::over_path(Arc::clone(&store), Arc::clone(&inv))
        });
        match &sink {
            Some(s) => backend.register_edge(id, Remote::new(inv, Arc::clone(s))),
            None => backend.register_edge(
                id,
                Remote::new(inv, InvalidationSink::new(Arc::clone(&store))),
            ),
        }
        let source = Arc::new(BackendSource::new(remote.clone()));
        let committer = Arc::new(SplitCommitter::new(remote));
        let rm = Arc::new(SliResourceManager::new(id, committer, Arc::clone(&store)));
        let mut container = Container::new(rm as Arc<dyn ResourceManager>);
        container.register(Arc::new(SliHome::new(
            account_meta(),
            Arc::clone(&store),
            source,
        )));
        (container, store, sink)
    };

    let (edge1, _s1, _) = build_edge(1, None);
    // Edge 2's invalidations take 50 ms to arrive.
    let (edge2, store2, sink2) = build_edge(2, Some(SimDuration::from_millis(50)));
    let sink2 = sink2.unwrap();

    // Edge 2 caches alice.
    edge2
        .with_transaction(|ctx, c| {
            c.home("Account")?
                .get_field(ctx, &Value::from("alice"), "balance")?;
            Ok(())
        })
        .unwrap();
    // Edge 1 commits a debit; the invalidation for edge 2 is now in flight.
    debit(&edge1, "alice", 30.0).unwrap();
    assert_eq!(sink2.in_flight(), 1);
    assert!(
        store2.get("Account", &Value::from("alice")).is_some(),
        "stale image still cached during the propagation window"
    );
    // A write through the stale image inside the window must be caught by
    // commit-time validation, not silently applied.
    sink2.deliver_due(); // nothing due yet — window still open
    let result = debit(&edge2, "alice", 30.0);
    assert!(matches!(result, Err(EjbError::OptimisticConflict { .. })));
    assert_eq!(balance_of(&db, "alice"), 70.0, "stale write must not land");
    // After the crossing completes, delivery happens and the retry works.
    clock.delay(SimDuration::from_millis(50));
    sink2.deliver_due();
    debit(&edge2, "alice", 30.0).unwrap();
    assert_eq!(balance_of(&db, "alice"), 40.0);
}

#[test]
fn requires_new_commits_independently_under_the_sli_rm() {
    use sli_edge::component::TxAttr;
    let db = seeded_db();
    let (edge, _store) = combined_edge(&db, 1);
    // The inner RequiresNew transaction commits even though the outer one
    // aborts — optimistic workspaces are independent, so the container can
    // branch transactions the way an EJB container with a connection pool
    // would.
    let result: Result<(), EjbError> = edge.with_transaction(|_outer, c| {
        c.invoke(TxAttr::RequiresNew, None, |ctx, cc| {
            cc.home("Account")?.create(
                ctx.expect("fresh context"),
                Memento::new("Account", Value::from("inner")).with_field("balance", 9.0),
            )?;
            Ok(())
        })?;
        Err(EjbError::TransactionRequired) // outer aborts
    });
    assert!(result.is_err());
    assert_eq!(balance_of(&db, "inner"), 9.0, "inner commit must survive");
    assert_eq!(balance_of(&db, "alice"), 100.0);
}
