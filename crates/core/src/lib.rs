//! # sli-core — the Single Logical Image (SLI) EJB caching framework
//!
//! This crate is the paper's primary contribution: a caching layer that
//! substitutes *SLI* Homes and beans for the standard JDBC-backed ones, so
//! that edge servers can hold **transactionally consistent** cached copies
//! of entity beans — transparently to the application.
//!
//! The moving parts, mapped to the paper's §2:
//!
//! * [`CommonStore`] — the shared ("common") transient store of committed
//!   bean images, consulted on a per-transaction cache miss before touching
//!   the persistent store (§2.3, inter-transaction caching);
//! * [`SliHome`] — the cache-enabled Home with the three population paths
//!   of §2.2: direct access by primary key, custom-finder result-set merge
//!   (never overlaying the transaction's own updates — repeatable-read, not
//!   serializable), and explicit create;
//! * [`CommitRequest`] / [`validate_and_apply`] — the optimistic commit
//!   protocol of §2.3: before-images of *every* accessed bean are compared
//!   by value against the current persistent images; creates require key
//!   absence, removes require the current image to still exist; on success
//!   the after-images are written in a single datastore transaction;
//! * [`CommitPoint`] — the one place a commit request is decided, exactly
//!   once: replay table, WAL stamp, validation, history, counters, spans.
//!   The two server configurations differ only in where it runs;
//! * [`SliResourceManager`] — the optimistic replacement for the JDBC
//!   resource manager, with pluggable [`Committer`]s:
//!   [`CombinedCommitter`] (the *combined-servers* configuration — a
//!   [`CommitPoint`] co-located with the edge, one datastore access **per
//!   memento image** across the high-latency path) and
//!   [`SplitCommitter`]/[`BackendServer`] (the *split-servers*
//!   configuration — the whole transaction state ships to the back-end's
//!   [`CommitPoint`] in one round trip, and the multiple datastore accesses
//!   happen over the back-end's low-latency path, §2.4);
//! * [`BackendServer`] — the back-end tier: cache-miss fetch/query service
//!   and invalidation fan-out to peer edges around its commit point;
//! * [`StateSource`] — where an edge faults bean state in from:
//!   [`DirectSource`] (short autocommitted SQL against the database, as in
//!   ES/RDB) or [`BackendSource`] (one wire round trip to the back-end, as
//!   in ES/RBES).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod commit;
mod committer;
mod home;
mod registry;
mod rm;
mod source;
mod store;

pub use backend::{BackendServer, BackendSource, SplitCommitter};
pub use commit::{CommitEntry, CommitOutcome, CommitRequest, EntryKind};
pub use committer::{
    memento_digest, validate_and_apply, validate_and_apply_per_image, CombinedCommitter,
    CommitPoint, Committer, CommitterStats,
};
pub use home::SliHome;
pub use registry::MetaRegistry;
pub use rm::{RmStats, SliResourceManager};
pub use source::{DirectSource, StateSource};
pub use store::{CacheStats, CommonStore, DeferredInvalidationSink, InvalidationSink};
