//! The common transient store: inter-transaction bean-image cache.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use sli_component::Memento;
use sli_datastore::Value;
use sli_simnet::hash::FxHashMap;
use sli_simnet::wire::{Reader, Writer};
use sli_simnet::Service;
use sli_telemetry::{Counter, Gauge, Registry};

/// Hit/miss counters for a [`CommonStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that fell through to the persistent tier.
    pub misses: u64,
    /// Entries invalidated by peer-commit notifications.
    pub invalidations: u64,
    /// Entries evicted by the LRU policy (capacity-bounded stores only).
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The shared ("common") transient store of committed bean images.
///
/// One per cache-enhanced application server. Per §2.3 of the paper it is
/// maintained *alongside* the per-transaction store: "when a direct-access
/// operation results in a cache miss on the per-transaction store, the
/// common store is checked for a copy of the EJB data before an attempt is
/// made to access the persistent EJB". Because each edge keeps its own
/// common store, the conflict window widens — which is exactly what the
/// optimistic validator exists to catch.
///
/// The image maps (one per bean type, so a lookup borrows its key), their
/// recency index and the resident-byte total live behind one lock and
/// change together, so eviction is exact LRU: the victim is always the
/// least-recently-used image in the whole store.
///
/// ```
/// use sli_core::CommonStore;
/// use sli_component::Memento;
/// use sli_datastore::Value;
///
/// let store = CommonStore::new();
/// store.put(Memento::new("Quote", Value::from("s:1")).with_field("price", 11.0));
/// assert!(store.get("Quote", &Value::from("s:1")).is_some()); // hit
/// assert!(store.get("Quote", &Value::from("s:2")).is_none()); // miss
/// assert_eq!(store.stats().hits, 1);
/// assert_eq!(store.stats().misses, 1);
/// ```
#[derive(Debug, Default)]
pub struct CommonStore {
    capacity: Option<usize>,
    lru: Mutex<Lru>,
    hits: Counter,
    misses: Counter,
    invalidations: Counter,
    evictions: Counter,
    /// Working-set size: number of cached images, set under the lock on
    /// every mutation so timelines can watch the cache fill.
    size: Gauge,
    /// Working-set size in wire-encoded bytes (`Memento::encoded_len`).
    resident_bytes: Gauge,
}

/// Image maps plus LRU bookkeeping. Every image carries the tick of its last
/// use and `recency` holds exactly one entry per image under that tick, so
/// the first entry of `recency` is the eviction victim.
#[derive(Debug, Default)]
struct Lru {
    /// Bean name → key → (image, tick of last use).
    images: FxHashMap<Arc<str>, FxHashMap<Value, (Memento, u64)>>,
    recency: BTreeMap<u64, (Arc<str>, Value)>,
    tick: u64,
    /// Summed `encoded_len` of `images`.
    resident: u64,
}

impl Lru {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn remove(&mut self, bean: &str, key: &Value) -> Option<Memento> {
        let (image, tick) = self.images.get_mut(bean)?.remove(key)?;
        self.recency.remove(&tick);
        self.resident -= image.encoded_len() as u64;
        Some(image)
    }

    fn pop_lru(&mut self) {
        let (_, (bean, key)) = self
            .recency
            .pop_first()
            .expect("an over-capacity store has a recency entry");
        let (image, _) = self
            .images
            .get_mut(&*bean)
            .and_then(|of_bean| of_bean.remove(&key))
            .expect("recency tracks only resident images");
        self.resident -= image.encoded_len() as u64;
    }
}

impl CommonStore {
    /// Creates an unbounded store (the paper's configuration).
    pub fn new() -> Arc<CommonStore> {
        Arc::new(CommonStore::default())
    }

    /// Creates a store that holds at most `capacity` images (at least one),
    /// evicting the least-recently-used on overflow. The paper's prototype
    /// keeps the common store unbounded; this bound models a constrained
    /// edge server (the `rbes_evict` workload of `benchmark/` measures its
    /// eviction path, and this module's tests pin exact LRU order).
    pub fn with_capacity(capacity: usize) -> Arc<CommonStore> {
        Arc::new(CommonStore {
            capacity: Some(capacity.max(1)),
            ..CommonStore::default()
        })
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Total wire-encoded bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.lru.lock().resident
    }

    fn sync_gauges(&self, lru: &Lru) {
        self.size.set(lru.recency.len() as u64);
        self.resident_bytes.set(lru.resident);
    }

    /// Looks up the cached image for (`bean`, `key`), counting hit or miss
    /// and refreshing the entry's recency. A hit hands out another handle
    /// on the stored image and moves its recency slot; it copies nothing.
    pub fn get(&self, bean: &str, key: &Value) -> Option<Memento> {
        let mut lru = self.lru.lock();
        let tick = lru.next_tick();
        let Lru {
            images, recency, ..
        } = &mut *lru;
        let Some((image, last_used)) = images.get_mut(bean).and_then(|of| of.get_mut(key)) else {
            self.misses.inc();
            return None;
        };
        let slot = recency
            .remove(last_used)
            .expect("every resident image has a recency slot");
        *last_used = tick;
        recency.insert(tick, slot);
        self.hits.inc();
        Some(image.clone())
    }

    /// Installs or refreshes a committed image, evicting least-recently-used
    /// images while the store is over its capacity.
    pub fn put(&self, image: Memento) {
        let key = image.primary_key().clone();
        let mut lru = self.lru.lock();
        lru.remove(image.bean(), &key);
        let tick = lru.next_tick();
        lru.resident += image.encoded_len() as u64;
        let bean = match lru.images.get_key_value(image.bean()) {
            Some((bean, _)) => Arc::clone(bean),
            None => Arc::from(image.bean()),
        };
        lru.recency.insert(tick, (Arc::clone(&bean), key.clone()));
        lru.images
            .entry(bean)
            .or_default()
            .insert(key, (image, tick));
        if let Some(capacity) = self.capacity {
            while lru.recency.len() > capacity {
                lru.pop_lru();
                self.evictions.inc();
            }
        }
        self.sync_gauges(&lru);
    }

    /// Drops the image for (`bean`, `key`), if present.
    pub fn invalidate(&self, bean: &str, key: &Value) {
        let mut lru = self.lru.lock();
        if lru.remove(bean, key).is_some() {
            self.invalidations.inc();
            self.sync_gauges(&lru);
        }
    }

    /// Drops every cached image (e.g. between benchmark runs).
    pub fn clear(&self) {
        let mut lru = self.lru.lock();
        lru.images.clear();
        lru.recency.clear();
        lru.resident = 0;
        self.sync_gauges(&lru);
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.lru.lock().recency.len()
    }

    /// Whether the store holds no images.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            invalidations: self.invalidations.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Zeroes the counters (the images stay).
    pub fn reset_stats(&self) {
        self.hits.reset();
        self.misses.reset();
        self.invalidations.reset();
        self.evictions.reset();
    }

    /// Attaches this store's counters to `registry` under
    /// `{prefix}.hits`, `.misses`, `.invalidations`, `.evictions` and the
    /// `.size` / `.resident_bytes` working-set gauges (e.g.
    /// `store.edge-0.hits`). The store keeps using the same shared handles,
    /// so registration costs nothing on the hot path.
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.hits"), &self.hits);
        registry.attach_counter(format!("{prefix}.misses"), &self.misses);
        registry.attach_counter(format!("{prefix}.invalidations"), &self.invalidations);
        registry.attach_counter(format!("{prefix}.evictions"), &self.evictions);
        registry.attach_gauge(format!("{prefix}.size"), &self.size);
        registry.attach_gauge(format!("{prefix}.resident_bytes"), &self.resident_bytes);
    }
}

/// Writes an invalidation notification onto `w`: the (bean, key) pairs a
/// peer's commit made stale, under their count.
pub(crate) fn encode_invalidations<'a>(
    w: &mut Writer,
    keys: impl Iterator<Item = (&'a str, &'a Value)>,
) {
    let at = w.put_u32_later();
    let mut count = 0u32;
    for (bean, key) in keys {
        w.put_str(bean);
        key.encode(w);
        count += 1;
    }
    w.patch_u32(at, count);
}

/// The edge-side endpoint for invalidation notifications.
///
/// The back-end sends one message per peer commit listing the updated
/// beans; the sink drops them from the local common store so the next
/// access re-faults fresh state.
#[derive(Debug)]
pub struct InvalidationSink {
    store: Arc<CommonStore>,
}

impl InvalidationSink {
    /// Creates a sink that invalidates `store`.
    pub fn new(store: Arc<CommonStore>) -> InvalidationSink {
        InvalidationSink { store }
    }
}

impl Service for InvalidationSink {
    fn handle(&self, request: Bytes) -> Bytes {
        apply_invalidation_frame(&self.store, request);
        Bytes::new()
    }
}

/// An invalidation endpoint that models **propagation delay**: messages are
/// queued with a delivery deadline (now + the channel's one-way latency)
/// and only applied once simulated time passes it.
///
/// [`InvalidationSink`] applies notifications the instant the back-end
/// sends them — an idealization under which an edge cache can never be
/// observed stale. With this sink, a peer's commit leaves a real staleness
/// window of one network crossing, during which transactions can read
/// soon-to-be-invalid images and must be caught by commit-time validation.
/// The `contention` bench binary measures exactly that window.
pub struct DeferredInvalidationSink {
    store: Arc<CommonStore>,
    /// The channel the notifications cross: a message is due one
    /// [`one_way_cost`](sli_simnet::Path::one_way_cost) after it was sent.
    path: Arc<sli_simnet::Path>,
    pending: parking_lot::Mutex<Vec<(sli_simnet::SimTime, Bytes)>>,
    queued: Counter,
    delivered: Counter,
    queue_depth: Gauge,
}

impl std::fmt::Debug for DeferredInvalidationSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredInvalidationSink")
            .field("pending", &self.pending.lock().len())
            .finish_non_exhaustive()
    }
}

impl DeferredInvalidationSink {
    /// Creates a sink whose notifications take one crossing of `path` to
    /// arrive — including whatever proxy delay the path currently injects,
    /// so a delay sweep automatically stretches the staleness window too.
    pub fn over_path(
        store: Arc<CommonStore>,
        path: Arc<sli_simnet::Path>,
    ) -> Arc<DeferredInvalidationSink> {
        Arc::new(DeferredInvalidationSink {
            store,
            path,
            pending: parking_lot::Mutex::new(Vec::new()),
            queued: Counter::new(),
            delivered: Counter::new(),
            queue_depth: Gauge::new(),
        })
    }

    /// The single gateway to the pending queue: runs `f` under the lock and
    /// re-syncs the `queue_depth` gauge before releasing it, so *every*
    /// mutation — enqueue, drain, future compaction — reports the standing
    /// depth and timelines can never under-read it between drains.
    fn with_pending<T>(&self, f: impl FnOnce(&mut Vec<(sli_simnet::SimTime, Bytes)>) -> T) -> T {
        let mut pending = self.pending.lock();
        let out = f(&mut pending);
        self.queue_depth.set(pending.len() as u64);
        out
    }

    /// Applies every queued notification whose delivery deadline has
    /// passed. The edge server calls this when it starts processing a
    /// request — the point at which an in-flight message would have been
    /// picked off the wire.
    pub fn deliver_due(&self) {
        let now = self.path.clock().now();
        let due: Vec<Bytes> = self.with_pending(|pending| {
            let mut due = Vec::new();
            pending.retain(|(deadline, frame)| {
                if *deadline <= now {
                    due.push(frame.clone());
                    false
                } else {
                    true
                }
            });
            due
        });
        self.delivered.add(due.len() as u64);
        for frame in due {
            apply_invalidation_frame(&self.store, frame);
        }
    }

    /// Notifications queued but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.pending.lock().len()
    }

    /// The instant by which every queued notification will have arrived
    /// (`None` when nothing is in flight) — what a driver that schedules
    /// deliveries itself advances the clock to before
    /// [`deliver_due`](DeferredInvalidationSink::deliver_due).
    pub fn last_arrival(&self) -> Option<sli_simnet::SimTime> {
        self.pending.lock().iter().map(|(due, _)| *due).max()
    }

    /// Attaches the sink's queue metrics to `registry` under
    /// `{prefix}.queued`, `.delivered` and `.queue_depth` (e.g.
    /// `invalidations.edge-0.queue_depth`).
    pub fn register_with(&self, registry: &Registry, prefix: &str) {
        registry.attach_counter(format!("{prefix}.queued"), &self.queued);
        registry.attach_counter(format!("{prefix}.delivered"), &self.delivered);
        registry.attach_gauge(format!("{prefix}.queue_depth"), &self.queue_depth);
    }
}

impl Service for DeferredInvalidationSink {
    fn handle(&self, request: Bytes) -> Bytes {
        let deadline = self.path.clock().now() + self.path.one_way_cost(request.len());
        self.with_pending(|pending| pending.push((deadline, request)));
        self.queued.inc();
        Bytes::new()
    }
}

fn apply_invalidation_frame(store: &CommonStore, request: Bytes) {
    let Ok((_, payload)) = sli_simnet::wire::unframe(request) else {
        return;
    };
    let mut r = Reader::new(payload);
    if let Ok(n) = r.get_u32() {
        for _ in 0..n {
            match (r.get_str_view(), Value::decode(&mut r)) {
                (Ok(bean), Ok(key)) => store.invalidate(&bean, &key),
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(key: &str, balance: f64) -> Memento {
        Memento::new("Account", Value::from(key)).with_field("balance", balance)
    }

    /// The framed notification a back-end sends for `keys`.
    fn invalidation(keys: &[(&str, Value)]) -> Bytes {
        let mut w = Writer::framed();
        encode_invalidations(&mut w, keys.iter().map(|(bean, key)| (*bean, key)));
        w.finish_frame(sli_simnet::wire::protocol::BACKEND, 0, 0)
    }

    #[test]
    fn put_get_invalidate() {
        let store = CommonStore::new();
        assert!(store.get("Account", &Value::from("a")).is_none());
        store.put(image("a", 10.0));
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get("Account", &Value::from("a")).unwrap(),
            image("a", 10.0)
        );
        store.invalidate("Account", &Value::from("a"));
        assert!(store.get("Account", &Value::from("a")).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn stats_count_hits_misses_invalidations() {
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        store.get("Account", &Value::from("a"));
        store.get("Account", &Value::from("b"));
        store.invalidate("Account", &Value::from("a"));
        store.invalidate("Account", &Value::from("a")); // absent → not counted
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.invalidations, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
        store.reset_stats();
        assert_eq!(store.stats(), CacheStats::default());
    }

    #[test]
    fn hit_ratio_empty_is_zero() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn hit_ratio_property_over_seeded_counts() {
        // Property: for any (hits, misses), the ratio is hits/(hits+misses)
        // in [0, 1] and exactly 0.0 at zero total (no NaN from 0/0).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let hits = x % 1_000;
            let misses = (x >> 32) % 1_000;
            let stats = CacheStats {
                hits,
                misses,
                ..CacheStats::default()
            };
            let r = stats.hit_ratio();
            assert!((0.0..=1.0).contains(&r), "ratio {r} out of range");
            if hits + misses == 0 {
                assert_eq!(r, 0.0);
            } else {
                assert!((r - hits as f64 / (hits + misses) as f64).abs() < 1e-12);
            }
        }
        let zero = CacheStats {
            hits: 0,
            misses: 0,
            invalidations: 7,
            evictions: 3,
        };
        assert_eq!(zero.hit_ratio(), 0.0, "only lookups drive the ratio");
    }

    #[test]
    fn size_gauge_tracks_working_set() {
        use sli_telemetry::Registry;
        let store = CommonStore::with_capacity(2);
        let registry = Registry::new();
        store.register_with(&registry, "store.t");
        let read = |reg: &Registry| match reg.get("store.t.size").expect("registered") {
            sli_telemetry::Metric::Gauge(g) => g.get(),
            other => panic!("expected gauge, got {other:?}"),
        };
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        assert_eq!(read(&registry), 2);
        store.put(image("c", 3.0)); // evicts the LRU entry
        assert_eq!(read(&registry), 2);
        store.invalidate("Account", &Value::from("c"));
        assert_eq!(read(&registry), 1);
        registry.reset_all();
        assert_eq!(read(&registry), 1, "a level survives the blanket reset");
        store.clear();
        assert_eq!(read(&registry), 0);
    }

    #[test]
    fn resident_bytes_gauge_tracks_encoded_working_set() {
        use sli_telemetry::Registry;
        let store = CommonStore::new();
        let registry = Registry::new();
        store.register_with(&registry, "store.t");
        let read = |reg: &Registry| match reg.get("store.t.resident_bytes").expect("registered") {
            sli_telemetry::Metric::Gauge(g) => g.get(),
            other => panic!("expected gauge, got {other:?}"),
        };
        let a = image("a", 1.0);
        let b = image("bb", 2.0);
        let expected = (a.encoded_len() + b.encoded_len()) as u64;
        store.put(a.clone());
        store.put(b);
        assert_eq!(read(&registry), expected);
        assert_eq!(store.resident_bytes(), expected);
        // Refreshing an entry replaces its bytes instead of double-counting.
        store.put(a.clone());
        assert_eq!(read(&registry), expected);
        store.invalidate("Account", &Value::from("a"));
        assert_eq!(read(&registry), expected - a.encoded_len() as u64);
        registry.reset_all();
        assert_eq!(read(&registry), expected - a.encoded_len() as u64);
        store.clear();
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(read(&registry), 0);
    }

    #[test]
    fn put_overwrites() {
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        store.put(image("a", 2.0));
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get("Account", &Value::from("a")).unwrap(),
            image("a", 2.0)
        );
    }

    #[test]
    fn invalidation_sink_applies_notifications() {
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        let sink = InvalidationSink::new(Arc::clone(&store));
        let frame = invalidation(&[
            ("Account", Value::from("a")),
            ("Account", Value::from("missing")),
        ]);
        sink.handle(frame);
        assert!(store.get("Account", &Value::from("a")).is_none());
        assert!(store.get("Account", &Value::from("b")).is_some());
    }

    #[test]
    fn clear_drops_images_but_not_counters() {
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        store.get("Account", &Value::from("a"));
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn bounded_store_evicts_least_recently_used() {
        let store = CommonStore::with_capacity(3);
        assert_eq!(store.capacity(), Some(3));
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        store.put(image("c", 3.0));
        // touch "a" so "b" becomes the LRU victim
        store.get("Account", &Value::from("a"));
        store.put(image("d", 4.0));
        assert_eq!(store.len(), 3);
        assert!(
            store.get("Account", &Value::from("b")).is_none(),
            "b evicted"
        );
        assert!(store.get("Account", &Value::from("a")).is_some());
        assert!(store.get("Account", &Value::from("d")).is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn refreshing_an_entry_does_not_evict() {
        let store = CommonStore::with_capacity(2);
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        store.put(image("a", 3.0)); // refresh, not growth
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
        assert_eq!(
            store.get("Account", &Value::from("a")).unwrap(),
            image("a", 3.0)
        );
    }

    #[test]
    fn capacity_one_keeps_only_newest() {
        let store = CommonStore::with_capacity(1);
        for i in 0..5 {
            store.put(image(&format!("k{i}"), i as f64));
        }
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().evictions, 4);
        assert!(store.get("Account", &Value::from("k4")).is_some());
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let store = CommonStore::new();
        assert_eq!(store.capacity(), None);
        for i in 0..1_000 {
            store.put(image(&format!("k{i}"), i as f64));
        }
        assert_eq!(store.len(), 1_000);
        assert_eq!(store.stats().evictions, 0);
    }

    /// A sink on a channel whose one-way cost is exactly `latency`.
    fn sink_after(
        store: &Arc<CommonStore>,
        clock: &Arc<sli_simnet::Clock>,
        latency: sli_simnet::SimDuration,
    ) -> Arc<DeferredInvalidationSink> {
        let spec = sli_simnet::PathSpec {
            base_latency: latency,
            bandwidth_bytes_per_sec: u64::MAX,
        };
        let path = sli_simnet::Path::new("inv", Arc::clone(clock), spec);
        DeferredInvalidationSink::over_path(Arc::clone(store), path)
    }

    #[test]
    fn deferred_sink_applies_only_after_latency() {
        use sli_simnet::{Clock, SimDuration};
        let store = CommonStore::new();
        store.put(image("a", 1.0));
        let clock = Arc::new(Clock::new());
        let sink = sink_after(&store, &clock, SimDuration::from_millis(40));
        let frame = invalidation(&[("Account", Value::from("a"))]);
        sink.handle(frame);
        assert_eq!(sink.in_flight(), 1);
        // before the crossing completes, the stale image is still served
        sink.deliver_due();
        assert!(store.get("Account", &Value::from("a")).is_some());
        // after 40 ms of simulated time, delivery happens
        clock.delay(SimDuration::from_millis(40));
        sink.deliver_due();
        assert_eq!(sink.in_flight(), 0);
        assert!(store.get("Account", &Value::from("a")).is_none());
    }

    #[test]
    fn queue_depth_gauge_tracks_every_mutation() {
        use sli_simnet::{Clock, SimDuration};
        use sli_telemetry::Registry;
        let store = CommonStore::new();
        let clock = Arc::new(Clock::new());
        let sink = sink_after(&store, &clock, SimDuration::from_millis(10));
        let registry = Registry::new();
        sink.register_with(&registry, "inv.t");
        let depth = |reg: &Registry| match reg.get("inv.t.queue_depth").expect("registered") {
            sli_telemetry::Metric::Gauge(g) => g.get(),
            other => panic!("expected gauge, got {other:?}"),
        };
        let frame = |key: &str| invalidation(&[("Account", Value::from(key))]);
        // Enqueue must raise the gauge immediately, not only on drain.
        sink.handle(frame("a"));
        assert_eq!(depth(&registry), 1);
        clock.delay(SimDuration::from_millis(10));
        sink.handle(frame("b")); // due 10ms later than "a"
        assert_eq!(depth(&registry), 2);
        assert_eq!(sink.last_arrival().map(|t| t.as_micros()), Some(20_000));
        // Partial drain: only "a" is due, so the gauge drops to 1.
        sink.deliver_due();
        assert_eq!(depth(&registry), 1);
        assert_eq!(sink.in_flight(), 1);
        clock.delay(SimDuration::from_millis(10));
        sink.deliver_due();
        assert_eq!(depth(&registry), 0);
        assert_eq!(sink.in_flight(), 0);
    }

    #[test]
    fn invalidation_keeps_lru_bookkeeping_consistent() {
        let store = CommonStore::with_capacity(2);
        store.put(image("a", 1.0));
        store.put(image("b", 2.0));
        store.invalidate("Account", &Value::from("a"));
        store.put(image("c", 3.0));
        // a was invalidated, so b and c fit without eviction
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn seeded_scheduler_interleavings_preserve_store_invariants() {
        use sli_simnet::Scheduler;
        // Three logical clients race put/get/invalidate programs over an
        // overlapping key set under a seeded scheduler. Whatever order the
        // scheduler picks, the store's bookkeeping must stay conserved:
        // entry count, resident bytes and the LRU index all agree.
        for seed in [3u64, 11, 42, 1999] {
            let store = CommonStore::with_capacity(4);
            let mut sched = Scheduler::random(seed);
            // Each client's program, as (step index → op) closures.
            let keys = ["a", "b", "c", "d", "e", "f"];
            let mut cursors = [0usize; 3];
            let steps_per_client = 12usize;
            let mut live = 3u32;
            while live > 0 {
                let pick = sched.pick(live) as usize;
                // Map pick onto the pick-th still-live client.
                let client = cursors
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c < steps_per_client)
                    .map(|(i, _)| i)
                    .nth(pick)
                    .expect("pick is within live clients");
                let step = cursors[client];
                cursors[client] += 1;
                let key = keys[(client * 7 + step) % keys.len()];
                match step % 3 {
                    0 => store.put(image(key, step as f64)),
                    1 => {
                        store.get("Account", &Value::from(key));
                    }
                    _ => store.invalidate("Account", &Value::from(key)),
                }
                live = cursors.iter().filter(|c| **c < steps_per_client).count() as u32;
            }
            // Conservation: every put either survives, was invalidated, was
            // evicted, or was an in-place refresh.
            let s = store.stats();
            assert!(store.len() <= 4, "seed {seed}: capacity respected");
            let resident: u64 = keys
                .iter()
                .filter_map(|k| store.get("Account", &Value::from(*k)))
                .map(|m| m.encoded_len() as u64)
                .sum();
            assert_eq!(
                store.resident_bytes(),
                resident,
                "seed {seed}: resident bytes re-derivable from surviving images"
            );
            assert!(
                s.evictions + s.invalidations + store.len() as u64 > 0,
                "seed {seed}: the programs did something"
            );
        }
    }
}
