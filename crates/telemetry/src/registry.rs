//! A named catalogue of metric handles.
//!
//! The registry does not own exclusive state: it stores *clones* of the
//! same shared handles the components keep in their hot fields. Components
//! create their metrics first (so their fast paths never take the registry
//! lock), then a coordinator — the `Testbed` — attaches them under stable,
//! dotted names. There is deliberately no process-global registry: tests
//! build many same-named paths side by side.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A registered metric handle of any kind.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A monotone counter.
    Counter(Counter),
    /// An up/down gauge.
    Gauge(Gauge),
    /// A sample distribution.
    Histogram(Histogram),
}

/// A point-in-time reading of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// A named catalogue of shared metric handles (see module docs).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers an existing counter handle under `name`, replacing any
    /// previous metric with that name.
    pub fn attach_counter(&self, name: impl Into<String>, c: &Counter) {
        self.attach(name.into(), Metric::Counter(c.clone()));
    }

    /// Registers an existing gauge handle under `name`.
    pub fn attach_gauge(&self, name: impl Into<String>, g: &Gauge) {
        self.attach(name.into(), Metric::Gauge(g.clone()));
    }

    /// Registers an existing histogram handle under `name`.
    pub fn attach_histogram(&self, name: impl Into<String>, h: &Histogram) {
        self.attach(name.into(), Metric::Histogram(h.clone()));
    }

    fn attach(&self, name: String, metric: Metric) {
        self.metrics
            .lock()
            .expect("registry lock")
            .insert(name, metric);
    }

    /// Returns (or creates) a counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns (or creates) a histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Looks up a metric handle by name.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics
            .lock()
            .expect("registry lock")
            .get(name)
            .cloned()
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .lock()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Reads every metric at once, in name order.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        self.metrics
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// Resets every registered counter and histogram to empty (between
    /// measurement phases). Gauges are left alone: a gauge is a level whose
    /// owner keeps it equal to live state (cached images, open sessions,
    /// queued messages) that survives the phase boundary, so zeroing it
    /// would make it lie until the owner's next update.
    pub fn reset_all(&self) {
        for m in self.metrics.lock().expect("registry lock").values() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(_) => {}
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_shares_the_component_handle() {
        let registry = Registry::new();
        let hits = Counter::new();
        registry.attach_counter("store.hits", &hits);
        hits.add(3);
        assert_eq!(registry.snapshot()["store.hits"], MetricValue::Counter(3));
        // and the other way round
        match registry.get("store.hits").unwrap() {
            Metric::Counter(c) => c.inc(),
            other => panic!("wrong kind {other:?}"),
        }
        assert_eq!(hits.get(), 4);
    }

    #[test]
    fn get_or_create_returns_the_same_counter() {
        let registry = Registry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(registry.names(), vec!["x".to_owned()]);
    }

    #[test]
    fn reset_all_clears_rates_and_keeps_levels() {
        let registry = Registry::new();
        registry.counter("c").add(9);
        registry.histogram("h").record(5);
        let level = Gauge::new();
        level.set(3);
        registry.attach_gauge("g", &level);
        registry.reset_all();
        assert_eq!(registry.snapshot()["c"], MetricValue::Counter(0));
        assert_eq!(registry.snapshot()["g"], MetricValue::Gauge(3));
        match registry.snapshot()["h"] {
            MetricValue::Histogram(s) => assert_eq!(s.count, 0),
            ref other => panic!("wrong kind {other:?}"),
        }
    }
}
