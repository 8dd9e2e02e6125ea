//! RPC shim: invoking a service across a [`Path`] with honest byte
//! accounting, deterministic timeouts, and retry under injected faults.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use sli_telemetry::{SpanDetail, SpanOutcome, Tracer};

use crate::clock::SimDuration;
use crate::fault::Fault;
use crate::path::Path;

/// A node that can handle an encoded request and produce an encoded
/// response.
///
/// Implementations decode the request with [`wire::Reader`](crate::wire::Reader),
/// do their work (possibly making further remote calls over their own LAN
/// paths, advancing the shared clock), and encode a response. The transport
/// never interprets the payload.
pub trait Service {
    /// Handles one request, returning the encoded response.
    fn handle(&self, request: Bytes) -> Bytes;
}

impl<S: Service + ?Sized> Service for Arc<S> {
    fn handle(&self, request: Bytes) -> Bytes {
        (**self).handle(request)
    }
}

/// Timeout/retry policy for [`Remote::call`].
///
/// All waiting is charged to the simulated [`Clock`](crate::Clock), so a
/// given fault schedule produces byte-for-byte identical timings on every
/// run. The backoff doubles after each failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total delivery attempts (first try included). Must be at least 1.
    pub max_attempts: u32,
    /// How long the caller waits for a response before declaring the
    /// attempt lost.
    pub timeout: SimDuration,
    /// Pause before the second attempt; doubles after every further
    /// failure.
    pub backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            timeout: SimDuration::from_millis(1_000),
            backoff: SimDuration::from_millis(100),
        }
    }
}

/// Why a [`Remote::call`] gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// Every attempt waited out its timeout without a response (request or
    /// response lost in transit).
    TimedOut {
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// The remote end refused service on the final attempt (transient
    /// unavailability that outlasted the retry budget).
    Unavailable {
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
}

impl CallError {
    /// Delivery attempts made before giving up.
    pub fn attempts(&self) -> u32 {
        match *self {
            CallError::TimedOut { attempts } | CallError::Unavailable { attempts } => attempts,
        }
    }
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::TimedOut { attempts } => {
                write!(f, "remote call timed out after {attempts} attempt(s)")
            }
            CallError::Unavailable { attempts } => {
                write!(f, "remote service unavailable after {attempts} attempt(s)")
            }
        }
    }
}

impl std::error::Error for CallError {}

/// A remote handle: a [`Service`] reached across a [`Path`].
///
/// A `Remote::call` charges the request crossing, runs the service inline
/// (its own processing costs and nested calls advance the same clock), then
/// charges the response crossing. In the paper's low-load configuration —
/// one virtual client, no queueing — this synchronous cost model reproduces
/// measured latency exactly.
///
/// When the path's fault plan injects a failure, `call` waits out the
/// policy's timeout on the simulated clock, backs off, and resends the
/// *identical* request bytes. Callers whose requests are not idempotent must
/// use [`call_once`](Remote::call_once) and handle the failure themselves.
#[derive(Debug, Clone)]
pub struct Remote<S> {
    path: Arc<Path>,
    service: S,
    policy: RetryPolicy,
    tracer: Option<Arc<Tracer>>,
}

impl<S: Service> Remote<S> {
    /// Creates a handle to `service` reached via `path`, with the default
    /// retry policy.
    pub fn new(path: Arc<Path>, service: S) -> Remote<S> {
        Remote {
            path,
            service,
            policy: RetryPolicy::default(),
            tracer: None,
        }
    }

    /// Attaches a tracer: every call then records an `rpc.call` span, one
    /// `rpc.attempt` span per delivery attempt (all attempts of one call
    /// share its trace id), and `net.request`/`net.respond` spans carrying
    /// the path-crossing cost.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Remote<S> {
        self.tracer = Some(tracer);
        self
    }

    /// Replaces the timeout/retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Remote<S> {
        assert!(
            policy.max_attempts >= 1,
            "policy needs at least one attempt"
        );
        self.policy = policy;
        self
    }

    /// The active timeout/retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// The path this handle sends traffic over.
    pub fn path(&self) -> &Arc<Path> {
        &self.path
    }

    /// The attached tracer, if any — callers use it to stamp outgoing
    /// frames with the current trace id.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The trace id outgoing frames should carry right now (0 when
    /// untraced).
    pub fn current_trace_id(&self) -> u64 {
        self.tracer
            .as_ref()
            .and_then(|t| t.current())
            .map_or(0, |ctx| ctx.trace_id)
    }

    /// A reference to the underlying (simulated-remote) service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Performs a synchronous round trip: request over the path, inline
    /// service execution, response back over the path.
    ///
    /// Injected faults are retried up to the policy's attempt budget with
    /// doubling backoff; every resend carries the identical request bytes,
    /// so services deduplicate replays by request identity (see the commit
    /// protocol in `sli-core`). Fails only once the budget is exhausted.
    pub fn call(&self, request: Bytes) -> Result<Bytes, CallError> {
        let metrics = self.path.metrics();
        metrics.rpc_calls.inc();
        let call_span = self
            .tracer
            .as_ref()
            .map(|t| (t.begin("rpc.call"), self.now_us()));
        let mut backoff = self.policy.backoff;
        let mut last = CallError::TimedOut { attempts: 0 };
        let mut response = None;
        for attempt in 1..=self.policy.max_attempts {
            if attempt > 1 {
                metrics.rpc_retries.inc();
            }
            match self.traced_attempt(&request, attempt) {
                Ok(bytes) => {
                    response = Some(bytes);
                    break;
                }
                Err(error) => {
                    error.count(metrics);
                    last = error.with_attempts(attempt);
                }
            }
            if attempt < self.policy.max_attempts {
                self.path.clock().delay(backoff);
                metrics.rpc_backoff_us.add(backoff.as_micros());
                backoff = backoff + backoff;
            }
        }
        if let (Some(tracer), Some((span, start_us))) = (&self.tracer, call_span) {
            let outcome = if response.is_some() {
                SpanOutcome::Committed
            } else {
                SpanOutcome::Error
            };
            tracer.finish(span, 0, 0, start_us, self.now_us(), outcome);
        }
        response.ok_or(last)
    }

    /// Performs exactly one delivery attempt — no retry, no backoff.
    ///
    /// This is the escape hatch for non-idempotent payloads (e.g. individual
    /// JDBC statements inside an open transaction): on failure the caller
    /// must decide how to recover, typically by aborting the enclosing
    /// transaction.
    pub fn call_once(&self, request: Bytes) -> Result<Bytes, CallError> {
        let metrics = self.path.metrics();
        metrics.rpc_calls.inc();
        let call_span = self
            .tracer
            .as_ref()
            .map(|t| (t.begin("rpc.call"), self.now_us()));
        let result = self.traced_attempt(&request, 1);
        if let (Some(tracer), Some((span, start_us))) = (&self.tracer, call_span) {
            let outcome = if result.is_ok() {
                SpanOutcome::Committed
            } else {
                SpanOutcome::Error
            };
            tracer.finish(span, 0, 0, start_us, self.now_us(), outcome);
        }
        result.map_err(|e| {
            e.count(metrics);
            e.with_attempts(1)
        })
    }

    fn now_us(&self) -> u64 {
        self.path.clock().now().as_micros()
    }

    /// Runs `work` under a span when a tracer is attached.
    fn spanned<T>(&self, op: &'static str, work: impl FnOnce() -> T) -> T {
        match &self.tracer {
            None => work(),
            Some(tracer) => {
                let span = tracer.begin(op);
                let start_us = self.now_us();
                let out = work();
                tracer.finish(span, 0, 0, start_us, self.now_us(), SpanOutcome::Committed);
                out
            }
        }
    }

    /// One delivery attempt wrapped in an `rpc.attempt` span. Every
    /// attempt of a retried call shares the call's trace id; each gets its
    /// own span, numbered in its [`SpanDetail::Attempt`].
    fn traced_attempt(&self, request: &Bytes, number: u32) -> Result<Bytes, AttemptError> {
        match &self.tracer {
            None => self.attempt(request),
            Some(tracer) => {
                let span = tracer.begin("rpc.attempt");
                let start_us = self.now_us();
                let result = self.attempt(request);
                let outcome = if result.is_ok() {
                    SpanOutcome::Committed
                } else {
                    SpanOutcome::Error
                };
                tracer.finish_with(
                    span,
                    0,
                    0,
                    start_us,
                    self.now_us(),
                    outcome,
                    Some(SpanDetail::Attempt { number }),
                );
                result
            }
        }
    }

    /// One delivery attempt under the path's fault schedule.
    fn attempt(&self, request: &Bytes) -> Result<Bytes, AttemptError> {
        let clock = self.path.clock();
        match self.path.next_fault() {
            None => {
                self.spanned("net.request", || self.path.request(request.len()));
                let response = self.service.handle(request.clone());
                self.spanned("net.respond", || self.path.respond(response.len()));
                Ok(response)
            }
            Some(Fault::Duplicate) => {
                // Both copies cross the path; the service runs twice on
                // identical bytes and one response makes it back.
                self.spanned("net.request", || self.path.request(request.len()));
                let _ = self.service.handle(request.clone());
                self.path.request_async(request.len());
                let response = self.service.handle(request.clone());
                self.spanned("net.respond", || self.path.respond(response.len()));
                Ok(response)
            }
            Some(Fault::DropRequest) => {
                // The bytes leave the caller but never arrive; the service
                // does not run and the caller waits out its timeout.
                self.path.request_async(request.len());
                clock.delay(self.policy.timeout);
                Err(AttemptError::TimedOut)
            }
            Some(Fault::DropResponse) => {
                // The request arrives and the service runs — side effects
                // happen — but the response is lost, so the caller still
                // waits out its timeout (measured from the send).
                let start = clock.now();
                self.spanned("net.request", || self.path.request(request.len()));
                let _ = self.service.handle(request.clone());
                clock.delay_until(start + self.policy.timeout);
                Err(AttemptError::TimedOut)
            }
            Some(Fault::Unavailable) => {
                // Fast refusal: the remote end answers immediately with
                // "go away" instead of doing the work.
                self.spanned("net.request", || self.path.request(request.len()));
                self.spanned("net.respond", || self.path.respond(1));
                Err(AttemptError::Unavailable)
            }
        }
    }

    /// Sends a one-way notification that is *not* charged to the caller's
    /// clock (asynchronous fan-out such as cache invalidation). The service
    /// still runs and the bytes are still metered.
    ///
    /// Notifications are fire-and-forget, so injected faults make them
    /// genuinely lossy: a dropped or refused delivery means the service
    /// never runs and nobody notices. (A dropped *response* is irrelevant —
    /// there is no response — and a duplicate runs the service twice.)
    pub fn notify(&self, request: Bytes) {
        match self.path.next_fault() {
            None | Some(Fault::DropResponse) => {
                self.path.request_async(request.len());
                let _ = self.service.handle(request);
            }
            Some(Fault::Duplicate) => {
                self.path.request_async(request.len());
                let _ = self.service.handle(request.clone());
                self.path.request_async(request.len());
                let _ = self.service.handle(request);
            }
            Some(Fault::DropRequest) | Some(Fault::Unavailable) => {
                self.path.request_async(request.len());
            }
        }
    }
}

/// Per-attempt failure, before the attempt count is known.
#[derive(Debug, Clone, Copy)]
enum AttemptError {
    TimedOut,
    Unavailable,
}

impl AttemptError {
    fn with_attempts(self, attempts: u32) -> CallError {
        match self {
            AttemptError::TimedOut => CallError::TimedOut { attempts },
            AttemptError::Unavailable => CallError::Unavailable { attempts },
        }
    }

    /// Records this failed attempt in the path's RPC outcome counters.
    fn count(self, metrics: &crate::path::PathMetrics) {
        match self {
            AttemptError::TimedOut => metrics.rpc_timeouts.inc(),
            AttemptError::Unavailable => metrics.rpc_unavailable.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, SimDuration};
    use crate::fault::FaultPlan;
    use crate::path::PathSpec;
    use bytes::Bytes;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Echo;

    impl Service for Echo {
        fn handle(&self, request: Bytes) -> Bytes {
            request
        }
    }

    /// A service that itself advances the clock, modelling server-side work.
    struct Worker(Arc<Clock>);

    impl Service for Worker {
        fn handle(&self, _request: Bytes) -> Bytes {
            self.0.delay(SimDuration::from_millis(2));
            Bytes::from_static(b"done!")
        }
    }

    /// Counts invocations, for duplicate/retry accounting.
    #[derive(Default)]
    struct Counter(AtomicU64);

    impl Service for &Counter {
        fn handle(&self, request: Bytes) -> Bytes {
            self.0.fetch_add(1, Ordering::Relaxed);
            request
        }
    }

    #[test]
    fn call_charges_both_directions() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", Arc::clone(&clock), PathSpec::local());
        path.set_proxy_delay(SimDuration::from_millis(10));
        let remote = Remote::new(Arc::clone(&path), Echo);
        let resp = remote.call(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(&resp[..], b"hello");
        assert!(clock.now().as_micros() >= 20_000);
        assert_eq!(path.stats().round_trips(), 1);
    }

    #[test]
    fn service_work_is_on_the_same_clock() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", Arc::clone(&clock), PathSpec::local());
        let remote = Remote::new(path, Worker(Arc::clone(&clock)));
        let t0 = clock.now();
        remote.call(Bytes::new()).unwrap();
        assert!((clock.now() - t0).as_micros() >= 2_000);
    }

    #[test]
    fn notify_does_not_advance_clock() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", Arc::clone(&clock), PathSpec::lan());
        let remote = Remote::new(Arc::clone(&path), Echo);
        remote.notify(Bytes::from_static(b"invalidate"));
        assert_eq!(clock.now().as_micros(), 0);
        assert_eq!(path.stats().bytes_to_server, 10);
    }

    #[test]
    fn arc_service_is_a_service() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", clock, PathSpec::local());
        let svc: Arc<dyn Service> = Arc::new(Echo);
        let remote = Remote::new(path, svc);
        assert_eq!(&remote.call(Bytes::from_static(b"x")).unwrap()[..], b"x");
    }

    #[test]
    fn dropped_response_is_retried_and_resends_identical_bytes() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", Arc::clone(&clock), PathSpec::local());
        path.script_faults([Some(Fault::DropResponse), None]);
        let counter = Counter::default();
        let remote = Remote::new(Arc::clone(&path), &counter);
        let resp = remote.call(Bytes::from_static(b"debit")).unwrap();
        assert_eq!(&resp[..], b"debit");
        // The service ran on the failed attempt too — side effects happened.
        assert_eq!(counter.0.load(Ordering::Relaxed), 2);
        // The caller waited out the timeout plus one backoff pause.
        let policy = remote.policy();
        let floor = policy.timeout + policy.backoff;
        assert!(clock.now().as_micros() >= floor.as_micros());
        assert_eq!(path.fault_stats().dropped_responses, 1);
    }

    #[test]
    fn dropped_request_never_reaches_the_service() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", Arc::clone(&clock), PathSpec::local());
        path.script_faults([Some(Fault::DropRequest), None]);
        let counter = Counter::default();
        let remote = Remote::new(Arc::clone(&path), &counter);
        remote.call(Bytes::from_static(b"q")).unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), 1, "only the retry ran");
    }

    #[test]
    fn duplicate_delivery_runs_the_service_twice() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", clock, PathSpec::local());
        path.script_faults([Some(Fault::Duplicate)]);
        let counter = Counter::default();
        let remote = Remote::new(path, &counter);
        let resp = remote.call(Bytes::from_static(b"x")).unwrap();
        assert_eq!(&resp[..], b"x");
        assert_eq!(counter.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", Arc::clone(&clock), PathSpec::local());
        let policy = RetryPolicy {
            max_attempts: 3,
            timeout: SimDuration::from_millis(10),
            backoff: SimDuration::from_millis(1),
        };
        path.script_faults([
            Some(Fault::DropRequest),
            Some(Fault::DropRequest),
            Some(Fault::Unavailable),
        ]);
        let remote = Remote::new(Arc::clone(&path), Echo).with_policy(policy);
        let err = remote.call(Bytes::from_static(b"x")).unwrap_err();
        assert_eq!(err, CallError::Unavailable { attempts: 3 });
        assert_eq!(err.attempts(), 3);
        // Two timeouts + fast refusal + backoff of 1ms then 2ms.
        assert!(clock.now().as_micros() >= 23_000);
    }

    #[test]
    fn call_once_does_not_retry() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", clock, PathSpec::local());
        path.script_faults([Some(Fault::DropResponse)]);
        let counter = Counter::default();
        let remote = Remote::new(Arc::clone(&path), &counter);
        let err = remote.call_once(Bytes::from_static(b"x")).unwrap_err();
        assert_eq!(err, CallError::TimedOut { attempts: 1 });
        assert_eq!(counter.0.load(Ordering::Relaxed), 1);
        assert!(remote.call_once(Bytes::from_static(b"x")).is_ok());
    }

    #[test]
    fn faulty_schedule_is_deterministic_end_to_end() {
        let run = || {
            let clock = Arc::new(Clock::new());
            let path = Path::new("p", Arc::clone(&clock), PathSpec::local());
            path.set_fault_plan(FaultPlan::lossy(77, 400));
            let remote = Remote::new(path, Echo).with_policy(RetryPolicy {
                max_attempts: 2,
                timeout: SimDuration::from_millis(5),
                backoff: SimDuration::from_millis(1),
            });
            let outcomes: Vec<bool> = (0..32)
                .map(|_| remote.call(Bytes::from_static(b"req")).is_ok())
                .collect();
            (outcomes, clock.now())
        };
        assert_eq!(run(), run(), "same seed → same outcomes and same clock");
        let (outcomes, _) = run();
        assert!(outcomes.iter().any(|ok| *ok));
        assert!(outcomes.iter().any(|ok| !*ok));
    }

    #[test]
    fn rpc_outcomes_are_counted_on_the_path() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", Arc::clone(&clock), PathSpec::local());
        let policy = RetryPolicy {
            max_attempts: 3,
            timeout: SimDuration::from_millis(10),
            backoff: SimDuration::from_millis(1),
        };
        let remote = Remote::new(Arc::clone(&path), Echo).with_policy(policy);

        // Clean call: one rpc, no failures.
        remote.call(Bytes::from_static(b"a")).unwrap();
        // Two timeouts then success: two retries, two timeouts, 1+2 ms backoff.
        path.script_faults([Some(Fault::DropRequest), Some(Fault::DropResponse), None]);
        remote.call(Bytes::from_static(b"b")).unwrap();
        // Unavailability outlasting the budget: two more retries.
        path.script_faults([
            Some(Fault::Unavailable),
            Some(Fault::Unavailable),
            Some(Fault::Unavailable),
        ]);
        remote.call(Bytes::from_static(b"c")).unwrap_err();
        // call_once failure is counted but never retried.
        path.script_faults([Some(Fault::DropResponse)]);
        remote.call_once(Bytes::from_static(b"d")).unwrap_err();

        let m = path.metrics();
        assert_eq!(m.rpc_calls.get(), 4);
        assert_eq!(m.rpc_retries.get(), 4);
        assert_eq!(m.rpc_timeouts.get(), 3);
        assert_eq!(m.rpc_unavailable.get(), 3);
        assert_eq!(m.rpc_backoff_us.get(), (1 + 2 + 1 + 2) * 1_000);
    }

    #[test]
    fn faulted_rpc_keeps_trace_id_with_a_new_span_per_attempt() {
        use sli_telemetry::TraceLog;

        let clock = Arc::new(Clock::new());
        let path = Path::new("p", Arc::clone(&clock), PathSpec::local());
        path.script_faults([Some(Fault::DropResponse), Some(Fault::DropRequest), None]);
        let tracer = Arc::new(Tracer::new(Arc::new(TraceLog::new())));
        let counter = Counter::default();
        let remote = Remote::new(Arc::clone(&path), &counter)
            .with_policy(RetryPolicy {
                max_attempts: 4,
                timeout: SimDuration::from_millis(10),
                backoff: SimDuration::from_millis(1),
            })
            .with_tracer(Arc::clone(&tracer));

        remote.call(Bytes::from_static(b"debit")).unwrap();
        assert_eq!(tracer.current(), None, "all spans closed");

        let events = tracer.log().events();
        let call = events
            .iter()
            .find(|e| e.op == "rpc.call")
            .expect("call span");
        let attempts: Vec<_> = events.iter().filter(|e| e.op == "rpc.attempt").collect();
        assert_eq!(attempts.len(), 3, "one span per delivery attempt");
        for (i, a) in attempts.iter().enumerate() {
            assert_eq!(a.trace_id, call.trace_id, "retries stay in one trace");
            assert_eq!(a.parent_span_id, call.span_id);
            assert_eq!(
                a.detail,
                Some(SpanDetail::Attempt {
                    number: i as u32 + 1
                })
            );
        }
        let ids: std::collections::BTreeSet<u64> = attempts.iter().map(|a| a.span_id).collect();
        assert_eq!(ids.len(), 3, "every attempt gets a fresh span id");
        assert_eq!(attempts[0].outcome, SpanOutcome::Error);
        assert_eq!(attempts[1].outcome, SpanOutcome::Error);
        assert_eq!(attempts[2].outcome, SpanOutcome::Committed);
        assert_eq!(call.outcome, SpanOutcome::Committed);

        // The attempt spans plus retry backoff tile the whole call span.
        let attempt_us: u64 = attempts.iter().map(|a| a.duration_us()).sum();
        let backoff_us = (1 + 2) * 1_000;
        assert_eq!(call.duration_us(), attempt_us + backoff_us);

        // Successful crossings got net spans nested under their attempt.
        let nets: Vec<_> = events.iter().filter(|e| e.op.starts_with("net.")).collect();
        assert!(!nets.is_empty());
        assert!(nets.iter().all(|n| n.trace_id == call.trace_id));
    }

    #[test]
    fn lossy_notify_can_lose_messages() {
        let clock = Arc::new(Clock::new());
        let path = Path::new("p", clock, PathSpec::local());
        path.script_faults([Some(Fault::DropRequest), None, Some(Fault::Duplicate)]);
        let counter = Counter::default();
        let remote = Remote::new(path, &counter);
        remote.notify(Bytes::from_static(b"a")); // lost
        remote.notify(Bytes::from_static(b"b")); // delivered
        remote.notify(Bytes::from_static(b"c")); // delivered twice
        assert_eq!(counter.0.load(Ordering::Relaxed), 3);
    }
}
