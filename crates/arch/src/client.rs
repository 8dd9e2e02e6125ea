//! The virtual client: the paper's load-generator machine.

use sli_simnet::{Fault, HttpRequest, HttpResponse, RetryPolicy, SimDuration, SimTime};
use sli_telemetry::{OpenSpan, SpanOutcome};
use sli_trade::TradeAction;

use crate::topology::Testbed;

/// How long the client waits for a response before abandoning the request
/// (a browser-style HTTP timeout): the RPC tier's, so a message lost on the
/// access link costs the caller the same as one lost further in.
fn http_timeout() -> SimDuration {
    RetryPolicy::default().timeout
}

/// Status the client reports when its HTTP timeout expires without a
/// response (the request or the response was lost on the access link).
const STATUS_CLIENT_TIMEOUT: u16 = 504;

/// Status the client reports when the connection is refused outright.
const STATUS_REFUSED: u16 = 503;

/// Measurements for one client/server interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interaction {
    /// Round-trip latency as observed by the client.
    pub latency: SimDuration,
    /// HTTP status of the response.
    pub status: u16,
    /// Request size on the wire.
    pub request_bytes: usize,
    /// Response size on the wire.
    pub response_bytes: usize,
}

/// A virtual client bound to one edge/application server of a testbed.
///
/// "Client requests are driven by a load generator program on a dedicated
/// machine" (§4.3); this is that program. It keeps the HTTP session cookie
/// between requests like a browser would.
///
/// Under the [`LoadEngine`](crate::LoadEngine) one `VirtualClient` exists
/// per *logical session*: a `perform` call is the atomic step between
/// two scheduler decisions, so sessions interleave at exactly the
/// client-RPC boundary and every interleaving remains replayable.
#[derive(Debug)]
pub struct VirtualClient<'t> {
    testbed: &'t Testbed,
    edge: usize,
    cookie: Option<String>,
}

impl<'t> VirtualClient<'t> {
    /// Creates a client pointed at edge `edge` of `testbed`.
    pub fn new(testbed: &'t Testbed, edge: usize) -> VirtualClient<'t> {
        VirtualClient {
            testbed,
            edge,
            cookie: None,
        }
    }

    /// Performs one trade action as an HTTP round trip, measuring latency
    /// and sizes.
    pub fn perform(&mut self, action: &TradeAction) -> Interaction {
        let node = &self.testbed.edges[self.edge];
        let mut req = HttpRequest::get("/trade/app", action.query_params());
        if let Some(cookie) = &self.cookie {
            req = req.with_cookie(cookie);
        }
        // The request really crosses the wire as bytes and is re-parsed by
        // the server, like every other protocol in the testbed.
        let raw_request = req.encode();
        let request_bytes = raw_request.len();

        let clock = &self.testbed.clock;
        let tracer = self.testbed.tracer();
        let start = clock.now();
        // Root span of the causal trace: its [start, end) window is exactly
        // the latency the client measures, so a trace's bucket decomposition
        // sums back to the per-request virtual latency.
        let root = tracer.begin("request");

        // The access link draws from the same seeded fault schedule as every
        // other path — one draw per interaction, stamped into the path's
        // fault state as detection ground truth. A browser does not retry:
        // a lost message surfaces as a client-side timeout, a refused
        // connection as an immediate error page.
        let path = &node.client_path;
        let fault = path.next_fault();
        match fault {
            None | Some(Fault::Duplicate) => {}
            Some(Fault::DropRequest) => {
                // The bytes leave but never arrive; the server does not run
                // and the client waits out its timeout.
                path.request_async(request_bytes);
                self.on_wire("net.client.timeout", || clock.delay(http_timeout()));
                return self.abandoned(root, start, request_bytes, STATUS_CLIENT_TIMEOUT);
            }
            Some(Fault::DropResponse) => {
                // The request arrives and the server does the work — side
                // effects happen — but the response is lost, so the client
                // still times out, measured from the send.
                self.on_wire("net.client.request", || path.request(request_bytes));
                node.deliver_due_invalidations();
                let parsed =
                    HttpRequest::parse(&raw_request).expect("client emits well-formed HTTP");
                let _ = node.server.handle(&parsed);
                let deadline = start + http_timeout();
                self.on_wire("net.client.timeout", || clock.delay_until(deadline));
                return self.abandoned(root, start, request_bytes, STATUS_CLIENT_TIMEOUT);
            }
            Some(Fault::Unavailable) => {
                // Connection refused: the request crosses, a one-byte
                // refusal comes straight back, the server never runs.
                self.on_wire("net.client.request", || path.request(request_bytes));
                self.on_wire("net.client.respond", || path.respond(1));
                return self.abandoned(root, start, request_bytes, STATUS_REFUSED);
            }
        }

        self.on_wire("net.client.request", || path.request(request_bytes));
        // Any peer-invalidation messages whose crossing completed while this
        // request was in flight are picked off the wire first.
        node.deliver_due_invalidations();
        let parsed = HttpRequest::parse(&raw_request).expect("client emits well-formed HTTP");
        let resp = node.server.handle(&parsed);
        if fault == Some(Fault::Duplicate) {
            // The request was delivered twice: the second copy crosses on
            // the async stream (the client sent once) and the server runs
            // again on identical bytes; one response returns.
            path.request_async(request_bytes);
            let _ = node.server.handle(&parsed);
        }
        let raw_response = resp.encode();
        let response_bytes = raw_response.len();
        self.on_wire("net.client.respond", || path.respond(response_bytes));
        let resp = HttpResponse::parse(&raw_response).expect("server emits well-formed HTTP");
        let latency = clock
            .now()
            .checked_since(start)
            .expect("virtual time is monotone across a round trip");
        let root_outcome = match resp.status {
            200 => SpanOutcome::Committed,
            409 => SpanOutcome::Conflict,
            _ => SpanOutcome::Error,
        };
        self.finish(root, start.as_micros(), root_outcome);

        if let Some(cookie) = resp.set_cookie {
            self.cookie = Some(cookie);
        }
        if matches!(action, TradeAction::Logout { .. }) {
            self.cookie = None;
        }
        Interaction {
            latency,
            status: resp.status,
            request_bytes,
            response_bytes,
        }
    }

    /// Runs `step` — a crossing of the access link or a wait for it —
    /// inside an `op` span, so the profile files its time as network.
    fn on_wire(&self, op: &'static str, step: impl FnOnce()) {
        let span = self.testbed.tracer().begin(op);
        let start_us = self.testbed.clock.now().as_micros();
        step();
        self.finish(span, start_us, SpanOutcome::Committed);
    }

    /// Records `span`, begun at `start_us`, as ending now on this client's
    /// edge.
    fn finish(&self, span: OpenSpan, start_us: u64, outcome: SpanOutcome) {
        let end_us = self.testbed.clock.now().as_micros();
        let origin = self.edge as u32 + 1;
        self.testbed
            .tracer()
            .finish(span, origin, 0, start_us, end_us, outcome);
    }

    /// Closes out an interaction the client gave up on (timeout or refused
    /// connection): the root span ends in error and no response bytes ever
    /// arrived.
    fn abandoned(
        &self,
        root: OpenSpan,
        start: SimTime,
        request_bytes: usize,
        status: u16,
    ) -> Interaction {
        let clock = &self.testbed.clock;
        let latency = clock
            .now()
            .checked_since(start)
            .expect("virtual time is monotone across a round trip");
        self.finish(root, start.as_micros(), SpanOutcome::Error);
        Interaction {
            latency,
            status,
            request_bytes,
            response_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Architecture, Flavor, Testbed, TestbedConfig};
    use sli_simnet::{FaultPlan, SimDuration};
    use sli_trade::seed::Population;
    use sli_trade::session::SessionGenerator;

    #[test]
    fn client_keeps_cookie_across_session() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let mut client = VirtualClient::new(&tb, 0);
        let login = client.perform(&TradeAction::Login {
            user: "uid:1".into(),
        });
        assert_eq!(login.status, 200);
        assert!(client.cookie.is_some());
        client.perform(&TradeAction::Home {
            user: "uid:1".into(),
        });
        let logout = client.perform(&TradeAction::Logout {
            user: "uid:1".into(),
        });
        assert_eq!(logout.status, 200);
        assert!(client.cookie.is_none());
    }

    #[test]
    fn latency_grows_with_injected_delay() {
        let tb = Testbed::build(Architecture::EsRdb(Flavor::Jdbc), TestbedConfig::default());
        let mut client = VirtualClient::new(&tb, 0);
        let base = client
            .perform(&TradeAction::Quote {
                symbol: "s:1".into(),
            })
            .latency;
        tb.set_delay(SimDuration::from_millis(50));
        let delayed = client
            .perform(&TradeAction::Quote {
                symbol: "s:1".into(),
            })
            .latency;
        // one SQL round trip = two 50ms crossings at least
        assert!(delayed.as_micros() >= base.as_micros() + 100_000);
    }

    #[test]
    fn full_generated_session_succeeds_everywhere() {
        for arch in [
            Architecture::EsRdb(Flavor::VanillaEjb),
            Architecture::EsRdb(Flavor::CachedEjb),
            Architecture::EsRbes,
            Architecture::ClientsRas(Flavor::Jdbc),
        ] {
            let tb = Testbed::build(arch, TestbedConfig::default());
            let mut generator = SessionGenerator::new(11, Population::default());
            let mut client = VirtualClient::new(&tb, 0);
            for _ in 0..3 {
                let session = generator.session();
                for outcome in session.iter().map(|a| client.perform(a)) {
                    assert_eq!(outcome.status, 200, "{arch:?}");
                }
            }
        }
    }

    #[test]
    fn access_link_faults_fail_the_interaction_and_stamp_ground_truth() {
        let tb = Testbed::build(
            Architecture::ClientsRas(Flavor::Jdbc),
            TestbedConfig::default(),
        );
        let quote = TradeAction::Quote {
            symbol: "s:1".into(),
        };
        let mut client = VirtualClient::new(&tb, 0);

        // Connection refused: immediate failure, the server never runs.
        tb.edges[0]
            .client_path
            .script_faults([Some(sli_simnet::Fault::Unavailable)]);
        let refused = client.perform(&quote);
        assert_eq!(refused.status, 503);
        assert_eq!(refused.response_bytes, 0);
        assert!(refused.latency < SimDuration::from_millis(1_000));

        // Lost request: the client waits out its full HTTP timeout.
        tb.edges[0]
            .client_path
            .script_faults([Some(sli_simnet::Fault::DropRequest)]);
        let lost = client.perform(&quote);
        assert_eq!(lost.status, 504);
        assert!(lost.latency >= SimDuration::from_millis(1_000));

        // A duplicated request still succeeds — the server merely ran twice.
        tb.edges[0]
            .client_path
            .script_faults([Some(sli_simnet::Fault::Duplicate)]);
        assert_eq!(client.perform(&quote).status, 200);

        // Every injection latched the detection ground-truth timestamp.
        assert!(tb.fault_first_effect_us().is_some());
    }

    #[test]
    fn dialled_outage_on_clients_ras_refuses_service_at_the_access_link() {
        // Clients/RAS puts the WAN on the client path, so a total outage
        // dialled through the testbed must surface to the client directly.
        let tb = Testbed::build(
            Architecture::ClientsRas(Flavor::Jdbc),
            TestbedConfig::default(),
        );
        tb.set_faults(FaultPlan {
            seed: 3,
            unavailable_per_mille: 1_000,
            ..FaultPlan::NONE
        });
        let mut client = VirtualClient::new(&tb, 0);
        let o = client.perform(&TradeAction::Quote {
            symbol: "s:1".into(),
        });
        assert_eq!(o.status, 503);
        assert!(tb.fault_first_effect_us().is_some());
    }

    #[test]
    fn response_bytes_reflect_rendered_pages() {
        let tb = Testbed::build(
            Architecture::ClientsRas(Flavor::Jdbc),
            TestbedConfig::default(),
        );
        let mut client = VirtualClient::new(&tb, 0);
        let o = client.perform(&TradeAction::Portfolio {
            user: "uid:1".into(),
        });
        assert!(
            o.response_bytes > 3_000,
            "page was {} bytes",
            o.response_bytes
        );
        assert!(o.request_bytes > 100);
        // all of it crossed the client path
        let stats = tb.edges[0].client_path.stats();
        assert_eq!(stats.bytes_from_server as usize, o.response_bytes);
    }
}
