//! # hpcml-comm — ZeroMQ-like messaging substrate
//!
//! RADICAL-Pilot wires its components together with ZeroMQ: clients talk to services over
//! REQ/REP sockets and components publish state updates over PUB/SUB. This crate
//! rebuilds those communication patterns from scratch, with:
//!
//! * [`message`] — a self-describing message envelope that keeps numbers as numbers,
//!   carries bytes or a shared value, and knows its size on a length-prefixed wire,
//!   which the link prices hops by;
//! * [`reqrep`] — request/reply endpoints ([`reqrep::ReqRepServer`], [`reqrep::ReqRepClient`])
//!   used for the service inference API, one request per call: a server is either a
//!   thread that blocks for requests or a [`reqrep::Server`] whose turn the requesting
//!   thread takes, making the pass itself;
//! * [`pubsub`] — topic-based publish/subscribe used for state-update notification:
//!   shared fan-out (one `Arc<Message>` for every matching subscriber) from one
//!   subscriber list into one inbox per subscriber;
//! * [`registry`] — the read-mostly endpoint registry services publish themselves
//!   into (the `publish` component of the paper's bootstrap time): lookups read a
//!   lock-free snapshot, writers replace it, and every lookup that has to wait waits
//!   on one predicate;
//! * [`link`] — latency injection: every hop between two endpoints samples the
//!   appropriate [`hpcml_platform::LatencyProfile`] (local vs remote) on the shared
//!   virtual clock, so the response-time experiments see the paper's measured
//!   0.063 ms / 0.47 ms link characteristics.
//!
//! The fabric's hot paths record a small set of `comm.*` scalar series through a
//! pluggable [`hpcml_sim::metrics::ScalarSink`] (`with_sink` on the publisher; the
//! runtime wires the session's metric recorder in, which keeps these integer series as
//! exact value counts):
//!
//! | series              | recorded by           | meaning                        |
//! |---------------------|-----------------------|--------------------------------|
//! | `comm.fanout.width` | [`pubsub::Publisher`] | subscribers hit by one publish |
//!
//! (`comm.queue.depth` — the depth of a serving replica's batch queue after a
//! dispatch — is recorded where that queue now lives, in `hpcml_serving::pool`.)
//!
//! # Example
//!
//! A request/reply round trip over a zero-latency link:
//!
//! ```
//! use hpcml_comm::link::Link;
//! use hpcml_comm::message::Message;
//! use hpcml_comm::reqrep::ReqRepServer;
//! use hpcml_sim::clock::ClockSpec;
//!
//! use std::time::Duration;
//!
//! let server = ReqRepServer::new("service.echo");
//! let client = server.client(Link::instant(ClockSpec::Manual.build()));
//! let worker = std::thread::spawn(move || {
//!     let (request, responder) = server.recv_timeout(Duration::from_secs(5)).unwrap();
//!     let text = request.text().unwrap().to_string();
//!     responder
//!         .reply(Message::new("service.echo", "reply").with_text(&text))
//!         .unwrap();
//! });
//!
//! let reply = client.request(Message::new("service.echo", "ask").with_text("ping"))?;
//! assert_eq!(reply.text(), Some("ping"));
//! worker.join().unwrap();
//! # Ok::<(), hpcml_comm::CommError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod link;
pub mod message;
pub mod pubsub;
pub mod registry;
pub mod reqrep;

pub use error::CommError;
pub use link::Link;
pub use message::Message;
pub use pubsub::{Publisher, Subscriber};
pub use registry::{EndpointEntry, EndpointRegistry};
pub use reqrep::{Mailbox, ReqRepClient, ReqRepHandle, ReqRepServer, Responder};

use std::time::Instant;

use parking_lot::{Condvar, MutexGuard};

/// Wait on `cond` until notified or until `deadline`; `None` waits without a deadline
/// (a timeout too long to add to `Instant::now()`). True if the deadline passed.
fn wait_until<T>(cond: &Condvar, guard: &mut MutexGuard<'_, T>, deadline: Option<Instant>) -> bool {
    match deadline {
        Some(at) => cond.wait_until(guard, at).timed_out(),
        None => {
            cond.wait(guard);
            false
        }
    }
}
