//! **hima-serve**: a session server with continuous batching over masked
//! lane grids.
//!
//! The batched engine ([`GridEngine`](hima_dnc::GridEngine)) steps `B`
//! independent sequences through shared weights, and the [`LaneMask`](hima_dnc::LaneMask) tier
//! freezes individual lanes bit-exactly. This crate turns that substrate
//! into a long-lived serving system:
//!
//! * [`session`] — the session registry: ids, per-configuration engine
//!   groups, routing, idle-timeout reaping, and the optional durable
//!   tier ([`StoreConfig`]): sessions evict to an `hima-store` directory
//!   instead of being discarded, rehydrate transparently on their next
//!   command, and survive a process kill via snapshot + delta-log
//!   replay,
//! * `scheduler` (private) — the continuous-batching engine group, run on
//!   its callers' threads (flat combining): pending step requests coalesce
//!   into one masked grid step per tick; sessions join and leave lanes
//!   between ticks, and swap out through the
//!   [`LaneState`](hima_dnc::LaneState) splice API when the grid is full,
//! * [`protocol`] — the length-prefixed binary wire protocol (hand-rolled;
//!   the vendored `serde` is a no-op stand-in),
//! * [`server`] / [`client`] — a std-only threaded TCP front end and its
//!   typed blocking client,
//! * [`loadgen`] — an open-loop load generator reporting sessions/sec and
//!   p50/p90/p99/max per-step latency (the `serve` section of the
//!   throughput harness),
//! * [`metrics`] — the server-wide [`ServeMetrics`] catalog over the
//!   `hima-telemetry` substrate: scheduler tick/occupancy histograms,
//!   session lifecycle counters and trace, wire traffic and per-command
//!   counters — fetched live over the protocol's `Metrics` / `TraceDump`
//!   commands or `hima_cli metrics`,
//! * [`retry`] — deterministic jittered backoff and deadline-shedding
//!   order (pure, property-tested),
//! * [`chaos_net`] — a fault-injecting stream wrapper over the
//!   `hima-chaos` plan for torn frames, stalls, and connection resets,
//! * [`clock`] — the [`Clock`] every scheduling decision reads (the
//!   system clock in production; tests hand in one they move).
//!
//! # Fault tolerance
//!
//! The server degrades under pressure instead of falling over: queue
//! budgets reject excess work with a typed
//! [`ServeError::Overloaded`] carrying a retry hint, per-request
//! deadlines shed expired queued steps with
//! [`ServeError::DeadlineExceeded`], and every pass over a group runs
//! under `catch_unwind`: a panic replaces the group, which resurrects store-backed
//! sessions from their snapshot + delta log (unpersisted sessions fail
//! with [`ServeError::GroupFailed`]). All of it is pinned under a
//! seeded, reproducible fault-injection plan ([`FaultPlan`]) by the
//! `chaos_conformance` suite.
//!
//! # Correctness contract
//!
//! A session stepped through the server is **bit-identical** (any
//! topology or datapath) to a solo single-lane engine
//! stepped with the same inputs — regardless of which sessions share the
//! grid, when they join or leave, or how often the session is swapped
//! out and back in. The chain: weights depend only on the seed (not the
//! lane count), masked stepping of an active lane equals solo stepping
//! (ragged conformance), and the lane-state splice is an exact copy.
//! `tests/serve_conformance.rs` at the workspace root pins the composed
//! property.
//!
//! # Example
//!
//! ```
//! use hima_serve::{Client, RawSessionSpec, ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let session = client.open(&RawSessionSpec::demo()).unwrap();
//! let y = client.step(session, &[0.5, -0.5, 1.0, 0.0, 0.25, -1.0]).unwrap();
//! assert_eq!(y.len(), 6);
//! client.close_session(session).unwrap();
//! ```

pub mod chaos_net;
pub mod client;
pub mod clock;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod retry;
mod scheduler;
pub mod server;
pub mod session;

pub use chaos_net::ChaosStream;
pub use client::{Client, ClientError, ClientOptions};
pub use clock::Clock;
pub use loadgen::{percentile, run_load, ArrivalPattern, LoadConfig, LoadReport};
pub use metrics::ServeMetrics;
pub use protocol::{RawSessionSpec, Request, Response, ServeError, SessionSpec, WireError};
pub use retry::{shed_order, RetryPolicy};
pub use server::{ServeConfig, Server};
pub use session::{SessionHub, StoreConfig};
pub use hima_chaos::{FaultKind, FaultPlan, FaultRule, FaultSite};
pub use hima_telemetry::{MetricsSnapshot, TraceEvent, TraceKind};
