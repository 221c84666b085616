//! **hima-telemetry**: the std-only observability substrate of the
//! serving stack.
//!
//! The offline bench bins reproduce the paper's runtime breakdowns with
//! [`KernelProfile`](../hima_dnc/profile/index.html)-style wall-clock
//! instrumentation, but the *living* system (the `hima-serve` grid
//! scheduler) needs the production twin: always-on counters that cost a
//! handful of atomic adds per tick, latency distributions that never
//! allocate on the record path, and a bounded trace of session-lifecycle
//! events for post-hoc debugging. This crate provides exactly three
//! primitives:
//!
//! * [`MetricsRegistry`] — a named registry of [`Counter`]s, [`Gauge`]s
//!   and fixed-bucket log₂ [`Histogram`]s. Registration (startup, session
//!   open) takes a lock and may allocate; **recording is lock-free and
//!   allocation-free** — handles are `Arc`'d atomics, so the instrumented
//!   hot path stays compatible with the workspace's zero-allocation
//!   stepping contract (`tests/zero_alloc.rs`).
//! * [`TraceRing`] — a bounded ring buffer of [`TraceEvent`]s (open /
//!   close / park / splice / reap / busy / error) with monotone sequence
//!   numbers and coarse microsecond timestamps. Recording overwrites the
//!   oldest slot and never allocates after construction.
//! * [`MetricsSnapshot`] — a point-in-time copy of every registered
//!   metric: mergeable (saturating, so counter roll-ups never overflow),
//!   queryable by name, and renderable as JSON. The wire encoding lives
//!   with the `hima-serve` protocol, whose byte format is its own.
//!
//! No external dependencies, no background threads, no `unsafe`.

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HIST_BUCKETS,
};
pub use trace::{TraceEvent, TraceKind, TraceRing};
