//! Telemetry conformance: the metrics substrate's edge cases plus the
//! whole observability loop driven end-to-end.
//!
//! The unit-ish half pins the corners that bite in production but never
//! show up in happy-path use: empty/single/all-equal percentile inputs,
//! log₂ histogram bucket boundaries at exact powers of two, snapshot
//! merges that must saturate instead of wrapping, and trace-ring
//! wraparound keeping sequence order. The integration half boots a real
//! TCP server, drives concurrent sessions on an undersized grid (so
//! parks and splices actually happen), and asserts the `Metrics` /
//! `TraceDump` commands return a populated, internally consistent view
//! while the load is still live.

use hima::prelude::*;
use hima::telemetry::{bucket_bound, bucket_index, TraceRing, HIST_BUCKETS};
use hima_serve::loadgen::{percentile, synth_input};
use hima_serve::{RawSessionSpec, TraceKind};
use std::time::Duration;

// ---------------------------------------------------------------- loadgen

#[test]
fn percentile_of_empty_is_zero() {
    assert_eq!(percentile(&[], 0.0), Duration::ZERO);
    assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    assert_eq!(percentile(&[], 1.0), Duration::ZERO);
}

#[test]
fn percentile_of_single_sample_is_that_sample() {
    for p in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(percentile(&[1234], p), Duration::from_nanos(1234));
    }
}

#[test]
fn percentile_of_all_equal_samples_is_that_value() {
    let ns = [777u64; 50];
    for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(percentile(&ns, p), Duration::from_nanos(777));
    }
}

#[test]
fn percentile_endpoints_and_clamping() {
    let ns = [10, 20, 30, 40, 50];
    assert_eq!(percentile(&ns, 0.0), Duration::from_nanos(10));
    assert_eq!(percentile(&ns, 1.0), Duration::from_nanos(50));
    // Out-of-range quantiles clamp instead of indexing out of bounds.
    assert_eq!(percentile(&ns, -3.0), Duration::from_nanos(10));
    assert_eq!(percentile(&ns, 7.0), Duration::from_nanos(50));
    assert_eq!(percentile(&ns, 0.5), Duration::from_nanos(30));
}

// ------------------------------------------------------------- histograms

#[test]
fn bucket_boundaries_at_powers_of_two() {
    // Bucket 0 is the exact-zero bucket; bucket i >= 1 holds
    // [2^(i-1), 2^i).
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    for i in 1..64 {
        let lo = 1u64 << (i - 1);
        assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
        assert_eq!(bucket_index((lo << 1) - 1), i, "upper edge of bucket {i}");
    }
    assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    // Upper bounds are inclusive: value == bound lands in that bucket.
    for i in 0..HIST_BUCKETS {
        assert_eq!(bucket_index(bucket_bound(i)), i, "bound of bucket {i}");
    }
}

#[test]
fn histogram_quantiles_respect_bucket_bounds() {
    let r = MetricsRegistry::new();
    let h = r.histogram("t");
    for v in [0, 1, 2, 3, 4, 1000, 1_000_000] {
        h.observe(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 7);
    assert_eq!(snap.sum, 1_001_010);
    // Quantiles report the upper bound of the covering bucket, so they
    // never understate a latency.
    assert!(snap.quantile(0.99) >= 1_000_000);
    assert!(snap.max_bound() >= 1_000_000);
    assert_eq!(snap.quantile(0.0), 0);
}

#[test]
fn snapshot_merge_saturates_instead_of_wrapping() {
    let a_reg = MetricsRegistry::new();
    a_reg.counter("c").add(u64::MAX - 5);
    a_reg.gauge("g").set(3);
    let mut a = a_reg.snapshot();

    let b_reg = MetricsRegistry::new();
    b_reg.counter("c").add(100);
    b_reg.counter("only_b").add(7);
    b_reg.gauge("g").set(-9);
    let b = b_reg.snapshot();

    a.merge(&b);
    // Counter sum would wrap; the merge must pin at the ceiling.
    assert_eq!(a.counter("c"), Some(u64::MAX));
    // Names only on the other side are appended, not dropped.
    assert_eq!(a.counter("only_b"), Some(7));
    // Gauges are levels: the merged-in side wins outright.
    assert_eq!(a.gauge("g"), Some(-9));
}

#[test]
fn histogram_merge_saturates_bucket_counts() {
    let a_reg = MetricsRegistry::new();
    let ha = a_reg.histogram("h");
    ha.observe(5);
    let mut a = a_reg.snapshot();
    let mut b = a.clone();
    // Force the same bucket to the ceiling on one side.
    let hist = &mut b.histograms[0].1;
    hist.buckets[bucket_index(5)] = u64::MAX;
    hist.count = u64::MAX;
    hist.sum = u64::MAX;
    a.merge(&b);
    let merged = a.histogram("h").unwrap();
    assert_eq!(merged.buckets[bucket_index(5)], u64::MAX);
    assert_eq!(merged.count, u64::MAX);
    assert_eq!(merged.sum, u64::MAX);
}

// ------------------------------------------------------------- trace ring

#[test]
fn trace_ring_wraparound_keeps_sequence_order() {
    let ring = TraceRing::new(8);
    for i in 0..27u64 {
        ring.record(TraceKind::Open, i, i * 2);
    }
    assert_eq!(ring.recorded(), 27);
    let events = ring.dump();
    assert_eq!(events.len(), 8);
    // Oldest-first, contiguous, ending at the last recorded seq.
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (19..27).collect::<Vec<u64>>());
    for e in &events {
        assert_eq!(e.session, e.seq);
        assert_eq!(e.detail, e.seq * 2);
    }
}

// ---------------------------------------------------- end-to-end over TCP

/// Boots a real server on an undersized grid, drives more concurrent
/// sessions than lanes (forcing parks and splices), then reads the
/// telemetry back over the wire and checks it describes the run.
#[test]
fn live_server_metrics_describe_the_load() {
    let p = DncParams::new(24, 6, 2).with_hidden(20).with_io(5, 5);
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        idle_timeout: None,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.addr();
    let raw = RawSessionSpec::from_parts(&p, &EngineSpec::monolithic(), 42);

    let sessions = 5;
    let steps = 12;
    // Every session finishes step t before any starts step t + 1: after
    // the first round all five hold state on two lanes, so the second
    // round must splice parked state back, however the threads interleave.
    let round = std::sync::Arc::new(std::sync::Barrier::new(sessions));
    let handles: Vec<_> = (0..sessions)
        .map(|i| {
            let raw = raw.clone();
            let round = std::sync::Arc::clone(&round);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let session = client.open(&raw).unwrap();
                for t in 0..steps {
                    round.wait();
                    client.step(session, &synth_input(i, t, p.input_size)).unwrap();
                }
                session
            })
        })
        .collect();
    let ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Sessions are still open: the snapshot must see them live, with
    // per-session step-latency histograms populated.
    let mut observer = Client::connect(addr).unwrap();
    let snap = observer.metrics().unwrap();
    let total_steps = (sessions * steps) as u64;
    assert_eq!(snap.counter("serve.sessions.opened"), Some(sessions as u64));
    assert_eq!(snap.gauge("serve.sessions.live"), Some(sessions as i64));
    assert_eq!(snap.gauge("serve.groups.live"), Some(1));
    assert_eq!(snap.counter("serve.scheduler.steps"), Some(total_steps));
    let ticks = snap.counter("serve.scheduler.ticks").unwrap();
    assert!(ticks > 0 && ticks <= total_steps, "ticks = {ticks}");
    // 5 sessions on 2 lanes: the grid had to park and splice.
    assert!(snap.counter("serve.scheduler.parks").unwrap() > 0);
    assert!(snap.counter("serve.scheduler.splices").unwrap() > 0);
    // Queue fully drained once every step was answered.
    assert_eq!(snap.gauge("serve.scheduler.queue_depth"), Some(0));

    // One batch per tick, and the batches add up to every step.
    let batch = snap.histogram("serve.scheduler.batch_size").unwrap();
    assert_eq!((batch.count, batch.sum), (ticks, total_steps));
    // Each session is seated blank exactly once; every later seat is a
    // splice of its parked state.
    assert_eq!(snap.counter("serve.scheduler.lane_resets"), Some(sessions as u64));

    let occupancy = snap.histogram("serve.scheduler.occupancy_pct").unwrap();
    assert_eq!(occupancy.count, ticks);
    assert!(occupancy.max_bound() >= 50, "at most one lane ever active?");
    let tick_ns = snap.histogram("serve.scheduler.tick_ns").unwrap();
    assert_eq!(tick_ns.count, ticks);
    assert!(tick_ns.sum > 0);
    let pooled = snap.histogram("serve.session.step_latency_us").unwrap();
    assert_eq!(pooled.count, total_steps);
    for id in &ids {
        let per = snap
            .histogram(&format!("serve.session.{id}.step_latency_us"))
            .unwrap_or_else(|| panic!("no histogram for session {id}"));
        assert_eq!(per.count, steps as u64);
    }
    // Wire accounting saw every request of this connection too.
    assert!(snap.counter("rpc.metrics").unwrap() >= 1);
    assert!(snap.counter("net.frames_in").unwrap() > total_steps);
    // Every open and every step was answered with a frame of its own.
    let frames_out = snap.counter("net.frames_out").unwrap();
    assert!(frames_out >= (sessions * (steps + 1)) as u64, "frames_out = {frames_out}");
    // A step carries `I` f32s in and `O` f32s out.
    let bytes_in = snap.counter("net.bytes_in").unwrap();
    assert!(bytes_in >= total_steps * 4 * p.input_size as u64, "bytes_in = {bytes_in}");
    let bytes_out = snap.counter("net.bytes_out").unwrap();
    assert!(bytes_out >= total_steps * 4 * p.output_size as u64, "bytes_out = {bytes_out}");

    // The trace is clean (no errors/busy), in seq order, and holds the
    // session lifecycle: all opens, plus the forced parks and splices.
    let events = observer.trace_dump().unwrap();
    assert!(!events.is_empty());
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "trace out of order: {w:?}");
    }
    assert!(events.iter().all(|e| e.kind != TraceKind::Error));
    assert!(events.iter().all(|e| e.kind != TraceKind::Busy));
    let opens = events.iter().filter(|e| e.kind == TraceKind::Open).count();
    assert_eq!(opens, sessions);
    assert!(events.iter().any(|e| e.kind == TraceKind::Park));
    assert!(events.iter().any(|e| e.kind == TraceKind::Splice));

    // Close everything; the close-side counters must balance.
    for id in ids {
        observer.close_session(id).unwrap();
    }
    let snap = observer.metrics().unwrap();
    assert_eq!(snap.counter("serve.sessions.closed"), Some(sessions as u64));
    assert_eq!(snap.gauge("serve.sessions.live"), Some(0));
    assert_eq!(snap.gauge("serve.sessions.parked"), Some(0));
    // Per-session histograms are dropped with their sessions: the
    // registry stays bounded by live sessions.
    assert!(snap
        .histograms
        .iter()
        .all(|(name, _)| !name.starts_with("serve.session.") || name == "serve.session.step_latency_us"));
}

/// Server-reported errors land in the err.* counters and the trace ring.
#[test]
fn errors_are_counted_and_traced() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).unwrap();
    // Step a session that does not exist.
    assert!(client.step(999, &[0.0; 5]).is_err());
    let snap = client.metrics().unwrap();
    assert_eq!(snap.counter("err.unknown_session"), Some(1));
    let events = client.trace_dump().unwrap();
    assert!(events.iter().any(|e| e.kind == TraceKind::Error && e.session == 999));
}
