//! Session-lifecycle edge cases over a real loopback server: close
//! semantics, same-tick join/leave, grid overflow, idle reaping racing
//! in-flight streams, busy detection and shutdown draining.

use hima_serve::{
    ArrivalPattern, Client, ClientError, LoadConfig, RawSessionSpec, ServeConfig, Server,
    ServeError,
};
use std::time::Duration;

fn demo_input(t: usize) -> Vec<f32> {
    hima_serve::loadgen::synth_input(0, t, RawSessionSpec::demo().input_size as usize)
}

fn quick_cfg() -> ServeConfig {
    ServeConfig { tick: Duration::from_micros(200), ..ServeConfig::default() }
}

#[test]
fn open_step_close_round_trip() {
    let server = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open(&RawSessionSpec::demo()).unwrap();
    let y = client.step(session, &demo_input(0)).unwrap();
    assert_eq!(y.len(), RawSessionSpec::demo().output_size as usize);
    assert!(y.iter().all(|v| v.is_finite()));
    let read = client.read_rows(session).unwrap();
    let demo = RawSessionSpec::demo();
    assert_eq!(read.len(), (demo.read_heads * demo.word_size) as usize);
    client.close_session(session).unwrap();
}

#[test]
fn double_close_and_step_after_close_are_unknown_session() {
    let server = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open(&RawSessionSpec::demo()).unwrap();
    client.close_session(session).unwrap();
    match client.close_session(session) {
        Err(ClientError::Server(ServeError::UnknownSession(id))) => assert_eq!(id, session),
        other => panic!("double close: {other:?}"),
    }
    match client.step(session, &demo_input(0)) {
        Err(ClientError::Server(ServeError::UnknownSession(_))) => {}
        other => panic!("step after close: {other:?}"),
    }
    match client.read_rows(session) {
        Err(ClientError::Server(ServeError::UnknownSession(_))) => {}
        other => panic!("read after close: {other:?}"),
    }
}

#[test]
fn bad_specs_are_structured_errors_not_hangs() {
    let server = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut bad = RawSessionSpec::demo();
    bad.memory_size = 0;
    match client.open(&bad) {
        Err(ClientError::Server(ServeError::BadSpec(m))) => {
            assert!(m.contains("memory_size"), "{m}");
        }
        other => panic!("bad spec: {other:?}"),
    }
    // The connection survives the error and can open a valid session.
    let session = client.open(&RawSessionSpec::demo()).unwrap();
    // Wrong input width is rejected without advancing the session.
    match client.step(session, &[1.0, 2.0]) {
        Err(ClientError::Server(ServeError::BadInput(m))) => assert!(m.contains("got 2"), "{m}"),
        other => panic!("bad input: {other:?}"),
    }
    client.close_session(session).unwrap();
}

/// Hostile numerics stop at the hub: a NaN row and an infinite row are
/// each answered `BadInput` and never reach the grid — nothing is queued,
/// no step runs, and both the sender's own session and a co-tenant on the
/// same grid carry on bit-identically to a server that never saw them.
#[test]
fn non_finite_inputs_are_bad_input_and_touch_neither_queue_nor_cotenants() {
    let steps: Vec<Vec<f32>> = (0..8).map(demo_input).collect();
    let run = |hostile: bool| {
        let server = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let tenant = client.open(&RawSessionSpec::demo()).unwrap();
        let sender = client.open(&RawSessionSpec::demo()).unwrap();
        let mut outputs = Vec::new();
        for (t, input) in steps.iter().enumerate() {
            outputs.push(client.step(tenant, input).unwrap());
            outputs.push(client.step(sender, input).unwrap());
            if !hostile || t != 3 {
                continue;
            }
            let stepped = client.metrics().unwrap().counter("serve.scheduler.steps");
            for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut row = input.clone();
                *row.last_mut().unwrap() = poison;
                // Alone, and behind a clean row of the same request.
                for rows in [vec![row.clone()], vec![input.clone(), row.clone()]] {
                    match client.step_stream(sender, &rows) {
                        Err(ClientError::Server(ServeError::BadInput(m))) => {
                            assert!(m.contains("finite"), "{m}")
                        }
                        other => panic!("{poison} input: {other:?}"),
                    }
                }
            }
            let snap = client.metrics().unwrap();
            assert_eq!(snap.gauge("serve.scheduler.queue_depth"), Some(0), "nothing queued");
            assert_eq!(snap.counter("serve.scheduler.steps"), stepped, "nothing stepped");
        }
        outputs
    };
    let (clean, poisoned) = (run(false), run(true));
    assert!(clean.iter().flatten().all(|v| v.is_finite()));
    assert_eq!(clean, poisoned, "a rejected row changed a later output");
}

/// Sessions joining mid-stream and leaving mid-stream must not perturb a
/// co-tenant: the co-tenant's outputs are pinned bit-exactly by replaying
/// the identical stream on an otherwise idle server.
#[test]
fn join_and_leave_between_ticks_leave_cotenants_bit_identical() {
    let steps: Vec<Vec<f32>> = (0..24).map(demo_input).collect();

    // Reference: the same stream alone on a fresh server.
    let server = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let solo = client.open(&RawSessionSpec::demo()).unwrap();
    let want = client.step_stream(solo, &steps).unwrap();
    drop(client);
    drop(server);

    // Perturbed: a second session opens, streams and closes while the
    // primary stream is in flight on another connection.
    let server = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
    let addr = server.addr();
    let mut primary = Client::connect(addr).unwrap();
    let session = primary.open(&RawSessionSpec::demo()).unwrap();
    let streamer = std::thread::spawn({
        let steps = steps.clone();
        move || {
            let got = primary.step_stream(session, &steps).unwrap();
            (primary, got)
        }
    });
    let mut other = Client::connect(addr).unwrap();
    for _ in 0..3 {
        let tenant = other.open(&RawSessionSpec::demo()).unwrap();
        let inputs: Vec<Vec<f32>> = (0..5).map(|t| demo_input(t + 100)).collect();
        other.step_stream(tenant, &inputs).unwrap();
        other.close_session(tenant).unwrap();
    }
    let (_primary, got) = streamer.join().unwrap();
    assert_eq!(got.len(), want.len());
    for (t, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "co-tenant joins/leaves changed step {t}");
    }
}

/// More sessions than grid lanes: every session still completes (parked
/// sessions swap out through the lane-state splice and swap back in).
#[test]
fn grid_overflow_swaps_sessions_without_deadlock() {
    let cfg = ServeConfig { grid_lanes: 2, ..quick_cfg() };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..5)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let session = client.open(&RawSessionSpec::demo()).unwrap();
                let width = RawSessionSpec::demo().input_size as usize;
                for t in 0..20 {
                    let y = client
                        .step(session, &hima_serve::loadgen::synth_input(i, t, width))
                        .unwrap();
                    assert!(y.iter().all(|v| v.is_finite()));
                }
                client.close_session(session).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(server.hub().live_sessions(), 0);
}

/// An idle-timeout shorter than a stream's duration must never reap the
/// streaming session (in-flight work counts as activity), but an idle
/// session must go away — and later commands on it answer
/// `UnknownSession`.
#[test]
fn idle_reap_skips_in_flight_streams() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(1),
        idle_timeout: Some(Duration::from_millis(40)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open(&RawSessionSpec::demo()).unwrap();
    // ~100 ticks at 1ms each — far longer than the 40ms idle timeout.
    let inputs: Vec<Vec<f32>> = (0..100).map(demo_input).collect();
    let outputs = client.step_stream(session, &inputs).unwrap();
    assert_eq!(outputs.len(), 100, "in-flight stream survived the idle timeout");
    // Now actually idle: the session gets reaped.
    std::thread::sleep(Duration::from_millis(200));
    match client.step(session, &demo_input(0)) {
        Err(ClientError::Server(ServeError::UnknownSession(_))) => {}
        other => panic!("reaped session answered: {other:?}"),
    }
    assert_eq!(server.hub().live_sessions(), 0);
}

/// Two connections racing the same session id: the loser gets a
/// structured `SessionBusy`, not interleaved state corruption. Either
/// connection can lose the race (the prober's single step may be in
/// flight when the stream command arrives), so the streamer retries on
/// busy too — the test pins that *somebody* always gets the structured
/// error and both sides still run to completion.
#[test]
fn concurrent_commands_on_one_session_report_busy() {
    let cfg = ServeConfig { tick: Duration::from_millis(2), ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();
    let mut a = Client::connect(addr).unwrap();
    let session = a.open(&RawSessionSpec::demo()).unwrap();
    // A long stream holds the session busy for many scheduler ticks.
    let streamer = std::thread::spawn(move || {
        let inputs: Vec<Vec<f32>> = (0..1000).map(demo_input).collect();
        loop {
            match a.step_stream(session, &inputs) {
                Ok(got) => {
                    assert_eq!(got.len(), 1000);
                    break;
                }
                Err(ClientError::Server(ServeError::SessionBusy(_))) => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => panic!("streamer: {other:?}"),
            }
        }
    });
    let mut b = Client::connect(addr).unwrap();
    let mut saw_busy = false;
    for _ in 0..2000 {
        match b.step(session, &demo_input(0)) {
            Err(ClientError::Server(ServeError::SessionBusy(id))) => {
                assert_eq!(id, session);
                saw_busy = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_micros(200)),
            other => panic!("unexpected: {other:?}"),
        }
    }
    streamer.join().unwrap();
    assert!(saw_busy, "a racing step never observed SessionBusy");
}

/// Server shutdown must drain: a stream in flight when `stop` begins
/// completes with every output, and only then does the process wind
/// down.
#[test]
fn shutdown_drains_in_flight_streams() {
    let cfg = ServeConfig { tick: Duration::from_millis(1), ..ServeConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client.open(&RawSessionSpec::demo()).unwrap();
    let streamer = std::thread::spawn(move || {
        let inputs: Vec<Vec<f32>> = (0..150).map(demo_input).collect();
        client.step_stream(session, &inputs)
    });
    // Let the stream get going, then stop the server underneath it.
    std::thread::sleep(Duration::from_millis(10));
    server.stop();
    let outputs = streamer.join().unwrap().expect("drained stream completes");
    assert_eq!(outputs.len(), 150, "shutdown dropped queued steps");
}

/// A client-sent `Shutdown` flips the server's stop flag and rejects
/// further work with a structured error.
#[test]
fn client_shutdown_request_stops_the_server() {
    let server = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.shutdown_server().unwrap();
    assert!(server.shutdown_requested());
    match client.open(&RawSessionSpec::demo()) {
        Err(ClientError::Server(ServeError::ShuttingDown)) => {}
        other => panic!("post-shutdown open: {other:?}"),
    }
}

/// Closing or reaping a *parked* session must release exactly one unit
/// of `serve.sessions.parked` and free its swap slot: the gauge returns
/// to zero once every session is gone, never goes negative, and the
/// grid stays fully reusable afterwards. Pins the close/reap accounting
/// audited for a suspected double-decrement.
#[test]
fn parked_close_and_reap_keep_gauges_and_lanes_consistent() {
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        idle_timeout: Some(Duration::from_millis(60)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Six sessions on a two-lane grid: stepping them round-robin forces
    // at least four to sit parked (detached lane state) at any moment.
    let sessions: Vec<u64> =
        (0..6).map(|_| client.open(&RawSessionSpec::demo()).unwrap()).collect();
    for t in 0..3 {
        for (i, &s) in sessions.iter().enumerate() {
            let width = RawSessionSpec::demo().input_size as usize;
            client.step(s, &hima_serve::loadgen::synth_input(i, t, width)).unwrap();
        }
    }
    let parked = server.hub().metrics().snapshot().gauge("serve.sessions.parked").unwrap();
    assert!(parked > 0, "6 sessions on 2 lanes never parked anything");

    // Close half explicitly — some of these are parked right now.
    for &s in &sessions[..3] {
        client.close_session(s).unwrap();
    }
    // Let the idle sweep reap the other half (parked and resident alike).
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(server.hub().live_sessions(), 0);
    let snap = server.hub().metrics().snapshot();
    assert_eq!(snap.gauge("serve.sessions.parked"), Some(0), "parked gauge leaked or went negative");
    assert_eq!(snap.gauge("serve.sessions.live"), Some(0));

    // The grid is fully reusable: a fresh batch of sessions runs clean.
    for i in 0..4 {
        let s = client.open(&RawSessionSpec::demo()).unwrap();
        let width = RawSessionSpec::demo().input_size as usize;
        let y = client.step(s, &hima_serve::loadgen::synth_input(i, 0, width)).unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
        client.close_session(s).unwrap();
    }
}

/// `serve.scheduler.active_lanes` is "lanes stepped by the latest tick":
/// once every session has closed the group ticks idle and the gauge must
/// read 0 beside `serve.sessions.live`, not the last batch size forever.
#[test]
fn active_lanes_gauge_returns_to_zero_once_all_sessions_close() {
    let server = Server::bind("127.0.0.1:0", ServeConfig { grid_lanes: 4, ..quick_cfg() }).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let sessions: Vec<u64> =
        (0..3).map(|_| client.open(&RawSessionSpec::demo()).unwrap()).collect();
    for t in 0..4 {
        for &s in &sessions {
            client.step(s, &demo_input(t)).unwrap();
        }
    }
    let metrics = server.hub().metrics();
    assert_eq!(metrics.snapshot().counter("serve.scheduler.steps"), Some(12), "ticks did step lanes");
    for &s in &sessions {
        client.close_session(s).unwrap();
    }
    assert_eq!(server.hub().live_sessions(), 0);
    // The close reply is sent from inside the tick loop; the idle tick
    // that resets the gauge follows it, so wait for that tick.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.snapshot().gauge("serve.scheduler.active_lanes") != Some(0) {
        assert!(std::time::Instant::now() < deadline, "active_lanes stuck at the last batch size");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(metrics.snapshot().gauge("serve.sessions.live"), Some(0));
}

/// The load generator end-to-end: mixed arrival patterns against a small
/// grid, all sessions completing with sane latency accounting.
#[test]
fn loadgen_completes_under_both_arrival_patterns() {
    let cfg = ServeConfig { grid_lanes: 4, ..quick_cfg() };
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    for pattern in [
        ArrivalPattern::Uniform { interval: Duration::from_millis(2) },
        ArrivalPattern::Burst { size: 4, gap: Duration::from_millis(10) },
    ] {
        let report = hima_serve::run_load(
            server.addr(),
            &LoadConfig {
                spec: RawSessionSpec::demo(),
                sessions: 8,
                steps: 10,
                pattern,
                client: Default::default(),
            },
        );
        assert_eq!(report.completed, 8, "{pattern:?}");
        assert!(report.sessions_per_sec > 0.0);
        assert!(report.p50_step <= report.p99_step);
        assert!(report.p99_step > Duration::ZERO);
    }
}

/// Regression: connection bookkeeping must not grow without bound. Every
/// accepted connection used to leave its JoinHandle (and, for dead
/// peers, its TcpStream entry) in the server's maps forever; the accept
/// loop now sweeps finished handles. Churn many short-lived connections
/// and check the tracked sets stay small.
#[test]
fn connection_bookkeeping_is_swept() {
    let server = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
    for _ in 0..12 {
        let mut c = Client::connect(server.addr()).unwrap();
        let _ = c.metrics().unwrap();
        // Dropping the client closes the socket; the conn thread exits.
    }
    // Give the last conn thread a beat to observe the close and exit,
    // then trigger one more accept (the sweep runs per accept).
    std::thread::sleep(Duration::from_millis(100));
    let mut last = Client::connect(server.addr()).unwrap();
    let _ = last.metrics().unwrap();
    assert!(
        server.tracked_handles() <= 3,
        "finished connection handles not swept: {} tracked after churn",
        server.tracked_handles()
    );
    assert!(
        server.tracked_connections() <= 3,
        "dead connection sockets not swept: {} tracked after churn",
        server.tracked_connections()
    );
}

/// Regression: a failed eviction snapshot must never discard session
/// state. The idle sweep used to evict-and-drop even when the store
/// write failed; now the victim degrades to the in-RAM parked tier
/// (counted under `store.evict_refusals`) and keeps serving with its
/// newest state.
#[test]
fn failed_eviction_snapshot_degrades_to_parked_without_data_loss() {
    use hima_serve::{FaultKind, FaultPlan, FaultRule, FaultSite, StoreConfig};
    use std::sync::Arc;

    let dir = std::env::temp_dir()
        .join(format!("hima-evict-refusal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Only a snapshot syncs (the delta log never does), so this fails
    // every snapshot (eviction and compaction) while leaving the
    // write-ahead delta log fully functional.
    let plan = Arc::new(FaultPlan::new(7).with_rule(FaultRule::probabilistic(
        FaultSite::StoreFsync,
        FaultKind::IoError,
        1000,
    )));
    let cfg = ServeConfig {
        tick: Duration::from_micros(200),
        idle_timeout: Some(Duration::from_millis(40)),
        ..ServeConfig::default()
    };
    let store = StoreConfig {
        snapshot_every: 1_000_000,
        faults: Some(plan),
        ..StoreConfig::new(dir.clone())
    };
    let server = Server::bind_with_store("127.0.0.1:0", cfg, Some(store)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Establish distinctive state, remember its observable part.
    let session = client.open(&RawSessionSpec::demo()).unwrap();
    for t in 0..6 {
        client.step(session, &demo_input(t)).unwrap();
    }
    let read_before = client.read_rows(session).unwrap();

    // Let the idle sweep try (and fail) to evict, repeatedly.
    std::thread::sleep(Duration::from_millis(250));
    let snap = server.hub().metrics().snapshot();
    assert!(
        snap.counter("store.evict_refusals").unwrap_or(0) > 0,
        "the idle sweep never attempted (and refused) an eviction"
    );

    // The session survived with its newest state: same read row, and a
    // continued step matches a fault-free server fed the same inputs.
    let read_after = client.read_rows(session).unwrap();
    assert_eq!(read_before, read_after, "state lost across the refused eviction");
    let y = client.step(session, &demo_input(6)).unwrap();

    let clean = Server::bind("127.0.0.1:0", quick_cfg()).unwrap();
    let mut oracle = Client::connect(clean.addr()).unwrap();
    let oracle_session = oracle.open(&RawSessionSpec::demo()).unwrap();
    for t in 0..6 {
        oracle.step(oracle_session, &demo_input(t)).unwrap();
    }
    let y_oracle = oracle.step(oracle_session, &demo_input(6)).unwrap();
    assert_eq!(y, y_oracle, "post-refusal step diverged from fault-free replay");

    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
