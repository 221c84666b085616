//! Chaos conformance: the fault-tolerance contract of the serving
//! stack, pinned under *deterministic* fault injection.
//!
//! Every test drives a real loopback server against a seeded
//! [`FaultPlan`] — disk faults inside the store, latency and panics at
//! the scheduler tick, torn frames and resets on the sockets — and
//! asserts the four promises the robustness layer makes:
//!
//! 1. The server never panics its way to a corrupt session: injected
//!    faults surface as **typed errors** (`Store`, `Overloaded`,
//!    `DeadlineExceeded`, `GroupFailed`), and once a plan is cleared the
//!    surviving sessions serve **bit-identically** to a fault-free run.
//! 2. An **acknowledged step is durable**: whatever the plan did to
//!    writes and fsyncs, a kill + restart on the same store directory
//!    replays every acked step, never an unacked one.
//! 3. A scheduler-group **panic is isolated**: the supervisor restarts
//!    the group, store-backed co-tenants resurrect from snapshot + log
//!    and continue bit-for-bit, unpersisted sessions fail *typed*.
//! 4. Overload is **shed, not absorbed**: queue budgets and deadlines
//!    reject with retry hints instead of stalling the grid.
//!
//! Fault decisions are pure functions of `(seed, site, op_index)`, so a
//! failing run replays exactly from its seed — and every test asserts
//! via the `fault.*` / `overload.*` / `supervisor.*` metric catalog that
//! the faults actually fired, so nothing here passes vacuously.

use hima::prelude::*;
use hima::serve::{
    ClientError, ClientOptions, FaultKind, FaultPlan, FaultRule, FaultSite, RetryPolicy, TraceKind,
};
use hima_serve::loadgen::synth_input;
use hima_serve::RawSessionSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn params() -> DncParams {
    DncParams::new(24, 6, 2).with_hidden(20).with_io(5, 5)
}

/// A unique scratch store directory (no `tempfile` crate in the
/// hermetic build; unique names keep parallel tests apart).
fn store_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hima-chaos-{}-{tag}-{n}", std::process::id()))
}

/// Solo reference: a single-lane engine stepped sequentially — the
/// fault-free replay every post-fault stream is compared against.
fn solo_outputs(spec: &EngineSpec, session: usize, steps: usize) -> Vec<Vec<f32>> {
    let p = params();
    let mut engine = EngineBuilder::new(p).with_spec(*spec).lanes(1).seed(42).build();
    (0..steps)
        .map(|t| {
            let input = synth_input(session, t, p.input_size);
            let y = engine.step_batch(&Matrix::from_rows(&[input.as_slice()]));
            y.row(0).to_vec()
        })
        .collect()
}

/// The solo engine's carried read row after `steps` steps.
fn solo_read_row(spec: &EngineSpec, session: usize, steps: usize) -> Vec<f32> {
    let p = params();
    let mut engine = EngineBuilder::new(p).with_spec(*spec).lanes(1).seed(42).build();
    for t in 0..steps {
        let input = synth_input(session, t, p.input_size);
        engine.step_batch(&Matrix::from_rows(&[input.as_slice()]));
    }
    engine.last_read_row(0).to_vec()
}

fn counter(server: &Server, name: &str) -> u64 {
    server.hub().metrics().snapshot().counter(name).unwrap_or(0)
}

/// Steps a session until the server acknowledges, retrying typed
/// `Store` errors (the WAL-append failure path: the step was *not*
/// applied, so resending it is exact-once by construction).
fn step_retrying_store_errors(
    client: &mut Client,
    session: u64,
    input: &[f32],
) -> (Vec<f32>, u64) {
    let mut store_errors = 0u64;
    for _ in 0..200 {
        match client.step(session, input) {
            Ok(y) => return (y, store_errors),
            Err(ClientError::Server(ServeError::Store(_))) => store_errors += 1,
            Err(e) => panic!("unexpected error while stepping through disk faults: {e}"),
        }
    }
    panic!("step never succeeded in 200 attempts — fault rate too high for the test");
}

/// Disk faults during serving surface as typed `Store` errors that
/// leave the step unapplied; once the plan clears, the *same* session
/// continues bit-identically to a fault-free replay. The server never
/// panics and the store never acknowledges a step it lost.
#[test]
fn disk_faults_fail_typed_and_cleared_plans_serve_bit_identically() {
    let p = params();
    let spec = EngineSpec::monolithic();
    let dir = store_dir("typed");
    // ~30% of log writes and ~20% of fsyncs fail; deterministic per
    // seed, so this test's exact fault schedule never drifts.
    let plan = Arc::new(
        FaultPlan::new(11)
            .with_rule(FaultRule::probabilistic(FaultSite::StoreWrite, FaultKind::IoError, 300))
            .with_rule(FaultRule::probabilistic(FaultSite::StoreFsync, FaultKind::Enospc, 200)),
    );
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        idle_timeout: None,
        ..ServeConfig::default()
    };
    let store = StoreConfig {
        dir: dir.clone(),
        snapshot_every: 1_000_000,
        max_parked: 64,
        faults: Some(Arc::clone(&plan)),
    };
    let server = Server::bind_with_store("127.0.0.1:0", cfg, Some(store)).expect("bind");
    let mut client = Client::connect(server.addr()).unwrap();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let session = client.open(&raw).unwrap();

    let total = 16;
    let want = solo_outputs(&spec, 0, total);
    let mut typed_failures = 0u64;
    for (t, w) in want.iter().enumerate().take(8) {
        let (y, retries) = step_retrying_store_errors(&mut client, session, &synth_input(0, t, p.input_size));
        typed_failures += retries;
        assert_eq!(&y, w, "step {t} diverged under disk faults");
    }
    assert!(plan.injected_disk() > 0, "no disk fault ever fired — the test is vacuous");
    assert!(typed_failures > 0, "faults fired but never surfaced as typed Store errors");
    assert!(counter(&server, "store.errors") > 0, "store.errors not counted");
    assert_eq!(counter(&server, "supervisor.restarts"), 0, "disk faults must not panic a group");

    // Faults stop; the surviving session serves on, bit for bit, with
    // no residue from the failed appends.
    plan.clear();
    for (t, w) in want.iter().enumerate().take(total).skip(8) {
        let y = client.step(session, &synth_input(0, t, p.input_size)).unwrap();
        assert_eq!(&y, w, "step {t} diverged after the plan cleared");
    }
    assert_eq!(client.read_rows(session).unwrap(), solo_read_row(&spec, 0, total), "read row");

    // The injection totals are visible to operators via the gauges.
    let snap = client.metrics().unwrap();
    assert!(snap.gauge("fault.disk.injected").unwrap_or(0) > 0, "fault.disk.injected gauge");
    client.close_session(session).unwrap();
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acked ⇒ durable, even when the disk misbehaves: a session stepped
/// through injected write/fsync faults, then killed without
/// ceremony, recovers on a fresh server with every acknowledged step
/// intact — the continuation is bit-identical to an uninterrupted run.
#[test]
fn acked_steps_survive_kill_and_restart_under_disk_faults() {
    let p = params();
    let spec = EngineSpec::sharded(3);
    let dir = store_dir("kill");
    // Writes and fsyncs both fail sometimes — a failed fsync leaves the
    // new frame in its slot, not known durable: the periodic compaction
    // at snapshot_every=4 races real faults, so recovery exercises
    // whichever slot/log split the plan left.
    let plan = Arc::new(
        FaultPlan::new(23)
            .with_rule(FaultRule::probabilistic(FaultSite::StoreWrite, FaultKind::IoError, 250))
            .with_rule(FaultRule::probabilistic(FaultSite::StoreFsync, FaultKind::IoError, 450)),
    );
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        idle_timeout: None,
        ..ServeConfig::default()
    };
    let total = 16;
    let want = solo_outputs(&spec, 0, total);
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);

    let first = Server::bind_with_store(
        "127.0.0.1:0",
        cfg.clone(),
        Some(StoreConfig {
            dir: dir.clone(),
            snapshot_every: 4,
            max_parked: 64,
            faults: Some(Arc::clone(&plan)),
        }),
    )
    .expect("bind");
    let mut client = Client::connect(first.addr()).unwrap();
    let session = client.open(&raw).unwrap();
    let mut got: Vec<Vec<f32>> = Vec::new();
    for t in 0..10 {
        let (y, _) = step_retrying_store_errors(&mut client, session, &synth_input(0, t, p.input_size));
        got.push(y);
    }
    assert!(plan.injected_disk() > 0, "no disk fault ever fired — the test is vacuous");
    assert!(counter(&first, "store.log_appends") > 0, "nothing was ever logged");
    // "Kill": drop without closing the session — the store is left
    // exactly as the faults shaped it (some snapshots may have failed;
    // the delta log holds every acked step since the last good one).
    drop(client);
    drop(first);

    let second = Server::bind_with_store(
        "127.0.0.1:0",
        cfg,
        Some(StoreConfig { dir: dir.clone(), snapshot_every: 4, max_parked: 64, faults: None }),
    )
    .expect("rebind");
    assert_eq!(counter(&second, "store.recovered"), 1, "session not adopted after the kill");
    let mut client = Client::connect(second.addr()).unwrap();
    for t in 10..total {
        got.push(client.step(session, &synth_input(0, t, p.input_size)).unwrap());
    }
    for (t, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "step {t} diverged across the faulty kill/restart");
    }
    assert_eq!(client.read_rows(session).unwrap(), solo_read_row(&spec, 0, total), "read row");
    client.close_session(session).unwrap();
    drop(client);
    drop(second);
    std::fs::remove_dir_all(&dir).ok();
}

/// Queue budgets reject with a typed `Overloaded` carrying a usable
/// retry hint — and the rejected command leaves no residue: the same
/// session immediately serves a right-sized request, bit-identically.
#[test]
fn admission_control_rejects_with_typed_overloaded() {
    let p = params();
    let spec = EngineSpec::monolithic();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let want = solo_outputs(&spec, 0, 3);
    let inputs: Vec<Vec<f32>> = (0..64).map(|t| synth_input(0, t, p.input_size)).collect();

    // (a) the per-session budget; (b) the global budget.
    let configs = [
        ("session budget", ServeConfig { session_queue_limit: 4, ..ServeConfig::default() }),
        ("global budget", ServeConfig { global_queue_limit: 8, ..ServeConfig::default() }),
    ];
    for (label, cfg) in configs {
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
        let mut client = Client::connect(server.addr()).unwrap();
        let session = client.open(&raw).unwrap();
        match client.step_stream(session, &inputs) {
            Err(ClientError::Server(ServeError::Overloaded { retry_after_ms })) => {
                assert!(retry_after_ms >= 1, "{label}: empty retry hint");
                assert!(retry_after_ms <= 30_000, "{label}: unbounded retry hint");
            }
            other => panic!("{label}: expected Overloaded, got {other:?}"),
        }
        assert!(counter(&server, "overload.shed") >= 1, "{label}: shed not counted");
        assert!(counter(&server, "err.overloaded") >= 1, "{label}: error class not counted");

        // The oversized request was rejected wholesale: nothing of it
        // was applied, so a right-sized stream starts from step 0.
        let got = client.step_stream(session, &inputs[..3]).unwrap();
        assert_eq!(got, want, "{label}: session state corrupted by the rejected request");
        client.close_session(session).unwrap();
        drop(client);
        drop(server);
    }
}

/// Queued steps whose deadline passes before the grid can serve them
/// are shed with a typed `DeadlineExceeded` — not silently dropped, and
/// not allowed to wedge the session: after the shed, the session resets
/// and replays a clean stream bit-identically.
#[test]
fn expired_deadlines_shed_queued_steps_with_typed_error() {
    let p = params();
    let spec = EngineSpec::monolithic();
    // Every working tick stalls 100ms (injected scheduler latency), so
    // a 25ms default deadline deterministically expires while the
    // stream's tail is still queued.
    let plan = Arc::new(FaultPlan::new(5).with_rule(FaultRule::probabilistic(
        FaultSite::SchedTick,
        FaultKind::Latency { micros: 100_000 },
        1000,
    )));
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        default_deadline: Some(Duration::from_millis(25)),
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.addr()).unwrap();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let session = client.open(&raw).unwrap();

    let inputs: Vec<Vec<f32>> = (0..8).map(|t| synth_input(0, t, p.input_size)).collect();
    match client.step_stream(session, &inputs) {
        Err(ClientError::Server(ServeError::DeadlineExceeded { session: s })) => {
            assert_eq!(s, session, "deadline error names the wrong session");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(counter(&server, "overload.deadline_expired") >= 1, "shed not counted");
    assert!(counter(&server, "err.deadline_exceeded") >= 1, "error class not counted");
    let events = client.trace_dump().unwrap();
    assert!(events.iter().any(|e| e.kind == TraceKind::Shed && e.session == session),
        "no Shed trace event for the expired stream");

    // Faults off, session reset: it serves a clean stream exactly.
    plan.clear();
    client.reset(session).unwrap();
    let want = solo_outputs(&spec, 0, 4);
    for (t, w) in want.iter().enumerate() {
        let y = client.step(session, &synth_input(0, t, p.input_size)).unwrap();
        assert_eq!(&y, w, "step {t} diverged after the deadline shed");
    }
    let snap = client.metrics().unwrap();
    assert!(snap.gauge("fault.sched.injected").unwrap_or(0) > 0, "fault.sched.injected gauge");
    assert_eq!(counter(&server, "supervisor.restarts"), 0, "latency must not panic a group");
    client.close_session(session).unwrap();
    drop(client);
    drop(server);
}

/// A panic inside the group scheduler is contained by the supervisor:
/// the in-flight command fails with a typed `GroupFailed`, the group
/// restarts, and store-backed co-tenant sessions resurrect from
/// snapshot + log — continuing bit-identically to a fault-free run.
#[test]
fn scheduler_panic_is_supervised_and_store_backed_sessions_resurrect() {
    let p = params();
    let spec = EngineSpec::monolithic();
    let dir = store_dir("panic");
    // One client issues single-step commands sequentially, so each step
    // is exactly one working tick: after 4 steps on each of the two
    // sessions the SchedTick op counter sits at 8, and the rule panics
    // the 9th working tick — session A's fifth step.
    let plan = Arc::new(FaultPlan::new(7).with_rule(FaultRule::at(
        FaultSite::SchedTick,
        FaultKind::Panic,
        vec![8],
    )));
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let store =
        StoreConfig { dir: dir.clone(), snapshot_every: 1_000_000, max_parked: 64, faults: None };
    let server = Server::bind_with_store("127.0.0.1:0", cfg, Some(store)).expect("bind");
    let mut client = Client::connect(server.addr()).unwrap();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let a = client.open(&raw).unwrap();
    let b = client.open(&raw).unwrap();
    for t in 0..4 {
        client.step(a, &synth_input(0, t, p.input_size)).unwrap();
    }
    let want_b = solo_outputs(&spec, 1, 8);
    for (t, w) in want_b.iter().enumerate().take(4) {
        let y = client.step(b, &synth_input(1, t, p.input_size)).unwrap();
        assert_eq!(&y, w, "pre-panic step {t} on session B");
    }

    // The panicking tick: the command that triggered it fails typed.
    match client.step(a, &synth_input(0, 4, p.input_size)) {
        Err(ClientError::Server(ServeError::GroupFailed(s))) => {
            assert_eq!(s, a, "GroupFailed names the wrong session");
        }
        other => panic!("expected GroupFailed for the in-flight step, got {other:?}"),
    }
    // Give the supervisor a beat to restart the group and resurrect.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(counter(&server, "supervisor.restarts"), 1, "supervisor never restarted");
    assert!(counter(&server, "supervisor.resurrected") >= 1, "nothing resurrected");
    let events = client.trace_dump().unwrap();
    assert!(events.iter().any(|e| e.kind == TraceKind::GroupPanic), "no GroupPanic trace");
    assert!(events.iter().any(|e| e.kind == TraceKind::GroupRestart), "no GroupRestart trace");

    // B was idle through the panic: its next command rehydrates it from
    // the write-ahead log and the stream continues bit-for-bit.
    for (t, w) in want_b.iter().enumerate().take(8).skip(4) {
        let y = client.step(b, &synth_input(1, t, p.input_size)).unwrap();
        assert_eq!(&y, w, "post-panic step {t} diverged on the resurrected session");
    }
    assert_eq!(client.read_rows(b).unwrap(), solo_read_row(&spec, 1, 8), "read row after panic");

    // A's id died with its in-flight command; it never silently aliases.
    match client.step(a, &synth_input(0, 5, p.input_size)) {
        Err(ClientError::Server(ServeError::UnknownSession(s))) => assert_eq!(s, a),
        other => panic!("expected UnknownSession for the failed id, got {other:?}"),
    }
    let snap = client.metrics().unwrap();
    assert_eq!(snap.gauge("fault.sched.injected"), Some(1), "exactly one injected panic");
    client.close_session(b).unwrap();
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Without a store there is nothing to resurrect from: after a group
/// panic every session of that group fails **typed** — `GroupFailed`
/// once on its next command, `UnknownSession` after — never a hang, and
/// the failure is visible in the supervisor metrics.
#[test]
fn scheduler_panic_without_store_fails_sessions_typed() {
    let p = params();
    let spec = EngineSpec::monolithic();
    // 2 steps on each session → SchedTick op counter at 4; the rule
    // panics the 5th working tick (A's third step).
    let plan = Arc::new(FaultPlan::new(9).with_rule(FaultRule::at(
        FaultSite::SchedTick,
        FaultKind::Panic,
        vec![4],
    )));
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.addr()).unwrap();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let a = client.open(&raw).unwrap();
    let b = client.open(&raw).unwrap();
    for t in 0..2 {
        client.step(a, &synth_input(0, t, p.input_size)).unwrap();
        client.step(b, &synth_input(1, t, p.input_size)).unwrap();
    }
    match client.step(a, &synth_input(0, 2, p.input_size)) {
        Err(ClientError::Server(ServeError::GroupFailed(s))) => assert_eq!(s, a),
        other => panic!("expected GroupFailed for the in-flight step, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(100));

    // B had no in-flight command, but with no store it cannot be
    // resurrected: one typed GroupFailed, then the id is gone.
    match client.step(b, &synth_input(1, 2, p.input_size)) {
        Err(ClientError::Server(ServeError::GroupFailed(s))) => assert_eq!(s, b),
        other => panic!("expected GroupFailed for the unpersisted survivor, got {other:?}"),
    }
    match client.step(b, &synth_input(1, 2, p.input_size)) {
        Err(ClientError::Server(ServeError::UnknownSession(s))) => assert_eq!(s, b),
        other => panic!("expected UnknownSession after the typed failure, got {other:?}"),
    }
    assert_eq!(counter(&server, "supervisor.restarts"), 1, "supervisor never restarted");
    assert_eq!(counter(&server, "supervisor.failed_sessions"), 2, "both sessions must fail");
    assert!(counter(&server, "err.group_failed") >= 2, "error class not counted");
    drop(client);
    drop(server);
}

/// Network faults — injected resets and torn frames on the server's
/// sockets — surface to the client as transport errors; a client with a
/// retry policy reconnects under seeded backoff, resumes the *same*
/// session by id, and reads state identical to a fault-free oracle.
#[test]
fn net_faults_reconnect_and_resume_bit_identically() {
    let p = params();
    let spec = EngineSpec::monolithic();
    let plan = Arc::new(
        FaultPlan::new(31)
            .with_rule(FaultRule::probabilistic(FaultSite::NetRead, FaultKind::Reset, 60))
            .with_rule(FaultRule::probabilistic(
                FaultSite::NetWrite,
                FaultKind::PartialWrite { keep: 2 },
                60,
            )),
    );
    // Disarmed while the session's state is built (the op counters
    // still advance — pass-through costs one branch per I/O call).
    plan.clear();
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        faults: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let opts = ClientOptions {
        rpc_deadline: None,
        retry: Some(RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            max_attempts: 8,
            seed: 3,
        }),
    };
    let mut client = Client::connect_with(server.addr(), opts).unwrap();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let session = client.open(&raw).unwrap();
    let total = 14;
    let want = solo_outputs(&spec, 0, total);
    for (t, w) in want.iter().enumerate().take(10) {
        let y = client.step(session, &synth_input(0, t, p.input_size)).unwrap();
        assert_eq!(&y, w, "pre-chaos step {t}");
    }
    let oracle_read = solo_read_row(&spec, 0, 10);

    // Chaos on: reads are idempotent, so the client's retry loop
    // reconnects through resets and torn frames and resends. Every
    // answer that comes back must still be the oracle row.
    plan.arm();
    let mut ok = 0u32;
    for round in 0..30 {
        match client.read_rows(session) {
            Ok(read) => {
                assert_eq!(read, oracle_read, "round {round}: read row corrupted by net faults");
                ok += 1;
            }
            // A round may exhaust its retries if the plan clusters
            // faults; the next round starts from a fresh connection.
            Err(ClientError::Io(_)) => {}
            Err(e) => panic!("round {round}: unexpected error class: {e}"),
        }
    }
    assert!(plan.injected_net() > 0, "no net fault ever fired — the test is vacuous");
    assert!(ok >= 20, "retry loop barely ever got through ({ok}/30 reads)");

    // Chaos off: the same session steps on, bit-identical — mid-frame
    // tears never corrupted server-side state.
    plan.clear();
    assert_eq!(client.read_rows(session).unwrap(), oracle_read, "read row after chaos");
    for (t, w) in want.iter().enumerate().take(total).skip(10) {
        let y = client.step(session, &synth_input(0, t, p.input_size)).unwrap();
        assert_eq!(&y, w, "post-chaos step {t}");
    }
    let snap = client.metrics().unwrap();
    assert!(snap.gauge("fault.net.injected").unwrap_or(0) > 0, "fault.net.injected gauge");
    assert_eq!(counter(&server, "supervisor.restarts"), 0, "net faults must not panic a group");
    client.close_session(session).unwrap();
    drop(client);
    drop(server);
}
