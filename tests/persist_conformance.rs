//! Persistence conformance: the durable session tier's correctness
//! contract, pinned.
//!
//! A session that is evicted to the store and rehydrated — or whose
//! process dies and is recovered from snapshot + delta-log replay on the
//! next boot — must be **bit-identical** to a session that was never
//! persisted at all, across topology × datapath (and under the inert
//! `Backend` label, which the store manifests round-trip). The suite
//! drives real loopback servers with a real store directory, asserts the
//! evictions/recoveries actually happened (via the `store.*` metric
//! catalog, so no test passes vacuously), and compares every output and
//! read row against solo single-lane replay.

use hima::prelude::*;
use hima_serve::loadgen::synth_input;
use hima_serve::RawSessionSpec;
use hima_testkit::{params, scratch, solo_replay, spec_grid, wait_until, ManualClock};
use std::sync::Arc;
use std::time::Duration;

/// Session `i`'s first `steps` input rows.
fn rows(i: usize, steps: usize) -> Vec<Vec<f32>> {
    (0..steps).map(|t| synth_input(i, t, params().input_size)).collect()
}

/// An evicting server: idle sessions spill to `store` once `clock` has
/// moved past the idle timeout.
fn evicting_server(store: StoreConfig, clock: &ManualClock) -> Server {
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        idle_timeout: Some(Duration::from_millis(40)),
        ..ServeConfig::default()
    };
    Server::bind_with_clock("127.0.0.1:0", cfg, Some(store), Arc::new(clock.reader())).expect("bind")
}

/// Moves `clock` past the idle timeout and waits for the sweep to evict.
fn evict_idle(server: &Server, clock: &ManualClock) -> bool {
    clock.advance(Duration::from_millis(100));
    wait_until(Duration::from_secs(10), || counter(server, "store.evictions") > 0)
}

fn counter(server: &Server, name: &str) -> u64 {
    server.hub().metrics().snapshot().counter(name).unwrap_or(0)
}

/// The sum of histogram `name`'s samples.
fn histogram_sum(server: &Server, name: &str) -> u64 {
    server.hub().metrics().snapshot().histogram(name).map_or(0, |h| h.sum)
}

/// Evict → rehydrate → continue ≡ never evicted, bit for bit, for every
/// topology × datapath (× label): the idle sweep spills the session to
/// disk (asserted via `store.evictions`), and its next command pulls it
/// back through snapshot decode + log replay without perturbing a
/// single bit of the stream.
#[test]
fn evicted_sessions_continue_bit_identically() {
    let p = params();
    for (label, spec) in spec_grid() {
        let dir = scratch("persist-evict");
        // Snapshot every 3 steps so periodic compaction interleaves
        // with the stream before the eviction takes its final full
        // snapshot (eviction snapshots at the current seq, so the
        // rehydrate below restores state with an empty replay window —
        // the kill-recovery test covers the replaying variant).
        let store = StoreConfig { dir: dir.clone(), snapshot_every: 3, max_parked: 64, faults: None };
        let clock = ManualClock::default();
        let server = evicting_server(store, &clock);
        let mut client = Client::connect(server.addr()).unwrap();
        let raw = RawSessionSpec::from_parts(&p, &spec, 42);
        let session = client.open(&raw).unwrap();

        let total = 14;
        let (want, want_read) = solo_replay(p, spec, 42, &rows(0, total));
        let mut got: Vec<Vec<f32>> = Vec::new();
        for t in 0..7 {
            got.push(client.step(session, &synth_input(0, t, p.input_size)).unwrap());
        }
        // Go idle past the timeout so the sweep evicts (not reaps: the
        // id must stay routable).
        assert!(
            evict_idle(&server, &clock),
            "{label}: idle session was never evicted — the test would be vacuous"
        );
        assert_eq!(server.hub().live_sessions(), 1, "{label}: eviction dropped the route");

        // The next commands transparently rehydrate and continue.
        for t in 7..total {
            got.push(client.step(session, &synth_input(0, t, p.input_size)).unwrap());
        }
        assert!(counter(&server, "store.rehydrations") > 0, "{label}: never rehydrated");
        assert_eq!(counter(&server, "store.errors"), 0, "{label}: store errors");
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{label}: step {t} diverged across evict/rehydrate");
        }
        let read = client.read_rows(session).unwrap();
        assert_eq!(read, want_read, "{label}: read row");
        client.close_session(session).unwrap();
        drop(client);
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A `ReadRows` as the *first* command after eviction: the read row
/// must come back exactly as the snapshot carried it — the rehydrated
/// session answers reads without ever touching the grid.
#[test]
fn read_rows_after_eviction_restores_the_snapshot_read_row() {
    let p = params();
    let spec = EngineSpec::sharded(3);
    let dir = scratch("persist-readrows");
    // Never compact periodically: the eviction's own snapshot is the
    // only one, so the restored read row comes from exactly one place.
    let store = StoreConfig { dir: dir.clone(), snapshot_every: 1_000_000, max_parked: 64, faults: None };
    let clock = ManualClock::default();
    let server = evicting_server(store, &clock);
    let mut client = Client::connect(server.addr()).unwrap();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let session = client.open(&raw).unwrap();
    let steps = 10;
    for t in 0..steps {
        client.step(session, &synth_input(0, t, p.input_size)).unwrap();
    }
    assert!(evict_idle(&server, &clock), "never evicted");

    // First command after eviction is the read itself: it triggers the
    // rehydration and must see the restored state.
    let read = client.read_rows(session).unwrap();
    assert_eq!(read, solo_replay(p, spec, 42, &rows(0, steps)).1, "deferred read row");
    client.close_session(session).unwrap();
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-recover: a server dies (dropped with sessions open — the
/// store is left exactly as a SIGKILL would leave it, snapshot plus
/// un-compacted delta-log tail), a fresh server boots on the same
/// directory, adopts the session under its old id, replays, and the
/// stream continues bit-identically to one uninterrupted run. The
/// replayed steps count under `serve.scheduler.steps` beside the served
/// ones, and a read as the first command sees the recovered state.
#[test]
fn killed_server_recovers_sessions_from_snapshot_and_log() {
    let p = params();
    for (label, spec) in [("sharded(3)/f32", EngineSpec::sharded(3)),
        (
            "monolithic/Q16.16",
            EngineSpec::monolithic().with_datapath(Datapath::Quantized(QFormat::q16_16())),
        )]
    {
        let dir = scratch("persist-kill");
        let cfg = ServeConfig {
            grid_lanes: 2,
            tick: Duration::from_micros(200),
            idle_timeout: None,
            ..ServeConfig::default()
        };
        // snapshot_every 4 over 10 steps: compaction at 4 and 8, so the
        // store holds snapshot@8 + log records 9..10 at the "kill".
        let mk_store =
            || StoreConfig { dir: dir.clone(), snapshot_every: 4, max_parked: 64, faults: None };
        let raw = RawSessionSpec::from_parts(&p, &spec, 42);
        let total = 16;
        let (want, want_read) = solo_replay(p, spec, 42, &rows(0, total));

        let first = Server::bind_with_store("127.0.0.1:0", cfg.clone(), Some(mk_store())).expect("bind");
        let mut client = Client::connect(first.addr()).unwrap();
        let session = client.open(&raw).unwrap();
        let mut got: Vec<Vec<f32>> = Vec::new();
        for t in 0..10 {
            got.push(client.step(session, &synth_input(0, t, p.input_size)).unwrap());
        }
        assert!(counter(&first, "store.log_appends") > 0, "{label}: nothing logged");
        // "Kill": tear the server down without closing the session. The
        // clean drop takes no extra snapshot, so recovery genuinely
        // exercises the log-replay path for steps 9..10.
        drop(client);
        drop(first);

        let second = Server::bind_with_store("127.0.0.1:0", cfg.clone(), Some(mk_store())).expect("rebind");
        assert_eq!(counter(&second, "store.recovered"), 1, "{label}: adoption count");
        assert_eq!(second.hub().live_sessions(), 1, "{label}: adopted id not routable");
        let mut client = Client::connect(second.addr()).unwrap();
        let read = client.read_rows(session).unwrap();
        assert_eq!(read, solo_replay(p, spec, 42, &rows(0, 10)).1, "{label}: first read after recovery");
        // The old id keeps working on the new process.
        for t in 10..total {
            got.push(client.step(session, &synth_input(0, t, p.input_size)).unwrap());
        }
        assert!(counter(&second, "store.rehydrations") > 0, "{label}: never rehydrated");
        assert_eq!(counter(&second, "store.errors"), 0, "{label}: store errors");
        assert_eq!(histogram_sum(&second, "store.replay_steps"), 2, "{label}: log records replayed");
        assert_eq!(counter(&second, "serve.scheduler.steps"), 6 + 2, "{label}: served + replayed steps");
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{label}: step {t} diverged across the restart");
        }
        let read = client.read_rows(session).unwrap();
        assert_eq!(read, want_read, "{label}: read row after recovery");

        // New sessions on the recovered server never alias the old id.
        let fresh = client.open(&raw).unwrap();
        assert_ne!(fresh, session, "{label}: recovered id reused");
        client.close_session(fresh).unwrap();
        client.close_session(session).unwrap();
        drop(client);
        drop(second);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A spilled session's delta log survives with a torn tail (simulating
/// a crash mid-append): recovery keeps the acknowledged prefix, flags
/// the tear in `store.torn_tails`, and the session still serves.
#[test]
fn torn_log_tail_recovers_the_acknowledged_prefix() {
    let p = params();
    let spec = EngineSpec::monolithic();
    let dir = scratch("persist-torn");
    let cfg = ServeConfig {
        grid_lanes: 2,
        tick: Duration::from_micros(200),
        idle_timeout: None,
        ..ServeConfig::default()
    };
    let mk_store = || StoreConfig { dir: dir.clone(), snapshot_every: 1_000_000, max_parked: 64, faults: None };
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);

    let first = Server::bind_with_store("127.0.0.1:0", cfg.clone(), Some(mk_store())).expect("bind");
    let mut client = Client::connect(first.addr()).unwrap();
    let session = client.open(&raw).unwrap();
    let steps = 6;
    for t in 0..steps {
        client.step(session, &synth_input(0, t, p.input_size)).unwrap();
    }
    drop(client);
    drop(first);

    // Tear the log mid-record: chop 5 bytes off the end. The final
    // append is lost; every record before it must recover.
    let log_path = dir.join(format!("sess-{session}.log"));
    let bytes = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &bytes[..bytes.len() - 5]).unwrap();

    let second = Server::bind_with_store("127.0.0.1:0", cfg.clone(), Some(mk_store())).expect("rebind");
    let mut client = Client::connect(second.addr()).unwrap();
    let read = client.read_rows(session).unwrap();
    assert!(counter(&second, "store.torn_tails") > 0, "tear not observed");
    // The recovered state is the stream *minus the torn final step*.
    let (want, _) = solo_replay(p, spec, 42, &rows(0, steps));
    assert_eq!(read, solo_replay(p, spec, 42, &rows(0, steps - 1)).1, "prefix state after torn tail");
    // And the session keeps serving from there.
    let y = client.step(session, &synth_input(0, steps - 1, p.input_size)).unwrap();
    assert_eq!(&y, want.last().unwrap(), "step after tear");
    client.close_session(session).unwrap();
    drop(client);
    drop(second);
    std::fs::remove_dir_all(&dir).ok();
}

/// A stored session that adoption skips keeps its id: a store directory
/// whose only file is a garbage `sess-3.log` boots with one
/// `store.errors`, and the sessions opened afterwards all get ids past 3,
/// step like solo replay, and leave the skipped file as it was.
#[test]
fn new_ids_start_past_every_stored_session_even_a_skipped_one() {
    let p = params();
    let spec = EngineSpec::monolithic();
    let dir = scratch("persist-skipped-id");
    let garbage = dir.join("sess-3.log");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&garbage, b"not a delta log").unwrap();
    let cfg = ServeConfig { grid_lanes: 2, tick: Duration::from_micros(200), ..ServeConfig::default() };
    let store = StoreConfig { dir: dir.clone(), snapshot_every: 1_000_000, max_parked: 64, faults: None };
    let server = Server::bind_with_store("127.0.0.1:0", cfg, Some(store)).expect("bind");
    assert_eq!(counter(&server, "store.errors"), 1, "the garbage log is skipped, counted");
    assert_eq!(counter(&server, "store.recovered"), 0);

    let mut client = Client::connect(server.addr()).unwrap();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let steps = 4;
    let (want, _) = solo_replay(p, spec, 42, &rows(0, steps));
    for _ in 0..3 {
        let session = client.open(&raw).unwrap();
        assert!(session > 3, "new session {session} reuses or precedes a stored id");
        let got: Vec<Vec<f32>> =
            (0..steps).map(|t| client.step(session, &synth_input(0, t, p.input_size)).unwrap()).collect();
        assert_eq!(got, want, "session {session}");
    }
    assert_eq!(counter(&server, "store.errors"), 1, "a fresh session touched the skipped files");
    assert_eq!(std::fs::read(&garbage).unwrap(), b"not a delta log", "the skipped log was rewritten");
    assert!(!dir.join("sess-3.snap").exists() && !dir.join("sess-3.snap1").exists());
    drop(client);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
