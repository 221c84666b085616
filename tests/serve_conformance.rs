//! Serve conformance: the server's correctness contract, pinned.
//!
//! A session stepped through the server's continuously-batched lane grid
//! must be **bit-identical** to a solo single-lane engine stepped with
//! the same inputs — regardless of which sessions share the grid, when
//! they join or leave, and how often the session is swapped out to a
//! detached lane state and back in. The suite sweeps topology ×
//! datapath, forces swaps by running more concurrent sessions than the
//! grid has lanes, and interleaves the sessions from racing client
//! threads so tick co-tenancy is real and adversarial (the outputs must
//! not depend on which steps happened to share a tick).

use hima::prelude::*;
use hima_serve::loadgen::synth_input;
use hima_serve::RawSessionSpec;
use hima_testkit::{params, solo_replay, spec_grid};
use std::time::Duration;

/// Session `i`'s first `steps` input rows.
fn rows(i: usize, steps: usize) -> Vec<Vec<f32>> {
    (0..steps).map(|t| synth_input(i, t, params().input_size)).collect()
}

fn serve_cfg(grid_lanes: usize) -> ServeConfig {
    ServeConfig {
        grid_lanes,
        tick: Duration::from_micros(200),
        idle_timeout: None,
        ..ServeConfig::default()
    }
}

/// The headline contract: 5 concurrent sessions on a 2-lane grid (every
/// session repeatedly parked, swapped out and swapped back in), outputs
/// and read rows bit-identical to solo replay, across every topology ×
/// datapath combination.
#[test]
fn grid_sessions_match_solo_replay_bit_exactly() {
    let p = params();
    for (label, spec) in spec_grid() {
        let server = Server::bind("127.0.0.1:0", serve_cfg(2)).expect("bind");
        let addr = server.addr();
        let raw = RawSessionSpec::from_parts(&p, &spec, 42);
        let steps = 12;
        let handles: Vec<_> = (0..5)
            .map(|i| {
                let raw = raw.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let session = client.open(&raw).unwrap();
                    // Mix single steps and bursts so lane residency spans
                    // several requests for some steps and one for others.
                    let mut got: Vec<Vec<f32>> = Vec::new();
                    let mut t = 0;
                    while t < steps {
                        let burst = if (t + i) % 3 == 0 { 3.min(steps - t) } else { 1 };
                        let inputs: Vec<Vec<f32>> =
                            (t..t + burst).map(|s| synth_input(i, s, p.input_size)).collect();
                        got.extend(client.step_stream(session, &inputs).unwrap());
                        t += burst;
                    }
                    let read = client.read_rows(session).unwrap();
                    client.close_session(session).unwrap();
                    (i, got, read)
                })
            })
            .collect();
        for handle in handles {
            let (i, got, read) = handle.join().unwrap();
            let (want, want_read) = solo_replay(p, spec, 42, &rows(i, steps));
            assert_eq!(got.len(), want.len(), "{label} session {i}");
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{label}: session {i} step {t} diverged from solo replay");
            }
            // The queried read row equals the solo engine's carried read
            // vector after the same stream.
            assert_eq!(read, want_read, "{label}: session {i} read row");
        }
    }
}

/// Heavy churn: four times as many sessions as lanes, stepped
/// round-robin by one client. A full grid parks the idle resident on its
/// lowest lane, so lane 0 churns and lane 1 keeps session 1: after the
/// first round every step but session 1's misses the grid, and the
/// session coming back trades places with the one stepped just before
/// it. Every output is bit-equal to solo replay, and the ledger closes:
/// the sessions are drained so that each one is resident when it closes
/// (the two residents at once, the rest after one more step onto a freed
/// lane), which makes every park a later splice — `parks == splices`,
/// both the exact count the schedule implies.
#[test]
fn round_robin_churn_matches_solo_replay_with_every_park_spliced() {
    let p = params();
    let (lanes, sessions, rounds) = (2usize, 8usize, 5usize);
    for (label, spec) in spec_grid() {
        let server = Server::bind("127.0.0.1:0", serve_cfg(lanes)).expect("bind");
        let mut client = Client::connect(server.addr()).unwrap();
        let raw = RawSessionSpec::from_parts(&p, &spec, 42);
        let ids: Vec<u64> = (0..sessions).map(|_| client.open(&raw).unwrap()).collect();
        let want: Vec<_> = (0..sessions).map(|i| solo_replay(p, spec, 42, &rows(i, rounds + 1)).0).collect();
        let step = |client: &mut Client, i: usize, t: usize| {
            let y = client.step(ids[i], &synth_input(i, t, p.input_size)).unwrap();
            assert_eq!(y, want[i][t], "{label}: session {i} step {t} diverged from solo replay");
        };
        for t in 0..rounds {
            (0..sessions).for_each(|i| step(&mut client, i, t));
        }
        let snapshot = server.hub().metrics().snapshot();
        let parked = sessions - lanes;
        assert_eq!(snapshot.gauge("serve.sessions.parked"), Some(parked as i64), "{label}");
        let resident = [1, sessions - 1];
        for i in resident {
            client.close_session(ids[i]).unwrap();
        }
        for i in (0..sessions).filter(|i| !resident.contains(i)) {
            step(&mut client, i, rounds);
            client.close_session(ids[i]).unwrap();
        }
        let snapshot = server.hub().metrics().snapshot();
        let churned = (parked + (rounds - 1) * (sessions - 1)) as u64;
        assert_eq!(snapshot.counter("serve.scheduler.parks"), Some(churned), "{label}");
        assert_eq!(snapshot.counter("serve.scheduler.splices"), Some(churned), "{label}");
        assert_eq!(snapshot.gauge("serve.sessions.parked"), Some(0), "{label}");
    }
}

/// Reset through the server equals a fresh solo engine: the session's
/// post-reset stream replays the solo outputs from scratch.
#[test]
fn server_reset_matches_fresh_engine_bit_exactly() {
    let p = params();
    let spec = EngineSpec::sharded(3);
    let server = Server::bind("127.0.0.1:0", serve_cfg(2)).expect("bind");
    let mut client = Client::connect(server.addr()).unwrap();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let session = client.open(&raw).unwrap();
    for t in 0..6 {
        client.step(session, &synth_input(0, t, p.input_size)).unwrap();
    }
    client.reset(session).unwrap();
    let (want, _) = solo_replay(p, spec, 42, &rows(0, 6));
    for (t, w) in want.iter().enumerate() {
        let y = client.step(session, &synth_input(0, t, p.input_size)).unwrap();
        assert_eq!(&y, w, "post-reset step {t}");
    }
    client.close_session(session).unwrap();
}

/// Sessions opened with the `Blocked` label — the wire spec's `blocked`
/// bit, which the server stores and no kernel reads — are served in
/// lockstep with the solo replay of a **`Scalar`** engine: the one
/// numerics contract holds whatever the label says.
#[test]
fn blocked_backend_sessions_match_blocked_solo_replay() {
    let p = params();
    let spec = EngineSpec::monolithic().with_backend(hima::tensor::Backend::Blocked);
    let server = Server::bind("127.0.0.1:0", serve_cfg(2)).expect("bind");
    let addr = server.addr();
    let raw = RawSessionSpec::from_parts(&p, &spec, 42);
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let raw = raw.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let session = client.open(&raw).unwrap();
                let inputs: Vec<Vec<f32>> =
                    (0..10).map(|t| synth_input(i, t, p.input_size)).collect();
                let got = client.step_stream(session, &inputs).unwrap();
                client.close_session(session).unwrap();
                (i, got)
            })
        })
        .collect();
    for handle in handles {
        let (i, got) = handle.join().unwrap();
        let (want, _) = solo_replay(p, EngineSpec::monolithic(), 42, &rows(i, 10));
        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "blocked session {i} step {t}");
        }
    }
}

/// Sessions of *different* configurations coexist on one server (one
/// grid per configuration) without contaminating each other.
#[test]
fn mixed_config_sessions_stay_isolated() {
    let p = params();
    let server = Server::bind("127.0.0.1:0", serve_cfg(2)).expect("bind");
    let addr = server.addr();
    let handles: Vec<_> = spec_grid()
        .into_iter()
        .enumerate()
        .map(|(i, (label, spec))| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let raw = RawSessionSpec::from_parts(&p, &spec, 42);
                let session = client.open(&raw).unwrap();
                let inputs: Vec<Vec<f32>> =
                    (0..8).map(|t| synth_input(i, t, p.input_size)).collect();
                let got = client.step_stream(session, &inputs).unwrap();
                client.close_session(session).unwrap();
                let (want, _) = solo_replay(p, spec, 42, &rows(i, 8));
                for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g, w, "{label}: step {t} diverged with mixed co-tenants");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}
