//! Calibration probes: fixed pieces of work the benchmark times beside
//! the workload, so that the end-to-end timings can be read at one
//! reference speed of the host.
//!
//! The reference box shares its host. A CPU of it runs at one of about
//! three speeds — a pure-CPU loop takes 1.1, 1.45 or 2.0 ms — and changes
//! speed every few seconds, each CPU on its own. Thread CPU time slows
//! with the wall clock (no steal is charged), so it is instruction
//! throughput that moves, as under a busy sibling hyperthread. On top of
//! that, for minutes at a time, everything that enters the kernel — a
//! socket write, a context switch — costs up to half as much again while
//! pure computation is untouched. Twenty seconds hold a different mix of
//! all this every time: raw medians of the pure-CPU workload spread by
//! 12-19 % between identical runs, those of a served one by 21 %, and
//! the fastest windows of a run by as much, since the top speed may not
//! show up at all.
//!
//! A fixed piece of the same kind of work, timed on the same CPU every
//! few hundred microseconds, follows the host closely: window by window,
//! step p50 ÷ probe median stays within 2-3 % while both move by 35 %.
//! So every window is read in units of its probe. A change to the
//! program moves a step and not the probe, so the ratio between two
//! commits is the ratio of their wall times.
//!
//! Each kind of workload has its probe. [`Compute`] is arithmetic over
//! L1-resident data, like an engine step. [`Echo`] is one loopback TCP
//! round trip to a thread of the benchmark's own — two system calls and
//! two context switches each way, like a served step, and made of
//! `std::net` alone, so nothing in the program under test can speed it
//! up. Over 45 back-to-back `serve_churn` runs, three of which fell into
//! a slow-kernel spell (raw p50 255-272 us against 150-200), the p50
//! scaled by [`Echo`] stayed within 131-146 us; scaled by [`Compute`],
//! which never noticed the spell, it read 147-222.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

pub trait Probe {
    /// What the probe reads on the reference box at its fastest: timings
    /// are scaled to the speed at which the probe reads this.
    const REFERENCE_NS: f64;

    /// Does the probe's fixed work once and returns its wall time, or
    /// `None` if the work could not be done.
    fn read_ns(&mut self) -> Option<u32>;

    /// One reading as a share of the reference: 1 at the reference
    /// speed, 1.35 on a host a third slower.
    fn slowdown(&mut self) -> Option<f32> {
        self.read_ns().map(|ns| (ns as f64 / Self::REFERENCE_NS) as f32)
    }
}

fn elapsed_ns(since: Instant) -> u32 {
    since.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

/// The offline workloads' probe: a fixed 49 152 multiply-adds in 16
/// dependent chains over 8 KiB of stack. It reads 6.2, 7.3 or 8.3 us at
/// the box's three speeds.
pub struct Compute;

impl Probe for Compute {
    const REFERENCE_NS: f64 = 6200.0;

    fn read_ns(&mut self) -> Option<u32> {
        let t = Instant::now();
        let mut a = [0.0f32; 2048];
        for (i, v) in a.iter_mut().enumerate() {
            *v = i as f32 * 1e-3;
        }
        let mut acc = [0.0f32; 16];
        for _ in 0..black_box(24) {
            for chunk in black_box(&a).chunks_exact(16) {
                for (sum, v) in acc.iter_mut().zip(chunk) {
                    *sum = *sum * 0.999 + v;
                }
            }
        }
        black_box(acc);
        Some(elapsed_ns(t))
    }
}

/// Frame sizes of the echo: those of one `Step` request and its reply at
/// the served io width (`protocol.step_req_bytes`, `step_resp_bytes`).
const REQUEST_BYTES: usize = 81;
const REPLY_BYTES: usize = 73;

/// The served workloads' probe: one round trip over a loopback TCP
/// connection to an echo thread, which inherits the run's CPU pin. About
/// 7 us at the box's top speed, 9-10 us usually, 13-14 us in a
/// slow-kernel spell.
pub struct Echo {
    near: TcpStream,
    far: Option<JoinHandle<()>>,
}

impl Echo {
    /// Connects a loopback pair and starts its echo thread.
    pub fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        near.set_nodelay(true)?;
        let (mut far, _) = listener.accept()?;
        far.set_nodelay(true)?;
        let far = std::thread::spawn(move || {
            let mut frame = [0u8; REQUEST_BYTES];
            // Ends when the near side shuts the connection down.
            while far.read_exact(&mut frame).is_ok() && far.write_all(&frame[..REPLY_BYTES]).is_ok()
            {
            }
        });
        Ok(Echo { near, far: Some(far) })
    }
}

impl Probe for Echo {
    const REFERENCE_NS: f64 = 7000.0;

    fn read_ns(&mut self) -> Option<u32> {
        let mut frame = [0u8; REQUEST_BYTES];
        let t = Instant::now();
        self.near.write_all(&frame).ok()?;
        self.near.read_exact(&mut frame[..REPLY_BYTES]).ok()?;
        Some(elapsed_ns(t))
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Errors here mean the connection is already gone, which is what
        // ends the echo thread too.
        let _ = self.near.shutdown(Shutdown::Both);
        if let Some(far) = self.far.take() {
            let _ = far.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compute_probe_does_its_work() {
        let fastest = (0..200).filter_map(|_| Compute.read_ns()).min().unwrap();
        assert!(fastest > 500, "the probe was optimised away: {fastest} ns");
    }

    #[test]
    fn the_echo_probe_round_trips_and_stops() {
        let mut echo = Echo::start().unwrap();
        for _ in 0..50 {
            assert!(echo.read_ns().unwrap() > 0);
        }
        assert!(echo.slowdown().unwrap() > 0.0);
        // Dropping joins the echo thread; a hang here fails the test run.
        drop(echo);
    }
}
