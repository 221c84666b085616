//! Fault-injecting stream wrapper: torn frames, stalls, and resets.
//!
//! [`ChaosStream`] wraps any `Read + Write` transport and consults a
//! shared [`FaultPlan`] before every I/O call:
//!
//! * [`FaultSite::NetRead`] — a `Latency` fault sleeps before the read,
//!   a `Reset` shuts the underlying socket down and returns
//!   `ConnectionReset`, an `IoError` fails the read outright.
//! * [`FaultSite::NetWrite`] — a `PartialWrite { keep }` writes only the
//!   first `keep` bytes and then reports `ConnectionReset` (the peer
//!   sees a torn frame), plus the same latency/reset/error kinds.
//!
//! Decisions are a pure function of `(seed, site, op_index)` — see
//! `hima-chaos` — so a failing run replays exactly from its seed. With
//! no plan attached the wrapper is two pointer-sized fields of overhead
//! and a `None` branch per call.

use hima_chaos::{io_error_for, FaultKind, FaultPlan, FaultSite};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A `Read + Write` transport with seeded fault injection on every call.
pub struct ChaosStream<S> {
    inner: S,
    plan: Option<Arc<FaultPlan>>,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner`; `plan = None` means pass-through.
    pub fn new(inner: S, plan: Option<Arc<FaultPlan>>) -> Self {
        ChaosStream { inner, plan }
    }

    /// Checks the plan at `site`; returns the fault to apply, if any.
    fn consult(&self, site: FaultSite) -> Option<FaultKind> {
        self.plan.as_deref().and_then(|p| p.check(site))
    }
}

/// Hook for kinds that must touch the transport itself (socket resets).
/// The default does nothing; `TcpStream` shuts both directions down so
/// the peer observes the reset too, not just this side's error return.
pub trait Resettable {
    /// Tears the transport down in-place (best effort).
    fn reset(&mut self) {}
}

impl Resettable for TcpStream {
    fn reset(&mut self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

impl Resettable for &TcpStream {
    fn reset(&mut self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

impl<S: Read + Resettable> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.consult(FaultSite::NetRead) {
            None => {}
            Some(FaultKind::Reset) => {
                self.inner.reset();
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected connection reset",
                ));
            }
            Some(kind) => {
                // Latency sleeps inside io_error_for and returns None;
                // IoError/Enospc return the error to surface.
                if let Some(e) = io_error_for(kind) {
                    return Err(e);
                }
            }
        }
        self.inner.read(buf)
    }
}

impl<S: Write + Resettable> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.consult(FaultSite::NetWrite) {
            None => {}
            Some(FaultKind::Reset) => {
                self.inner.reset();
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected connection reset",
                ));
            }
            Some(FaultKind::PartialWrite { keep }) => {
                // Push the torn prefix through, then kill the stream so
                // the peer sees a frame cut mid-body.
                let keep = keep.min(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                    let _ = self.inner.flush();
                }
                self.inner.reset();
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected torn write",
                ));
            }
            Some(kind) => {
                if let Some(e) = io_error_for(kind) {
                    return Err(e);
                }
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hima_chaos::FaultRule;

    /// In-memory transport for exercising the wrapper without sockets.
    struct Pipe {
        data: Vec<u8>,
        pos: usize,
        dead: bool,
    }

    impl Pipe {
        fn new(data: &[u8]) -> Self {
            Pipe { data: data.to_vec(), pos: 0, dead: false }
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.data.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Resettable for Pipe {
        fn reset(&mut self) {
            self.dead = true;
        }
    }

    #[test]
    fn no_plan_is_pass_through() {
        let mut s = ChaosStream::new(Pipe::new(b"abc"), None);
        let mut buf = [0u8; 3];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        s.write_all(b"xy").unwrap();
        assert!(!s.inner.dead);
    }

    #[test]
    fn injected_reset_kills_the_transport() {
        let plan = Arc::new(
            FaultPlan::new(3)
                .with_rule(FaultRule::at(FaultSite::NetRead, FaultKind::Reset, vec![1])),
        );
        let mut s = ChaosStream::new(Pipe::new(b"abcdef"), Some(plan));
        let mut buf = [0u8; 2];
        s.read_exact(&mut buf).unwrap(); // op 0: clean
        let err = s.read(&mut buf).unwrap_err(); // op 1: reset
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(s.inner.dead);
    }

    #[test]
    fn torn_write_keeps_only_the_prefix() {
        let plan = Arc::new(FaultPlan::new(9).with_rule(FaultRule::at(
            FaultSite::NetWrite,
            FaultKind::PartialWrite { keep: 3 },
            vec![0],
        )));
        let mut s = ChaosStream::new(Pipe::new(b""), Some(plan));
        let err = s.write(b"hello world").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(s.inner.data, b"hel");
        assert!(s.inner.dead);
    }

    #[test]
    fn disarmed_plan_is_inert_but_counts_ops() {
        let plan = Arc::new(FaultPlan::new(1).with_rule(FaultRule::probabilistic(
            FaultSite::NetRead,
            FaultKind::IoError,
            1000,
        )));
        plan.clear();
        let mut s = ChaosStream::new(Pipe::new(b"abcd"), Some(plan.clone()));
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(plan.ops(FaultSite::NetRead), 1);
        assert_eq!(plan.injected(FaultSite::NetRead), 0);
    }
}
