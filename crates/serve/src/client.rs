//! Typed blocking client for the session server.
//!
//! One [`Client`] is one TCP connection issuing synchronous
//! request/reply calls. Sessions are plain `u64` ids, so several
//! connections can drive (or observe) the same session — the server
//! serializes them, answering `SessionBusy` when two commands race.
//!
//! # Resilience
//!
//! [`ClientOptions`] turns on the fault-tolerant client behaviors:
//!
//! * `rpc_deadline` — applied as the socket read/write timeout *and*
//!   carried in every step request as its server-side deadline, so a
//!   stuck call fails typed instead of hanging forever,
//! * `retry` — a seeded [`RetryPolicy`]: on a transport error the client
//!   reconnects under jittered capped exponential backoff, and
//!   **idempotent** requests (`Open`, `ReadRows`, `Metrics`,
//!   `TraceDump`) are transparently resent. Non-idempotent requests
//!   (steps, resets, closes) still surface the original transport
//!   error — the reconnected socket is
//!   simply ready for the caller's own retry, and because session ids
//!   are server-side state, the same session resumes over the new
//!   connection.

use crate::protocol::{
    read_frame, write_frame, RawSessionSpec, Request, Response, ServeError,
};
use crate::retry::RetryPolicy;
use hima_telemetry::{MetricsSnapshot, TraceEvent};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure: transport, server-reported, or a reply that
/// doesn't fit the request.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered with a structured error.
    Server(ServeError),
    /// The reply did not decode, or was the wrong variant for the
    /// request.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Resilience knobs for a [`Client`]. The default is the bare client:
/// no deadlines, no reconnection.
#[derive(Debug, Clone, Default)]
pub struct ClientOptions {
    /// Per-call deadline: set as the socket read/write timeout and sent
    /// as the server-side deadline of every step request.
    pub rpc_deadline: Option<Duration>,
    /// Reconnect-with-backoff policy for transport errors; idempotent
    /// requests are resent automatically after a reconnect.
    pub retry: Option<RetryPolicy>,
}

/// A blocking connection to a session server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: SocketAddr,
    opts: ClientOptions,
}

impl Client {
    /// Connects to a server with default (bare) options.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connects to a server with explicit resilience options.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        opts: ClientOptions,
    ) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                ))
            })?;
        let (reader, writer) = open_stream(addr, &opts)?;
        Ok(Self { reader, writer, addr, opts })
    }

    /// The step deadline carried on the wire: the configured rpc
    /// deadline in whole milliseconds (0 = server default).
    fn wire_deadline_ms(&self) -> u32 {
        self.opts
            .rpc_deadline
            .map(|d| d.as_millis().min(u32::MAX as u128) as u32)
            .unwrap_or(0)
    }

    /// One write + read exchange over the current connection.
    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &req.encode())?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server hung up",
            ))
        })?;
        Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// One synchronous request/reply exchange. With a retry policy
    /// configured, transport errors trigger reconnection under jittered
    /// backoff; idempotent requests are then resent, non-idempotent
    /// ones surface the original error over a freshly usable connection.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let first = match self.exchange(req) {
            Ok(Response::Error(e)) => return Err(ClientError::Server(e)),
            Ok(resp) => return Ok(resp),
            Err(ClientError::Io(e)) => e,
            Err(other) => return Err(other),
        };
        let Some(policy) = self.opts.retry else {
            return Err(ClientError::Io(first));
        };
        let mut last = first;
        for attempt in 0..policy.max_attempts {
            std::thread::sleep(policy.backoff(attempt));
            match open_stream(self.addr, &self.opts) {
                Ok((reader, writer)) => {
                    self.reader = reader;
                    self.writer = writer;
                }
                Err(ClientError::Io(e)) => {
                    last = e;
                    continue;
                }
                Err(other) => return Err(other),
            }
            if !req.is_idempotent() {
                // Reconnected, but resending could double-apply the
                // command; the caller decides. Session ids live on the
                // server, so its next call resumes the same session
                // over this connection.
                return Err(ClientError::Io(last));
            }
            match self.exchange(req) {
                Ok(Response::Error(e)) => return Err(ClientError::Server(e)),
                Ok(resp) => return Ok(resp),
                Err(ClientError::Io(e)) => last = e,
                Err(other) => return Err(other),
            }
        }
        Err(ClientError::Io(last))
    }

    /// Opens a session with the given configuration; returns its id.
    pub fn open(&mut self, spec: &RawSessionSpec) -> Result<u64, ClientError> {
        match self.call(&Request::Open { spec: spec.clone() })? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Advances a session by one step; returns the output row.
    pub fn step(&mut self, session: u64, input: &[f32]) -> Result<Vec<f32>, ClientError> {
        let deadline_ms = self.wire_deadline_ms();
        match self.call(&Request::Step { session, input: input.to_vec(), deadline_ms })? {
            Response::Stepped { mut outputs } if outputs.len() == 1 => Ok(outputs.remove(0)),
            other => Err(unexpected("Stepped{1}", &other)),
        }
    }

    /// Advances a session by `inputs.len()` steps (queued server-side,
    /// interleaving tick-by-tick with co-tenant sessions); returns all
    /// output rows.
    pub fn step_stream(
        &mut self,
        session: u64,
        inputs: &[Vec<f32>],
    ) -> Result<Vec<Vec<f32>>, ClientError> {
        let deadline_ms = self.wire_deadline_ms();
        match self.call(&Request::StepStream { session, inputs: inputs.to_vec(), deadline_ms })? {
            Response::Stepped { outputs } => Ok(outputs),
            other => Err(unexpected("Stepped", &other)),
        }
    }

    /// Queries the session's current read-vector row.
    pub fn read_rows(&mut self, session: u64) -> Result<Vec<f32>, ClientError> {
        match self.call(&Request::ReadRows { session })? {
            Response::Rows { read } => Ok(read),
            other => Err(unexpected("Rows", &other)),
        }
    }

    /// Resets a session to blank state (same weights).
    pub fn reset(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Request::Reset { session })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Closes a session.
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Request::Close { session })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Fetches the server-wide metrics snapshot (counters, gauges and
    /// latency histograms; see [`crate::metrics`] for the catalog).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Fetches the session-lifecycle trace ring (oldest event first).
    pub fn trace_dump(&mut self) -> Result<Vec<TraceEvent>, ClientError> {
        match self.call(&Request::TraceDump)? {
            Response::Trace { events: e } => Ok(e),
            other => Err(unexpected("Trace", &other)),
        }
    }

    /// Asks the server process to shut down cleanly.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// Dials `addr` and applies the socket-level options.
fn open_stream(
    addr: SocketAddr,
    opts: &ClientOptions,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    if let Some(deadline) = opts.rpc_deadline {
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
    }
    let read_half = stream.try_clone()?;
    Ok((BufReader::new(read_half), BufWriter::new(stream)))
}

fn unexpected(want: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {want}, got {got:?}"))
}
