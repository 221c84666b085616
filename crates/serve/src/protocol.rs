//! Length-prefixed binary wire protocol of the session server.
//!
//! A frame is a little-endian `u32` payload length followed by the
//! payload; the payload is a tag byte followed by the variant's fields in
//! a fixed order. The codec is hand-rolled on the workspace's shared
//! `hima_bytes` reader and writer (the vendored `serde` is a no-op
//! stand-in, so derived serialization cannot cross a socket) and
//! deliberately boring: fixed-width integers little-endian, `f32` as its
//! IEEE-754 bit pattern, vectors as a `u32` count plus elements, strings
//! as UTF-8 bytes. Every decoder is total — malformed bytes come back as
//! a [`WireError`], never a panic — and every decoded count, down to the
//! metrics and trace sections', becomes an allocation size only through
//! `hima_bytes::Reader::bound`, checked against the smallest size one of
//! its elements can take in the payload that remains.

use hima_bytes::{Reader, Writer};
use hima_dnc::allocation::SkimRate;
use hima_dnc::{Datapath, DncParams, EngineSpec, SpecError, Topology};
use hima_store::snapshot::MAX_SECTION;
use hima_telemetry::{HistogramSnapshot, MetricsSnapshot, TraceEvent, TraceKind};
use hima_tensor::{Backend, QFormat};
use std::io::{Read, Write};

/// Upper bound on a frame payload (64 MiB): a malicious or corrupt length
/// prefix must not drive an allocation (and below the bound the buffer
/// grows with the bytes received, see [`read_frame`]).
pub const MAX_FRAME: u32 = 64 << 20;

/// Decoding error: the payload did not parse as a protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// An unknown tag byte for the expected enum.
    BadTag(u8),
    /// A count field claimed more than the remaining payload holds.
    BadLength(u32),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Decoding finished with unread bytes left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadLength(n) => write!(f, "length field {n} out of bounds"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<hima_bytes::Error> for WireError {
    fn from(e: hima_bytes::Error) -> Self {
        match e {
            hima_bytes::Error::Truncated => WireError::Truncated,
            // Every wire count is a `u32`.
            hima_bytes::Error::BadLength(n) => WireError::BadLength(n as u32),
            hima_bytes::Error::BadTag(t) => WireError::BadTag(t),
            hima_bytes::Error::TrailingBytes(n) => WireError::TrailingBytes(n),
        }
    }
}

/// Reads a `u32`-counted UTF-8 string.
fn string(r: &mut Reader<'_>) -> Result<String, WireError> {
    String::from_utf8(r.bytes()?.to_vec()).map_err(|_| WireError::BadUtf8)
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            n => filled += n,
        }
    }
    read_payload(r, u32::from_le_bytes(len)).map(Some)
}

/// What a frame's payload buffer reserves before any payload byte has
/// arrived: a step frame fits, so it is still read into one exact
/// allocation, while a larger frame grows with the bytes received — a
/// header alone never reserves what it claims.
const PAYLOAD_PREALLOC: usize = 64 << 10;

/// Reads the `len`-byte payload a frame header announced: `InvalidData`
/// if `len` exceeds [`MAX_FRAME`], `UnexpectedEof` if the stream ends
/// first. Shared by [`read_frame`] and the server's idle-aware reader.
pub(crate) fn read_payload(r: &mut impl Read, len: u32) -> std::io::Result<Vec<u8>> {
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = Vec::with_capacity((len as usize).min(PAYLOAD_PREALLOC));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "EOF inside frame payload",
        ));
    }
    Ok(payload)
}

/// A client-supplied engine configuration in raw numbers, exactly as
/// decoded from the wire — **unvalidated**. [`RawSessionSpec::validate`]
/// turns it into the panic-free typed configuration (or a typed
/// [`SpecError`]); the server never feeds raw numbers to the asserting
/// constructors.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSessionSpec {
    /// Memory rows `N`.
    pub memory_size: u32,
    /// Word width `W`.
    pub word_size: u32,
    /// Read heads `R`.
    pub read_heads: u32,
    /// Controller hidden width.
    pub hidden_size: u32,
    /// Model input width.
    pub input_size: u32,
    /// Model output width.
    pub output_size: u32,
    /// `false` = monolithic topology; `true` = `tiles`-shard DNC-D.
    pub sharded: bool,
    /// Shard count (meaningful when `sharded`).
    pub tiles: u32,
    /// `false` = f32 datapath; `true` = fixed-point `Q int.frac`.
    pub quantized: bool,
    /// Integer bits of the fixed-point format (sign included).
    pub int_bits: u32,
    /// Fractional bits of the fixed-point format.
    pub frac_bits: u32,
    /// Usage-skimming rate `K ∈ [0, 1)`.
    pub skim: f32,
    /// Whether the PLA+LUT softmax approximation is enabled.
    pub approx_softmax: bool,
    /// The [`Backend`] label (`true` = `Blocked`): stored, part of the
    /// engine-group key and round-tripped on the wire, read by no kernel.
    pub blocked: bool,
    /// Weight seed; sessions with equal specs and seeds share an engine.
    pub seed: u64,
}

/// A validated session configuration: what an engine group is keyed by.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Model hyper-parameters.
    pub params: DncParams,
    /// Engine axes (topology × datapath × skim × softmax) and the inert
    /// [`Backend`] label.
    pub spec: EngineSpec,
    /// Weight seed.
    pub seed: u64,
}

impl SessionSpec {
    /// Canonical byte key of this configuration — equal keys ⇔ sessions
    /// may share one lane grid (weights are a function of the seed alone,
    /// so lane slots of one group are interchangeable).
    pub(crate) fn group_key(&self) -> Vec<u8> {
        let mut w = Vec::new();
        RawSessionSpec::from_parts(&self.params, &self.spec, self.seed).encode(&mut w);
        w
    }
}

impl RawSessionSpec {
    /// A small default geometry, handy for CLI demos and smoke tests.
    pub fn demo() -> Self {
        let params = DncParams::new(32, 8, 2).with_hidden(32).with_io(6, 6);
        Self::from_parts(&params, &EngineSpec::monolithic(), 7)
    }

    /// Encodes a *typed* (already-valid) configuration in canonical form.
    pub fn from_parts(params: &DncParams, spec: &EngineSpec, seed: u64) -> Self {
        let (sharded, tiles) = match spec.topology {
            Topology::Monolithic => (false, 0),
            Topology::Sharded { tiles } => (true, tiles as u32),
        };
        let (quantized, int_bits, frac_bits) = match spec.datapath {
            Datapath::F32 => (false, 0, 0),
            Datapath::Quantized(q) => (true, q.int_bits, q.frac_bits),
        };
        Self {
            memory_size: params.memory_size as u32,
            word_size: params.word_size as u32,
            read_heads: params.read_heads as u32,
            hidden_size: params.hidden_size as u32,
            input_size: params.input_size as u32,
            output_size: params.output_size as u32,
            sharded,
            tiles,
            quantized,
            int_bits,
            frac_bits,
            skim: spec.skim.fraction(),
            approx_softmax: spec.approx_softmax,
            blocked: spec.backend == Backend::Blocked,
            seed,
        }
    }

    /// Validates the raw numbers into a typed configuration, reporting
    /// the first violated invariant as the [`SpecError`] the asserting
    /// constructors would have panicked with — or as
    /// [`SpecError::TooLarge`] when one lane's state or the weight set
    /// would exceed [`MAX_SECTION`], the largest state a snapshot holds.
    pub fn validate(&self) -> Result<SessionSpec, SpecError> {
        let params = DncParams {
            memory_size: self.memory_size as usize,
            word_size: self.word_size as usize,
            read_heads: self.read_heads as usize,
            hidden_size: self.hidden_size as usize,
            input_size: self.input_size as usize,
            output_size: self.output_size as usize,
        };
        params.check()?;
        let mut spec = EngineSpec::monolithic();
        if self.sharded {
            spec.topology = Topology::Sharded { tiles: self.tiles as usize };
        }
        if self.quantized {
            let q = QFormat::checked(self.int_bits, self.frac_bits).ok_or(
                SpecError::InvalidQFormat { int_bits: self.int_bits, frac_bits: self.frac_bits },
            )?;
            spec.datapath = Datapath::Quantized(q);
        }
        spec.skim = SkimRate::checked(self.skim).ok_or(SpecError::InvalidSkimRate(self.skim))?;
        spec.approx_softmax = self.approx_softmax;
        spec.backend = if self.blocked { Backend::Blocked } else { Backend::Scalar };
        spec.check(&params)?;
        // Nothing is built that a snapshot could not hold: an oversized
        // geometry is refused here, not by the allocator.
        params.check_footprint(spec.tiles(), MAX_SECTION.into())?;
        Ok(SessionSpec { params, spec, seed: self.seed })
    }

    /// Canonical field-order encoding — also the byte layout of
    /// [`SessionSpec::group_key`], which the session store persists to
    /// route stored sessions back to their engine group on restart.
    pub(crate) fn encode(&self, w: &mut Vec<u8>) {
        w.put_u32(self.memory_size);
        w.put_u32(self.word_size);
        w.put_u32(self.read_heads);
        w.put_u32(self.hidden_size);
        w.put_u32(self.input_size);
        w.put_u32(self.output_size);
        w.put_bool(self.sharded);
        w.put_u32(self.tiles);
        w.put_bool(self.quantized);
        w.put_u32(self.int_bits);
        w.put_u32(self.frac_bits);
        w.put_f32(self.skim);
        w.put_bool(self.approx_softmax);
        w.put_bool(self.blocked);
        w.put_u64(self.seed);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            memory_size: r.u32()?,
            word_size: r.u32()?,
            read_heads: r.u32()?,
            hidden_size: r.u32()?,
            input_size: r.u32()?,
            output_size: r.u32()?,
            sharded: r.bool()?,
            tiles: r.u32()?,
            quantized: r.bool()?,
            int_bits: r.u32()?,
            frac_bits: r.u32()?,
            skim: r.f32()?,
            approx_softmax: r.bool()?,
            blocked: r.bool()?,
            seed: r.u64()?,
        })
    }
}

/// A client → server command.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Creates a session from a client-supplied configuration; replies
    /// [`Response::Opened`] with the session id.
    Open {
        /// The requested engine configuration (validated server-side).
        spec: RawSessionSpec,
    },
    /// Advances one session by one step; replies [`Response::Stepped`]
    /// with a single output row.
    Step {
        /// Target session id.
        session: u64,
        /// One `input_size`-wide input row.
        input: Vec<f32>,
        /// Per-request deadline in milliseconds; 0 uses the server's
        /// configured default. Queued work still unserved when the
        /// deadline passes is shed with
        /// [`ServeError::DeadlineExceeded`].
        deadline_ms: u32,
    },
    /// Advances one session by `inputs.len()` steps; the steps are queued
    /// on the session's lane and interleave tick-by-tick with co-tenant
    /// sessions; one [`Response::Stepped`] carries all output rows.
    StepStream {
        /// Target session id.
        session: u64,
        /// The input rows, in step order.
        inputs: Vec<Vec<f32>>,
        /// Per-request deadline in milliseconds for the whole stream;
        /// 0 uses the server default.
        deadline_ms: u32,
    },
    /// Queries the session's current read-vector row (what its next step
    /// feeds the controller); replies [`Response::Rows`].
    ReadRows {
        /// Target session id.
        session: u64,
    },
    /// Resets the session to blank state (same weights); replies
    /// [`Response::Done`].
    Reset {
        /// Target session id.
        session: u64,
    },
    /// Closes the session and frees its lane; replies
    /// [`Response::Done`].
    Close {
        /// Target session id.
        session: u64,
    },
    /// Asks the server process to shut down cleanly (drain and exit);
    /// replies [`Response::ShuttingDown`].
    Shutdown,
    /// Fetches a point-in-time snapshot of every registered server
    /// metric; replies [`Response::Metrics`].
    Metrics,
    /// Fetches the retained session-lifecycle trace events, oldest first;
    /// replies [`Response::Trace`].
    TraceDump,
}

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        match self {
            Request::Open { spec } => {
                w.put_u8(1);
                spec.encode(&mut w);
            }
            Request::Step { session, input, deadline_ms } => {
                w.put_u8(2);
                w.put_u64(*session);
                w.put_u32(*deadline_ms);
                w.put_vec_f32(input);
            }
            Request::StepStream { session, inputs, deadline_ms } => {
                w.put_u8(3);
                w.put_u64(*session);
                w.put_u32(*deadline_ms);
                w.put_u32(inputs.len() as u32);
                for row in inputs {
                    w.put_vec_f32(row);
                }
            }
            Request::ReadRows { session } => {
                w.put_u8(4);
                w.put_u64(*session);
            }
            Request::Reset { session } => {
                w.put_u8(5);
                w.put_u64(*session);
            }
            Request::Close { session } => {
                w.put_u8(6);
                w.put_u64(*session);
            }
            Request::Shutdown => w.put_u8(7),
            Request::Metrics => w.put_u8(8),
            Request::TraceDump => w.put_u8(9),
        }
        w
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            1 => Request::Open { spec: RawSessionSpec::decode(&mut r)? },
            2 => Request::Step {
                session: r.u64()?,
                deadline_ms: r.u32()?,
                input: r.vec_f32()?,
            },
            3 => {
                let session = r.u64()?;
                let deadline_ms = r.u32()?;
                // Each row is at least its own `u32` count.
                let n = r.count(4)?;
                let inputs = (0..n).map(|_| r.vec_f32()).collect::<Result<Vec<_>, _>>()?;
                Request::StepStream { session, inputs, deadline_ms }
            }
            4 => Request::ReadRows { session: r.u64()? },
            5 => Request::Reset { session: r.u64()? },
            6 => Request::Close { session: r.u64()? },
            7 => Request::Shutdown,
            8 => Request::Metrics,
            9 => Request::TraceDump,
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(req)
    }
}

/// A structured server-side failure, carried inside
/// [`Response::Error`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The `Open` spec failed validation; the message is the
    /// [`SpecError`] rendering.
    BadSpec(String),
    /// No session with this id (never existed, closed, or idle-reaped).
    UnknownSession(u64),
    /// The session already has a command in flight on another connection.
    SessionBusy(u64),
    /// A step input had the wrong width.
    BadInput(String),
    /// The peer sent bytes that did not parse as a request.
    Protocol(String),
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The session store failed (I/O, corruption, or a stored state that
    /// no longer matches its configuration).
    Store(String),
    /// The request was shed by admission control: a per-session or
    /// global queue budget was full. Retry after the hinted delay.
    Overloaded {
        /// Server's estimate of when queue capacity frees up.
        retry_after_ms: u64,
    },
    /// Queued work was shed because its deadline passed before the
    /// scheduler could serve it.
    DeadlineExceeded {
        /// The session whose queued steps were shed.
        session: u64,
    },
    /// The session's scheduler group panicked and the session could not
    /// be resurrected from the store (`0` when no specific session).
    GroupFailed(u64),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadSpec(m) => write!(f, "invalid session spec: {m}"),
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::SessionBusy(id) => write!(f, "session {id} has a command in flight"),
            ServeError::BadInput(m) => write!(f, "bad step input: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Store(m) => write!(f, "session store error: {m}"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            ServeError::DeadlineExceeded { session } => {
                write!(f, "deadline exceeded for queued work on session {session}")
            }
            ServeError::GroupFailed(id) => {
                write!(f, "scheduler group failed; session {id} could not be recovered")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Stable wire subtag, 1-based — also the index (minus one) into the
    /// per-kind error counters in `ServeMetrics`.
    pub fn subtag(&self) -> u8 {
        match self {
            ServeError::BadSpec(_) => 1,
            ServeError::UnknownSession(_) => 2,
            ServeError::SessionBusy(_) => 3,
            ServeError::BadInput(_) => 4,
            ServeError::Protocol(_) => 5,
            ServeError::ShuttingDown => 6,
            ServeError::Store(_) => 7,
            ServeError::Overloaded { .. } => 8,
            ServeError::DeadlineExceeded { .. } => 9,
            ServeError::GroupFailed(_) => 10,
        }
    }

    /// Number of distinct error kinds (sizes per-kind counter arrays).
    pub const KINDS: usize = 10;
}

impl Request {
    /// Whether the command is safe to resend after an ambiguous
    /// connection failure. Steps are excluded: a lost reply leaves the
    /// client unsure whether the step was applied.
    pub(crate) fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Request::Open { .. }
                | Request::ReadRows { .. }
                | Request::Metrics
                | Request::TraceDump
        )
    }
}

/// A server → client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session created.
    Opened {
        /// The new session's id.
        session: u64,
    },
    /// Step(s) complete: one `output_size`-wide row per requested step.
    Stepped {
        /// Output rows, in step order.
        outputs: Vec<Vec<f32>>,
    },
    /// Reply to [`Request::ReadRows`].
    Rows {
        /// The session's current `R·W` read-vector row.
        read: Vec<f32>,
    },
    /// Command acknowledged (reset / close).
    Done,
    /// The command failed.
    Error(ServeError),
    /// Reply to [`Request::Shutdown`].
    ShuttingDown,
    /// Reply to [`Request::Metrics`]: every registered metric's current
    /// value.
    Metrics {
        /// The server-wide snapshot.
        snapshot: MetricsSnapshot,
    },
    /// Reply to [`Request::TraceDump`]: the retained lifecycle events,
    /// oldest first.
    Trace {
        /// Retained events with strictly increasing sequence numbers.
        events: Vec<TraceEvent>,
    },
}

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::new();
        match self {
            Response::Opened { session } => {
                w.put_u8(1);
                w.put_u64(*session);
            }
            Response::Stepped { outputs } => {
                w.put_u8(2);
                w.put_u32(outputs.len() as u32);
                for row in outputs {
                    w.put_vec_f32(row);
                }
            }
            Response::Rows { read } => {
                w.put_u8(3);
                w.put_vec_f32(read);
            }
            Response::Done => w.put_u8(4),
            Response::Error(e) => {
                w.put_u8(5);
                match e {
                    ServeError::BadSpec(m) => {
                        w.put_u8(1);
                        w.put_bytes(m.as_bytes());
                    }
                    ServeError::UnknownSession(id) => {
                        w.put_u8(2);
                        w.put_u64(*id);
                    }
                    ServeError::SessionBusy(id) => {
                        w.put_u8(3);
                        w.put_u64(*id);
                    }
                    ServeError::BadInput(m) => {
                        w.put_u8(4);
                        w.put_bytes(m.as_bytes());
                    }
                    ServeError::Protocol(m) => {
                        w.put_u8(5);
                        w.put_bytes(m.as_bytes());
                    }
                    ServeError::ShuttingDown => w.put_u8(6),
                    ServeError::Store(m) => {
                        w.put_u8(7);
                        w.put_bytes(m.as_bytes());
                    }
                    ServeError::Overloaded { retry_after_ms } => {
                        w.put_u8(8);
                        w.put_u64(*retry_after_ms);
                    }
                    ServeError::DeadlineExceeded { session } => {
                        w.put_u8(9);
                        w.put_u64(*session);
                    }
                    ServeError::GroupFailed(id) => {
                        w.put_u8(10);
                        w.put_u64(*id);
                    }
                }
            }
            Response::ShuttingDown => w.put_u8(6),
            Response::Metrics { snapshot } => {
                w.put_u8(7);
                encode_metrics_snapshot(snapshot, &mut w);
            }
            Response::Trace { events } => {
                w.put_u8(8);
                w.put_u32(events.len() as u32);
                for ev in events {
                    w.put_u64(ev.seq);
                    w.put_u64(ev.at_us);
                    w.put_u8(ev.kind.code());
                    w.put_u64(ev.session);
                    w.put_u64(ev.detail);
                }
            }
        }
        w
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            1 => Response::Opened { session: r.u64()? },
            2 => {
                let n = r.count(4)?;
                let outputs = (0..n).map(|_| r.vec_f32()).collect::<Result<Vec<_>, _>>()?;
                Response::Stepped { outputs }
            }
            3 => Response::Rows { read: r.vec_f32()? },
            4 => Response::Done,
            5 => Response::Error(match r.u8()? {
                1 => ServeError::BadSpec(string(&mut r)?),
                2 => ServeError::UnknownSession(r.u64()?),
                3 => ServeError::SessionBusy(r.u64()?),
                4 => ServeError::BadInput(string(&mut r)?),
                5 => ServeError::Protocol(string(&mut r)?),
                6 => ServeError::ShuttingDown,
                7 => ServeError::Store(string(&mut r)?),
                8 => ServeError::Overloaded { retry_after_ms: r.u64()? },
                9 => ServeError::DeadlineExceeded { session: r.u64()? },
                10 => ServeError::GroupFailed(r.u64()?),
                t => return Err(WireError::BadTag(t)),
            }),
            6 => Response::ShuttingDown,
            7 => Response::Metrics { snapshot: decode_metrics_snapshot(&mut r)? },
            8 => {
                // Each event is a fixed 33 bytes.
                let n = r.count(33)?;
                let events = (0..n)
                    .map(|_| {
                        Ok(TraceEvent {
                            seq: r.u64()?,
                            at_us: r.u64()?,
                            kind: {
                                let code = r.u8()?;
                                TraceKind::from_code(code).ok_or(WireError::BadTag(code))?
                            },
                            session: r.u64()?,
                            detail: r.u64()?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Response::Trace { events }
            }
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Appends a [`MetricsSnapshot`] in canonical wire form: three
/// `u32`-counted sections (counters, gauges, histograms), entries as a
/// string name followed by the fixed-order values. Gauges carry their
/// `i64` as a two's-complement bit pattern.
fn encode_metrics_snapshot(snapshot: &MetricsSnapshot, w: &mut Vec<u8>) {
    w.put_u32(snapshot.counters.len() as u32);
    for (name, v) in &snapshot.counters {
        w.put_bytes(name.as_bytes());
        w.put_u64(*v);
    }
    w.put_u32(snapshot.gauges.len() as u32);
    for (name, v) in &snapshot.gauges {
        w.put_bytes(name.as_bytes());
        w.put_u64(*v as u64);
    }
    w.put_u32(snapshot.histograms.len() as u32);
    for (name, h) in &snapshot.histograms {
        w.put_bytes(name.as_bytes());
        w.put_u64(h.count);
        w.put_u64(h.sum);
        w.put_u32(h.buckets.len() as u32);
        for &b in &h.buckets {
            w.put_u64(b);
        }
    }
}

/// Total decoder for [`encode_metrics_snapshot`]'s format. Every count
/// field is bounds-checked against the smallest possible entry size
/// before any allocation.
fn decode_metrics_snapshot(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let n = r.count(12)?;
    let counters = (0..n)
        .map(|_| Ok((string(r)?, r.u64()?)))
        .collect::<Result<Vec<_>, WireError>>()?;
    let n = r.count(12)?;
    let gauges = (0..n)
        .map(|_| Ok((string(r)?, r.u64()? as i64)))
        .collect::<Result<Vec<_>, WireError>>()?;
    let n = r.count(24)?;
    let histograms = (0..n)
        .map(|_| {
            let name = string(r)?;
            let count = r.u64()?;
            let sum = r.u64()?;
            let nb = r.count(8)?;
            let buckets = (0..nb).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
            Ok((name, HistogramSnapshot { count, sum, buckets }))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(MetricsSnapshot { counters, gauges, histograms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Open { spec: RawSessionSpec::demo() },
            Request::Step {
                session: 9,
                input: vec![0.5, -1.5, f32::MIN_POSITIVE],
                deadline_ms: 0,
            },
            Request::StepStream {
                session: 1,
                inputs: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                deadline_ms: 1500,
            },
            Request::ReadRows { session: 3 },
            Request::Reset { session: u64::MAX },
            Request::Close { session: 0 },
            Request::Shutdown,
            Request::Metrics,
            Request::TraceDump,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Opened { session: 12 },
            Response::Stepped { outputs: vec![vec![0.25; 4], vec![-0.5; 4]] },
            Response::Rows { read: vec![1.0, -2.0] },
            Response::Done,
            Response::Error(ServeError::BadSpec("word_size must be positive".into())),
            Response::Error(ServeError::UnknownSession(44)),
            Response::Error(ServeError::SessionBusy(44)),
            Response::Error(ServeError::BadInput("want 4 got 3".into())),
            Response::Error(ServeError::Protocol("unknown message tag 99".into())),
            Response::Error(ServeError::ShuttingDown),
            Response::Error(ServeError::Store("snapshot checksum mismatch".into())),
            Response::Error(ServeError::Overloaded { retry_after_ms: 250 }),
            Response::Error(ServeError::DeadlineExceeded { session: 7 }),
            Response::Error(ServeError::GroupFailed(44)),
            Response::ShuttingDown,
            Response::Metrics { snapshot: MetricsSnapshot::default() },
            Response::Trace { events: Vec::new() },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn metrics_snapshot_round_trips() {
        let mut hist = HistogramSnapshot::empty();
        hist.count = 3;
        hist.sum = 77;
        hist.buckets[0] = 1;
        hist.buckets[7] = 2;
        let snapshot = MetricsSnapshot {
            counters: vec![("serve.scheduler.ticks".into(), u64::MAX), ("net.frames_in".into(), 0)],
            gauges: vec![("serve.sessions.live".into(), -3), ("queue".into(), i64::MIN)],
            histograms: vec![("serve.scheduler.tick_ns".into(), hist)],
        };
        let resp = Response::Metrics { snapshot };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn trace_events_round_trip_and_reject_bad_kinds() {
        let events = vec![
            TraceEvent { seq: 0, at_us: 10, kind: TraceKind::Open, session: 1, detail: 0 },
            TraceEvent { seq: 1, at_us: 25, kind: TraceKind::Park, session: 1, detail: 4 },
            TraceEvent { seq: 2, at_us: 99, kind: TraceKind::Error, session: 1, detail: 3 },
        ];
        let resp = Response::Trace { events };
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
        // Corrupt the first event's kind byte (offset: tag 1 + count 4 +
        // seq 8 + at_us 8).
        let mut bad = bytes.clone();
        bad[1 + 4 + 16] = 250;
        assert_eq!(Response::decode(&bad), Err(WireError::BadTag(250)));
        // An implausible event count is rejected before allocation.
        let mut w = vec![8];
        w.put_u32(u32::MAX);
        assert!(matches!(Response::decode(&w), Err(WireError::BadLength(_))));
    }

    #[test]
    fn float_payloads_are_bit_exact() {
        // The wire carries f32 bit patterns, not decimal renderings: NaN
        // payloads and signed zeros survive.
        let row = vec![f32::NAN, -0.0, f32::INFINITY, 1.0e-42];
        let req = Request::Step { session: 0, input: row.clone(), deadline_ms: 0 };
        match Request::decode(&req.encode()).unwrap() {
            Request::Step { input, .. } => {
                for (a, b) in input.iter().zip(&row) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Request::decode(&[200]), Err(WireError::BadTag(200)));
        // Truncated session id.
        assert_eq!(Request::decode(&[4, 1, 2]), Err(WireError::Truncated));
        // Trailing garbage after a well-formed message.
        let mut bytes = Request::Shutdown.encode();
        bytes.push(0);
        assert_eq!(Request::decode(&bytes), Err(WireError::TrailingBytes(1)));
        // Oversized vector length field.
        let mut w = vec![2];
        w.put_u64(1);
        w.put_u32(0); // deadline_ms
        w.put_u32(u32::MAX);
        assert!(matches!(Request::decode(&w), Err(WireError::BadLength(_))));
    }

    #[test]
    fn vec_f32_length_guard_holds_at_the_frame_boundary() {
        // A step whose input claims `n` elements and carries `have`.
        let step = |n: u32, have: usize| {
            let mut w = vec![2];
            w.put_u64(1);
            w.put_u32(0); // deadline_ms
            w.put_u32(n);
            w.put_f32s(&vec![1.5; have]);
            Request::decode(&w)
        };
        // Counts just past what the payload holds are rejected without
        // wrapping: on a 32-bit usize, `n * 4` overflows for counts of
        // 2^30 and above, so the guard must divide, never multiply. One
        // past the most a maximal frame could carry is no different.
        for n in [1u32 << 30, (1 << 30) + 1, u32::MAX / 4, u32::MAX, MAX_FRAME / 4 + 1] {
            assert_eq!(step(n, 0), Err(WireError::BadLength(n)), "count {n} accepted");
        }
        // The boundary is exact: four elements back a count of four,
        // three do not.
        assert!(step(4, 4).is_ok());
        assert_eq!(step(4, 3), Err(WireError::BadLength(4)));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = Request::ReadRows { session: 5 }.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn raw_spec_validation_reports_typed_errors() {
        let mut raw = RawSessionSpec::demo();
        assert!(raw.validate().is_ok());
        raw.word_size = 0;
        assert_eq!(raw.validate().unwrap_err().to_string(), "word_size must be positive");

        let mut raw = RawSessionSpec::demo();
        raw.sharded = true;
        raw.tiles = 0;
        assert!(raw.validate().is_err());
        raw.tiles = raw.memory_size + 1;
        assert!(raw.validate().is_err());

        let mut raw = RawSessionSpec::demo();
        raw.quantized = true;
        raw.int_bits = 0;
        raw.frac_bits = 8;
        assert!(raw.validate().is_err());

        let mut raw = RawSessionSpec::demo();
        raw.skim = 1.25;
        assert!(raw.validate().is_err());
    }

    #[test]
    fn group_key_is_canonical() {
        // Junk in fields the variant does not use must not split groups:
        // a non-quantized spec with stray q-format bits keys identically
        // to the canonical form.
        let mut raw = RawSessionSpec::demo();
        raw.int_bits = 31;
        raw.frac_bits = 1;
        raw.tiles = 17;
        let canonical = RawSessionSpec::demo().validate().unwrap().group_key();
        assert_eq!(raw.validate().unwrap().group_key(), canonical);
    }
}
