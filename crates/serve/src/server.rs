//! The std-only threaded TCP front end.
//!
//! One accept thread plus one thread per connection; each connection
//! reads length-prefixed frames, decodes a [`Request`], dispatches it to
//! the [`SessionHub`] and writes the [`Response`] frame back. All
//! serving semantics live in the hub — this layer only does framing,
//! connection bookkeeping, socket-level fault tolerance and clean
//! shutdown.
//!
//! Connection bookkeeping is self-cleaning: each connection has an id,
//! its thread removes its tracked stream on exit, and the accept loop
//! joins finished connection threads before spawning the next one — a
//! long-lived server no longer accumulates one handle per connection it
//! ever served.
//!
//! [`ServeConfig::io_timeout`] bounds how long a *stalled* peer can pin
//! a connection thread: reads time out, and a timeout that strikes
//! mid-frame (a peer that sent half a header and wandered off) drops the
//! connection. A timeout at a frame boundary is just idleness — the
//! connection stays open indefinitely.
//!
//! A connection thread does not hand a request to another thread: its
//! `dispatch` runs the engine group on the connection thread itself (see
//! [`SessionHub`]), so a server's threads are the accept loop, one per
//! connection, and the hub's idle sweeper when an idle timeout is set.
//!
//! Shutdown ordering (deadlock-free): mark stopping → unblock the accept
//! loop with a self-connection → `shutdown(Read)` every tracked stream
//! (in-flight replies still write) → join connection threads, each of
//! which runs its in-flight command to its reply first → stop the hub's
//! idle sweeper.

use crate::chaos_net::ChaosStream;
use crate::clock::Clock;
use crate::protocol::{read_payload, write_frame, Request, Response, ServeError};
use crate::session::{SessionHub, StoreConfig};
use hima_chaos::FaultPlan;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Lane slots per engine grid — how many sessions of one
    /// configuration can be *resident* at once (more sessions than lanes
    /// swap through detached lane states).
    pub grid_lanes: usize,
    /// Period of the idle sweep, and nothing else: steps are served on
    /// the callers' threads as they arrive, never paced by a timer. With
    /// [`idle_timeout`](Self::idle_timeout) set, the hub's sweeper looks
    /// for sessions to reap or evict this often; without one it is unused.
    pub tick: Duration,
    /// Reap sessions idle for longer than this (`None` = never). A
    /// session with an in-flight step request is never reaped.
    pub idle_timeout: Option<Duration>,
    /// Queued step inputs allowed per session before new step requests
    /// are rejected with [`ServeError::Overloaded`].
    pub session_queue_limit: usize,
    /// Queued step inputs allowed across *all* sessions before new step
    /// requests are rejected with [`ServeError::Overloaded`].
    pub global_queue_limit: usize,
    /// Deadline applied to step requests that don't carry their own
    /// (`deadline_ms == 0` on the wire). `None` = no default deadline.
    pub default_deadline: Option<Duration>,
    /// Read timeout for connection sockets (`None` = block forever).
    /// Only guards against peers stalled *mid-frame*; idle connections
    /// at a frame boundary are unaffected.
    pub io_timeout: Option<Duration>,
    /// Optional fault-injection plan. Wraps every connection's socket in
    /// a [`ChaosStream`] (net sites) and is consulted by the scheduler
    /// and store (sched/store sites). `None` = zero injection overhead.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            grid_lanes: 8,
            tick: Duration::from_micros(500),
            idle_timeout: None,
            session_queue_limit: 4096,
            global_queue_limit: 65_536,
            default_deadline: None,
            io_timeout: Some(Duration::from_secs(30)),
            faults: None,
        }
    }
}

/// A running session server.
pub struct Server {
    addr: SocketAddr,
    hub: Arc<SessionHub>,
    stopping: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    conn_handles: Arc<Mutex<HashMap<u64, JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts serving; `addr` may use port 0 for an ephemeral
    /// port (read it back with [`Server::addr`]).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Server> {
        Self::bind_with_store(addr, cfg, None)
    }

    /// Like [`Server::bind`], with an optional durable session store:
    /// sessions evict to `store`'s directory instead of being discarded
    /// by the idle sweep, and sessions found there (from a previous
    /// process, even one that was killed) are adopted before the first
    /// connection is accepted.
    pub fn bind_with_store(
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
        store: Option<StoreConfig>,
    ) -> std::io::Result<Server> {
        Self::bind_with_clock(addr, cfg, store, Arc::new(Instant::now))
    }

    /// Like [`Server::bind_with_store`], with every scheduling decision
    /// (deadlines, idle reap and eviction, the eviction back-off) reading
    /// `clock`: a test hands in one it moves (`hima_testkit::ManualClock`)
    /// instead of sleeping through a timeout.
    pub fn bind_with_clock(
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
        store: Option<StoreConfig>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let io_timeout = cfg.io_timeout;
        let faults = cfg.faults.clone();
        let hub = Arc::new(SessionHub::with_clock(cfg, store, clock)?);
        let stopping = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let conn_handles: Arc<Mutex<HashMap<u64, JoinHandle<()>>>> =
            Arc::new(Mutex::new(HashMap::new()));

        let accept_handle = {
            let hub = Arc::clone(&hub);
            let stopping = Arc::clone(&stopping);
            let conns = Arc::clone(&conns);
            let conn_handles = Arc::clone(&conn_handles);
            let next_conn = AtomicU64::new(1);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Sweep finished connection threads so bookkeeping is
                    // bounded by *live* connections, not total served.
                    let finished: Vec<JoinHandle<()>> = {
                        let mut handles = conn_handles.lock().unwrap();
                        let done: Vec<u64> = handles
                            .iter()
                            .filter(|(_, h)| h.is_finished())
                            .map(|(&id, _)| id)
                            .collect();
                        done.iter().filter_map(|id| handles.remove(id)).collect()
                    };
                    for handle in finished {
                        let _ = handle.join();
                    }
                    let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = io_timeout {
                        let _ = stream.set_read_timeout(Some(t));
                        let _ = stream.set_write_timeout(Some(t));
                    }
                    if let Ok(tracked) = stream.try_clone() {
                        conns.lock().unwrap().insert(conn_id, tracked);
                    }
                    let hub = Arc::clone(&hub);
                    let stopping = Arc::clone(&stopping);
                    let conns = Arc::clone(&conns);
                    let faults = faults.clone();
                    let handle = std::thread::spawn(move || {
                        serve_connection(stream, hub, stopping, faults);
                        conns.lock().unwrap().remove(&conn_id);
                    });
                    conn_handles.lock().unwrap().insert(conn_id, handle);
                }
            })
        };

        Ok(Server { addr, hub, stopping, accept_handle: Some(accept_handle), conns, conn_handles })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub, for in-process inspection (live-session counts in tests).
    pub fn hub(&self) -> &SessionHub {
        &self.hub
    }

    /// Streams currently tracked for shutdown (== live connections, give
    /// or take threads that are mid-exit). Exposed so tests can pin that
    /// bookkeeping doesn't grow with *total* connections ever served.
    pub fn tracked_connections(&self) -> usize {
        self.conns.lock().unwrap().len()
    }

    /// Connection threads whose handles are still held (finished ones
    /// are joined and dropped on the next accept).
    pub fn tracked_handles(&self) -> usize {
        self.conn_handles.lock().unwrap().len()
    }

    /// Whether a client has requested process shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Blocks until a client sends [`Request::Shutdown`], then returns
    /// (the caller then drops the server, which drains and stops). The
    /// CLI `serve` subcommand is this in a loop.
    pub fn wait_for_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops accepting, closes connections, drains in-flight work and
    /// joins every thread. Also runs on drop; call it explicitly when
    /// you want completion before proceeding.
    pub fn stop(&mut self) {
        if self.accept_handle.is_none() {
            return;
        }
        self.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Stop reading new requests; in-flight replies still write.
        for (_, stream) in self.conns.lock().unwrap().drain() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handles: Vec<_> =
            self.conn_handles.lock().unwrap().drain().map(|(_, h)| h).collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.hub.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What one attempt to read a frame produced.
enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The read timed out *at a frame boundary* — the peer is idle, not
    /// stalled. Keep waiting.
    Idle,
    /// Clean EOF at a frame boundary, a timeout mid-frame, or any socket
    /// error: the conversation is over.
    Closed,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Like `protocol::read_frame`, but timeout-aware: distinguishes an idle
/// peer (timeout with zero header bytes read) from a stalled one
/// (timeout mid-header or mid-payload).
fn read_frame_idle_aware(r: &mut impl Read) -> FrameRead {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len[filled..]) {
            Ok(0) => return FrameRead::Closed,
            Ok(n) => filled += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(ref e) if is_timeout(e) && filled == 0 => return FrameRead::Idle,
            Err(_) => return FrameRead::Closed,
        }
    }
    // An oversized length, EOF or a timeout mid-frame (the peer stalled
    // inside a frame — drop it rather than pin this thread forever).
    match read_payload(r, u32::from_le_bytes(len)) {
        Ok(payload) => FrameRead::Frame(payload),
        Err(_) => FrameRead::Closed,
    }
}

/// One connection's request/reply loop.
fn serve_connection(
    stream: TcpStream,
    hub: Arc<SessionHub>,
    stopping: Arc<AtomicBool>,
    faults: Option<Arc<FaultPlan>>,
) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(ChaosStream::new(read_half, faults.clone()));
    let mut writer = BufWriter::new(ChaosStream::new(stream, faults));
    let metrics = Arc::clone(hub.metrics());
    loop {
        let payload = match read_frame_idle_aware(&mut reader) {
            FrameRead::Frame(payload) => payload,
            FrameRead::Idle => {
                if stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            FrameRead::Closed => return,
        };
        metrics.frames_in.inc();
        metrics.bytes_in.add(payload.len() as u64 + 4);
        let resp = match Request::decode(&payload) {
            Ok(Request::Shutdown) => {
                metrics.record_request(&Request::Shutdown);
                stopping.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
            Ok(req) if stopping.load(Ordering::SeqCst) => {
                metrics.record_request(&req);
                let err = ServeError::ShuttingDown;
                metrics.record_error(&err);
                Response::Error(err)
            }
            Ok(req) => hub.dispatch(req),
            Err(e) => {
                let err = ServeError::Protocol(e.to_string());
                metrics.record_error(&err);
                Response::Error(err)
            }
        };
        let encoded = resp.encode();
        metrics.frames_out.inc();
        metrics.bytes_out.add(encoded.len() as u64 + 4);
        if write_frame(&mut writer, &encoded).is_err() {
            return;
        }
    }
}
