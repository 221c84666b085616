//! The three served workloads: a `hima-serve` server in this process on
//! a loopback TCP socket, driven closed-loop by two client threads (two
//! connections, each owning a disjoint half of the sessions). A latency
//! sample is one `Client::step` round trip as the client sees it.

use crate::affinity::Pin;
use crate::inputs::{pick_two, Digest, ServedInputs, CONNECTIONS};
use crate::layers::{self, Shapes, ENGINE_SEED};
use crate::offline::rows_agree;
use crate::probe::Echo;
use crate::report::{peak_rss_mib, Outcome, RunOpts};
use crate::spans::{SpanBuf, NO_PARENT};
use crate::stats::{
    lower_quartile, median, percentile_ns, phase_stats, quiet, scale_of, Stop, Timeline, WINDOWS,
};
use hima::dnc::{BoxedEngine, DncParams, EngineSpec};
use hima::serve::{
    Client, ClientError, FaultPlan, MetricsSnapshot, RawSessionSpec, Request, Response,
    ServeConfig, Server, SessionHub, StoreConfig,
};
use hima::tensor::{Backend, LaneMask, Matrix};
use rayon::ThreadPoolBuilder;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Lane slots of the served grid.
const GRID_LANES: usize = 8;
/// Width of a step's input and output row.
const IO_WIDTH: usize = 16;
/// Steps from a blank session over which the blocked tier is held to
/// the scalar reference. Past a few hundred steps the two trajectories
/// part for good when a usage-sort tie falls the other way (measured
/// solo: 4e-8 through step 1 000, 1e-3 by step 5 000), so only the
/// conformance suite's horizon can carry the check.
const BLOCKED_HORIZON: usize = 32;

pub struct ServedWorkload {
    name: &'static str,
    sessions: usize,
    backend: Backend,
    durable: bool,
    /// Steps per connection of the fixed warm-up that ends every set-up.
    warmup_per_conn: usize,
}

pub fn workload(name: &str) -> Option<ServedWorkload> {
    let (sessions, backend, durable) = match name {
        "serve_resident" => (8, Backend::Blocked, false),
        "serve_churn" => (32, Backend::Scalar, false),
        "serve_durable" => (16, Backend::Scalar, true),
        _ => return None,
    };
    let name = crate::catalog::workload(name)?.name;
    Some(ServedWorkload { name, sessions, backend, durable, warmup_per_conn: 1000 })
}

/// Where a connection's steps go: over TCP (the measured path, L2 of
/// the depth peel) or straight into the hub (L1).
trait Port: Send {
    /// Name of the span recorded around each step.
    const SPAN: &'static str;
    fn open(&mut self, spec: &RawSessionSpec) -> Result<u64, ClientError>;
    fn step(&mut self, session: u64, input: &[f32]) -> Result<Vec<f32>, ClientError>;
}

impl Port for Client {
    const SPAN: &'static str = "wire.step";

    fn open(&mut self, spec: &RawSessionSpec) -> Result<u64, ClientError> {
        Client::open(self, spec)
    }

    fn step(&mut self, session: u64, input: &[f32]) -> Result<Vec<f32>, ClientError> {
        Client::step(self, session, input)
    }
}

/// `SessionHub::dispatch` in this process: no socket, no codec.
struct HubPort(Arc<SessionHub>);

impl Port for HubPort {
    const SPAN: &'static str = "hub.dispatch";

    fn open(&mut self, spec: &RawSessionSpec) -> Result<u64, ClientError> {
        match self.0.dispatch(Request::Open { spec: spec.clone() }) {
            Response::Opened { session } => Ok(session),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("expected Opened, got {other:?}"))),
        }
    }

    fn step(&mut self, session: u64, input: &[f32]) -> Result<Vec<f32>, ClientError> {
        let request = Request::Step { session, input: input.to_vec(), deadline_ms: 0 };
        match self.0.dispatch(request) {
            Response::Stepped { mut outputs } if outputs.len() == 1 => Ok(outputs.remove(0)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!("expected Stepped, got {other:?}"))),
        }
    }
}

/// One connection's bookkeeping, kept across a server restart.
struct Book {
    conn: usize,
    /// Server-side ids of this connection's own sessions.
    ids: Vec<u64>,
    /// Steps answered so far, per own session.
    steps: Vec<u32>,
    /// Next draw of this connection's schedule.
    cursor: usize,
    /// Output rows of the chosen sessions this connection owns, from
    /// their first step on: `(own-session index, rows)`.
    recorded: Vec<(usize, Vec<f32>)>,
    /// Steps recorded per chosen session at most.
    record_limit: usize,
    attempted: u64,
    failed: u64,
}

impl Book {
    /// Issues the next step of own session `local`; an answered step is
    /// counted and, for a chosen session, recorded.
    fn step(
        &mut self,
        port: &mut impl Port,
        inputs: &ServedInputs,
        local: usize,
    ) -> Result<Vec<f32>, ClientError> {
        let step = self.steps[local] as usize;
        self.attempted += 1;
        let reply = port.step(self.ids[local], inputs.row(inputs.global(self.conn, local), step));
        match &reply {
            Ok(row) => {
                self.steps[local] += 1;
                if let Some((_, rec)) = self.recorded.iter_mut().find(|(l, _)| *l == local) {
                    if step < self.record_limit {
                        rec.extend_from_slice(row);
                    }
                }
            }
            Err(_) => self.failed += 1,
        }
        reply
    }
}

struct Conn<P> {
    port: P,
    book: Book,
    /// This connection's calibration probe.
    echo: Echo,
}

/// A scratch directory inside the checkout, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running server with its two connections. Fields drop in order, so
/// the store directory outlives the server writing to it.
struct Served {
    server: Server,
    conns: Vec<Conn<Client>>,
    store: Option<ScratchDir>,
}

impl Served {
    fn snapshot(&self) -> MetricsSnapshot {
        self.server.hub().metrics().snapshot()
    }

    fn steps_answered(&self) -> u64 {
        self.conns.iter().flat_map(|c| &c.book.steps).map(|&s| s as u64).sum()
    }

    /// Steps attempted and steps failed, both connections together.
    fn tally(&self) -> (u64, u64) {
        (
            self.conns.iter().map(|c| c.book.attempted).sum(),
            self.conns.iter().map(|c| c.book.failed).sum(),
        )
    }
}

/// What one connection's drive saw.
struct Drive {
    start: Instant,
    end: Instant,
    /// Round trip of every answered step.
    rtt: Timeline,
}

/// Replies between two probe readings of a connection: about 1 % of a
/// connection's time goes to its echo, and a window still holds hundreds
/// of readings.
const PROBE_EVERY: usize = 8;

/// Issues this connection's next scheduled steps, one at a time, until
/// `stop`. Every reply is timed; failed or refused steps count as
/// failed and leave no latency sample.
fn drive<P: Port>(
    conn: &mut Conn<P>,
    inputs: &ServedInputs,
    stop: Stop,
    mut digest: Option<&mut Digest>,
    mut spans: Option<(&mut SpanBuf, u32)>,
) -> Drive {
    let Conn { port, book, echo } = conn;
    let start = Instant::now();
    let mut rtt = Timeline::until(start, stop, WINDOWS, 1 << 16);
    let mut t = start;
    while !rtt.done(stop, start, t) {
        let local = inputs.draw(book.conn, book.cursor);
        book.cursor += 1;
        let req = (inputs.global(book.conn, local) as u32, book.steps[local]);
        let reply = book.step(port, inputs, local);
        let mut now = Instant::now();
        if let Some((buf, parent)) = spans.as_mut() {
            buf.record(P::SPAN, t, now, *parent, req);
        }
        match reply {
            Ok(row) => {
                rtt.push(now, now.duration_since(t), 1);
                if rtt.latency_ns.len().is_multiple_of(PROBE_EVERY) {
                    // The probe is no part of the next round trip.
                    rtt.calibrate(echo);
                    now = Instant::now();
                }
                if let Some(d) = digest.as_deref_mut() {
                    d.row(&row);
                }
            }
            // A broken transport cannot carry the rest of the run, and a
            // warm-up that counts answers must not wait for ones that
            // never come; the failure is in the book either way.
            Err(ClientError::Io(_)) => break,
            Err(_) if matches!(stop, Stop::Samples(_)) => break,
            Err(_) => {}
        }
        t = now;
    }
    Drive { start, end: t, rtt }
}

/// One timed phase: both connections over TCP, both dispatching threads
/// through the hub, or the engine alone.
struct Phase {
    /// One timeline per driving thread.
    rtt: Vec<Timeline>,
    /// Slowest thread's span: first start to last end.
    wall: Duration,
}

impl Phase {
    fn rate(&self) -> f64 {
        self.rtt.iter().map(|t| t.steps).sum::<u64>() as f64 / self.wall.as_secs_f64()
    }

    /// Every sample of the phase, all threads together.
    fn all_ns(&self) -> Vec<u64> {
        self.rtt.iter().flat_map(|t| &t.latency_ns).map(|&n| n as u64).collect()
    }
}

/// Drives every connection at once from a common start.
fn phase<P: Port>(
    conns: &mut [Conn<P>],
    inputs: &ServedInputs,
    stop: Stop,
    mut spans: Option<(&mut SpanBuf, u32)>,
) -> Phase {
    let barrier = Barrier::new(conns.len());
    let span_room = spans.as_ref().map(|(buf, parent)| (buf.origin(), *parent));
    let results: Vec<(Drive, Option<SpanBuf>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut local = span_room.map(|(origin, _)| SpanBuf::new(origin, 1 << 17));
                    barrier.wait();
                    let traced =
                        local.as_mut().zip(span_room).map(|(buf, (_, parent))| (buf, parent));
                    let d = drive(conn, inputs, stop, None, traced);
                    (d, local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driving thread panicked")).collect()
    });
    let start = results.iter().map(|(d, _)| d.start).min().expect("at least one connection");
    let end = results.iter().map(|(d, _)| d.end).max().expect("at least one connection");
    let mut rtt = Vec::new();
    for (d, local) in results {
        rtt.push(d.rtt);
        if let (Some((buf, _)), Some(local)) = (spans.as_mut(), local) {
            buf.absorb(local);
        }
    }
    Phase { rtt, wall: end.duration_since(start) }
}

/// Median raw p50 and p99 over the fastest quarter of `slices`: the
/// slices with the highest rate, each one's percentiles over all of its
/// samples.
fn quiet_latency(slices: &[Phase]) -> (f64, f64) {
    let kept = quiet(slices.iter().collect(), |s: &&Phase| s.rate());
    let over = |p: f64| {
        median(&kept.iter().map(|s| percentile_ns(&mut s.all_ns(), p)).collect::<Vec<_>>())
    };
    (over(0.50), over(0.99))
}

fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

fn hist_sum(s: &MetricsSnapshot, name: &str) -> u64 {
    s.histogram(name).map_or(0, |h| h.sum)
}

fn hist_count(s: &MetricsSnapshot, name: &str) -> u64 {
    s.histogram(name).map_or(0, |h| h.count)
}

fn error_replies(s: &MetricsSnapshot) -> u64 {
    s.counters.iter().filter(|(n, _)| n.starts_with("err.")).map(|(_, v)| v).sum()
}

impl ServedWorkload {
    fn params() -> DncParams {
        DncParams::new(128, 16, 2).with_hidden(64).with_io(IO_WIDTH, IO_WIDTH)
    }

    fn spec(&self) -> EngineSpec {
        EngineSpec::monolithic().with_backend(self.backend)
    }

    pub fn shapes(&self) -> Shapes {
        Shapes { params: Self::params(), spec: self.spec(), lanes: GRID_LANES }
    }

    fn serve_config(faults: Option<Arc<FaultPlan>>) -> ServeConfig {
        ServeConfig {
            grid_lanes: GRID_LANES,
            tick: Duration::from_micros(200),
            idle_timeout: None,
            faults,
            ..ServeConfig::default()
        }
    }

    fn store_config(dir: &ScratchDir, faults: Option<Arc<FaultPlan>>) -> StoreConfig {
        StoreConfig { dir: dir.0.clone(), snapshot_every: 64, max_parked: 4, faults }
    }

    /// A fresh scratch directory of this process, inside the checkout.
    fn scratch(&self, what: &str) -> std::io::Result<ScratchDir> {
        ScratchDir::create(crate::out_dir().join(format!(
            "{}-{what}-{}",
            self.name,
            std::process::id()
        )))
    }

    /// A fresh store directory for a durable workload's next server.
    fn fresh_store(&self, what: &str) -> std::io::Result<Option<ScratchDir>> {
        self.durable.then(|| self.scratch(what)).transpose()
    }

    /// Opens connection `conn`'s sessions through `port`. Connections
    /// open one after another so that session ids, and with them the
    /// scheduler's seating order, do not depend on thread timing.
    fn open_sessions<P: Port>(
        &self,
        mut port: P,
        conn: usize,
        inputs: &ServedInputs,
        chosen: [usize; 2],
    ) -> Result<Conn<P>, ClientError> {
        let raw = RawSessionSpec::from_parts(&Self::params(), &self.spec(), ENGINE_SEED);
        let ids = (0..inputs.per_conn).map(|_| port.open(&raw)).collect::<Result<Vec<_>, _>>()?;
        let recorded = chosen
            .iter()
            .filter(|&&g| g / inputs.per_conn == conn)
            .map(|&g| (g % inputs.per_conn, Vec::new()))
            .collect();
        let exact = self.backend == Backend::Scalar;
        let book = Book {
            conn,
            ids,
            steps: vec![0; inputs.per_conn],
            cursor: 0,
            recorded,
            record_limit: if exact { usize::MAX } else { BLOCKED_HORIZON },
            attempted: 0,
            failed: 0,
        };
        Ok(Conn { port, book, echo: Echo::start()? })
    }

    /// Binds a server (fresh store directory), connects both clients,
    /// opens every session and runs the fixed warm-up. Returns the
    /// digest of the warm-up's outputs (fixed work per connection, so it
    /// repeats for a seed) and the warm-up's median host slowdown.
    fn set_up(
        &self,
        inputs: &ServedInputs,
        opts: &RunOpts,
        chosen: [usize; 2],
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<(Served, Digest, f64), ClientError> {
        let store = self.fresh_store(if faults.is_some() { "armed-store" } else { "store" })?;
        let server = Server::bind_with_store(
            "127.0.0.1:0",
            Self::serve_config(faults.clone()),
            store.as_ref().map(|dir| Self::store_config(dir, faults)),
        )?;
        let mut conns = (0..CONNECTIONS)
            .map(|conn| self.open_sessions(Client::connect(server.addr())?, conn, inputs, chosen))
            .collect::<Result<Vec<_>, _>>()?;
        let warm = Stop::Samples(opts.warm(self.warmup_per_conn));
        let warmed: Vec<(Digest, Drive)> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || {
                        let mut d = Digest::default();
                        let drive = drive(conn, inputs, warm, Some(&mut d), None);
                        (d, drive)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut digest = Digest::default();
        let mut warm_ups = Vec::new();
        for (d, drive) in warmed {
            digest.word(d.0);
            warm_ups.push(drive.rtt);
        }
        let slowdown = phase_stats(&warm_ups, Duration::from_secs(1)).slowdown;
        Ok((Served { server, conns, store }, digest, slowdown))
    }

    /// Drops the server without closing a session, binds a new one on
    /// the same store directory and steps every adopted session once.
    /// Returns the new server and how long re-bind plus those first
    /// steps took.
    fn restart(
        &self,
        served: Served,
        inputs: &ServedInputs,
    ) -> Result<(Served, Duration), ClientError> {
        let Served { server, conns, store } = served;
        let books: Vec<(Book, Echo)> = conns.into_iter().map(|c| (c.book, c.echo)).collect();
        drop(server);
        let t = Instant::now();
        let server = Server::bind_with_store(
            "127.0.0.1:0",
            Self::serve_config(None),
            store.as_ref().map(|dir| Self::store_config(dir, None)),
        )?;
        let mut conns = books
            .into_iter()
            .map(|(book, echo)| Ok(Conn { port: Client::connect(server.addr())?, book, echo }))
            .collect::<Result<Vec<_>, ClientError>>()?;
        std::thread::scope(|scope| {
            for Conn { port, book, .. } in conns.iter_mut() {
                scope.spawn(move || {
                    for local in 0..inputs.per_conn {
                        // A failure is counted in the book; the gate reports it.
                        let _ = book.step(port, inputs, local);
                    }
                });
            }
        });
        Ok((Served { server, conns, store }, t.elapsed()))
    }

    /// The correctness gate: replays the chosen sessions' whole input
    /// streams (warm-up, measured phase, post-restart step) through a
    /// solo single-lane scalar engine. Returns `(steps checked, wrong)`.
    fn verify(&self, served: &Served, inputs: &ServedInputs) -> (u64, u64) {
        let exact = self.backend == Backend::Scalar;
        let (mut checked, mut wrong) = (0u64, 0u64);
        for conn in &served.conns {
            for (local, rec) in &conn.book.recorded {
                let session = inputs.global(conn.book.conn, *local);
                let steps = (conn.book.steps[*local] as usize).min(conn.book.record_limit);
                let mut solo = self.shapes().builder().backend(Backend::Scalar).lanes(1).build();
                if rec.len() != steps * IO_WIDTH {
                    // A chosen session's record lost rows: count them all.
                    wrong += steps as u64;
                    continue;
                }
                for t in 0..steps {
                    let want = solo.step(inputs.row(session, t));
                    checked += 1;
                    wrong +=
                        !rows_agree(&rec[t * IO_WIDTH..(t + 1) * IO_WIDTH], &want, exact) as u64;
                }
            }
        }
        (checked, wrong)
    }

    /// The invariants every served run must keep, read from the hub's
    /// own counters.
    fn check_invariants(&self, out: &mut Outcome, snap: &MetricsSnapshot, answered: u64) {
        let stepped = counter(snap, "serve.scheduler.steps");
        let replayed = hist_sum(snap, "store.replay_steps");
        out.require(stepped == answered + replayed, || {
            format!("sched.steps {stepped} != {answered} steps answered + {replayed} replayed")
        });
        let errors = error_replies(snap);
        out.require(errors == 0, || format!("{errors} error replies"));
        let (parks, splices) =
            (counter(snap, "serve.scheduler.parks"), counter(snap, "serve.scheduler.splices"));
        if self.sessions <= GRID_LANES {
            out.require(parks == 0 && splices == 0, || {
                format!("{parks} parks and {splices} splices with every session resident")
            });
        }
        let appends = counter(snap, "store.log_appends");
        if self.durable {
            out.require(appends == answered, || {
                format!("store.appends_per_step: {appends} appends for {answered} steps")
            });
        } else {
            let activity = appends
                + counter(snap, "store.evictions")
                + counter(snap, "store.rehydrations")
                + counter(snap, "store.errors")
                + hist_count(snap, "store.snapshot_us");
            out.require(activity == 0, || {
                format!("store activity ({activity}) with the store off")
            });
        }
    }

    /// Restarts a durable workload's server and checks what the new hub
    /// reports; other workloads pass through.
    fn restart_if_durable(
        &self,
        out: &mut Outcome,
        served: Served,
        inputs: &ServedInputs,
    ) -> Result<(Served, Duration), ClientError> {
        if !self.durable {
            return Ok((served, Duration::ZERO));
        }
        let (served, took) = self.restart(served, inputs)?;
        let snap = served.snapshot();
        let recovered = counter(&snap, "store.recovered");
        out.require(recovered == self.sessions as u64, || {
            format!("{recovered} of {} sessions adopted after the restart", self.sessions)
        });
        let errors = error_replies(&snap) + counter(&snap, "store.errors");
        out.require(errors == 0, || format!("{errors} errors after the restart"));
        Ok((served, took))
    }

    /// The end-to-end run: set-ups, the measured phase, the restart (on
    /// the durable workload), the gate.
    pub fn run(&self, opts: &RunOpts) -> Result<Outcome, ClientError> {
        let mut out = Outcome::default();
        let inputs = ServedInputs::new(opts.seed, self.sessions, IO_WIDTH);
        let chosen = pick_two(opts.seed, self.sessions);

        // The first set-up serves the measured phase; the others follow
        // it, so the peak resident set is that of one server's life.
        let t = Instant::now();
        let (mut served, warm_digest, slowdown) = self.set_up(&inputs, opts, chosen, None)?;
        let mut setups = vec![t.elapsed().as_secs_f64() * scale_of(slowdown)];
        let (warmed, _) = served.tally();

        let measured = Stop::After(Duration::from_secs_f64(opts.seconds));
        let measured = phase(&mut served.conns, &inputs, measured, None);
        let snap = served.snapshot();
        self.check_invariants(&mut out, &snap, served.steps_answered());
        let rss = peak_rss_mib();
        let (served, _) = self.restart_if_durable(&mut out, served, &inputs)?;

        let (checked, wrong) = self.verify(&served, &inputs);
        let (attempted, failed) = served.tally();
        out.attempted = attempted - warmed;
        out.failed = failed + wrong;
        drop(served);
        for _ in 1..opts.setups() {
            let t = Instant::now();
            let (again, _, slowdown) = self.set_up(&inputs, opts, chosen, None)?;
            setups.push(t.elapsed().as_secs_f64() * scale_of(slowdown));
            drop(again);
        }

        let stats = phase_stats(&measured.rtt, measured.wall);
        out.metric("steps_per_s", stats.steps_per_s);
        out.metric("step_p50_us", stats.p50_ns / 1e3);
        out.metric("setup_s", median(&setups));
        out.metric("peak_rss_mb", rss);
        out.info.push(("schedule_digest", format!("{:016x}", inputs.digest().0)));
        out.info.push(("warmup_outputs_digest", format!("{:016x}", warm_digest.0)));
        out.wall_clock(&stats);
        out.info.push(("steps_verified", checked.to_string()));
        Ok(out)
    }

    /// L1 of the depth peel: the same schedule through
    /// `SessionHub::dispatch` from two threads, no TCP, in as many short
    /// slices as the other levels use.
    fn hub_slices(
        &self,
        inputs: &ServedInputs,
        opts: &RunOpts,
        slice: Duration,
        spans: &mut SpanBuf,
    ) -> Result<Vec<Phase>, ClientError> {
        let store = self.fresh_store("hub-store")?;
        let hub = Arc::new(SessionHub::with_store(
            Self::serve_config(None),
            store.as_ref().map(|dir| Self::store_config(dir, None)),
        )?);
        let no_gate = [usize::MAX; 2];
        let mut conns = (0..CONNECTIONS)
            .map(|conn| self.open_sessions(HubPort(Arc::clone(&hub)), conn, inputs, no_gate))
            .collect::<Result<Vec<_>, _>>()?;
        phase(&mut conns, inputs, Stop::Samples(opts.warm(self.warmup_per_conn) / 4), None);
        let parent = spans.begin("hub.slices", NO_PARENT, (0, 0));
        let slices = (0..layers::ROUNDS)
            .map(|_| phase(&mut conns, inputs, Stop::After(slice), Some((&mut *spans, parent))))
            .collect();
        spans.end(parent);
        let failed: u64 = conns.iter().map(|c| c.book.failed).sum();
        if failed > 0 {
            return Err(ClientError::Protocol(format!("{failed} steps failed through the hub")));
        }
        Ok(slices)
    }

    /// The traced run: the TCP pass with spans on and with an idle fault
    /// plan armed, each interleaved with the plain pass (L2); the hub
    /// alone (L1); the engine alone (L0); the layers in isolation.
    pub fn trace(&self, opts: &RunOpts, spans: &mut SpanBuf) -> Result<Outcome, ClientError> {
        let mut out = Outcome::default();
        let inputs = ServedInputs::new(opts.seed, self.sessions, IO_WIDTH);
        let chosen = pick_two(opts.seed, self.sessions);
        let share = |f: f64| Duration::from_secs_f64(opts.seconds * f);
        let micro = Duration::from_secs_f64((opts.seconds * 0.01).min(0.2));
        let shapes = self.shapes();

        // L2: plain, traced, and a second server whose fault plan is
        // armed but never fires.
        let (mut served, ..) = self.set_up(&inputs, opts, chosen, None)?;
        let (mut armed, ..) =
            self.set_up(&inputs, opts, chosen, Some(Arc::new(FaultPlan::new(opts.seed))))?;
        let before = served.snapshot();
        let answered_before = served.steps_answered();
        let slice = Stop::After(share(0.6 / (3 * layers::ROUNDS) as f64));
        let parent = spans.begin("wire.slices", NO_PARENT, (0, 0));
        let wire = layers::rotate(3, |variant| match variant {
            0 => phase(&mut served.conns, &inputs, slice, None),
            1 => phase(&mut served.conns, &inputs, slice, Some((&mut *spans, parent))),
            _ => phase(&mut armed.conns, &inputs, slice, None),
        });
        spans.end(parent);
        drop(armed);
        let after = served.snapshot();
        let steps = (served.steps_answered() - answered_before) as f64;
        let driven_ns: f64 = wire[..2].iter().flatten().map(|p| p.wall.as_nanos() as f64).sum();
        self.check_invariants(&mut out, &after, served.steps_answered());
        let (served, recover) = self.restart_if_durable(&mut out, served, &inputs)?;
        (out.attempted, out.failed) = served.tally();
        drop(served);
        let rates: Vec<Vec<f64>> =
            wire.iter().map(|v| v.iter().map(Phase::rate).collect()).collect();

        let delta = |name: &str| (counter(&after, name) - counter(&before, name)) as f64;
        let hist_delta = |name: &str, f: fn(&MetricsSnapshot, &str) -> u64| {
            (f(&after, name) - f(&before, name)) as f64
        };
        let ticks = delta("serve.scheduler.ticks");
        let tick_ns = hist_delta("serve.scheduler.tick_ns", hist_sum);
        let per_step = |name: &str| delta(name) / steps;
        out.metric("sched.ticks", ticks);
        out.metric("sched.steps_per_tick", delta("serve.scheduler.steps") / ticks);
        out.metric("sched.tick_mean_ns", tick_ns / ticks);
        out.metric("sched.tick_busy_ratio", tick_ns / driven_ns);
        out.metric("sched.parks_per_step", per_step("serve.scheduler.parks"));
        out.metric("sched.splices_per_step", per_step("serve.scheduler.splices"));
        out.metric("sched.lane_hit_ratio", 1.0 - per_step("serve.scheduler.splices"));
        out.metric("sched.shed", delta("overload.shed") + delta("overload.deadline_expired"));
        out.metric("serve.errors", error_replies(&after) as f64);
        out.metric("wire.bytes_per_step", (delta("net.bytes_in") + delta("net.bytes_out")) / steps);
        let mut rtt_ns: Vec<u64> = wire[1].iter().flat_map(Phase::all_ns).collect();
        out.metric("wire.step_p999_us", percentile_ns(&mut rtt_ns, 0.999) / 1e3);
        out.metric("wire.step_max_us", percentile_ns(&mut rtt_ns, 1.0) / 1e3);
        // The end-to-end rule with a slice standing in for a window.
        let tails: Vec<f64> =
            wire[0].iter().map(|p| phase_stats(&p.rtt, p.wall).p99_ns / 1e3).collect();
        out.metric("step_p99_us", lower_quartile(&tails));
        let (rtt_p50, _) = quiet_latency(&wire[1]);
        out.metric("wire.rtt_p50_ns", rtt_p50);
        out.metric("trace.overhead_pct", layers::overhead_pct(&rates[0], &rates[1]));
        out.metric("chaos.armed_idle_overhead_pct", layers::overhead_pct(&rates[0], &rates[2]));
        let snapshots_per_step = hist_delta("store.snapshot_us", hist_count) / steps;
        if self.durable {
            out.metric("store.appends_per_step", per_step("store.log_appends"));
            out.metric("store.snapshots", snapshots_per_step * steps);
            out.metric("store.evictions_per_step", per_step("store.evictions"));
            out.metric("store.rehydrations_per_step", per_step("store.rehydrations"));
            out.metric("store.recover_ms", recover.as_secs_f64() * 1e3);
            out.metric("store.errors", counter(&after, "store.errors") as f64);
        }

        // L1: the hub alone.
        let slice = share(0.1 / layers::ROUNDS as f64);
        let (dispatch_p50, dispatch_p99) =
            quiet_latency(&self.hub_slices(&inputs, opts, slice, spans)?);
        out.metric("hub.dispatch_p50_ns", dispatch_p50);
        out.metric("hub.dispatch_p99_ns", dispatch_p99);

        // L0: the engine alone — plain, profiled, and on two threads.
        let mut replay = EngineReplay::new(self, &inputs);
        let slice = share(0.2 / (3 * layers::ROUNDS) as f64);
        let engine = layers::rotate(3, |variant| {
            replay.engine.set_profiling(variant == 1);
            if variant == 2 {
                // The one slice that is about a second core runs unpinned.
                Pin::lifted(opts.pin, || replay.slice(slice, 2))
            } else {
                replay.slice(slice, 1)
            }
        });
        replay.engine.set_profiling(false);
        let rates: Vec<Vec<f64>> =
            engine.iter().map(|v| v.iter().map(Phase::rate).collect()).collect();
        // One lane is active per grid step, so the two read the same.
        let (lane_step_ns, _) = quiet_latency(&engine[0]);
        out.metric("dnc.lane_step_ns", lane_step_ns);
        out.metric("dnc.grid_step_ns", lane_step_ns);
        out.metric("dnc.occupancy", 1.0 / GRID_LANES as f64);
        layers::shares(&mut out, layers::DNC_SHARES, &replay.engine.profile().category_shares());
        out.metric("dnc.profile_overhead_pct", layers::overhead_pct(&rates[0], &rates[1]));
        out.metric("dnc.par_speedup_2t", layers::rate_ratio(&rates[0], &rates[2]));

        // The layers in isolation.
        layers::tensor(&mut out, &shapes, micro);
        layers::unit_step(&mut out, &shapes, micro);
        layers::engine_state(&mut out, &shapes, micro);
        layers::model_shares(&mut out, &shapes);
        let frames = layers::protocol(&mut out, IO_WIDTH, micro);
        let floor = layers::loopback_floor(&frames, share(0.03))?;
        out.metric("wire.loopback_floor_ns", floor);
        layers::telemetry(&mut out, micro);
        out.metric(
            "telemetry.tick_overhead_pct",
            layers::telemetry_tick_overhead(&shapes, opts.warm(200), 3),
        );
        if self.durable {
            let dir = self.scratch("micro-store")?;
            let state = shapes.builder().lanes(1).build().export_lane(0).encode();
            layers::store(&mut out, &dir.0, &state, IO_WIDTH, micro)?;
        }

        // The two residuals the depth peel leaves: what a dispatch costs
        // beyond the pieces timed on their own, and what the wire adds
        // to a dispatch beyond the loopback floor and the codec.
        let explained = lane_step_ns
            + per_step("serve.scheduler.splices")
                * (value(&out, "dnc.export_lane_ns") + value(&out, "dnc.import_lane_ns"))
            + per_step("store.log_appends") * value(&out, "store.log_append_ns")
            + snapshots_per_step * value(&out, "store.snapshot_write_us") * 1e3
            + per_step("store.rehydrations") * value(&out, "store.load_us") * 1e3;
        out.metric("hub.unexplained_ns", dispatch_p50 - explained);
        let codec_ns: f64 = [
            "protocol.step_req_encode_ns",
            "protocol.step_req_decode_ns",
            "protocol.step_resp_encode_ns",
            "protocol.step_resp_decode_ns",
        ]
        .iter()
        .map(|n| value(&out, n))
        .sum();
        out.metric("wire.unexplained_ns", rtt_p50 - (dispatch_p50 + floor + codec_ns));
        out.info.push(("schedule_digest", format!("{:016x}", inputs.digest().0)));
        Ok(out)
    }
}

/// L0 of the depth peel: the engine alone, stepping the lane each
/// scheduled request would activate (the two connections' requests
/// interleaved; session `s` sits on lane `s mod 8`).
struct EngineReplay<'a> {
    inputs: &'a ServedInputs,
    engine: BoxedEngine,
    masks: Vec<LaneMask>,
    x: Matrix,
    y: Matrix,
    /// Steps replayed so far, per session.
    steps: Vec<usize>,
    cursor: usize,
}

impl<'a> EngineReplay<'a> {
    fn new(workload: &ServedWorkload, inputs: &'a ServedInputs) -> Self {
        Self {
            inputs,
            engine: workload.shapes().builder().lanes(GRID_LANES).build(),
            masks: (0..GRID_LANES).map(|l| LaneMask::from_fn(GRID_LANES, |b| b == l)).collect(),
            x: Matrix::zeros(GRID_LANES, IO_WIDTH),
            y: Matrix::zeros(GRID_LANES, IO_WIDTH),
            steps: vec![0; workload.sessions],
            cursor: 0,
        }
    }

    /// Replays the schedule for `window`, timing every grid step.
    fn slice(&mut self, window: Duration, threads: usize) -> Phase {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().expect("pool builds");
        let start = Instant::now();
        let mut grid = Timeline::new(start, window, WINDOWS, 1 << 14);
        pool.install(|| loop {
            let conn = self.cursor % CONNECTIONS;
            let draw = self.inputs.draw(conn, self.cursor / CONNECTIONS);
            let session = self.inputs.global(conn, draw);
            self.cursor += 1;
            let lane = session % GRID_LANES;
            self.x.row_mut(lane).copy_from_slice(self.inputs.row(session, self.steps[session]));
            self.steps[session] += 1;
            let t0 = Instant::now();
            self.engine.step_batch_masked_into(&self.x, &self.masks[lane], &mut self.y);
            let t1 = Instant::now();
            grid.push(t1, t1.duration_since(t0), 1);
            if t1.duration_since(start) >= window {
                break;
            }
        });
        Phase { rtt: vec![grid], wall: start.elapsed() }
    }
}

/// A metric already written to `out` (0 if absent).
fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> RunOpts {
        RunOpts { seed: 11, seconds: 0.05, smoke: true, pin: None }
    }

    #[test]
    fn short_runs_pass_their_own_gate() {
        for name in ["serve_resident", "serve_churn", "serve_durable"] {
            let out = workload(name).unwrap().run(&smoke()).unwrap();
            assert!(out.correct(), "{name}: {:?} failed {}", out.violations, out.failed);
            assert!(out.attempted > 0);
        }
    }

    #[test]
    fn the_gate_catches_a_corrupted_output() {
        let w = workload("serve_churn").unwrap();
        let inputs = ServedInputs::new(11, w.sessions, IO_WIDTH);
        let (mut served, ..) = w.set_up(&inputs, &smoke(), pick_two(11, w.sessions), None).unwrap();
        assert_eq!(w.verify(&served, &inputs).1, 0);
        let rec = served
            .conns
            .iter_mut()
            .flat_map(|c| c.book.recorded.iter_mut())
            .find(|(_, rows)| !rows.is_empty())
            .expect("a chosen session stepped during the warm-up");
        rec.1[0] += 1.0;
        assert_eq!(w.verify(&served, &inputs).1, 1);
    }

    #[test]
    fn the_hub_port_answers_like_the_wire() {
        let w = workload("serve_churn").unwrap();
        let inputs = ServedInputs::new(3, w.sessions, IO_WIDTH);
        let hub = Arc::new(SessionHub::new(ServedWorkload::serve_config(None)));
        let mut direct = w.open_sessions(HubPort(Arc::clone(&hub)), 0, &inputs, [0, 1]).unwrap();
        let server = Server::bind("127.0.0.1:0", ServedWorkload::serve_config(None)).unwrap();
        let client = Client::connect(server.addr()).unwrap();
        let mut wired = w.open_sessions(client, 0, &inputs, [0, 1]).unwrap();
        for _ in 0..3 {
            let a = direct.book.step(&mut direct.port, &inputs, 0).unwrap();
            let b = wired.book.step(&mut wired.port, &inputs, 0).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(direct.book.recorded, wired.book.recorded);
        assert_eq!(direct.book.steps[0], 3);
    }
}
