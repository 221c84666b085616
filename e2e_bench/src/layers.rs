//! Per-layer measurements that need no workload traffic: each layer's
//! public entry points timed from outside, at the workload's shapes.
//! Unless noted a number is a per-call time over up to 1 000 timed
//! batches (fewer for calls so slow that 1 000 would not fit the run —
//! never fewer than 20): the median of the fastest quarter of them, the
//! same quiet-quarter rule the end-to-end figures follow (see `stats`).

use crate::report::Outcome;
use crate::stats::{median, percentile_ns, quiet};
use hima::dnc::{
    Datapath, DncParams, EngineBuilder, EngineSpec, InterfaceVector, KernelCategory, LaneState,
    MemoryConfig, MemoryUnit, QuantizedMemoryUnit, Topology,
};
use hima::engine::{Engine, EngineConfig};
use hima::serve::protocol::{read_frame, write_frame};
use hima::serve::{Request, Response, ServeMetrics};
use hima::store::SessionStore;
use hima::telemetry::MetricsRegistry;
use hima::tensor::{Backend, LaneMask, Matrix, QFormat};
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Weight seed of every engine the benchmark builds or asks a server for.
pub const ENGINE_SEED: u64 = 7;

const MAX_BATCHES: usize = 1000;
const MIN_BATCHES: usize = 20;
/// Calls are timed in batches at least this long, so the clock's own
/// cost (tens of ns) stays small next to what it times.
const BATCH_NS: f64 = 5_000.0;

/// Per-call nanoseconds of `f` over its quiet batches.
pub fn call_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    for _ in 0..4 {
        f();
    }
    let estimate = probe.elapsed().as_nanos() as f64 / 4.0;
    let inner = ((BATCH_NS / estimate.max(1.0)).ceil() as usize).clamp(1, 10_000);
    let mut samples = Vec::with_capacity(MAX_BATCHES);
    let start = Instant::now();
    while samples.len() < MAX_BATCHES && (samples.len() < MIN_BATCHES || start.elapsed() < budget) {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / inner as f64);
    }
    median(&quiet(samples, |ns| -ns))
}

/// Rounds of a [`rotate`] comparison.
pub const ROUNDS: usize = 15;

/// Runs `variants` of one measurement in short slices, round-robin with
/// the lead rotating every round, and returns each variant's slices in
/// round order. The box's speed drifts by the second, so variants timed
/// one after the other would mostly measure the drift; interleaved, the
/// slices of one round see the same weather, and the comparisons below
/// pair them round by round.
pub fn rotate<T>(variants: usize, mut slice: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..variants).map(|_| Vec::with_capacity(ROUNDS)).collect();
    for round in 0..ROUNDS {
        for k in 0..variants {
            let v = (round + k) % variants;
            out[v].push(slice(v));
        }
    }
    out
}

/// Median over the rounds of `variant`'s rate as a share of `base`'s.
pub fn rate_ratio(base: &[f64], variant: &[f64]) -> f64 {
    median(&base.iter().zip(variant).map(|(b, v)| v / b).collect::<Vec<_>>())
}

/// By how many percent `variant`'s rate falls short of `base`'s.
pub fn overhead_pct(base: &[f64], variant: &[f64]) -> f64 {
    (1.0 - rate_ratio(base, variant)) * 100.0
}

/// The shapes a workload runs its engine at.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    pub params: DncParams,
    pub spec: EngineSpec,
    /// Lanes of the engine grid.
    pub lanes: usize,
}

impl Shapes {
    pub fn builder(&self) -> EngineBuilder {
        EngineBuilder::new(self.params).with_spec(self.spec).seed(ENGINE_SEED)
    }

    /// Memory rows one memory unit owns (`N` ÷ tiles).
    fn tile_rows(&self) -> usize {
        self.params.memory_size / self.spec.tiles()
    }
}

fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| (((i * 31 + j * 7 + salt) as f32) * 0.13).sin())
}

/// `tensor.*`: the hot kernels on both tiers at the workload's shapes.
pub fn tensor(out: &mut Outcome, shapes: &Shapes, budget: Duration) {
    let p = &shapes.params;
    let nt = shapes.tile_rows();
    let gate_in = p.input_size + p.read_heads * p.word_size + p.hidden_size;
    let x = test_matrix(shapes.lanes, gate_in, 1);
    let w = test_matrix(4 * p.hidden_size, gate_in, 2);
    let mask = LaneMask::full(shapes.lanes);
    let mut gates = Matrix::zeros(shapes.lanes, 4 * p.hidden_size);
    let linkage = test_matrix(nt, nt, 3);
    let weights: Vec<f32> =
        (0..nt).map(|i| ((i * 13) as f32 * 0.21).sin().abs() / nt as f32).collect();
    let mut vec_out = vec![0.0f32; nt];
    let memory = test_matrix(nt, p.word_size, 4);
    let logits: Vec<f32> = (0..nt).map(|i| ((i * 7) as f32 * 0.17).sin() * 4.0).collect();
    let mut soft = logits.clone();

    for (backend, names) in [
        (
            Backend::Scalar,
            [
                "tensor.matmul_nt_masked.scalar_ns",
                "tensor.matvec.scalar_ns",
                "tensor.matvec_t.scalar_ns",
                "tensor.row_norms.scalar_ns",
                "tensor.softmax.scalar_ns",
            ],
        ),
        (
            Backend::Blocked,
            [
                "tensor.matmul_nt_masked.blocked_ns",
                "tensor.matvec.blocked_ns",
                "tensor.matvec_t.blocked_ns",
                "tensor.row_norms.blocked_ns",
                "tensor.softmax.blocked_ns",
            ],
        ),
    ] {
        out.metric(
            names[0],
            call_ns(budget, || backend.matmul_nt_masked_into(black_box(&x), &w, &mask, &mut gates)),
        );
        out.metric(
            names[1],
            call_ns(budget, || backend.matvec_into(black_box(&linkage), &weights, &mut vec_out)),
        );
        out.metric(
            names[2],
            call_ns(budget, || backend.matvec_t_into(black_box(&linkage), &weights, &mut vec_out)),
        );
        out.metric(
            names[3],
            call_ns(budget, || backend.row_norms_into(black_box(&memory), &mut vec_out)),
        );
        out.metric(
            names[4],
            call_ns(budget, || {
                soft.copy_from_slice(&logits);
                backend.softmax_inplace(black_box(&mut soft));
            }),
        );
    }
    let q = QFormat::q16_16();
    let mut block: Vec<f32> = linkage.as_slice().to_vec();
    out.metric(
        "tensor.quantize_slice_ns",
        call_ns(budget, || q.quantize_slice_inplace(black_box(&mut block))),
    );
}

/// `dnc.unit_step_ns`: one memory unit of the workload's datapath and
/// tile size, stepped on a fixed interface vector.
pub fn unit_step(out: &mut Outcome, shapes: &Shapes, budget: Duration) {
    let p = &shapes.params;
    let cfg = MemoryConfig::new(shapes.tile_rows(), p.word_size, p.read_heads)
        .with_skim(shapes.spec.skim)
        .with_approx_softmax(shapes.spec.approx_softmax)
        .with_backend(shapes.spec.backend);
    let raw: Vec<f32> = (0..p.interface_size()).map(|i| ((i * 11) as f32 * 0.07).sin()).collect();
    let iv = InterfaceVector::parse(&raw, p.word_size, p.read_heads);
    let mut read = vec![0.0f32; p.read_heads * p.word_size];
    let ns = match shapes.spec.datapath {
        Datapath::F32 => {
            let mut unit = MemoryUnit::new(cfg);
            unit.set_profiling(false);
            call_ns(budget, || unit.step_into(black_box(&iv), &mut read))
        }
        Datapath::Quantized(format) => {
            let mut unit = QuantizedMemoryUnit::with_format(cfg, format);
            unit.set_profiling(false);
            call_ns(budget, || unit.step_into(black_box(&iv), &mut read))
        }
    };
    out.metric("dnc.unit_step_ns", ns);
}

/// `dnc.build_ms`, the lane splice and the lane-state codec, on an
/// engine that has stepped far enough to hold non-blank state.
pub fn engine_state(out: &mut Outcome, shapes: &Shapes, budget: Duration) {
    let builder = shapes.builder().lanes(shapes.lanes);
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(builder.build());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.metric("dnc.build_ms", median(&builds));

    let mut engine = builder.build();
    for t in 0..8 {
        engine.step_batch(&test_matrix(shapes.lanes, shapes.params.input_size, t));
    }
    out.metric(
        "dnc.export_lane_ns",
        call_ns(budget, || {
            black_box(engine.export_lane(0));
        }),
    );
    let state = engine.export_lane(0);
    out.metric("dnc.import_lane_ns", call_ns(budget, || engine.import_lane(0, black_box(&state))));
    let bytes = state.encode();
    out.metric(
        "dnc.state_encode_ns",
        call_ns(budget, || {
            black_box(state.encode());
        }),
    );
    out.metric(
        "dnc.state_decode_ns",
        call_ns(budget, || {
            black_box(LaneState::decode(black_box(&bytes)).expect("own encoding decodes"));
        }),
    );
    out.metric("dnc.state_bytes", bytes.len() as f64);
}

/// The engine's measured category shares, in `KernelCategory::ALL` order.
pub const DNC_SHARES: [&str; 5] = [
    "dnc.share.history_write",
    "dnc.share.history_read",
    "dnc.share.content",
    "dnc.share.memory_access",
    "dnc.share.controller",
];
/// The cycle model's, in the same order.
const MODEL_SHARES: [&str; 5] = [
    "model.share.history_write",
    "model.share.history_read",
    "model.share.content",
    "model.share.memory_access",
    "model.share.controller",
];

/// Writes five category shares under `names`.
pub fn shares(out: &mut Outcome, names: [&'static str; 5], shares: &[(KernelCategory, f64)]) {
    debug_assert!(shares.iter().map(|(c, _)| *c).eq(KernelCategory::ALL));
    for (name, (_, share)) in names.into_iter().zip(shares) {
        out.metric(name, *share);
    }
}

/// `model.share.*`: the architectural cycle model's breakdown for the
/// configuration the workload runs — printed beside `dnc.share.*`.
pub fn model_shares(out: &mut Outcome, shapes: &Shapes) {
    let p = &shapes.params;
    let tiles = shapes.spec.tiles();
    let mut cfg = match shapes.spec.topology {
        Topology::Monolithic => EngineConfig::hima_dnc(tiles),
        Topology::Sharded { .. } => EngineConfig::hima_dncd(tiles),
    }
    .with_geometry(p.memory_size, p.word_size, p.read_heads)
    .with_skim(shapes.spec.skim)
    .with_approx_softmax(shapes.spec.approx_softmax);
    cfg.hidden_size = p.hidden_size;
    shares(out, MODEL_SHARES, &Engine::new(cfg).step_report().category_shares());
}

/// Encoded sizes of one `Step` request and its `Stepped` response.
pub struct FrameSizes {
    pub request: usize,
    pub response: usize,
}

/// `protocol.*`: one step's request and response through the codec.
pub fn protocol(out: &mut Outcome, width: usize, budget: Duration) -> FrameSizes {
    let row: Vec<f32> = (0..width).map(|i| (i as f32 * 0.3).sin()).collect();
    let req = Request::Step { session: 7, input: row.clone(), deadline_ms: 0 };
    let resp = Response::Stepped { outputs: vec![row] };
    let req_bytes = req.encode();
    let resp_bytes = resp.encode();
    out.metric(
        "protocol.step_req_encode_ns",
        call_ns(budget, || {
            black_box(black_box(&req).encode());
        }),
    );
    out.metric(
        "protocol.step_req_decode_ns",
        call_ns(budget, || {
            black_box(Request::decode(black_box(&req_bytes)).expect("own encoding decodes"));
        }),
    );
    out.metric(
        "protocol.step_resp_encode_ns",
        call_ns(budget, || {
            black_box(black_box(&resp).encode());
        }),
    );
    out.metric(
        "protocol.step_resp_decode_ns",
        call_ns(budget, || {
            black_box(Response::decode(black_box(&resp_bytes)).expect("own encoding decodes"));
        }),
    );
    out.metric("protocol.step_req_bytes", req_bytes.len() as f64);
    out.metric("protocol.step_resp_bytes", resp_bytes.len() as f64);
    FrameSizes { request: req_bytes.len(), response: resp_bytes.len() }
}

/// `wire.loopback_floor_ns`: the median round trip of same-sized frames
/// echoed over loopback by the benchmark's own threads, two connections
/// at once like the workload — what the box charges for a round trip
/// before the server does anything.
pub fn loopback_floor(sizes: &FrameSizes, window: Duration) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let reply = vec![0u8; sizes.response];
    let request = vec![0u8; sizes.request];
    let mut samples: Vec<u64> = Vec::new();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let pairs = (0..crate::inputs::CONNECTIONS)
            .map(|_| socket_pair(&listener))
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut clients = Vec::new();
        for (server_side, client_side) in pairs {
            let reply = &reply;
            scope.spawn(move || {
                let mut reader = BufReader::new(server_side.try_clone().expect("clone socket"));
                let mut writer = BufWriter::new(server_side);
                while let Ok(Some(_)) = read_frame(&mut reader) {
                    if write_frame(&mut writer, reply).is_err() {
                        break;
                    }
                }
            });
            let request = &request;
            clients.push(scope.spawn(move || -> std::io::Result<Vec<u64>> {
                let mut reader = BufReader::new(client_side.try_clone()?);
                let mut writer = BufWriter::new(client_side);
                let mut rtts = Vec::with_capacity(1 << 16);
                let start = Instant::now();
                let mut t = start;
                while t.duration_since(start) < window {
                    write_frame(&mut writer, request)?;
                    read_frame(&mut reader)?;
                    let now = Instant::now();
                    rtts.push(now.duration_since(t).as_nanos() as u64);
                    t = now;
                }
                Ok(rtts)
                // Dropping the client's socket ends its echo thread.
            }));
        }
        for client in clients {
            samples.extend(client.join().expect("echo client panicked")?);
        }
        Ok(())
    })?;
    Ok(percentile_ns(&mut samples, 0.5))
}

/// One connected loopback pair: `(accepted side, connecting side)`.
fn socket_pair(listener: &TcpListener) -> std::io::Result<(TcpStream, TcpStream)> {
    let client = TcpStream::connect(listener.local_addr()?)?;
    client.set_nodelay(true)?;
    let (server, _) = listener.accept()?;
    server.set_nodelay(true)?;
    Ok((server, client))
}

/// `telemetry.*` primitives: one counter increment, one histogram
/// observation, one snapshot of the full serve catalog.
pub fn telemetry(out: &mut Outcome, budget: Duration) {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("bench.counter");
    let histogram = registry.histogram("bench.histogram");
    out.metric("telemetry.counter_inc_ns", call_ns(budget, || black_box(&counter).inc()));
    let mut v = 1u64;
    out.metric(
        "telemetry.hist_observe_ns",
        call_ns(budget, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            black_box(&histogram).observe(v >> 40);
        }),
    );
    let catalog = ServeMetrics::new();
    out.metric(
        "telemetry.snapshot_us",
        call_ns(budget, || {
            black_box(catalog.snapshot());
        }) / 1e3,
    );
}

/// `telemetry.tick_overhead_pct`: the `throughput` bench's fixed-work
/// pair — one engine steps the same full-grid blocks bare and with the
/// scheduler's complete per-tick recording, interleaved in small chunks
/// with the lead swapping, best of the reps.
pub fn telemetry_tick_overhead(shapes: &Shapes, steps: usize, reps: usize) -> f64 {
    let lanes = shapes.lanes;
    let mut engine = shapes.builder().lanes(lanes).build();
    let mut y = Matrix::zeros(lanes, shapes.params.output_size);
    let xs: Vec<Matrix> =
        (0..steps).map(|t| test_matrix(lanes, shapes.params.input_size, t)).collect();
    let metrics = ServeMetrics::new();
    let session_latency = metrics.session_histogram(1);
    const CHUNK: usize = 25;
    let mut best = (u128::MAX, u128::MAX);
    for rep in 0..=reps {
        let (mut bare_ns, mut inst_ns) = (0u128, 0u128);
        for (c, chunk) in xs.chunks(CHUNK).enumerate() {
            let order = if c % 2 == 0 { [false, true] } else { [true, false] };
            for instrumented in order {
                let start = Instant::now();
                if instrumented {
                    for x in chunk {
                        let t0 = Instant::now();
                        engine.step_batch_into(x, &mut y);
                        let now = Instant::now();
                        metrics.ticks.inc();
                        metrics.steps.add(lanes as u64);
                        metrics.tick_ns.observe(now.duration_since(t0).as_nanos() as u64);
                        metrics.batch_size.observe(lanes as u64);
                        metrics.occupancy_pct.observe(100);
                        metrics.active_lanes.set(lanes as i64);
                        metrics.queue_depth.sub(lanes as i64);
                        let us = now.duration_since(t0).as_micros() as u64;
                        for _ in 0..lanes {
                            session_latency.observe(us);
                            metrics.step_latency_us.observe(us);
                        }
                    }
                } else {
                    for x in chunk {
                        engine.step_batch_into(x, &mut y);
                    }
                }
                let ns = start.elapsed().as_nanos();
                if instrumented {
                    inst_ns += ns;
                } else {
                    bare_ns += ns;
                }
            }
        }
        // Rep 0 warms both sides up.
        if rep > 0 {
            best = (best.0.min(bare_ns), best.1.min(inst_ns));
        }
    }
    (best.1 as f64 - best.0 as f64) / best.0 as f64 * 100.0
}

/// `store.*` primitives on a scratch store under `dir`: WAL append and
/// sync, snapshot write, and loading a snapshot plus a 63-record log.
pub fn store(
    out: &mut Outcome,
    dir: &Path,
    state: &[u8],
    width: usize,
    budget: Duration,
) -> std::io::Result<()> {
    let store = SessionStore::open(dir)?;
    let key = b"e2e-bench".to_vec();
    let row: Vec<f32> = (0..width).map(|i| (i as f32 * 0.3).sin()).collect();

    let mut log = store.log_writer(1, &key)?;
    let mut seq = 0u64;
    let mut failed = false;
    out.metric(
        "store.log_append_ns",
        call_ns(budget, || {
            seq += 1;
            failed |= log.append(seq, &row).is_err();
        }),
    );
    out.metric(
        "store.log_sync_ns",
        call_ns(budget, || {
            seq += 1;
            failed |= log.append(seq, &row).is_err() || log.sync().is_err();
        }),
    );
    drop(log);
    out.metric(
        "store.snapshot_write_us",
        call_ns(budget, || {
            seq += 1;
            failed |= store.save_snapshot(2, &key, seq, state).is_err();
        }) / 1e3,
    );
    out.metric("store.snapshot_bytes", state.len() as f64);

    store.save_snapshot(3, &key, 100, state)?;
    let mut log = store.log_writer(3, &key)?;
    for s in 101..=163 {
        log.append(s, &row)?;
    }
    drop(log);
    out.metric(
        "store.load_us",
        call_ns(budget, || {
            failed |= !matches!(store.load(3), Ok(Some(_)));
        }) / 1e3,
    );
    if failed {
        return Err(std::io::Error::other("a store operation failed while being timed"));
    }
    Ok(())
}
