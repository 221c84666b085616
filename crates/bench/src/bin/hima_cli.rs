//! `hima-cli` — one entry point for every experiment in the reproduction.
//!
//! ```console
//! $ hima-cli list
//! $ hima-cli run fig7
//! $ hima-cli run all
//! $ hima-cli engine --tiles 32 --level dncd
//! $ hima-cli step --tiles 4 --lanes 8 --quantized --steps 50
//! $ hima-cli babi path/to/qa1_train.txt
//! $ hima-cli serve --addr 127.0.0.1:7070 --lanes 8
//! $ hima-cli session --addr 127.0.0.1:7070 --steps 20
//! $ hima-cli metrics --addr 127.0.0.1:7070 --trace
//! $ hima-cli session --addr 127.0.0.1:7070 --shutdown
//! ```

use hima::prelude::*;
use hima::serve::loadgen::synth_input;
use hima::serve::{
    run_load, ArrivalPattern, ClientOptions, FaultKind, FaultPlan, FaultRule, FaultSite,
    LoadConfig, RetryPolicy, TraceKind,
};
use hima::tensor::{Matrix, QFormat};
use hima_bench::experiments::{self, EXPERIMENTS};
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("run") => run(args.get(1).map(String::as_str)),
        Some("engine") => engine(&args[1..]),
        Some("step") => step(&args[1..]),
        Some("babi") => babi(args.get(1).map(String::as_str)),
        Some("serve") => serve(&args[1..]),
        Some("load") => load(&args[1..]),
        Some("session") => session(&args[1..]),
        Some("metrics") => metrics(&args[1..]),
        Some("help" | "--help" | "-h") => usage(),
        _ => {
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!("hima-cli — HiMA (MICRO '21) reproduction driver\n");
    eprintln!("USAGE:");
    eprintln!("  hima-cli help                      print this usage");
    eprintln!("  hima-cli list                      list experiments");
    eprintln!("  hima-cli run <id|all>              run experiments");
    eprintln!("  hima-cli engine [--tiles N] [--level L]   query the cycle/area/power models");
    eprintln!("                  levels: baseline|sort|noc|submat|dncd|approx");
    eprintln!("  hima-cli step [--tiles N] [--lanes B] [--steps T] [--quantized] [--skim K]");
    eprintln!("                  run the functional model via EngineBuilder/GridEngine");
    eprintln!("                  (--tiles 1 = monolithic DNC, N > 1 = sharded DNC-D)");
    eprintln!("  hima-cli babi <file>               parse a bAbI-format file and report stats");
    eprintln!("  hima-cli serve [--addr A] [--lanes N] [--tick-us T] [--idle-ms I]");
    eprintln!("                 [--store DIR] [--snapshot-every K] [--max-parked P]");
    eprintln!("                 [--deadline-ms D]");
    eprintln!("                 [--chaos-seed S] [--chaos-disk PM] [--chaos-net PM]");
    eprintln!("                  run the session server until a client sends shutdown");
    eprintln!("                  (--chaos-* arm seeded fault injection at PM per-mille per I/O op,");
    eprintln!("                   --deadline-ms sets the default server-side step deadline)");
    eprintln!("  hima-cli load [--addr A] [--sessions N] [--steps T] [--burst B]");
    eprintln!("                 [--deadline-ms D] [--retries R]");
    eprintln!("                  drive an open-loop load run against a running server");
    eprintln!("                  (--retries turns on reconnect-with-backoff per client)");
    eprintln!("  hima-cli session [--addr A] [--steps T] [--tiles N] [--quantized] [--shutdown]");
    eprintln!("                 [--session ID] [--keep-open]");
    eprintln!("                  drive one session end-to-end against a running server");
    eprintln!("                  (--shutdown asks the server to stop instead; --session drives");
    eprintln!("                   an existing id, --keep-open skips the close)");
    eprintln!("  hima-cli metrics [--addr A] [--json] [--trace] [--check] [--expect-faults]");
    eprintln!("                  fetch the server-wide telemetry snapshot from a running server");
    eprintln!("                  (--trace adds the lifecycle event ring; --check exits non-zero");
    eprintln!("                   unless the scheduler has ticked/stepped and the trace is clean;");
    eprintln!("                   --expect-faults instead requires nonzero injected fault.* totals");
    eprintln!("                   and tolerates trace errors — for fault-drill runs)");
}

fn list() {
    println!("{:<8} description", "id");
    for (id, desc, _) in EXPERIMENTS {
        println!("{id:<8} {desc}");
    }
}

/// Runs the selected experiments in this process; `all` puts a banner
/// before each one.
fn run(which: Option<&str>) {
    let Some(which) = which else {
        eprintln!("missing experiment id (try `hima-cli list`)");
        exit(2);
    };
    let Some(selected) = experiments::select(which) else {
        eprintln!("unknown experiment {which:?} (try `hima-cli list`)");
        exit(2);
    };
    for (_, desc, run) in selected {
        if which == "all" {
            println!("\n########## {desc} ##########");
        }
        run();
    }
}

fn engine(args: &[String]) {
    let mut tiles = 16usize;
    let mut level = "submat".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiles" => tiles = num(it.next(), "--tiles needs a positive integer"),
            "--level" => level = it.next().cloned().unwrap_or_else(|| bail("--level needs a value")),
            other => bail(&format!("unknown flag {other:?}")),
        }
    }
    let level = match level.as_str() {
        "baseline" => FeatureLevel::Baseline,
        "sort" => FeatureLevel::TwoStageSort,
        "noc" => FeatureLevel::HimaNoc,
        "submat" => FeatureLevel::Submatrix,
        "dncd" => FeatureLevel::DncD,
        "approx" => FeatureLevel::DncDApprox,
        other => bail(&format!("unknown level {other:?}")),
    };
    let cfg = EngineConfig::at_level(level, tiles);
    let e = Engine::new(cfg);
    let area = AreaModel::estimate(&cfg);
    let power = PowerModel::calibrated().estimate(&cfg);
    println!("configuration: {} at N_t = {tiles}", level.label());
    println!("  cycles/step : {}", e.step_cycles());
    println!("  time/step   : {:.3} us @ {} MHz", e.step_us(), (cfg.clock_ghz * 1000.0) as u64);
    println!("  area        : {:.2} mm2 (PT {:.2}, CT {:.2})", area.total_mm2(), area.pt_mm2, area.ct_mm2);
    println!("  power       : {:.2} W", power.total_w());
    println!("  energy/step : {:.3} uJ", power.energy_per_step_uj());
}

/// Builds a functional engine from command-line axes and reports measured
/// throughput plus the per-kernel profile — a direct window onto the
/// unified `EngineBuilder`/`GridEngine` path the harnesses use.
fn step(args: &[String]) {
    let mut tiles = 1usize;
    let mut lanes = 8usize;
    let mut steps = 50usize;
    let mut quantized = false;
    let mut skim = 0.0f32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiles" => tiles = num(it.next(), "--tiles needs a positive integer"),
            "--lanes" => lanes = num(it.next(), "--lanes needs a positive integer"),
            "--steps" => steps = num(it.next(), "--steps needs a positive integer"),
            "--skim" => skim = num(it.next(), "--skim needs a rate in [0,1)"),
            "--quantized" => quantized = true,
            other => bail(&format!("unknown flag {other:?}")),
        }
    }
    if tiles == 0 || lanes == 0 || steps == 0 {
        bail::<()>("--tiles/--lanes/--steps must be positive");
    }

    let params = DncParams::new(256, 32, 2).with_hidden(64).with_io(16, 16);
    // This subcommand prints the kernel-profile breakdown, so opt in to
    // wall-clock sampling (builder engines default it off).
    let mut builder = EngineBuilder::new(params).lanes(lanes).seed(2021).profiling(true);
    if tiles > 1 {
        builder = builder.sharded(tiles);
    }
    if quantized {
        builder = builder.quantized(QFormat::q16_16());
    }
    if skim > 0.0 {
        builder = builder.skim(SkimRate::new(skim));
    }
    let spec = builder.spec();
    let mut engine = builder.build();

    let x = Matrix::from_fn(lanes, params.input_size, |b, i| ((b * 7 + i) as f32 * 0.21).sin());
    engine.step_batch(&x); // warm-up
    let start = Instant::now();
    for _ in 0..steps {
        engine.step_batch(&x);
    }
    let secs = start.elapsed().as_secs_f64();

    println!("engine        : {} × {lanes} lanes (N={} W={} R={})",
        spec.label(), params.memory_size, params.word_size, params.read_heads);
    println!("steps         : {steps}  ({:.1} lane-steps/sec)", (steps * lanes) as f64 / secs);
    println!("time/step     : {:.3} ms", secs * 1e3 / steps as f64);
    let profile = engine.profile();
    println!("kernel profile (share of memory-unit time):");
    for (cat, share) in profile.category_shares() {
        println!("  {:<24} {:>5.1}%", format!("{cat:?}"), share * 100.0);
    }
}

fn babi(path: Option<&str>) {
    let Some(path) = path else {
        bail::<()>("babi needs a file path");
        return;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => bail(&format!("cannot read {path}: {e}")),
    };
    let stories = match hima::tasks::parse_stories(&text) {
        Ok(s) => s,
        Err(e) => bail(&format!("parse error: {e}")),
    };
    let vocab = hima::tasks::Vocabulary::build(&stories);
    let questions: usize = stories.iter().map(|s| s.question_count()).sum();
    println!("{path}: {} stories, {questions} questions, vocabulary {}", stories.len(), vocab.len());
    if let Some(story) = stories.first() {
        let enc = hima::tasks::encode_story(story, &vocab);
        println!(
            "first story encodes to a {}-step episode of width {} with {} queries",
            enc.episode.len(),
            enc.episode.width(),
            enc.episode.query_steps.len()
        );
    }
}

/// Runs the session server in the foreground until a client sends the
/// shutdown command (`hima-cli session --shutdown`), then drains and
/// exits cleanly.
fn serve(args: &[String]) {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut cfg = ServeConfig::default();
    let mut store: Option<StoreConfig> = None;
    let mut chaos_seed = 0x4849_4D41u64;
    let mut chaos_disk = 0u32;
    let mut chaos_net = 0u32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| bail("--addr needs host:port")),
            "--lanes" => cfg.grid_lanes = num(it.next(), "--lanes needs a positive integer"),
            "--tick-us" => {
                cfg.tick = Duration::from_micros(num(it.next(), "--tick-us needs an integer"))
            }
            "--idle-ms" => {
                cfg.idle_timeout =
                    Some(Duration::from_millis(num(it.next(), "--idle-ms needs an integer")))
            }
            "--deadline-ms" => {
                cfg.default_deadline =
                    Some(Duration::from_millis(num(it.next(), "--deadline-ms needs an integer")))
            }
            "--chaos-seed" => chaos_seed = num(it.next(), "--chaos-seed needs an integer"),
            "--chaos-disk" => {
                chaos_disk = num(it.next(), "--chaos-disk needs a per-mille rate (0..=1000)")
            }
            "--chaos-net" => {
                chaos_net = num(it.next(), "--chaos-net needs a per-mille rate (0..=1000)")
            }
            "--store" => {
                let dir = it.next().cloned().unwrap_or_else(|| bail("--store needs a directory"));
                store = Some(StoreConfig::new(dir));
            }
            "--snapshot-every" => {
                let every = num(it.next(), "--snapshot-every needs a positive integer");
                store.as_mut().unwrap_or_else(|| bail("--snapshot-every requires --store")).
                    snapshot_every = every;
            }
            "--max-parked" => {
                let cap = num(it.next(), "--max-parked needs an integer");
                store.as_mut().unwrap_or_else(|| bail("--max-parked requires --store")).max_parked =
                    cap;
            }
            other => bail(&format!("unknown flag {other:?}")),
        }
    }
    if cfg.grid_lanes == 0 {
        bail::<()>("--lanes must be positive");
    }
    if let Some(sc) = &store {
        if sc.snapshot_every == 0 {
            bail::<()>("--snapshot-every must be positive");
        }
    }
    if chaos_disk > 1000 || chaos_net > 1000 {
        bail::<()>("--chaos-disk / --chaos-net are per-mille rates (0..=1000)");
    }
    let chaos_note = if chaos_disk > 0 || chaos_net > 0 {
        let mut plan = FaultPlan::new(chaos_seed);
        for site in [FaultSite::StoreWrite, FaultSite::StoreFsync] {
            plan = plan.with_rule(FaultRule::probabilistic(site, FaultKind::IoError, chaos_disk));
        }
        plan = plan
            .with_rule(FaultRule::probabilistic(FaultSite::NetRead, FaultKind::Reset, chaos_net))
            .with_rule(FaultRule::probabilistic(
                FaultSite::NetWrite,
                FaultKind::PartialWrite { keep: 3 },
                chaos_net,
            ));
        let plan = Arc::new(plan);
        cfg.faults = Some(Arc::clone(&plan));
        if let Some(sc) = &mut store {
            sc.faults = Some(Arc::clone(&plan));
        }
        format!(", chaos seed {chaos_seed} disk {chaos_disk}‰ net {chaos_net}‰")
    } else {
        String::new()
    };
    let store_note = store.as_ref().map(|sc| format!(", store {}", sc.dir.display()));
    let mut server = match Server::bind_with_store(addr.as_str(), cfg.clone(), store) {
        Ok(s) => s,
        Err(e) => bail(&format!("cannot bind {addr}: {e}")),
    };
    println!(
        "serving on {} ({} grid lanes, tick {:?}{}{})",
        server.addr(),
        cfg.grid_lanes,
        cfg.tick,
        store_note.as_deref().unwrap_or(""),
        chaos_note
    );
    server.wait_for_shutdown();
    println!("shutdown requested, draining");
    server.stop();
    println!("stopped ({} sessions live at exit)", server.hub().live_sessions());
}

/// Drives an open-loop load run against a running server and prints the
/// report. With `--retries` each load client reconnects under seeded
/// jittered backoff and retries its step on the recovered connection —
/// the fault-drill mode the CI chaos smoke uses. Exits non-zero only if
/// *no* session completes (a drill tolerates partial failure; total
/// failure means the server is down).
fn load(args: &[String]) {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut sessions = 8usize;
    let mut steps = 20usize;
    let mut burst = 0usize;
    let mut deadline_ms = 0u64;
    let mut retries = 0u32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| bail("--addr needs host:port")),
            "--sessions" => sessions = num(it.next(), "--sessions needs a positive integer"),
            "--steps" => steps = num(it.next(), "--steps needs a positive integer"),
            "--burst" => burst = num(it.next(), "--burst needs a burst size"),
            "--deadline-ms" => deadline_ms = num(it.next(), "--deadline-ms needs an integer"),
            "--retries" => retries = num(it.next(), "--retries needs an integer"),
            other => bail(&format!("unknown flag {other:?}")),
        }
    }
    let sock_addr = match std::net::ToSocketAddrs::to_socket_addrs(&addr.as_str())
        .ok()
        .and_then(|mut a| a.next())
    {
        Some(a) => a,
        None => bail(&format!("cannot resolve {addr}")),
    };
    let pattern = if burst > 0 {
        ArrivalPattern::Burst { size: burst, gap: Duration::from_millis(5) }
    } else {
        ArrivalPattern::Uniform { interval: Duration::from_millis(1) }
    };
    let client = ClientOptions {
        rpc_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        retry: (retries > 0).then(|| RetryPolicy { max_attempts: retries, ..RetryPolicy::default() }),
    };
    let report = run_load(
        sock_addr,
        &LoadConfig { spec: RawSessionSpec::demo(), sessions, steps, pattern, client },
    );
    println!(
        "load {}: {}/{} sessions completed ({} failed) in {:?}",
        pattern.label(),
        report.completed,
        report.sessions,
        report.failed,
        report.elapsed
    );
    println!(
        "  {:.1} sessions/s, {:.0} steps/s, step latency p50 {:?} p90 {:?} p99 {:?} max {:?}",
        report.sessions_per_sec,
        report.steps_per_sec,
        report.p50_step,
        report.p90_step,
        report.p99_step,
        report.max_step
    );
    if report.completed == 0 {
        eprintln!("load failed: no session completed");
        exit(1);
    }
}

/// Drives one demo session against a running server: open, `--steps`
/// synthetic steps, query the read row, close — or, with `--shutdown`,
/// asks the server process to stop. `--session ID` drives an existing
/// session (e.g. one adopted from a store after a restart) instead of
/// opening; `--keep-open` skips the close so the session outlives this
/// invocation.
fn session(args: &[String]) {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut steps = 20usize;
    let mut tiles = 1usize;
    let mut quantized = false;
    let mut shutdown = false;
    let mut keep_open = false;
    let mut existing: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| bail("--addr needs host:port")),
            "--steps" => steps = num(it.next(), "--steps needs a positive integer"),
            "--tiles" => tiles = num(it.next(), "--tiles needs a positive integer"),
            "--quantized" => quantized = true,
            "--shutdown" => shutdown = true,
            "--keep-open" => keep_open = true,
            "--session" => existing = Some(num(it.next(), "--session needs an id")),
            other => bail(&format!("unknown flag {other:?}")),
        }
    }
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => bail(&format!("cannot connect to {addr}: {e}")),
    };
    if shutdown {
        match client.shutdown_server() {
            Ok(()) => println!("server at {addr} is shutting down"),
            Err(e) => bail(&format!("shutdown failed: {e}")),
        }
        return;
    }
    if tiles == 0 || steps == 0 {
        bail::<()>("--tiles/--steps must be positive");
    }

    let mut raw = RawSessionSpec::demo();
    if tiles > 1 {
        raw.sharded = true;
        raw.tiles = tiles as u32;
    }
    if quantized {
        raw.quantized = true;
        raw.int_bits = 16;
        raw.frac_bits = 16;
    }
    let session = match existing {
        Some(id) => {
            println!("session {id} (existing) on {addr}");
            id
        }
        None => match client.open(&raw) {
            Ok(id) => id,
            Err(e) => bail(&format!("open failed: {e}")),
        },
    };
    if existing.is_none() {
        println!("session {session} open on {addr}");
    }
    let width = raw.input_size as usize;
    let start = Instant::now();
    let mut last = Vec::new();
    for t in 0..steps {
        match client.step(session, &synth_input(0, t, width)) {
            Ok(y) => last = y,
            Err(e) => bail(&format!("step {t} failed: {e}")),
        }
    }
    let secs = start.elapsed().as_secs_f64();
    println!("stepped {steps} times ({:.1} steps/sec)", steps as f64 / secs);
    println!("last output   : {last:?}");
    match client.read_rows(session) {
        Ok(read) => println!("read row      : {} values, first {:?}", read.len(), &read[..read.len().min(4)]),
        Err(e) => bail(&format!("read-rows failed: {e}")),
    }
    if keep_open {
        println!("session {session} left open");
        return;
    }
    if let Err(e) = client.close_session(session) {
        bail::<()>(&format!("close failed: {e}"));
    }
    println!("session {session} closed");
}

/// Fetches the server-wide telemetry snapshot from a running server and
/// renders it: a human table by default, the wire-faithful JSON object
/// with `--json`, plus the lifecycle trace ring with `--trace`. With
/// `--check` the exit status becomes a health gate (used by the CI
/// metrics smoke): non-zero unless the scheduler has both ticked and
/// stepped and the trace ring holds no error events.
fn metrics(args: &[String]) {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut json = false;
    let mut trace = false;
    let mut check = false;
    let mut expect_faults = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| bail("--addr needs host:port")),
            "--json" => json = true,
            "--trace" => trace = true,
            "--check" => check = true,
            "--expect-faults" => {
                check = true;
                expect_faults = true;
            }
            other => bail(&format!("unknown flag {other:?}")),
        }
    }
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => bail(&format!("cannot connect to {addr}: {e}")),
    };
    let snap = match client.metrics() {
        Ok(s) => s,
        Err(e) => bail(&format!("metrics fetch failed: {e}")),
    };
    let events = if trace || check {
        match client.trace_dump() {
            Ok(events) => events,
            Err(e) => bail(&format!("trace fetch failed: {e}")),
        }
    } else {
        Vec::new()
    };

    if json {
        if trace {
            let mut s = String::from("{\"metrics\":");
            s.push_str(&snap.to_json());
            s.push_str(",\"trace\":[");
            for (i, ev) in events.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"session\":{},\"detail\":{}}}",
                    ev.seq,
                    ev.at_us,
                    ev.kind.label(),
                    ev.session,
                    ev.detail
                ));
            }
            s.push_str("]}");
            println!("{s}");
        } else {
            println!("{}", snap.to_json());
        }
    } else {
        println!("metrics from {addr}\n");
        println!("counters");
        for (name, v) in &snap.counters {
            println!("  {name:<44} {v}");
        }
        println!("\ngauges");
        for (name, v) in &snap.gauges {
            println!("  {name:<44} {v}");
        }
        println!("\nhistograms{:>40} count / mean / p50 / p90 / p99 / max", "");
        for (name, h) in &snap.histograms {
            println!(
                "  {name:<44} {} / {:.1} / {} / {} / {} / {}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max_bound()
            );
        }
        if trace {
            println!("\ntrace ({} events, oldest first)", events.len());
            for ev in &events {
                println!(
                    "  #{:<6} +{:>10}µs {:<6} session {:<6} detail {}",
                    ev.seq,
                    ev.at_us,
                    ev.kind.label(),
                    ev.session,
                    ev.detail
                );
            }
        }
    }

    if check {
        let ticks = snap.counter("serve.scheduler.ticks").unwrap_or(0);
        let steps = snap.counter("serve.scheduler.steps").unwrap_or(0);
        let trace_errors = events.iter().filter(|e| e.kind == TraceKind::Error).count();
        if expect_faults {
            // A fault drill: trace errors are the injection working, but
            // the injected totals must actually be nonzero — a drill
            // that injected nothing proved nothing.
            let injected = snap.gauge("fault.disk.injected").unwrap_or(0)
                + snap.gauge("fault.net.injected").unwrap_or(0)
                + snap.gauge("fault.sched.injected").unwrap_or(0);
            if ticks == 0 || steps == 0 || injected == 0 {
                eprintln!("check failed: ticks={ticks} steps={steps} injected={injected}");
                exit(1);
            }
            println!(
                "check ok: ticks={ticks} steps={steps} injected={injected} \
                 (trace_errors={trace_errors} tolerated under injection)"
            );
        } else {
            if ticks == 0 || steps == 0 || trace_errors > 0 {
                eprintln!("check failed: ticks={ticks} steps={steps} trace_errors={trace_errors}");
                exit(1);
            }
            println!("check ok: ticks={ticks} steps={steps} trace_errors=0");
        }
    }
}

/// The flag value `v` parsed as a `T`; a missing or unparsable value
/// exits 2 with `msg`.
fn num<T: std::str::FromStr>(v: Option<&String>, msg: &str) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| bail(msg))
}

fn bail<T>(msg: &str) -> T {
    eprintln!("error: {msg}");
    exit(2)
}
