//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and the per-layer metrics with the
//! end-to-end metric and workload each one is expected to move.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units and
//! directions (its schema has no room for the `moves` predictions, so
//! those live here and in the README); [`validate_manifest`] checks that
//! the two agree in both directions.

use crate::json::Json;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "offline_small_f32",
        why: "no server: blocked f32 kernels and the batched engine do all the work on ragged B=32 waves; serve, store and wire do none",
    },
    WorkloadInfo {
        name: "offline_paper_q16",
        why: "no server: the paper's regime (N=1024 W=64 R=4 H=256, 16 tiles, Q16.16), so the quantized datapath and per-tile linkage dominate and the f32 kernel tier does little",
    },
    WorkloadInfo {
        name: "serve_resident",
        why: "loopback TCP, 8 sessions on 8 lanes: nothing parks, the engine step is cheap, so protocol, connection thread, hub dispatch and tick are most of a step",
    },
    WorkloadInfo {
        name: "serve_churn",
        why: "32 sessions on 8 lanes, scalar backend: about three steps in four miss the grid and pay export_lane + import_lane; outputs bit-checked against solo replay",
    },
    WorkloadInfo {
        name: "serve_durable",
        why: "store on, 16 sessions on 8 lanes: WAL append before every step, snapshots, evict-to-disk and rehydrate, then a restart on the same directory",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "steps_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "step_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number should move when
    /// its layer gets faster; everywhere else the prediction is "no
    /// change".
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher as Hi, Lower as Lo};

const MV_F32: &str = "steps_per_s, step_p50_us on offline_small_f32 (most of it); at most the engine share on serve_resident";
const MV_Q16: &str = "steps_per_s, step_p50_us on offline_paper_q16 only";
const MV_ENGINE: &str = "steps_per_s, step_p50_us on offline_small_f32 and offline_paper_q16";
const MV_NONE: &str = "nothing: a diagnostic read beside the others";
const MV_SPLICE: &str = "steps_per_s, step_p99_us on serve_churn (about 0.75 splices per step); nothing on serve_resident";
const MV_CODEC: &str = "steps_per_s, step_p50_us on serve_durable only";
const MV_MODEL: &str = "nothing: modelled hardware; a host-only speed-up must leave it identical";
const MV_PROTO: &str = "step_p50_us on serve_resident";
const MV_HUB: &str = "step_p50_us, steps_per_s on serve_resident, serve_churn, serve_durable (largest share on serve_resident)";
const MV_PARK: &str = "steps_per_s, step_p99_us on serve_churn and serve_durable; must read 0 parks on serve_resident";
const MV_WIRE: &str = "step_p50_us on serve_resident";
const MV_STORE: &str =
    "steps_per_s, step_p50_us, step_p99_us on serve_durable; 0 on the other four";
const MV_TELEM: &str =
    "at most 2% of steps_per_s on serve_resident, serve_churn, serve_durable; nothing offline";

const MV_TAIL: &str = "nothing: the tail beside step_p50_us; between identical runs it spreads by up to 27%, past any bound the manifest allows";

pub const PER_LAYER: [PerLayer; 75] = [
    // The end-to-end tail, read from the traced run's untraced slices.
    pl("step_p99_us", "us", Lo, MV_TAIL),
    // tensor: per-call medians at the workload's shapes.
    pl("tensor.matmul_nt_masked.scalar_ns", "ns", Lo, MV_NONE),
    pl("tensor.matmul_nt_masked.blocked_ns", "ns", Lo, MV_F32),
    pl("tensor.matvec.scalar_ns", "ns", Lo, MV_NONE),
    pl("tensor.matvec.blocked_ns", "ns", Lo, MV_F32),
    pl("tensor.matvec_t.scalar_ns", "ns", Lo, MV_NONE),
    pl("tensor.matvec_t.blocked_ns", "ns", Lo, MV_F32),
    pl("tensor.row_norms.scalar_ns", "ns", Lo, MV_NONE),
    pl("tensor.row_norms.blocked_ns", "ns", Lo, MV_F32),
    pl("tensor.softmax.scalar_ns", "ns", Lo, MV_NONE),
    pl("tensor.softmax.blocked_ns", "ns", Lo, MV_F32),
    pl("tensor.quantize_slice_ns", "ns", Lo, MV_Q16),
    // dnc: the memory unit, the batched engine and the lane splice.
    pl("dnc.unit_step_ns", "ns", Lo, MV_ENGINE),
    pl("dnc.grid_step_ns", "ns", Lo, MV_ENGINE),
    pl("dnc.lane_step_ns", "ns", Lo, MV_ENGINE),
    pl("dnc.occupancy", "ratio", Hi, MV_NONE),
    pl("dnc.share.history_write", "ratio", Lo, MV_NONE),
    pl("dnc.share.history_read", "ratio", Lo, MV_NONE),
    pl("dnc.share.content", "ratio", Lo, MV_NONE),
    pl("dnc.share.memory_access", "ratio", Lo, MV_NONE),
    pl("dnc.share.controller", "ratio", Lo, MV_NONE),
    pl("dnc.profile_overhead_pct", "%", Lo, MV_NONE),
    pl("dnc.par_speedup_2t", "ratio", Hi, MV_ENGINE),
    pl("dnc.build_ms", "ms", Lo, "setup_s on every workload"),
    pl("dnc.export_lane_ns", "ns", Lo, MV_SPLICE),
    pl("dnc.import_lane_ns", "ns", Lo, MV_SPLICE),
    pl("dnc.state_encode_ns", "ns", Lo, MV_CODEC),
    pl("dnc.state_decode_ns", "ns", Lo, MV_CODEC),
    pl("dnc.state_bytes", "B", Lo, MV_CODEC),
    // model: the architectural cycle model's shares for the same config.
    pl("model.share.history_write", "ratio", Lo, MV_MODEL),
    pl("model.share.history_read", "ratio", Lo, MV_MODEL),
    pl("model.share.content", "ratio", Lo, MV_MODEL),
    pl("model.share.memory_access", "ratio", Lo, MV_MODEL),
    pl("model.share.controller", "ratio", Lo, MV_MODEL),
    // protocol: one Step request / Stepped response at the io width.
    pl("protocol.step_req_encode_ns", "ns", Lo, MV_PROTO),
    pl("protocol.step_req_decode_ns", "ns", Lo, MV_PROTO),
    pl("protocol.step_resp_encode_ns", "ns", Lo, MV_PROTO),
    pl("protocol.step_resp_decode_ns", "ns", Lo, MV_PROTO),
    pl("protocol.step_req_bytes", "B", Lo, MV_PROTO),
    pl("protocol.step_resp_bytes", "B", Lo, MV_PROTO),
    // hub / sched: in-process dispatch and the scheduler's own counters.
    pl("hub.dispatch_p50_ns", "ns", Lo, MV_HUB),
    pl("hub.dispatch_p99_ns", "ns", Lo, MV_HUB),
    pl("hub.unexplained_ns", "ns", Lo, MV_HUB),
    pl("sched.ticks", "count", Lo, MV_NONE),
    pl("sched.steps_per_tick", "ratio", Hi, MV_HUB),
    pl("sched.tick_mean_ns", "ns", Lo, MV_HUB),
    pl("sched.tick_busy_ratio", "ratio", Lo, MV_NONE),
    pl("sched.parks_per_step", "ratio", Lo, MV_PARK),
    pl("sched.splices_per_step", "ratio", Lo, MV_PARK),
    pl("sched.lane_hit_ratio", "ratio", Hi, MV_PARK),
    pl("sched.shed", "count", Lo, MV_NONE),
    pl("serve.errors", "count", Lo, MV_NONE),
    // wire: the TCP round trip and what the box charges for one.
    pl("wire.rtt_p50_ns", "ns", Lo, MV_WIRE),
    pl("wire.loopback_floor_ns", "ns", Lo, MV_NONE),
    pl("wire.unexplained_ns", "ns", Lo, MV_WIRE),
    pl("wire.bytes_per_step", "B", Lo, MV_WIRE),
    pl("wire.step_p999_us", "us", Lo, MV_NONE),
    pl("wire.step_max_us", "us", Lo, MV_NONE),
    // store: the durable tier.
    pl("store.log_append_ns", "ns", Lo, MV_STORE),
    pl("store.log_sync_ns", "ns", Lo, MV_NONE),
    pl("store.snapshot_write_us", "us", Lo, MV_STORE),
    pl("store.snapshot_bytes", "B", Lo, MV_STORE),
    pl("store.load_us", "us", Lo, MV_STORE),
    pl("store.appends_per_step", "ratio", Lo, MV_STORE),
    pl("store.snapshots", "count", Lo, MV_STORE),
    pl("store.evictions_per_step", "ratio", Lo, MV_STORE),
    pl("store.rehydrations_per_step", "ratio", Lo, MV_STORE),
    pl("store.recover_ms", "ms", Lo, MV_NONE),
    pl("store.errors", "count", Lo, MV_NONE),
    // telemetry / chaos / trace: what the instrumentation itself costs.
    pl("telemetry.counter_inc_ns", "ns", Lo, MV_TELEM),
    pl("telemetry.hist_observe_ns", "ns", Lo, MV_TELEM),
    pl("telemetry.snapshot_us", "us", Lo, MV_NONE),
    pl("telemetry.tick_overhead_pct", "%", Lo, MV_TELEM),
    pl("chaos.armed_idle_overhead_pct", "%", Lo, MV_TELEM),
    pl("trace.overhead_pct", "%", Lo, MV_NONE),
];

pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// A name as `BENCHMARK.json` allows it: starts with a letter or digit,
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit as `BENCHMARK.json` allows it: 1..=16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks a parsed `BENCHMARK.json` against the schema limits and
/// against this binary's own tables, name for name in both directions.
pub fn validate_manifest(doc: &Json) -> Result<(), String> {
    let keys = doc.keys().ok_or("BENCHMARK.json is not an object")?;
    let want = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    for k in want {
        if !keys.contains(&k) {
            return Err(format!("missing key {k:?}"));
        }
    }
    if let Some(extra) = keys.iter().find(|k| !want.contains(k)) {
        return Err(format!("unexpected key {extra:?}"));
    }
    let seconds =
        doc.get("run_seconds").and_then(Json::as_f64).ok_or("run_seconds is not a number")?;
    if seconds.fract() != 0.0 || !(1.0..=60.0).contains(&seconds) {
        return Err(format!("run_seconds {seconds} is not a whole number in 1..=60"));
    }

    let section = |key: &str, max: usize| -> Result<&[Json], String> {
        let items = doc.get(key).and_then(Json::as_array).ok_or(format!("{key} is not a list"))?;
        if items.is_empty() || items.len() > max {
            return Err(format!("{key} has {} entries (1..={max} allowed)", items.len()));
        }
        Ok(items)
    };
    let text = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or(format!("entry lacks {key:?}"))
    };
    let mut seen: Vec<String> = Vec::new();
    let mut claim = |name: &str| -> Result<(), String> {
        if !valid_name(name) {
            return Err(format!("invalid name {name:?}"));
        }
        if seen.iter().any(|s| s == name) {
            return Err(format!("name {name:?} is used twice"));
        }
        seen.push(name.to_owned());
        Ok(())
    };

    let listed = section("workloads", 8)?;
    for item in listed {
        let name = text(item, "name")?;
        claim(&name)?;
        let why = text(item, "why")?;
        if why.len() > 200 || why.contains('\n') {
            return Err(format!("why of {name} is not one line of at most 200 characters"));
        }
        if workload(&name).is_none() {
            return Err(format!("workload {name} is declared but the binary does not run it"));
        }
    }
    if let Some(name) = undeclared(listed, WORKLOADS.iter().map(|w| w.name)) {
        return Err(format!("workload {name} is run but not declared"));
    }

    let check_metric = |item: &Json, unit: &str, better: Better| -> Result<(), String> {
        let name = text(item, "name")?;
        let got_unit = text(item, "unit")?;
        if !valid_unit(&got_unit) || got_unit != unit {
            return Err(format!("{name}: unit {got_unit:?}, the binary prints {unit:?}"));
        }
        if text(item, "better")? != better.label() {
            return Err(format!(
                "{name}: direction differs from the binary's ({})",
                better.label()
            ));
        }
        Ok(())
    };

    let listed = section("end_to_end", 16)?;
    for item in listed {
        let name = text(item, "name")?;
        claim(&name)?;
        let m = end_to_end(&name)
            .ok_or(format!("end-to-end metric {name} is declared but never printed"))?;
        check_metric(item, m.unit, m.better)?;
        let bound = item.get("bound").and_then(Json::as_f64).ok_or(format!("{name}: no bound"))?;
        if !(bound > 0.0 && bound <= 0.25) || (bound - m.bound).abs() > 1e-12 {
            return Err(format!("{name}: bound {bound} (binary: {}, allowed: (0, 0.25])", m.bound));
        }
    }
    let required = END_TO_END.iter().map(|m| m.name).chain(["setup_s"]);
    if let Some(name) = undeclared(listed, required) {
        return Err(format!("end-to-end metric {name} is printed (or required) but not declared"));
    }

    let listed = section("per_layer", 128)?;
    for item in listed {
        let name = text(item, "name")?;
        claim(&name)?;
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .ok_or(format!("per-layer metric {name} is declared but never printed"))?;
        check_metric(item, m.unit, m.better)?;
        if m.moves.is_empty() {
            return Err(format!("{name}: no end-to-end metric and workload it moves"));
        }
    }
    if let Some(name) = undeclared(listed, PER_LAYER.iter().map(|m| m.name)) {
        return Err(format!("per-layer metric {name} is printed but not declared"));
    }
    Ok(())
}

/// The first of `names` that no entry of `listed` carries.
fn undeclared<'a>(listed: &[Json], names: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    names.into_iter().find(|name| {
        !listed.iter().any(|item| item.get("name").and_then(Json::as_str) == Some(*name))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_manifest_grammar() {
        for good in ["a", "steps_per_s", "dnc.share.history_write", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "-a", "_a", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("a b"));
    }

    #[test]
    fn every_table_name_is_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit) && !m.moves.is_empty(), "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}", w.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        validate_manifest(&doc).unwrap();
    }

    #[test]
    fn manifest_validation_catches_a_renamed_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path)
            .unwrap()
            .replace("\"hub.dispatch_p50_ns\"", "\"hub.dispatch_ns\"");
        let err = validate_manifest(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("hub.dispatch"), "{err}");
    }
}
