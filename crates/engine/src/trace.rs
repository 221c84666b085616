//! Trace-driven refinement of the cycle model.
//!
//! The static [`crate::Engine`] charges every kernel its worst-case work
//! each step. Real episodes are gentler: a closed write gate skips the
//! memory write's effective work, a low allocation gate leaves the sorted
//! free list partially unused, and sparse write weightings touch few
//! linkage rows. [`GateTrace`] captures those statistics from a functional
//! `hima-dnc` engine run, and [`trace_report`] scales the matching
//! kernels' compute cycles and activity — linking the functional and
//! architectural layers the way a trace-driven simulator would.

use crate::config::EngineConfig;
use crate::engine::{Engine, StepReport};
use hima_dnc::profile::KernelId;
use hima_dnc::GridEngine;

/// Average gate activity over an episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTrace {
    /// Mean write gate `g_w` (scales memory-write work).
    pub write_gate: f64,
    /// Mean allocation gate `g_a`.
    pub allocation_gate: f64,
    /// Mean free gate `g_f` (scales retention work).
    pub free_gate: f64,
    /// Mean write-weighting sparsity: fraction of slots with
    /// `w_w > 1e-3` (scales linkage-update work).
    pub write_density: f64,
    /// Steps observed.
    pub steps: usize,
}

impl GateTrace {
    /// Collects gate statistics by running the one-lane `engine` over
    /// `inputs`. Each step reads lane 0's shards: the gates from the
    /// interface vectors they were driven by (free gates averaged over
    /// heads), the write gate's effect as the write weighting's mass
    /// (`w_w` sums to `g_w`), each averaged over the shards; the write
    /// density counts slots over all shards.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or the engine has more than one lane.
    pub fn collect(engine: &mut GridEngine, inputs: &[Vec<f32>]) -> Self {
        assert!(!inputs.is_empty(), "need at least one step to trace");
        let tiles = engine.tiles() as f64;
        let mut write_gate = 0.0f64;
        let mut allocation_gate = 0.0f64;
        let mut free_gate = 0.0f64;
        let mut write_density = 0.0f64;
        for x in inputs {
            engine.step(x);
            let (mut dense, mut slots) = (0, 0);
            for s in 0..engine.tiles() {
                let ww = engine.unit(0, s).write_weighting();
                dense += ww.iter().filter(|&&w| w > 1e-3).count();
                slots += ww.len();
                write_gate += ww.iter().sum::<f32>() as f64 / tiles;
                let iv = engine.interface(0, s);
                allocation_gate += iv.allocation_gate as f64 / tiles;
                free_gate += mean(&iv.free_gates) / tiles;
            }
            write_density += dense as f64 / slots.max(1) as f64;
        }
        let n = inputs.len() as f64;
        Self {
            write_gate: (write_gate / n).clamp(0.0, 1.0),
            allocation_gate: (allocation_gate / n).clamp(0.0, 1.0),
            free_gate: (free_gate / n).clamp(0.0, 1.0),
            write_density: (write_density / n).clamp(0.0, 1.0),
            steps: inputs.len(),
        }
    }
}

/// The mean of `values`, summed in `f64`.
fn mean(values: &[f32]) -> f64 {
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
}

/// Produces a step report with kernel compute scaled by the trace:
/// memory-write work by the write gate, linkage/precedence work by the
/// write density, retention by the free gate. NoC latencies are left at
/// their static values (traffic is issued regardless; only the datapath
/// work shrinks), so the trace-driven estimate is a refinement, never an
/// optimistic rewrite.
pub fn trace_report(cfg: &EngineConfig, trace: &GateTrace) -> StepReport {
    let mut report = Engine::new(*cfg).step_report();
    let scale = |cycles: u64, f: f64| -> u64 {
        let overhead = cfg.kernel_overhead_cycles();
        let work = cycles.saturating_sub(overhead);
        overhead + ((work as f64) * f.clamp(0.0, 1.0)).ceil() as u64
    };
    for cost in &mut report.costs {
        match cost.kernel {
            KernelId::MemoryWrite => {
                cost.compute_cycles = scale(cost.compute_cycles, trace.write_gate);
                cost.activity.macs = (cost.activity.macs as f64 * trace.write_gate) as u64;
                cost.activity.sram_words =
                    (cost.activity.sram_words as f64 * trace.write_gate) as u64;
            }
            KernelId::Linkage | KernelId::Precedence => {
                cost.compute_cycles = scale(cost.compute_cycles, trace.write_density);
                cost.activity.sram_words =
                    (cost.activity.sram_words as f64 * trace.write_density) as u64;
            }
            KernelId::Retention => {
                cost.compute_cycles = scale(cost.compute_cycles, trace.free_gate.max(0.1));
            }
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hima_dnc::{DncParams, EngineBuilder};

    /// Every gate fully open: the trace that reduces to the static model.
    const WORST_CASE: GateTrace = GateTrace {
        write_gate: 1.0,
        allocation_gate: 1.0,
        free_gate: 1.0,
        write_density: 1.0,
        steps: 0,
    };

    #[test]
    fn worst_case_trace_matches_static_model() {
        let cfg = EngineConfig::hima_dnc(16);
        let static_report = Engine::new(cfg).step_report();
        let traced = trace_report(&cfg, &WORST_CASE);
        assert_eq!(static_report.total_cycles(), traced.total_cycles());
    }

    #[test]
    fn closed_write_gate_cuts_memory_write_work() {
        let cfg = EngineConfig::hima_dnc(16);
        let trace = GateTrace { write_gate: 0.0, ..WORST_CASE };
        let traced = trace_report(&cfg, &trace);
        let static_report = Engine::new(cfg).step_report();
        let t = traced.cost_of(KernelId::MemoryWrite).unwrap();
        let s = static_report.cost_of(KernelId::MemoryWrite).unwrap();
        assert!(t.compute_cycles < s.compute_cycles);
        assert_eq!(
            t.compute_cycles,
            cfg.kernel_overhead_cycles(),
            "only the buffer-load overhead remains"
        );
        assert_eq!(t.noc_cycles, s.noc_cycles, "traffic is never rebated");
    }

    #[test]
    fn traced_report_never_exceeds_static() {
        let cfg = EngineConfig::hima_dnc(16);
        let static_total = Engine::new(cfg).step_report().total_cycles();
        let trace = GateTrace {
            write_gate: 0.4,
            allocation_gate: 0.6,
            free_gate: 0.3,
            write_density: 0.2,
            steps: 10,
        };
        let traced = trace_report(&cfg, &trace).total_cycles();
        assert!(traced <= static_total);
    }

    #[test]
    fn collect_produces_valid_statistics() {
        let params = DncParams::new(32, 8, 1).with_hidden(16).with_io(6, 6);
        let inputs: Vec<Vec<f32>> = (0..12)
            .map(|t| (0..6).map(|i| ((t * 3 + i) as f32 * 0.29).sin()).collect())
            .collect();
        for builder in [EngineBuilder::new(params), EngineBuilder::new(params).sharded(4)] {
            let trace = GateTrace::collect(&mut builder.seed(5).build(), &inputs);
            assert_eq!(trace.steps, 12);
            let GateTrace { write_gate, allocation_gate, free_gate, write_density, .. } = trace;
            for v in [write_gate, allocation_gate, free_gate, write_density] {
                assert!((0.0..=1.0).contains(&v), "{trace:?}");
            }
        }
    }

    /// The gates are the ones the memory unit was driven by, not a
    /// stand-in: a twin engine's interface vector, step by step.
    #[test]
    fn traced_gates_are_the_interface_vectors_means() {
        let params = DncParams::new(32, 8, 2).with_hidden(16).with_io(6, 6);
        let inputs: Vec<Vec<f32>> = (0..12)
            .map(|t| (0..6).map(|i| ((t * 5 + i) as f32 * 0.37).cos()).collect())
            .collect();
        let build = || EngineBuilder::new(params).seed(3).build();
        let trace = GateTrace::collect(&mut build(), &inputs);
        let mut twin = build();
        let (mut allocation, mut free) = (0.0f64, 0.0f64);
        for x in &inputs {
            twin.step(x);
            let iv = twin.interface(0, 0);
            allocation += iv.allocation_gate as f64;
            free += iv.free_gates.iter().map(|&g| g as f64).sum::<f64>() / 2.0;
        }
        let n = inputs.len() as f64;
        assert_eq!(trace.allocation_gate, allocation / n);
        assert_eq!(trace.free_gate, free / n);
        assert_ne!(trace.free_gate, 0.5, "{trace:?}");
    }

    #[test]
    fn functional_trace_refines_engine_estimate() {
        // End to end: functional episode -> trace -> refined cycles.
        let params = DncParams::new(64, 16, 2).with_hidden(32).with_io(8, 8);
        let mut engine = EngineBuilder::new(params).seed(9).build();
        let inputs: Vec<Vec<f32>> = (0..20)
            .map(|t| (0..8).map(|i| ((t * 7 + i) as f32 * 0.17).cos()).collect())
            .collect();
        let trace = GateTrace::collect(&mut engine, &inputs);
        let cfg = EngineConfig::hima_dnc(16);
        let traced = trace_report(&cfg, &trace).total_cycles();
        let static_total = Engine::new(cfg).step_report().total_cycles();
        assert!(traced <= static_total);
        assert!(traced * 2 > static_total, "refinement must stay the same order of magnitude");
    }
}
