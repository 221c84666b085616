//! # HiMA — History-based Memory Access engine for the DNC
//!
//! A from-scratch Rust reproduction of *"HiMA: A Fast and Scalable
//! History-based Memory Access Engine for Differentiable Neural Computer"*
//! (Tao & Zhang, MICRO '21). This umbrella crate re-exports the whole
//! workspace:
//!
//! * [`tensor`] — matrix/vector math, fixed point, PLA+LUT softmax,
//! * [`dnc`] — the functional DNC model and the distributed DNC-D,
//! * [`sort`] — hardware sorter models incl. the two-stage usage sort,
//! * [`noc`] — the multi-mode NoC simulator,
//! * [`mem`] — submatrix-wise memory partitions and traffic models,
//! * [`engine`] — the tiled architectural cycle model,
//! * [`cost`] — area/power models calibrated to the paper's 40 nm results,
//! * [`tasks`] — the synthetic bAbI-style accuracy suite,
//! * [`pipeline`] — the async producer/consumer episode pipeline
//!   overlapping generation, batched stepping and metric reduction,
//! * [`serve`] — the session server: long-lived per-session DNC state
//!   continuously batched over masked lane grids, with a binary wire
//!   protocol, typed client and open-loop load generator,
//! * [`store`] — the durable session tier: versioned lane-state
//!   snapshots plus a CRC-guarded step delta log, giving the server
//!   evict-to-disk, transparent rehydration and kill-recovery,
//! * [`telemetry`] — the std-only observability substrate: atomic
//!   metrics registry, log₂ latency histograms and a bounded
//!   session-lifecycle event trace, exposed over the serve protocol.
//!
//! # Quickstart
//!
//! Functional models are built through the
//! [`EngineBuilder`](hima_dnc::EngineBuilder), which sizes the one
//! [`GridEngine`](hima_dnc::GridEngine) — one type and one API over
//! monolithic / sharded topology × batch lanes × f32 / fixed-point
//! datapath:
//!
//! ```
//! use hima::prelude::*;
//! use hima::tensor::Matrix;
//!
//! // A 4-shard DNC-D serving 8 lanes through shared weights.
//! let params = DncParams::new(64, 16, 2).with_io(8, 8);
//! let mut engine = EngineBuilder::new(params).sharded(4).lanes(8).seed(1).build();
//! let y = engine.step_batch(&Matrix::zeros(8, 8));
//! assert_eq!(y.shape(), (8, 8));
//!
//! // Architectural speedup of the paper's headline configuration.
//! let baseline = Engine::new(EngineConfig::baseline(16));
//! let dncd = Engine::new(EngineConfig::hima_dncd(16));
//! assert!(baseline.step_cycles() > 4 * dncd.step_cycles());
//! ```

pub use hima_cost as cost;
pub use hima_dnc as dnc;
pub use hima_engine as engine;
pub use hima_mem as mem;
pub use hima_noc as noc;
pub use hima_pipeline as pipeline;
pub use hima_serve as serve;
pub use hima_sort as sort;
pub use hima_store as store;
pub use hima_tasks as tasks;
pub use hima_telemetry as telemetry;
pub use hima_tensor as tensor;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use hima_cost::{AreaModel, AreaReport, PowerModel, PowerReport};
    pub use hima_dnc::allocation::SkimRate;
    pub use hima_dnc::Topology as EngineTopology;
    pub use hima_dnc::{
        BoxedEngine, Datapath, Dnc, DncD, DncParams, EngineBuilder, EngineSpec, GridEngine,
        InterfaceVector, MemoryConfig, MemoryUnit,
    };
    pub use hima_engine::{Engine, EngineConfig, FeatureLevel};
    pub use hima_mem::{Partition, TileMemoryMap};
    pub use hima_noc::{Mode, NocSim, Topology, TopologyGraph, TrafficPattern};
    pub use hima_sort::{
        CentralizedMergeSorter, MdsaSorter, ParallelMergeSorter, SortEngine, TwoStageSorter,
    };
    pub use hima_pipeline::{
        collect_query_samples_pipelined, readout_accuracy_pipelined, relative_error_pipelined,
        run_pipeline, EpisodeCtx, EpisodeJob, FeatureSteps, PipelineSpec,
    };
    pub use hima_serve::{
        Client, RawSessionSpec, ServeConfig, ServeError, Server, SessionHub, StoreConfig,
    };
    pub use hima_store::{SessionStore, StoreError};
    pub use hima_tasks::{relative_error, EvalConfig, TaskSpec, TASKS};
    pub use hima_telemetry::{MetricsRegistry, MetricsSnapshot, TraceRing};
    pub use hima_tensor::{softmax, softmax_approx, Fixed, Matrix, PlaSoftmax, QFormat};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_cross_crate_workflow() {
        let sorter = TwoStageSorter::new(4, 1024);
        assert_eq!(sorter.latency_cycles(1024), 389);
        let area = AreaModel::estimate(&EngineConfig::hima_dnc(16));
        assert!(area.total_mm2() > 0.0);
        let g = TopologyGraph::build(Topology::Hima, 16);
        assert_eq!(g.pts().len(), 16);
    }
}
