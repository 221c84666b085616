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

    /// Pins the facade: every name the prelude exports and every path the
    /// frozen `e2e_bench/src` imports is named here, so narrowing one of
    /// them fails tier-1 instead of the benchmark pipeline.
    #[test]
    fn facade_names_the_prelude_and_every_benchmark_import() {
        // Prelude names resolve through this module's `use super::prelude::*`
        // and nothing else; these are what `e2e_bench/src` imports beyond them ...
        use crate::dnc::{KernelCategory, LaneState, QuantizedMemoryUnit};
        use crate::serve::protocol::{read_frame, write_frame};
        use crate::serve::{percentile, ClientError, FaultPlan, Request, Response, ServeMetrics};
        use crate::tasks::episode::{masked_step_block, max_len};
        use crate::tasks::tasks::TOKEN_WIDTH;
        use crate::tasks::Episode;
        use crate::tensor::{Backend, LaneMask};
        use std::any::{type_name, type_name_of_val};

        macro_rules! types {
            ($($t:ty),* $(,)?) => { [$(type_name::<$t>()),*] };
        }
        let types = types![
            AreaModel, AreaReport, BoxedEngine, CentralizedMergeSorter, Client, Datapath, Dnc,
            DncD, DncParams, Engine, EngineBuilder, EngineConfig, EngineSpec, EngineTopology,
            EvalConfig, FeatureLevel, Fixed, GridEngine, InterfaceVector, Matrix, MdsaSorter,
            MemoryConfig, MemoryUnit, MetricsRegistry, MetricsSnapshot, Mode, NocSim,
            ParallelMergeSorter, Partition, PlaSoftmax, PowerModel, PowerReport, QFormat,
            RawSessionSpec, ServeConfig, ServeError, Server, SessionHub, SessionStore, SkimRate,
            dyn SortEngine, StoreConfig, StoreError, TaskSpec, TileMemoryMap, Topology,
            TopologyGraph, TraceRing, TrafficPattern, TwoStageSorter, KernelCategory, LaneState,
            QuantizedMemoryUnit, ClientError, FaultPlan, Request, Response, ServeMetrics, Episode,
            Backend, LaneMask,
            // ... and the prelude names it reaches through their crate paths.
            crate::dnc::Topology, crate::serve::MetricsSnapshot, crate::engine::Engine,
            crate::store::SessionStore, crate::telemetry::MetricsRegistry,
        ];
        let functions = [
            type_name_of_val(&relative_error),
            type_name_of_val(&softmax),
            type_name_of_val(&softmax_approx),
            type_name_of_val(&percentile),
            type_name_of_val(&masked_step_block),
            type_name_of_val(&max_len),
        ];
        assert!(types.iter().chain(&functions).all(|name| !name.is_empty()));
        // The generic ones are named by a (trivial) call.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hima").unwrap();
        assert_eq!(read_frame(&mut wire.as_slice()).unwrap().as_deref(), Some(&b"hima"[..]));
        assert_eq!(TASKS.len(), 20);
        assert_eq!(TASKS[0].episode_at(0, 0).width(), TOKEN_WIDTH);
    }
}
