//! Architectural cycle model of the HiMA accelerator.
//!
//! This crate maps the DNC dataflow of Fig. 2 onto a tiled architecture —
//! one controller tile (CT) plus `N_t` processing tiles (PTs) joined by a
//! NoC — and produces per-kernel cycle and activity estimates. It is the
//! simulator standing in for the paper's RTL prototypes: all speed results
//! in the evaluation are *relative* (speedups over a baseline
//! configuration or another platform), which an architectural cycle model
//! preserves.
//!
//! The model composes the other substrate crates:
//!
//! * kernel compute work runs on the PTs' M-M engines
//!   ([`config::EngineConfig::pe_parallelism`] MACs/cycle each),
//! * usage sorting uses the hardware sorter models from `hima-sort`,
//! * inter-tile traffic is generated per kernel from the partition-aware
//!   formulas of `hima-mem` and simulated on `hima-noc`'s contention model
//!   (gathers and exchanges), as sequential accumulation chains
//!   (Fig. 6(b)'s PT→PT psum chains) or as multicasts,
//! * feature flags switch the paper's architecture/algorithm levels:
//!   two-stage sort, HiMA-NoC, submatrix linkage partition, DNC-D, usage
//!   skimming and softmax approximation (Fig. 11(a)'s ablation ladder).
//!
//! # Example
//!
//! ```
//! use hima_engine::{Engine, EngineConfig};
//!
//! let baseline = Engine::new(EngineConfig::baseline(16));
//! let hima_d = Engine::new(EngineConfig::hima_dncd(16));
//! let speedup = baseline.step_cycles() as f64 / hima_d.step_cycles() as f64;
//! assert!(speedup > 3.0, "DNC-D must be several times faster");
//! ```

pub mod baselines;
pub mod config;
pub mod engine;
pub mod kernels;
pub mod report;

pub use config::{EngineConfig, FeatureLevel};
pub use engine::{ActivityCounters, Engine, KernelCost, StepReport};
pub use hima_noc::topology::Topology;
pub use kernels::{KernelInfo, KERNEL_TABLE};
