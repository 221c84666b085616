//! Table 1: Analysis of DNC Kernels.
//!
//! Regenerates the kernel inventory — type, primitives, external/state
//! memory access complexity and NoC traffic class — and cross-checks the
//! complexity classes against the engine's measured scaling.

use crate::header;
use hima::engine::kernels::{KernelType, KERNEL_TABLE};
use hima::prelude::*;

pub fn run() {
    header("Table 1: Analysis of DNC Kernels");
    println!(
        "{:<18} {:<7} {:<38} {:>9} {:>9} {:>10}",
        "Kernel", "Type", "Key Primitives", "Ext. Mem", "State Mem", "NoC"
    );
    for info in &KERNEL_TABLE {
        println!(
            "{:<18} {:<7} {:<38} {:>9} {:>9} {:>10}",
            format!("{:?}", info.kernel),
            match info.kernel_type {
                KernelType::Access => "Access",
                KernelType::State => "State",
            },
            info.primitives,
            info.ext_mem_access.label(),
            info.state_mem_access.label(),
            info.noc_traffic.label(),
        );
    }

    header("Cross-check: engine cycle scaling vs Table 1 classes");
    // Forward-backward is O(N^2): doubling N should ~4x its compute.
    let cycles_at = |n: usize| {
        Engine::new(EngineConfig::hima_dnc(16).with_geometry(n, 64, 4))
            .step_report()
            .cost_of(hima::dnc::KernelId::ForwardBackward)
            .unwrap()
            .compute_cycles
    };
    let (c1, c2) = (cycles_at(1024), cycles_at(2048));
    println!(
        "ForwardBackward compute: N=1024 -> {c1} cycles, N=2048 -> {c2} cycles \
         (ratio {:.2}, O(N^2) predicts 4.00)",
        c2 as f64 / c1 as f64
    );

    let write_at = |n: usize| {
        Engine::new(EngineConfig::hima_dnc(16).with_geometry(n, 64, 4))
            .step_report()
            .cost_of(hima::dnc::KernelId::MemoryWrite)
            .unwrap()
            .compute_cycles
    };
    let (u1, u2) = (write_at(1024), write_at(2048));
    println!(
        "MemoryWrite compute:     N=1024 -> {u1} cycles, N=2048 -> {u2} cycles \
         (ratio {:.2}, O(N W) predicts 2.00)",
        u2 as f64 / u1 as f64
    );
}
