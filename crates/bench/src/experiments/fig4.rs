//! Fig. 4: Kernel runtime breakdown on a general-purpose platform.
//!
//! The paper profiles DNC inference on an Nvidia 3080Ti and an
//! i7-9700K: >95% of the runtime is the memory unit, with history-based
//! write weighting dominating the GPU (72%, sort-bound). A profiled
//! one-lane monolithic engine plays the general-purpose-platform role (it
//! *is* a centralized software implementation); the paper's numbers are
//! printed alongside.

use crate::{bar, header};
use hima::prelude::*;

pub fn run() {
    header("Fig. 4: kernel runtime breakdown (centralized software DNC, N x W = 1024 x 64)");

    let params = DncParams::paper_babi();
    let mut dnc = EngineBuilder::new(params).seed(2021).profiling(true).build();
    let steps = 12;
    for t in 0..steps {
        let x: Vec<f32> = (0..params.input_size)
            .map(|i| ((t * 13 + i * 7) as f32 * 0.113).sin())
            .collect();
        dnc.step(&x);
    }
    let profile = dnc.profile();
    let total_ms = profile.total_nanos() as f64 / 1e6;
    println!("{steps} DNC steps in {total_ms:.1} ms on this machine\n");

    // Paper's reference shares (GPU / CPU), Fig. 4.
    let paper: &[(&str, f64, f64)] = &[
        ("History-based Wr. Weighting", 72.0, 11.0),
        ("History-based Rd. Weighting", 9.0, 10.0),
        ("Content-based Weighting", 12.0, 22.0),
        ("Write/Read Mem. Access", 4.0, 53.0),
        ("NN (LSTM)", 3.0, 4.0),
    ];

    println!("{:<30} {:>9} {:>10} {:>10}", "category", "measured", "paper GPU", "paper CPU");
    for (cat, share) in profile.category_shares() {
        let (gpu, cpu) = paper
            .iter()
            .find(|(name, _, _)| *name == cat.label())
            .map(|(_, g, c)| (*g, *c))
            .unwrap_or((0.0, 0.0));
        println!(
            "{:<30} {:>8.1}% {:>9.1}% {:>9.1}%  {}",
            cat.label(),
            share * 100.0,
            gpu,
            cpu,
            bar(share, 30)
        );
    }

    let controller = profile.category_nanos(hima::dnc::KernelCategory::Controller) as f64;
    let memory_unit_share = 1.0 - controller / profile.total_nanos() as f64;
    println!(
        "\nMemory unit share of runtime: {:.1}% (paper: >95% on both platforms)",
        memory_unit_share * 100.0
    );
}
