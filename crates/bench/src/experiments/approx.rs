//! Ablation: the §5.2 approximation knobs.
//!
//! Three sweeps beyond the paper's single K = 20% / K = 50% points:
//!
//! 1. usage-skimming rate vs engine speed *and* functional accuracy,
//! 2. PLA softmax segment count vs exponential error,
//! 3. Q16.16 datapath divergence over time (the 32-bit datapath claim).

use crate::header;
use hima::dnc::{DatapathStudy, MemoryConfig};
use hima::prelude::*;
use hima::tasks::eval::mean_error;

pub fn run() {
    header("Usage skimming: speed vs accuracy (engine N_t = 16; saturated tasks N_t = 4)");
    println!(
        "{:>6} {:>14} {:>12} {:>12} {:>16}",
        "K", "cycles/step", "speedup", "task error", "read divergence"
    );
    let base_cycles = Engine::new(EngineConfig::hima_dncd(16)).step_cycles();
    for k in [0.0f32, 0.1, 0.2, 0.3, 0.5] {
        let cfg = if k == 0.0 {
            EngineConfig::hima_dncd(16)
        } else {
            EngineConfig::hima_dncd(16).with_skim(SkimRate::new(k))
        };
        let cycles = Engine::new(cfg).step_cycles();
        let eval = if k == 0.0 {
            EvalConfig::saturated(4)
        } else {
            EvalConfig::saturated(4).with_skim(SkimRate::new(k))
        };
        let errors = relative_error(&eval);
        println!(
            "{:>5.0}% {:>14} {:>11.2}x {:>11.1}% {:>16.4}",
            k * 100.0,
            cycles,
            base_cycles as f64 / cycles as f64,
            mean_error(&errors) * 100.0,
            hima::tasks::eval::mean_divergence(&errors)
        );
    }
    println!("\nPaper: K=20% costs ~5.8% accuracy at N_t=16; K=50% exceeds 15%.");

    header("PLA+LUT softmax: segments vs exponential error");
    println!("{:>10} {:>14} {:>12}", "segments", "max |exp err|", "LUT bytes");
    for segments in [4usize, 8, 16, 32, 64, 128] {
        let pla = PlaSoftmax::new(segments, 8.0);
        // Two f32 coefficients per segment.
        println!(
            "{:>10} {:>14.5} {:>12}",
            segments,
            pla.max_exp_error(10_000),
            segments * 8
        );
    }
    println!("\nThe paper's point: LUT-only tables grow exponentially with input width;");
    println!("PLA+LUT costs 1 multiply + 1 add at a few dozen table entries.");

    header("Q16.16 datapath: divergence from the float reference");
    let study = DatapathStudy::run(MemoryConfig::new(64, 16, 2), 40, 11);
    println!("{:>6} {:>16} {:>16}", "step", "read |err|max", "memory |err|max");
    for t in [0usize, 4, 9, 19, 29, 39] {
        println!(
            "{:>6} {:>16.6} {:>16.6}",
            t + 1,
            study.read_error[t],
            study.memory_error[t]
        );
    }
    println!(
        "\nshort-horizon error ~ Q16.16 resolution ({:.1e}); long-horizon divergence",
        hima::tensor::QFormat::q16_16().resolution()
    );
    println!("is chaotic trajectory separation, bounded by the state magnitudes —");
    println!("consistent with the paper's choice of a 32-bit datapath.");
}
