//! Fig. 10: DNC-D inference error over DNC for the 20-task suite.
//!
//! Runs the synthetic bAbI-style suite (see DESIGN.md for the dataset
//! substitution) through the centralized DNC and DNC-D at several shard
//! counts and skimming rates, reporting per-task relative errors. The
//! paper's qualitative findings: error grows with `N_t` (average below 6%
//! up to `N_t = 32` with trained models), `K = 20%` skimming adds a few
//! percent, and `K = 50%` degrades clearly.
//!
//! Every model is named by an `EngineSpec` and driven through the unified
//! `GridEngine` harness, so the same experiment also sweeps the fixed-point
//! datapath axis (last section) — no per-variant code paths.

use crate::{bar, header};
use hima::prelude::*;
use hima::tasks::eval::{mean_divergence, mean_error};
use hima::tensor::QFormat;

pub fn run() {
    header("Fig. 10 (top): DNC-D relative error vs tile count");
    let tile_counts = [1usize, 2, 4, 8, 16];
    let mut per_tiles = Vec::new();
    for &tiles in &tile_counts {
        let errors = relative_error(&EvalConfig::small(tiles));
        per_tiles.push((tiles, errors));
    }

    print!("{:<28}", "task");
    for (tiles, _) in &per_tiles {
        print!(" N_t={tiles:<4}");
    }
    println!();
    for i in 0..TASKS.len() {
        print!("{:>2} {:<25}", TASKS[i].id, TASKS[i].name);
        for (_, errors) in &per_tiles {
            print!(" {:>7.1}%", errors[i].error * 100.0);
        }
        println!();
    }
    print!("{:<28}", "mean");
    for (_, errors) in &per_tiles {
        print!(" {:>7.1}%", mean_error(errors) * 100.0);
    }
    println!("\n\nPaper: error increases with N_t; with N_t capped at 32 the average stays");
    println!("below 6% over DNC (trained models; ours are procedurally initialized, so");
    println!("absolute levels differ while the monotone trend is the reproduced shape).");

    header("Fig. 10 (bottom): usage skimming (memory-saturated shards, N_t = 4)");
    // Skimming is exactly free while any zero-usage slot remains (the
    // allocation prefix product past the first free slot is zero), so the
    // sweep runs in the saturated regime where episodes fill the shards —
    // the long-story bAbI situation the paper's K-sweep probes.
    println!("{:>6} {:>12} {:>18}", "K", "error rate", "read divergence");
    for k in [0.0f32, 0.2, 0.5] {
        let cfg = if k == 0.0 {
            EvalConfig::saturated(4)
        } else {
            EvalConfig::saturated(4).with_skim(SkimRate::new(k))
        };
        let errors = relative_error(&cfg);
        let mean = mean_error(&errors);
        let div = mean_divergence(&errors);
        println!(
            "{:>5.0}% {:>11.1}% {:>17.4}  {}",
            k * 100.0,
            mean * 100.0,
            div,
            bar(div, 40)
        );
    }
    println!("\nPaper: K=20% at N_t=16 gives 5.8% over DNC; K=50% exceeds 15%.");
    println!("The continuous read-divergence column resolves skimming effects that are");
    println!("too small to flip a retrieval at this memory size.");

    header("Datapath sweep (N_t = 4): fixed-point vs f32 through the same harness");
    // The same EvalConfig/EngineSpec machinery sweeps the quantized
    // datapath: the engine under test rounds its interface inputs and all
    // stored state to the Q-format each step, the reference stays f32.
    println!("{:>10} {:>12} {:>18}", "datapath", "error rate", "read divergence");
    for (label, cfg) in [
        ("f32", EvalConfig::small(4)),
        (
            "Q16.16",
            EvalConfig::small(4).with_datapath(Datapath::Quantized(QFormat::q16_16())),
        ),
        (
            "Q8.8",
            EvalConfig::small(4).with_datapath(Datapath::Quantized(QFormat::q8_8())),
        ),
    ] {
        let errors = relative_error(&cfg);
        println!(
            "{:>10} {:>11.1}% {:>17.4}  {}",
            label,
            mean_error(&errors) * 100.0,
            mean_divergence(&errors),
            bar(mean_divergence(&errors), 40)
        );
    }
    println!("\nThe paper's prototypes run a 32-bit (Q16.16) datapath; divergence over");
    println!("the f32 row is the accuracy cost of the hardware number format, and the");
    println!("narrow Q8.8 row shows where a 16-bit datapath would land.");

    header("Trained-readout accuracy (reservoir-style ridge regression)");
    // A linear readout trained on [h ; v_r] features gives *absolute* task
    // accuracy for both models — the closest substitute for the paper's
    // trained-network evaluation (see DESIGN.md).
    use hima::dnc::DncParams;
    use hima::tasks::tasks::TOKEN_WIDTH;
    use hima::tasks::train::{mean_accuracy, trained_accuracy};
    let params =
        DncParams::new(64, 16, 2).with_hidden(32).with_io(TOKEN_WIDTH, TOKEN_WIDTH);
    println!("{:>6} {:>10} {:>10} {:>12}", "N_t", "DNC acc", "DNC-D acc", "gap");
    for tiles in [2usize, 4, 8, 16] {
        let rows = trained_accuracy(params, tiles, 2021, 20, 8, 1e-2);
        let (dnc, dncd) = mean_accuracy(&rows);
        println!(
            "{:>6} {:>9.1}% {:>9.1}% {:>11.1}%",
            tiles,
            dnc * 100.0,
            dncd * 100.0,
            (dnc - dncd) * 100.0
        );
    }
    println!("\n(chance rate 1/12 = 8.3%. With untrained reservoir keys retrieval is");
    println!("weak, so the gap column is noisy — the relative-divergence metric above,");
    println!("which compares both models on identical inputs, is the primary Fig. 10");
    println!("reproduction; this section shows what a trained readout can extract.)");
}
