//! Fig. 12(b)-(d): comparison with state-of-the-art designs.
//!
//! Farm, MANNA, the GPU and the CPU are closed systems; their published
//! numbers are encoded in `hima::engine::baselines` (see DESIGN.md). The
//! HiMA rows come from our cycle/area/power models. One scale constant —
//! steps per bAbI test — anchors HiMA-DNC to the paper's 11.8 µs/test;
//! every *ratio* is then produced by the models.

use hima::engine::baselines::{self, Platform, CPU, FARM, GPU, MANNA};
use hima::prelude::*;
use hima::tensor::Matrix;
use hima_bench::header;
use std::time::Instant;

/// Wall-clock µs per lane-step of a functional engine.
fn measured_step_us(engine: &mut GridEngine, steps: usize) -> f64 {
    let (b, width) = (engine.batch(), engine.params().input_size);
    let x = Matrix::from_fn(b, width, |lane, i| ((lane * 7 + i) as f32 * 0.3).sin());
    engine.step_batch(&x); // warm-up
    let start = Instant::now();
    for _ in 0..steps {
        engine.step_batch(&x);
    }
    start.elapsed().as_secs_f64() * 1e6 / (steps * b) as f64
}

fn main() {
    let model = PowerModel::calibrated();

    let dnc_cfg = EngineConfig::hima_dnc(16);
    let dncd_cfg = EngineConfig::hima_dncd(16);
    let dnc_step = Engine::new(dnc_cfg).step_us();
    let dncd_step = Engine::new(dncd_cfg).step_us();
    let steps = baselines::steps_per_test(dnc_step);
    let dnc_us = dnc_step * steps;
    let dncd_us = dncd_step * steps;

    header("Fig. 12(b): inference speed, normalized to the GPU");
    println!("{:<18} {:>12} {:>12}  notes", "platform", "us/test", "speedup");
    let mut rows: Vec<(String, f64, &str)> = vec![
        (CPU.name.to_string(), CPU.inference_us, "paper §3.2"),
        (GPU.name.to_string(), GPU.inference_us, "paper §3.2 (reference)"),
        (FARM.name.to_string(), FARM.inference_us, "published: 68.5x GPU, N <= 256"),
        (MANNA.name.to_string(), MANNA.inference_us, "published: ~Farm speed, NTM only"),
        ("HiMA-DNC".into(), dnc_us, "our cycle model (anchored 11.8 us)"),
        ("HiMA-DNC-D".into(), dncd_us, "our cycle model"),
    ];
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, us, note) in &rows {
        println!("{:<18} {:>12.2} {:>11.0}x  {}", name, us, GPU.inference_us / us, note);
    }
    println!(
        "\nPaper headline: HiMA-DNC up to 437x, HiMA-DNC-D up to 2,646x over the GPU."
    );
    println!(
        "Measured: HiMA-DNC {:.0}x, HiMA-DNC-D {:.0}x (DNC-D/DNC ratio {:.2} vs paper {:.2}).",
        GPU.inference_us / dnc_us,
        GPU.inference_us / dncd_us,
        dnc_us / dncd_us,
        2646.0 / 437.0
    );

    header("Fig. 12(c)/(d): area and power vs the accelerators (normalized to Farm)");
    let dnc_area = AreaModel::estimate(&dnc_cfg).total_mm2();
    let dncd_area = AreaModel::estimate(&dncd_cfg).total_mm2();
    let dnc_w = model.estimate(&dnc_cfg).total_w();
    let dncd_w = model.estimate(&dncd_cfg).total_w();
    // The paper normalizes to Farm = 1x; our absolute mm^2 maps to the
    // published 3.16x (baseline) anchor.
    let farm_area_mm2 = AreaModel::estimate(&EngineConfig::baseline(16)).total_mm2() / 3.16;

    println!("{:<18} {:>12} {:>12} {:>14}", "design", "rel. area", "rel. power", "max memory N");
    // (design, rel. area, rel. power, max memory rows, note)
    type Row = (&'static str, Option<f64>, Option<f64>, usize, &'static str);
    let table: Vec<Row> = vec![
        ("Farm", FARM.area_mm2, FARM.power_w, FARM.max_memory_rows, "40nm-class, mixed-signal"),
        ("MANNA", MANNA.normalized_area(40.0), MANNA.power_w, MANNA.max_memory_rows, "15nm, NTM only"),
        ("HiMA-DNC", Some(dnc_area / farm_area_mm2), Some(dnc_w), 1024, "this work"),
        ("HiMA-DNC-D", Some(dncd_area / farm_area_mm2), Some(dncd_w), 1024, "this work"),
    ];
    for (name, area, power, mem, note) in table {
        println!(
            "{:<18} {:>11} {:>11} {:>14}  {}",
            name,
            area.map_or("n/a".into(), |a| format!("{a:.2}x")),
            power.map_or("n/a".into(), |p| format!("{p:.2}")),
            mem,
            note
        );
    }

    header("Efficiency (throughput per area / per watt, normalized to HiMA-DNC)");
    let throughput = |us: f64| 1.0 / us;
    let eff_rows = [
        ("HiMA-DNC", throughput(dnc_us) / dnc_area, throughput(dnc_us) / dnc_w),
        ("HiMA-DNC-D", throughput(dncd_us) / dncd_area, throughput(dncd_us) / dncd_w),
    ];
    let (base_ae, base_ee) = (eff_rows[0].1, eff_rows[0].2);
    for (name, ae, ee) in eff_rows {
        println!(
            "{:<18} area-eff {:>6.2}x   energy-eff {:>6.2}x",
            name,
            ae / base_ae,
            ee / base_ee
        );
    }
    println!(
        "\nPaper: vs MANNA, HiMA-DNC/DNC-D achieve 6.47x/39.1x speed, 22.8x/164.3x"
    );
    println!("area efficiency and 6.1x/61.2x energy efficiency.");
    let manna_us = MANNA.inference_us;
    println!(
        "Measured speed vs MANNA-class latency: HiMA-DNC {:.2}x, HiMA-DNC-D {:.2}x.",
        manna_us / dnc_us,
        manna_us / dncd_us
    );

    header("Functional cross-check: measured software step time (one GridEngine path)");
    // The cycle model above predicts DNC-D beats DNC because sharding
    // removes the global sort/linkage; the *functional* models, driven
    // through the same unified engine API the harnesses use, should show
    // the same direction in software wall-clock (the sort is O(N log N)
    // centralized vs N_t local O((N/N_t) log(N/N_t)) sorts in parallel).
    let fp = DncParams::new(1024, 32, 2).with_hidden(64).with_io(16, 16);
    let mut mono = EngineBuilder::new(fp).lanes(4).seed(7).build();
    let mut shard = EngineBuilder::new(fp).sharded(16).lanes(4).seed(7).build();
    let mono_us = measured_step_us(&mut mono, 20);
    let shard_us = measured_step_us(&mut shard, 20);
    println!("{:<22} {:>14} ", "functional engine", "us/lane-step");
    println!("{:<22} {:>14.1}", "monolithic", mono_us);
    println!("{:<22} {:>14.1}", "sharded N_t=16", shard_us);
    println!(
        "software ratio {:.2}x vs modeled cycle ratio {:.2}x (same direction;\n\
         magnitudes differ because software has no tile array or NoC)",
        mono_us / shard_us,
        dnc_us / dncd_us
    );

    // Consistency check mirrored in the test suite.
    assert!(dncd_us < dnc_us && dnc_us < FARM.inference_us);
    let _ = Platform::speedup_vs_gpu(&FARM);
}
