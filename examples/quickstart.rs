//! Quickstart: functional DNC inference + the HiMA architectural headline.
//!
//! Run with `cargo run --example quickstart`.

use hima::prelude::*;

fn main() {
    // ---------------------------------------------------------------
    // 1. Functional DNC: write two items, read them back by content.
    // ---------------------------------------------------------------
    println!("== Functional DNC ==");
    let params = DncParams::new(64, 16, 2).with_hidden(64).with_io(8, 8);
    let mut dnc = EngineBuilder::new(params).seed(42).build();
    for t in 0..6 {
        let mut x = vec![0.0f32; 8];
        x[t % 8] = 1.0;
        let y = dnc.step(&x);
        println!("  step {t}: |y| = {:.4}", y.iter().map(|v| v * v).sum::<f32>().sqrt());
    }
    println!("  memory invariants hold: {}", dnc.unit(0, 0).check_invariants(1e-3));

    // ---------------------------------------------------------------
    // 2. One engine API: EngineBuilder composes topology × lanes ×
    //    datapath, and every variant is one GridEngine.
    // ---------------------------------------------------------------
    println!("\n== EngineBuilder sweep (one stepping code path) ==");
    let calib: Vec<Vec<f32>> = (0..16)
        .map(|t| (0..8).map(|i| ((t * 3 + i) as f32 * 0.4).sin()).collect())
        .collect();
    let specs = [
        EngineSpec::monolithic(),
        EngineSpec::sharded(4),
        EngineSpec::sharded(4).with_datapath(Datapath::Quantized(QFormat::q16_16())),
    ];
    for spec in specs {
        // 8 lanes through shared weights; sharded specs get their read
        // merge calibrated against the monolithic reference.
        let mut engine = EngineBuilder::new(params)
            .with_spec(spec)
            .lanes(8)
            .seed(42)
            .calibrated(&calib)
            .build();
        let y = engine.step_batch(&Matrix::zeros(8, 8));
        println!(
            "  {:<22} B={} -> output {}x{}",
            spec.label(),
            engine.batch(),
            y.rows(),
            y.cols()
        );
    }

    // ---------------------------------------------------------------
    // 3. Architectural model: the paper's headline speedups.
    // ---------------------------------------------------------------
    println!("\n== HiMA architectural model (N_t = 16, N x W = 1024 x 64) ==");
    let base = Engine::new(EngineConfig::baseline(16));
    println!(
        "  {:<22} {:>8} cycles/step  ({:>6.2} us)",
        "HiMA-baseline",
        base.step_cycles(),
        base.step_us()
    );
    for level in [FeatureLevel::Submatrix, FeatureLevel::DncD, FeatureLevel::DncDApprox] {
        let e = Engine::new(EngineConfig::at_level(level, 16));
        println!(
            "  {:<22} {:>8} cycles/step  ({:>6.2} us)  {:>5.2}x",
            level.label(),
            e.step_cycles(),
            e.step_us(),
            base.step_cycles() as f64 / e.step_cycles() as f64
        );
    }

    // ---------------------------------------------------------------
    // 4. Silicon cost.
    // ---------------------------------------------------------------
    println!("\n== Area & power (40 nm, 500 MHz) ==");
    let power = PowerModel::calibrated();
    for (name, cfg) in [
        ("HiMA-DNC", EngineConfig::hima_dnc(16)),
        ("HiMA-DNC-D", EngineConfig::hima_dncd(16)),
    ] {
        let a = AreaModel::estimate(&cfg);
        let p = power.estimate(&cfg);
        println!(
            "  {:<11} total {:>6.2} mm2 (PT {:.2}, CT {:.2})   power {:>5.2} W",
            name,
            a.total_mm2(),
            a.pt_mm2,
            a.ct_mm2,
            p.total_w()
        );
    }
}
