//! Fig. 11: speed, silicon area and power of the HiMA prototypes
//! (N_t = 16), across the architectural/algorithmic feature ladder.
//!
//! (a) speedup breakdown, (b) kernel runtime breakdown, (c) power impact
//! of the features, (d) kernel power breakdown, (e) the area/power table,
//! (f) module power breakdown — each printed with the paper's reported
//! values alongside.

use crate::{bar, header, times};
use hima::engine::report::{ablation_sweep, breakdown_rows};
use hima::prelude::*;

pub fn run() {
    // ------------------------------------------------------------- (a)
    header("Fig. 11(a): speedup breakdown over HiMA-baseline (N_t = 16)");
    let paper_speedups = [1.0, 1.12, 1.23, 1.39, 8.29, 8.42];
    println!("{:<18} {:>10} {:>9} {:>9}", "level", "cycles", "measured", "paper");
    for (row, paper) in ablation_sweep(16).iter().zip(paper_speedups) {
        println!(
            "{:<18} {:>10} {:>9} {:>9}",
            row.level.label(),
            row.cycles,
            times(row.speedup),
            times(paper)
        );
    }

    // ------------------------------------------------------------- (b)
    header("Fig. 11(b): kernel runtime breakdown");
    let paper_dnc = [24.0, 33.0, 20.0, 21.0, 2.0];
    let paper_dncd = [19.0, 21.0, 20.0, 28.0, 12.0];
    for (name, cfg, paper) in [
        ("HiMA-DNC", EngineConfig::hima_dnc(16), paper_dnc),
        ("HiMA-DNC-D", EngineConfig::hima_dncd(16), paper_dncd),
    ] {
        let report = Engine::new(cfg).step_report();
        println!("\n{name} ({} cycles/step, {:.2} us):", report.total_cycles(), cfg.cycles_to_us(report.total_cycles()));
        for ((label, pct), paper_pct) in breakdown_rows(&report).into_iter().zip(paper) {
            println!(
                "  {:<30} {:>5.1}%  (paper {:>4.1}%)  {}",
                label,
                pct,
                paper_pct,
                bar(pct / 100.0, 30)
            );
        }
    }

    // ------------------------------------------------------------- (c)
    header("Fig. 11(c): power impact of the features (normalized to baseline)");
    let model = PowerModel::calibrated();
    let base_w = model.estimate(&EngineConfig::at_level(FeatureLevel::Baseline, 16)).total_w();
    let paper_power = [1.0, 1.091, 1.13, 0.991, 0.612, 0.603];
    println!("{:<18} {:>9} {:>10} {:>10}", "level", "watts", "measured", "paper");
    for (level, paper) in FeatureLevel::ALL.iter().zip(paper_power) {
        let w = model.estimate(&EngineConfig::at_level(*level, 16)).total_w();
        println!("{:<18} {:>8.2}W {:>10} {:>10}", level.label(), w, times(w / base_w), times(paper));
    }

    // ------------------------------------------------------------- (d)
    header("Fig. 11(d): kernel power breakdown");
    let paper_dnc_w = [3.10, 5.29, 3.15, 3.74, 1.66];
    let paper_dncd_w = [2.79, 2.59, 1.67, 2.58, 0.66];
    for (name, cfg, paper) in [
        ("HiMA-DNC", EngineConfig::hima_dnc(16), paper_dnc_w),
        ("HiMA-DNC-D", EngineConfig::hima_dncd(16), paper_dncd_w),
    ] {
        println!("\n{name}:");
        for ((cat, w), paper_w) in model.kernel_power(&cfg).into_iter().zip(paper) {
            println!("  {:<30} {:>6.2} W  (paper {:>5.2} W)", cat.label(), w, paper_w);
        }
    }

    // ------------------------------------------------------------- (e)
    header("Fig. 11(e): silicon area and power (40 nm, 500 MHz)");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "mm^2 / W", "baseline", "HiMA-DNC", "HiMA-DNC-D"
    );
    let rows: Vec<(&str, EngineConfig)> = vec![
        ("baseline", EngineConfig::baseline(16)),
        ("HiMA-DNC", EngineConfig::hima_dnc(16)),
        ("HiMA-DNC-D", EngineConfig::hima_dncd(16)),
    ];
    let areas: Vec<AreaReport> = rows.iter().map(|(_, c)| AreaModel::estimate(c)).collect();
    let powers: Vec<f64> = rows.iter().map(|(_, c)| model.estimate(c).total_w()).collect();
    print!("{:<14}", "PT");
    for a in &areas {
        print!(" {:>12.2}", a.pt_mm2);
    }
    println!("   (paper: 4.92 / 5.01 / 4.22)");
    print!("{:<14}", "PT mem");
    for a in &areas {
        print!(" {:>12.2}", a.pt_mem_mm2);
    }
    println!("   (paper: 2.07 / 2.07 / 1.53)");
    print!("{:<14}", "CT");
    for a in &areas {
        print!(" {:>12.2}", a.ct_mm2);
    }
    println!("   (paper: 0.43 / 0.52 / 0.18)");
    print!("{:<14}", "Total");
    for a in &areas {
        print!(" {:>12.2}", a.total_mm2());
    }
    println!("   (paper: 79.14 / 80.69 / 67.71)");
    print!("{:<14}", "Power (W)");
    for p in &powers {
        print!(" {:>12.2}", p);
    }
    println!("   (paper: 16.80 / 16.96 / 10.28)");

    // ------------------------------------------------------------- (f)
    header("Fig. 11(f): module power breakdown");
    let paper_dnc_mod = [4.86, 8.10, 1.56, 2.30, 0.15];
    let paper_dncd_mod = [3.15, 5.38, 0.0247, 1.69, 0.036];
    for (name, cfg, paper) in [
        ("HiMA-DNC", EngineConfig::hima_dnc(16), paper_dnc_mod),
        ("HiMA-DNC-D", EngineConfig::hima_dncd(16), paper_dncd_mod),
    ] {
        let p = model.estimate(&cfg);
        println!("\n{name} (total {:.2} W):", p.total_w());
        for (label, w, paper_w) in [
            ("PT Mem. System", p.pt_mem_w, paper[0]),
            ("PT M-M Engine", p.mm_engine_w, paper[1]),
            ("PT Router", p.router_w, paper[2]),
            ("PT Other Logic", p.pt_other_w, paper[3]),
            ("CT Logic", p.ct_w, paper[4]),
        ] {
            println!("  {:<18} {:>7.3} W  (paper {:>6.3} W)", label, w, paper_w);
        }
    }
}
