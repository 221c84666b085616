//! Fig. 12(a): area and power scalability of HiMA-DNC and HiMA-DNC-D with
//! the tile count.
//!
//! The paper's finding: HiMA-DNC's power grows super-linearly with `N_t`
//! (traffic and the related per-PT computation), while DNC-D stays close
//! to the ideal linear scaling.

use crate::header;
use hima::prelude::*;

pub fn run() {
    header("Fig. 12(a): area and power vs tile count (normalized to N_t = 4)");
    let model = PowerModel::calibrated();
    let tile_counts = [4usize, 8, 16, 32];

    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>14}",
        "N_t", "DNC area", "DNC power", "DNC-D area", "DNC-D power"
    );
    let base_dnc_area = AreaModel::estimate(&EngineConfig::hima_dnc(4)).total_mm2();
    let base_dnc_pow = model.estimate(&EngineConfig::hima_dnc(4)).total_w();
    let base_dncd_area = AreaModel::estimate(&EngineConfig::hima_dncd(4)).total_mm2();
    let base_dncd_pow = model.estimate(&EngineConfig::hima_dncd(4)).total_w();

    for nt in tile_counts {
        let dnc = EngineConfig::hima_dnc(nt);
        let dncd = EngineConfig::hima_dncd(nt);
        println!(
            "{:>5} {:>13.2}x {:>13.2}x {:>13.2}x {:>13.2}x",
            nt,
            AreaModel::estimate(&dnc).total_mm2() / base_dnc_area,
            model.estimate(&dnc).total_w() / base_dnc_pow,
            AreaModel::estimate(&dncd).total_mm2() / base_dncd_area,
            model.estimate(&dncd).total_w() / base_dncd_pow,
        );
    }
    println!("{:>5} {:>13.2}x {:>13.2}x {:>13.2}x {:>13.2}x", "ideal", 8.0, 8.0, 8.0, 8.0);

    println!("\nPaper: DNC power grows super-linearly with N_t (increased traffic and");
    println!("related per-PT computation); DNC-D improves the scalability to near the");
    println!("ideal linear trend. Area grows sub-linearly for both (per-PT memories");
    println!("shrink as 1/N_t while fixed periphery stays).");

    header("Absolute values");
    println!("{:>5} {:>12} {:>10} {:>13} {:>11}", "N_t", "DNC mm^2", "DNC W", "DNC-D mm^2", "DNC-D W");
    for nt in tile_counts {
        let dnc = EngineConfig::hima_dnc(nt);
        let dncd = EngineConfig::hima_dncd(nt);
        println!(
            "{:>5} {:>12.1} {:>10.2} {:>13.1} {:>11.2}",
            nt,
            AreaModel::estimate(&dnc).total_mm2(),
            model.estimate(&dnc).total_w(),
            AreaModel::estimate(&dncd).total_mm2(),
            model.estimate(&dncd).total_w(),
        );
    }
}
