//! Design-space Pareto explorer: sweep tile count × model × PE width and
//! report the (speed, area, power) Pareto frontier — the tool a designer
//! adopting HiMA would actually use to size a deployment.

use crate::header;
use hima::prelude::*;

#[derive(Debug, Clone)]
struct DesignPoint {
    label: String,
    cycles: u64,
    area_mm2: f64,
    power_w: f64,
}

impl DesignPoint {
    /// `other` dominates when it is no worse on all three axes and better
    /// on at least one.
    fn dominated_by(&self, other: &DesignPoint) -> bool {
        let no_worse = other.cycles <= self.cycles
            && other.area_mm2 <= self.area_mm2
            && other.power_w <= self.power_w;
        let better = other.cycles < self.cycles
            || other.area_mm2 < self.area_mm2
            || other.power_w < self.power_w;
        no_worse && better
    }
}

pub fn run() {
    let model = PowerModel::calibrated();
    let mut points = Vec::new();

    for tiles in [4usize, 8, 16, 32] {
        for (kind, mk) in [
            ("DNC", EngineConfig::hima_dnc as fn(usize) -> EngineConfig),
            ("DNC-D", EngineConfig::hima_dncd as fn(usize) -> EngineConfig),
        ] {
            for pe in [256usize, 512, 1024] {
                let mut cfg = mk(tiles);
                cfg.pe_parallelism = pe;
                let engine = Engine::new(cfg);
                points.push(DesignPoint {
                    label: format!("{kind} Nt={tiles} PE={pe}"),
                    cycles: engine.step_cycles(),
                    area_mm2: AreaModel::estimate(&cfg).total_mm2(),
                    power_w: model.estimate(&cfg).total_w(),
                });
            }
        }
    }

    header("All design points (cycles/step, mm^2, W)");
    println!("{:<24} {:>10} {:>10} {:>9}", "design", "cycles", "area", "power");
    for p in &points {
        println!("{:<24} {:>10} {:>10.1} {:>9.2}", p.label, p.cycles, p.area_mm2, p.power_w);
    }

    let frontier: Vec<&DesignPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| p.dominated_by(q)))
        .collect();

    header("Pareto frontier (not dominated on speed, area and power)");
    println!("{:<24} {:>10} {:>10} {:>9}", "design", "cycles", "area", "power");
    let mut sorted = frontier.clone();
    sorted.sort_by_key(|p| p.cycles);
    for p in &sorted {
        println!("{:<24} {:>10} {:>10.1} {:>9.2}", p.label, p.cycles, p.area_mm2, p.power_w);
    }
    println!(
        "\n{} of {} design points are Pareto-optimal. DNC-D points dominate the",
        frontier.len(),
        points.len()
    );
    println!("frontier's fast end — the paper's scalability argument as a design tool.");

    // Invariant mirrored in tests: every frontier point at the fast end is
    // a DNC-D configuration.
    let fastest = sorted.first().expect("non-empty frontier");
    assert!(fastest.label.starts_with("DNC-D"), "fastest design must be DNC-D: {}", fastest.label);
}
