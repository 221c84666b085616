//! Property-based tests for the area/power models.

use hima_cost::{AreaModel, PowerModel};
use hima_engine::{Engine, EngineConfig};
use hima_testkit::cases::{check, Gen};

/// `2^lo ..= 2^hi` tiles, `2^hi` included.
fn pow2(g: &mut Gen, lo: u32, hi: u32) -> usize {
    1 << g.range(lo..=hi)
}

#[test]
fn area_positive_and_composed() {
    check("area_positive_and_composed", 16, |g| pow2(g, 1, 6), |nt| {
        for cfg in [EngineConfig::baseline(nt), EngineConfig::hima_dnc(nt), EngineConfig::hima_dncd(nt)] {
            let a = AreaModel::estimate(&cfg);
            assert!(a.pt_mm2 > 0.0);
            assert!(a.pt_mem_mm2 > 0.0);
            assert!(a.pt_mem_mm2 < a.pt_mm2, "memory is part of the PT");
            assert!(a.ct_mm2 > 0.0);
            let total = a.pt_mm2 * nt as f64 + a.ct_mm2;
            assert!((a.total_mm2() - total).abs() < 1e-9);
        }
    });
}

#[test]
fn dncd_area_always_below_dnc() {
    check("dncd_area_always_below_dnc", 16, |g| pow2(g, 1, 6), |nt| {
        let dnc = AreaModel::estimate(&EngineConfig::hima_dnc(nt)).total_mm2();
        let dncd = AreaModel::estimate(&EngineConfig::hima_dncd(nt)).total_mm2();
        assert!(dncd < dnc, "N_t={}: {} !< {}", nt, dncd, dnc);
    });
}

#[test]
fn area_grows_with_memory_size() {
    check("area_grows_with_memory_size", 16, |g| (pow2(g, 2, 5), g.range(8u32..12)), |(nt, log_n)| {
        let n = 1usize << log_n;
        let small = AreaModel::estimate(&EngineConfig::hima_dnc(nt).with_geometry(n, 64, 4)).total_mm2();
        let large = AreaModel::estimate(&EngineConfig::hima_dnc(nt).with_geometry(2 * n, 64, 4)).total_mm2();
        assert!(large > small);
    });
}

#[test]
fn power_components_nonnegative_and_sum() {
    check("power_components_nonnegative_and_sum", 16, |g| pow2(g, 2, 5), |nt| {
        let model = PowerModel::calibrated();
        for cfg in [EngineConfig::hima_dnc(nt), EngineConfig::hima_dncd(nt)] {
            let p = model.estimate(&cfg);
            for w in [p.mm_engine_w, p.pt_mem_w, p.router_w, p.pt_other_w, p.ct_w] {
                assert!(w >= 0.0);
            }
            let sum = p.mm_engine_w + p.pt_mem_w + p.router_w + p.pt_other_w + p.ct_w;
            assert!((p.total_w() - sum).abs() < 1e-9);
            assert!(p.total_w() > 0.0);
            assert!(p.step_us > 0.0);
        }
    });
}

#[test]
fn energy_per_step_consistent_with_cycles() {
    check("energy_per_step_consistent_with_cycles", 16, |g| pow2(g, 2, 5), |nt| {
        let model = PowerModel::calibrated();
        let cfg = EngineConfig::hima_dncd(nt);
        let p = model.estimate(&cfg);
        let cycles = Engine::new(cfg).step_cycles();
        let t_us = cfg.cycles_to_us(cycles);
        assert!((p.step_us - t_us).abs() < 1e-9);
        assert!((p.energy_per_step_uj() - p.total_w() * t_us).abs() < 1e-9);
    });
}

#[test]
fn kernel_power_partition_sums_to_total() {
    check("kernel_power_partition_sums_to_total", 16, |g| pow2(g, 2, 4), |nt| {
        let model = PowerModel::calibrated();
        let cfg = EngineConfig::hima_dnc(nt);
        let split: f64 = model.kernel_power(&cfg).iter().map(|(_, w)| w).sum();
        let total = model.estimate(&cfg).total_w();
        assert!((split - total).abs() < 1e-6, "{} vs {}", split, total);
    });
}

#[test]
fn dncd_energy_per_step_below_dnc() {
    check("dncd_energy_per_step_below_dnc", 16, |g| pow2(g, 2, 5), |nt| {
        // DNC-D is both faster and lower-power, so per-step energy must
        // drop even more strongly.
        let model = PowerModel::calibrated();
        let dnc = model.estimate(&EngineConfig::hima_dnc(nt)).energy_per_step_uj();
        let dncd = model.estimate(&EngineConfig::hima_dncd(nt)).energy_per_step_uj();
        assert!(dncd < dnc, "N_t={}: {} !< {}", nt, dncd, dnc);
    });
}
