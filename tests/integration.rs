//! Cross-crate integration tests: the functional model, the hardware
//! models and the cost models must agree where their domains overlap.

use hima::prelude::*;

#[test]
fn dncd_with_one_shard_is_the_centralized_dnc() {
    let params = DncParams::new(32, 8, 2).with_hidden(32).with_io(6, 6);
    let mut dnc = Dnc::new(params, 77);
    let mut dncd = EngineBuilder::new(params)
        .sharded(1)
        .merge(hima::dnc::ReadMerge::from_weights(vec![1.0]))
        .seed(77)
        .build();
    for t in 0..15 {
        let x: Vec<f32> = (0..6).map(|i| ((t * 7 + i * 3) as f32 * 0.19).sin()).collect();
        let a = dnc.step(&x);
        let b = dncd.step(&x);
        hima::tensor::assert_close(&a, &b, 1e-5);
    }
}

#[test]
fn engine_sort_choice_matches_sorter_crate_latencies() {
    // The engine's usage-sort cycles must reflect the hima-sort models it
    // claims to use.
    let base = Engine::new(EngineConfig::baseline(4));
    let two = Engine::new(EngineConfig::baseline(4).with_two_stage_sort(true));
    let base_sort = base
        .step_report()
        .cost_of(hima::dnc::KernelId::UsageSort)
        .unwrap()
        .total();
    let two_sort = two
        .step_report()
        .cost_of(hima::dnc::KernelId::UsageSort)
        .unwrap()
        .total();
    // Two-stage must beat the centralized sort by a wide margin (the §4.3
    // microbenchmark gives 389 vs 10240 at N_t = 4).
    assert!(two_sort * 2 < base_sort, "two-stage {two_sort} vs centralized {base_sort}");
    let sorter = TwoStageSorter::new(4, 1024);
    assert!(
        two_sort >= sorter.stage1_cycles(),
        "engine cannot beat the sorter model itself"
    );
}

#[test]
fn engine_noc_cycles_come_from_the_noc_simulator() {
    // Switching only the topology (same traffic) must change NoC cycles in
    // the direction the hop counts predict.
    let htree = Engine::new(EngineConfig::hima_dnc(16).with_topology(Topology::HTree));
    let hima = Engine::new(EngineConfig::hima_dnc(16));
    assert!(hima.step_report().noc_cycles() < htree.step_report().noc_cycles());
}

#[test]
fn cost_model_efficiency_ratios_favor_dncd() {
    // Throughput/area and throughput/power (the Fig. 12 efficiency
    // metrics) must both improve from HiMA-DNC to HiMA-DNC-D.
    let power = PowerModel::calibrated();
    let eff = |cfg: EngineConfig| {
        let cycles = Engine::new(cfg).step_cycles() as f64;
        let throughput = 1.0 / cycles;
        let area = AreaModel::estimate(&cfg).total_mm2();
        let watts = power.estimate(&cfg).total_w();
        (throughput / area, throughput / watts)
    };
    let (dnc_area_eff, dnc_energy_eff) = eff(EngineConfig::hima_dnc(16));
    let (dncd_area_eff, dncd_energy_eff) = eff(EngineConfig::hima_dncd(16));
    assert!(dncd_area_eff > dnc_area_eff, "area efficiency must improve");
    assert!(dncd_energy_eff > dnc_energy_eff, "energy efficiency must improve");
}

#[test]
fn skimming_trades_accuracy_for_speed_consistently() {
    // The same knob that speeds the engine up must cost accuracy in the
    // functional suite (shape of the §5.2 trade-off).
    let fast = Engine::new(EngineConfig::hima_dncd_approx(16)).step_cycles();
    let exact = Engine::new(EngineConfig::hima_dncd(16)).step_cycles();
    assert!(fast <= exact, "skimming must not slow the engine down");

    let e_skim = hima::tasks::eval::mean_divergence(&relative_error(
        &EvalConfig::saturated(4).with_skim(SkimRate::new(0.5)),
    ));
    let e_none = hima::tasks::eval::mean_divergence(&relative_error(&EvalConfig::saturated(4)));
    assert!(e_skim >= e_none, "heavy skimming cannot improve accuracy");
}

#[test]
fn pla_softmax_unit_matches_dnc_usage() {
    // The PLA unit the engine charges 1 cycle/element for must track the
    // exact softmax closely enough for content addressing.
    let m = Matrix::from_fn(32, 8, |i, j| ((i * 3 + j) as f32 * 0.21).sin());
    let key: Vec<f32> = (0..8).map(|j| (j as f32 * 0.4).cos()).collect();
    let exact = hima::dnc::content::content_weighting(&m, &key, 4.0, None);
    let pla = PlaSoftmax::default();
    let approx = hima::dnc::content::content_weighting(&m, &key, 4.0, Some(&pla));
    for (a, b) in exact.iter().zip(&approx) {
        assert!((a - b).abs() < 0.03);
    }
}

#[test]
fn tile_memory_map_matches_engine_geometry() {
    let cfg = EngineConfig::hima_dnc(16);
    let map = TileMemoryMap::optimized(cfg.memory_size, cfg.word_size, cfg.read_heads, cfg.tiles);
    let engine = Engine::new(cfg);
    assert_eq!(map.linkage_partition(), engine.linkage_partition());
}

#[test]
fn fixed_point_dnc_stays_close_to_float() {
    // Quantizing the interface vector to Q16.16 must not derail inference
    // (the 32-bit datapath claim).
    let params = DncParams::new(32, 8, 1).with_io(4, 4);
    let mut a = Dnc::new(params, 5);
    let mut b = Dnc::new(params, 5);
    let mut max_err = 0.0f32;
    for t in 0..20 {
        let x: Vec<f32> = (0..4).map(|i| ((t * 5 + i) as f32 * 0.3).sin()).collect();
        let xq = Fixed::quantize_slice(&x);
        let ya = a.step(&x);
        let yb = b.step(&xq);
        for (p, q) in ya.iter().zip(&yb) {
            max_err = max_err.max((p - q).abs());
        }
    }
    assert!(max_err < 0.01, "quantized inputs diverged by {max_err}");
}
