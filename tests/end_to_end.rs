//! End-to-end scenarios exercising the full stack the way a user of the
//! library would: model → engine → cost, over non-default geometries.

use hima::prelude::*;

/// Sweep of geometries: every subsystem must stay consistent away from the
/// paper's reference point.
#[test]
fn stack_holds_across_geometries() {
    for (n, w, r, nt) in [(128usize, 16usize, 1usize, 4usize), (256, 32, 2, 8), (512, 64, 4, 32)] {
        // Functional model.
        let params = DncParams::new(n, w, r).with_hidden(32).with_io(8, 8);
        let mut dnc = EngineBuilder::new(params).seed(11).build();
        for t in 0..5 {
            let x: Vec<f32> = (0..8).map(|i| ((t + i) as f32 * 0.3).sin()).collect();
            let y = dnc.step(&x);
            assert!(y.iter().all(|v| v.is_finite()), "NaN at {n}x{w}");
        }
        assert!(dnc.unit(0, 0).check_invariants(1e-3));

        // Architectural model.
        let cfg = EngineConfig::hima_dnc(nt).with_geometry(n, w, r);
        let engine = Engine::new(cfg);
        assert!(engine.step_cycles() > 0);
        let dncd_cfg = EngineConfig::hima_dncd(nt).with_geometry(n, w, r);
        assert!(
            Engine::new(dncd_cfg).step_cycles() < engine.step_cycles(),
            "DNC-D must win at {n}x{w}, N_t={nt}"
        );

        // Cost model.
        let area = AreaModel::estimate(&cfg);
        assert!(area.total_mm2() > 0.0);
        assert!(area.pt_mem_mm2 < area.pt_mm2);
    }
}

/// Bigger memories must cost more cycles, area and traffic — monotonicity
/// of the whole stack in `N`.
#[test]
fn stack_is_monotone_in_memory_size() {
    let mut prev_cycles = 0;
    let mut prev_area = 0.0;
    for n in [256usize, 512, 1024, 2048] {
        let cfg = EngineConfig::hima_dnc(16).with_geometry(n, 64, 4);
        let cycles = Engine::new(cfg).step_cycles();
        let area = AreaModel::estimate(&cfg).total_mm2();
        assert!(cycles > prev_cycles, "N={n}: {cycles} cycles");
        assert!(area > prev_area, "N={n}: {area} mm2");
        prev_cycles = cycles;
        prev_area = area;
    }
}

/// A full mini-study: run the accuracy harness and the engine at matched
/// shard counts and confirm the speed/accuracy trade-off is coherent.
#[test]
fn speed_accuracy_tradeoff_is_coherent() {
    let mut speeds = Vec::new();
    let mut errors = Vec::new();
    for tiles in [2usize, 8] {
        speeds.push(Engine::new(EngineConfig::hima_dncd(tiles)).step_cycles());
        errors.push(hima::tasks::eval::mean_error(&relative_error(&EvalConfig::small(tiles))));
    }
    assert!(speeds[1] < speeds[0], "more shards must be faster: {speeds:?}");
    assert!(errors[1] >= errors[0], "more shards must not be more accurate: {errors:?}");
}

/// A profiled engine's profile covers every kernel after a full episode
/// — the instrumentation the Fig. 4 harness depends on.
#[test]
fn functional_profile_covers_every_kernel() {
    let params = DncParams::new(64, 16, 2).with_io(8, 8);
    let mut dnc = EngineBuilder::new(params).seed(31).profiling(true).build();
    for t in 0..8 {
        let x: Vec<f32> = (0..8).map(|i| ((t + i) as f32 * 0.4).sin()).collect();
        dnc.step(&x);
    }
    let profile = dnc.profile();
    for k in hima::dnc::KernelId::ALL {
        assert!(profile.calls(k) > 0, "{k:?} never profiled");
    }
}
