//! Shape tests for every reproduced table/figure: who wins, by roughly
//! what factor, and where the crossovers fall. The experiment binaries in
//! `hima-bench` print the full data; these tests pin the qualitative
//! claims so regressions are caught by `cargo test`.

use hima::engine::baselines;
use hima::engine::report::{ablation_sweep, scalability_sweep};
use hima::mem::optimizer;
use hima::prelude::*;

// ---------------------------------------------------------------------
// Table 1 — kernel analysis.
// ---------------------------------------------------------------------

#[test]
fn table1_state_kernels_are_new_and_traffic_heavy() {
    use hima::engine::kernels::{Complexity, KernelType, KERNEL_TABLE};
    let state: Vec<_> =
        KERNEL_TABLE.iter().filter(|k| k.kernel_type == KernelType::State).collect();
    assert_eq!(state.len(), 9, "nine state kernels in Table 1");
    // Forward-backward carries the worst traffic class O(Nt N^2).
    let fb = KERNEL_TABLE
        .iter()
        .find(|k| k.kernel == hima::dnc::KernelId::ForwardBackward)
        .unwrap();
    assert_eq!(fb.noc_traffic, Complexity::NtN2);
}

// ---------------------------------------------------------------------
// Fig. 4 — CPU/GPU runtime breakdown.
// ---------------------------------------------------------------------

#[test]
fn fig4_memory_unit_dominates_controller() {
    // ">95% of the runtime is the memory unit, <5% the LSTM" on
    // general-purpose platforms (3 % GPU, 4 % CPU). Read from the cycle
    // model of the centralized one-tile baseline at the paper's geometry,
    // where the controller is 3.4 % of a step — a quantity no build
    // profile moves. This test used to assert the wall-clock split of
    // `Dnc::profile()` (controller < 25 %), which read 9 % in the debug
    // profile and 35 % under `--release`: the memory unit's kernels got
    // ≈ 3× faster over PRs 13–17 and the oracle's `matvec` controller did
    // not, so that ratio tracked this repository's optimisation history,
    // not the platform claim.
    let report = Engine::new(EngineConfig::baseline(1)).step_report();
    let controller = report.category_cycles(hima::dnc::KernelCategory::Controller);
    let share = controller as f64 / report.total_cycles() as f64;
    assert!(share < 0.05, "controller at {:.1}% of the modeled step", share * 100.0);
    assert!(share > 0.0, "the model must cost the controller at all");
}

#[test]
fn fig4_history_write_weighting_is_the_largest_memory_category() {
    // On the GPU the paper attributes 72% to history-based write weighting
    // (sort-bound); the reference must at least rank the history
    // categories above content weighting. Read, as above, from the cycle
    // model of the centralized one-tile baseline: this test used to rank
    // `Dnc::profile()` nanoseconds, and history-based write weighting is
    // the category whose wall clock the packed-key usage sort shrinks — a
    // ranking of this host's kernel times follows the repository's
    // optimisations, the modeled one follows the platform.
    use hima::dnc::KernelCategory::{ContentWeighting, HistoryReadWeighting, HistoryWriteWeighting};
    let report = Engine::new(EngineConfig::baseline(1)).step_report();
    let [hw, hr, cw] =
        [HistoryWriteWeighting, HistoryReadWeighting, ContentWeighting].map(|c| report.category_cycles(c));
    assert!(cw > 0, "the model must cost content weighting at all");
    assert!(hw + hr > cw, "history kernels must outweigh content weighting: {hw} + {hr} vs {cw}");
}

// ---------------------------------------------------------------------
// Fig. 5(d) — NoC scalability.
// ---------------------------------------------------------------------

#[test]
fn fig5_hima_scales_past_the_fixed_fabrics() {
    let tiles = [1usize, 4, 8, 16, 32, 64];
    let series = |topo: Topology| {
        scalability_sweep(&tiles, move |nt| EngineConfig::hima_dnc(nt).with_topology(topo))
    };
    let htree = series(Topology::HTree);
    let hima = series(Topology::Hima);
    let dncd = scalability_sweep(&tiles, EngineConfig::hima_dncd);

    // At 64 tiles: DNC-D > HiMA > H-tree, the Fig. 5(d) ordering.
    let at64 = |s: &[hima::engine::report::ScalePoint]| s.last().unwrap().speedup;
    assert!(at64(&hima) > at64(&htree), "HiMA {:.1} !> H-tree {:.1}", at64(&hima), at64(&htree));
    assert!(at64(&dncd) > at64(&hima), "DNC-D {:.1} !> HiMA {:.1}", at64(&dncd), at64(&hima));

    // The H-tree's incremental gain from 16 -> 64 tiles is small
    // (saturation); DNC-D keeps gaining.
    let gain = |s: &[hima::engine::report::ScalePoint]| {
        s.last().unwrap().speedup / s[3].speedup // 64 vs 16
    };
    assert!(gain(&dncd) > gain(&htree), "DNC-D must keep scaling where the H-tree saturates");
}

// ---------------------------------------------------------------------
// Fig. 6 — partition traffic.
// ---------------------------------------------------------------------

#[test]
fn fig6_partition_optima_match_paper() {
    assert!(optimizer::best_external_partition(1024, 64, 16).is_row_wise());
    assert_eq!(optimizer::best_linkage_partition(16), Partition::new(4, 4));
}

// ---------------------------------------------------------------------
// Fig. 7 / §4.3 — two-stage sort.
// ---------------------------------------------------------------------

#[test]
fn fig7_two_stage_sort_cycle_counts() {
    let two = TwoStageSorter::new(4, 1024);
    assert_eq!(two.stage1_cycles(), 126, "6 x (16 + 5) MDSA cycles");
    assert_eq!(two.stage2_cycles(), 263, "n + D_PMS merge cycles");
    assert_eq!(two.latency_cycles(1024), 389);
    assert_eq!(CentralizedMergeSorter.latency_cycles(1024), 10240, "N log2 N baseline");
}

// ---------------------------------------------------------------------
// Fig. 10 — DNC-D accuracy.
// ---------------------------------------------------------------------

#[test]
fn fig10_error_grows_with_tiles_and_skimming() {
    let mean = |cfg: &EvalConfig| hima::tasks::eval::mean_error(&relative_error(cfg));
    let e1 = mean(&EvalConfig::small(1));
    let e8 = mean(&EvalConfig::small(8));
    assert!(e1 < 0.05, "single shard must match the reference ({e1:.3})");
    assert!(e8 >= e1, "error must grow with shard count");

    // Skimming is judged on read divergence in the memory-saturated regime
    // (it is exactly free while zero-usage slots remain).
    let div = |cfg: &EvalConfig| hima::tasks::eval::mean_divergence(&relative_error(cfg));
    let none = div(&EvalConfig::saturated(4));
    let heavy = div(&EvalConfig::saturated(4).with_skim(SkimRate::new(0.6)));
    assert!(heavy > none, "K=60% must measurably diverge: {none:.4} vs {heavy:.4}");
}

// ---------------------------------------------------------------------
// Fig. 11 — speed/area/power of the prototypes.
// ---------------------------------------------------------------------

#[test]
fn fig11a_ablation_ladder_shape() {
    let rows = ablation_sweep(16);
    // Paper: 1.12x, 1.23x, 1.39x, 8.29x, 8.42x.
    assert!((rows[1].speedup - 1.12).abs() < 0.25, "two-stage {:.2}", rows[1].speedup);
    assert!(rows[2].speedup > rows[1].speedup, "NoC must add speedup");
    assert!(rows[3].speedup > rows[2].speedup, "submat must add speedup");
    assert!((4.0..25.0).contains(&rows[4].speedup), "DNC-D {:.2}", rows[4].speedup);
    assert!(rows[5].speedup >= rows[4].speedup, "approximations must add speedup");
}

#[test]
fn fig11e_area_table() {
    let base = AreaModel::estimate(&EngineConfig::baseline(16));
    let dnc = AreaModel::estimate(&EngineConfig::hima_dnc(16));
    let dncd = AreaModel::estimate(&EngineConfig::hima_dncd(16));
    assert!((base.total_mm2() - 79.14).abs() < 1.0);
    assert!((dnc.total_mm2() - 80.69).abs() < 1.0);
    assert!((dncd.total_mm2() - 67.71).abs() < 1.0);
}

#[test]
fn fig11f_module_power_reference() {
    let p = PowerModel::calibrated().estimate(&EngineConfig::hima_dnc(16));
    // Fig. 11(f): M-M engine is the largest consumer, then PT memory.
    assert!(p.mm_engine_w > p.pt_mem_w);
    assert!(p.pt_mem_w > p.router_w);
    assert!((p.total_w() - 16.96).abs() < 0.3, "total {:.2} W", p.total_w());
}

// ---------------------------------------------------------------------
// Fig. 12 — scalability and cross-platform comparison.
// ---------------------------------------------------------------------

#[test]
fn fig12a_dncd_power_scales_closer_to_linear() {
    let model = PowerModel::calibrated();
    let ratio = |mk: fn(usize) -> EngineConfig| {
        model.estimate(&mk(32)).total_w() / model.estimate(&mk(4)).total_w()
    };
    let dnc = ratio(EngineConfig::hima_dnc);
    let dncd = ratio(EngineConfig::hima_dncd);
    assert!(dnc > dncd, "DNC power scaling {dnc:.2} must exceed DNC-D {dncd:.2}");
}

#[test]
fn fig12b_comparison_ordering() {
    // Normalized speed: HiMA-DNC-D > HiMA-DNC > Farm/MANNA > GPU > CPU.
    let dnc_us = Engine::new(EngineConfig::hima_dnc(16)).step_us();
    let dncd_us = Engine::new(EngineConfig::hima_dncd(16)).step_us();
    let steps = baselines::steps_per_test(dnc_us);
    let dnc_test_us = dnc_us * steps; // = 11.8 by construction
    let dncd_test_us = dncd_us * steps;
    assert!((dnc_test_us - 11.8).abs() < 1e-6);
    assert!(dncd_test_us < dnc_test_us);
    assert!(baselines::FARM.inference_us > dnc_test_us, "HiMA-DNC must beat Farm");
    const { assert!(baselines::GPU.inference_us > baselines::FARM.inference_us) };
    const { assert!(baselines::CPU.inference_us > baselines::GPU.inference_us) };
    // Headline: hundreds of times faster than the GPU.
    let speedup_dnc = baselines::GPU.inference_us / dnc_test_us;
    let speedup_dncd = baselines::GPU.inference_us / dncd_test_us;
    assert!(speedup_dnc > 100.0, "HiMA-DNC {speedup_dnc:.0}x over GPU");
    assert!(speedup_dncd > speedup_dnc, "DNC-D must extend the GPU speedup");
}
