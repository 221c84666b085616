//! Property-based tests for the architectural cycle model: monotonicity
//! and consistency across the configuration space.

use hima_engine::{Engine, EngineConfig, FeatureLevel, Topology};
use hima_testkit::cases::{check, Gen};

/// `2^lo ..= 2^hi` tiles, `2^hi` included.
fn pow2(g: &mut Gen, lo: u32, hi: u32) -> usize {
    1 << g.range(lo..=hi)
}

#[test]
fn cycles_increase_with_memory_size() {
    check("cycles_increase_with_memory_size", 24, |g| (pow2(g, 2, 5), g.range(8u32..11)), |(nt, log_n)| {
        let n = 1usize << log_n;
        let small = Engine::new(EngineConfig::hima_dnc(nt).with_geometry(n, 64, 4)).step_cycles();
        let large = Engine::new(EngineConfig::hima_dnc(nt).with_geometry(2 * n, 64, 4)).step_cycles();
        assert!(large > small, "N={} -> {}, 2N -> {}", n, small, large);
    });
}

#[test]
fn dncd_always_beats_dnc() {
    check("dncd_always_beats_dnc", 24, |g| pow2(g, 2, 6), |nt| {
        let dnc = Engine::new(EngineConfig::hima_dnc(nt)).step_cycles();
        let dncd = Engine::new(EngineConfig::hima_dncd(nt)).step_cycles();
        assert!(dncd < dnc, "N_t={}: DNC-D {} !< DNC {}", nt, dncd, dnc);
    });
}

#[test]
fn ablation_monotone_at_any_tile_count() {
    check("ablation_monotone_at_any_tile_count", 24, |g| pow2(g, 2, 5), |nt| {
        let mut prev = u64::MAX;
        for level in FeatureLevel::ALL {
            let c = Engine::new(EngineConfig::at_level(level, nt)).step_cycles();
            assert!(c <= prev, "N_t={}: {:?} regressed ({} > {})", nt, level, c, prev);
            prev = c;
        }
    });
}

#[test]
fn hima_noc_never_slower_than_htree() {
    check("hima_noc_never_slower_than_htree", 24, |g| pow2(g, 1, 6), |nt| {
        let htree = Engine::new(EngineConfig::hima_dnc(nt).with_topology(Topology::HTree));
        let hima = Engine::new(EngineConfig::hima_dnc(nt));
        assert!(
            hima.step_report().noc_cycles() <= htree.step_report().noc_cycles(),
            "N_t={}", nt
        );
    });
}

#[test]
fn wider_pe_arrays_never_slow_down() {
    check("wider_pe_arrays_never_slow_down", 24, |g| (pow2(g, 2, 5), g.range(7u32..11)), |(nt, log_pe)| {
        let mut narrow = EngineConfig::hima_dnc(nt);
        narrow.pe_parallelism = 1 << log_pe;
        let mut wide = narrow;
        wide.pe_parallelism = 1 << (log_pe + 1);
        assert!(Engine::new(wide).step_cycles() <= Engine::new(narrow).step_cycles());
    });
}

#[test]
fn more_read_heads_cost_more() {
    check("more_read_heads_cost_more", 24, |g| (pow2(g, 2, 4), g.range(1usize..6)), |(nt, r)| {
        let few = Engine::new(EngineConfig::hima_dnc(nt).with_geometry(1024, 64, r)).step_cycles();
        let more = Engine::new(EngineConfig::hima_dnc(nt).with_geometry(1024, 64, r + 1)).step_cycles();
        assert!(more > few, "R={} -> {}, R+1 -> {}", r, few, more);
    });
}

#[test]
fn activity_scales_with_geometry() {
    check("activity_scales_with_geometry", 24, |g| pow2(g, 2, 4), |nt| {
        let small = Engine::new(EngineConfig::hima_dnc(nt).with_geometry(512, 32, 2))
            .step_report()
            .activity;
        let large = Engine::new(EngineConfig::hima_dnc(nt).with_geometry(1024, 64, 4))
            .step_report()
            .activity;
        assert!(large.macs > small.macs);
        assert!(large.sram_words > small.sram_words);
    });
}
