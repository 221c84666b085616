//! Experiment reporting helpers: ablation sweeps and scalability series.

use crate::config::{EngineConfig, FeatureLevel};
use crate::engine::{Engine, StepReport};

/// One rung of the Fig. 11(a) ablation ladder with its measured speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Feature level.
    pub level: FeatureLevel,
    /// Cycles per DNC step.
    pub cycles: u64,
    /// Speedup over the baseline level.
    pub speedup: f64,
}

/// Runs the full Fig. 11(a) ablation at `tiles` PTs.
pub fn ablation_sweep(tiles: usize) -> Vec<AblationRow> {
    let base = Engine::new(EngineConfig::at_level(FeatureLevel::Baseline, tiles)).step_cycles();
    FeatureLevel::ALL
        .iter()
        .map(|&level| {
            let cycles = Engine::new(EngineConfig::at_level(level, tiles)).step_cycles();
            AblationRow { level, cycles, speedup: base as f64 / cycles as f64 }
        })
        .collect()
}

/// One point of a Fig. 5(d)-style scalability series.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Processing-tile count.
    pub tiles: usize,
    /// Cycles per step.
    pub cycles: u64,
    /// Speedup normalized to the 1-tile configuration of the same design.
    pub speedup: f64,
}

/// Sweeps tile counts for a configuration template, normalizing speedup to
/// the single-tile run. The closure receives the tile count and returns the
/// configuration to evaluate.
pub fn scalability_sweep(
    tile_counts: &[usize],
    mut config_for: impl FnMut(usize) -> EngineConfig,
) -> Vec<ScalePoint> {
    let base = Engine::new(config_for(1)).step_cycles();
    tile_counts
        .iter()
        .map(|&tiles| {
            let cycles = Engine::new(config_for(tiles)).step_cycles();
            ScalePoint { tiles, cycles, speedup: base as f64 / cycles as f64 }
        })
        .collect()
}

/// Formats a [`StepReport`] category breakdown as percentage rows (the
/// Fig. 4 / Fig. 11(b) pie-chart data).
pub fn breakdown_rows(report: &StepReport) -> Vec<(String, f64)> {
    report
        .category_shares()
        .into_iter()
        .map(|(cat, share)| (cat.label().to_string(), share * 100.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_baseline_row_is_one() {
        let rows = ablation_sweep(16);
        assert_eq!(rows.len(), 6);
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        for w in rows.windows(2) {
            assert!(w[1].speedup >= w[0].speedup, "{:?}", w);
        }
    }

    #[test]
    fn scalability_normalizes_to_one_tile() {
        let pts = scalability_sweep(&[1, 4, 16], EngineConfig::hima_dncd);
        assert!((pts[0].speedup - 1.0).abs() < 1e-12);
        assert!(pts[2].speedup > pts[1].speedup);
    }

    #[test]
    fn breakdown_rows_sum_to_100() {
        let report = Engine::new(EngineConfig::hima_dnc(16)).step_report();
        let total: f64 = breakdown_rows(&report).iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-6);
    }
}
