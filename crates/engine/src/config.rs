//! Engine configuration: geometry, feature flags and datapath constants.

use hima_dnc::allocation::SkimRate;
use hima_noc::topology::Topology;

/// The ablation ladder of Fig. 11(a), from the H-tree baseline to the fully
/// optimized DNC-D with approximations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureLevel {
    /// H-tree NoC, centralized sort, row-wise partitions.
    Baseline,
    /// Baseline + local-global two-stage usage sort.
    TwoStageSort,
    /// Two-stage sort + multi-mode HiMA-NoC.
    HimaNoc,
    /// HiMA-NoC + submatrix-wise linkage partition (the full HiMA-DNC).
    Submatrix,
    /// Distributed DNC-D model (no inter-PT traffic, no global sort).
    DncD,
    /// DNC-D + 20% usage skimming + softmax approximation.
    DncDApprox,
}

impl FeatureLevel {
    /// All levels in ablation order.
    pub const ALL: [FeatureLevel; 6] = [
        FeatureLevel::Baseline,
        FeatureLevel::TwoStageSort,
        FeatureLevel::HimaNoc,
        FeatureLevel::Submatrix,
        FeatureLevel::DncD,
        FeatureLevel::DncDApprox,
    ];

    /// Label matching the paper's Fig. 11(a) y-axis.
    pub fn label(self) -> &'static str {
        match self {
            FeatureLevel::Baseline => "HiMA-baseline",
            FeatureLevel::TwoStageSort => "2-stage sort",
            FeatureLevel::HimaNoc => "HiMA-NoC",
            FeatureLevel::Submatrix => "Submat",
            FeatureLevel::DncD => "DNC-D Nt=16",
            FeatureLevel::DncDApprox => "K=20%",
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Memory slots `N`.
    pub memory_size: usize,
    /// Word width `W`.
    pub word_size: usize,
    /// Read heads `R`.
    pub read_heads: usize,
    /// Processing tiles `N_t`.
    pub tiles: usize,
    /// LSTM controller hidden width (the CT's NN).
    pub hidden_size: usize,
    /// NoC fabric.
    pub topology: Topology,
    /// Two-stage usage sort (vs centralized merge sort at the CT).
    pub two_stage_sort: bool,
    /// Submatrix-wise linkage partition (vs row-wise).
    pub submatrix_linkage: bool,
    /// Distributed DNC-D execution.
    pub dncd: bool,
    /// Usage skimming rate.
    pub skim: SkimRate,
    /// PLA+LUT softmax approximation.
    pub approx_softmax: bool,
    /// M-M engine width: MACs per cycle per PT.
    pub pe_parallelism: usize,
    /// CT LSTM engine width: MACs per cycle.
    pub lstm_parallelism: usize,
    /// Elements per cycle of the CT's centralized merge sorter.
    pub sorter_parallelism: usize,
    /// Special-function units per tile (iterative exp/sqrt evaluators).
    pub sfu_parallelism: usize,
    /// Exponential-function cost in cycles per element on an SFU. With the
    /// PLA+LUT approximation the exponential becomes one multiply + one
    /// add and runs on the PE array instead.
    pub exp_cycles: u64,
    /// Clock frequency in GHz (the paper synthesizes at 500 MHz).
    pub clock_ghz: f64,
}

impl EngineConfig {
    /// The paper's prototype geometry: `N × W = 1024 × 64`, `R = 4`,
    /// 256-wide LSTM, 500 MHz.
    fn paper_geometry(tiles: usize) -> Self {
        Self {
            memory_size: 1024,
            word_size: 64,
            read_heads: 4,
            tiles,
            hidden_size: 256,
            topology: Topology::HTree,
            two_stage_sort: false,
            submatrix_linkage: false,
            dncd: false,
            skim: SkimRate::NONE,
            approx_softmax: false,
            pe_parallelism: 512,
            lstm_parallelism: 4096,
            // 4-wide hardware merge sorter at the CT (the 1-element/cycle
            // N·log N figure of §4.3 is the sort-subsystem microbenchmark,
            // reproduced in `hima-sort`).
            sorter_parallelism: 4,
            sfu_parallelism: 8,
            exp_cycles: 4,
            clock_ghz: 0.5,
        }
    }

    /// HiMA-baseline: H-tree NoC, centralized sort, row-wise partitions
    /// (the MANNA-like starting point of Fig. 11(a)).
    pub fn baseline(tiles: usize) -> Self {
        Self::paper_geometry(tiles)
    }

    /// The fully architecturally optimized HiMA-DNC: two-stage sort,
    /// HiMA-NoC, submatrix linkage partition.
    pub fn hima_dnc(tiles: usize) -> Self {
        Self::paper_geometry(tiles)
            .with_topology(Topology::Hima)
            .with_two_stage_sort(true)
            .with_submatrix_linkage(true)
    }

    /// HiMA-DNC-D: the distributed model (plus all architectural
    /// features).
    pub fn hima_dncd(tiles: usize) -> Self {
        Self::hima_dnc(tiles).with_dncd(true)
    }

    /// HiMA-DNC-D with the §5.2 approximations (`K = 20%` skimming,
    /// PLA+LUT softmax).
    pub fn hima_dncd_approx(tiles: usize) -> Self {
        Self::hima_dncd(tiles)
            .with_skim(SkimRate::new(0.2))
            .with_approx_softmax(true)
    }

    /// Configuration for a rung of the Fig. 11(a) ablation ladder.
    pub fn at_level(level: FeatureLevel, tiles: usize) -> Self {
        match level {
            FeatureLevel::Baseline => Self::baseline(tiles),
            FeatureLevel::TwoStageSort => Self::baseline(tiles).with_two_stage_sort(true),
            FeatureLevel::HimaNoc => Self::baseline(tiles)
                .with_two_stage_sort(true)
                .with_topology(Topology::Hima),
            FeatureLevel::Submatrix => Self::hima_dnc(tiles),
            FeatureLevel::DncD => Self::hima_dncd(tiles),
            FeatureLevel::DncDApprox => Self::hima_dncd_approx(tiles),
        }
    }

    /// Overrides the memory geometry.
    pub fn with_geometry(mut self, n: usize, w: usize, r: usize) -> Self {
        self.memory_size = n;
        self.word_size = w;
        self.read_heads = r;
        self
    }

    /// Overrides the NoC fabric.
    pub fn with_topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Enables/disables the two-stage sort.
    pub fn with_two_stage_sort(mut self, on: bool) -> Self {
        self.two_stage_sort = on;
        self
    }

    /// Enables/disables the submatrix linkage partition.
    pub(crate) fn with_submatrix_linkage(mut self, on: bool) -> Self {
        self.submatrix_linkage = on;
        self
    }

    /// Enables/disables DNC-D execution.
    pub(crate) fn with_dncd(mut self, on: bool) -> Self {
        self.dncd = on;
        self
    }

    /// Sets the usage skimming rate.
    pub fn with_skim(mut self, k: SkimRate) -> Self {
        self.skim = k;
        self
    }

    /// Enables the PLA+LUT softmax (the exponential then runs as one MAC
    /// on the PE array).
    pub fn with_approx_softmax(mut self, on: bool) -> Self {
        self.approx_softmax = on;
        self
    }

    /// Cycles to evaluate `count` exponentials: iterative SFUs when exact,
    /// one MAC per element on the PE array with the PLA+LUT approximation.
    pub(crate) fn exp_eval_cycles(&self, count: u64) -> u64 {
        if self.approx_softmax {
            count.div_ceil(self.pe_parallelism as u64)
        } else {
            (count * self.exp_cycles).div_ceil(self.sfu_parallelism as u64)
        }
    }

    /// Matrix-buffer load overhead charged to every kernel invocation: the
    /// PT's matrix buffer loader streams one row per cycle, `N/N_t` rows
    /// (Fig. 9's "Matrix Buffer Loader").
    pub(crate) fn kernel_overhead_cycles(&self) -> u64 {
        self.rows_per_tile() as u64
    }

    /// Rows per tile `n = ⌈N / N_t⌉`.
    pub(crate) fn rows_per_tile(&self) -> usize {
        self.memory_size.div_ceil(self.tiles)
    }

    /// LSTM input width: external input (word-sized) + `R·W` read vector.
    pub(crate) fn lstm_input(&self) -> usize {
        self.word_size + self.read_heads * self.word_size
    }

    /// Converts cycles to microseconds at the configured clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1000.0)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions or `tiles > memory_size`.
    pub fn validate(&self) {
        assert!(self.memory_size > 0, "memory_size must be positive");
        assert!(self.word_size > 0, "word_size must be positive");
        assert!(self.read_heads > 0, "read_heads must be positive");
        assert!(self.tiles > 0, "tiles must be positive");
        assert!(self.tiles <= self.memory_size, "more tiles than memory rows");
        assert!(self.pe_parallelism > 0, "pe_parallelism must be positive");
        assert!(self.clock_ghz > 0.0, "clock must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_encode_the_ablation_ladder() {
        let base = EngineConfig::baseline(16);
        assert_eq!(base.topology, Topology::HTree);
        assert!(!base.two_stage_sort && !base.submatrix_linkage && !base.dncd);

        let dnc = EngineConfig::hima_dnc(16);
        assert_eq!(dnc.topology, Topology::Hima);
        assert!(dnc.two_stage_sort && dnc.submatrix_linkage && !dnc.dncd);

        let dncd = EngineConfig::hima_dncd_approx(16);
        assert!(dncd.dncd && dncd.approx_softmax);
        assert!(dncd.skim.fraction() > 0.0);
        // PLA softmax: exponentials cost one MAC each on the PE array.
        assert!(dncd.exp_eval_cycles(512) <= 1);
    }

    #[test]
    fn at_level_is_monotone_in_features() {
        let levels: Vec<EngineConfig> =
            FeatureLevel::ALL.iter().map(|&l| EngineConfig::at_level(l, 16)).collect();
        assert!(!levels[0].two_stage_sort);
        assert!(levels[1].two_stage_sort);
        assert_eq!(levels[2].topology, Topology::Hima);
        assert!(levels[3].submatrix_linkage);
        assert!(levels[4].dncd);
        assert!(levels[5].approx_softmax);
    }

    #[test]
    fn paper_geometry_matches() {
        let c = EngineConfig::baseline(16);
        assert_eq!((c.memory_size, c.word_size, c.read_heads), (1024, 64, 4));
        assert_eq!(c.rows_per_tile(), 64);
        assert_eq!(c.clock_ghz, 0.5);
    }

    #[test]
    fn cycles_to_us_at_500mhz() {
        let c = EngineConfig::baseline(16);
        assert!((c.cycles_to_us(500) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "more tiles than memory rows")]
    fn validate_rejects_oversharding() {
        EngineConfig::baseline(16).with_geometry(8, 4, 1).validate();
    }
}
