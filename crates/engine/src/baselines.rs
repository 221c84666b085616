//! Platform baselines for the cross-design comparison (Fig. 12(b)–(d)).
//!
//! Farm, MANNA, the Nvidia 3080Ti and the i7-9700K are closed systems, so
//! their absolute numbers are encoded from the paper's own measurements
//! (§7.4 and Fig. 4) as documented calibration constants; the HiMA rows of
//! the comparison come from our cycle model. This mirrors how the paper
//! itself compares: against *published* numbers of the other designs.

/// One comparison platform with its published characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    /// Display name.
    pub name: &'static str,
    /// Inference time per bAbI test in microseconds.
    pub inference_us: f64,
    /// Silicon area in mm² (`None` for general-purpose platforms, which
    /// the paper excludes from area/power comparisons).
    pub area_mm2: Option<f64>,
    /// Power in watts (`None` for general-purpose platforms).
    pub power_w: Option<f64>,
    /// Process node in nm (for area normalization).
    pub process_nm: Option<f64>,
    /// Largest supported external memory rows `N`.
    pub max_memory_rows: usize,
    /// Whether the platform can run full DNC (vs NTM only).
    pub supports_dnc: bool,
}

/// Nvidia 3080Ti running DNC on bAbI: 5.16 ms/test (§3.2).
pub const GPU: Platform = Platform {
    name: "GPU (3080Ti)",
    inference_us: 5160.0,
    area_mm2: None,
    power_w: None,
    process_nm: None,
    max_memory_rows: 1024,
    supports_dnc: true,
};

/// Intel i7-9700K: 10.94 ms/test, 2.12× slower than the GPU (§3.2).
pub const CPU: Platform = Platform {
    name: "CPU (i7-9700K)",
    inference_us: 10940.0,
    area_mm2: None,
    power_w: None,
    process_nm: None,
    max_memory_rows: 1024,
    supports_dnc: true,
};

/// Farm (Challapalle et al. 2020): 68.5× faster than the GPU, small
/// centralized memory (N ≤ 256), mixed-signal. Area/power are the paper's
/// normalization reference (1×).
pub const FARM: Platform = Platform {
    name: "Farm",
    inference_us: 5160.0 / 68.5,
    area_mm2: Some(1.0),
    power_w: Some(1.0),
    process_nm: Some(40.0),
    max_memory_rows: 256,
    supports_dnc: true,
};

/// MANNA (Stevens et al. 2019): similar speed to Farm, 11× Farm's area and
/// 32× its power for 20× larger memory, 15 nm, NTM only (§7.4).
pub const MANNA: Platform = Platform {
    name: "MANNA",
    inference_us: 5160.0 / 68.5,
    area_mm2: Some(11.0),
    power_w: Some(32.0),
    process_nm: Some(15.0),
    max_memory_rows: 5120,
    supports_dnc: false,
};

/// All fixed comparison platforms.
pub const PLATFORMS: [Platform; 4] = [GPU, CPU, FARM, MANNA];

impl Platform {
    /// Speedup of this platform over the GPU reference.
    pub fn speedup_vs_gpu(&self) -> f64 {
        GPU.inference_us / self.inference_us
    }

    /// Area normalized to Farm and scaled to a common process node
    /// (area scales ~quadratically with feature size).
    pub fn normalized_area(&self, target_nm: f64) -> Option<f64> {
        let area = self.area_mm2?;
        let nm = self.process_nm?;
        Some(area * (target_nm / nm).powi(2))
    }
}

/// Steps (tokens) per bAbI test, calibrated once so that HiMA-DNC's modeled
/// per-test time anchors to the paper's 11.8 µs (§7.2). All *ratios* in the
/// comparison then come from the cycle model.
pub fn steps_per_test(hima_dnc_step_us: f64) -> f64 {
    11.8 / hima_dnc_step_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_cpu_ratio_matches_paper() {
        // 2.12x faster GPU (§3.2).
        let ratio = CPU.inference_us / GPU.inference_us;
        assert!((ratio - 2.12).abs() < 0.01);
    }

    #[test]
    fn farm_speedup_matches_paper() {
        assert!((FARM.speedup_vs_gpu() - 68.5).abs() < 1e-9);
    }

    #[test]
    fn manna_cannot_run_dnc() {
        // Compile-time facts about the baseline table; const blocks keep
        // clippy happy about constant assertions.
        const { assert!(!MANNA.supports_dnc) };
        const { assert!(FARM.supports_dnc) };
    }

    #[test]
    fn area_normalization_penalizes_smaller_nodes() {
        // MANNA at 15 nm normalized to 40 nm grows by (40/15)^2 ≈ 7.1x.
        let norm = MANNA.normalized_area(40.0).unwrap();
        assert!((norm / 11.0 - (40.0f64 / 15.0).powi(2)).abs() < 1e-9);
        assert_eq!(GPU.normalized_area(40.0), None);
    }

    #[test]
    fn steps_per_test_anchors_correctly() {
        let t = steps_per_test(2.0);
        assert!((t - 5.9).abs() < 1e-9);
    }
}
