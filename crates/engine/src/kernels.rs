//! Table 1 of the paper: the DNC kernel inventory with primitives, memory
//! access complexity and NoC traffic classes.
//!
//! This metadata drives the `table1_kernels` experiment binary and
//! documents the complexity classes the cycle model implements.

use hima_dnc::profile::KernelId;
use serde::{Deserialize, Serialize};

/// Whether a kernel is an access kernel (exists in NTM-class accelerators)
/// or one of DNC's new state kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelType {
    /// Performs the actual external-memory access (NTM also has these).
    Access,
    /// Maintains access-history state (new in DNC).
    State,
}

/// Asymptotic complexity class in the symbols of Table 1
/// (`N`, `W`, `R`, `N_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Complexity {
    /// No access / no traffic.
    None,
    /// `O(W)`.
    W,
    /// `O(N)`.
    N,
    /// `O(R·N)`.
    RN,
    /// `O(N·W)`.
    NW,
    /// `O(N²)`.
    N2,
    /// `O(N_t)`.
    Nt,
    /// `O(N_t·N)`.
    NtN,
    /// `O(N_t·N·W)`.
    NtNW,
    /// `O(N_t·N²)`.
    NtN2,
}

impl Complexity {
    /// Rendered in Table 1's notation.
    pub fn label(self) -> &'static str {
        match self {
            Complexity::None => "No",
            Complexity::W => "O(W)",
            Complexity::N => "O(N)",
            Complexity::RN => "O(RN)",
            Complexity::NW => "O(NW)",
            Complexity::N2 => "O(N^2)",
            Complexity::Nt => "O(Nt)",
            Complexity::NtN => "O(Nt N)",
            Complexity::NtNW => "O(Nt N W)",
            Complexity::NtN2 => "O(Nt N^2)",
        }
    }

    /// Evaluates the class for concrete parameters (used to sanity-check
    /// the cycle model's scaling).
    pub fn evaluate(self, n: usize, w: usize, r: usize, nt: usize) -> u64 {
        let (n, w, r, nt) = (n as u64, w as u64, r as u64, nt as u64);
        match self {
            Complexity::None => 0,
            Complexity::W => w,
            Complexity::N => n,
            Complexity::RN => r * n,
            Complexity::NW => n * w,
            Complexity::N2 => n * n,
            Complexity::Nt => nt,
            Complexity::NtN => nt * n,
            Complexity::NtNW => nt * n * w,
            Complexity::NtN2 => nt * n * n,
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelInfo {
    /// The kernel.
    pub kernel: KernelId,
    /// Access vs state kernel.
    pub kernel_type: KernelType,
    /// Key primitives, verbatim from Table 1.
    pub primitives: &'static str,
    /// External-memory access complexity.
    pub ext_mem_access: Complexity,
    /// State-memory access complexity.
    pub state_mem_access: Complexity,
    /// Total NoC traffic class on a tiled architecture.
    pub noc_traffic: Complexity,
}

/// Table 1, row by row (the LSTM is not part of the memory unit and is
/// omitted, as in the paper).
pub const KERNEL_TABLE: [KernelInfo; 13] = [
    KernelInfo {
        kernel: KernelId::Normalize,
        kernel_type: KernelType::Access,
        primitives: "inner-prod",
        ext_mem_access: Complexity::NW,
        state_mem_access: Complexity::W,
        noc_traffic: Complexity::NtN,
    },
    KernelInfo {
        kernel: KernelId::Similarity,
        kernel_type: KernelType::Access,
        primitives: "inner-prod",
        ext_mem_access: Complexity::NW,
        state_mem_access: Complexity::W,
        noc_traffic: Complexity::Nt,
    },
    KernelInfo {
        kernel: KernelId::MemoryWrite,
        kernel_type: KernelType::Access,
        primitives: "el-add/sub/mult, outer-prod",
        ext_mem_access: Complexity::NW,
        state_mem_access: Complexity::N,
        noc_traffic: Complexity::NtN,
    },
    KernelInfo {
        kernel: KernelId::MemoryRead,
        kernel_type: KernelType::Access,
        primitives: "transpose, mat-vec mult",
        ext_mem_access: Complexity::NW,
        state_mem_access: Complexity::N,
        noc_traffic: Complexity::NtNW,
    },
    KernelInfo {
        kernel: KernelId::Retention,
        kernel_type: KernelType::State,
        primitives: "el-mult, vec acc-prod",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::RN,
        noc_traffic: Complexity::None,
    },
    KernelInfo {
        kernel: KernelId::Usage,
        kernel_type: KernelType::State,
        primitives: "el-add/sub/mult",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::N,
        noc_traffic: Complexity::None,
    },
    KernelInfo {
        kernel: KernelId::UsageSort,
        kernel_type: KernelType::State,
        primitives: "sort",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::N,
        noc_traffic: Complexity::N,
    },
    KernelInfo {
        kernel: KernelId::Allocation,
        kernel_type: KernelType::State,
        primitives: "vec acc-prod",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::N,
        noc_traffic: Complexity::Nt,
    },
    KernelInfo {
        kernel: KernelId::WriteMerge,
        kernel_type: KernelType::State,
        primitives: "el-add/sub",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::N,
        noc_traffic: Complexity::None,
    },
    KernelInfo {
        kernel: KernelId::Linkage,
        kernel_type: KernelType::State,
        primitives: "mat expand, outer-prod, el-add/sub/mult",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::N2,
        noc_traffic: Complexity::NtN,
    },
    KernelInfo {
        kernel: KernelId::Precedence,
        kernel_type: KernelType::State,
        primitives: "el-add, vec acc-sum",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::N,
        noc_traffic: Complexity::Nt,
    },
    KernelInfo {
        kernel: KernelId::ForwardBackward,
        kernel_type: KernelType::State,
        primitives: "transpose, mat-vec mult",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::N2,
        noc_traffic: Complexity::NtN2,
    },
    KernelInfo {
        kernel: KernelId::ReadMerge,
        kernel_type: KernelType::State,
        primitives: "el-add",
        ext_mem_access: Complexity::None,
        state_mem_access: Complexity::RN,
        noc_traffic: Complexity::None,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use hima_dnc::profile::KernelCategory;

    #[test]
    fn table_covers_all_memory_unit_kernels() {
        for k in KernelId::ALL {
            let listed = KERNEL_TABLE.iter().any(|info| info.kernel == k);
            if k.category() == KernelCategory::Controller {
                assert!(!listed, "{k:?} is not a memory-unit kernel");
            } else {
                assert!(listed, "{k:?} missing from Table 1");
            }
        }
        assert_eq!(KERNEL_TABLE.len(), 13);
    }

    #[test]
    fn state_kernels_touch_no_external_memory() {
        for info in &KERNEL_TABLE {
            if info.kernel_type == KernelType::State {
                assert_eq!(info.ext_mem_access, Complexity::None, "{:?}", info.kernel);
            } else {
                assert_eq!(info.ext_mem_access, Complexity::NW, "{:?}", info.kernel);
            }
        }
    }

    #[test]
    fn state_kernels_are_history_categories() {
        for info in &KERNEL_TABLE {
            if info.kernel_type == KernelType::State {
                let cat = info.kernel.category();
                assert!(
                    cat == KernelCategory::HistoryWriteWeighting
                        || cat == KernelCategory::HistoryReadWeighting,
                    "{:?} is {:?}",
                    info.kernel,
                    cat
                );
            }
        }
    }

    #[test]
    fn forward_backward_has_the_worst_traffic() {
        let fb = KERNEL_TABLE.iter().find(|k| k.kernel == KernelId::ForwardBackward).unwrap();
        let (n, w, r, nt) = (1024, 64, 4, 16);
        let fb_traffic = fb.noc_traffic.evaluate(n, w, r, nt);
        for info in &KERNEL_TABLE {
            assert!(
                info.noc_traffic.evaluate(n, w, r, nt) <= fb_traffic,
                "{:?} exceeds forward-backward",
                info.kernel
            );
        }
    }

    #[test]
    fn complexity_evaluation() {
        assert_eq!(Complexity::NtN2.evaluate(4, 2, 1, 3), 3 * 16);
        assert_eq!(Complexity::None.evaluate(100, 100, 100, 100), 0);
        assert_eq!(Complexity::RN.evaluate(8, 1, 2, 1), 16);
    }

    #[test]
    fn labels_render_table_notation() {
        assert_eq!(Complexity::NtN2.label(), "O(Nt N^2)");
        assert_eq!(Complexity::None.label(), "No");
    }
}
