//! The cycle model: one DNC time step mapped onto CT + PTs + NoC.
//!
//! Every kernel contributes *compute cycles* (work divided over the PTs'
//! M-M engines, or run serially on the CT where the dataflow demands it)
//! and *NoC cycles* (traffic simulated on the `hima-noc` contention model).
//! The DNC dataflow is a dependency chain (Fig. 2), so a step's total is
//! the sum over kernels. Three traffic shapes are used, following §4.1:
//!
//! * **multicast** — identical data from the CT to all PTs (interface
//!   vectors): `flits + worst-case hops` (links carry each flit once),
//! * **gather / scatter / exchange** — distinct data between tiles (sorted
//!   runs, read vectors, state-memory segments): full contention
//!   simulation,
//! * **chain** — PT→PT accumulation of partial sums (Fig. 6(b)); flits
//!   stream through each link in sequence with per-hop forwarding latency.

use crate::config::EngineConfig;
use hima_dnc::profile::{KernelCategory, KernelId};
use hima_mem::optimizer::best_linkage_partition;
use hima_mem::Partition;
use hima_noc::routing::Mode;
use hima_noc::sim::NocSim;
use hima_noc::topology::{NodeId, Topology, TopologyGraph};
use hima_noc::traffic::{snake_order, Message};
use hima_sort::{MdsaSorter, ParallelMergeSorter, SortEngine};
use serde::{Deserialize, Serialize};

/// Hardware activity accumulated over one step — the input to the
/// `hima-cost` power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityCounters {
    /// Multiply-accumulate operations on the M-M engines.
    pub macs: u64,
    /// Word accesses to tile SRAMs (external + state memories).
    pub sram_words: u64,
    /// Flit-hops moved across the NoC.
    pub noc_flit_hops: u64,
    /// Compare-exchange operations in the sorters.
    pub sort_ops: u64,
    /// Special-function evaluations (exp, sqrt, reciprocal).
    pub sfu_ops: u64,
}

impl ActivityCounters {
    fn add(&mut self, other: ActivityCounters) {
        self.macs += other.macs;
        self.sram_words += other.sram_words;
        self.noc_flit_hops += other.noc_flit_hops;
        self.sort_ops += other.sort_ops;
        self.sfu_ops += other.sfu_ops;
    }
}

/// Cycle cost of one kernel in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Which kernel.
    pub kernel: KernelId,
    /// Compute cycles (PT M-M engines or CT serial units).
    pub compute_cycles: u64,
    /// NoC cycles (traffic latency attributed to this kernel).
    pub noc_cycles: u64,
    /// Hardware activity attributed to this kernel (drives the power
    /// model's kernel breakdown).
    pub activity: ActivityCounters,
}

impl KernelCost {
    /// Total cycles of this kernel.
    pub fn total(&self) -> u64 {
        self.compute_cycles + self.noc_cycles
    }
}

/// Per-step cycle report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    /// Per-kernel costs in dataflow order.
    pub costs: Vec<KernelCost>,
    /// Activity counters for the power model.
    pub activity: ActivityCounters,
}

impl StepReport {
    /// Total cycles of one DNC step.
    pub fn total_cycles(&self) -> u64 {
        self.costs.iter().map(KernelCost::total).sum()
    }

    /// Cycles attributed to one reporting category.
    pub fn category_cycles(&self, cat: KernelCategory) -> u64 {
        self.costs
            .iter()
            .filter(|c| c.kernel.category() == cat)
            .map(KernelCost::total)
            .sum()
    }

    /// `(category, share)` rows in the paper's reporting order.
    pub fn category_shares(&self) -> Vec<(KernelCategory, f64)> {
        let total = self.total_cycles() as f64;
        KernelCategory::ALL
            .iter()
            .map(|&c| {
                let share =
                    if total > 0.0 { self.category_cycles(c) as f64 / total } else { 0.0 };
                (c, share)
            })
            .collect()
    }

    /// Total NoC cycles across kernels.
    pub fn noc_cycles(&self) -> u64 {
        self.costs.iter().map(|c| c.noc_cycles).sum()
    }

    /// Cost entry for `kernel`.
    pub fn cost_of(&self, kernel: KernelId) -> Option<&KernelCost> {
        self.costs.iter().find(|c| c.kernel == kernel)
    }
}

/// The HiMA architectural cycle model.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: EngineConfig,
    sim: NocSim,
    linkage: Partition,
    /// PT tiles ordered for accumulation chains (snake order on grids).
    chain_order: Vec<NodeId>,
}

impl Engine {
    /// Builds an engine (and its NoC) from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`EngineConfig::validate`]).
    pub fn new(cfg: EngineConfig) -> Self {
        cfg.validate();
        let graph = TopologyGraph::build(cfg.topology, cfg.tiles);
        let linkage = if cfg.submatrix_linkage {
            best_linkage_partition(cfg.tiles)
        } else {
            Partition::row_wise(cfg.tiles)
        };
        let chain_order = snake_order(&graph);
        Self { cfg, sim: NocSim::new(graph), linkage, chain_order }
    }

    /// The linkage-memory partition in use.
    pub fn linkage_partition(&self) -> Partition {
        self.linkage
    }

    /// Total cycles of one DNC time step.
    pub fn step_cycles(&self) -> u64 {
        self.step_report().total_cycles()
    }

    /// Microseconds per step at the configured clock.
    pub fn step_us(&self) -> f64 {
        self.cfg.cycles_to_us(self.step_cycles())
    }

    /// Full per-kernel report for one DNC time step.
    pub fn step_report(&self) -> StepReport {
        let mut costs = Vec::new();
        let mut activity = ActivityCounters::default();
        let cfg = &self.cfg;
        let (n_total, w, r) = (cfg.memory_size as u64, cfg.word_size as u64, cfg.read_heads as u64);
        let nt = cfg.tiles as u64;
        let n = cfg.rows_per_tile() as u64;
        let p = cfg.pe_parallelism as u64;
        let kept_total = cfg.skim.kept(cfg.memory_size) as u64;
        let kept_local = cfg.skim.kept(cfg.rows_per_tile()) as u64;

        // Every kernel invocation pays the matrix-buffer load overhead
        // (Fig. 9's Matrix Buffer Loader streams one row per cycle).
        let overhead = cfg.kernel_overhead_cycles();
        let mut push = |k: KernelId, compute: u64, noc: u64, act: ActivityCounters| {
            costs.push(KernelCost {
                kernel: k,
                compute_cycles: compute + overhead,
                noc_cycles: noc,
                activity: act,
            });
            activity.add(act);
        };

        // ------------------------------------------------------------------
        // LSTM on the CT + interface-vector distribution.
        let h = cfg.hidden_size as u64;
        let lstm_macs = 4 * h * (cfg.lstm_input() as u64 + h);
        let lstm_compute = div_up(lstm_macs, cfg.lstm_parallelism as u64);
        let iface_flits = w * (r + 3) + 5 * r + 3;
        let iface_noc = self.multicast(iface_flits);
        push(
            KernelId::Lstm,
            lstm_compute,
            iface_noc.0,
            ActivityCounters {
                macs: lstm_macs,
                sram_words: lstm_macs / 2,
                noc_flit_hops: iface_noc.1,
                ..Default::default()
            },
        );

        // ------------------------------------------------------------------
        // Content-based weighting: normalize + similarity for the write key
        // and R read keys. Norms need one sqrt per row; similarity needs a
        // softmax (exp per row + global denominator reduction for DNC).
        let keys = r + 1;
        let norm_compute = div_up(n_total * w, nt * p) + cfg.exp_eval_cycles(n);
        push(
            KernelId::Normalize,
            norm_compute,
            0,
            ActivityCounters {
                macs: n_total * w,
                sram_words: n_total * w,
                sfu_ops: n_total,
                ..Default::default()
            },
        );

        let sim_compute_per_key = div_up(n_total * w, nt * p) + cfg.exp_eval_cycles(n);
        let sim_noc_per_key = if cfg.dncd {
            (0, 0) // local softmax per shard
        } else {
            let chain = self.chain_to_ct(1);
            let mc = self.multicast(1);
            (chain.0 + mc.0, chain.1 + mc.1)
        };
        push(
            KernelId::Similarity,
            keys * sim_compute_per_key,
            keys * sim_noc_per_key.0,
            ActivityCounters {
                macs: keys * n_total * w,
                sram_words: keys * n_total * w,
                sfu_ops: keys * n_total,
                noc_flit_hops: keys * sim_noc_per_key.1,
                ..Default::default()
            },
        );

        // ------------------------------------------------------------------
        // History-based write weighting.
        push(
            KernelId::Retention,
            div_up(r * n, p),
            0,
            ActivityCounters { macs: r * n_total, sram_words: r * n_total, ..Default::default() },
        );
        push(
            KernelId::Usage,
            div_up(3 * n, p),
            0,
            ActivityCounters { macs: 3 * n_total, sram_words: 2 * n_total, ..Default::default() },
        );

        let (sort_compute, sort_noc, sort_flit_hops) = self.usage_sort_cost(kept_total, kept_local);
        push(
            KernelId::UsageSort,
            sort_compute,
            sort_noc,
            ActivityCounters {
                sort_ops: kept_total * log2_ceil(kept_total.max(2)),
                sram_words: 2 * kept_total,
                noc_flit_hops: sort_flit_hops,
                ..Default::default()
            },
        );

        // Allocation: the accumulated product follows the global (DNC) or
        // local (DNC-D) sorted order; the global version runs on the CT and
        // scatters each PT's slice back.
        let (alloc_compute, alloc_noc) = if cfg.dncd {
            (kept_local, (0, 0))
        } else {
            let scatter = self.scatter_from_ct(n);
            (kept_total, scatter)
        };
        push(
            KernelId::Allocation,
            alloc_compute,
            alloc_noc.0,
            ActivityCounters {
                macs: kept_total,
                sram_words: 2 * kept_total,
                noc_flit_hops: alloc_noc.1,
                ..Default::default()
            },
        );

        push(
            KernelId::WriteMerge,
            div_up(3 * n, p),
            0,
            ActivityCounters { macs: 3 * n_total, sram_words: 2 * n_total, ..Default::default() },
        );

        // ------------------------------------------------------------------
        // Memory write: erase + add, fully local under the row-wise
        // external partition (write/erase vectors arrive with the interface
        // multicast).
        push(
            KernelId::MemoryWrite,
            div_up(3 * n * w, p),
            0,
            ActivityCounters { macs: 3 * n_total * w, sram_words: 2 * n_total * w, ..Default::default() },
        );

        // ------------------------------------------------------------------
        // History-based read weighting. The linkage matrix is partitioned
        // `h × w` (submatrix) or row-wise; DNC-D keeps a local
        // (N/N_t)² linkage per shard with no traffic.
        let (lh, lw) = (self.linkage.rows() as u64, self.linkage.cols() as u64);
        if cfg.dncd {
            push(
                KernelId::Linkage,
                div_up(3 * n * n, p),
                0,
                ActivityCounters {
                    macs: 3 * n * n * nt,
                    sram_words: 2 * n * n * nt,
                    ..Default::default()
                },
            );
        } else {
            // Each tile gathers the w_w segments of its block row and the
            // precedence segments of its block column.
            let mut msgs = Vec::new();
            for bi in 0..lh {
                for bj in 0..lw {
                    let tile = (bi * lw + bj) as usize;
                    for peer in 0..lw {
                        if peer != bj {
                            msgs.push((((bi * lw + peer) as usize), tile, n));
                        }
                    }
                    for peer in 0..lh {
                        if peer != bi {
                            msgs.push((((peer * lw + bj) as usize), tile, n));
                        }
                    }
                }
            }
            let (noc, hops) = self.exchange(&msgs);
            push(
                KernelId::Linkage,
                div_up(3 * n_total * n_total, nt * p),
                noc,
                ActivityCounters {
                    macs: 3 * n_total * n_total,
                    sram_words: 2 * n_total * n_total,
                    noc_flit_hops: hops,
                    ..Default::default()
                },
            );
        }

        let prec_noc = if cfg.dncd { (0, 0) } else {
            let chain = self.chain_to_ct(1);
            let mc = self.multicast(1);
            (chain.0 + mc.0, chain.1 + mc.1)
        };
        push(
            KernelId::Precedence,
            div_up(2 * n, p),
            prec_noc.0,
            ActivityCounters {
                macs: 2 * n_total,
                sram_words: 2 * n_total,
                noc_flit_hops: prec_noc.1,
                ..Default::default()
            },
        );

        // Forward/backward: f = L w_r, b = Lᵀ w_r per head.
        if cfg.dncd {
            push(
                KernelId::ForwardBackward,
                div_up(2 * r * n * n, p),
                0,
                ActivityCounters {
                    macs: 2 * r * n * n * nt,
                    sram_words: 2 * r * n * n * nt,
                    ..Default::default()
                },
            );
        } else {
            // Input gathers (all heads batched: R·n flits per segment):
            // forward needs w_r block-column segments, backward block-row
            // segments.
            let mut msgs = Vec::new();
            for bi in 0..lh {
                for bj in 0..lw {
                    let tile = (bi * lw + bj) as usize;
                    for peer in 0..lh {
                        if peer != bi {
                            msgs.push(((peer * lw + bj) as usize, tile, r * n));
                        }
                    }
                    for peer in 0..lw {
                        if peer != bj {
                            msgs.push(((bi * lw + peer) as usize, tile, r * n));
                        }
                    }
                }
            }
            let (gather_noc, gather_hops) = self.exchange(&msgs);
            // Psum chains per head: forward along block rows ((w−1) links of
            // N/h flits), backward along block columns ((h−1) links of N/w
            // flits). Parallel chains are link-disjoint; heads serialize.
            let fwd_chain = self.chain_cost(lw as usize, n_total / lh);
            let bwd_chain = self.chain_cost(lh as usize, n_total / lw);
            let noc = gather_noc + r * (fwd_chain.0 + bwd_chain.0);
            let hops = gather_hops + r * (fwd_chain.1 + bwd_chain.1) * lh.max(lw);
            push(
                KernelId::ForwardBackward,
                div_up(2 * r * n_total * n_total, nt * p),
                noc,
                ActivityCounters {
                    macs: 2 * r * n_total * n_total,
                    sram_words: 2 * r * n_total * n_total,
                    noc_flit_hops: hops,
                    ..Default::default()
                },
            );
        }

        push(
            KernelId::ReadMerge,
            div_up(3 * r * n, p),
            0,
            ActivityCounters { macs: 3 * r * n_total, sram_words: 2 * r * n_total, ..Default::default() },
        );

        // ------------------------------------------------------------------
        // Memory read: v_r = Mᵀ w_r per head. Row-wise external partition →
        // W-flit psum chains (Eq. 2's first regime), then the read vectors
        // collect at the CT (weighted-merged there for DNC-D).
        let read_compute = div_up(r * n * w, p);
        let (read_noc, read_hops) = if cfg.dncd {
            // The DNC-D merge v_r = Σ α_i v_r,i is a weighted sum — a
            // combinable reduction that accumulates toward the CT (each
            // link carries one R·W partial), so its latency is constant in
            // the tile count.
            self.reduce_to_ct(r * w)
        } else {
            let chain = self.chain_to_ct(w);
            (r * chain.0, r * chain.1)
        };
        let merge_compute = if cfg.dncd { div_up(nt * r * w, cfg.lstm_parallelism as u64) } else { 0 };
        push(
            KernelId::MemoryRead,
            read_compute + merge_compute,
            read_noc,
            ActivityCounters {
                macs: r * n_total * w + if cfg.dncd { nt * r * w } else { 0 },
                sram_words: r * n_total * w,
                noc_flit_hops: read_hops,
                ..Default::default()
            },
        );

        StepReport { costs, activity }
    }

    // ----------------------------------------------------------------------
    // Traffic helpers. Each returns (cycles, flit_hops).

    /// Identical data CT → all PTs: links carry each flit once, so the cost
    /// is serialization + the farthest PT's hop count.
    fn multicast(&self, flits: u64) -> (u64, u64) {
        let mode = self.mode_for(Mode::Star);
        let table = self.sim.table(mode);
        let ct = self.sim.graph().ct();
        let max_hops = self
            .sim
            .graph()
            .pts()
            .iter()
            .map(|&pt| table.hops(ct, pt).expect("CT reaches every PT") as u64)
            .max()
            .unwrap_or(0);
        let total_hops: u64 = self
            .sim
            .graph()
            .pts()
            .iter()
            .map(|&pt| table.hops(ct, pt).unwrap() as u64)
            .sum();
        (flits + max_hops, flits * total_hops.min(flits * self.cfg.tiles as u64))
    }

    /// Combinable partial results reduced toward the CT: every link of the
    /// inward tree carries one `flits`-sized partial, so the latency is
    /// serialization plus the deepest PT's hop count.
    fn reduce_to_ct(&self, flits: u64) -> (u64, u64) {
        // Same cost structure as an outward multicast.
        self.multicast(flits)
    }

    /// Distinct data from every listed tile to the CT (contention
    /// simulated). `dst = usize::MAX` in the message triple means the CT.
    fn gather_to_ct(&self, msgs: &[(usize, usize, u64)]) -> (u64, u64) {
        let mode = self.mode_for(Mode::Star);
        let messages: Vec<Message> = msgs
            .iter()
            .map(|&(src, _, flits)| Message::new(self.tile(src), self.sim.graph().ct(), flits))
            .collect();
        let rep = self.sim.run(mode, &messages);
        (rep.completion_cycles, rep.total_flit_hops)
    }

    /// Distinct data CT → every PT (the mirror of a gather).
    fn scatter_from_ct(&self, flits: u64) -> (u64, u64) {
        let mode = self.mode_for(Mode::Star);
        let messages: Vec<Message> = (0..self.cfg.tiles)
            .map(|t| Message::new(self.sim.graph().ct(), self.tile(t), flits))
            .collect();
        let rep = self.sim.run(mode, &messages);
        (rep.completion_cycles, rep.total_flit_hops)
    }

    /// PT ↔ PT exchange of state-memory segments. A tile's segment goes to
    /// many peers, and the routers support multicast (each link carries a
    /// segment once), so the exchange is modeled as one injection per
    /// source routed to its farthest destination, with contention
    /// simulated. This matches tree all-gathers (the root link carries each
    /// segment exactly once) without crediting unicast fabrics.
    fn exchange(&self, msgs: &[(usize, usize, u64)]) -> (u64, u64) {
        if msgs.is_empty() {
            return (0, 0);
        }
        let mode = self.mode_for(Mode::Full);
        let table = self.sim.table(mode);
        // Group destinations per (source, payload) multicast.
        let mut groups: std::collections::BTreeMap<(usize, u64), Vec<usize>> =
            std::collections::BTreeMap::new();
        for &(src, dst, flits) in msgs {
            groups.entry((src, flits)).or_default().push(dst);
        }
        let messages: Vec<Message> = groups
            .into_iter()
            .map(|((src, flits), dsts)| {
                let src_node = self.tile(src);
                let far = dsts
                    .into_iter()
                    .map(|d| self.tile(d))
                    .max_by_key(|&d| table.hops(src_node, d).unwrap_or(0))
                    .expect("at least one destination");
                Message::new(src_node, far, flits)
            })
            .collect();
        let rep = self.sim.run(mode, &messages);
        (rep.completion_cycles, rep.total_flit_hops)
    }

    /// Hop count between two tiles in ring mode, falling back to full-mode
    /// routing when the snake is broken (partially filled grids leave gaps
    /// in the ring; the multi-mode router then opens its other ports).
    fn ring_hops(&self, a: NodeId, b: NodeId) -> u64 {
        let ring = self.sim.table(self.mode_for(Mode::Ring));
        ring.hops(a, b)
            .or_else(|| self.sim.table(Mode::Full).hops(a, b))
            .expect("full mode connects all tiles") as u64
    }

    /// Accumulation chain across `links` consecutive tiles carrying `flits`
    /// each: flits stream link by link with per-hop forwarding latency
    /// (flit-pipelined, so cost = flits + hop latencies).
    fn chain_cost(&self, tiles_in_chain: usize, flits: u64) -> (u64, u64) {
        if tiles_in_chain <= 1 || flits == 0 {
            return (0, 0);
        }
        let links = tiles_in_chain - 1;
        let mut hop_sum = 0u64;
        for i in 0..links {
            let a = self.chain_order[i % self.chain_order.len()];
            let b = self.chain_order[(i + 1) % self.chain_order.len()];
            hop_sum += self.ring_hops(a, b);
        }
        (flits + 2 * hop_sum, flits * hop_sum)
    }

    /// Accumulation chain across *all* PTs ending at the CT (global
    /// reductions: softmax denominators, read-vector psums).
    fn chain_to_ct(&self, flits: u64) -> (u64, u64) {
        if flits == 0 {
            return (0, 0);
        }
        let mut hop_sum = 0u64;
        for w in self.chain_order.windows(2) {
            hop_sum += self.ring_hops(w[0], w[1]);
        }
        let last = *self.chain_order.last().expect("at least one PT");
        hop_sum += self.ring_hops(last, self.sim.graph().ct());
        (flits + 2 * hop_sum, flits * hop_sum)
    }

    /// HiMA reconfigures per pattern; fixed fabrics always route Full.
    fn mode_for(&self, preferred: Mode) -> Mode {
        if self.cfg.topology == Topology::Hima {
            preferred
        } else {
            Mode::Full
        }
    }

    fn tile(&self, t: usize) -> NodeId {
        self.sim.graph().pts()[t]
    }

    /// Two-stage vs centralized vs local (DNC-D) usage sort. Returns
    /// (compute, noc, flit_hops).
    fn usage_sort_cost(&self, kept_total: u64, kept_local: u64) -> (u64, u64, u64) {
        let cfg = &self.cfg;
        let n = cfg.rows_per_tile() as u64;
        if cfg.dncd {
            // Local MDSA only; no global merge, no traffic.
            let mdsa = MdsaSorter::for_len(kept_local as usize);
            return (mdsa.latency_cycles(kept_local as usize), 0, 0);
        }
        if cfg.two_stage_sort {
            // Stage 1 in parallel on PTs; stage 2 streams the runs into the
            // CT's PMS while they arrive (overlap: take the max of merge
            // and gather).
            let mdsa = MdsaSorter::for_len(kept_local as usize);
            let stage1 = mdsa.latency_cycles(kept_local as usize);
            let pms = ParallelMergeSorter::new(cfg.tiles);
            let stage2 = kept_local + pms.pipeline_depth();
            let msgs: Vec<(usize, usize, u64)> =
                (0..cfg.tiles).map(|t| (t, usize::MAX, kept_local)).collect();
            let (gather, hops) = self.gather_to_ct(&msgs);
            (stage1 + stage2.max(gather), 0, hops)
        } else {
            // Centralized: gather the usage vector, sort on the CT.
            let msgs: Vec<(usize, usize, u64)> =
                (0..cfg.tiles).map(|t| (t, usize::MAX, n)).collect();
            let (gather, hops) = self.gather_to_ct(&msgs);
            let sort = div_up(
                kept_total * log2_ceil(kept_total.max(2)),
                cfg.sorter_parallelism as u64,
            );
            (sort, gather, hops)
        }
    }
}


fn div_up(a: u64, b: u64) -> u64 {
    a.div_ceil(b.max(1))
}

fn log2_ceil(x: u64) -> u64 {
    (64 - (x - 1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FeatureLevel;

    fn cycles_at(level: FeatureLevel) -> u64 {
        Engine::new(EngineConfig::at_level(level, 16)).step_cycles()
    }

    #[test]
    fn ablation_ladder_is_monotone() {
        // Fig. 11(a): every feature level improves on the previous one.
        let mut prev = u64::MAX;
        for level in FeatureLevel::ALL {
            let c = cycles_at(level);
            assert!(c <= prev, "{level:?}: {c} cycles > previous {prev}");
            prev = c;
        }
    }

    #[test]
    fn dncd_speedup_is_near_an_order_of_magnitude() {
        // Paper: 8.29x over the baseline at N_t = 16.
        let base = cycles_at(FeatureLevel::Baseline) as f64;
        let dncd = cycles_at(FeatureLevel::DncD) as f64;
        let speedup = base / dncd;
        assert!((3.0..25.0).contains(&speedup), "DNC-D speedup {speedup:.2}");
    }

    #[test]
    fn arch_features_give_tens_of_percent() {
        // Paper: 1.12x / 1.23x / 1.39x. Our model reproduces the ordering
        // and rough magnitude (each rung below 3x).
        let base = cycles_at(FeatureLevel::Baseline) as f64;
        for level in [FeatureLevel::TwoStageSort, FeatureLevel::HimaNoc, FeatureLevel::Submatrix] {
            let s = base / cycles_at(level) as f64;
            assert!((1.0..4.0).contains(&s), "{level:?} speedup {s:.2}");
        }
    }

    #[test]
    fn approximations_help_on_top_of_dncd() {
        assert!(cycles_at(FeatureLevel::DncDApprox) <= cycles_at(FeatureLevel::DncD));
    }

    #[test]
    fn history_kernels_dominate_the_dnc_profile() {
        // Fig. 11(b): history-based read+write weighting together take more
        // than half the HiMA-DNC runtime.
        let report = Engine::new(EngineConfig::hima_dnc(16)).step_report();
        let hist = report.category_cycles(KernelCategory::HistoryWriteWeighting)
            + report.category_cycles(KernelCategory::HistoryReadWeighting);
        assert!(
            hist * 2 > report.total_cycles(),
            "history kernels at {} of {}",
            hist,
            report.total_cycles()
        );
    }

    #[test]
    fn dncd_cuts_history_kernel_time() {
        // Fig. 11(b): DNC-D reduces history-based write/read weighting by
        // ~87-89%.
        let dnc = Engine::new(EngineConfig::hima_dnc(16)).step_report();
        let dncd = Engine::new(EngineConfig::hima_dncd(16)).step_report();
        for cat in [KernelCategory::HistoryWriteWeighting, KernelCategory::HistoryReadWeighting] {
            assert!(
                dncd.category_cycles(cat) * 2 < dnc.category_cycles(cat),
                "{cat:?}: {} !<< {}",
                dncd.category_cycles(cat),
                dnc.category_cycles(cat)
            );
        }
    }

    #[test]
    fn dncd_has_no_inter_pt_traffic_kernels() {
        let report = Engine::new(EngineConfig::hima_dncd(16)).step_report();
        // Only the interface multicast and the read-vector gather remain.
        for cost in &report.costs {
            if cost.noc_cycles > 0 {
                assert!(
                    matches!(cost.kernel, KernelId::Lstm | KernelId::MemoryRead),
                    "{:?} has NoC traffic under DNC-D",
                    cost.kernel
                );
            }
        }
    }

    #[test]
    fn category_shares_sum_to_one() {
        let report = Engine::new(EngineConfig::hima_dnc(16)).step_report();
        let total: f64 = report.category_shares().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_tiles_speed_up_dncd_nearly_linearly() {
        // Fig. 5(d): DNC-D scales close to ideal.
        let c4 = Engine::new(EngineConfig::hima_dncd(4)).step_cycles() as f64;
        let c16 = Engine::new(EngineConfig::hima_dncd(16)).step_cycles() as f64;
        let scaling = c4 / c16;
        assert!(scaling > 1.5, "4->16 tiles gave only {scaling:.2}x");
    }

    #[test]
    fn htree_saturates_where_hima_still_scales() {
        // Fig. 5(d): H-tree saturates beyond ~8 tiles; HiMA keeps scaling.
        let conf = |topo, nt| {
            EngineConfig::hima_dnc(nt).with_topology(topo)
        };
        let htree_16 = Engine::new(conf(Topology::HTree, 16)).step_cycles() as f64;
        let htree_64 = Engine::new(conf(Topology::HTree, 64)).step_cycles() as f64;
        let hima_16 = Engine::new(conf(Topology::Hima, 16)).step_cycles() as f64;
        let hima_64 = Engine::new(conf(Topology::Hima, 64)).step_cycles() as f64;
        let htree_gain = htree_16 / htree_64;
        let hima_gain = hima_16 / hima_64;
        assert!(
            hima_gain > htree_gain,
            "16->64 tiles: hima {hima_gain:.2}x vs htree {htree_gain:.2}x"
        );
    }

    #[test]
    fn chain_order_is_snake_on_grids() {
        let g = TopologyGraph::build(Topology::Hima, 8);
        let order = snake_order(&g);
        let table = hima_noc::routing::RoutingTable::build(&g, Mode::Ring);
        for w in order.windows(2) {
            let hops = table.hops(w[0], w[1]).unwrap();
            assert!(hops <= 2, "snake neighbors should be 1-2 ring hops, got {hops}");
        }
    }

    #[test]
    fn step_report_is_deterministic() {
        let a = Engine::new(EngineConfig::hima_dnc(16)).step_report();
        let b = Engine::new(EngineConfig::hima_dnc(16)).step_report();
        assert_eq!(a, b);
    }

    #[test]
    fn activity_counters_are_nonzero() {
        let act = Engine::new(EngineConfig::hima_dnc(16)).step_report().activity;
        assert!(act.macs > 0);
        assert!(act.sram_words > 0);
        assert!(act.noc_flit_hops > 0);
        assert!(act.sort_ops > 0);
        assert!(act.sfu_ops > 0);
    }

    #[test]
    fn dncd_moves_fewer_flits() {
        let dnc = Engine::new(EngineConfig::hima_dnc(16)).step_report().activity;
        let dncd = Engine::new(EngineConfig::hima_dncd(16)).step_report().activity;
        assert!(dncd.noc_flit_hops * 2 < dnc.noc_flit_hops);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }
}
