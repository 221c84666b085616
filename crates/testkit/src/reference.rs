//! The sequential reference model the engine suites compare against.
//!
//! One lane, written apart from [`GridEngine`](hima_dnc::GridEngine): the
//! controller is the row-major [`Lstm`], every projection a plain
//! `matvec`, and each shard steps through the allocating
//! [`MemoryUnit::step`]. It draws the same seed-derived weights as the
//! engine ([`ModelInit`]), so an f32 engine built from the same spec and
//! seed reproduces it bit for bit — `crates/dnc/tests/conformance.rs`
//! asserts that over topologies, widths and ragged lanes.

use hima_dnc::lstm::Lstm;
use hima_dnc::{
    Datapath, DncParams, EngineSpec, InterfaceVector, MemoryConfig, MemoryUnit, ModelInit,
    ReadMerge, Topology, WeightBlock,
};
use hima_tensor::Matrix;

/// A sequential DNC: one memory unit, or `N_t` shards whose reads are
/// merged uniformly (Eq. 4).
#[derive(Debug, Clone)]
pub struct Dnc {
    params: DncParams,
    controller: Lstm,
    interface_projs: Vec<Matrix>,
    output_proj: Matrix,
    units: Vec<MemoryUnit>,
    /// `None` when monolithic: the one shard read *is* the read.
    merge: Option<ReadMerge>,
    shard_reads: Vec<Vec<f32>>,
    last_read: Vec<f32>,
}

impl Dnc {
    /// The model `EngineBuilder::new(params).with_spec(spec).seed(seed)`
    /// builds, on one lane: monolithic, or sharded with the uniform
    /// merge, with the spec's skimming and softmax.
    ///
    /// # Panics
    ///
    /// Panics on a quantized spec, or on more tiles than memory rows.
    pub fn new(params: DncParams, spec: EngineSpec, seed: u64) -> Self {
        assert_eq!(spec.datapath, Datapath::F32, "the reference is f32");
        let mem_cfg = MemoryConfig::new(params.memory_size, params.word_size, params.read_heads)
            .with_skim(spec.skim)
            .with_approx_softmax(spec.approx_softmax);
        let init = ModelInit::new(params, mem_cfg, spec.tiles(), seed);
        let (input, hidden, lstm_seed) = init.controller();
        Self {
            params,
            controller: Lstm::new(input, hidden, lstm_seed),
            interface_projs: init.interface_projs().map(WeightBlock::matrix).collect(),
            output_proj: init.output_proj().matrix(),
            units: init.shard_cfgs.iter().map(|&cfg| MemoryUnit::new(cfg)).collect(),
            merge: match spec.topology {
                Topology::Monolithic => None,
                Topology::Sharded { tiles } => Some(ReadMerge::uniform(tiles)),
            },
            shard_reads: vec![Vec::new(); spec.tiles()],
            last_read: vec![0.0; params.read_heads * params.word_size],
        }
    }

    /// Runs one time step and returns the output.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != params.input_size`.
    pub fn step(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.params.input_size, "input width mismatch");
        // Controller on [x_t ; v_r^{t-1}]; each shard's interface from
        // [h_t ; x_t]; the output from [h_t ; v_r].
        let hidden = self.controller.step(&[input, &self.last_read].concat());
        let iface_in = [&hidden[..], input].concat();
        let (w, r) = (self.params.word_size, self.params.read_heads);
        for ((unit, proj), read) in
            self.units.iter_mut().zip(&self.interface_projs).zip(&mut self.shard_reads)
        {
            let iv = InterfaceVector::parse(&proj.matvec(&iface_in), w, r);
            *read = unit.step(&iv).flattened();
        }
        self.last_read = match &self.merge {
            Some(merge) => merge.merge(&self.shard_reads),
            None => self.shard_reads[0].clone(),
        };
        self.output_proj.matvec(&[&hidden[..], &self.last_read].concat())
    }

    /// The read vector the next step's controller consumes (merged when
    /// sharded).
    pub fn last_read(&self) -> &[f32] {
        &self.last_read
    }

    /// The last step's per-shard read vectors, in shard order.
    pub fn shard_reads(&self) -> &[Vec<f32>] {
        &self.shard_reads
    }
}
