//! Versioned binary (de)serialization of [`LaneState`] — the durability
//! surface of the state-splice machinery.
//!
//! A serialized lane state is the *complete* session, and a session is
//! state only: the recurrent LSTM state, every memory shard's state
//! memories (external memory `M`, usage, temporal linkage + precedence,
//! read/write weightings) with the shard's configuration and datapath,
//! and the carried read-vector and hidden rows the next step's controller
//! consumes. The codec encodes from and decodes into exactly those
//! buffers; it never builds a memory unit.
//!
//! The format is deliberately boring, read and written through the same
//! `hima_bytes` reader and writer as the serve wire protocol (the vendored
//! `serde` is a no-op stand-in, so derived serialization cannot cross a
//! process boundary): fixed-width little-endian integers, `f32` as its
//! IEEE-754 bit pattern — so encode → decode →
//! [`import_lane`](crate::GridEngine::import_lane) is a
//! **bit-exact** round trip on every topology × datapath combination
//! (the inert [`Backend`] label's config byte included) — and
//! `u32`-counted vectors. Version 1 gave the configuration a usage-sorter
//! record — tag `0`, or tag `1` and a `u32` tile count — for an axis that
//! selected nothing and is gone: the encoder writes tag `0` (what every
//! served session always wrote), the decoder reads past either.
//!
//! Every decoder is total — malformed bytes come back as a typed
//! [`StateCodecError`], never a panic — and a decoded count or geometry
//! field becomes an allocation size in one place only, the shared
//! reader's `hima_bytes::Reader::bound`, behind a check that the
//! remaining payload holds that many values (the shard count is held to
//! 20 bytes a shard, geometry products to 4 bytes a value).
//! `crates/dnc/tests/state_hostile.rs` holds [`LaneState::decode`] to it
//! under a counting allocator (truncation at every offset, every byte
//! replaced, forged shard counts and geometries): a typed error or an
//! `Ok` that re-encodes to the same bytes, at most twice the payload
//! length plus 512 bytes requested.
//!
//! The codec is self-describing (geometry and datapath travel in the
//! bytes), but a decoded snapshot still only *rehydrates* into an engine
//! whose configuration matches — the session store keys snapshots by the
//! canonical spec bytes, [`LaneState::same_geometry`] gives callers a
//! non-panicking compatibility check, and `import_lane`'s asserts
//! backstop both.

use crate::batch::{LaneState, ShardState};
use crate::builder::Datapath;
use crate::linkage::TemporalLinkage;
use crate::lstm::LstmState;
use crate::memory::{MemoryConfig, UnitState};
use hima_bytes::{Reader, Writer};
use hima_tensor::{Backend, Matrix, QFormat};

/// Leading magic of a serialized [`LaneState`].
pub const STATE_MAGIC: [u8; 4] = *b"HLSS";

/// Current format version. Decoders reject newer versions instead of
/// guessing.
pub const STATE_VERSION: u16 = 1;

/// Decoding error: the bytes did not parse as a serialized [`LaneState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateCodecError {
    /// The payload ended before the field being read.
    Truncated,
    /// The leading magic was not [`STATE_MAGIC`].
    BadMagic,
    /// The format version is newer than this decoder.
    UnsupportedVersion(u16),
    /// An unknown tag byte for an enum field (datapath, sorter, backend).
    BadTag(u8),
    /// A count field exceeded the remaining payload.
    BadLength(u64),
    /// A decoded field violated a structural invariant; the message names
    /// it.
    Invalid(&'static str),
    /// Decoding finished with unread bytes left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for StateCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateCodecError::Truncated => write!(f, "state payload truncated"),
            StateCodecError::BadMagic => write!(f, "not a serialized lane state (bad magic)"),
            StateCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported lane-state format version {v}")
            }
            StateCodecError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            StateCodecError::BadLength(n) => write!(f, "length field {n} out of bounds"),
            StateCodecError::Invalid(what) => write!(f, "invalid lane state: {what}"),
            StateCodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after lane state"),
        }
    }
}

impl std::error::Error for StateCodecError {}

impl From<hima_bytes::Error> for StateCodecError {
    fn from(e: hima_bytes::Error) -> Self {
        match e {
            hima_bytes::Error::Truncated => StateCodecError::Truncated,
            hima_bytes::Error::BadLength(n) => StateCodecError::BadLength(n),
            hima_bytes::Error::BadTag(t) => StateCodecError::BadTag(t),
            hima_bytes::Error::TrailingBytes(n) => StateCodecError::TrailingBytes(n),
        }
    }
}

/// Reads a `rows × cols` matrix of f32 bit patterns; the `u64` product
/// cannot overflow and is bounded by the shared reader before it sizes
/// anything.
fn f32_matrix(r: &mut Reader<'_>, rows: usize, cols: usize) -> Result<Matrix, StateCodecError> {
    Ok(Matrix::from_vec(rows, cols, r.f32s(rows as u64 * cols as u64)?))
}

// ------------------------------------------------------- shard (de)coding

fn encode_config(cfg: &MemoryConfig, out: &mut Vec<u8>) {
    out.put_u32(cfg.memory_size as u32);
    out.put_u32(cfg.word_size as u32);
    out.put_u32(cfg.read_heads as u32);
    out.put_u8(0); // version 1's usage-sorter tag
    out.put_f32(cfg.skim.fraction());
    out.put_bool(cfg.approx_softmax);
    out.put_u8(match cfg.backend {
        Backend::Scalar => 0,
        Backend::Blocked => 1,
    });
}

fn decode_config(r: &mut Reader<'_>) -> Result<MemoryConfig, StateCodecError> {
    let memory_size = r.u32()? as usize;
    let word_size = r.u32()? as usize;
    let read_heads = r.u32()? as usize;
    if memory_size == 0 || word_size == 0 || read_heads == 0 {
        return Err(StateCodecError::Invalid("zero memory geometry"));
    }
    // Version 1's usage-sorter record: read past, rejecting what version
    // 1 rejected.
    match r.u8()? {
        0 => {}
        1 if r.u32()? != 0 => {}
        1 => return Err(StateCodecError::Invalid("two-stage sorter with zero tiles")),
        t => return Err(StateCodecError::BadTag(t)),
    }
    let skim = crate::allocation::SkimRate::checked(r.f32()?)
        .ok_or(StateCodecError::Invalid("skim rate outside [0, 1)"))?;
    let approx_softmax = r.bool()?;
    let backend = match r.u8()? {
        0 => Backend::Scalar,
        1 => Backend::Blocked,
        t => return Err(StateCodecError::BadTag(t)),
    };
    Ok(MemoryConfig::new(memory_size, word_size, read_heads)
        .with_skim(skim)
        .with_approx_softmax(approx_softmax)
        .with_backend(backend))
}

/// Reads the state memories `cfg` implies. Element counts come from the
/// configuration, not from the payload, and every read checks them
/// against the remaining payload before allocating.
fn decode_unit_state(r: &mut Reader<'_>, cfg: &MemoryConfig) -> Result<UnitState, StateCodecError> {
    let (n, heads) = (cfg.memory_size, cfg.read_heads);
    let memory = f32_matrix(r, n, cfg.word_size)?;
    let usage = r.f32s(n as u64)?;
    let linkage = TemporalLinkage::from_parts(f32_matrix(r, n, n)?, r.f32s(n as u64)?);
    let write_weighting = r.f32s(n as u64)?;
    let read_weightings = f32_matrix(r, heads, n)?;
    Ok(UnitState { memory, usage, linkage, write_weighting, read_weightings })
}

fn encode_shard(shard: &ShardState, out: &mut Vec<u8>) {
    match shard.datapath {
        Datapath::F32 => out.put_u8(0),
        Datapath::Quantized(q) => {
            out.put_u8(1);
            out.put_u32(q.int_bits);
            out.put_u32(q.frac_bits);
        }
    }
    encode_config(&shard.config, out);
    // The read weightings' head-major rows go back to back: the bytes the
    // per-head vectors had.
    shard.state.buffers().into_iter().for_each(|b| out.put_f32s(b));
    out.put_vec_f32(&shard.read);
}

fn decode_shard(r: &mut Reader<'_>) -> Result<ShardState, StateCodecError> {
    let datapath = match r.u8()? {
        0 => Datapath::F32,
        1 => {
            let int_bits = r.u32()?;
            let frac_bits = r.u32()?;
            let q = QFormat::checked(int_bits, frac_bits)
                .ok_or(StateCodecError::Invalid("q-format bit widths"))?;
            Datapath::Quantized(q)
        }
        t => return Err(StateCodecError::BadTag(t)),
    };
    let config = decode_config(r)?;
    let state = decode_unit_state(r, &config)?;
    let read = r.vec_f32()?;
    if read.len() as u64 != config.read_heads as u64 * config.word_size as u64 {
        return Err(StateCodecError::Invalid("shard read-vector width"));
    }
    Ok(ShardState { config, datapath, state, read })
}

// --------------------------------------------------------- LaneState API

impl LaneState {
    /// Serializes the complete lane state into `out` in the versioned
    /// binary format. The inverse is [`LaneState::decode`]; the round
    /// trip is bit-exact.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&STATE_MAGIC);
        out.put_u16(STATE_VERSION);
        out.put_vec_f32(&self.lstm.hidden);
        out.put_vec_f32(&self.lstm.cell);
        out.put_u32(self.shards.len() as u32);
        for shard in &self.shards {
            encode_shard(shard, out);
        }
        out.put_vec_f32(&self.read);
        out.put_vec_f32(&self.hidden);
    }

    /// Serializes the complete lane state into a fresh buffer. See
    /// `LaneState::encode_into`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.state_elems() * 4);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a serialized lane state. Total: malformed or truncated
    /// bytes come back as a typed [`StateCodecError`], never a panic —
    /// and no count or geometry field can drive an allocation beyond the
    /// payload itself (see the [module docs](self)).
    ///
    /// Decoding validates internal consistency (geometry, datapath tags,
    /// vector widths) but not engine compatibility: importing the result
    /// into a mismatched engine still panics in
    /// [`import_lane`](crate::GridEngine::import_lane). Callers splicing
    /// untrusted snapshots should gate on [`LaneState::same_geometry`]
    /// against a template exported from the target engine.
    pub fn decode(bytes: &[u8]) -> Result<LaneState, StateCodecError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != STATE_MAGIC {
            return Err(StateCodecError::BadMagic);
        }
        match r.u16()? {
            STATE_VERSION => {}
            v => return Err(StateCodecError::UnsupportedVersion(v)),
        }
        let hidden_state = r.vec_f32()?;
        let cell = r.vec_f32()?;
        if cell.len() != hidden_state.len() {
            return Err(StateCodecError::Invalid("LSTM hidden/cell width mismatch"));
        }
        // Each shard is at least a tag byte plus its config (> 20 bytes).
        let shard_count = r.count(20)?;
        if shard_count == 0 {
            return Err(StateCodecError::BadLength(0));
        }
        // The shard table grows as shards decode, never by the count's
        // say-so — doubling from one entry, not from `Vec`'s four-entry
        // floor, which would outweigh a small payload.
        let mut shards: Vec<ShardState> = Vec::new();
        for _ in 0..shard_count {
            let shard = decode_shard(&mut r)?;
            if shards.len() == shards.capacity() {
                shards.reserve_exact(shards.len().max(1));
            }
            shards.push(shard);
        }
        // Monolithic lanes carry one shard whose read vector *is* the
        // merged row; DNC-D merges equal-width shard reads element-wise —
        // either way every shard read and the merged row share one width.
        let read_width = shards[0].read.len();
        if shards.iter().any(|s| s.read.len() != read_width) {
            return Err(StateCodecError::Invalid("unequal shard read-vector widths"));
        }
        let read = r.vec_f32()?;
        let hidden = r.vec_f32()?;
        if read.len() != read_width {
            return Err(StateCodecError::Invalid("merged read-vector width"));
        }
        if hidden.len() != hidden_state.len() {
            return Err(StateCodecError::Invalid("hidden-row width mismatch"));
        }
        r.finish()?;
        Ok(LaneState {
            lstm: LstmState { hidden: hidden_state, cell },
            shards,
            read,
            hidden,
        })
    }

    /// Whether `other` has this snapshot's exact geometry and datapath:
    /// same shard count and, shard by shard, equal memory configuration
    /// and datapath (Q-format included), plus equal read/hidden widths.
    /// This is the non-panicking form of the compatibility asserts in
    /// [`import_lane`](crate::GridEngine::import_lane) — a session store
    /// checks a decoded snapshot against a template exported from the
    /// target engine before splicing it in.
    pub fn same_geometry(&self, other: &LaneState) -> bool {
        self.shards.len() == other.shards.len()
            && self.read.len() == other.read.len()
            && self.hidden.len() == other.hidden.len()
            && self.lstm.hidden.len() == other.lstm.hidden.len()
            && self.lstm.cell.len() == other.lstm.cell.len()
            && self.shards.iter().zip(&other.shards).all(|(a, b)| {
                a.read.len() == b.read.len() && a.config == b.config && a.datapath == b.datapath
            })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::{EngineBuilder, EngineSpec, Topology};
    use crate::DncParams;
    use hima_tensor::Matrix as M;

    fn params() -> DncParams {
        DncParams::new(16, 6, 2).with_hidden(12).with_io(5, 5)
    }

    pub(crate) fn spec_grid() -> Vec<EngineSpec> {
        let mut specs = vec![EngineSpec::monolithic()];
        let mut sharded = EngineSpec::monolithic();
        sharded.topology = Topology::Sharded { tiles: 4 };
        specs.push(sharded);
        let mut quant = EngineSpec::monolithic();
        quant.datapath = Datapath::Quantized(QFormat::q16_16());
        specs.push(quant);
        let mut quant_sharded = sharded;
        quant_sharded.datapath = Datapath::Quantized(QFormat::q16_16());
        specs.push(quant_sharded);
        let mut blocked = EngineSpec::monolithic();
        blocked.backend = Backend::Blocked;
        specs.push(blocked);
        specs
    }

    fn warmed_state(spec: &EngineSpec, steps: usize) -> LaneState {
        let p = params();
        let mut engine = EngineBuilder::new(p).with_spec(*spec).lanes(2).seed(11).build();
        let x = M::from_rows(&[
            (0..p.input_size).map(|i| (i as f32 * 0.37).sin()).collect::<Vec<_>>(),
            (0..p.input_size).map(|i| (i as f32 * 0.11).cos()).collect::<Vec<_>>(),
        ]);
        for _ in 0..steps {
            engine.step_batch(&x);
        }
        engine.export_lane(1)
    }

    /// A decoded state is indistinguishable from the original: splicing
    /// either into a fresh engine produces bit-identical steps.
    #[test]
    fn round_trip_is_bit_exact_across_specs() {
        let p = params();
        for spec in spec_grid() {
            let state = warmed_state(&spec, 7);
            let bytes = state.encode();
            let decoded = LaneState::decode(&bytes)
                .unwrap_or_else(|e| panic!("decode failed for {spec:?}: {e}"));
            assert!(state.same_geometry(&decoded));

            let mut a = EngineBuilder::new(p).with_spec(spec).lanes(1).seed(11).build();
            let mut b = EngineBuilder::new(p).with_spec(spec).lanes(1).seed(11).build();
            a.import_lane(0, &state);
            b.import_lane(0, &decoded);
            let x = M::from_rows(&[(0..p.input_size)
                .map(|i| (i as f32 * 0.71).sin())
                .collect::<Vec<_>>()]);
            for t in 0..5 {
                let ya = a.step_batch(&x);
                let yb = b.step_batch(&x);
                for (va, vb) in ya.as_slice().iter().zip(yb.as_slice()) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "step {t} diverged for {spec:?}");
                }
            }
            for (va, vb) in a.last_read_row(0).iter().zip(b.last_read_row(0)) {
                assert_eq!(va.to_bits(), vb.to_bits(), "read row diverged for {spec:?}");
            }
        }
    }

    /// The read weightings are stored as one `R × N` matrix but encoded as
    /// the head-major rows the per-head vectors were: the `HLSS` bytes,
    /// and so the sizes `e2e_bench` reports as `dnc.state_bytes` for its
    /// served and paper shapes, are those of the per-head layout, and the
    /// rows come back bit for bit.
    #[test]
    fn matrix_read_weightings_keep_the_encoded_layout_and_size() {
        let small = DncParams::new(128, 16, 2).with_hidden(64).with_io(16, 16);
        let paper = DncParams::new(1024, 64, 4).with_hidden(256).with_io(14, 14);
        let mut q16 = EngineSpec::monolithic();
        q16.topology = Topology::Sharded { tiles: 16 };
        q16.datapath = Datapath::Quantized(QFormat::q16_16());
        for (p, spec, want_bytes) in
            [(small, EngineSpec::monolithic(), 77_362), (paper, q16, 573_978)]
        {
            let mut engine = EngineBuilder::new(p).with_spec(spec).lanes(1).seed(3).build();
            let x = M::from_fn(1, p.input_size, |_, i| (i as f32 * 0.37).sin());
            for _ in 0..3 {
                engine.step_batch(&x);
            }
            let state = engine.export_lane(0);
            let bytes = state.encode();
            assert_eq!(bytes.len(), want_bytes, "{spec:?}");
            let decoded = LaneState::decode(&bytes).unwrap();
            assert_eq!(decoded.encode(), bytes, "re-encoding must reproduce the bytes");
            for (src, dst) in state.shards.iter().zip(&decoded.shards) {
                let (a, b) = (&src.state.read_weightings, &dst.state.read_weightings);
                assert_eq!(a.shape(), (p.read_heads, src.config.memory_size));
                assert!(a.as_slice().iter().any(|&w| w != 0.0), "vacuous: nothing was read");
                let bits = |m: &M| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b));
            }
        }
    }

    /// `HLSS` bytes written by the commit before the memory unit absorbed
    /// the quantized wrapper and the usage-sorter axis — generated there
    /// and committed as literals, so the check is this decoder against
    /// those bytes on any machine. A `sharded(2)`/Q16.16 lane of
    /// [`fixture_params`] (seed 5) after one step.
    const PARENT_SHARDED2_Q16: [u8; 266] = [
        0x48, 0x4c, 0x53, 0x53, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x5f, 0xfc, 0xc7, 0x3c, 0xb8, 0x85,
        0x9b, 0x3c, 0x02, 0x00, 0x00, 0x00, 0x27, 0x0e, 0x46, 0x3d, 0x16, 0x8b, 0x1d, 0x3d, 0x02, 0x00,
        0x00, 0x00, 0x01, 0x10, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02,
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x0c, 0xba, 0x00, 0x68, 0xb4, 0x3d, 0x00, 0x00, 0x20, 0xb9, 0x00, 0xc0, 0xd8, 0x3c, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xce, 0xd0, 0x3e, 0x00, 0xc8, 0xfa, 0x3d, 0x00, 0xce,
        0xd0, 0x3e, 0x00, 0xc8, 0xfa, 0x3d, 0x00, 0x60, 0x23, 0x3e, 0x00, 0x3c, 0x23, 0x3e, 0x02, 0x00,
        0x00, 0x00, 0x00, 0x00, 0xe0, 0xb8, 0x00, 0xa0, 0x95, 0x3c, 0x01, 0x10, 0x00, 0x00, 0x00, 0x10,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x77, 0xbb, 0x00, 0xe0, 0xcc, 0xbd, 0x00, 0x00,
        0xbe, 0xba, 0x00, 0xb0, 0x1d, 0xbd, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x6a,
        0xb9, 0x3e, 0x00, 0xbc, 0x0e, 0x3e, 0x00, 0x6a, 0xb9, 0x3e, 0x00, 0xbc, 0x0e, 0x3e, 0x00, 0x18,
        0x47, 0x3e, 0x00, 0x14, 0x47, 0x3e, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x84, 0xba, 0x00, 0xa0,
        0xdc, 0xbc, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0xba, 0x00, 0x00, 0x8e, 0xbb, 0x02, 0x00,
        0x00, 0x00, 0x5f, 0xfc, 0xc7, 0x3c, 0xb8, 0x85, 0x9b, 0x3c,
    ];

    /// The same, for a monolithic f32 lane whose builder had selected
    /// version 1's two-stage usage sorter over 2 tiles: the shard's
    /// configuration carries sorter tag `1` and the tile count, bytes
    /// `47..52`.
    const PARENT_MONO_SORTER_TAG_1: [u8; 254] = [
        0x48, 0x4c, 0x53, 0x53, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x5f, 0xfc, 0xc7, 0x3c, 0xb8, 0x85,
        0x9b, 0x3c, 0x02, 0x00, 0x00, 0x00, 0x27, 0x0e, 0x46, 0x3d, 0x16, 0x8b, 0x1d, 0x3d, 0x01, 0x00,
        0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x39, 0x47, 0xec, 0xb9, 0xe3, 0x52,
        0x99, 0x3d, 0x89, 0xf8, 0xa6, 0xb8, 0xe3, 0xb2, 0x58, 0x3c, 0x89, 0xf8, 0xa6, 0xb8, 0xe3, 0xb2,
        0x58, 0x3c, 0x89, 0xf8, 0xa6, 0xb8, 0xe3, 0xb2, 0x58, 0x3c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x73, 0xb1, 0x3e, 0x1e, 0xcc,
        0x7a, 0x3d, 0x1e, 0xcc, 0x7a, 0x3d, 0x1e, 0xcc, 0x7a, 0x3d, 0x32, 0x73, 0xb1, 0x3e, 0x1e, 0xcc,
        0x7a, 0x3d, 0x1e, 0xcc, 0x7a, 0x3d, 0x1e, 0xcc, 0x7a, 0x3d, 0x14, 0x8d, 0xa3, 0x3d, 0xe6, 0x39,
        0xa3, 0x3d, 0xe6, 0x39, 0xa3, 0x3d, 0xe6, 0x39, 0xa3, 0x3d, 0x02, 0x00, 0x00, 0x00, 0x12, 0xcc,
        0x66, 0xb8, 0x5c, 0xc4, 0x15, 0x3c, 0x02, 0x00, 0x00, 0x00, 0x12, 0xcc, 0x66, 0xb8, 0x5c, 0xc4,
        0x15, 0x3c, 0x02, 0x00, 0x00, 0x00, 0x5f, 0xfc, 0xc7, 0x3c, 0xb8, 0x85, 0x9b, 0x3c,
    ];

    fn fixture_params() -> DncParams {
        DncParams::new(4, 2, 1).with_hidden(2).with_io(2, 2)
    }

    #[test]
    fn bytes_written_before_the_units_were_folded_still_decode_and_reencode() {
        let q16 = LaneState::decode(&PARENT_SHARDED2_Q16).expect("parent-written Q16.16 lane");
        assert_eq!(q16.encode(), PARENT_SHARDED2_Q16, "re-encodes to itself");
        let mut engine = EngineBuilder::new(fixture_params())
            .sharded(2)
            .quantized(QFormat::q16_16())
            .seed(5)
            .build();
        engine.import_lane(0, &q16);
        assert_eq!(engine.export_lane(0).encode(), PARENT_SHARDED2_Q16);

        // The tag-1 record (5 bytes) comes back as tag 0 (1 byte); every
        // other byte stands, and the state belongs to a plain monolithic
        // engine.
        let tagged = LaneState::decode(&PARENT_MONO_SORTER_TAG_1).expect("parent-written tag 1");
        assert_eq!(PARENT_MONO_SORTER_TAG_1[47..52], [1, 2, 0, 0, 0]);
        let mut want = PARENT_MONO_SORTER_TAG_1.to_vec();
        want.splice(47..52, [0]);
        assert_eq!(tagged.encode(), want);
        let mut engine = EngineBuilder::new(fixture_params()).seed(5).build();
        assert!(engine.export_lane(0).same_geometry(&tagged));
        engine.import_lane(0, &tagged);
        assert_eq!(engine.export_lane(0).encode(), want);
    }

    /// Every prefix truncation decodes to a typed error, never a panic.
    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let state = warmed_state(&EngineSpec::monolithic(), 3);
        let bytes = state.encode();
        for len in 0..bytes.len() {
            match LaneState::decode(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of {len} bytes decoded successfully"),
            }
        }
        assert!(LaneState::decode(&bytes).is_ok());
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let state = warmed_state(&EngineSpec::monolithic(), 1);
        let bytes = state.encode();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(LaneState::decode(&bad_magic), Err(StateCodecError::BadMagic)));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xEE;
        assert!(matches!(
            LaneState::decode(&bad_version),
            Err(StateCodecError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let state = warmed_state(&EngineSpec::monolithic(), 1);
        let mut bytes = state.encode();
        bytes.push(0);
        assert!(matches!(LaneState::decode(&bytes), Err(StateCodecError::TrailingBytes(1))));
    }

    #[test]
    fn oversized_counts_cannot_drive_allocation() {
        // A giant LSTM width claim against a tiny payload must fail the
        // division-based bound, not attempt a 16 GiB allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&STATE_MAGIC);
        bytes.extend_from_slice(&STATE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(matches!(LaneState::decode(&bytes), Err(StateCodecError::BadLength(_))));
    }

    #[test]
    fn geometry_check_distinguishes_datapaths_and_shard_counts() {
        let mono = warmed_state(&EngineSpec::monolithic(), 1);
        let mut sharded_spec = EngineSpec::monolithic();
        sharded_spec.topology = Topology::Sharded { tiles: 4 };
        let sharded = warmed_state(&sharded_spec, 1);
        let mut quant_spec = EngineSpec::monolithic();
        quant_spec.datapath = Datapath::Quantized(QFormat::q16_16());
        let quant = warmed_state(&quant_spec, 1);
        assert!(mono.same_geometry(&mono.clone()));
        assert!(!mono.same_geometry(&sharded));
        assert!(!mono.same_geometry(&quant));
    }
}
