//! Versioned binary (de)serialization of [`LaneState`] — the durability
//! surface of the state-splice machinery.
//!
//! A serialized lane state is the *complete* session: the recurrent LSTM
//! state, every memory shard's persistent state memories (external memory
//! `M`, usage, temporal linkage + precedence, read/write weightings) with
//! the shard's configuration and datapath, and the carried read-vector
//! and hidden rows the next step's controller consumes. Transient
//! machinery — sorters, PLA tables, scratch buffers, kernel profiles and
//! the row-norm cache — is a pure function of the configuration and is
//! rebuilt on decode (the norm cache is re-primed by the next step).
//!
//! The format is deliberately boring, in the style of the serve wire
//! protocol (the vendored `serde` is a no-op stand-in, so derived
//! serialization cannot cross a process boundary): fixed-width
//! little-endian integers, `f32` as its IEEE-754 bit pattern — so
//! encode → decode → [`import_lane`](crate::GridEngine::import_lane) is a
//! **bit-exact** round trip on every topology × datapath combination
//! (the inert [`Backend`] label's config byte included) — and
//! `u32`-counted vectors. Every length is
//! bounds-checked against the remaining payload with division (never a
//! multiplication that could overflow on 32-bit targets) before any
//! allocation, and every decoder is total: malformed bytes come back as
//! a typed [`StateCodecError`], never a panic.
//!
//! The codec is self-describing (geometry and datapath travel in the
//! bytes), but a decoded snapshot still only *rehydrates* into an engine
//! whose configuration matches — the session store keys snapshots by the
//! canonical spec bytes, [`LaneState::same_geometry`] gives callers a
//! non-panicking compatibility check, and `import_lane`'s asserts
//! backstop both.

use crate::batch::{LaneMemory, LaneState};
use crate::builder::Datapath;
use crate::lstm::LstmState;
use crate::memory::{MemoryConfig, MemoryUnit, SorterKind};
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

// ------------------------------------------------------------- primitives

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateCodecError> {
        if self.remaining() < n {
            return Err(StateCodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StateCodecError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, StateCodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(StateCodecError::BadTag(t)),
        }
    }

    fn u16(&mut self) -> Result<u16, StateCodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, StateCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads exactly `n` f32 bit patterns, bounds-checked by division so
    /// the guard cannot overflow however large `n` is.
    fn f32_slice(&mut self, n: usize) -> Result<Vec<f32>, StateCodecError> {
        if n > self.remaining() / 4 {
            return Err(StateCodecError::BadLength(n as u64));
        }
        Ok((0..n).map(|_| f32::from_bits(self.u32().unwrap())).collect())
    }

    /// Reads a `u32`-counted f32 vector.
    fn vec_f32(&mut self) -> Result<Vec<f32>, StateCodecError> {
        let n = self.u32()? as usize;
        self.f32_slice(n)
    }

    fn finish(self) -> Result<(), StateCodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(StateCodecError::TrailingBytes(n)),
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    out.reserve(v.len() * 4);
    for &x in v {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

fn put_vec_f32(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    put_f32s(out, v);
}

// ------------------------------------------------------- shard (de)coding

fn encode_config(cfg: &MemoryConfig, out: &mut Vec<u8>) {
    put_u32(out, cfg.memory_size as u32);
    put_u32(out, cfg.word_size as u32);
    put_u32(out, cfg.read_heads as u32);
    match cfg.sorter {
        SorterKind::Centralized => out.push(0),
        SorterKind::TwoStage { tiles } => {
            out.push(1);
            put_u32(out, tiles as u32);
        }
    }
    put_u32(out, cfg.skim.fraction().to_bits());
    out.push(cfg.approx_softmax as u8);
    out.push(match cfg.backend {
        Backend::Scalar => 0,
        Backend::Blocked => 1,
    });
}

fn decode_config(r: &mut Cursor<'_>) -> Result<MemoryConfig, StateCodecError> {
    let memory_size = r.u32()? as usize;
    let word_size = r.u32()? as usize;
    let read_heads = r.u32()? as usize;
    if memory_size == 0 || word_size == 0 || read_heads == 0 {
        return Err(StateCodecError::Invalid("zero memory geometry"));
    }
    let sorter = match r.u8()? {
        0 => SorterKind::Centralized,
        1 => {
            let tiles = r.u32()? as usize;
            if tiles == 0 {
                return Err(StateCodecError::Invalid("two-stage sorter with zero tiles"));
            }
            SorterKind::TwoStage { tiles }
        }
        t => return Err(StateCodecError::BadTag(t)),
    };
    let skim = crate::allocation::SkimRate::checked(f32::from_bits(r.u32()?))
        .ok_or(StateCodecError::Invalid("skim rate outside [0, 1)"))?;
    let approx_softmax = r.bool()?;
    let backend = match r.u8()? {
        0 => Backend::Scalar,
        1 => Backend::Blocked,
        t => return Err(StateCodecError::BadTag(t)),
    };
    Ok(MemoryConfig::new(memory_size, word_size, read_heads)
        .with_sorter(sorter)
        .with_skim(skim)
        .with_approx_softmax(approx_softmax)
        .with_backend(backend))
}

fn encode_unit(u: &MemoryUnit, out: &mut Vec<u8>) {
    encode_config(u.config(), out);
    put_f32s(out, u.memory().as_slice());
    put_f32s(out, u.usage());
    put_f32s(out, u.linkage().matrix().as_slice());
    put_f32s(out, u.linkage().precedence());
    put_f32s(out, u.write_weighting());
    // Head-major rows back to back: the bytes the per-head vectors had.
    put_f32s(out, u.read_weightings().as_slice());
}

/// Reads the state memories for `cfg` and writes them into a freshly
/// constructed unit. Element counts are implied by the configuration, so
/// a corrupt count cannot drive an oversized allocation: every read is
/// bounds-checked against the remaining payload first.
fn decode_unit_state(r: &mut Cursor<'_>, u: &mut MemoryUnit) -> Result<(), StateCodecError> {
    let cfg = *u.config();
    let n = cfg.memory_size;
    // Reject implausible geometry before the big reads: the full shard
    // needs n·w + n·(n + 3 + r) elements; if even the memory matrix
    // cannot fit the remaining bytes the payload is corrupt.
    if (n as u64) * (cfg.word_size as u64) > (r.remaining() as u64) / 4 {
        return Err(StateCodecError::BadLength((n * cfg.word_size) as u64));
    }
    let memory = Matrix::from_vec(n, cfg.word_size, r.f32_slice(n * cfg.word_size)?);
    let usage = r.f32_slice(n)?;
    if (n as u64) * (n as u64) > (r.remaining() as u64) / 4 {
        return Err(StateCodecError::BadLength((n as u64) * (n as u64)));
    }
    let linkage = Matrix::from_vec(n, n, r.f32_slice(n * n)?);
    let precedence = r.f32_slice(n)?;
    let write_weighting = r.f32_slice(n)?;
    let heads = cfg.read_heads;
    if (heads as u64) * (n as u64) > (r.remaining() as u64) / 4 {
        return Err(StateCodecError::BadLength((heads as u64) * (n as u64)));
    }
    let read_weightings = Matrix::from_vec(heads, n, r.f32_slice(heads * n)?);
    u.restore_state(memory, usage, linkage, precedence, write_weighting, read_weightings);
    Ok(())
}

fn encode_shard(mem: &LaneMemory, shard_read: &[f32], out: &mut Vec<u8>) {
    match mem {
        LaneMemory::F32(u) => {
            out.push(0);
            encode_unit(u, out);
        }
        LaneMemory::Quantized(q) => {
            out.push(1);
            put_u32(out, q.format().int_bits);
            put_u32(out, q.format().frac_bits);
            encode_unit(q.inner(), out);
        }
    }
    put_vec_f32(out, shard_read);
}

fn decode_shard(r: &mut Cursor<'_>) -> Result<(LaneMemory, Vec<f32>), StateCodecError> {
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
    let cfg = decode_config(r)?;
    let mut mem = LaneMemory::new(cfg, datapath);
    match &mut mem {
        LaneMemory::F32(u) => decode_unit_state(r, u)?,
        LaneMemory::Quantized(q) => decode_unit_state(r, q.inner_mut())?,
    }
    let shard_read = r.vec_f32()?;
    if shard_read.len() != cfg.read_heads * cfg.word_size {
        return Err(StateCodecError::Invalid("shard read-vector width"));
    }
    Ok((mem, shard_read))
}

// --------------------------------------------------------- LaneState API

impl LaneState {
    /// Serializes the complete lane state into `out` in the versioned
    /// binary format. The inverse is [`LaneState::decode`]; the round
    /// trip is bit-exact.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&STATE_MAGIC);
        put_u16(out, STATE_VERSION);
        put_vec_f32(out, &self.lstm.hidden);
        put_vec_f32(out, &self.lstm.cell);
        put_u32(out, self.shards.len() as u32);
        for (mem, shard_read) in &self.shards {
            encode_shard(mem, shard_read, out);
        }
        put_vec_f32(out, &self.read);
        put_vec_f32(out, &self.hidden);
    }

    /// Serializes the complete lane state into a fresh buffer. See
    /// [`LaneState::encode_into`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.state_elems() * 4);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a serialized lane state. Total: malformed or truncated
    /// bytes come back as a typed [`StateCodecError`], never a panic —
    /// and no count field can drive an allocation beyond the payload
    /// itself.
    ///
    /// Decoding validates internal consistency (geometry, datapath tags,
    /// vector widths) but not engine compatibility: importing the result
    /// into a mismatched engine still panics in
    /// [`import_lane`](crate::GridEngine::import_lane). Callers splicing
    /// untrusted snapshots should gate on [`LaneState::same_geometry`]
    /// against a template exported from the target engine.
    pub fn decode(bytes: &[u8]) -> Result<LaneState, StateCodecError> {
        let mut r = Cursor::new(bytes);
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
        let shard_count = r.u32()? as usize;
        // Each shard is at least a tag byte plus its config (> 20 bytes).
        if shard_count == 0 || shard_count > r.remaining() / 20 {
            return Err(StateCodecError::BadLength(shard_count as u64));
        }
        let shards = (0..shard_count)
            .map(|_| decode_shard(&mut r))
            .collect::<Result<Vec<_>, StateCodecError>>()?;
        // Monolithic lanes carry one shard whose read vector *is* the
        // merged row; DNC-D merges equal-width shard reads element-wise —
        // either way every shard read and the merged row share one width.
        let read_width = shards[0].1.len();
        if shards.iter().any(|(_, sr)| sr.len() != read_width) {
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
            && self.shards.iter().zip(&other.shards).all(|((a, ra), (b, rb))| {
                ra.len() == rb.len()
                    && a.unit().config() == b.unit().config()
                    && match (a, b) {
                        (LaneMemory::F32(_), LaneMemory::F32(_)) => true,
                        (LaneMemory::Quantized(qa), LaneMemory::Quantized(qb)) => {
                            qa.format() == qb.format()
                        }
                        _ => false,
                    }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EngineBuilder, EngineSpec, Topology};
    use crate::DncParams;
    use hima_tensor::Matrix as M;

    fn params() -> DncParams {
        DncParams::new(16, 6, 2).with_hidden(12).with_io(5, 5)
    }

    fn spec_grid() -> Vec<EngineSpec> {
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
            for ((src, _), (dst, _)) in state.shards.iter().zip(&decoded.shards) {
                let (a, b) = (src.unit().read_weightings(), dst.unit().read_weightings());
                assert_eq!(a.shape(), (p.read_heads, src.unit().config().memory_size));
                assert!(a.as_slice().iter().any(|&w| w != 0.0), "vacuous: nothing was read");
                let bits = |m: &M| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b));
            }
        }
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
