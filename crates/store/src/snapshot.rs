//! CRC-guarded snapshot frames, written in place into slot files.
//!
//! A snapshot captures one session's complete engine state (an opaque
//! byte payload — the serialized `LaneState`) at a known step count,
//! keyed by the canonical spec bytes of the configuration it belongs to.
//! The frame, all little-endian:
//!
//! ```text
//! magic    8   b"HIMASNP1"
//! key_len  u32
//! key      key_len bytes     canonical spec key
//! step_seq u64               steps applied to reach this state
//! len      u32
//! state    len bytes         opaque engine state payload
//! crc      u32               CRC-32 of everything between magic and crc
//! ```
//!
//! A session owns two slot files that each hold one frame or a
//! [`RETIRED_MAGIC`] (see [`SessionStore`](crate::SessionStore) for how
//! they alternate). [`write_snapshot`] overwrites a slot at offset 0 —
//! over blocks a previous save already allocated, with no temporary
//! file and no rename — and `sync_all`s it before returning. A write
//! cut short leaves that slot *torn*: a prefix of the new frame over the
//! rest of the old one, which fails its CRC. Reads verify the CRC before
//! returning any payload, so a torn or bit-rotted frame surfaces as a
//! typed [`StoreError::Corrupt`], never as garbage state spliced into an
//! engine.

use crate::crc::crc32;
use crate::store::{consult_faults, corrupt, StoreError};
use hima_bytes::{Error, Reader, Writer};
use hima_chaos::{FaultPlan, FaultSite};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Leading magic of a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HIMASNP1";

/// Leading magic of a retired slot: its frame was superseded by a newer
/// snapshot in the session's other slot. Only the magic is rewritten;
/// the bytes behind it are the superseded frame and are never read.
pub const RETIRED_MAGIC: [u8; 8] = *b"HIMASNPR";

/// Upper bound on a snapshot's key or state payload (256 MiB): a corrupt
/// length field must not drive an allocation.
pub const MAX_SECTION: u32 = 256 << 20;

/// A loaded snapshot: the state payload and the step count it captures.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Steps applied to the session when this state was captured; delta-
    /// log records with sequence numbers beyond this still need replay.
    pub step_seq: u64,
    /// The opaque serialized engine state.
    pub state: Vec<u8>,
}

/// Overwrites the file at `path` (creating it when absent) with one
/// snapshot frame at offset 0, then `sync_all`s it.
pub fn write_snapshot(
    path: &Path,
    spec_key: &[u8],
    step_seq: u64,
    state: &[u8],
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(28 + spec_key.len() + state.len());
    encode_frame(&mut frame, spec_key, step_seq, state);
    write_frame(path, &frame, None)
}

/// Replaces `frame`'s contents with one snapshot frame of `state`: magic,
/// body, CRC of the body.
pub(crate) fn encode_frame(frame: &mut Vec<u8>, spec_key: &[u8], step_seq: u64, state: &[u8]) {
    frame.clear();
    frame.extend_from_slice(&SNAPSHOT_MAGIC);
    frame.put_bytes(spec_key);
    frame.put_u64(step_seq);
    frame.put_bytes(state);
    let crc = crc32(&frame[SNAPSHOT_MAGIC.len()..]);
    frame.put_u32(crc);
}

/// Overwrites the file at `path` (creating it when absent) with `frame`
/// at offset 0 — one write — then `sync_all`s it, with an optional fault
/// plan consulted at the write and the fsync. An injected partial write
/// leaves the slot torn (the magic and `keep` body bytes of the new frame
/// over the old contents); an injected fsync failure leaves the whole new
/// frame written but not known durable.
pub(crate) fn write_frame(path: &Path, frame: &[u8], faults: Option<&FaultPlan>) -> std::io::Result<()> {
    let body_end = frame.len() - 4;
    // No truncate: the new frame lands on the blocks the slot already has.
    let mut f = OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
    if let Some(keep) = consult_faults(faults, FaultSite::StoreWrite)? {
        // Injected partial write: the magic and `keep` body bytes.
        f.write_all(&frame[..(SNAPSHOT_MAGIC.len() + keep).min(body_end)])?;
        return Err(std::io::Error::new(
            std::io::ErrorKind::WriteZero,
            "injected partial snapshot write",
        ));
    }
    f.write_all(frame)?;
    // A longer previous frame would leave its tail behind the new CRC.
    if f.metadata()?.len() > frame.len() as u64 {
        f.set_len(frame.len() as u64)?;
    }
    consult_faults(faults, FaultSite::StoreFsync)?;
    f.sync_all()
}

/// Marks the slot at `path` retired by overwriting its magic, creating
/// the file when absent. Not synced: a retirement lost to power loss
/// leaves two verifying slots, and the higher `step_seq` still wins.
pub(crate) fn retire_slot(path: &Path) -> std::io::Result<()> {
    OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?
        .write_all(&RETIRED_MAGIC)
}

/// What one slot file holds.
pub(crate) enum Slot {
    /// No file, or an empty one (created, never written).
    Absent,
    /// Superseded by the other slot.
    Retired,
    /// Non-empty, not retired, and fails to verify; carries the typed
    /// error that says why.
    Torn(StoreError),
    /// A verified frame: its spec key and snapshot.
    Valid(Vec<u8>, Snapshot),
}

/// Reads and classifies one slot file. Errors only on I/O failure;
/// every integrity failure is a [`Slot::Torn`].
pub(crate) fn read_slot(path: &Path) -> std::io::Result<Slot> {
    match read_verified(path) {
        Ok(slot) => Ok(slot),
        Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(Slot::Absent),
        Err(StoreError::Io(e)) => Err(e),
        Err(e @ StoreError::Corrupt { .. }) => Ok(Slot::Torn(e)),
    }
}

/// Reads the spec key of a snapshot file (verifying the whole frame).
pub fn read_snapshot_key(path: &Path) -> Result<Vec<u8>, StoreError> {
    let (key, _) = read_snapshot(path)?;
    Ok(key)
}

/// Reads and CRC-verifies a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<(Vec<u8>, Snapshot), StoreError> {
    match read_verified(path)? {
        Slot::Valid(key, snapshot) => Ok((key, snapshot)),
        Slot::Absent => Err(corrupt(path, "truncated snapshot header")),
        Slot::Retired => Err(corrupt(path, "snapshot slot is retired")),
        Slot::Torn(e) => Err(e),
    }
}

/// Opens and verifies `path`: an empty file is [`Slot::Absent`], a
/// retired one [`Slot::Retired`] (only its magic is read), anything else
/// a verified frame or a typed error — never [`Slot::Torn`].
fn read_verified(path: &Path) -> Result<Slot, StoreError> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 8];
    let mut got = 0;
    while got < magic.len() {
        match f.read(&mut magic[got..])? {
            0 if got == 0 => return Ok(Slot::Absent),
            0 => return Err(corrupt(path, "truncated snapshot header")),
            n => got += n,
        }
    }
    if magic == RETIRED_MAGIC {
        return Ok(Slot::Retired);
    }
    if magic != SNAPSHOT_MAGIC {
        return Err(corrupt(path, "bad snapshot magic"));
    }
    let mut body = Vec::new();
    f.read_to_end(&mut body)?;
    if body.len() < 4 {
        return Err(corrupt(path, "snapshot shorter than its checksum"));
    }
    let (body, crc) = body.split_at(body.len() - 4);
    if Reader::new(crc).u32() != Ok(crc32(body)) {
        return Err(corrupt(path, "snapshot checksum mismatch"));
    }

    // Behind the checksum, each length must still be backed by the body
    // and stay under the format's cap before anything is copied out.
    fn capped(section: &[u8]) -> Result<&[u8], Error> {
        match section.len() > MAX_SECTION as usize {
            true => Err(Error::BadLength(section.len() as u64)),
            false => Ok(section),
        }
    }
    let truncated = "truncated snapshot body";
    let field = |what| move |e| corrupt(path, if e == Error::Truncated { truncated } else { what });
    let mut r = Reader::new(body);
    let key = r.bytes().and_then(capped).map_err(field("snapshot key length out of bounds"))?;
    let step_seq = r.u64().map_err(field(truncated))?;
    let state_oob = field("snapshot state length out of bounds");
    let state = r.bytes().and_then(capped).map_err(state_oob)?;
    r.finish().map_err(state_oob)?;
    let (key, state) = (key.to_vec(), state.to_vec());
    Ok(Slot::Valid(key, Snapshot { step_seq, state }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::test_dir;

    #[test]
    fn snapshot_round_trips() {
        let dir = test_dir("snap-roundtrip");
        let path = dir.join("sess-7.snap");
        write_snapshot(&path, b"spec-key", 42, &[1, 2, 3, 250]).unwrap();
        let (key, snap) = read_snapshot(&path).unwrap();
        assert_eq!(key, b"spec-key");
        assert_eq!(snap.step_seq, 42);
        assert_eq!(snap.state, vec![1, 2, 3, 250]);
        assert_eq!(read_snapshot_key(&path).unwrap(), b"spec-key");
    }

    #[test]
    fn rewrite_overwrites_in_place() {
        let dir = test_dir("snap-rewrite");
        let path = dir.join("sess-1.snap");
        // Longer, then shorter, then retired and rewritten: each read
        // sees exactly the last frame written.
        write_snapshot(&path, b"k", 1, b"old-and-longer").unwrap();
        write_snapshot(&path, b"k", 9, b"new-state").unwrap();
        let (_, snap) = read_snapshot(&path).unwrap();
        assert_eq!(snap.step_seq, 9);
        assert_eq!(snap.state, b"new-state");
        retire_slot(&path).unwrap();
        assert!(matches!(read_slot(&path).unwrap(), Slot::Retired));
        write_snapshot(&path, b"k", 10, b"s").unwrap();
        assert_eq!(read_snapshot(&path).unwrap().1.step_seq, 10);
        let names: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["sess-1.snap"], "a sibling file was left behind");
    }

    #[test]
    fn slots_classify_absent_empty_retired_torn_and_valid() {
        let dir = test_dir("snap-classify");
        let path = dir.join("sess-4.snap");
        assert!(matches!(read_slot(&path).unwrap(), Slot::Absent));
        File::create(&path).unwrap();
        assert!(matches!(read_slot(&path).unwrap(), Slot::Absent), "empty file");
        retire_slot(&path).unwrap();
        assert!(matches!(read_slot(&path).unwrap(), Slot::Retired));
        assert!(matches!(read_snapshot(&path), Err(StoreError::Corrupt { .. })));
        write_snapshot(&path, b"k", 3, b"state").unwrap();
        assert!(matches!(read_slot(&path).unwrap(), Slot::Valid(k, s) if k == b"k" && s.step_seq == 3));
        std::fs::write(&path, b"HIMA").unwrap();
        assert!(matches!(read_slot(&path).unwrap(), Slot::Torn(StoreError::Corrupt { .. })));
    }

    #[test]
    fn bit_flip_is_a_typed_corruption_error() {
        let dir = test_dir("snap-bitflip");
        let path = dir.join("sess-2.snap");
        write_snapshot(&path, b"key", 3, &[9u8; 64]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match read_snapshot(&path) {
            Err(StoreError::Corrupt { what, .. }) => assert!(what.contains("checksum")),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_a_typed_corruption_error() {
        let dir = test_dir("snap-trunc");
        let path = dir.join("sess-3.snap");
        write_snapshot(&path, b"key", 3, &[7u8; 32]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for len in 0..bytes.len() {
            std::fs::write(&path, &bytes[..len]).unwrap();
            assert!(
                matches!(read_snapshot(&path), Err(StoreError::Corrupt { .. })),
                "prefix of {len} bytes accepted"
            );
        }
    }
}
