//! Atomic, CRC-guarded snapshot files.
//!
//! A snapshot captures one session's complete engine state (an opaque
//! byte payload — the serialized `LaneState`) at a known step count,
//! keyed by the canonical spec bytes of the configuration it belongs to.
//! The layout, all little-endian:
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
//! Writes go to a `.tmp` sibling, are fsynced, then renamed over the
//! final path — a reader never observes a half-written snapshot, and a
//! crash mid-write leaves the previous snapshot intact. Reads verify the
//! CRC before returning any payload, so a bit-rotted snapshot surfaces
//! as a typed [`StoreError::Corrupt`], never
//! as garbage state spliced into an engine.

use crate::crc::crc32;
use crate::store::{consult_faults, corrupt, StoreError};
use hima_chaos::{FaultPlan, FaultSite};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::Path;

/// Leading magic of a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HIMASNP1";

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

/// Writes a snapshot atomically: `.tmp` sibling, fsync, rename.
pub fn write_snapshot(
    path: &Path,
    spec_key: &[u8],
    step_seq: u64,
    state: &[u8],
) -> std::io::Result<()> {
    write_snapshot_with(path, spec_key, step_seq, state, None)
}

/// [`write_snapshot`] with an optional fault plan consulted at the
/// write, fsync, and rename sites. An injected fault at any site leaves
/// the previous snapshot (if one exists) untouched — the tmp sibling is
/// never renamed into place on a failed write.
pub(crate) fn write_snapshot_with(
    path: &Path,
    spec_key: &[u8],
    step_seq: u64,
    state: &[u8],
    faults: Option<&FaultPlan>,
) -> std::io::Result<()> {
    // The whole file in one buffer — magic, body, CRC of the body — so it
    // reaches the OS as one write.
    let mut frame = Vec::with_capacity(28 + spec_key.len() + state.len());
    frame.extend_from_slice(&SNAPSHOT_MAGIC);
    frame.extend_from_slice(&(spec_key.len() as u32).to_le_bytes());
    frame.extend_from_slice(spec_key);
    frame.extend_from_slice(&step_seq.to_le_bytes());
    frame.extend_from_slice(&(state.len() as u32).to_le_bytes());
    frame.extend_from_slice(state);
    let body_end = frame.len();
    let crc = crc32(&frame[SNAPSHOT_MAGIC.len()..]);
    frame.extend_from_slice(&crc.to_le_bytes());

    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = File::create(&tmp)?;
        if let Some(keep) = consult_faults(faults, FaultSite::StoreWrite)? {
            // Injected partial write: a torn tmp file (the magic and
            // `keep` body bytes) that is never renamed over the real
            // snapshot.
            f.write_all(&frame[..(SNAPSHOT_MAGIC.len() + keep).min(body_end)])?;
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "injected partial snapshot write",
            ));
        }
        f.write_all(&frame)?;
        consult_faults(faults, FaultSite::StoreFsync)?;
        f.sync_all()?;
    }
    if let Some(_keep) = consult_faults(faults, FaultSite::StoreRename)? {
        return Err(std::io::Error::new(
            std::io::ErrorKind::WriteZero,
            "injected rename failure",
        ));
    }
    fs::rename(&tmp, path)
}

/// Reads the spec key alone (for adoption scans that only need to route
/// the session to its engine group).
pub fn read_snapshot_key(path: &Path) -> Result<Vec<u8>, StoreError> {
    let (key, _, _) = read_verified(path)?;
    Ok(key)
}

/// Reads and CRC-verifies a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<(Vec<u8>, Snapshot), StoreError> {
    let (key, step_seq, state) = read_verified(path)?;
    Ok((key, Snapshot { step_seq, state }))
}

fn read_verified(path: &Path) -> Result<(Vec<u8>, u64, Vec<u8>), StoreError> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).map_err(|_| corrupt(path, "truncated snapshot header"))?;
    if magic != SNAPSHOT_MAGIC {
        return Err(corrupt(path, "bad snapshot magic"));
    }
    let mut body = Vec::new();
    f.read_to_end(&mut body)?;
    if body.len() < 4 {
        return Err(corrupt(path, "snapshot shorter than its checksum"));
    }
    let (body, crc_bytes) = body.split_at(body.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != stored {
        return Err(corrupt(path, "snapshot checksum mismatch"));
    }

    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        if body.len() - *pos < n {
            return Err(corrupt(path, "truncated snapshot body"));
        }
        let s = &body[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let key_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    if key_len > MAX_SECTION || key_len as usize > body.len() - pos {
        return Err(corrupt(path, "snapshot key length out of bounds"));
    }
    let key = take(&mut pos, key_len as usize)?.to_vec();
    let step_seq = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
    let state_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
    if state_len > MAX_SECTION || state_len as usize != body.len() - pos {
        return Err(corrupt(path, "snapshot state length out of bounds"));
    }
    let state = take(&mut pos, state_len as usize)?.to_vec();
    Ok((key, step_seq, state))
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
    fn rewrite_replaces_atomically() {
        let dir = test_dir("snap-rewrite");
        let path = dir.join("sess-1.snap");
        write_snapshot(&path, b"k", 1, b"old").unwrap();
        write_snapshot(&path, b"k", 9, b"new-state").unwrap();
        let (_, snap) = read_snapshot(&path).unwrap();
        assert_eq!(snap.step_seq, 9);
        assert_eq!(snap.state, b"new-state");
        assert!(!path.with_extension("snap.tmp").exists(), "tmp file left behind");
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
