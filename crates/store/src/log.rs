//! Append-only, CRC-guarded delta log of step inputs.
//!
//! Between snapshots, every step a session takes is appended here as one
//! self-delimiting record. Recovery is snapshot + replay: decode the
//! latest snapshot, then re-apply every logged step whose sequence
//! number exceeds the snapshot's. The layout, all little-endian:
//!
//! ```text
//! header:
//!   magic    8   b"HIMALOG1"
//!   key_len  u32
//!   key      key_len bytes        canonical spec key
//! records, repeated:
//!   len      u32                  body length in bytes
//!   body     len bytes            seq u64 | n u32 | n × f32 bit patterns
//!   crc      u32                  CRC-32 of body
//! ```
//!
//! A crash can tear the tail of this file mid-append. The reader is
//! total over that failure mode: it stops at the first record whose
//! length, framing, or CRC does not check out, returns every record
//! before it, and flags the tear — it never panics and never yields a
//! record that fails its checksum. A corrupt *header* is different: the
//! spec key itself is untrusted, so that surfaces as a typed
//! [`StoreError::Corrupt`] instead. A [`LogWriter`] opened on a torn log
//! first cuts it back to that same valid prefix, so a step appended
//! after a crash lands where the reader will find it.

use crate::crc::crc32;
use crate::store::{consult_faults, corrupt, StoreError};
use hima_bytes::{Reader, Writer};
use hima_chaos::{FaultPlan, FaultSite};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Leading magic of a delta-log file.
pub const LOG_MAGIC: [u8; 8] = *b"HIMALOG1";

/// Upper bound on a single record body (64 MiB) — mirrors the serve
/// protocol's frame cap; a corrupt length field must not drive an
/// allocation or swallow the rest of the file as "one record".
pub const MAX_RECORD: u32 = 64 << 20;

/// One recovered step: its sequence number and the input row fed to the
/// engine at that step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// 1-based step sequence number, monotone within a session.
    pub seq: u64,
    /// The input row exactly as stepped (f32 bit patterns round-trip).
    pub input: Vec<f32>,
}

/// The result of scanning a delta log: the valid record prefix plus a
/// flag for whether the file ended in a torn or corrupt tail.
#[derive(Debug, Clone, PartialEq)]
pub struct LogContents {
    /// Spec key from the log header.
    pub spec_key: Vec<u8>,
    /// Every record up to the first invalid one, in append order.
    pub steps: Vec<StepRecord>,
    /// True when trailing bytes were discarded (torn append or bit rot).
    pub torn_tail: bool,
}

/// Appends step records to one session's delta log.
///
/// Each [`append`](Self::append) issues a single `write_all` of the
/// fully framed record, so the bytes reach the OS immediately and
/// survive a process kill; only an OS crash can tear the tail, which the
/// reader tolerates and the next open cuts off. Callers must drop the
/// writer before compacting the log (snapshot, then truncate in place to
/// the header) — a stale handle's rollback length would point past the
/// truncated end, and a failed append would then pad the log with zeros.
#[derive(Debug)]
pub struct LogWriter {
    file: File,
    /// Byte length of the durable, well-framed prefix. A failed append
    /// truncates back to this, so one bad write can never strand later
    /// (successful) records behind a torn record.
    len: u64,
    /// Set when a failed append could not be rolled back; every
    /// subsequent append fails fast rather than corrupting the log.
    poisoned: bool,
    /// The framed record under construction, kept between appends so a
    /// step allocates nothing here.
    frame: Vec<u8>,
    faults: Option<Arc<FaultPlan>>,
}

impl LogWriter {
    /// Opens `path` for appending, writing the header first when the
    /// file is new or empty. A non-empty log is first truncated to the end
    /// of its last whole record — the prefix [`read_log`] returns — so
    /// nothing appended from here on sits behind a torn tail; a log whose
    /// header does not check out, or names another spec key, is refused
    /// with `InvalidData`.
    pub fn open(path: &Path, spec_key: &[u8]) -> std::io::Result<Self> {
        Self::open_with(path, spec_key, None)
    }

    /// [`open`](Self::open) with a fault plan consulted on every append
    /// and sync. An injected partial write tears the record's tail on
    /// disk — exactly the failure mode [`read_log`] tolerates.
    pub fn open_with(
        path: &Path,
        spec_key: &[u8],
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        let mut frame = Vec::new();
        file.read_to_end(&mut frame)?;
        let len = if frame.is_empty() {
            frame.extend_from_slice(&LOG_MAGIC);
            frame.put_bytes(spec_key);
            file.write_all(&frame)?;
            frame.len()
        } else {
            let (log, end) = parse(path, &frame).map_err(|e| match e {
                StoreError::Io(e) => e,
                corrupt => std::io::Error::new(std::io::ErrorKind::InvalidData, corrupt),
            })?;
            if log.spec_key != spec_key {
                let foreign = corrupt(path, "log is keyed by another spec");
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, foreign));
            }
            if end < frame.len() {
                file.set_len(end as u64)?;
            }
            end
        };
        Ok(Self { file, len: len as u64, poisoned: false, frame, faults })
    }

    /// Appends one step record as a single write.
    ///
    /// On failure the writer rolls the file back to the last well-framed
    /// length, so a torn partial record never strands later appends
    /// behind it; if even the rollback fails the writer poisons itself
    /// and refuses further appends.
    pub fn append(&mut self, seq: u64, input: &[f32]) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "log writer poisoned by an unrecoverable append failure",
            ));
        }
        let body_len = 12 + input.len() * 4;
        let frame = &mut self.frame;
        frame.clear();
        frame.put_u32(body_len as u32);
        frame.put_u64(seq);
        frame.put_vec_f32(input);
        let crc = crc32(&frame[4..]);
        frame.put_u32(crc);

        let result = match consult_faults(self.faults.as_deref(), FaultSite::StoreWrite) {
            Err(e) => Err(e),
            Ok(Some(keep)) => {
                // Injected partial append: write a torn prefix, then fail
                // the way a crashed write would.
                let _ = self.file.write_all(&frame[..keep.min(frame.len())]);
                Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected partial log append",
                ))
            }
            Ok(None) => self.file.write_all(frame),
        };
        match result {
            Ok(()) => {
                self.len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                if self.file.set_len(self.len).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Forces the log contents to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        consult_faults(self.faults.as_deref(), FaultSite::StoreFsync)?;
        self.file.sync_data()
    }
}

/// Cuts the delta log at `path` back to the header of a log keyed by
/// `spec_key`, in place: the file keeps its directory entry, so the next
/// [`LogWriter`] reopens it instead of creating one. An absent log stays
/// absent.
pub(crate) fn truncate_to_header(path: &Path, spec_key: &[u8]) -> std::io::Result<()> {
    match OpenOptions::new().write(true).open(path) {
        Ok(file) => file.set_len((LOG_MAGIC.len() + 4 + spec_key.len()) as u64),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Scans a delta log, returning the valid record prefix.
///
/// Tolerates a torn or bit-rotted tail (see module docs); errors only on
/// I/O failure or a corrupt header.
pub fn read_log(path: &Path) -> Result<LogContents, StoreError> {
    parse(path, &std::fs::read(path)?).map(|(log, _)| log)
}

/// The framing and CRC walk behind [`read_log`] and [`LogWriter::open`]:
/// the log's contents and the byte offset where its last whole record
/// ends.
fn parse(path: &Path, bytes: &[u8]) -> Result<(LogContents, usize), StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(LOG_MAGIC.len()) != Ok(&LOG_MAGIC[..]) || r.remaining() < 4 {
        return Err(corrupt(path, "bad delta-log header"));
    }
    let spec_key = match r.bytes() {
        Ok(key) if key.len() <= MAX_RECORD as usize => key.to_vec(),
        _ => return Err(corrupt(path, "delta-log key length out of bounds")),
    };
    let mut steps = Vec::new();
    let mut end = bytes.len() - r.remaining();
    // Anything that doesn't check out ends the valid prefix — keep what
    // came before.
    while r.remaining() > 0 {
        let Some(step) = record(&mut r) else { break };
        steps.push(step);
        end = bytes.len() - r.remaining();
    }
    Ok((LogContents { spec_key, steps, torn_tail: end < bytes.len() }, end))
}

/// One record — `len(4) + body(len) + crc(4)`, the body
/// `seq | n | n × f32` — or `None` if its framing, length or checksum
/// does not check out.
fn record(r: &mut Reader<'_>) -> Option<StepRecord> {
    let len = r.u32().ok().filter(|len| (12..=MAX_RECORD).contains(len))?;
    let body = r.take(len as usize).ok()?;
    if r.u32().ok()? != crc32(body) {
        return None;
    }
    let mut body = Reader::new(body);
    let step = StepRecord { seq: body.u64().ok()?, input: body.vec_f32().ok()? };
    body.finish().ok().map(|()| step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::test_dir;

    fn write_steps(path: &Path, key: &[u8], rows: &[(u64, Vec<f32>)]) {
        let mut w = LogWriter::open(path, key).unwrap();
        for (seq, row) in rows {
            w.append(*seq, row).unwrap();
        }
    }

    #[test]
    fn log_round_trips_bit_exactly() {
        let dir = test_dir("log-roundtrip");
        let path = dir.join("sess-1.log");
        // Include values that would not survive a decimal round trip.
        let rows = vec![
            (1, vec![0.1f32, -0.0, f32::MIN_POSITIVE]),
            (2, vec![1.0e-38, 1.618_034, -42.5]),
            (3, vec![]),
        ];
        write_steps(&path, b"spec", &rows);
        let log = read_log(&path).unwrap();
        assert_eq!(log.spec_key, b"spec");
        assert!(!log.torn_tail);
        assert_eq!(log.steps.len(), 3);
        for ((seq, row), rec) in rows.iter().zip(&log.steps) {
            assert_eq!(rec.seq, *seq);
            assert_eq!(rec.input.len(), row.len());
            for (a, b) in row.iter().zip(&rec.input) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn reopen_appends_without_duplicating_header() {
        let dir = test_dir("log-reopen");
        let path = dir.join("sess-2.log");
        write_steps(&path, b"k", &[(1, vec![1.0])]);
        write_steps(&path, b"k", &[(2, vec![2.0])]);
        let log = read_log(&path).unwrap();
        assert_eq!(log.steps.len(), 2);
        assert_eq!(log.steps[1].seq, 2);
        assert!(!log.torn_tail);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let dir = test_dir("log-torn");
        let path = dir.join("sess-3.log");
        write_steps(&path, b"k", &[(1, vec![1.0, 2.0]), (2, vec![3.0, 4.0])]);
        let full = std::fs::read(&path).unwrap();
        let header = 12 + 1; // magic + key_len + "k"
        let record = (full.len() - header) / 2;
        // Truncate at every byte inside the second record.
        for cut in 1..record {
            std::fs::write(&path, &full[..header + record + cut]).unwrap();
            let log = read_log(&path).unwrap();
            assert!(log.torn_tail, "cut at +{cut} not flagged");
            assert_eq!(log.steps.len(), 1, "cut at +{cut} lost the valid prefix");
            assert_eq!(log.steps[0].seq, 1);
        }
    }

    #[test]
    fn reopen_cuts_a_torn_tail_so_later_appends_are_read() {
        let dir = test_dir("log-reopen-torn");
        let path = dir.join("sess-6.log");
        let rows: Vec<(u64, Vec<f32>)> = (1..=4).map(|seq| (seq, vec![seq as f32; 3])).collect();
        write_steps(&path, b"k", &rows);
        let full = std::fs::read(&path).unwrap();
        let record = (full.len() - (12 + 1)) / 4;
        let three = full.len() - record;
        // Cut the 4th record at every byte offset, then append it again
        // through a reopened writer: it must land where the reader looks.
        for cut in 0..record {
            std::fs::write(&path, &full[..three + cut]).unwrap();
            write_steps(&path, b"k", &rows[3..]);
            let log = read_log(&path).unwrap();
            assert!(!log.torn_tail, "cut at +{cut} left the tear in place");
            assert_eq!(log.steps.len(), 4, "cut at +{cut} hid the appended step");
            assert_eq!(log.steps[3].seq, 4);
            assert_eq!(std::fs::read(&path).unwrap(), full, "cut at +{cut}");
        }
    }

    #[test]
    fn reopen_refuses_a_corrupt_header() {
        let dir = test_dir("log-reopen-badheader");
        let path = dir.join("sess-7.log");
        std::fs::write(&path, b"HIMALOG").unwrap();
        let err = LogWriter::open(&path, b"k").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), b"HIMALOG", "a refused log is left as it was");
    }

    #[test]
    fn reopen_refuses_a_log_keyed_by_another_spec() {
        let dir = test_dir("log-reopen-foreign");
        let path = dir.join("sess-1.log");
        write_steps(&path, b"spec-A", &[(1, vec![1.0])]);
        let before = std::fs::read(&path).unwrap();
        let err = LogWriter::open(&path, b"spec-B").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), before, "a refused log is left as it was");
        assert_eq!(read_log(&path).unwrap().steps.len(), 1);
    }

    #[test]
    fn corrupt_header_is_a_typed_error() {
        let dir = test_dir("log-badheader");
        let path = dir.join("sess-4.log");
        write_steps(&path, b"key", &[(1, vec![1.0])]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_log(&path), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn oversized_length_field_cannot_drive_allocation() {
        let dir = test_dir("log-badlen");
        let path = dir.join("sess-5.log");
        write_steps(&path, b"k", &[(1, vec![1.0])]);
        let mut w = LogWriter::open(&path, b"k").unwrap();
        // A hand-forged frame claiming 4 GiB of body.
        w.file.write_all(&u32::MAX.to_le_bytes()).unwrap();
        drop(w);
        let log = read_log(&path).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.steps.len(), 1);
    }
}
