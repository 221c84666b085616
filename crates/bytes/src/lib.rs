//! **hima-bytes**: the one bounded little-endian byte reader and the one
//! writer behind every byte format of the workspace — the serve wire
//! protocol, the `HLSS` lane state, the `HIMASNP1` snapshot frame and the
//! `HIMALOG1` delta log. Std-only, no dependencies.
//!
//! Fixed-width integers are little-endian, an `f32` is its IEEE-754 bit
//! pattern, and a vector is a `u32` count followed by its elements.
//! Every read is total: too few bytes, or a count the bytes cannot back,
//! come back as an [`Error`] that each format maps onto its own error
//! type, never as a panic.
//!
//! A decoded count or geometry becomes an allocation size in one place,
//! `Reader::bound`, behind [`Reader::count`] and [`Reader::f32s`]: it is
//! checked against what remains of the input, divided by the smallest
//! size an element can have, before it is a `usize` — so no forged field
//! can request more than the input it came in.

/// Why a read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the field being read.
    Truncated,
    /// A count claimed more elements than the remaining input can hold.
    BadLength(u64),
    /// A bool byte other than `0` or `1`.
    BadTag(u8),
    /// The input was not fully consumed.
    TrailingBytes(usize),
}

/// Sequential little-endian reader over a borrowed input.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps `input` for reading from its first byte.
    pub fn new(input: &'a [u8]) -> Self {
        Self { rest: input }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(Error::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.take(N)?.try_into().expect("`take` returns exactly N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a bool written as a `0`/`1` byte.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(Error::BadTag(t)),
        }
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, Error> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32, Error> {
        self.u32().map(f32::from_bits)
    }

    /// The one guard between a decoded count and an allocation: `n`
    /// elements of at least `min_bytes` each (non-zero) must fit in the
    /// remaining input. `n` is a decoded `u32` or the `u64` product of
    /// such fields; it is checked by division, so nothing wraps, and is a
    /// `usize` only once it passed.
    fn bound(&self, n: u64, min_bytes: usize) -> Result<usize, Error> {
        if n > (self.remaining() / min_bytes) as u64 {
            return Err(Error::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Reads a `u32` count of elements of at least `min_bytes` each,
    /// through the one guard.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, Error> {
        let n = self.u32()?;
        self.bound(n.into(), min_bytes)
    }

    /// Reads exactly `n` `f32` bit patterns into one exactly-sized vector.
    pub fn f32s(&mut self, n: u64) -> Result<Vec<f32>, Error> {
        let n = self.bound(n, 4)?;
        let words = self.take(n * 4)?.chunks_exact(4);
        Ok(words.map(|w| f32::from_bits(u32::from_le_bytes([w[0], w[1], w[2], w[3]]))).collect())
    }

    /// Reads a `u32`-counted `f32` vector.
    pub fn vec_f32(&mut self) -> Result<Vec<f32>, Error> {
        let n = self.u32()?;
        self.f32s(n.into())
    }

    /// Reads a `u32`-counted byte string, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Checks that the input was read to its end.
    pub fn finish(self) -> Result<(), Error> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(Error::TrailingBytes(n)),
        }
    }
}

/// The writer of [`Reader`]'s formats, appending to a byte vector.
pub trait Writer {
    /// The vector written to.
    fn buf(&mut self) -> &mut Vec<u8>;

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.buf().push(v);
    }

    /// Appends a bool as a `0`/`1` byte.
    fn put_bool(&mut self, v: bool) {
        self.put_u8(v.into());
    }

    /// Appends a `u16`.
    fn put_u16(&mut self, v: u16) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    fn put_u32(&mut self, v: u32) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    fn put_u64(&mut self, v: u64) {
        self.buf().extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its bit pattern.
    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends `f32` bit patterns, uncounted. The vector is sized once,
    /// then filled four bytes an element with no per-element capacity
    /// check: a copy loop the compiler vectorises.
    fn put_f32s(&mut self, v: &[f32]) {
        let buf = self.buf();
        let start = buf.len();
        buf.resize(start + v.len() * 4, 0);
        for (word, x) in buf[start..].chunks_exact_mut(4).zip(v) {
            word.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Appends a `u32`-counted `f32` vector.
    fn put_vec_f32(&mut self, v: &[f32]) {
        self.put_u32(v.len() as u32);
        self.put_f32s(v);
    }

    /// Appends a `u32`-counted byte string.
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf().extend_from_slice(v);
    }
}

impl Writer for Vec<u8> {
    fn buf(&mut self) -> &mut Vec<u8> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_round_trips() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_bool(true);
        out.put_u16(0xBEEF);
        out.put_u32(u32::MAX);
        out.put_u64(1 << 40);
        out.put_f32(-0.0);
        out.put_vec_f32(&[f32::NAN, 1.5]);
        out.put_bytes(b"key");
        let mut r = Reader::new(&out);
        assert_eq!((r.u8(), r.bool(), r.u16()), (Ok(7), Ok(true), Ok(0xBEEF)));
        assert_eq!((r.u32(), r.u64()), (Ok(u32::MAX), Ok(1 << 40)));
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        let v = r.vec_f32().unwrap();
        assert_eq!((v[0].to_bits(), v[1]), (f32::NAN.to_bits(), 1.5));
        assert_eq!(r.bytes(), Ok(&b"key"[..]));
        r.finish().unwrap();
    }

    #[test]
    fn short_input_bad_bools_and_leftovers_are_typed() {
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(Error::Truncated));
        assert_eq!(Reader::new(&[2]).bool(), Err(Error::BadTag(2)));
        assert_eq!(Reader::new(&[0; 3]).finish(), Err(Error::TrailingBytes(3)));
        let mut r = Reader::new(&[9, 9]);
        assert_eq!(r.take(3), Err(Error::Truncated));
        assert_eq!(r.remaining(), 2, "a failed read consumes nothing");
    }

    #[test]
    fn the_count_guard_divides_and_is_exact_at_the_boundary() {
        // Counts whose byte size wraps a 32-bit `usize`, or a `u64`, are
        // refused like any other count the input cannot back.
        for n in [1u32 << 30, (1 << 30) + 1, u32::MAX / 4, u32::MAX] {
            let bytes = n.to_le_bytes();
            assert_eq!(Reader::new(&bytes).vec_f32(), Err(Error::BadLength(n.into())));
        }
        assert_eq!(Reader::new(&[0; 8]).f32s(u64::MAX), Err(Error::BadLength(u64::MAX)));
        // Four elements back a count of four, three do not.
        let mut out = Vec::new();
        out.put_vec_f32(&[1.5; 4]);
        assert_eq!(Reader::new(&out).vec_f32().map(|v| v.len()), Ok(4));
        assert_eq!(Reader::new(&out[..out.len() - 4]).vec_f32(), Err(Error::BadLength(4)));
        // Elements of at least 33 bytes: 66 bytes back two of them.
        let r = Reader::new(&[0; 66]);
        assert_eq!((r.bound(2, 33), r.bound(3, 33)), (Ok(2), Err(Error::BadLength(3))));
    }
}
