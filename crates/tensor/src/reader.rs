//! A bounds-checked cursor over received bytes, the one reader under every wire decoder: int8
//! frames, offload payloads, lane frames, state dicts. A read past the end fails instead of
//! panicking, and a count off the wire is checked against the bytes left before sizing anything.

use std::fmt;

/// Why an edge→cloud frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The bytes end before the content they declare.
    Truncated,
    /// A shape of rank 0, with a zero dim, or whose size overflows `usize`.
    BadShape,
    /// An unknown payload or quantization-scheme tag.
    UnknownTag(u8),
    /// Quantization parameters no int8 grid can hold.
    BadParams,
    /// A grid-indexed frame names a cut with no calibrated grid.
    NoGrid(usize),
    /// A per-channel frame's leading dim (second) differs from its grid's (first).
    GridMismatch(usize, usize),
    /// A frame's length is over the frame cap or wrong for its content.
    FrameLength(usize),
    /// An int8 frame's entropy-coded body: a code-length table that is not
    /// a complete prefix code, or padding bits that are not zero.
    BadCode,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire frame: {self:?}")
    }
}

impl std::error::Error for WireError {}

/// A cursor over received bytes, little-endian throughout.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let bytes = self.rest().get(..n).ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    /// Returns `n` if `n` items of at least `size` bytes fit in the rest: the check before sizing a `Vec`.
    pub fn count(&self, n: usize, size: usize) -> Result<usize, WireError> {
        n.checked_mul(size).filter(|&bytes| bytes <= self.rest().len()).map(|_| n).ok_or(WireError::Truncated)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Consumes a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Consumes a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Consumes `n` `f32`s, converted slice-wide. Inlined so that the
    /// caller's loop vectorises instead of calling the conversion per value.
    #[inline]
    pub fn f32s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = f32> + 'a, WireError> {
        let (values, _) = self.take(self.count(n, 4)? * 4)?.as_chunks::<4>();
        Ok(values.iter().map(|&b| f32::from_le_bytes(b)))
    }

    /// Consumes `rank` `u32` dims and returns them with their element
    /// count, rejecting what `crate::Shape::new` rejects and overflow.
    pub fn dims(&mut self, rank: usize) -> Result<(Vec<usize>, usize), WireError> {
        let dims =
            (0..self.count(rank, 4)?).map(|_| self.u32().map(|d| d as usize)).collect::<Result<Vec<_>, _>>()?;
        match dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) {
            Some(numel) if numel > 0 && rank > 0 => Ok((dims, numel)),
            _ => Err(WireError::BadShape),
        }
    }
}

/// Appends the shape block [`Reader::dims`] reads after a `u8` rank.
pub fn put_dims(out: &mut Vec<u8>, dims: &[usize]) {
    out.push(dims.len() as u8);
    out.extend(dims.iter().flat_map(|&d| (d as u32).to_le_bytes()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fail_with_truncated_instead_of_panicking() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        assert_eq!(r.position(), 0, "a failed read consumes nothing");
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.take(3), Err(WireError::Truncated));
        assert_eq!(r.take(2), Ok(&[2, 3][..]));
        assert_eq!(r.u8(), Err(WireError::Truncated));
        assert!(Reader::new(&[]).f32s(usize::MAX).is_err(), "the byte count must not overflow");
        let bytes: Vec<u8> = [1.5f32, -2.0].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(Reader::new(&bytes).f32s(2).unwrap().collect::<Vec<_>>(), vec![1.5, -2.0]);
        assert!(Reader::new(&bytes).f32s(3).is_err());
    }

    #[test]
    fn count_checks_remaining_bytes_before_sizing() {
        let r = Reader::new(&[0; 8]);
        assert_eq!(r.count(2, 4), Ok(2));
        assert_eq!(r.count(3, 4), Err(WireError::Truncated));
        assert_eq!(r.count(usize::MAX, 2), Err(WireError::Truncated));
    }

    #[test]
    fn dims_reject_what_shape_rejects_and_overflow() {
        let block = |dims: &[u32]| dims.iter().flat_map(|d| d.to_le_bytes()).collect::<Vec<u8>>();
        let ok = block(&[2, 3]);
        assert_eq!(Reader::new(&ok).dims(2), Ok((vec![2, 3], 6)));
        assert_eq!(Reader::new(&ok).dims(0), Err(WireError::BadShape));
        assert_eq!(Reader::new(&block(&[2, 0])).dims(2), Err(WireError::BadShape));
        assert_eq!(Reader::new(&block(&[65536; 4])).dims(4), Err(WireError::BadShape));
        assert_eq!(Reader::new(&ok).dims(3), Err(WireError::Truncated));
        assert_eq!(Reader::new(&ok).dims(u32::MAX as usize), Err(WireError::Truncated));
    }

    #[test]
    fn put_dims_writes_what_dims_reads() {
        let mut out = Vec::new();
        put_dims(&mut out, &[4, 5, 6]);
        let mut r = Reader::new(&out);
        let rank = r.u8().unwrap() as usize;
        assert_eq!(r.dims(rank), Ok((vec![4, 5, 6], 120)));
        assert!(r.rest().is_empty());
    }
}
