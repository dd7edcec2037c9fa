//! The lossless body of an int8 wire frame, laid out in [`crate::wire`]:
//! a mode byte, then either the element bytes as they are (mode 0) or a
//! canonical Huffman code over them (mode 1), whichever is shorter. The
//! lengths must form a complete prefix code, and the stream ends with its
//! `numel`-th code, so the body delimits itself.

use mea_tensor::{Reader, WireError};

/// The mode byte of a body holding the element bytes as they are.
const RAW: u8 = 0;
/// The mode byte of a body holding a canonical Huffman code.
const CODED: u8 = 1;
/// The longest code a four-bit length can name.
const MAX_LEN: usize = 15;
/// Bytes of the code-length table.
const TABLE_BYTES: usize = 128;
/// Codes up to this long decode with one table lookup; longer ones walk
/// the canonical lengths.
const PEEK: usize = 10;

/// A frame's elements and how they travel: the code lengths of a coded
/// body, or `None` when the raw bytes are no longer.
pub(crate) struct Body<'a> {
    data: &'a [i8],
    zero_point: i8,
    lens: Option<[u8; 256]>,
    len: u64,
}

/// An element's symbol in a coded body: its offset from the zero point.
fn symbol(q: i8, zero_point: i8) -> u8 {
    q.wrapping_sub(zero_point) as u8
}

impl<'a> Body<'a> {
    /// Picks the shorter body for `data` on the grid with `zero_point`:
    /// raw on a tie.
    pub(crate) fn plan(data: &'a [i8], zero_point: i8) -> Body<'a> {
        // Four tables, so that runs of one symbol (the zero point) do not
        // queue on one counter.
        let mut tables = [[0u32; 256]; 4];
        let mut quads = data.chunks_exact(4);
        for quad in &mut quads {
            for (table, &q) in tables.iter_mut().zip(quad) {
                table[symbol(q, zero_point) as usize] += 1;
            }
        }
        quads.remainder().iter().for_each(|&q| tables[0][symbol(q, zero_point) as usize] += 1);
        let hist: [u32; 256] = std::array::from_fn(|s| tables.iter().map(|t| t[s]).sum());
        let lens = limited_lengths(&hist);
        let bits: u64 = hist.iter().zip(&lens).map(|(&n, &l)| n as u64 * l as u64).sum();
        let coded = TABLE_BYTES as u64 + bits.div_ceil(8);
        let (lens, len) = if coded < data.len() as u64 { (Some(lens), coded) } else { (None, data.len() as u64) };
        Body { data, zero_point, lens, len: 1 + len }
    }

    /// Bytes the body takes on the wire, its mode byte included.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Appends the body.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        let Some(lens) = &self.lens else {
            out.push(RAW);
            out.extend(self.data.iter().map(|&q| q as u8));
            return;
        };
        out.push(CODED);
        out.extend(lens.chunks(2).map(|pair| pair[0] | pair[1] << 4));
        // Each symbol's code above its length, in one entry.
        let mut entries = [0u32; 256];
        for ((entry, &code), &l) in entries.iter_mut().zip(&canonical_codes(lens)).zip(lens) {
            *entry = (code as u32) << 4 | l as u32;
        }
        let start = out.len();
        let stream = (self.len - 1) as usize - TABLE_BYTES;
        // Every step stores the eight bytes at the cursor and then moves it
        // past the whole ones, so the stream needs eight bytes of room.
        out.resize(start + stream + 8, 0);
        let buf = &mut out[start..];
        let (mut acc, mut held, mut pos) = (0u64, 0usize, 0usize);
        // Three codes a step: with the up to 7 bits left over, at most 52.
        for step in self.data.chunks(3) {
            for &q in step {
                let entry = entries[symbol(q, self.zero_point) as usize];
                acc = acc << (entry & 0xF) | (entry >> 4) as u64;
                held += (entry & 0xF) as usize;
            }
            // The `held` unwritten bits, top-aligned.
            buf[pos..pos + 8].copy_from_slice(&(acc << (64 - held)).to_be_bytes());
            pos += held / 8;
            held %= 8;
        }
        out.truncate(start + stream);
    }
}

/// Reads the body of `numel` elements on the grid with `zero_point`,
/// appending them to `out`.
///
/// # Errors
///
/// [`WireError::Truncated`] when the bytes end before `numel` elements,
/// [`WireError::UnknownTag`] on a mode byte other than 0 or 1, and
/// [`WireError::BadCode`] on a length table that is not a complete prefix
/// code or padding bits that are not zero.
pub(crate) fn read(r: &mut Reader<'_>, numel: usize, zero_point: i8, out: &mut Vec<i8>) -> Result<(), WireError> {
    match r.u8()? {
        RAW => out.extend(r.take(numel)?.iter().map(|&b| b as i8)),
        CODED => {
            let mut lens = [0u8; 256];
            for (pair, &b) in lens.chunks_mut(2).zip(r.take(TABLE_BYTES)?) {
                pair.copy_from_slice(&[b & 0xF, b >> 4]);
            }
            // Every code is at least one bit: more elements than bits is a
            // short stream, rejected before anything is sized by `numel`.
            r.count(numel.div_ceil(8), 1)?;
            let used = Decoder::new(&lens)?.decode(r.rest(), numel, zero_point, out)?;
            r.take(used)?;
        }
        mode => return Err(WireError::UnknownTag(mode)),
    }
    Ok(())
}

/// Huffman code lengths for `hist`, none longer than [`MAX_LEN`]: the
/// counts are halved (a non-zero count stays non-zero) until the optimal
/// code fits. A lone symbol gets a one-bit code and lends its neighbour
/// the other, so every code the encoder writes is complete.
fn limited_lengths(hist: &[u32; 256]) -> [u8; 256] {
    let mut counts = *hist;
    loop {
        let lens = huffman_lengths(&counts);
        if lens.iter().all(|&l| l as usize <= MAX_LEN) {
            return lens;
        }
        counts.iter_mut().for_each(|c| *c = c.div_ceil(2));
    }
}

/// Optimal (unlimited) Huffman code lengths: the two-queue merge over the
/// leaves sorted by count, then each node's depth from its parent's.
fn huffman_lengths(counts: &[u32; 256]) -> [u8; 256] {
    // Each leaf is its count above its symbol, so one integer sort orders
    // them by count.
    let mut leaves = [0u64; 256];
    let mut n = 0;
    for (s, &c) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
        leaves[n] = (c as u64) << 8 | s as u64;
        n += 1;
    }
    let leaves = &mut leaves[..n];
    leaves.sort_unstable();
    let mut lens = [0u8; 256];
    if let [leaf] = *leaves {
        lens[leaf as u8 as usize] = 1;
        lens[(leaf as u8 ^ 1) as usize] = 1;
    }
    if n < 2 {
        return lens;
    }
    // Nodes 0..n are the leaves, n.. the merges in the order they form,
    // so merge weights never decrease and two queues replace a heap.
    let mut weight = [0u64; 511];
    let mut parent = [0u16; 511];
    leaves.iter().zip(&mut weight).for_each(|(&leaf, w)| *w = leaf >> 8);
    let (mut leaf, mut merged) = (0, n);
    for node in n..2 * n - 1 {
        for _ in 0..2 {
            let take_leaf = leaf < n && (merged == node || weight[leaf] <= weight[merged]);
            let child = if take_leaf { &mut leaf } else { &mut merged };
            weight[node] += weight[*child];
            parent[*child] = node as u16;
            *child += 1;
        }
    }
    let mut depth = [0u8; 511];
    for node in (0..2 * n - 2).rev() {
        depth[node] = depth[parent[node] as usize] + 1;
    }
    leaves.iter().zip(depth).for_each(|(&leaf, d)| lens[leaf as u8 as usize] = d);
    lens
}

/// Canonical codes for `lens`: by length, then by symbol, counting up.
fn canonical_codes(lens: &[u8; 256]) -> [u16; 256] {
    let mut next = first_codes(&length_counts(lens));
    let mut codes = [0u16; 256];
    for (code, &l) in codes.iter_mut().zip(lens).filter(|(_, &l)| l > 0) {
        *code = next[l as usize];
        next[l as usize] += 1;
    }
    codes
}

/// How many symbols have each length (index 0 counts the absent ones).
fn length_counts(lens: &[u8]) -> [u16; MAX_LEN + 1] {
    let mut count = [0u16; MAX_LEN + 1];
    lens.iter().for_each(|&l| count[l as usize] += 1);
    count
}

/// The first canonical code of each length.
fn first_codes(count: &[u16; MAX_LEN + 1]) -> [u16; MAX_LEN + 1] {
    let mut first = [0u16; MAX_LEN + 1];
    for l in 2..=MAX_LEN {
        first[l] = (first[l - 1] + count[l - 1]) << 1;
    }
    first
}

/// A canonical code's decoding tables.
struct Decoder {
    /// `symbol << 4 | length` for each [`PEEK`]-bit prefix of a code no
    /// longer than `PEEK`; 0 for the prefixes of longer codes.
    short: [u16; 1 << PEEK],
    /// Symbols ordered by (length, symbol): the canonical order.
    sorted: [u8; 256],
    count: [u16; MAX_LEN + 1],
    first: [u16; MAX_LEN + 1],
    /// Where each length's symbols start in `sorted`.
    start: [u16; MAX_LEN + 1],
}

impl Decoder {
    /// The tables for `lens` (each at most [`MAX_LEN`]).
    ///
    /// # Errors
    ///
    /// [`WireError::BadCode`] unless the lengths form a complete prefix
    /// code: their Kraft sum is exactly one.
    fn new(lens: &[u8; 256]) -> Result<Decoder, WireError> {
        if lens.iter().any(|&l| l as usize > MAX_LEN) {
            return Err(WireError::BadCode);
        }
        let mut count = length_counts(lens);
        count[0] = 0;
        let kraft: u32 = (1..=MAX_LEN).map(|l| (count[l] as u32) << (MAX_LEN - l)).sum();
        if kraft != 1 << MAX_LEN {
            return Err(WireError::BadCode);
        }
        let first = first_codes(&count);
        let mut start = [0u16; MAX_LEN + 1];
        for l in 2..=MAX_LEN {
            start[l] = start[l - 1] + count[l - 1];
        }
        let (mut sorted, mut short) = ([0u8; 256], [0u16; 1 << PEEK]);
        let mut next = start;
        let codes = canonical_codes(lens);
        for (s, (&l, &code)) in lens.iter().zip(&codes).enumerate().filter(|(_, (&l, _))| l > 0) {
            let l = l as usize;
            sorted[next[l] as usize] = s as u8;
            next[l] += 1;
            if l <= PEEK {
                let lo = (code as usize) << (PEEK - l);
                short[lo..lo + (1 << (PEEK - l))].fill((s as u16) << 4 | l as u16);
            }
        }
        Ok(Decoder { short, sorted, count, first, start })
    }

    /// Decodes `numel` elements from the front of `bytes` into `out` and
    /// returns the bytes the stream took.
    fn decode(&self, bytes: &[u8], numel: usize, zero_point: i8, out: &mut Vec<i8>) -> Result<usize, WireError> {
        let start = out.len();
        out.resize(start + numel, 0);
        // The next unread bits sit at the top of `acc`; `held` counts them,
        // and the bits below are the stream's or zero.
        let (mut acc, mut held, mut pos) = (0u64, 0usize, 0usize);
        // Three codes a refill: one fills `acc` to at least 56 bits.
        for step in out[start..].chunks_mut(3) {
            if let Some(word) = bytes.get(pos..pos + 8) {
                // The whole bytes that fit count; a partial one is read
                // again, to the same bits, by the next refill.
                acc |= u64::from_be_bytes(word.try_into().expect("eight bytes")) >> held;
                let whole = (63 - held) / 8;
                pos += whole;
                held += 8 * whole;
            } else {
                while held <= 56 && pos < bytes.len() {
                    acc |= (bytes[pos] as u64) << (56 - held);
                    held += 8;
                    pos += 1;
                }
            }
            for slot in step {
                let (s, l) = self.symbol((acc >> (64 - MAX_LEN)) as usize);
                if l > held {
                    return Err(WireError::Truncated);
                }
                *slot = (s as i8).wrapping_add(zero_point);
                acc <<= l;
                held -= l;
            }
        }
        // Whole unread bytes were read ahead: give them back. What is left
        // of the last byte is padding and must be zero.
        let pos = pos - held / 8;
        let pad = held % 8;
        if pad > 0 && acc >> (64 - pad) != 0 {
            return Err(WireError::BadCode);
        }
        Ok(pos)
    }

    /// The symbol and length of the code at the top of `bits`, the next
    /// [`MAX_LEN`] bits of the stream.
    fn symbol(&self, bits: usize) -> (u8, usize) {
        let entry = self.short[bits >> (MAX_LEN - PEEK)];
        if entry != 0 {
            return ((entry >> 4) as u8, (entry & 0xF) as usize);
        }
        // A complete code holds one code that `bits` starts with.
        (PEEK + 1..=MAX_LEN)
            .find_map(|l| {
                let offset = ((bits >> (MAX_LEN - l)) as u16).wrapping_sub(self.first[l]);
                (offset < self.count[l]).then(|| (self.sorted[(self.start[l] + offset) as usize], l))
            })
            .expect("a complete code decodes every bit pattern")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kraft(lens: &[u8; 256]) -> u32 {
        lens.iter().filter(|&&l| l > 0).map(|&l| 1u32 << (MAX_LEN - l as usize)).sum()
    }

    #[test]
    fn lengths_form_a_complete_code_for_any_histogram() {
        let mut fib = [0u32; 256];
        let (mut a, mut b) = (1u32, 1u32);
        for c in fib.iter_mut().take(30) {
            *c = a;
            (a, b) = (b, a + b);
        }
        let mut lone = [0u32; 256];
        lone[255] = 7;
        for hist in [fib, lone, [1; 256], std::array::from_fn(|s| (s as u32 * 7919) % 97)] {
            let lens = limited_lengths(&hist);
            assert!(lens.iter().all(|&l| l as usize <= MAX_LEN), "{lens:?}");
            assert_eq!(kraft(&lens), 1 << MAX_LEN, "{hist:?}");
            assert!(hist.iter().zip(&lens).all(|(&n, &l)| n == 0 || l > 0), "a present symbol has no code");
        }
        // The first 30 Fibonacci counts make an optimal code 29 bits deep.
        assert!(huffman_lengths(&fib).iter().any(|&l| l as usize > MAX_LEN));
    }

    #[test]
    fn codes_of_every_length_round_trip() {
        // Fibonacci counts over 16 symbols: an optimal code 15 bits deep,
        // so the stream holds codes the one-lookup table does not cover.
        let mut data = Vec::new();
        let (mut a, mut b) = (1usize, 1usize);
        for s in 0..16i8 {
            data.extend(std::iter::repeat_n(s - 5, a));
            (a, b) = (b, a + b);
        }
        let body = Body::plan(&data, -5);
        let lens = body.lens.expect("a skewed histogram travels coded");
        assert_eq!(lens.iter().max(), Some(&(MAX_LEN as u8)));
        let mut frame = Vec::new();
        body.write(&mut frame);
        assert_eq!(frame.len() as u64, body.len());
        frame.push(0xAB); // the next frame's first byte
        let (mut r, mut back) = (Reader::new(&frame), Vec::new());
        read(&mut r, data.len(), -5, &mut back).unwrap();
        assert_eq!((back, r.rest()), (data, &[0xAB][..]));
    }

    #[test]
    fn decoder_rejects_what_no_complete_code_is() {
        let mut lens = [8u8; 256];
        assert!(Decoder::new(&lens).is_ok());
        lens[0] = 7; // over-subscribed
        assert_eq!(Decoder::new(&lens).err(), Some(WireError::BadCode));
        lens[0] = 9; // incomplete
        assert_eq!(Decoder::new(&lens).err(), Some(WireError::BadCode));
        assert_eq!(Decoder::new(&[0; 256]).err(), Some(WireError::BadCode), "no symbol at all");
        // A length the four-bit table cannot write is rejected, not shifted.
        let mut long = [0u8; 256];
        long[..2].copy_from_slice(&[1, 16]);
        assert_eq!(Decoder::new(&long).err(), Some(WireError::BadCode));
    }
}
