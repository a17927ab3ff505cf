//! MD5 (RFC 1321), implemented from scratch.
//!
//! rsync uses MD5 as its strong block checksum (MD4 historically); we use it
//! the same way. MD5 is *not* collision-resistant and must never be used for
//! security — here it only guards against rolling-checksum false positives,
//! exactly as in rsync.
//!
//! One message at a time, MD5 runs at the latency of its 64-step dependency
//! chain. [`digest_chunks`] hashes many equal-length messages (rsync
//! signature blocks, chunk-manifest chunks, runs of delta windows) four
//! side by side, which the vector units take in one pass.

/// Binary integer parts of the sines of integers: floor(2^32 * |sin(i+1)|).
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

thread_local! {
    /// [`Md5::digest`] calls on this thread (see
    /// [`Md5::digest_invocations`]).
    static DIGEST_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Streaming MD5 context.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Fresh context.
    pub fn new() -> Self {
        Md5 {
            state: INIT,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Digest a whole message in one call.
    pub fn digest(data: &[u8]) -> [u8; 16] {
        DIGEST_CALLS.with(|c| c.set(c.get().wrapping_add(1)));
        let mut ctx = Md5::new();
        ctx.update(data);
        ctx.finalize()
    }

    /// Calls of [`Md5::digest`] (and so of [`Md5::hex_digest`]) on this
    /// thread so far; diff it around a region to count its one-shot digests.
    /// [`Signature::find_match`] makes one per strong probe. Messages that
    /// [`digest_chunks`] hashes in a lane group are not counted; the
    /// chunks it leaves over go through `digest` and are.
    ///
    /// [`Signature::find_match`]: crate::Signature::find_match
    pub fn digest_invocations() -> u64 {
        DIGEST_CALLS.with(|c| c.get())
    }

    /// Hex string of a whole-message digest.
    pub fn hex_digest(data: &[u8]) -> String {
        let d = Self::digest(data);
        let mut s = String::with_capacity(32);
        for b in d {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// Feed bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                // Data exhausted without filling the buffer; nothing more to
                // process and the tail code below must not clobber it.
                debug_assert!(data.is_empty());
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Full blocks compress straight from the input, without a copy.
        let (blocks, rem) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffered = rem.len();
    }

    /// Finish and produce the 16-byte digest.
    pub fn finalize(self) -> [u8; 16] {
        let mut state = self.state;
        let (blocks, count) = padding(&self.buffer[..self.buffered], self.length_bytes);
        for block in &blocks[..count] {
            compress(&mut state, block);
        }
        digest_bytes(state)
    }
}

/// Initial MD5 state (RFC 1321 §3.3).
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Messages [`digest_chunks`] hashes side by side.
pub(crate) const LANES: usize = 4;

/// One word of each of [`LANES`] messages.
type Lanes = [u32; LANES];

/// The final blocks of a `length_bytes`-byte message whose last
/// `tail.len() < 64` bytes are `tail`, and how many of them there are.
/// Padding: 0x80, zeros until length ≡ 56 (mod 64), then the 64-bit
/// little-endian bit length. A tail of 56 bytes or more leaves no room for
/// the length, which then goes into a second, all-padding block.
#[inline]
fn padding(tail: &[u8], length_bytes: u64) -> ([[u8; 64]; 2], usize) {
    let n = tail.len();
    let mut blocks = [[0u8; 64]; 2];
    blocks[0][..n].copy_from_slice(tail);
    blocks[0][n] = 0x80;
    let last = usize::from(n >= 56);
    blocks[last][56..].copy_from_slice(&length_bytes.wrapping_mul(8).to_le_bytes());
    (blocks, last + 1)
}

/// The digest bytes of a final state.
#[inline]
fn digest_bytes(state: [u32; 4]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The digests of `data.chunks(chunk_size)`, in order. Each run of four
/// full chunks is hashed side by side in one pass, at about three times the
/// one-message speed; the chunks after the last such run, the short final
/// chunk among them, go through [`Md5::digest`].
pub fn digest_chunks(data: &[u8], chunk_size: usize) -> Vec<[u8; 16]> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(data.len().div_ceil(chunk_size));
    let groups = data.chunks_exact(chunk_size.saturating_mul(LANES));
    let rest = groups.remainder();
    for group in groups {
        out.extend(digest_lanes(std::array::from_fn(|l| {
            &group[l * chunk_size..(l + 1) * chunk_size]
        })));
    }
    out.extend(rest.chunks(chunk_size).map(Md5::digest));
    out
}

/// The digests of [`LANES`] messages of one length, hashed side by side.
fn digest_lanes(msgs: [&[u8]; LANES]) -> [[u8; 16]; LANES] {
    let len = msgs[0].len();
    assert!(
        msgs.iter().all(|m| m.len() == len),
        "lanes differ in length"
    );
    let split = msgs.map(|m| m.as_chunks::<64>());
    let mut state = INIT.map(|w| [w; LANES]);
    for j in 0..len / 64 {
        compress_lanes(&mut state, split.map(|(blocks, _)| &blocks[j]));
    }
    let pads = split.map(|(_, tail)| padding(tail, len as u64));
    for k in 0..pads[0].1 {
        compress_lanes(&mut state, std::array::from_fn(|l| &pads[l].0[k]));
    }
    std::array::from_fn(|l| digest_bytes(state.map(|w| w[l])))
}

// The four auxiliary functions of RFC 1321 §3.4, in the usual forms that
// shorten the dependency chain through `b`, the word the previous step just
// wrote: `f` selects bits with one xor-and-xor instead of an or of two ands.
#[inline(always)]
fn f(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn g(b: u32, c: u32, d: u32) -> u32 {
    // The two terms share no bits, so `|` is `+`; adding `c & !d` first
    // keeps it off the dependency chain through `b`.
    (c & !d).wrapping_add(d & b)
}

#[inline(always)]
fn h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One MD5 step: `a = b + ((a + fun(b, c, d) + m + k) <<< s)`.
macro_rules! step {
    ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:literal) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($fun($b, $c, $d))
                .wrapping_add($m)
                .wrapping_add($k)
                .rotate_left($s),
        );
    };
}

/// The MD5 compression function over one 64-byte block, as 16 message
/// words: unrolled into the four rounds of 16 steps with constant message
/// indices and shifts.
#[inline(always)]
fn compress_words(state: &mut [u32; 4], m: &[u32; 16]) {
    let [mut a, mut b, mut c, mut d] = *state;

    // Round 1: message words in order.
    step!(f, a, b, c, d, m[0], K[0], 7);
    step!(f, d, a, b, c, m[1], K[1], 12);
    step!(f, c, d, a, b, m[2], K[2], 17);
    step!(f, b, c, d, a, m[3], K[3], 22);
    step!(f, a, b, c, d, m[4], K[4], 7);
    step!(f, d, a, b, c, m[5], K[5], 12);
    step!(f, c, d, a, b, m[6], K[6], 17);
    step!(f, b, c, d, a, m[7], K[7], 22);
    step!(f, a, b, c, d, m[8], K[8], 7);
    step!(f, d, a, b, c, m[9], K[9], 12);
    step!(f, c, d, a, b, m[10], K[10], 17);
    step!(f, b, c, d, a, m[11], K[11], 22);
    step!(f, a, b, c, d, m[12], K[12], 7);
    step!(f, d, a, b, c, m[13], K[13], 12);
    step!(f, c, d, a, b, m[14], K[14], 17);
    step!(f, b, c, d, a, m[15], K[15], 22);

    // Round 2: word (5i + 1) mod 16.
    step!(g, a, b, c, d, m[1], K[16], 5);
    step!(g, d, a, b, c, m[6], K[17], 9);
    step!(g, c, d, a, b, m[11], K[18], 14);
    step!(g, b, c, d, a, m[0], K[19], 20);
    step!(g, a, b, c, d, m[5], K[20], 5);
    step!(g, d, a, b, c, m[10], K[21], 9);
    step!(g, c, d, a, b, m[15], K[22], 14);
    step!(g, b, c, d, a, m[4], K[23], 20);
    step!(g, a, b, c, d, m[9], K[24], 5);
    step!(g, d, a, b, c, m[14], K[25], 9);
    step!(g, c, d, a, b, m[3], K[26], 14);
    step!(g, b, c, d, a, m[8], K[27], 20);
    step!(g, a, b, c, d, m[13], K[28], 5);
    step!(g, d, a, b, c, m[2], K[29], 9);
    step!(g, c, d, a, b, m[7], K[30], 14);
    step!(g, b, c, d, a, m[12], K[31], 20);

    // Round 3: word (3i + 5) mod 16.
    step!(h, a, b, c, d, m[5], K[32], 4);
    step!(h, d, a, b, c, m[8], K[33], 11);
    step!(h, c, d, a, b, m[11], K[34], 16);
    step!(h, b, c, d, a, m[14], K[35], 23);
    step!(h, a, b, c, d, m[1], K[36], 4);
    step!(h, d, a, b, c, m[4], K[37], 11);
    step!(h, c, d, a, b, m[7], K[38], 16);
    step!(h, b, c, d, a, m[10], K[39], 23);
    step!(h, a, b, c, d, m[13], K[40], 4);
    step!(h, d, a, b, c, m[0], K[41], 11);
    step!(h, c, d, a, b, m[3], K[42], 16);
    step!(h, b, c, d, a, m[6], K[43], 23);
    step!(h, a, b, c, d, m[9], K[44], 4);
    step!(h, d, a, b, c, m[12], K[45], 11);
    step!(h, c, d, a, b, m[15], K[46], 16);
    step!(h, b, c, d, a, m[2], K[47], 23);

    // Round 4: word 7i mod 16.
    step!(i, a, b, c, d, m[0], K[48], 6);
    step!(i, d, a, b, c, m[7], K[49], 10);
    step!(i, c, d, a, b, m[14], K[50], 15);
    step!(i, b, c, d, a, m[5], K[51], 21);
    step!(i, a, b, c, d, m[12], K[52], 6);
    step!(i, d, a, b, c, m[3], K[53], 10);
    step!(i, c, d, a, b, m[10], K[54], 15);
    step!(i, b, c, d, a, m[1], K[55], 21);
    step!(i, a, b, c, d, m[8], K[56], 6);
    step!(i, d, a, b, c, m[15], K[57], 10);
    step!(i, c, d, a, b, m[6], K[58], 15);
    step!(i, b, c, d, a, m[13], K[59], 21);
    step!(i, a, b, c, d, m[4], K[60], 6);
    step!(i, d, a, b, c, m[11], K[61], 10);
    step!(i, c, d, a, b, m[2], K[62], 15);
    step!(i, b, c, d, a, m[9], K[63], 21);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// [`compress_words`] over one 64-byte block of one message.
#[inline]
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    compress_words(state, &m);
}

/// [`compress_words`] over one block of each of [`LANES`] messages, the
/// states and message words laid out lane-minor. The loop over lanes runs
/// the same scalar steps once per lane; LLVM's loop vectoriser turns it
/// into one pass of 4-wide SIMD steps (SSE2 on the x86-64 baseline).
#[inline]
fn compress_lanes(state: &mut [Lanes; 4], blocks: [&[u8; 64]; LANES]) {
    let m: [Lanes; 16] = std::array::from_fn(|w| {
        std::array::from_fn(|l| {
            let b = &blocks[l][w * 4..w * 4 + 4];
            u32::from_le_bytes([b[0], b[1], b[2], b[3]])
        })
    });
    for l in 0..LANES {
        let mut s: [u32; 4] = std::array::from_fn(|w| state[w][l]);
        compress_words(&mut s, &std::array::from_fn(|w| m[w][l]));
        for (w, x) in state.iter_mut().zip(s) {
            w[l] = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(
                &Md5::hex_digest(input.as_bytes()),
                expected,
                "md5({input:?})"
            );
        }
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            Md5::hex_digest(b"The quick brown fox jumps over the lazy dog"),
            "9e107d9d372bb6826bd81d3542a419d6"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Md5::digest(&data);
        for chunk_size in [1, 3, 63, 64, 65, 1000, 4096] {
            let mut ctx = Md5::new();
            for chunk in data.chunks(chunk_size) {
                ctx.update(chunk);
            }
            assert_eq!(ctx.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all work.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xABu8; len];
            let d1 = Md5::digest(&data);
            let mut ctx = Md5::new();
            ctx.update(&data[..len / 2]);
            ctx.update(&data[len / 2..]);
            assert_eq!(ctx.finalize(), d1, "length {len}");
        }
    }

    /// Digests of `FileGen::new(11).random_file(n)` recorded with the
    /// original rolled compression loop and byte-wise padding. They pin the
    /// unrolled kernel and the one-shot padding to the same output across
    /// every padding case (tail < 56, = 56, 56..64, block-aligned) and
    /// multi-block inputs.
    #[test]
    fn golden_generated_files() {
        use crate::filegen::FileGen;
        let cases: &[(usize, &str)] = &[
            (0, "d41d8cd98f00b204e9800998ecf8427e"),
            (1, "0a476d83ef9cef4bce7f9025522be3b5"),
            (55, "fd6e20f4ee7c5339b7f343e77cbe52de"),
            (56, "53d8a3c59fe993f0dee373bb0aa82d08"),
            (63, "43942f779ec7237b658b80385fd56ead"),
            (64, "bdcdaf1887e53578e3898d0139dc9a79"),
            (65, "ae4c24853d6b9bc1d470a2bf6d6033ed"),
            (119, "3c4f83fa21033a106c55f18e315fae1c"),
            (120, "3e42385201983164b1e58da51e0f19d0"),
            (2047, "2574321600f5cc34e947f4cb98a6f4d2"),
            (2048, "84f91312c479da386a584431ef3c4a7e"),
            (8192, "e0c70a3e2c4004b8aff70c411880b05d"),
            (1 << 20, "3fde27de61c3af869c5232ddfe357ba9"),
        ];
        let gen = FileGen::new(11);
        for &(n, expected) in cases {
            assert_eq!(Md5::hex_digest(&gen.random_file(n)), expected, "n = {n}");
        }
    }

    #[test]
    fn digest_chunks_equals_one_shot_for_every_group_shape() {
        // Zero to nine full chunks, so fewer full chunks than lanes, whole
        // lane groups and groups with leftovers, each with every tail shape.
        use crate::filegen::FileGen;
        let data = FileGen::new(13).random_file(10 * 130);
        for chunk_size in [1, 55, 56, 63, 64, 65, 130] {
            for full in 0..10 {
                for tail in [0, 1, chunk_size / 2, chunk_size - 1] {
                    let msg = &data[..full * chunk_size + tail];
                    let one_shot: Vec<[u8; 16]> = msg.chunks(chunk_size).map(Md5::digest).collect();
                    assert_eq!(
                        digest_chunks(msg, chunk_size),
                        one_shot,
                        "chunk size {chunk_size}, {full} full, tail {tail}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(Md5::digest(b"hello"), Md5::digest(b"hellp"));
        assert_ne!(Md5::digest(b""), Md5::digest(b"\0"));
    }
}
