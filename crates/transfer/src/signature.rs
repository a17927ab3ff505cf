//! Block signatures: the receiver's description of the basis file.
//!
//! In rsync the *receiver* (here: the DTN) splits its existing copy of the
//! file into fixed-size blocks and sends `(rolling, strong)` checksums per
//! block to the sender, which then hunts for those blocks in the new file.

use crate::md5::{self, Md5};
use crate::rolling;
use std::collections::HashMap;

/// Default block size (rsync uses ~700–16 KiB depending on file size; a
/// fixed 2 KiB is a reasonable middle ground for the file sizes in the
/// paper's workload).
pub const DEFAULT_BLOCK_SIZE: usize = 2048;

/// Words in the tag bitmap: one bit for each of the 2^16 tags.
const TAG_WORDS: usize = (1 << 16) / 64;

/// 16-bit tag of a rolling checksum: rsync's `gettag`, the sum of the two
/// 16-bit halves mod 2^16.
#[inline]
fn tag(rolling: u32) -> usize {
    ((rolling & 0xffff) + (rolling >> 16)) as usize & 0xffff
}

/// Signature of one basis block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSignature {
    /// Block index in the basis file.
    pub index: u32,
    /// Length (the final block may be short).
    pub len: u32,
    /// 32-bit rolling checksum.
    pub rolling: u32,
    /// 128-bit strong checksum.
    pub strong: [u8; 16],
}

/// The full signature of a basis file.
#[derive(Debug, Clone)]
pub struct Signature {
    /// Block size used.
    pub block_size: usize,
    /// Per-block signatures, in order.
    pub blocks: Vec<BlockSignature>,
    /// rolling checksum -> candidate block indices (collisions possible).
    index: HashMap<u32, Vec<u32>>,
    /// Bit `t` is set iff some block's rolling checksum has tag `t`: the
    /// 8 KiB filter (rsync's `tag_table`) that turns away most probes of an
    /// unmatched window before they reach `index`.
    tags: Box<[u64; TAG_WORDS]>,
}

impl Signature {
    /// Compute the signature of a basis file.
    pub fn compute(basis: &[u8], block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let mut blocks = Vec::with_capacity(basis.len() / block_size + 1);
        let mut index: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut tags = Box::new([0u64; TAG_WORDS]);
        let strong = md5::digest_chunks(basis, block_size);
        for ((i, chunk), strong) in basis.chunks(block_size).enumerate().zip(strong) {
            let rolling = rolling::checksum(chunk);
            blocks.push(BlockSignature {
                index: i as u32,
                len: chunk.len() as u32,
                rolling,
                strong,
            });
            index.entry(rolling).or_default().push(i as u32);
            let t = tag(rolling);
            tags[t / 64] |= 1 << (t % 64);
        }
        Signature {
            block_size,
            blocks,
            index,
            tags,
        }
    }

    /// Signature of an empty basis (the paper's fresh-file case).
    pub fn empty(block_size: usize) -> Self {
        Self::compute(&[], block_size)
    }

    /// Whether some block's rolling checksum shares the tag of `rolling`.
    #[inline]
    fn tagged(&self, rolling: u32) -> bool {
        let t = tag(rolling);
        self.tags[t / 64] & (1 << (t % 64)) != 0
    }

    /// Candidate blocks whose rolling checksum matches, in ascending block
    /// order. A probe whose tag no block carries returns at once, without
    /// hashing into the index.
    #[inline]
    pub fn candidates(&self, rolling: u32) -> &[u32] {
        if !self.tagged(rolling) {
            return &[];
        }
        self.index
            .get(&rolling)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Look up a block that matches both checksums over `window`.
    /// Only full-size blocks participate in rolling matching (short final
    /// blocks are matched separately by the delta generator).
    ///
    /// The strong hash of the window is computed at most once per call, and
    /// only when some candidate has the window's length, no matter how many
    /// blocks collide on the rolling checksum.
    pub fn find_match(&self, rolling: u32, window: &[u8]) -> Option<u32> {
        if !self.has_candidate(rolling, window.len()) {
            return None;
        }
        self.strong_match(rolling, window.len(), &Md5::digest(window))
    }

    /// Whether some `len`-byte block has rolling checksum `rolling`: exactly
    /// the windows [`Self::find_match`] hashes.
    ///
    /// The tag test is inlined into the caller's scan, so an unmatched
    /// window costs one bit test; the candidate walk stays out of line.
    #[inline]
    pub fn has_candidate(&self, rolling: u32, len: usize) -> bool {
        self.tagged(rolling) && self.any_of_len(rolling, len)
    }

    #[inline(never)]
    fn any_of_len(&self, rolling: u32, len: usize) -> bool {
        self.candidates_of_len(rolling, len).next().is_some()
    }

    /// The first `len`-byte candidate for `rolling`, in block order, whose
    /// strong checksum is `strong`: the match [`Self::find_match`] returns
    /// for a window of that length and digest.
    pub fn strong_match(&self, rolling: u32, len: usize, strong: &[u8; 16]) -> Option<u32> {
        self.candidates_of_len(rolling, len)
            .find(|&idx| self.blocks[idx as usize].strong == *strong)
    }

    fn candidates_of_len(&self, rolling: u32, len: usize) -> impl Iterator<Item = u32> + '_ {
        self.candidates(rolling)
            .iter()
            .copied()
            .filter(move |&idx| self.blocks[idx as usize].len as usize == len)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes this signature occupies on the wire: 4 (rolling) + 16 (strong)
    /// + 4 (index/len bookkeeping) per block, plus a 32-byte header.
    pub fn wire_bytes(&self) -> u64 {
        32 + (self.blocks.len() as u64) * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filegen::FileGen;

    #[test]
    fn block_partitioning() {
        let data = FileGen::new(1).random_file(5000);
        let sig = Signature::compute(&data, 2048);
        assert_eq!(sig.block_count(), 3);
        assert_eq!(sig.blocks[0].len, 2048);
        assert_eq!(sig.blocks[2].len, 5000 - 4096);
    }

    #[test]
    fn empty_basis() {
        let sig = Signature::empty(2048);
        assert_eq!(sig.block_count(), 0);
        assert_eq!(sig.wire_bytes(), 32);
        assert!(sig.candidates(12345).is_empty());
    }

    #[test]
    fn find_match_requires_both_checksums() {
        let data = FileGen::new(2).random_file(8192);
        let sig = Signature::compute(&data, 2048);
        let block0 = &data[..2048];
        let r = rolling::checksum(block0);
        assert_eq!(sig.find_match(r, block0), Some(0));
        // Same rolling value, different content: no match.
        let mut forged = block0.to_vec();
        forged.swap(0, 1); // swapping bytes changes content...
        forged.swap(0, 1); // ...restore; instead corrupt while keeping `a`:
        forged[0] = forged[0].wrapping_add(1);
        forged[1] = forged[1].wrapping_sub(1);
        // `a` is preserved but `b` usually changes; regardless, the strong
        // hash check must reject any content difference when probed with
        // block0's rolling value.
        assert_eq!(sig.find_match(r, &forged), None);
    }

    #[test]
    fn duplicate_heavy_basis_hashes_each_window_once() {
        use crate::rolling;
        // A basis of 16 identical blocks: every candidate list for that
        // rolling value has 16 entries. Probing with a *different* window
        // that collides on the rolling checksum must cost exactly one strong
        // digest, not one per colliding candidate.
        //
        // Collision construction (weights of `b` are linear in position):
        // zeros with x[1]=2 and zeros with x[0]=1, x[2]=1 share
        // a = 2 and b = 2*(L-1).
        const BS: usize = 64;
        let mut block = vec![0u8; BS];
        block[1] = 2;
        let mut forged = vec![0u8; BS];
        forged[0] = 1;
        forged[2] = 1;
        let r = rolling::checksum(&block);
        assert_eq!(
            r,
            rolling::checksum(&forged),
            "constructed windows must collide on the rolling checksum"
        );
        let basis: Vec<u8> = block.iter().copied().cycle().take(16 * BS).collect();
        let sig = Signature::compute(&basis, BS);
        assert_eq!(sig.candidates(r).len(), 16);

        let before = Md5::digest_invocations();
        assert_eq!(sig.find_match(r, &forged), None);
        assert_eq!(
            Md5::digest_invocations() - before,
            1,
            "one strong digest per probed window, even with 16 colliding candidates"
        );

        // A genuine match is still found, also at one digest.
        let before = Md5::digest_invocations();
        assert_eq!(sig.find_match(r, &block), Some(0));
        assert_eq!(Md5::digest_invocations() - before, 1);

        // Length-incompatible candidates never trigger a digest at all.
        let before = Md5::digest_invocations();
        assert_eq!(sig.find_match(r, &forged[..BS - 1]), None);
        assert_eq!(Md5::digest_invocations() - before, 0);
    }

    #[test]
    fn tag_filter_rejects_tag_collisions_and_keeps_candidate_order() {
        // Basis with repeated blocks, so some candidate lists hold several
        // indices whose order must survive the filter.
        const BS: usize = 256;
        let g = FileGen::new(9);
        let mut basis = g.random_file(40 * BS);
        for (dst, src) in [(5, 1), (17, 1), (30, 1), (22, 3), (39, 3)] {
            let block = basis[src * BS..(src + 1) * BS].to_vec();
            basis[dst * BS..(dst + 1) * BS].copy_from_slice(&block);
        }
        let sig = Signature::compute(&basis, BS);
        let present: std::collections::BTreeSet<u32> =
            sig.blocks.iter().map(|b| b.rolling).collect();

        // Every present value: exactly the linear scan, in block order.
        for &r in &present {
            let scan: Vec<u32> = sig
                .blocks
                .iter()
                .filter(|b| b.rolling == r)
                .map(|b| b.index)
                .collect();
            assert_eq!(sig.candidates(r), scan.as_slice(), "rolling {r:#010x}");
        }
        assert_eq!(sig.candidates(sig.blocks[1].rolling), &[1, 5, 17, 30]);

        // Forged values: same 16-bit tag as a basis block (moving one unit
        // between the halves keeps their sum), different 32-bit value. The
        // filter lets them through, and the index must still turn them away.
        let mut forged_probes = 0;
        for b in &sig.blocks {
            let (lo, hi) = (b.rolling & 0xffff, b.rolling >> 16);
            for (dlo, dhi) in [(1u32, 0xffffu32), (0xffff, 1), (0x100, 0xff00)] {
                let forged = ((lo + dlo) & 0xffff) | (((hi + dhi) & 0xffff) << 16);
                assert_eq!(tag(forged), tag(b.rolling));
                assert_ne!(forged, b.rolling);
                if present.contains(&forged) {
                    continue;
                }
                forged_probes += 1;
                assert!(sig.candidates(forged).is_empty(), "forged {forged:#010x}");
                assert_eq!(sig.find_match(forged, &basis[..BS]), None);
            }
        }
        assert!(forged_probes > 100);
    }

    #[test]
    fn wire_bytes_scale_with_blocks() {
        let data = FileGen::new(3).random_file(100 * 2048);
        let sig = Signature::compute(&data, 2048);
        assert_eq!(sig.wire_bytes(), 32 + 100 * 24);
    }

    #[test]
    fn exact_duplicate_blocks_share_candidates() {
        let block = FileGen::new(4).random_file(2048);
        let mut data = block.clone();
        data.extend_from_slice(&block);
        let sig = Signature::compute(&data, 2048);
        let r = rolling::checksum(&block);
        assert_eq!(sig.candidates(r).len(), 2);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        Signature::compute(b"data", 0);
    }
}
