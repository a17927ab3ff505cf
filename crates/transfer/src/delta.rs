//! Delta computation: the sender's half of rsync.
//!
//! Given the receiver's [`Signature`] and the new file, slide a
//! block-sized window over the file. Wherever the rolling checksum (and
//! then the strong checksum) matches a basis block, emit a [`DeltaOp::Copy`]
//! and jump the window past it; bytes that never match accumulate into
//! [`DeltaOp::Literal`] runs.
//!
//! One scan serves two callers. [`compute_delta`] turns its pieces into an
//! owned [`Delta`] and attaches the whole-file [`md5::file_digest`] the
//! receiver verifies. [`RsyncWirePlan::exact`] only prices them: a wire
//! plan never applies its delta, so it copies no literal run and hashes no
//! whole target.
//!
//! [`RsyncWirePlan::exact`]: crate::RsyncWirePlan::exact

use crate::md5::{self, LANES};
use crate::rolling::RollingChecksum;
use crate::signature::Signature;

/// One instruction in a delta script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy basis block `index` (receiver already has these bytes).
    Copy {
        /// Basis block index.
        index: u32,
    },
    /// Raw bytes the receiver does not have.
    Literal(Vec<u8>),
}

/// A delta script that reconstructs a target file from a basis file.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Instructions in order.
    pub ops: Vec<DeltaOp>,
    /// Length of the target file (sanity check at patch time).
    pub target_len: u64,
    /// Whole-file check of the target, verified after patching:
    /// [`md5::file_digest`], MD5 over the target's 2 KiB chunk digests.
    /// Sixteen bytes on the wire, as a one-shot MD5 would be.
    pub target_digest: [u8; 16],
}

impl Delta {
    /// Total literal payload carried by this delta.
    pub fn literal_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal(v) => v.len() as u64,
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Number of copy instructions.
    pub fn copy_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, DeltaOp::Copy { .. }))
            .count()
    }

    /// Bytes this delta occupies on the wire: a 5-byte header per op, the
    /// literal payload, and a 40-byte trailer.
    pub fn wire_bytes(&self) -> u64 {
        wire_cost(self.ops.len(), self.literal_bytes())
    }
}

/// Wire bytes of a delta of `ops` ops carrying `literal_bytes` of literal
/// payload: a 5-byte header per op (copies are header only), the payload,
/// and a 40-byte trailer (length + digest + framing).
pub(crate) fn wire_cost(ops: usize, literal_bytes: u64) -> u64 {
    ops as u64 * 5 + literal_bytes + 40
}

/// One op of a delta as the scan finds it, borrowing the target.
#[derive(Debug, Clone, Copy)]
enum Piece<'a> {
    /// Copy basis block `index`.
    Copy(u32),
    /// An unmatched run of the target.
    Literal(&'a [u8]),
}

/// Compute the delta from `basis` (described by `sig`) to `target`.
pub fn compute_delta(sig: &Signature, target: &[u8]) -> Delta {
    let ops = scan(sig, target)
        .into_iter()
        .map(|piece| match piece {
            Piece::Copy(index) => DeltaOp::Copy { index },
            Piece::Literal(run) => DeltaOp::Literal(run.to_vec()),
        })
        .collect();
    Delta {
        ops,
        target_len: target.len() as u64,
        target_digest: md5::file_digest(target),
    }
}

/// `compute_delta(sig, target).wire_bytes()`, from the same scan but
/// without the owned ops or the whole-file digest.
pub(crate) fn wire_bytes(sig: &Signature, target: &[u8]) -> u64 {
    let pieces = scan(sig, target);
    let literal_bytes = (pieces.iter())
        .map(|piece| match piece {
            Piece::Copy(_) => 0,
            Piece::Literal(run) => run.len() as u64,
        })
        .sum();
    wire_cost(pieces.len(), literal_bytes)
}

/// The rolling scan of `target` against `sig`: the delta's ops in order.
fn scan<'a>(sig: &Signature, target: &'a [u8]) -> Vec<Piece<'a>> {
    let bs = sig.block_size;
    let mut ops = Vec::new();
    // Unmatched bytes always form one contiguous run of the target,
    // `target[literal_start..pos]`; a copy op or the end of the target
    // closes it.
    let mut literal_start = 0usize;
    let mut pos = 0usize;

    let flush = |run: &'a [u8], ops: &mut Vec<Piece<'a>>| {
        if !run.is_empty() {
            ops.push(Piece::Literal(run));
        }
    };

    if sig.block_count() > 0 {
        // Invariant: whenever a full window fits at `pos`, `rc` is the
        // rolling state of `target[pos..pos + bs]`. A miss rolls it one byte;
        // a copy jumps a whole block and recomputes it at the new start.
        let mut rc = RollingChecksum::from_window(&target[..bs.min(target.len())]);
        while pos + bs <= target.len() {
            if sig.has_candidate(rc.value(), bs) {
                // Copy run: this window and the block-aligned ones after it
                // that also have a candidate, up to a lane group, are hashed
                // together. `run[..known]` are the windows' rolling states,
                // the first `len` of them with a candidate.
                let mut run = [rc; LANES];
                let (mut len, mut known) = (1, 1);
                while len < LANES && pos + (len + 1) * bs <= target.len() {
                    run[len] = RollingChecksum::from_window(&target[pos + len * bs..][..bs]);
                    known += 1;
                    if !sig.has_candidate(run[len].value(), bs) {
                        break;
                    }
                    len += 1;
                }
                let strong = md5::digest_chunks(&target[pos..pos + len * bs], bs);
                // Copies are accepted in order, as the byte-wise scan would
                // find them: after a copy it tests the next aligned window.
                let mut k = 0;
                while let Some(idx) = strong
                    .get(k)
                    .and_then(|s| sig.strong_match(run[k].value(), bs, s))
                {
                    flush(&target[literal_start..pos], &mut ops);
                    ops.push(Piece::Copy(idx));
                    pos += bs;
                    literal_start = pos;
                    k += 1;
                }
                if k == known {
                    // Every window with a known state was copied.
                    if pos + bs <= target.len() {
                        rc = RollingChecksum::from_window(&target[pos..pos + bs]);
                    }
                    continue;
                }
                // The window at `pos` has no strong match (or no candidate):
                // the byte-wise scan moves past it.
                rc = run[k];
            }
            if pos + bs < target.len() {
                rc.roll(target[pos], target[pos + bs]);
            }
            pos += 1;
        }
        // Tail shorter than one block: try to match the basis's short final
        // block exactly, otherwise it stays in the literal run.
        let tail = &target[pos..];
        if !tail.is_empty() {
            let tail_match = sig
                .blocks
                .last()
                .filter(|b| (b.len as usize) == tail.len() && (b.len as usize) < bs)
                .filter(|b| {
                    b.rolling == crate::rolling::checksum(tail)
                        && b.strong == md5::Md5::digest(tail)
                })
                .map(|b| b.index);
            if let Some(idx) = tail_match {
                flush(&target[literal_start..pos], &mut ops);
                ops.push(Piece::Copy(idx));
                literal_start = target.len();
            }
        }
    }
    // Whatever is left unmatched is literal; with an empty basis that is the
    // whole target (the paper's benchmark case).
    flush(&target[literal_start..], &mut ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filegen::FileGen;
    use crate::md5::Md5;
    use crate::signature::Signature;

    #[test]
    fn identical_files_are_all_copies() {
        let data = FileGen::new(1).random_file(10 * 2048);
        let sig = Signature::compute(&data, 2048);
        let delta = compute_delta(&sig, &data);
        assert_eq!(delta.literal_bytes(), 0);
        assert_eq!(delta.copy_count(), 10);
    }

    #[test]
    fn empty_basis_is_all_literal() {
        let data = FileGen::new(2).random_file(5000);
        let sig = Signature::empty(2048);
        let delta = compute_delta(&sig, &data);
        assert_eq!(delta.literal_bytes(), 5000);
        assert_eq!(delta.copy_count(), 0);
        // Wire cost ~ file size + small framing: rsync gains nothing, as the
        // paper states for its deleted-before-each-run workload.
        assert!(delta.wire_bytes() < 5000 + 64);
    }

    #[test]
    fn small_edit_transfers_little() {
        let g = FileGen::new(3);
        let basis = g.random_file(100 * 2048);
        let target = g.similar_file(&basis, 3, 0);
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &target);
        // 3 single-byte edits dirty at most 3 blocks: ≤ 3 * 2048 literals.
        assert!(
            delta.literal_bytes() <= 3 * 2048,
            "literals {}",
            delta.literal_bytes()
        );
        assert!(delta.copy_count() >= 97);
    }

    #[test]
    fn appended_tail_is_literal() {
        let g = FileGen::new(4);
        let basis = g.random_file(10 * 2048);
        let target = g.similar_file(&basis, 0, 777);
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &target);
        assert_eq!(delta.copy_count(), 10);
        assert_eq!(delta.literal_bytes(), 777);
    }

    #[test]
    fn short_final_block_matches() {
        let g = FileGen::new(5);
        let basis = g.random_file(2048 + 500); // one full + one short block
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &basis);
        assert_eq!(delta.literal_bytes(), 0);
        assert_eq!(delta.copy_count(), 2);
    }

    #[test]
    fn prefix_insertion_realigned() {
        // Insert bytes at the front; rolling matching must re-find every
        // original block at shifted offsets.
        let g = FileGen::new(6);
        let basis = g.random_file(20 * 2048);
        let mut target = vec![0xEE; 100];
        target.extend_from_slice(&basis);
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &target);
        assert_eq!(delta.literal_bytes(), 100);
        assert_eq!(delta.copy_count(), 20);
    }

    /// The matcher before copy runs: every window probed one at a time with
    /// [`Signature::find_match`]. Copy runs must reproduce its ops exactly.
    fn byte_wise_ops(sig: &Signature, target: &[u8]) -> Vec<DeltaOp> {
        let bs = sig.block_size;
        let (mut ops, mut literal, mut pos) = (Vec::new(), Vec::new(), 0);
        let close = |literal: &mut Vec<u8>, ops: &mut Vec<DeltaOp>| {
            if !literal.is_empty() {
                ops.push(DeltaOp::Literal(std::mem::take(literal)));
            }
        };
        while pos + bs <= target.len() {
            let window = &target[pos..pos + bs];
            match sig.find_match(crate::rolling::checksum(window), window) {
                Some(index) => {
                    close(&mut literal, &mut ops);
                    ops.push(DeltaOp::Copy { index });
                    pos += bs;
                }
                None => {
                    literal.push(target[pos]);
                    pos += 1;
                }
            }
        }
        let tail = &target[pos..];
        match sig.blocks.last() {
            Some(b) if !tail.is_empty() && b.len as usize == tail.len() && tail.len() < bs => {
                if b.rolling == crate::rolling::checksum(tail) && b.strong == md5::Md5::digest(tail)
                {
                    close(&mut literal, &mut ops);
                    ops.push(DeltaOp::Copy { index: b.index });
                } else {
                    literal.extend_from_slice(tail);
                }
            }
            _ => literal.extend_from_slice(tail),
        }
        close(&mut literal, &mut ops);
        ops
    }

    fn copies(indices: impl IntoIterator<Item = u32>) -> Vec<DeltaOp> {
        indices
            .into_iter()
            .map(|index| DeltaOp::Copy { index })
            .collect()
    }

    #[test]
    fn copy_run_breaks_at_a_rolling_collision() {
        use crate::rolling;
        // A forged window that collides with basis block 2 on the rolling
        // checksum (construction as in the signature tests) sits inside a
        // run of matching windows. It is hashed in the same lane group as
        // its neighbours, fails the strong check, and the scan goes on byte
        // by byte from it, exactly as the one-window-at-a-time matcher does.
        const BS: usize = 64;
        let mut pattern = vec![0u8; BS];
        pattern[1] = 2;
        let mut forged = vec![0u8; BS];
        forged[0] = 1;
        forged[2] = 1;
        assert_eq!(rolling::checksum(&pattern), rolling::checksum(&forged));
        let blocks: Vec<Vec<u8>> = (0..8)
            .map(|i| match i {
                2 => pattern.clone(),
                _ => FileGen::new(40 + 2 * i).random_file(BS),
            })
            .collect();
        let basis = blocks.concat();
        let mut target = basis.clone();
        target[2 * BS..3 * BS].copy_from_slice(&forged);
        let sig = Signature::compute(&basis, BS);

        let before = Md5::digest_invocations();
        let delta = compute_delta(&sig, &target);
        // Windows 0-3 are one lane group; after the forged window the run at
        // 3*BS has five windows: one more lane group and one window hashed
        // on its own. Lane-hashed windows are not one-shot digests, so the
        // counter sees that window and the file digest's single chunk (the
        // 512-byte target is shorter than one 2 KiB tree chunk).
        assert_eq!(Md5::digest_invocations() - before, 2);
        let mut want = copies([0, 1]);
        want.push(DeltaOp::Literal(forged));
        want.extend(copies(3..8));
        assert_eq!(delta.ops, want);
        assert_eq!(delta.ops, byte_wise_ops(&sig, &target));
    }

    #[test]
    fn copy_runs_take_the_first_duplicate_block() {
        // Blocks 0, 3 and 5 are one block; so are 1 and 4. Every run copies
        // the lowest index of a duplicate set, as the candidate walk does.
        const BS: usize = 128;
        let [a, b, c, d] = [60, 62, 64, 66].map(|seed| FileGen::new(seed).random_file(BS));
        let basis = [&a, &b, &c, &a, &b, &a, &d].map(|v| v.as_slice()).concat();
        let sig = Signature::compute(&basis, BS);
        let target = [&b, &a, &d, &a, &c, &a, &b, &b, &a]
            .map(|v| v.as_slice())
            .concat();
        let delta = compute_delta(&sig, &target);
        assert_eq!(delta.ops, copies([1, 0, 6, 0, 2, 0, 1, 1, 0]));
        assert_eq!(delta.ops, byte_wise_ops(&sig, &target));
    }

    #[test]
    fn copy_runs_end_at_a_short_final_block() {
        // Full runs of every length up to past a lane group, each followed
        // by the basis's short final block.
        const BS: usize = 256;
        let g = FileGen::new(23);
        for full in 0..=9 {
            let basis = g.random_file(full * BS + 77);
            let sig = Signature::compute(&basis, BS);
            let delta = compute_delta(&sig, &basis);
            assert_eq!(delta.ops, copies(0..=full as u32), "{full} full blocks");
            // An edit in the last full block breaks the run just before it.
            let mut target = basis.clone();
            if full > 0 {
                target[full * BS - 1] ^= 0x5a;
            }
            assert_eq!(
                compute_delta(&sig, &target).ops,
                byte_wise_ops(&sig, &target),
                "{full} full blocks, edited"
            );
        }
    }

    #[test]
    fn copy_runs_match_the_byte_wise_scan() {
        // Edited, shifted and duplicate-heavy targets: runs of every length
        // broken at every kind of window.
        for seed in 0..24u64 {
            let g = FileGen::new(100 + 2 * seed);
            let bs = [64, 128, 256][seed as usize % 3];
            let mut basis = g.random_file(40 * bs + seed as usize * 7);
            for (dst, src) in [(5, 1), (9, 1), (17, 3), (30, 3)] {
                let block = basis[src * bs..(src + 1) * bs].to_vec();
                basis[dst * bs..(dst + 1) * bs].copy_from_slice(&block);
            }
            let mut target = g.similar_file(&basis, seed as usize % 6, seed as usize * 13);
            target.splice(0..0, vec![0xEE; seed as usize % 5]);
            let sig = Signature::compute(&basis, bs);
            let delta = compute_delta(&sig, &target);
            assert_eq!(delta.ops, byte_wise_ops(&sig, &target), "seed {seed}");
            assert_eq!(wire_bytes(&sig, &target), delta.wire_bytes(), "seed {seed}");
        }
    }

    #[test]
    fn empty_target() {
        let basis = FileGen::new(7).random_file(4096);
        let sig = Signature::compute(&basis, 2048);
        let delta = compute_delta(&sig, &[]);
        assert!(delta.ops.is_empty());
        assert_eq!(delta.target_len, 0);
    }
}
