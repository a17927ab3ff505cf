//! Patch application: the receiver reconstructs the target file.

use crate::delta::{Delta, DeltaOp};
use crate::md5;
use std::fmt;

/// Errors during patch application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// A copy instruction referenced a basis block that does not exist.
    BadBlockIndex {
        /// The offending index.
        index: u32,
        /// Blocks available.
        available: u32,
    },
    /// Reconstructed length differs from the declared target length.
    LengthMismatch {
        /// What the delta declared.
        expected: u64,
        /// What reconstruction produced.
        actual: u64,
    },
    /// Whole-file checksum failed — the transfer is corrupt.
    ChecksumMismatch,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::BadBlockIndex { index, available } => {
                write!(f, "copy references block {index} but basis has {available}")
            }
            PatchError::LengthMismatch { expected, actual } => {
                write!(f, "reconstructed {actual} bytes, expected {expected}")
            }
            PatchError::ChecksumMismatch => write!(f, "whole-file checksum mismatch"),
        }
    }
}

impl std::error::Error for PatchError {}

/// Apply a delta to the basis file, verifying its length and its
/// [`md5::file_digest`].
pub fn apply_delta(basis: &[u8], block_size: usize, delta: &Delta) -> Result<Vec<u8>, PatchError> {
    assert!(block_size > 0, "block size must be positive");
    let n_blocks = basis.len().div_ceil(block_size) as u32;
    // The declared length comes off the wire: preallocate no more than the
    // ops can produce, and let the length check below reject the rest.
    let producible = (delta.copy_count() as u64)
        .saturating_mul(block_size as u64)
        .saturating_add(delta.literal_bytes());
    let mut out = Vec::with_capacity(delta.target_len.min(producible) as usize);
    for op in &delta.ops {
        match op {
            DeltaOp::Copy { index } => {
                if *index >= n_blocks {
                    return Err(PatchError::BadBlockIndex {
                        index: *index,
                        available: n_blocks,
                    });
                }
                let start = *index as usize * block_size;
                let end = (start + block_size).min(basis.len());
                out.extend_from_slice(&basis[start..end]);
            }
            DeltaOp::Literal(bytes) => out.extend_from_slice(bytes),
        }
    }
    if out.len() as u64 != delta.target_len {
        return Err(PatchError::LengthMismatch {
            expected: delta.target_len,
            actual: out.len() as u64,
        });
    }
    if md5::file_digest(&out) != delta.target_digest {
        return Err(PatchError::ChecksumMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::compute_delta;
    use crate::filegen::FileGen;
    use crate::signature::Signature;

    fn round_trip(basis: &[u8], target: &[u8], bs: usize) {
        let sig = Signature::compute(basis, bs);
        let delta = compute_delta(&sig, target);
        let rebuilt = apply_delta(basis, bs, &delta).expect("patch applies");
        assert_eq!(rebuilt, target);
    }

    #[test]
    fn round_trip_fresh_file() {
        let target = FileGen::new(1).random_file(50_000);
        round_trip(&[], &target, 2048);
    }

    #[test]
    fn round_trip_identical() {
        let data = FileGen::new(2).random_file(30_000);
        round_trip(&data, &data, 2048);
    }

    #[test]
    fn round_trip_edits() {
        let g = FileGen::new(3);
        let basis = g.random_file(60_000);
        let target = g.similar_file(&basis, 25, 1234);
        round_trip(&basis, &target, 2048);
    }

    #[test]
    fn round_trip_shrunk_target() {
        let g = FileGen::new(4);
        let basis = g.random_file(60_000);
        round_trip(&basis, &basis[..10_000], 2048);
    }

    #[test]
    fn round_trip_odd_block_sizes() {
        let g = FileGen::new(5);
        let basis = g.random_file(9_999);
        let target = g.similar_file(&basis, 2, 7);
        for bs in [1usize, 100, 700, 4096, 20_000] {
            round_trip(&basis, &target, bs);
        }
    }

    #[test]
    fn bad_block_index_rejected() {
        let basis = FileGen::new(6).random_file(4096);
        let delta = Delta {
            ops: vec![crate::delta::DeltaOp::Copy { index: 99 }],
            target_len: 2048,
            target_digest: [0; 16],
        };
        let err = apply_delta(&basis, 2048, &delta).unwrap_err();
        assert_eq!(
            err,
            PatchError::BadBlockIndex {
                index: 99,
                available: 2
            }
        );
    }

    #[test]
    fn corrupt_literal_caught_by_checksum() {
        let target = FileGen::new(7).random_file(5000);
        let sig = Signature::empty(2048);
        let mut delta = compute_delta(&sig, &target);
        if let crate::delta::DeltaOp::Literal(v) = &mut delta.ops[0] {
            v[0] ^= 0xFF;
        }
        let err = apply_delta(&[], 2048, &delta).unwrap_err();
        assert_eq!(err, PatchError::ChecksumMismatch);
    }

    #[test]
    fn flipped_byte_in_a_copied_block_caught_by_checksum() {
        // The basis differs from the target in one byte of a block the
        // delta copies, so the patched output is corrupt.
        let g = FileGen::new(9);
        let target = g.random_file(5 * 2048 + 300);
        let sig = Signature::compute(&target, 2048);
        let delta = compute_delta(&sig, &target);
        let mut basis = target.clone();
        basis[3 * 2048 + 11] ^= 0x01;
        let err = apply_delta(&basis, 2048, &delta).unwrap_err();
        assert_eq!(err, PatchError::ChecksumMismatch);
    }

    #[test]
    fn swapped_equal_length_chunks_caught_by_checksum() {
        // Two whole 2 KiB tree chunks trade places: every chunk digest is
        // still one of the target's, only their order differs.
        const C: usize = md5::FILE_DIGEST_CHUNK;
        let target = FileGen::new(10).random_file(6 * C);
        let mut delta = compute_delta(&Signature::empty(C), &target);
        let DeltaOp::Literal(v) = &mut delta.ops[0] else {
            panic!("an empty basis makes the whole target one literal");
        };
        let (first, rest) = v.split_at_mut(2 * C);
        first[C..].swap_with_slice(&mut rest[2 * C..3 * C]);
        let err = apply_delta(&[], C, &delta).unwrap_err();
        assert_eq!(err, PatchError::ChecksumMismatch);
    }

    #[test]
    fn absurd_declared_length_is_an_error_not_a_panic() {
        // Three literal bytes, declared as u64::MAX: preallocating the
        // declared length would abort with a capacity overflow.
        let delta = Delta {
            ops: vec![DeltaOp::Literal(vec![1, 2, 3])],
            target_len: u64::MAX,
            target_digest: md5::file_digest(&[1, 2, 3]),
        };
        assert_eq!(
            apply_delta(&[], 2048, &delta).unwrap_err(),
            PatchError::LengthMismatch {
                expected: u64::MAX,
                actual: 3
            }
        );
    }

    #[test]
    fn declared_length_one_past_the_output_is_rejected() {
        let target = FileGen::new(11).random_file(3000);
        let sig = Signature::compute(&target, 2048);
        let mut delta = compute_delta(&sig, &target);
        delta.target_len = 3001;
        assert_eq!(
            apply_delta(&target, 2048, &delta).unwrap_err(),
            PatchError::LengthMismatch {
                expected: 3001,
                actual: 3000
            }
        );
    }

    #[test]
    fn length_mismatch_caught() {
        let target = FileGen::new(8).random_file(5000);
        let sig = Signature::empty(2048);
        let mut delta = compute_delta(&sig, &target);
        delta.target_len = 4999;
        let err = apply_delta(&[], 2048, &delta).unwrap_err();
        assert!(matches!(err, PatchError::LengthMismatch { .. }));
    }
}
