//! # transfer — file-transfer tooling
//!
//! The paper moves files to its intermediate node with `rsync` and notes two
//! things: files on the DTN are deleted before each run (so rsync gets no
//! delta benefit) and the files are random data (so nothing compresses).
//! This crate implements the actual machinery so those statements can be
//! *verified* rather than assumed:
//!
//! * [`filegen`] — deterministic `dd`-style random file generation, plus a
//!   mutator for producing "similar" files (delta-transfer tests).
//! * [`md5`] — the MD5 digest (RFC 1321), rsync's strong block checksum,
//!   implemented from scratch and checked against the RFC test vectors,
//!   plus the 2 KiB chunk-tree [`md5::file_digest`] every delta carries as
//!   its whole-file check.
//! * [`rolling`] — rsync's 32-bit rolling checksum with O(1) window slide.
//! * [`signature`] / [`delta`] / [`patch`] — the full rsync round trip:
//!   block signatures of the basis file, delta computation against a rolling
//!   window over the target, and patch application.
//! * [`wire`] — the byte-cost model used by the WAN simulator: exactly how
//!   many bytes cross the wire for a given (basis, target) pair, and the
//!   closed-form for the paper's fresh-file case.
//! * [`syncpop`] — mutating sync populations: seeded file sets that evolve
//!   round by round (edits/appends/rewrites/truncations/churn), so the delta
//!   path is exercised by realistic workloads instead of fresh copies.
//! * [`chunk`] — content-addressed chunk manifests, the unit of cross-user
//!   deduplication at DTN relays.
//!
//! ## The rsync round trip
//!
//! ```
//! use transfer::{apply_delta, compute_delta, FileGen, Signature};
//!
//! let gen = FileGen::new(7);
//! let basis = gen.random_file(50_000);            // the DTN's old copy
//! let target = gen.similar_file(&basis, 3, 128);  // the user's new version
//!
//! let sig = Signature::compute(&basis, 2048);     // receiver → sender
//! let delta = compute_delta(&sig, &target);       // sender → receiver
//! let rebuilt = apply_delta(&basis, 2048, &delta).unwrap();
//! assert_eq!(rebuilt, target);
//! // Only the changed blocks crossed the wire:
//! assert!(delta.literal_bytes() < 10_000);
//! ```

pub mod chunk;
pub mod delta;
pub mod filegen;
pub mod md5;
pub mod patch;
pub mod rolling;
pub mod signature;
pub mod syncpop;
pub mod wire;

pub use chunk::{ChunkManifest, ChunkRef, DEFAULT_CHUNK_SIZE};
pub use delta::{compute_delta, Delta, DeltaOp};
pub use filegen::FileGen;
pub use md5::Md5;
pub use patch::apply_delta;
pub use rolling::RollingChecksum;
pub use signature::{BlockSignature, Signature, DEFAULT_BLOCK_SIZE};
pub use syncpop::{
    mutate, FileChange, MutationKind, MutationMix, SyncPopulation, SyncPopulationConfig,
};
pub use wire::{RsyncWirePlan, StreamWirePlan};
