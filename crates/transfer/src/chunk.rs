//! Content-addressed chunk manifests.
//!
//! A [`ChunkManifest`] names a file's content as a sequence of fixed-size
//! chunks, each identified by its strong (MD5) hash. Relays keep a
//! content-addressed store of chunks they have already seen — from *any*
//! user — and a sender that presents a manifest only ships the chunks the
//! relay is missing. This is the cross-user deduplication layer the sync
//! scenario class measures: rsync's delta encoding saves bytes *within* one
//! (basis, target) pair, the chunk store saves bytes *across* tenants and
//! rounds.

use crate::md5;

/// Default chunk size for relay-side deduplication. Coarser than the rsync
/// block size (2 KiB): dedup chunks are store keys, not delta granules, and
/// a bigger unit keeps manifest overhead (20 B/chunk on the wire) small.
pub const DEFAULT_CHUNK_SIZE: usize = 8 * 1024;

/// Per-chunk wire overhead: 16-byte hash + 4-byte length.
pub const CHUNK_REF_WIRE_BYTES: u64 = 20;

/// Per-shipped-chunk framing overhead on top of the payload.
pub const CHUNK_FRAME_WIRE_BYTES: u64 = 4;

/// Manifest header wire cost.
pub const MANIFEST_HEADER_WIRE_BYTES: u64 = 16;

/// One chunk reference: strong hash plus length (the final chunk of a file
/// may be short).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRef {
    /// MD5 of the chunk's content.
    pub hash: [u8; 16],
    /// Chunk length in bytes.
    pub len: u32,
}

/// A file's content as an ordered list of chunk references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkManifest {
    /// Chunking unit (every chunk but the last has exactly this length).
    pub chunk_size: usize,
    /// Ordered chunk references.
    pub chunks: Vec<ChunkRef>,
}

impl ChunkManifest {
    /// Chunk `data` and hash every chunk.
    pub fn of(data: &[u8], chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let chunks = data
            .chunks(chunk_size)
            .zip(md5::digest_chunks(data, chunk_size))
            .map(|(c, hash)| ChunkRef {
                hash,
                len: c.len() as u32,
            })
            .collect();
        ChunkManifest { chunk_size, chunks }
    }

    /// Total content length the manifest describes.
    pub fn total_len(&self) -> u64 {
        self.chunks.iter().map(|c| c.len as u64).sum()
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Wire bytes to *describe* the content (header + one ref per chunk),
    /// before any chunk payloads are shipped.
    pub fn wire_bytes(&self) -> u64 {
        MANIFEST_HEADER_WIRE_BYTES + self.chunks.len() as u64 * CHUNK_REF_WIRE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filegen::FileGen;
    use crate::md5::Md5;

    #[test]
    fn chunking_covers_content() {
        let data = FileGen::new(1).random_file(20_000);
        let m = ChunkManifest::of(&data, 8192);
        assert_eq!(m.chunk_count(), 3);
        assert_eq!(m.chunks[0].len, 8192);
        assert_eq!(m.chunks[2].len, 20_000 - 16_384);
        assert_eq!(m.total_len(), 20_000);
    }

    #[test]
    fn identical_chunks_share_hashes() {
        let block = FileGen::new(2).random_file(8192);
        let mut data = block.clone();
        data.extend_from_slice(&block);
        let m = ChunkManifest::of(&data, 8192);
        assert_eq!(m.chunks[0], m.chunks[1]);
    }

    #[test]
    fn hash_matches_content_digest() {
        let data = FileGen::new(3).random_file(10_000);
        let m = ChunkManifest::of(&data, 4096);
        assert_eq!(m.chunks[0].hash, Md5::digest(&data[..4096]));
        assert_eq!(m.chunks[2].hash, Md5::digest(&data[8192..]));
    }

    #[test]
    fn empty_file_empty_manifest() {
        let m = ChunkManifest::of(&[], 4096);
        assert_eq!(m.chunk_count(), 0);
        assert_eq!(m.total_len(), 0);
        assert_eq!(m.wire_bytes(), MANIFEST_HEADER_WIRE_BYTES);
    }

    #[test]
    fn wire_bytes_accounting() {
        let data = FileGen::new(4).random_file(3 * 4096);
        let m = ChunkManifest::of(&data, 4096);
        assert_eq!(m.wire_bytes(), 16 + 3 * 20);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_panics() {
        ChunkManifest::of(b"x", 0);
    }
}
