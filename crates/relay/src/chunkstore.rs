//! Content-addressed chunk store at a DTN relay.
//!
//! A relay that has seen a chunk — from *any* user — never needs it shipped
//! again: senders present a [`ChunkManifest`] and only the chunks the store
//! is missing cross the forward leg. This turns detour relays from pure
//! store-and-forward hops into shared caches, deduplicating content across
//! tenants and rounds.
//!
//! The store is capacity-bounded with deterministic FIFO eviction (oldest
//! admission evicted first), so identically-seeded simulations — sequential,
//! sharded, replayed — agree byte-for-byte on its state. [`digest`] folds
//! that state into the simulation checker's chained digest.
//!
//! [`digest`]: ChunkStore::digest

use netsim::audit::Digest;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use transfer::chunk::{ChunkManifest, CHUNK_FRAME_WIRE_BYTES};

/// Cumulative counters for one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Chunk lookups performed by `plan`.
    pub probes: u64,
    /// Lookups that found the chunk resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Payload bytes the hits avoided shipping.
    pub hit_bytes: u64,
    /// Payload bytes the misses must still ship.
    pub miss_bytes: u64,
    /// Chunks admitted.
    pub admitted: u64,
    /// Chunks evicted to stay under capacity.
    pub evicted: u64,
}

impl ChunkStats {
    /// Hit rate over all probes so far (0 when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

/// The forward-leg cost of shipping one manifest through a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupPlan {
    /// Bytes the forward leg must carry: the manifest itself plus payload +
    /// framing for every missing chunk.
    pub wire_bytes: u64,
    /// Chunks described by the manifest.
    pub total_chunks: u64,
    /// Chunks already resident at the relay.
    pub hit_chunks: u64,
    /// Payload bytes the cache made unnecessary.
    pub hit_bytes: u64,
    /// Payload bytes that must still be shipped.
    pub miss_bytes: u64,
}

impl DedupPlan {
    /// Chunks that must be shipped.
    pub fn miss_chunks(&self) -> u64 {
        self.total_chunks - self.hit_chunks
    }

    /// Forward-leg bytes when the sender may ship either an rsync delta of
    /// `delta_bytes` or this plan: whichever is cheaper, the delta on a tie.
    /// Every sync leg prices its forward flow through this one rule.
    pub fn shipped_bytes(&self, delta_bytes: u64) -> u64 {
        if self.wire_bytes < delta_bytes {
            self.wire_bytes
        } else {
            delta_bytes
        }
    }
}

/// Capacity-bounded content-addressed chunk cache with FIFO eviction.
#[derive(Debug, Clone)]
pub struct ChunkStore {
    cap_bytes: u64,
    used_bytes: u64,
    /// hash → chunk length for resident chunks.
    resident: HashMap<[u8; 16], u32>,
    /// Admission order: front is the eviction candidate.
    fifo: VecDeque<[u8; 16]>,
    stats: ChunkStats,
}

impl ChunkStore {
    /// A store holding at most `cap_bytes` of chunk payload.
    pub fn new(cap_bytes: u64) -> Self {
        ChunkStore {
            cap_bytes,
            used_bytes: 0,
            resident: HashMap::new(),
            fifo: VecDeque::new(),
            stats: ChunkStats::default(),
        }
    }

    /// Capacity in payload bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// Payload bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Resident chunk count.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ChunkStats {
        self.stats
    }

    /// True when the chunk is resident (no stats side effect).
    pub fn contains(&self, hash: &[u8; 16]) -> bool {
        self.resident.contains_key(hash)
    }

    /// Probe every chunk of `manifest` and price the forward leg: manifest
    /// overhead plus payload + framing for the missing chunks only. Updates
    /// probe/hit/miss counters; residency is unchanged (admission happens
    /// when the transfer *succeeds*, via [`admit`](Self::admit)).
    ///
    /// Duplicate chunks within one manifest count as hits after the first
    /// miss: the first occurrence ships the payload, the rest ride on it.
    pub fn plan(&mut self, manifest: &ChunkManifest) -> DedupPlan {
        let mut hit_chunks = 0u64;
        let mut hit_bytes = 0u64;
        let mut miss_bytes = 0u64;
        let mut shipped: HashMap<[u8; 16], ()> = HashMap::new();
        for c in &manifest.chunks {
            self.stats.probes += 1;
            if self.resident.contains_key(&c.hash) || shipped.contains_key(&c.hash) {
                self.stats.hits += 1;
                self.stats.hit_bytes += c.len as u64;
                hit_chunks += 1;
                hit_bytes += c.len as u64;
            } else {
                self.stats.misses += 1;
                self.stats.miss_bytes += c.len as u64;
                miss_bytes += c.len as u64;
                shipped.insert(c.hash, ());
            }
        }
        let miss_chunks = manifest.chunks.len() as u64 - hit_chunks;
        DedupPlan {
            wire_bytes: manifest.wire_bytes() + miss_bytes + miss_chunks * CHUNK_FRAME_WIRE_BYTES,
            total_chunks: manifest.chunks.len() as u64,
            hit_chunks,
            hit_bytes,
            miss_bytes,
        }
    }

    /// Admit every chunk of `manifest` (called once the bytes actually
    /// arrived), evicting oldest admissions while over capacity. Chunks
    /// larger than the whole store are never admitted; re-admission of a
    /// resident chunk does not refresh its eviction position.
    pub fn admit(&mut self, manifest: &ChunkManifest) {
        for c in &manifest.chunks {
            if c.len as u64 > self.cap_bytes {
                continue;
            }
            if let Entry::Vacant(slot) = self.resident.entry(c.hash) {
                slot.insert(c.len);
                self.fifo.push_back(c.hash);
                self.used_bytes += c.len as u64;
                self.stats.admitted += 1;
            }
        }
        while self.used_bytes > self.cap_bytes {
            let hash = self.fifo.pop_front().expect("used > 0 implies residents");
            let len = self
                .resident
                .remove(&hash)
                .expect("fifo entries are resident");
            self.used_bytes -= len as u64;
            self.stats.evicted += 1;
        }
    }

    /// Fold the store's observable state — capacity, residency in admission
    /// order, and counters — into one digest word. Identical across any two
    /// executions that saw the same admissions in the same order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.cap_bytes);
        d.write_u64(self.used_bytes);
        d.write_u64(self.fifo.len() as u64);
        for hash in &self.fifo {
            d.write_bytes(hash);
            d.write_u64(self.resident[hash] as u64);
        }
        d.write_u64(self.stats.probes);
        d.write_u64(self.stats.hits);
        d.write_u64(self.stats.admitted);
        d.write_u64(self.stats.evicted);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transfer::FileGen;

    const CS: usize = 1024;

    fn manifest(seed: u64, len: usize) -> ChunkManifest {
        ChunkManifest::of(&FileGen::new(seed).random_file(len), CS)
    }

    #[test]
    fn cold_store_misses_everything() {
        let mut s = ChunkStore::new(1 << 20);
        let m = manifest(1, 4 * CS);
        let p = s.plan(&m);
        assert_eq!(p.hit_chunks, 0);
        assert_eq!(p.miss_bytes, 4 * CS as u64);
        assert_eq!(
            p.wire_bytes,
            m.wire_bytes() + 4 * CS as u64 + 4 * CHUNK_FRAME_WIRE_BYTES
        );
    }

    #[test]
    fn warm_store_hits_everything() {
        let mut s = ChunkStore::new(1 << 20);
        let m = manifest(1, 4 * CS);
        s.plan(&m);
        s.admit(&m);
        let p = s.plan(&m);
        assert_eq!(p.hit_chunks, 4);
        assert_eq!(p.miss_bytes, 0);
        assert_eq!(p.wire_bytes, m.wire_bytes());
        assert!(s.stats().hit_rate() > 0.49 && s.stats().hit_rate() < 0.51);
    }

    #[test]
    fn cross_user_dedup() {
        // Two "users" with identical content: the second pays manifest
        // overhead only.
        let mut s = ChunkStore::new(1 << 20);
        let m_user_a = manifest(7, 8 * CS);
        let m_user_b = manifest(7, 8 * CS);
        s.admit(&m_user_a);
        let p = s.plan(&m_user_b);
        assert_eq!(p.hit_chunks, 8);
        assert_eq!(p.wire_bytes, m_user_b.wire_bytes());
    }

    #[test]
    fn duplicate_chunks_within_manifest_ship_once() {
        let block = FileGen::new(3).random_file(CS);
        let mut data = block.clone();
        data.extend_from_slice(&block);
        data.extend_from_slice(&block);
        let m = ChunkManifest::of(&data, CS);
        let mut s = ChunkStore::new(1 << 20);
        let p = s.plan(&m);
        assert_eq!(p.total_chunks, 3);
        assert_eq!(p.hit_chunks, 2, "payload ships once, two ride along");
        assert_eq!(p.miss_bytes, CS as u64);
    }

    #[test]
    fn fifo_eviction_is_deterministic() {
        let mut s = ChunkStore::new(2 * CS as u64);
        // FileGen seeds the stream with `seed | 1`, so pick odd seeds to
        // guarantee distinct content.
        let m1 = manifest(11, CS);
        let m2 = manifest(23, CS);
        let m3 = manifest(35, CS);
        s.admit(&m1);
        s.admit(&m2);
        assert_eq!(s.used_bytes(), 2 * CS as u64);
        s.admit(&m3); // evicts m1's chunk, the oldest admission
        assert_eq!(s.used_bytes(), 2 * CS as u64);
        assert!(!s.contains(&m1.chunks[0].hash));
        assert!(s.contains(&m2.chunks[0].hash));
        assert!(s.contains(&m3.chunks[0].hash));
        assert_eq!(s.stats().evicted, 1);
    }

    #[test]
    fn oversized_chunk_never_admitted() {
        let mut s = ChunkStore::new(10);
        let m = manifest(1, CS);
        s.admit(&m);
        assert!(s.is_empty());
        assert_eq!(s.stats().admitted, 0);
    }

    #[test]
    fn digest_tracks_state_and_order() {
        let mut a = ChunkStore::new(1 << 20);
        let mut b = ChunkStore::new(1 << 20);
        let m1 = manifest(1, 2 * CS);
        let m2 = manifest(2, 2 * CS);
        a.admit(&m1);
        a.admit(&m2);
        b.admit(&m1);
        b.admit(&m2);
        assert_eq!(a.digest(), b.digest());
        // Admission order is part of the state.
        let mut c = ChunkStore::new(1 << 20);
        c.admit(&m2);
        c.admit(&m1);
        assert_ne!(a.digest(), c.digest());
        // Probes are observable too (they drive wire bytes downstream).
        let mut d = a.clone();
        d.plan(&m1);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn shipped_bytes_picks_the_cheaper_leg_delta_on_tie() {
        let mut s = ChunkStore::new(1 << 20);
        let m = manifest(1, 4 * CS);
        s.admit(&m);
        let p = s.plan(&m);
        // Dedup plan cheaper: it ships.
        assert_eq!(p.shipped_bytes(p.wire_bytes + 1), p.wire_bytes);
        // Dedup plan dearer: the delta ships.
        assert_eq!(p.shipped_bytes(p.wire_bytes - 1), p.wire_bytes - 1);
        // Equal: the delta ships, so a tie never counts as a saving.
        assert_eq!(p.shipped_bytes(p.wire_bytes), p.wire_bytes);
    }

    #[test]
    fn empty_manifest_is_free() {
        let mut s = ChunkStore::new(1 << 20);
        let m = ChunkManifest::of(&[], CS);
        let p = s.plan(&m);
        assert_eq!(p.total_chunks, 0);
        assert_eq!(p.wire_bytes, m.wire_bytes());
        s.admit(&m);
        assert!(s.is_empty());
    }
}
