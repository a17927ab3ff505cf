//! The delta-sync study: does a chunk-caching DTN change the detour
//! arithmetic?
//!
//! The paper's workload deletes the remote copy before every run, so every
//! transfer ships the full file and a detour only wins when the sum of two
//! good legs beats one bad direct path. Real sync workloads are different:
//! a working set mutates round by round, rsync delta encoding shrinks each
//! (basis, target) pair, and a relay with a content-addressed chunk store
//! ([`relay::ChunkStore`]) deduplicates content *across* tenants replicating
//! the same dataset. This module measures how those two savings move the
//! paper's win/loss frontier.
//!
//! Three arms per (tenant, round), all on the calibrated
//! [`NorthAmerica`](crate::NorthAmerica) map and all with identical seeds
//! (same background-traffic realization, same capacity jitter):
//!
//! 1. **direct** — upload the changed files to the provider in full;
//!    provider APIs accept neither deltas nor manifests.
//! 2. **store-and-forward** — the paper's detour: fresh rsync legs ship the
//!    full content to the DTN, then the DTN uploads it.
//! 3. **delta-sync detour** — the rsync leg carries the exact
//!    [`RsyncWirePlan`] for the (basis, target) pair, deduplicated against
//!    the DTN's shared chunk store; the upload leg still carries the full
//!    content.
//!
//! A **flip** is a (tenant, round) cell where arms 2 and 3 disagree on
//! whether the detour beats direct — the cells where delta-sync changes the
//! routing decision itself, not just its margin. The canonical flip is the
//! paper's own negative result: UCLA's 2.3 Mbps last mile makes
//! store-and-forward useless (§III-C), but once only a delta or a manifest
//! has to cross that last mile, the detour wins after all.

use crate::northamerica::{Client, NorthAmerica};
use cloudstore::{ProviderKind, UploadOptions};
use detour_core::{run_job, Route};
use measure::{RunProtocol, Table};
use relay::{detour_upload_sync, ChunkStats, ChunkStore, SyncAttachment};
use std::cell::RefCell;
use std::rc::Rc;
use transfer::syncpop::{MutationMix, SyncPopulation, SyncPopulationConfig};
use transfer::{ChunkManifest, RsyncWirePlan, DEFAULT_CHUNK_SIZE};

/// Rsync block size for the exact wire plans (finer than the dedup chunk:
/// delta granules, not store keys).
const BLOCK_SIZE: usize = 2048;

/// Knobs for one study run.
#[derive(Debug, Clone, Copy)]
pub struct SyncStudyConfig {
    /// Tenants replicating the shared dataset, cycled over UBC, UCLA and
    /// Purdue in that order (UBC warms the cache, UCLA is the paper's
    /// detour-never-helps client, Purdue its pathological one).
    pub tenants: u32,
    /// Files in the working set.
    pub files: u32,
    /// Mutation rounds after the initial replication (round 0).
    pub rounds: u32,
    /// Size of each file in KiB.
    pub file_kb: u32,
    /// DTN chunk-store capacity in MiB.
    pub cache_mb: u32,
    /// Base seed; per-cell simulator seeds derive from it via the campaign
    /// seed protocol, so every arm of a cell sees the same world.
    pub seed: u64,
}

impl Default for SyncStudyConfig {
    fn default() -> Self {
        SyncStudyConfig {
            tenants: 3,
            files: 4,
            rounds: 3,
            file_kb: 256,
            cache_mb: 64,
            seed: 7,
        }
    }
}

/// One (tenant, round) cell: wire-byte accounting plus the three timed arms.
#[derive(Debug, Clone)]
pub struct SyncRow {
    /// Tenant index.
    pub tenant: u32,
    /// The tenant's measuring site.
    pub client: Client,
    /// Round number; 0 is the initial replication.
    pub round: u32,
    /// Files that changed this round.
    pub changed_files: u32,
    /// Full payload bytes of the changed files.
    pub full_bytes: u64,
    /// Rsync wire bytes had the DTN copy been deleted (the paper's
    /// workload).
    pub fresh_wire: u64,
    /// Exact rsync wire bytes against the previous round's basis.
    pub delta_wire: u64,
    /// Wire bytes actually shipped on the rsync leg after consulting the
    /// chunk store: `min(delta, manifest + missing chunks)` plus the
    /// handshake/signature/ack envelope.
    pub sync_wire: u64,
    /// Chunks the store already held when this cell's sync arm ran.
    pub hit_chunks: u64,
    /// Chunks in the cell's manifest.
    pub total_chunks: u64,
    /// Arm 1: direct full upload.
    pub direct_secs: f64,
    /// Arm 2: fresh store-and-forward detour.
    pub relay_secs: f64,
    /// Arm 3: delta-sync detour through the chunk store.
    pub sync_secs: f64,
}

impl SyncRow {
    /// Does the paper's detour beat direct in this cell?
    pub fn detour_wins_fresh(&self) -> bool {
        self.relay_secs < self.direct_secs
    }

    /// Does the delta-sync detour beat direct in this cell?
    pub fn detour_wins_sync(&self) -> bool {
        self.sync_secs < self.direct_secs
    }

    /// Did delta-sync change the routing decision (win/loss flip)?
    pub fn flipped(&self) -> bool {
        self.detour_wins_fresh() != self.detour_wins_sync()
    }
}

/// Full study output: per-cell rows plus the DTN store's final counters.
#[derive(Debug, Clone)]
pub struct SyncStudyReport {
    /// One row per (tenant, round) with at least one changed file, in
    /// execution order (rounds outer, tenants inner).
    pub rows: Vec<SyncRow>,
    /// The shared DTN chunk store's cumulative counters after the run.
    pub store_stats: ChunkStats,
}

impl SyncStudyReport {
    /// Total payload bytes across all cells.
    pub fn full_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.full_bytes).sum()
    }

    /// Total wire bytes under the paper's deleted-basis workload.
    pub fn fresh_wire(&self) -> u64 {
        self.rows.iter().map(|r| r.fresh_wire).sum()
    }

    /// Total wire bytes with delta encoding alone (no chunk store).
    pub fn delta_wire(&self) -> u64 {
        self.rows.iter().map(|r| r.delta_wire).sum()
    }

    /// Total wire bytes actually shipped on the sync arm's rsync legs.
    pub fn sync_wire(&self) -> u64 {
        self.rows.iter().map(|r| r.sync_wire).sum()
    }

    /// Rsync-leg bytes saved versus the paper's workload, as a percentage.
    pub fn savings_pct(&self) -> f64 {
        let fresh = self.fresh_wire();
        if fresh == 0 {
            0.0
        } else {
            100.0 * (fresh - self.sync_wire()) as f64 / fresh as f64
        }
    }

    /// Chunk-cache hit rate over the whole study.
    pub fn hit_rate(&self) -> f64 {
        self.store_stats.hit_rate()
    }

    /// Cells where delta-sync changed the win/loss decision.
    pub fn flips(&self) -> u32 {
        self.rows.iter().filter(|r| r.flipped()).count() as u32
    }

    /// Cells the paper's store-and-forward detour wins.
    pub fn wins_fresh(&self) -> u32 {
        self.rows.iter().filter(|r| r.detour_wins_fresh()).count() as u32
    }

    /// Cells the delta-sync detour wins.
    pub fn wins_sync(&self) -> u32 {
        self.rows.iter().filter(|r| r.detour_wins_sync()).count() as u32
    }

    /// The per-cell table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "delta-sync study (arms: direct / store-and-forward / delta-sync detour)",
            &[
                "tenant", "round", "files", "KB full", "KB fresh", "KB delta", "KB sync", "hits",
                "direct s", "s-f s", "sync s", "winner",
            ],
        );
        for r in &self.rows {
            let winner = match (r.detour_wins_fresh(), r.detour_wins_sync()) {
                (false, true) => "detour (flip)",
                (true, false) => "direct (flip)",
                (true, true) => "detour",
                (false, false) => "direct",
            };
            t.row(vec![
                format!("{} {}", r.tenant, r.client.name()),
                r.round.to_string(),
                r.changed_files.to_string(),
                (r.full_bytes / 1024).to_string(),
                (r.fresh_wire / 1024).to_string(),
                (r.delta_wire / 1024).to_string(),
                (r.sync_wire / 1024).to_string(),
                format!("{}/{}", r.hit_chunks, r.total_chunks),
                format!("{:.2}", r.direct_secs),
                format!("{:.2}", r.relay_secs),
                format!("{:.2}", r.sync_secs),
                winner.to_string(),
            ]);
        }
        t
    }

    /// Table plus the headline summary lines.
    pub fn render(&self) -> String {
        format!(
            "{}\nrsync-leg bytes: fresh {} KB, delta {} KB, shipped {} KB ({:.1}% saved)\n\
             chunk cache: {:.1}% hit rate ({} hits / {} probes, {} admitted, {} evicted)\n\
             detour wins {} of {} cells fresh, {} with delta-sync ({} flip(s))\n",
            self.table().render(),
            self.fresh_wire() / 1024,
            self.delta_wire() / 1024,
            self.sync_wire() / 1024,
            self.savings_pct(),
            100.0 * self.hit_rate(),
            self.store_stats.hits,
            self.store_stats.probes,
            self.store_stats.admitted,
            self.store_stats.evicted,
            self.wins_fresh(),
            self.rows.len(),
            self.wins_sync(),
            self.flips(),
        )
    }
}

/// The tenant's measuring site: UBC first (warms the shared store), then
/// UCLA (the paper's last-mile-limited client), then Purdue.
fn tenant_site(t: u32) -> Client {
    [Client::Ubc, Client::Ucla, Client::Purdue][t as usize % 3]
}

/// Run the study: one shared mutating dataset, every tenant replicating it
/// to Google Drive each round over all three arms, with one chunk store at
/// the UAlberta DTN shared across tenants and rounds.
///
/// Fully deterministic: file contents derive from `cfg.seed`, per-cell
/// simulator seeds from the campaign seed protocol, and the chunk store is
/// consulted in a fixed order (rounds outer, tenants inner — the cell's
/// simulations never interleave).
pub fn run_sync_study(world: &NorthAmerica, cfg: SyncStudyConfig) -> SyncStudyReport {
    assert!(
        cfg.tenants > 0 && cfg.files > 0 && cfg.file_kb > 0,
        "degenerate study config"
    );
    let provider = world.provider(ProviderKind::GoogleDrive);
    let store = Rc::new(RefCell::new(ChunkStore::new(
        cfg.cache_mb as u64 * 1024 * 1024,
    )));
    let mut pop = SyncPopulation::new(
        cfg.seed,
        SyncPopulationConfig {
            files: cfg.files as usize,
            file_len: cfg.file_kb as usize * 1024,
            mix: MutationMix::desktop(),
            max_edits: 16,
            max_append: 4096,
            max_rewrite: 16 * 1024,
        },
    );
    // Every tenant has replicated up to the previous round, so one shared
    // basis stands in for all of their remote copies.
    let mut basis: Vec<Vec<u8>> = vec![Vec::new(); cfg.files as usize];
    let mut rows = Vec::new();

    for round in 0..=cfg.rounds {
        if round > 0 {
            pop.advance();
        }
        let changed: Vec<usize> = (0..cfg.files as usize)
            .filter(|&i| pop.file(i) != basis[i].as_slice())
            .collect();
        if changed.is_empty() {
            continue;
        }

        // Aggregate the round's rsync session: one summed wire plan and one
        // merged manifest (per-file chunking, so chunk identities survive
        // across rounds regardless of which neighbours changed).
        let mut plan = RsyncWirePlan {
            handshake_bytes: 0,
            signature_bytes: 0,
            delta_bytes: 0,
            ack_bytes: 0,
        };
        let mut full_bytes = 0u64;
        let mut manifest = ChunkManifest {
            chunk_size: DEFAULT_CHUNK_SIZE,
            chunks: Vec::new(),
        };
        for &i in &changed {
            let target = pop.file(i);
            let p = RsyncWirePlan::exact(&basis[i], target, BLOCK_SIZE);
            plan.handshake_bytes += p.handshake_bytes;
            plan.signature_bytes += p.signature_bytes;
            plan.delta_bytes += p.delta_bytes;
            plan.ack_bytes += p.ack_bytes;
            full_bytes += target.len() as u64;
            manifest
                .chunks
                .extend(ChunkManifest::of(target, DEFAULT_CHUNK_SIZE).chunks);
        }
        let fresh_plan = RsyncWirePlan::fresh(full_bytes);

        for tenant in 0..cfg.tenants {
            let site = tenant_site(tenant);
            let client = world.client(site);
            let seed =
                RunProtocol::run_seed(&format!("sync-study/{}/{}/{}", cfg.seed, tenant, round), 0);
            let opts = UploadOptions::warm(client.class);

            // Arm 1: direct — providers take full content only.
            let mut sim = world.build_sim(seed);
            let direct = run_job(
                &mut sim,
                client.node,
                client.class,
                &provider,
                full_bytes,
                &Route::Direct,
                opts,
            )
            .expect("direct upload on the calibrated map");

            // Arm 2: the paper's store-and-forward (fresh rsync legs).
            let mut sim = world.build_sim(seed);
            let relayed = run_job(
                &mut sim,
                client.node,
                client.class,
                &provider,
                full_bytes,
                &Route::via(world.hop_ualberta()),
                opts,
            )
            .expect("store-and-forward detour on the calibrated map");

            // Arm 3: delta-sync detour. Preview the dedup price on a clone
            // so the shared store's counters reflect the real legs only.
            let dedup = store.borrow().clone().plan(&manifest);
            let shipped = dedup.shipped_bytes(plan.delta_bytes);
            let hop = world.hop_ualberta();
            let mut sim = world.build_sim(seed);
            let synced = detour_upload_sync(
                &mut sim,
                vec![client.node, hop.node],
                vec![client.class, hop.class],
                &provider,
                full_bytes,
                opts,
                SyncAttachment {
                    plan,
                    manifest: manifest.clone(),
                    stores: vec![Rc::clone(&store)],
                },
            )
            .expect("delta-sync detour on the calibrated map");

            rows.push(SyncRow {
                tenant,
                client: site,
                round,
                changed_files: changed.len() as u32,
                full_bytes,
                fresh_wire: fresh_plan.total_bytes(),
                delta_wire: plan.total_bytes(),
                sync_wire: plan.total_bytes() - plan.delta_bytes + shipped,
                hit_chunks: dedup.hit_chunks,
                total_chunks: dedup.total_chunks,
                direct_secs: direct.secs(),
                relay_secs: relayed.secs(),
                sync_secs: synced.total.as_secs_f64(),
            });
        }

        for (i, b) in basis.iter_mut().enumerate() {
            *b = pop.file(i).to_vec();
        }
    }

    let store_stats = store.borrow().stats();
    SyncStudyReport { rows, store_stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SyncStudyConfig {
        SyncStudyConfig {
            tenants: 2,
            files: 2,
            rounds: 1,
            file_kb: 384,
            cache_mb: 16,
            seed: 7,
        }
    }

    #[test]
    fn shared_dataset_dedups_across_tenants() {
        let world = NorthAmerica::new();
        let report = run_sync_study(&world, tiny());
        // Both tenants report every round (the desktop mix always mutates
        // something by round 1; round 0 changes everything by definition).
        assert_eq!(report.rows.len(), 4, "{:?}", report.rows);
        // Tenant 0 warms the store, tenant 1's replication rides on it.
        let t1r0 = &report.rows[1];
        assert_eq!((t1r0.tenant, t1r0.round), (1, 0));
        assert_eq!(t1r0.hit_chunks, t1r0.total_chunks);
        assert!(report.hit_rate() > 0.0);
        // Delta + dedup must beat the paper's deleted-basis workload.
        assert!(
            report.sync_wire() < report.fresh_wire() / 2,
            "sync {} vs fresh {}",
            report.sync_wire(),
            report.fresh_wire()
        );
        assert!(report.savings_pct() > 50.0);
        let text = report.render();
        assert!(text.contains("hit rate"), "{text}");
        assert!(text.contains("flip"), "{text}");
    }

    #[test]
    fn ucla_last_mile_flips_to_detour() {
        // The paper's §III-C: UCLA's 2.3 Mbps last mile makes
        // store-and-forward pointless. With a warmed chunk store, only the
        // manifest crosses the last mile and the detour wins after all.
        let world = NorthAmerica::new();
        let report = run_sync_study(&world, tiny());
        let ucla: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.client == Client::Ucla)
            .collect();
        assert!(!ucla.is_empty());
        for r in &ucla {
            assert!(
                !r.detour_wins_fresh(),
                "store-and-forward must lose at UCLA: {r:?}"
            );
            assert!(
                r.detour_wins_sync(),
                "delta-sync detour must win at UCLA: {r:?}"
            );
            assert!(r.flipped());
        }
        assert!(report.flips() >= ucla.len() as u32);
    }

    #[test]
    fn tiny_study_bytes_are_pinned() {
        // Every byte field of every row and the store's counters, recorded
        // when wire plans still priced a fully built delta: pricing from
        // the scan alone must not move a byte.
        let world = NorthAmerica::new();
        let report = run_sync_study(&world, tiny());
        let rows: Vec<_> = (report.rows.iter())
            .map(|r| {
                (
                    (r.tenant, r.round, r.changed_files),
                    [r.full_bytes, r.fresh_wire, r.delta_wire, r.sync_wire],
                    (r.hit_chunks, r.total_chunks),
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                ((0, 0, 2), [786432, 787149, 787866, 787866], (0, 96)),
                ((1, 0, 2), [786432, 787149, 787866, 3280], (96, 96)),
                ((0, 1, 2), [787234, 787951, 19501, 19501], (95, 97)),
                ((1, 1, 2), [787234, 787951, 19501, 12516], (97, 97)),
            ]
        );
        assert_eq!(
            report.store_stats,
            ChunkStats {
                probes: 386,
                hits: 288,
                misses: 98,
                hit_bytes: 2351906,
                miss_bytes: 795426,
                admitted: 98,
                evicted: 0,
            }
        );
    }

    #[test]
    fn study_is_deterministic() {
        let world = NorthAmerica::new();
        let a = run_sync_study(&world, tiny());
        let b = run_sync_study(&world, tiny());
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.sync_wire, y.sync_wire);
            assert_eq!(x.hit_chunks, y.hit_chunks);
            assert_eq!(x.direct_secs.to_bits(), y.direct_secs.to_bits());
            assert_eq!(x.sync_secs.to_bits(), y.sync_secs.to_bits());
        }
        assert_eq!(a.store_stats, b.store_stats);
    }
}
