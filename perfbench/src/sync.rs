//! `delta-sync`: [`run_sync_study`] with 1 MiB files and the desktop
//! mutation mix: three tenants replicating two 1 MiB files through three
//! mutation rounds, 64 MiB DTN chunk store. One op is one study. (Two files
//! rather than the study's default four keep an op near 120 ms, so a run
//! holds enough ops for a p90.)
//!
//! The studies are a fixed corpus of 16 (study `k` has seed `mix(7, k)`);
//! the workload seed shuffles the order they run in, and ops cycle through
//! it. A fixed corpus because peak memory follows the largest dataset a run
//! happens to draw: fresh seed-drawn datasets per run moved `peak_rss_mb`
//! by 16% between seeds while repeats of one seed agreed within 0.5%.
//!
//! The traced half re-executes each study step by step through the public
//! calls `run_sync_study` makes — `SyncPopulation`, `RsyncWirePlan::exact`,
//! `ChunkManifest::of`, `ChunkStore::plan`, `run_job` and
//! `detour_upload_sync` — and must reproduce the study's digest. It also
//! times `ChunkStore::admit` on a copy of the store (admission otherwise
//! happens inside the relay, out of the harness's reach).

use crate::stat::{self, Digest, Tail};
use crate::{trace, Ctx, Outcome};
use cloudstore::{ProviderKind, UploadOptions};
use detour_core::{run_job, Route};
use measure::RunProtocol;
use relay::{detour_upload_sync, ChunkStats, ChunkStore, SyncAttachment};
use scenarios::{run_sync_study, Client, NorthAmerica, SyncRow, SyncStudyConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use transfer::syncpop::{MutationMix, SyncPopulation, SyncPopulationConfig};
use transfer::{ChunkManifest, RsyncWirePlan, DEFAULT_CHUNK_SIZE};

/// ≈8 studies per second: p90 is the highest percentile that keeps ten
/// samples beyond it.
const TAIL: Tail = Tail::P90;
const SETUP_REPS: usize = 3;
/// Ops whose digests are compared with the recorded ones.
const DIGEST_OPS: usize = 3;
/// The rsync block size `run_sync_study` prices exact wire plans with.
const BLOCK_SIZE: usize = 2048;

/// Studies in the corpus.
const CORPUS: usize = 16;
/// Base seed of the corpus.
const CORPUS_SEED: u64 = 7;

/// Corpus study `k`.
fn config(k: usize) -> SyncStudyConfig {
    SyncStudyConfig {
        file_kb: 1024,
        files: 2,
        seed: stat::mix(CORPUS_SEED, k as u64),
        ..SyncStudyConfig::default()
    }
}

/// Wire bytes, hit counts and flips of every row, plus the store counters.
fn digest(rows: &[SyncRow], store: &ChunkStats) -> Result<u64, String> {
    if rows.is_empty() {
        return Err("study produced no rows".into());
    }
    let mut d = Digest::default();
    for r in rows {
        if r.sync_wire > r.delta_wire || r.hit_chunks > r.total_chunks {
            return Err(format!(
                "tenant {} round {}: sync wire {} > delta wire {} or hits {} > chunks {}",
                r.tenant, r.round, r.sync_wire, r.delta_wire, r.hit_chunks, r.total_chunks
            ));
        }
        d.u64(r.tenant as u64)
            .u64(r.round as u64)
            .u64(r.changed_files as u64)
            .u64(r.full_bytes)
            .u64(r.fresh_wire)
            .u64(r.delta_wire)
            .u64(r.sync_wire)
            .u64(r.hit_chunks)
            .u64(r.total_chunks)
            .u64(r.flipped() as u64);
    }
    d.u64(store.probes)
        .u64(store.hits)
        .u64(store.misses)
        .u64(store.admitted)
        .u64(store.evicted);
    Ok(d.finish())
}

fn study(world: &NorthAmerica, cfg: SyncStudyConfig) -> Result<u64, String> {
    let report = run_sync_study(world, cfg);
    digest(&report.rows, &report.store_stats)
}

/// What the traced re-execution measured, summed over its studies.
#[derive(Default)]
struct Counts {
    exact_kib: f64,
    manifest_kib: f64,
    planned_chunks: u64,
    admitted_chunks: u64,
    probes: u64,
    hits: u64,
    events: u64,
    reallocations: u64,
    peak_queue: u64,
    /// Time in calls the study itself does not make (the admit copy).
    aux_ns: u64,
}

impl Counts {
    fn sim(&mut self, s: netsim::engine::SimStats) {
        self.events += s.events;
        self.reallocations += s.reallocations;
        self.peak_queue = self.peak_queue.max(s.peak_queue);
    }
}

/// `run_sync_study`, call by call.
fn traced_study(world: &NorthAmerica, cfg: SyncStudyConfig, n: &mut Counts) -> Result<u64, String> {
    let provider = world.provider(ProviderKind::GoogleDrive);
    let store = Rc::new(RefCell::new(ChunkStore::new(
        cfg.cache_mb as u64 * 1024 * 1024,
    )));
    let mut pop = trace::span("transfer.syncpop_new", || {
        SyncPopulation::new(
            cfg.seed,
            SyncPopulationConfig {
                files: cfg.files as usize,
                file_len: cfg.file_kb as usize * 1024,
                mix: MutationMix::desktop(),
                max_edits: 16,
                max_append: 4096,
                max_rewrite: 16 * 1024,
            },
        )
    });
    let mut basis: Vec<Vec<u8>> = vec![Vec::new(); cfg.files as usize];
    let mut rows = Vec::new();
    for round in 0..=cfg.rounds {
        if round > 0 {
            trace::span("transfer.syncpop_advance", || pop.advance());
        }
        let changed: Vec<usize> = (0..cfg.files as usize)
            .filter(|&i| pop.file(i) != basis[i].as_slice())
            .collect();
        if changed.is_empty() {
            continue;
        }
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
            let kib = target.len() as f64 / 1024.0;
            let p = trace::span("transfer.rsync_exact", || {
                RsyncWirePlan::exact(&basis[i], target, BLOCK_SIZE)
            });
            n.exact_kib += kib;
            plan.handshake_bytes += p.handshake_bytes;
            plan.signature_bytes += p.signature_bytes;
            plan.delta_bytes += p.delta_bytes;
            plan.ack_bytes += p.ack_bytes;
            full_bytes += target.len() as u64;
            let m = trace::span("transfer.manifest", || {
                ChunkManifest::of(target, DEFAULT_CHUNK_SIZE)
            });
            n.manifest_kib += kib;
            manifest.chunks.extend(m.chunks);
        }
        let fresh_plan = RsyncWirePlan::fresh(full_bytes);
        for tenant in 0..cfg.tenants {
            let site = [Client::Ubc, Client::Ucla, Client::Purdue][tenant as usize % 3];
            let client = world.client(site);
            let seed =
                RunProtocol::run_seed(&format!("sync-study/{}/{}/{}", cfg.seed, tenant, round), 0);
            let opts = UploadOptions::warm(client.class);
            let build = || trace::span("scenarios.build_sim", || world.build_sim(seed));

            let mut sim = build();
            let direct = trace::span("core.run_job.direct", || {
                run_job(
                    &mut sim,
                    client.node,
                    client.class,
                    &provider,
                    full_bytes,
                    &Route::Direct,
                    opts,
                )
            })
            .map_err(|e| format!("direct arm: {e}"))?;
            n.sim(sim.stats());

            let mut sim = build();
            let via = Route::via(world.hop_ualberta());
            let relayed = trace::span("core.run_job.detour", || {
                run_job(
                    &mut sim,
                    client.node,
                    client.class,
                    &provider,
                    full_bytes,
                    &via,
                    opts,
                )
            })
            .map_err(|e| format!("store-and-forward arm: {e}"))?;
            n.sim(sim.stats());

            let mut preview = store.borrow().clone();
            let dedup = trace::span("relay.chunkstore_plan", || preview.plan(&manifest));
            n.planned_chunks += manifest.chunks.len() as u64;
            let mut copy = store.borrow().clone();
            let t = Instant::now();
            trace::span("relay.chunkstore_admit", || copy.admit(&manifest));
            n.aux_ns += t.elapsed().as_nanos() as u64;
            n.admitted_chunks += manifest.chunks.len() as u64;

            let shipped = plan.delta_bytes.min(dedup.wire_bytes);
            let hop = world.hop_ualberta();
            let mut sim = build();
            let synced = trace::span("relay.detour_upload_sync", || {
                detour_upload_sync(
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
            })
            .map_err(|e| format!("delta-sync arm: {e}"))?;
            n.sim(sim.stats());

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
    let stats = store.borrow().stats();
    n.probes += stats.probes;
    n.hits += stats.hits;
    digest(&rows, &stats)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(TAIL);
    let order = stat::shuffled(ctx.seed, CORPUS);
    let mut world = None;
    let mut warm = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((w, d), secs) = stat::timed(|| {
            let w = NorthAmerica::new();
            let d = study(&w, config(0));
            (w, d)
        });
        out.setup_s.push(secs);
        world = Some(w);
        warm.push(d);
    }
    let world = world.expect("at least one set-up");
    out.check(
        "set-up warm-up studies agree",
        warm.windows(2).all(|w| w[0] == w[1]) && warm[0].is_ok(),
    );
    let op = |i: u64| study(&world, config(order[i as usize % CORPUS]));

    if !ctx.trace {
        out.phase = stat::timed_loop(ctx.budget, DIGEST_OPS, op);
        out.check(
            format!("first {DIGEST_OPS} studies completed"),
            out.phase.digests.len() == DIGEST_OPS,
        );
        out.digests
            .push(("delta-sync", stat::fold(&out.phase.digests)));
        return out;
    }

    let untraced = stat::timed_loop(ctx.half(), DIGEST_OPS, op);
    out.absorb(&untraced);
    let mut n = Counts::default();
    let mut aux_us = Vec::new();
    trace::set_enabled(true);
    let traced = stat::timed_loop(ctx.half(), DIGEST_OPS, |i| {
        let before = n.aux_ns;
        let r = trace::op(i, || {
            traced_study(&world, config(order[i as usize % CORPUS]), &mut n)
        });
        aux_us.push((n.aux_ns - before) as f64 / 1e3);
        r
    });
    trace::set_enabled(false);
    out.absorb(&traced);
    out.check(
        "traced studies reproduce the untraced digests",
        traced
            .digests
            .iter()
            .zip(&untraced.digests)
            .all(|(a, b)| a == b),
    );
    out.digests
        .push(("delta-sync", stat::fold(&untraced.digests)));
    let spans = trace::take();

    let ops = traced.attempted().max(1) as f64;
    let per_kib = |name: &str, kib: f64| trace::total(&spans, name).1 as f64 / kib.max(1e-9);
    let per_call =
        |name: &str, calls: u64| trace::total(&spans, name).1 as f64 / calls.max(1) as f64;
    let (_, arm_ns) = trace::total(&spans, "core.run_job.direct");
    let (_, relay_ns) = trace::total(&spans, "core.run_job.detour");
    let (_, sync_ns) = trace::total(&spans, "relay.detour_upload_sync");
    let l = &mut out.layers;
    l.insert("netsim.events_per_op", n.events as f64 / ops);
    l.insert(
        "netsim.ns_per_event",
        (arm_ns + relay_ns + sync_ns) as f64 / n.events.max(1) as f64,
    );
    l.insert("netsim.reallocations_per_op", n.reallocations as f64 / ops);
    l.insert("netsim.peak_queue", n.peak_queue as f64);
    l.insert(
        "scenarios.build_sim_us",
        trace::mean(&spans, "scenarios.build_sim", 1e3),
    );
    l.insert(
        "core.job_direct_us",
        trace::mean(&spans, "core.run_job.direct", 1e3),
    );
    l.insert(
        "core.job_detour_us",
        trace::mean(&spans, "core.run_job.detour", 1e3),
    );
    l.insert(
        "transfer.rsync_exact_ns_per_kib",
        per_kib("transfer.rsync_exact", n.exact_kib),
    );
    l.insert(
        "transfer.manifest_ns_per_kib",
        per_kib("transfer.manifest", n.manifest_kib),
    );
    l.insert("transfer.kib_per_op", (n.exact_kib + n.manifest_kib) / ops);
    l.insert(
        "relay.sync_arm_us",
        trace::mean(&spans, "relay.detour_upload_sync", 1e3),
    );
    l.insert(
        "relay.chunkstore_plan_ns",
        per_call("relay.chunkstore_plan", n.planned_chunks),
    );
    l.insert(
        "relay.chunkstore_admit_ns",
        per_call("relay.chunkstore_admit", n.admitted_chunks),
    );
    l.insert(
        "relay.chunk_hit_rate",
        n.hits as f64 / n.probes.max(1) as f64,
    );
    let traced_us: Vec<f64> = traced
        .lat_us
        .iter()
        .zip(&aux_us)
        .map(|(t, a)| t - a)
        .collect();
    out.trace_summary(
        spans,
        crate::paired_overhead_pct(&untraced.lat_us, &traced_us),
    );
    out
}

pub fn record(ctx: &Ctx) -> Vec<(&'static str, u64)> {
    let world = NorthAmerica::new();
    let digests: Vec<u64> = stat::shuffled(ctx.seed, CORPUS)[..DIGEST_OPS]
        .iter()
        .map(|&k| study(&world, config(k)).expect("study runs"))
        .collect();
    vec![("delta-sync", stat::fold(&digests))]
}
