//! `simcheck`: generated scenario cases in an equal mix of the standard,
//! chaos and sync classes, each checked by [`check_case_at`] with the
//! shard-worker set capped at the host thread count. One op is one checked
//! case; a case with any violation fails.
//!
//! The cases are a fixed corpus of 96 (case `j` has class `j mod 3` and
//! seed `case_seed(7, j)`, 7 being simcheck's default check seed); the
//! workload seed shuffles the order they run in, and ops cycle through it.
//! A fixed corpus because case costs are heavy-tailed (the slowest of a few
//! hundred cases costs 30–40 times the median): a fresh seed-drawn sample
//! per run moved throughput, tail latency and peak memory by 15–30%
//! between seeds, more than any bound a regression gate could use. Each run
//! covers the corpus several times, so every run sees the same cases.
//!
//! The traced half checks each case axis by axis through the same public
//! calls `check_case_at` makes — [`run_once`] for the first, repeat,
//! reference-allocator, eager-progress, reference-routing and chunk-bypass
//! executions, [`run_sharded`] per worker count and
//! [`check_plane_coherence`] — applying the same comparisons. It also
//! times, as calls the check itself does not make: case generation, a
//! first execution with health folding off (for `obs.health_overhead_us`),
//! and a replay of every sync session's file history through
//! `Signature::compute`, `compute_delta` and `apply_delta`.

use crate::stat::{self, Digest, Tail};
use crate::{trace, Ctx, Outcome};
use simcheck::runner::check_plane_coherence;
use simcheck::{case_seed, check_case_at, run_once, run_sharded, RunOptions, ScenarioSpec};
use std::time::Instant;
use transfer::syncpop::{MutationMix, SyncPopulation, SyncPopulationConfig};
use transfer::{apply_delta, compute_delta, Signature};

/// ≈30 cases per second: p90 is the highest percentile that keeps ten
/// samples beyond it.
const TAIL: Tail = Tail::P90;
const SETUP_REPS: usize = 3;
/// Cases in the corpus, a third per class.
const CORPUS: usize = 96;
/// Base seed of the corpus.
const CORPUS_SEED: u64 = 7;
/// Cases whose digests are compared with the recorded ones.
const DIGEST_OPS: usize = 24;
/// The block size simcheck's sync sessions rsync with.
const SYNC_BLOCK_SIZE: usize = 1024;

/// Corpus case `j`.
fn generate(j: usize) -> ScenarioSpec {
    let s = case_seed(CORPUS_SEED, j as u32);
    match j % 3 {
        0 => ScenarioSpec::generate(s),
        1 => ScenarioSpec::generate_chaos(s),
        _ => ScenarioSpec::generate_sync(s),
    }
}

/// The shard-worker counts checked: simcheck's standard set, capped at the
/// host thread count.
pub fn shard_workers(threads: usize) -> Vec<usize> {
    simcheck::SHARD_WORKER_COUNTS
        .iter()
        .copied()
        .filter(|&w| w <= threads.max(1))
        .collect()
}

fn check(spec: &ScenarioSpec, workers: &[usize]) -> Result<u64, String> {
    let res = check_case_at(spec, RunOptions::default(), workers);
    if !res.ok() {
        return Err(format!(
            "case seed {}: {}",
            spec.seed,
            res.violations
                .iter()
                .map(|v| v.kind())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok(Digest::default()
        .u64(res.events)
        .u64(res.jobs_completed)
        .finish())
}

/// Work counted by the traced re-execution.
#[derive(Default)]
struct Counts {
    events: u64,
    cases: u64,
    sig_kib: f64,
    delta_kib: f64,
    patch_kib: f64,
    /// Time in calls `check_case_at` does not make.
    aux_ns: u64,
}

/// Time an auxiliary call as span `name`, adding its time to `aux_ns`.
fn aux<R>(aux_ns: &mut u64, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = trace::span(name, f);
    *aux_ns += t.elapsed().as_nanos() as u64;
    r
}

/// Replay every sync session's file history through the rsync pipeline,
/// verifying each patch reconstructs the client's bytes.
fn replay_sync(spec: &ScenarioSpec, n: &mut Counts) -> Result<(), String> {
    for cell in spec.cells() {
        for s in &cell.sync {
            let files = s.files as usize;
            let mut pop = SyncPopulation::new(
                case_seed(cell.seed, 0x5e5e + s.dataset),
                SyncPopulationConfig {
                    files,
                    file_len: s.file_kb as usize * 1024,
                    mix: if s.churny {
                        MutationMix::churny()
                    } else {
                        MutationMix::desktop()
                    },
                    max_edits: 16,
                    max_append: 2048,
                    max_rewrite: 4096,
                },
            );
            let mut remote = vec![Vec::new(); files];
            for pass in 0..=s.rounds {
                if pass > 0 {
                    pop.advance();
                }
                for (f, basis) in remote.iter_mut().enumerate() {
                    let local = pop.file(f);
                    let sig = trace::span("transfer.signature", || {
                        Signature::compute(basis, SYNC_BLOCK_SIZE)
                    });
                    let delta = trace::span("transfer.delta", || compute_delta(&sig, local));
                    let patched = trace::span("transfer.patch", || {
                        apply_delta(basis, SYNC_BLOCK_SIZE, &delta)
                    });
                    if patched.as_deref() != Ok(local) {
                        return Err(format!("sync replay: file {f} pass {pass} did not patch"));
                    }
                    n.sig_kib += basis.len() as f64 / 1024.0;
                    n.delta_kib += local.len() as f64 / 1024.0;
                    n.patch_kib += local.len() as f64 / 1024.0;
                    *basis = local.to_vec();
                }
            }
        }
    }
    Ok(())
}

/// `check_case_at`, axis by axis. Returns the case digest and the first
/// execution's chain digest.
fn traced_check(j: usize, workers: &[usize], n: &mut Counts) -> Result<(u64, u64), String> {
    let spec = aux(&mut n.aux_ns, "simcheck.generate", || generate(j));
    let opts = RunOptions {
        health: true,
        ..RunOptions::default()
    };
    let with = |o: RunOptions| RunOptions { health: true, ..o };
    let first = trace::span("simcheck.first", || run_once(&spec, opts));
    let mut bad: Vec<String> = first
        .violations
        .iter()
        .map(|v| v.kind().to_string())
        .collect();
    let mut diverged = |name: &str, same: bool| {
        if !same {
            bad.push(name.to_string());
        }
    };
    let second = trace::span("simcheck.repeat", || run_once(&spec, opts));
    diverged("determinism", second.chain_digest == first.chain_digest);
    let r = trace::span("simcheck.ref_alloc", || {
        run_once(
            &spec,
            with(RunOptions {
                reference_allocator: true,
                ..RunOptions::default()
            }),
        )
    });
    diverged("allocator", r.chain_digest == first.chain_digest);
    let r = trace::span("simcheck.eager", || {
        run_once(
            &spec,
            with(RunOptions {
                eager_progress: true,
                ..RunOptions::default()
            }),
        )
    });
    diverged("progress", r.chain_digest == first.chain_digest);
    let r = trace::span("simcheck.ref_routing", || {
        run_once(
            &spec,
            with(RunOptions {
                reference_routing: true,
                ..RunOptions::default()
            }),
        )
    });
    diverged("routing", r.chain_digest == first.chain_digest);
    for &w in workers {
        let r = trace::span("simcheck.shard", || run_sharded(&spec, opts, w));
        diverged("shard", r.chain_digest == first.chain_digest);
    }
    if !spec.sync.is_empty() {
        let r = trace::span("simcheck.chunk_bypass", || {
            run_once(
                &spec,
                with(RunOptions {
                    chunk_bypass: true,
                    ..RunOptions::default()
                }),
            )
        });
        diverged("chunk", r.sync_digest == first.sync_digest);
    }
    let plane = trace::span("simcheck.plane_coherence", || check_plane_coherence(&spec));
    bad.extend(plane.iter().map(|v| v.kind().to_string()));

    aux(&mut n.aux_ns, "obs.health_off", || {
        run_once(&spec, RunOptions::default())
    });
    let t = Instant::now();
    let replay = replay_sync(&spec, n);
    n.aux_ns += t.elapsed().as_nanos() as u64;
    replay?;
    n.events += first.events;
    n.cases += 1;
    if !bad.is_empty() {
        return Err(format!("case seed {}: {}", spec.seed, bad.join(", ")));
    }
    Ok((
        Digest::default()
            .u64(first.events)
            .u64(first.jobs_completed)
            .finish(),
        first.chain_digest,
    ))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(TAIL);
    let workers = shard_workers(ctx.threads);
    let order = stat::shuffled(ctx.seed, CORPUS);
    let mut corpus = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..SETUP_REPS {
        // Generate the corpus and check its first case of each class.
        let ((c, d), secs) = stat::timed(|| {
            let c: Vec<ScenarioSpec> = (0..CORPUS).map(generate).collect();
            let d: Result<Vec<u64>, String> = c[..3].iter().map(|s| check(s, &workers)).collect();
            (c, d)
        });
        out.setup_s.push(secs);
        corpus = c;
        warm.push(d);
    }
    out.check(
        "set-up warm-up checks agree",
        warm.windows(2).all(|w| w[0] == w[1]) && warm[0].is_ok(),
    );
    let op = |i: u64| check(&corpus[order[i as usize % CORPUS]], &workers);

    if !ctx.trace {
        out.phase = stat::timed_loop(ctx.budget, DIGEST_OPS, op);
        out.check(
            format!("first {DIGEST_OPS} cases checked"),
            out.phase.digests.len() == DIGEST_OPS,
        );
        out.digests
            .push(("simcheck", stat::fold(&out.phase.digests)));
        return out;
    }

    let untraced = stat::timed_loop(ctx.half(), DIGEST_OPS, op);
    out.absorb(&untraced);
    let mut n = Counts::default();
    let mut aux_us = Vec::new();
    let mut chains = Vec::new();
    trace::set_enabled(true);
    let traced = stat::timed_loop(ctx.half(), DIGEST_OPS, |i| {
        let before = n.aux_ns;
        let r = trace::op(i, || {
            traced_check(order[i as usize % CORPUS], &workers, &mut n)
        });
        aux_us.push((n.aux_ns - before) as f64 / 1e3);
        r.map(|(d, chain)| {
            if chains.len() < DIGEST_OPS {
                chains.push(chain);
            }
            d
        })
    });
    trace::set_enabled(false);
    out.absorb(&traced);
    out.check(
        "traced checks reproduce the untraced digests",
        traced
            .digests
            .iter()
            .zip(&untraced.digests)
            .all(|(a, b)| a == b),
    );
    out.digests
        .push(("simcheck", stat::fold(&untraced.digests)));
    if chains.len() == DIGEST_OPS {
        out.digests.push(("simcheck.chain", stat::fold(&chains)));
    }
    let spans = trace::take();

    let us = |name: &str| trace::mean(&spans, name, 1e3);
    let per_kib = |name: &str, kib: f64| trace::total(&spans, name).1 as f64 / kib.max(1e-9);
    let (_, first_ns) = trace::total(&spans, "simcheck.first");
    let l = &mut out.layers;
    l.insert(
        "netsim.events_per_op",
        n.events as f64 / n.cases.max(1) as f64,
    );
    l.insert(
        "netsim.ns_per_event",
        first_ns as f64 / n.events.max(1) as f64,
    );
    l.insert(
        "transfer.signature_ns_per_kib",
        per_kib("transfer.signature", n.sig_kib),
    );
    l.insert(
        "transfer.delta_ns_per_kib",
        per_kib("transfer.delta", n.delta_kib),
    );
    l.insert(
        "transfer.patch_ns_per_kib",
        per_kib("transfer.patch", n.patch_kib),
    );
    for (metric, span) in [
        ("simcheck.generate_us", "simcheck.generate"),
        ("simcheck.first_us", "simcheck.first"),
        ("simcheck.repeat_us", "simcheck.repeat"),
        ("simcheck.ref_alloc_us", "simcheck.ref_alloc"),
        ("simcheck.eager_us", "simcheck.eager"),
        ("simcheck.ref_routing_us", "simcheck.ref_routing"),
        ("simcheck.shard_us", "simcheck.shard"),
        ("simcheck.chunk_bypass_us", "simcheck.chunk_bypass"),
        ("simcheck.plane_coherence_us", "simcheck.plane_coherence"),
    ] {
        l.insert(metric, us(span));
    }
    l.insert(
        "obs.health_overhead_us",
        us("simcheck.first") - us("obs.health_off"),
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
    let workers = shard_workers(ctx.threads);
    let mut n = Counts::default();
    let (digests, chains): (Vec<u64>, Vec<u64>) = stat::shuffled(ctx.seed, CORPUS)[..DIGEST_OPS]
        .iter()
        .map(|&j| {
            let plain = check(&generate(j), &workers).expect("case passes");
            let (d, chain) = traced_check(j, &workers, &mut n).expect("case passes");
            assert_eq!(plain, d, "axis-by-axis check reproduces check_case_at");
            (d, chain)
        })
        .unzip();
    vec![
        ("simcheck", stat::fold(&digests)),
        ("simcheck.chain", stat::fold(&chains)),
    ]
}
