//! `paper-campaign`: the paper's seven (client × provider) campaigns —
//! Figures 2, 4 and 7–11 — over Direct, UAlberta and UMich, seven file
//! sizes, under the 7-run protocol. One op is one campaign of 147 uploads
//! ([`Campaign::run`] with `threads` = host threads, telemetry off); ops
//! cycle through the seven campaigns.
//!
//! The traced half re-executes each campaign job by job through the same
//! public calls `Campaign::run` makes — a timing [`SimFactory`] around
//! [`NorthAmerica`], then [`run_job`] — with the same per-run seeds, and
//! must reproduce the campaign's statistics bit for bit.

use crate::stat::{self, Digest, Tail};
use crate::{trace, Ctx, Outcome};
use cloudstore::{ProviderKind, TokenPolicy, UploadOptions};
use detour_core::{run_job, Campaign, CampaignResult, SimFactory};
use measure::{RunProtocol, Stats};
use netsim::engine::Sim;
use scenarios::{Client, ExperimentSet, NorthAmerica};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// ≈1000–1400 campaigns in a 10 s run: p90 keeps 100+ samples beyond it.
const TAIL: Tail = Tail::P90;
/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 5;

/// The paper's campaign figures, in figure order.
const CAMPAIGNS: [(Client, ProviderKind); 7] = [
    (Client::Ubc, ProviderKind::GoogleDrive),
    (Client::Ubc, ProviderKind::Dropbox),
    (Client::Purdue, ProviderKind::GoogleDrive),
    (Client::Purdue, ProviderKind::Dropbox),
    (Client::Purdue, ProviderKind::OneDrive),
    (Client::Ucla, ProviderKind::GoogleDrive),
    (Client::Ucla, ProviderKind::Dropbox),
];

/// A [`SimFactory`] that times every simulator it builds.
struct TimedFactory<'a>(&'a NorthAmerica);

impl SimFactory for TimedFactory<'_> {
    fn build(&self, seed: u64) -> Sim {
        trace::span("scenarios.build_sim", || self.0.build_sim(seed))
    }
}

/// The seven campaigns with the workload's label and thread count.
fn campaigns<'a>(world: &'a NorthAmerica, seed: u64, threads: usize) -> Vec<Campaign<'a>> {
    let set = ExperimentSet {
        threads,
        ..ExperimentSet::paper(world)
    };
    CAMPAIGNS
        .iter()
        .map(|&(client, provider)| {
            let mut c = set.campaign_spec(client, provider);
            c.label = format!("bench-{seed}/{}", c.label);
            c
        })
        .collect()
}

fn stats_digest(cells: &[Vec<Stats>]) -> u64 {
    let mut d = Digest::default();
    for s in cells.iter().flatten() {
        d.u64(s.n as u64)
            .f64(s.mean)
            .f64(s.std_dev)
            .f64(s.min)
            .f64(s.max);
    }
    d.finish()
}

fn run_campaign(c: &Campaign) -> Result<u64, String> {
    c.run()
        .map(|r: CampaignResult| stats_digest(&r.cells))
        .map_err(|e| e.to_string())
}

/// Engine counters summed over a traced campaign's jobs.
#[derive(Default)]
struct NetCounts {
    events: u64,
    reallocations: u64,
    peak_queue: u64,
}

/// One campaign, job by job, exactly as `Campaign::run` schedules it:
/// `threads` workers claim job indices off a shared counter, each job
/// builds its simulator through the factory and runs one upload.
fn traced_campaign(
    c: &Campaign,
    factory: &dyn SimFactory,
    threads: usize,
    net: &Mutex<NetCounts>,
) -> Result<u64, String> {
    let runs = c.protocol.total_runs;
    let n_jobs = c.sizes.len() * c.routes.len() * runs;
    let results: Vec<Mutex<Option<Result<f64, String>>>> =
        (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let parent = trace::context();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n_jobs) {
            scope.spawn(|| {
                trace::with_context(parent, || {
                    trace::span("op.worker", || loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= n_jobs {
                            break;
                        }
                        let run = j % runs;
                        let route = &c.routes[(j / runs) % c.routes.len()];
                        let size = c.sizes[j / (runs * c.routes.len())];
                        let label = format!(
                            "{}/{}/{}/{}/{}",
                            c.label,
                            c.client.name,
                            c.provider.kind.display_name(),
                            route.label(),
                            size
                        );
                        let mut sim = factory.build(RunProtocol::run_seed(&label, run));
                        let opts = UploadOptions {
                            token: if run < c.protocol.discard {
                                TokenPolicy::Fresh
                            } else {
                                TokenPolicy::Cached
                            },
                            class: c.client.class,
                            ..UploadOptions::default()
                        };
                        let name = if route.is_detour() {
                            "core.run_job.detour"
                        } else {
                            "core.run_job.direct"
                        };
                        let out = trace::span(name, || {
                            run_job(
                                &mut sim,
                                c.client.node,
                                c.client.class,
                                &c.provider,
                                size,
                                route,
                                opts,
                            )
                        });
                        let s = sim.stats();
                        {
                            let mut n = net.lock().expect("counter lock poisoned");
                            n.events += s.events;
                            n.reallocations += s.reallocations;
                            n.peak_queue = n.peak_queue.max(s.peak_queue);
                        }
                        *results[j].lock().expect("result lock poisoned") =
                            Some(out.map(|r| r.secs()).map_err(|e| e.to_string()));
                    })
                })
            });
        }
    });
    let mut cells = Vec::with_capacity(c.sizes.len());
    for si in 0..c.sizes.len() {
        let mut row = Vec::with_capacity(c.routes.len());
        for ri in 0..c.routes.len() {
            let mut samples = Vec::with_capacity(c.protocol.kept());
            for run in 0..runs {
                let j = (si * c.routes.len() + ri) * runs + run;
                let secs = results[j]
                    .lock()
                    .expect("result lock poisoned")
                    .take()
                    .expect("every job ran")?;
                if run >= c.protocol.discard {
                    samples.push(secs);
                }
            }
            row.push(Stats::from_samples(&samples));
        }
        cells.push(row);
    }
    Ok(stats_digest(&cells))
}

/// Build the world and run each campaign once: the reference digests every
/// timed op is compared with.
fn setup(ctx: &Ctx) -> (NorthAmerica, Vec<Result<u64, String>>) {
    let world = NorthAmerica::new();
    let refs = campaigns(&world, ctx.seed, ctx.threads)
        .iter()
        .map(run_campaign)
        .collect();
    (world, refs)
}

/// Compare an op's digest with its campaign's reference.
fn verify(refs: &[u64], i: u64, got: Result<u64, String>) -> Result<u64, String> {
    let want = refs[i as usize % refs.len()];
    match got {
        Ok(d) if d == want => Ok(d),
        Ok(d) => Err(format!("campaign digest {d:016x} != reference {want:016x}")),
        Err(e) => Err(e),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(TAIL);
    let mut state = None;
    let mut agree = true;
    for _ in 0..SETUP_REPS {
        let (s, secs) = stat::timed(|| setup(ctx));
        out.setup_s.push(secs);
        if let Some((_, prev)) = &state {
            agree &= *prev == s.1;
        }
        state = Some(s);
    }
    out.check("set-up repetitions agree", agree);
    let (world, refs) = state.expect("at least one set-up");
    let refs: Vec<u64> = match refs.into_iter().collect() {
        Ok(r) => r,
        Err(e) => {
            out.check(format!("reference campaigns ran: {e}"), false);
            out.extra_attempted += 1;
            out.extra_failed += 1;
            return out;
        }
    };
    out.digests.push(("paper-campaign", stat::fold(&refs)));
    let list = campaigns(&world, ctx.seed, ctx.threads);
    let op = |i: u64| verify(&refs, i, run_campaign(&list[i as usize % list.len()]));

    if !ctx.trace {
        out.phase = stat::timed_loop(ctx.budget, 0, op);
        return out;
    }

    let untraced = stat::timed_loop(ctx.half(), 0, op);
    out.absorb(&untraced);
    let factory = TimedFactory(&world);
    let net = Mutex::new(NetCounts::default());
    trace::set_enabled(true);
    let traced = stat::timed_loop(ctx.half(), 0, |i| {
        trace::op(i, || {
            let c = &list[i as usize % list.len()];
            verify(&refs, i, traced_campaign(c, &factory, ctx.threads, &net))
        })
    });
    trace::set_enabled(false);
    out.absorb(&traced);
    let spans = trace::take();

    let ops = traced.attempted().max(1) as f64;
    let net = net.into_inner().expect("counter lock poisoned");
    let (_, direct_ns) = trace::total(&spans, "core.run_job.direct");
    let (_, detour_ns) = trace::total(&spans, "core.run_job.detour");
    let l = &mut out.layers;
    l.insert("netsim.events_per_op", net.events as f64 / ops);
    l.insert(
        "netsim.ns_per_event",
        (direct_ns + detour_ns) as f64 / net.events.max(1) as f64,
    );
    l.insert(
        "netsim.reallocations_per_op",
        net.reallocations as f64 / ops,
    );
    l.insert("netsim.peak_queue", net.peak_queue as f64);
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
    // Fresh rsync legs are priced arithmetically: no transfer calls.
    l.insert("transfer.kib_per_op", 0.0);
    out.trace_summary(
        spans,
        crate::paired_overhead_pct(&untraced.lat_us, &traced.lat_us),
    );
    out
}

pub fn record(ctx: &Ctx) -> Vec<(&'static str, u64)> {
    let (_, refs) = setup(ctx);
    let refs: Vec<u64> = refs
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("reference campaigns run");
    vec![("paper-campaign", stat::fold(&refs))]
}
