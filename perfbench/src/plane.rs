//! `route-plane`: a closed-loop caller issues [`RoutePlane::lookup`] calls
//! back to back. One op is one lookup.
//!
//! Keys are zipf(1.05)-skewed over (vantage, provider, size class): 256
//! vantages × 3 providers × 3 size classes, with a seed-dependent
//! popularity order. Cold and generation-stale keys are computed through a
//! [`ProbeSource`] over the NorthAmerica scenario. Virtual time is the
//! lookup sequence number × 1 µs; every 20 000 lookups a round-robin sweep
//! invalidates one (provider, 16-vantage window), and every 50 000 lookups
//! one node's breaker trips on the [`TripBoard`]. About 0.2% of lookups
//! recompute, so the p99.9 tail sits inside the recompute latencies.
//! Admission quotas exceed the virtual arrival rate, so no lookup is shed.
//!
//! One caller, not one per host thread: on a 2-vCPU VM under hypervisor
//! steal, a second caller halved throughput (two callers 1.6–2.4M
//! lookups/s against one caller's 4.3–4.5M) and doubled the run-to-run
//! spread. Concurrent callers also need their churn boundaries ordered
//! with their lookups for the staleness bound below to hold (a lookup
//! racing past a boundary before its invalidation lands serves a decision
//! one lookup older than the sweep period), which couples the callers on
//! every boundary. A single caller is exact and deterministic.
//!
//! Set-up builds the world, the plane and the probe source, then warms the
//! cache: every key once, then 200 000 scheduled lookups. Output checks:
//! the digest of the warm-up and of the first timed lookups against the
//! recorded one, served + shed = issued from the plane's counters, and no
//! served decision older than the churn sweep period.
//!
//! Latency is measured on one lookup in [`SAMPLE_EVERY`], chosen by
//! sequence number: a warm hit costs about as much as two clock reads.

use crate::stat::{self, Digest, Tail};
use crate::{trace, Ctx, Outcome};
use cloudstore::{ProviderKind, TripBoard};
use detour_core::Route;
use netsim::time::SimTime;
use netsim::topology::NodeId;
use routeplane::{
    AdmissionConfig, DecisionKey, DecisionSource, FleetConfig, Lookup, PlaneConfig, PlaneStats,
    ProbeSource, RoutePlane, ScoredEntry,
};
use scenarios::{Client, NorthAmerica};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Millions of sampled lookups per run: p99.9 keeps thousands beyond it.
const TAIL: Tail = Tail::P999;
const SETUP_REPS: usize = 5;
/// Latency is timed on lookups whose sequence number is a multiple of this.
pub const SAMPLE_EVERY: u64 = 128;
/// Latency samples held: 60 s at 2M lookups/s (later samples are dropped).
const LAT_CAP: usize = 1 << 20;
/// Timed lookups folded into the recorded digest.
const DIGEST_LOOKUPS: u64 = 1_000_000;
const VANTAGES: u32 = 256;
const PROVIDERS: u16 = 3;
const KEYS: u64 = VANTAGES as u64 * PROVIDERS as u64 * 3;
/// Coprime to [`KEYS`]: rank → key index is a bijection.
const KEY_STRIDE: u64 = 1031;
const ZIPF_S: f64 = 1.05;
const TENANTS: u32 = 8;
const NS_PER_LOOKUP: u64 = 1_000;
const CHURN_EVERY: u64 = 20_000;
const CHURN_WIDTH: u32 = 16;
const TRIP_EVERY: u64 = 50_000;
const TRIP_COOLDOWN_NS: u64 = 200_000_000;
const WARM_LOOKUPS: u64 = 200_000;

fn plane_config() -> PlaneConfig {
    PlaneConfig {
        shards: 64,
        providers: PROVIDERS,
        vantages: VANTAGES,
        vantage_bucket_shift: 2,
        tenants: TENANTS,
        // Above the virtual arrival rate (1e9 / NS_PER_LOOKUP per second)
        // for any single tenant: nothing is shed.
        admission: AdmissionConfig {
            tokens_per_sec: 4_000_000,
            burst: 1_000_000,
        },
    }
}

/// The staleness bound the churn sweep guarantees.
fn churn_period_ns() -> u64 {
    FleetConfig {
        churn_every: CHURN_EVERY,
        churn_width: CHURN_WIDTH,
        ns_per_lookup: NS_PER_LOOKUP,
        plane: plane_config(),
        ..FleetConfig::default()
    }
    .churn_period_ns()
    .expect("churn is on")
}

/// A fresh probe source over the scenario: the three clients as vantages
/// (cycled), the three providers, Direct / UAlberta / UMich.
fn probe_source(world: &NorthAmerica, seed: u64) -> ProbeSource {
    let sim = trace::span("scenarios.build_sim", || world.build_sim(seed));
    ProbeSource::new(
        sim,
        Client::all()
            .iter()
            .map(|&c| {
                let s = world.client(c);
                (s.node, s.class)
            })
            .collect(),
        ProviderKind::all()
            .iter()
            .map(|&p| world.provider(p))
            .collect(),
        vec![
            Route::Direct,
            Route::via(world.hop_ualberta()),
            Route::via(world.hop_umich()),
        ],
        [
            10 * netsim::units::MB,
            50 * netsim::units::MB,
            100 * netsim::units::MB,
        ],
    )
}

/// A [`DecisionSource`] that times every computation it forwards.
struct TimedSource {
    inner: ProbeSource,
    computed: Cell<bool>,
}

impl DecisionSource for TimedSource {
    fn compute(&self, key: DecisionKey, generation: u64) -> ScoredEntry {
        self.computed.set(true);
        trace::span("core.select", || self.inner.compute(key, generation))
    }
}

fn key_of(index: u64) -> DecisionKey {
    DecisionKey {
        vantage: (index / 9) as u32,
        provider: (index / 3 % 3) as u16,
        size_class: (index % 3) as u8,
    }
}

/// Inverse-CDF zipf(s) rank in `1..=n`.
fn zipf_rank(u: f64, n: u64) -> u64 {
    let e = 1.0 - ZIPF_S;
    let top = (n as f64).powf(e) - 1.0;
    ((top * u + 1.0).powf(1.0 / e) as u64).clamp(1, n)
}

/// The plane and the world it serves.
struct World {
    world: NorthAmerica,
    plane: RoutePlane,
    board: Arc<TripBoard>,
    nodes: u64,
    seed: u64,
}

/// The invalidation and trip events scheduled at sequence `i`: churn sweeps
/// (provider, vantage-window) cells round-robin every [`CHURN_EVERY`]
/// lookups, and a random node trips every [`TRIP_EVERY`].
fn events(w: &World, i: u64) {
    let now_ns = i * NS_PER_LOOKUP;
    if i.is_multiple_of(CHURN_EVERY) {
        let j = i / CHURN_EVERY;
        let windows = VANTAGES.div_ceil(CHURN_WIDTH) as u64;
        let provider = ((j / windows) % PROVIDERS as u64) as u16;
        let lo = ((j % windows) * CHURN_WIDTH as u64) as u32;
        trace::span("routeplane.invalidate", || {
            w.plane
                .invalidate_vantage_range(provider, lo, lo + CHURN_WIDTH - 1)
        });
    }
    if i.is_multiple_of(TRIP_EVERY) {
        let node = NodeId((stat::mix(w.seed ^ 0x7219, i) % w.nodes) as u32);
        trace::span("cloudstore.trip", || {
            w.board
                .trip(node, SimTime::from_nanos(now_ns + TRIP_COOLDOWN_NS))
        });
    }
}

/// The lookup scheduled at sequence `i`: a zipf-drawn key at virtual time
/// `i` µs. Returns the outcome and the virtual time.
fn lookup<S: DecisionSource>(w: &World, source: &S, i: u64) -> (Lookup, u64) {
    let now_ns = i * NS_PER_LOOKUP;
    let rank = zipf_rank(stat::unit(stat::mix(w.seed, i)), KEYS) - 1;
    let index = (rank * KEY_STRIDE + w.seed) % KEYS;
    let tenant = (rank % TENANTS as u64) as u32;
    (
        w.plane.lookup(tenant, key_of(index), now_ns, source),
        now_ns,
    )
}

fn fold(d: &mut Digest, i: u64, l: &Lookup) {
    match l {
        Lookup::Shed => d.u64(i).u64(0),
        Lookup::Served { decision, status } => d
            .u64(i)
            .u64(decision.score.bits())
            .u64(decision.generation)
            .u64(*status as u64 + 1),
    };
}

/// Build the world, plane and probe source and warm the cache. Returns the
/// warm-up digest.
fn setup(seed: u64) -> (World, TimedSource, u64) {
    let world = NorthAmerica::new();
    let nodes = world.topology().nodes().len() as u64;
    let board = Arc::new(TripBoard::new(nodes as usize));
    let plane = RoutePlane::new(plane_config()).with_trip_board(Arc::clone(&board));
    plane.reserve(KEYS as usize);
    let w = World {
        world,
        plane,
        board,
        nodes,
        seed,
    };
    let source = TimedSource {
        inner: probe_source(&w.world, seed),
        computed: Cell::new(false),
    };
    let mut d = Digest::default();
    for index in 0..KEYS {
        let l = w.plane.lookup(0, key_of(index), 0, &source);
        fold(&mut d, index, &l);
    }
    for i in 0..WARM_LOOKUPS {
        events(&w, i);
        let (l, _) = lookup(&w, &source, i);
        fold(&mut d, i, &l);
    }
    (w, source, d.finish())
}

/// What a timed phase counted.
struct Tally {
    issued: u64,
    shed: u64,
    max_staleness_ns: u64,
    /// Sampled latencies, ns: written in full before timing, so resident
    /// memory does not depend on throughput.
    lat_ns: Vec<u32>,
    sampled: usize,
    /// Digest of the first [`DIGEST_LOOKUPS`] lookups, once reached.
    digest: Option<u64>,
    /// Traced: (count, ns) of lookups served without / with a recompute.
    warm: (u64, u64),
    cold: (u64, u64),
    elapsed_s: f64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            issued: 0,
            shed: 0,
            max_staleness_ns: 0,
            lat_ns: vec![u32::MAX; LAT_CAP],
            sampled: 0,
            digest: None,
            warm: (0, 0),
            cold: (0, 0),
            elapsed_s: 0.0,
        }
    }
}

/// Look up from sequence `start` on until `budget` elapses. Traced, every
/// lookup is timed, and sampled or recomputing lookups are recorded as
/// spans. Returns the tally and the next sequence number.
fn serve(
    w: &World,
    source: &TimedSource,
    start: u64,
    budget: Duration,
    traced: bool,
) -> (Tally, u64) {
    let mut t = Tally::new();
    let mut d = Digest::default();
    let container = trace::next_id();
    let began = Instant::now();
    let began_ns = trace::now_ns();
    let mut i = start;
    while began.elapsed() < budget {
        for _ in 0..256 {
            events(w, i);
            let sampled = i.is_multiple_of(SAMPLE_EVERY);
            let id = if traced { trace::next_id() } else { 0 };
            source.computed.set(false);
            let t0 = if traced || sampled {
                trace::now_ns()
            } else {
                0
            };
            let (outcome, now_ns) = if traced {
                trace::with_context((id, i), || lookup(w, source, i))
            } else {
                lookup(w, source, i)
            };
            if traced || sampled {
                let t1 = trace::now_ns();
                let ns = t1 - t0;
                if sampled && t.sampled < t.lat_ns.len() {
                    t.lat_ns[t.sampled] = ns.min(u32::MAX as u64) as u32;
                    t.sampled += 1;
                }
                if traced {
                    let computed = source.computed.get();
                    let acc = if computed { &mut t.cold } else { &mut t.warm };
                    *acc = (acc.0 + 1, acc.1 + ns);
                    if sampled || computed {
                        trace::record(trace::Span {
                            id,
                            parent: container,
                            op: i,
                            name: "routeplane.lookup",
                            start_ns: t0,
                            end_ns: t1,
                        });
                    }
                }
            }
            t.issued += 1;
            match outcome {
                Lookup::Shed => t.shed += 1,
                Lookup::Served { decision, .. } => {
                    let age = now_ns.saturating_sub(decision.computed_at_ns);
                    t.max_staleness_ns = t.max_staleness_ns.max(age);
                }
            }
            if t.issued <= DIGEST_LOOKUPS {
                fold(&mut d, i, &outcome);
                if t.issued == DIGEST_LOOKUPS {
                    t.digest = Some(d.finish());
                }
            }
            i += 1;
        }
    }
    t.elapsed_s = began.elapsed().as_secs_f64();
    if traced {
        trace::record(trace::Span {
            id: container,
            parent: 0,
            op: 0,
            name: "op.worker",
            start_ns: began_ns,
            end_ns: trace::now_ns(),
        });
    }
    (t, i)
}

fn delta(a: PlaneStats, b: PlaneStats) -> PlaneStats {
    PlaneStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        stale_refreshes: b.stale_refreshes - a.stale_refreshes,
        demotions: b.demotions - a.demotions,
        sheds: b.sheds - a.sheds,
    }
}

/// Check a phase's counters and turn its counts into a [`stat::Phase`].
fn judge(out: &mut Outcome, label: &str, t: &Tally, stats: PlaneStats) -> stat::Phase {
    let period = churn_period_ns();
    out.check(
        format!(
            "{label}: served {} + shed {} = issued {}",
            stats.served(),
            stats.sheds,
            t.issued
        ),
        stats.served() + stats.sheds == t.issued && stats.sheds == t.shed,
    );
    out.check(
        format!(
            "{label}: staleness max {} ns <= churn period {period} ns",
            t.max_staleness_ns
        ),
        t.max_staleness_ns <= period,
    );
    let mut p = stat::Phase {
        ok: t.issued - t.shed,
        failed: t.shed,
        elapsed_s: t.elapsed_s,
        lat_us: t.lat_ns[..t.sampled]
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
        ..Default::default()
    };
    if t.shed > 0 {
        p.errors.push(format!("{label}: {} lookups shed", t.shed));
    }
    p
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(TAIL);
    out.sample_every = SAMPLE_EVERY;
    let mut state = None;
    let mut warm = Vec::new();
    // Traced runs time set-up's simulator builds too (`setup_s` is where
    // they show on this workload).
    trace::set_enabled(ctx.trace);
    for _ in 0..SETUP_REPS {
        let ((w, source, d), secs) = stat::timed(|| setup(ctx.seed));
        out.setup_s.push(secs);
        warm.push(d);
        state = Some((w, source));
    }
    trace::set_enabled(false);
    let mut setup_spans = trace::take();
    setup_spans.retain(|s| s.name == "scenarios.build_sim");
    let (w, source) = state.expect("at least one set-up");
    out.check(
        "set-up warm-up passes agree",
        warm.windows(2).all(|p| p[0] == p[1]),
    );

    let before = w.plane.stats();
    let budget = if ctx.trace { ctx.half() } else { ctx.budget };
    let (tally, next) = serve(&w, &source, WARM_LOOKUPS, budget, false);
    // Read before the samples are converted, which allocates in proportion
    // to throughput.
    out.peak_rss_mb = Some(stat::peak_rss_mb());
    let untraced = judge(
        &mut out,
        "timed lookups",
        &tally,
        delta(before, w.plane.stats()),
    );
    out.check(
        format!("first {DIGEST_LOOKUPS} timed lookups served"),
        tally.digest.is_some(),
    );
    out.digests.push((
        "route-plane",
        stat::fold(&[warm[0], tally.digest.unwrap_or(0)]),
    ));
    if !ctx.trace {
        out.phase = untraced;
        return out;
    }
    out.absorb(&untraced);

    let before = w.plane.stats();
    trace::set_enabled(true);
    let (traced_tally, _) = serve(&w, &source, next, ctx.half(), true);
    trace::set_enabled(false);
    let stats = delta(before, w.plane.stats());
    let traced = judge(&mut out, "traced lookups", &traced_tally, stats);
    out.absorb(&traced);
    let mut spans = trace::take();
    spans.extend(setup_spans);

    let mean = |(n, ns): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let (_, inval_ns) = trace::total(&spans, "routeplane.invalidate");
    let (_, trip_ns) = trace::total(&spans, "cloudstore.trip");
    let layer_ns = traced_tally.warm.1 + traced_tally.cold.1 + inval_ns + trip_ns;
    let busy_ns = traced_tally.elapsed_s * 1e9;
    let l = &mut out.layers;
    l.insert(
        "scenarios.build_sim_us",
        trace::mean(&spans, "scenarios.build_sim", 1e3),
    );
    l.insert("core.select_us", trace::mean(&spans, "core.select", 1e3));
    l.insert("routeplane.lookup_warm_ns", mean(traced_tally.warm));
    l.insert("routeplane.lookup_cold_us", mean(traced_tally.cold) / 1e3);
    l.insert(
        "routeplane.invalidate_ns",
        trace::mean(&spans, "routeplane.invalidate", 1.0),
    );
    l.insert(
        "routeplane.hit_ratio",
        stats.hits as f64 / stats.served().max(1) as f64,
    );
    l.insert(
        "routeplane.shed_ratio",
        stats.sheds as f64 / traced_tally.issued.max(1) as f64,
    );
    l.insert("routeplane.stale_refreshes", stats.stale_refreshes as f64);
    l.insert("routeplane.demotions", stats.demotions as f64);
    // Lookups are timed in aggregate, not all as spans: attribute from the
    // accumulated call time.
    l.insert(
        "trace.unattributed_share",
        1.0 - layer_ns as f64 / busy_ns.max(1.0),
    );
    let rate = |t: &Tally| t.issued as f64 / t.elapsed_s.max(1e-9);
    let overhead = (rate(&tally) / rate(&traced_tally) - 1.0) * 100.0;
    out.trace_summary(spans, overhead);
    out
}

pub fn record(ctx: &Ctx) -> Vec<(&'static str, u64)> {
    let (w, source, warm) = setup(ctx.seed);
    let mut d = Digest::default();
    for i in WARM_LOOKUPS..WARM_LOOKUPS + DIGEST_LOOKUPS {
        events(&w, i);
        let (l, _) = lookup(&w, &source, i);
        fold(&mut d, i, &l);
    }
    vec![("route-plane", stat::fold(&[warm, d.finish()]))]
}
