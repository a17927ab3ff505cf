//! `detour` — command-line front end to the routing-detours library.
//!
//! ```text
//! detour simulate   --client ubc --provider gdrive --size 100 [--route ualberta] [--runs 7] [--seed 1]
//! detour best-route --client purdue --provider gdrive --size 60 [--rule overlap|mean]
//! detour traceroute --client ubc --provider gdrive
//! detour probe      --client ubc
//! detour tiv        --client ubc --provider gdrive
//! detour trace      --client ubc --provider gdrive --size 100 [--route ualberta] [--seed 1]
//!                   [--format tree|jsonl|chrome|metrics] [--out FILE]
//! detour trace      --from FILE          # summarize a recorded JSONL trace
//! detour health     --client ubc --provider gdrive --size 100 [--route ualberta] [--runs 3]
//!                   [--seed 1] [--record FILE] [--slo-p99-secs N] [--format table|json] [--out FILE]
//! detour health     --trace FILE [--slo-p99-secs N] [--format table|json] [--out FILE]
//! detour analyze    (same inputs as health) [--top N]
//! detour check      [--cases 64] [--seed 7] [--class std|chaos|sync] [--threads N] [--replay FILE]
//!                   [--out FILE]
//! detour plane      [--lookups N] [--clients N] [--threads N] [--seed N] [--tenants N]
//!                   [--churn-every N] [--trip-every N]
//! detour sync       [--tenants N] [--files N] [--rounds N] [--size-kb N] [--cache-mb N]
//!                   [--seed N] [--out FILE]
//! ```
//!
//! `health` renders the SLO scoreboard (per vantage/provider/size-class
//! attempts, error and latency verdicts, burn rates); `analyze` renders
//! critical paths, retry waterfalls, breaker timelines and slowest spans.
//! Both read either a live campaign (replayed deterministically from
//! `--seed`) or a recorded JSONL trace; `--record` saves the live campaign
//! so the two inputs are byte-identical.
//!
//! Clients: `ubc`, `purdue`, `ucla`. Providers: `gdrive`, `dropbox`,
//! `onedrive`. Routes: `direct`, `ualberta`, `umich`.

use routing_detours::cloudstore::{ProviderKind, UploadOptions};
use routing_detours::detour_core::{run_job, DecisionRule, Route};
use routing_detours::measure::RunProtocol;
use routing_detours::netsim::trace::Traceroute;
use routing_detours::netsim::units::MB;
use routing_detours::scenarios::{Client, NorthAmerica};

fn usage() -> ! {
    eprintln!(
        "usage:\n  detour simulate   --client <ubc|purdue|ucla> --provider <gdrive|dropbox|onedrive> \
         --size <MB> [--route <direct|ualberta|umich>] [--runs N] [--seed N]\n  detour best-route \
         --client <c> --provider <p> --size <MB> [--rule <overlap|mean>]\n  detour traceroute \
         --client <c> --provider <p>\n  detour probe      --client <c>\n  detour trace      \
         --client <c> --provider <p> --size <MB> [--route <r>] [--seed N] \
         [--format <tree|jsonl|chrome|metrics>] [--out FILE]\n  detour trace      \
         --from FILE\n  detour health     --client <c> --provider <p> --size <MB> [--route <r>] \
         [--runs N] [--seed N] [--record FILE] [--slo-p99-secs N] [--format <table|json>] \
         [--out FILE]\n  detour health     --trace FILE [--slo-p99-secs N] [--format <table|json>] \
         [--out FILE]\n  detour analyze    (same inputs as health) [--top N]\n  detour check      \
         [--cases N] [--seed N] [--class <std|chaos|sync>] [--threads N] [--replay FILE] [--out FILE]\n  \
         detour plane      [--lookups N] [--clients N] [--threads N] [--seed N] [--tenants N] \
         [--churn-every N] [--trip-every N]\n  \
         detour sync       [--tenants N] [--files N] [--rounds N] [--size-kb N] [--cache-mb N] \
         [--seed N] [--out FILE]\n\
         \nDETOUR_THREADS sets the default worker count for sharded check executions."
    );
    std::process::exit(2);
}

struct Args {
    cmd: String,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse() -> Self {
        let mut argv = std::env::args().skip(1);
        let cmd = argv.next().unwrap_or_else(|| usage());
        let mut flags = std::collections::HashMap::new();
        let rest: Vec<String> = argv.collect();
        let mut i = 0;
        while i < rest.len() {
            let k = rest[i].trim_start_matches("--").to_string();
            if !rest[i].starts_with("--") || i + 1 >= rest.len() {
                usage();
            }
            flags.insert(k, rest[i + 1].clone());
            i += 2;
        }
        Args { cmd, flags }
    }

    fn client(&self) -> Client {
        match self.flags.get("client").map(String::as_str) {
            Some("ubc") => Client::Ubc,
            Some("purdue") => Client::Purdue,
            Some("ucla") => Client::Ucla,
            _ => usage(),
        }
    }

    fn provider(&self) -> ProviderKind {
        match self.flags.get("provider").map(String::as_str) {
            Some("gdrive") | Some("google") => ProviderKind::GoogleDrive,
            Some("dropbox") => ProviderKind::Dropbox,
            Some("onedrive") => ProviderKind::OneDrive,
            _ => usage(),
        }
    }

    fn size_bytes(&self) -> u64 {
        self.flags
            .get("size")
            .and_then(|s| s.parse::<u64>().ok())
            .map(|mb| mb * MB)
            .unwrap_or_else(|| usage())
    }

    fn u64_flag(&self, name: &str, default: u64) -> u64 {
        self.flags
            .get(name)
            .map(|s| s.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(default)
    }
}

fn route_by_name(world: &NorthAmerica, name: &str) -> Route {
    match name {
        "direct" => Route::Direct,
        "ualberta" => Route::via(world.hop_ualberta()),
        "umich" => Route::via(world.hop_umich()),
        _ => usage(),
    }
}

fn main() {
    let args = Args::parse();
    let world = NorthAmerica::new();
    match args.cmd.as_str() {
        "simulate" => simulate(&args, &world),
        "best-route" => best_route(&args, &world),
        "traceroute" => traceroute(&args, &world),
        "probe" => probe(&args, &world),
        "tiv" => tiv(&args, &world),
        "trace" => trace(&args, &world),
        "health" => health(&args, &world),
        "analyze" => analyze(&args, &world),
        "check" => check(&args),
        "plane" => plane(&args),
        "sync" => sync_study(&args, &world),
        _ => usage(),
    }
}

/// Obtain the trace both report commands work from: a recorded JSONL file
/// when `--trace FILE` is given (typed errors with remediation hints on
/// missing/truncated files), otherwise a live campaign — `--runs`
/// deterministic uploads whose telemetry segments are concatenated exactly
/// as `--record` would write them, so live and recorded scoreboards are
/// computed from identical bytes.
fn report_input(args: &Args, world: &NorthAmerica) -> routing_detours::obs::Trace {
    use routing_detours::obs;
    if let Some(path) = args.flags.get("trace") {
        return obs::load_trace(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    }
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let size = args.size_bytes();
    let runs = args.u64_flag("runs", 3) as usize;
    let seed = args.u64_flag("seed", 1);
    let route_name = args
        .flags
        .get("route")
        .cloned()
        .unwrap_or_else(|| "direct".into());
    let route = route_by_name(world, &route_name);
    let mut jsonl = String::new();
    for r in 0..runs {
        let mut sim = world.build_sim(seed + r as u64);
        sim.enable_telemetry();
        // Failures still record job.error events — exactly what the
        // scoreboard is for — so errors are folded in, not fatal.
        let _ = run_job(
            &mut sim,
            client.node,
            client.class,
            &provider,
            size,
            &route,
            UploadOptions::warm(client.class),
        );
        let rec = sim.take_telemetry().expect("telemetry was enabled");
        jsonl.push_str(&routing_detours::obs::jsonl_log(&rec));
    }
    if let Some(path) = args.flags.get("record") {
        std::fs::write(path, &jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("recorded {path} ({} bytes)", jsonl.len());
    }
    obs::parse_jsonl(&jsonl, "<live>").expect("live recordings always parse")
}

fn write_or_print(args: &Args, rendered: &str) {
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path} ({} bytes)", rendered.len());
        }
        None => print!("{rendered}"),
    }
}

/// Route-health scoreboard: per (vantage, provider, size-class) attempts,
/// quantiles, retry/failover pressure and multi-window SLO burn rates.
fn health(args: &Args, world: &NorthAmerica) {
    use routing_detours::obs;
    let trace = report_input(args, world);
    let mut slo = obs::SloPolicy::default();
    if let Some(secs) = args.flags.get("slo-p99-secs") {
        let secs: u64 = secs.parse().unwrap_or_else(|_| usage());
        slo.p99_ns = secs.saturating_mul(1_000_000_000);
    }
    let mut board = obs::HealthBoard::new(slo);
    board.ingest(&trace);
    let report = board.report();
    let rendered = match args.flags.get("format").map(String::as_str) {
        None | Some("table") => report.to_text(),
        Some("json") => report.to_json(),
        _ => usage(),
    };
    write_or_print(args, &rendered);
}

/// Trace analytics: per-session critical paths, retry waterfalls, breaker
/// timelines and the top-k slowest spans.
fn analyze(args: &Args, world: &NorthAmerica) {
    use routing_detours::obs;
    let trace = report_input(args, world);
    let top = args.u64_flag("top", 10) as usize;
    let report = obs::analyze(&trace, top);
    let rendered = match args.flags.get("format").map(String::as_str) {
        None | Some("table") => report.to_text(),
        Some("json") => report.to_json(),
        _ => usage(),
    };
    write_or_print(args, &rendered);
}

/// Deterministic simulation checking: run randomized scenarios through the
/// engine under invariant oracles (byte conservation, link capacity,
/// max-min fairness, clock monotonicity, same-seed determinism). Prints a
/// machine-readable JSON verdict on stdout, a human summary on stderr, and
/// exits nonzero if any invariant fired. `--replay FILE` re-executes a
/// scenario spec saved from an earlier failure instead of generating cases.
fn check(args: &Args) {
    use routing_detours::simcheck;
    let report = match args.flags.get("replay") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            simcheck::replay(&text, None).unwrap_or_else(|e| {
                eprintln!("bad scenario spec in {path}: {e}");
                std::process::exit(1);
            })
        }
        None => simcheck::run_check(simcheck::CheckConfig {
            cases: u32::try_from(args.u64_flag("cases", 64)).unwrap_or_else(|_| usage()),
            seed: args.u64_flag("seed", 7),
            class: match args.flags.get("class").map(String::as_str) {
                None | Some("std") => simcheck::ScenarioClass::Standard,
                Some("chaos") => simcheck::ScenarioClass::Chaos,
                Some("sync") => simcheck::ScenarioClass::Sync,
                _ => usage(),
            },
            // Extra sharded-executor worker count on top of the standard
            // 1/2/4 set: --threads flag, else DETOUR_THREADS, else the
            // host's parallelism (netsim::shard::resolve_threads).
            threads: match args.flags.get("threads") {
                Some(s) => {
                    let n: usize = s.parse().unwrap_or_else(|_| usage());
                    routing_detours::netsim::shard::resolve_threads(Some(n)) as u32
                }
                None if std::env::var("DETOUR_THREADS").is_ok() => {
                    routing_detours::netsim::shard::resolve_threads(None) as u32
                }
                None => 0,
            },
            ..simcheck::CheckConfig::default()
        }),
    };
    let verdict = report.to_json();
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, &verdict).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path} ({} bytes)", verdict.len());
        }
        None => println!("{verdict}"),
    }
    eprintln!(
        "simcheck: {} passed, {} failed, {} events audited",
        report.passed,
        report.failures.len(),
        report.events
    );
    for f in &report.failures {
        eprintln!(
            "  case {} (seed {}): {} violation(s), shrunk in {} step(s); first: {}",
            f.case_index,
            f.case_seed,
            f.violations.len(),
            f.shrink_steps,
            f.violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default()
        );
        eprintln!(
            "  reproduce with: detour check --replay <(echo '{}')",
            f.shrunk.to_json()
        );
    }
    if !report.ok() {
        std::process::exit(1);
    }
}

/// Drive the route-intelligence plane with a zipf-skewed client fleet:
/// millions of simulated clients asking "which route now?", with monitor
/// churn invalidating generations and breaker trips demoting detours.
/// Prints the one-line fleet report (QPS, hit/stale/demote/shed counts,
/// staleness quantiles, determinism digest) plus the churn-sweep staleness
/// bound the run is held to.
fn plane(args: &Args) {
    use routing_detours::routeplane::{run_fleet, FleetConfig, PlaneConfig};
    let plane_cfg = PlaneConfig {
        tenants: args.u64_flag("tenants", PlaneConfig::default().tenants as u64) as u32,
        ..PlaneConfig::default()
    };
    let cfg = FleetConfig {
        clients: args.u64_flag("clients", 1_000_000),
        lookups: args.u64_flag("lookups", 2_000_000),
        threads: args.u64_flag("threads", 1).max(1) as usize,
        seed: args.u64_flag("seed", 7),
        churn_every: args.u64_flag("churn-every", 10_000),
        trip_every: args.u64_flag("trip-every", 50_000),
        plane: plane_cfg,
        ..FleetConfig::default()
    };
    let report = run_fleet(&cfg);
    println!("{}", report.to_line());
    match cfg.churn_period_ns() {
        Some(bound) => {
            let max = report.staleness.max().unwrap_or(0);
            println!(
                "staleness max {max} ns within the {bound} ns churn-sweep bound: {}",
                if max <= bound { "ok" } else { "VIOLATED" }
            );
            if max > bound {
                std::process::exit(1);
            }
        }
        None => println!("churn disabled: staleness unbounded by construction"),
    }
}

/// The delta-sync study on the calibrated map: tenants replicating one
/// mutating dataset to Google Drive, timed over three arms per round —
/// direct full upload, the paper's store-and-forward detour, and a
/// delta-sync detour through a shared chunk store at the UAlberta DTN.
/// Prints the per-cell table plus byte savings, cache hit rate and win/loss
/// flips versus plain store-and-forward.
fn sync_study(args: &Args, world: &NorthAmerica) {
    use routing_detours::scenarios::{run_sync_study, SyncStudyConfig};
    let d = SyncStudyConfig::default();
    let cfg = SyncStudyConfig {
        tenants: args.u64_flag("tenants", d.tenants as u64) as u32,
        files: args.u64_flag("files", d.files as u64) as u32,
        rounds: args.u64_flag("rounds", d.rounds as u64) as u32,
        file_kb: args.u64_flag("size-kb", d.file_kb as u64) as u32,
        cache_mb: args.u64_flag("cache-mb", d.cache_mb as u64) as u32,
        seed: args.u64_flag("seed", d.seed),
    };
    let report = run_sync_study(world, cfg);
    write_or_print(args, &report.render());
}

/// Run one upload with telemetry enabled and export the recording: a span
/// tree for humans, JSONL or Chrome trace-event JSON (Perfetto) for tools,
/// or the metrics snapshot as a table.
fn trace(args: &Args, world: &NorthAmerica) {
    use routing_detours::obs;
    if let Some(path) = args.flags.get("from") {
        // Summarize an existing recording instead of running a simulation.
        // Broken files get the trace loader's typed, line-numbered error.
        let t = obs::load_trace(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        let unclosed = t.spans.iter().filter(|s| s.end_ns.is_none()).count();
        println!(
            "{path}: {} span(s) ({unclosed} unclosed), {} event(s), {:.2} s of sim time",
            t.spans.len(),
            t.events.len(),
            t.end_ns() as f64 / 1e9
        );
        return;
    }
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let size = args.size_bytes();
    let seed = args.u64_flag("seed", 1);
    let route_name = args
        .flags
        .get("route")
        .cloned()
        .unwrap_or_else(|| "direct".into());
    let route = route_by_name(world, &route_name);

    let mut sim = world.build_sim(seed);
    sim.enable_telemetry();
    let report = run_job(
        &mut sim,
        client.node,
        client.class,
        &provider,
        size,
        &route,
        UploadOptions::warm(client.class),
    )
    .unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    let rec = sim.take_telemetry().expect("telemetry was enabled");

    let format = args
        .flags
        .get("format")
        .map(String::as_str)
        .unwrap_or("tree");
    let rendered = match format {
        "tree" => format!(
            "{} -> {} ({}), {} MB, seed {}: {:.2} s\n\n{}\n{}",
            client.name,
            provider.kind.display_name(),
            route.label(),
            size / MB,
            seed,
            report.secs(),
            obs::span_tree_text(&rec),
            routing_detours::measure::metrics_table(&rec.metrics.snapshot(), "metrics").render()
        ),
        "jsonl" => obs::jsonl_log(&rec),
        "chrome" => obs::chrome_trace_json(&rec),
        "metrics" => {
            routing_detours::measure::metrics_table(&rec.metrics.snapshot(), "metrics").render()
        }
        _ => usage(),
    };
    match args.flags.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path} ({} bytes)", rendered.len());
        }
        None => print!("{rendered}"),
    }
}

/// Report bandwidth triangle-inequality violations for a client/provider
/// pair over the standard DTN candidates.
fn tiv(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let mut sim = world.build_sim(args.u64_flag("seed", 1));
    let frontend = provider.frontend_for(sim.core().topology(), client.node);
    let n = *world.nodes();
    let candidates = [
        (
            n.ualberta,
            routing_detours::netsim::flow::FlowClass::Research,
        ),
        (n.umich, routing_detours::netsim::flow::FlowClass::PlanetLab),
    ];
    let tivs = routing_detours::detour_core::find_bandwidth_tivs(
        sim.core(),
        client.node,
        client.class,
        frontend,
        &candidates,
    )
    .unwrap_or_else(|e| {
        eprintln!("tiv scan failed: {e}");
        std::process::exit(1);
    });
    if tivs.is_empty() {
        println!(
            "no bandwidth TIV: no candidate detour can beat the direct path from {} to {}",
            client.name,
            provider.kind.display_name()
        );
        return;
    }
    println!(
        "bandwidth triangle-inequality violations, {} -> {}:",
        client.name,
        provider.kind.display_name()
    );
    let mut name_of = |id| sim.core().topology().node(id).name.clone();
    for t in tivs {
        println!(
            "  via {:<24} direct {} vs detour {} ({:.2}x)",
            name_of(t.via),
            t.direct,
            t.detour,
            t.ratio()
        );
    }
}

fn simulate(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let size = args.size_bytes();
    let runs = args.u64_flag("runs", 1) as usize;
    let seed = args.u64_flag("seed", 1);
    let route_name = args
        .flags
        .get("route")
        .cloned()
        .unwrap_or_else(|| "direct".into());
    let route = route_by_name(world, &route_name);

    let mut secs = Vec::with_capacity(runs);
    for r in 0..runs {
        let mut sim = world.build_sim(seed + r as u64);
        let report = run_job(
            &mut sim,
            client.node,
            client.class,
            &provider,
            size,
            &route,
            UploadOptions::warm(client.class),
        )
        .unwrap_or_else(|e| {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        });
        secs.push(report.secs());
    }
    let stats = routing_detours::measure::Stats::from_samples(&secs);
    println!(
        "{} -> {} ({}), {} MB, {}: {:.2} s ± {:.2} over {} run(s)",
        client.name,
        provider.kind.display_name(),
        route.label(),
        size / MB,
        if runs > 1 { "mean" } else { "time" },
        stats.mean,
        stats.std_dev,
        runs
    );
}

fn best_route(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let size = args.size_bytes();
    let rule = match args.flags.get("rule").map(String::as_str) {
        Some("mean") => DecisionRule::MeanOnly,
        _ => DecisionRule::OverlapAware,
    };
    let routes = vec![
        Route::Direct,
        Route::via(world.hop_ualberta()),
        Route::via(world.hop_umich()),
    ];
    let oracle = routing_detours::detour_core::OracleSelector {
        protocol: RunProtocol::paper(),
    };
    let (choice, stats) = oracle
        .choose(world, &client, &provider, &routes, size, "cli", 0)
        .unwrap_or_else(|e| {
            eprintln!("measurement failed: {e}");
            std::process::exit(1);
        });
    println!(
        "measured ({} MB to {}):",
        size / MB,
        provider.kind.display_name()
    );
    for (route, s) in routes.iter().zip(&stats) {
        println!("  {:<14} {:.2} s ± {:.2}", route.label(), s.mean, s.std_dev);
    }
    let best_detour = (1..routes.len())
        .min_by(|&a, &b| stats[a].mean.partial_cmp(&stats[b].mean).expect("finite"))
        .expect("detours present");
    let decision = if rule.prefer_detour(&stats[0], &stats[best_detour]) {
        routes[best_detour].label()
    } else if choice.route_idx == 0 {
        "Direct".to_string()
    } else {
        // Mean says detour but the rule refused (overlapping error bars).
        format!(
            "Direct (detour {} overlaps; rule = overlap-aware)",
            routes[best_detour].label()
        )
    };
    println!("decision: {decision}");
}

fn traceroute(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let provider = world.provider(args.provider());
    let mut sim = world.build_sim(args.u64_flag("seed", 5));
    let frontend = provider.frontend_for(sim.core().topology(), client.node);
    let tr = Traceroute::run(sim.core(), client.node, frontend).unwrap_or_else(|e| {
        eprintln!("traceroute failed: {e}");
        std::process::exit(1);
    });
    print!("{tr}");
}

fn probe(args: &Args, world: &NorthAmerica) {
    let client = world.client(args.client());
    let mut sim = world.build_sim(args.u64_flag("seed", 1));
    println!("idle-path rate estimates from {}:", client.name);
    let n = *world.nodes();
    let targets: [(&str, routing_detours::netsim::topology::NodeId); 5] = [
        ("Google Drive POP", n.google_pop),
        ("Dropbox POP", n.dropbox_pop),
        ("OneDrive POP", n.onedrive_pop),
        ("UAlberta DTN", n.ualberta),
        ("UMich DTN", n.umich),
    ];
    for (label, node) in targets {
        match sim.core().bottleneck(client.node, node, client.class) {
            Ok(b) => println!("  {label:<18} {b}"),
            Err(e) => println!("  {label:<18} unreachable ({e})"),
        }
    }
}
