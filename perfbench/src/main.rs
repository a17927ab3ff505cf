//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! One process runs one workload through the workspace crates' public API
//! and prints its metrics; `perfbench/run.py` builds this binary and is the
//! command `BENCHMARK.json` names. Usage:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--spans-out <file>] [--rev <r>] [--rustc <v>]
//! perfbench --record --workload <name> --seed <n>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` first runs the
//! workload untraced for half the time, then traced for the other half, and
//! prints the per-layer metrics plus the tracing overhead between the two.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--record` prints the output digests the
//! workload checks against `perfbench/expected_digests.txt` (read relative
//! to the working directory, the repository root).

mod campaign;
mod check;
mod plane;
mod stat;
mod sync;
mod trace;

use stat::{Phase, Tail};
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `--trace 1`. A workload that never calls a layer
/// reports its metrics as 0 and lists them as not applicable.
const PER_LAYER: [(&str, &str); 37] = [
    ("netsim.events_per_op", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.reallocations_per_op", "count"),
    ("netsim.peak_queue", "count"),
    ("scenarios.build_sim_us", "us"),
    ("core.job_direct_us", "us"),
    ("core.job_detour_us", "us"),
    ("core.select_us", "us"),
    ("routeplane.lookup_warm_ns", "ns"),
    ("routeplane.lookup_cold_us", "us"),
    ("routeplane.invalidate_ns", "ns"),
    ("routeplane.hit_ratio", "ratio"),
    ("routeplane.shed_ratio", "ratio"),
    ("routeplane.stale_refreshes", "count"),
    ("routeplane.demotions", "count"),
    ("transfer.rsync_exact_ns_per_kib", "ns/KiB"),
    ("transfer.manifest_ns_per_kib", "ns/KiB"),
    ("transfer.kib_per_op", "KiB"),
    ("transfer.signature_ns_per_kib", "ns/KiB"),
    ("transfer.delta_ns_per_kib", "ns/KiB"),
    ("transfer.patch_ns_per_kib", "ns/KiB"),
    ("relay.sync_arm_us", "us"),
    ("relay.chunkstore_plan_ns", "ns"),
    ("relay.chunkstore_admit_ns", "ns"),
    ("relay.chunk_hit_rate", "ratio"),
    ("simcheck.generate_us", "us"),
    ("simcheck.first_us", "us"),
    ("simcheck.repeat_us", "us"),
    ("simcheck.ref_alloc_us", "us"),
    ("simcheck.eager_us", "us"),
    ("simcheck.ref_routing_us", "us"),
    ("simcheck.shard_us", "us"),
    ("simcheck.chunk_bypass_us", "us"),
    ("simcheck.plane_coherence_us", "us"),
    ("obs.health_overhead_us", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["paper-campaign", "delta-sync", "route-plane", "simcheck"];

/// What one run is asked to do.
pub struct Ctx {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measured time: the whole timed phase (`--trace 0`) or both halves
    /// together (`--trace 1`).
    pub budget: Duration,
    /// Traced run?
    pub trace: bool,
    /// Host threads the harness may use (`available_parallelism`).
    pub threads: usize,
}

impl Ctx {
    /// The untraced and traced halves of a traced run.
    pub fn half(&self) -> Duration {
        self.budget / 2
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase (end-to-end metrics come from it).
    pub phase: Phase,
    /// Ops attempted and failed outside `phase` (set-up, traced half).
    pub extra_attempted: u64,
    pub extra_failed: u64,
    /// Output digests to compare with the recorded ones: (key, value).
    pub digests: Vec<(&'static str, u64)>,
    /// Named output checks.
    pub checks: Vec<(String, bool)>,
    /// Per-layer metrics measured (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans to write out (traced runs).
    pub spans: Vec<trace::Span>,
    /// Free-form report lines.
    pub notes: Vec<String>,
    /// The workload's fixed tail percentile.
    pub tail: Tail,
    /// Timed ops' latency is measured on 1 op in this many.
    pub sample_every: u64,
    /// Peak resident memory, when the workload reads it before its own
    /// result processing (otherwise it is read at the end of the run).
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    pub fn new(tail: Tail) -> Self {
        Outcome {
            setup_s: Vec::new(),
            phase: Phase::default(),
            extra_attempted: 0,
            extra_failed: 0,
            digests: Vec::new(),
            checks: Vec::new(),
            layers: BTreeMap::new(),
            spans: Vec::new(),
            notes: Vec::new(),
            tail,
            sample_every: 1,
            peak_rss_mb: None,
        }
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Fold a finished phase's counts into the extra (non-end-to-end) ones.
    pub fn absorb(&mut self, p: &Phase) {
        self.extra_attempted += p.attempted();
        self.extra_failed += p.failed;
        for e in &p.errors {
            self.notes.push(format!("error: {e}"));
        }
    }

    /// Record the standard trace metrics of a traced half and keep its
    /// spans.
    pub fn trace_summary(&mut self, spans: Vec<trace::Span>, overhead_pct: f64) {
        self.layers.insert("trace.overhead_pct", overhead_pct);
        self.layers
            .entry("trace.unattributed_share")
            .or_insert_with(|| trace::unattributed_share(&spans));
        self.notes.push(format!("trace: {} spans", spans.len()));
        self.spans = spans;
    }
}

/// Tracing overhead in percent from per-op latencies of the same op
/// sequence run untraced and traced (the traced ones excluding auxiliary
/// calls the untraced op does not make), over their common prefix.
pub fn paired_overhead_pct(untraced_us: &[f64], traced_us: &[f64]) -> f64 {
    let n = untraced_us.len().min(traced_us.len());
    let plain: f64 = untraced_us[..n].iter().sum();
    let traced: f64 = traced_us[..n].iter().sum();
    if plain > 0.0 {
        (traced / plain - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Recorded digests: (key, seed) → value, from `expected_digests.txt`
/// (`<key> <seed> <hex>` per line, `#` comments).
fn load_expected(path: &str) -> Result<BTreeMap<(String, u64), u64>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f.as_slice() {
            [key, seed, hex] => seed
                .parse::<u64>()
                .ok()
                .zip(u64::from_str_radix(hex, 16).ok())
                .map(|(s, v)| ((key.to_string(), s), v)),
            _ => None,
        };
        match parsed {
            Some((k, v)) => {
                out.insert(k, v);
            }
            None => return Err(format!("{path}:{}: malformed line `{line}`", n + 1)),
        }
    }
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    spans_out: Option<String>,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
        spans_out: None,
        rev: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            a.record = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            "--spans-out" => a.spans_out = Some(val.clone()),
            "--rev" => a.rev = val.clone(),
            "--rustc" => a.rustc = val.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(a)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        threads,
    };

    if args.record {
        let digests = match args.workload.as_str() {
            "paper-campaign" => campaign::record(&ctx),
            "delta-sync" => sync::record(&ctx),
            "route-plane" => plane::record(&ctx),
            _ => check::record(&ctx),
        };
        for (key, v) in digests {
            println!("{key} {} {v:016x}", args.seed);
        }
        return;
    }

    let expected = match load_expected("perfbench/expected_digests.txt") {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let mut out = match args.workload.as_str() {
        "paper-campaign" => campaign::run(&ctx),
        "delta-sync" => sync::run(&ctx),
        "route-plane" => plane::run(&ctx),
        _ => check::run(&ctx),
    };
    let peak_rss_mb = out.peak_rss_mb.unwrap_or_else(stat::peak_rss_mb);

    // Output checks against the recorded digests. A mismatch fails the ops
    // whose outputs the digest covers.
    for (key, value) in out.digests.clone() {
        match expected.get(&(key.to_string(), args.seed)) {
            Some(&want) if want == value => {
                out.check(format!("digest {key} = recorded {want:016x}"), true)
            }
            Some(&want) => {
                out.check(
                    format!("digest {key} {value:016x} != recorded {want:016x}"),
                    false,
                );
                // The digest covers the ops whose outputs it folds, or
                // every op when each was compared with a reference it
                // belongs to.
                let covered = if out.phase.digests.is_empty() {
                    out.phase.ok
                } else {
                    out.phase.ok.min(out.phase.digests.len() as u64)
                };
                out.phase.ok -= covered;
                out.phase.failed += covered;
            }
            None => out.notes.push(format!(
                "digest {key} {value:016x}: no recorded value for seed {}",
                args.seed
            )),
        }
    }

    let attempted = out.phase.attempted() + out.extra_attempted;
    let failed = out.phase.failed + out.extra_failed;
    let correct = attempted > 0 && failed == 0 && out.checks.iter().all(|(_, ok)| *ok);

    // Human-readable report.
    let shard_set = check::shard_workers(threads);
    println!(
        "provenance {{\"git_rev\":{},\"rustc\":{},\"nproc\":{},\"profile\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"shard_workers\":{:?}}}",
        json_str(&args.rev),
        json_str(&args.rustc),
        threads,
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        shard_set,
    );
    for (name, ok) in &out.checks {
        println!("check {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "setup_s repetitions: {}",
        out.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for note in &out.notes {
        println!("note {note}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            match out.layers.get(name) {
                Some(&v) => metrics.push((name, v, unit)),
                None => {
                    println!("n/a {name}: {} does not call this layer", args.workload);
                    metrics.push((name, 0.0, unit));
                }
            }
        }
        if let Some(path) = &args.spans_out {
            match trace::write_jsonl(std::path::Path::new(path), &out.spans) {
                Ok(()) => println!("spans {} written to {path}", out.spans.len()),
                Err(e) => println!("spans not written to {path}: {e}"),
            }
        }
    } else {
        let p = &out.phase;
        let mut lat = p.lat_us.clone();
        lat.sort_by(f64::total_cmp);
        let beyond = lat.len() as f64 * (1.0 - out.tail.q());
        println!(
            "latency {} samples (1 op in {}), p50 {:.3} us, tail {} = {:.3} us with {:.0} samples beyond",
            lat.len(),
            out.sample_every,
            stat::percentile(&lat, 0.5),
            out.tail.label(),
            stat::percentile(&lat, out.tail.q()),
            beyond.floor(),
        );
        println!(
            "op_error_rate {} ({} failed of {} attempted)",
            if attempted == 0 {
                0.0
            } else {
                failed as f64 / attempted as f64
            },
            failed,
            attempted
        );
        let values = [
            stat::median(&out.setup_s),
            p.ok as f64 / p.elapsed_s.max(1e-9),
            stat::percentile(&lat, 0.5),
            stat::percentile(&lat, out.tail.q()),
            peak_rss_mb,
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, v, unit));
        }
    }
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}
