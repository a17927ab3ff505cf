//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro --all            # the full paper, 7-run protocol, then the
//!                        # headline-claim check (exit 1 on a violation)
//! repro --quick --all    # 3-run protocol, 2 sizes (CI smoke)
//! repro fig2 table2      # individual artifacts
//! repro ablations        # the DESIGN.md §6 extension experiments
//! repro --csv DIR        # additionally dump campaign CSVs into DIR
//! repro --trace DIR fig2 # also replay one run per figure with telemetry
//!                        # and write DIR/<fig>.trace.json + DIR/<fig>.jsonl
//! repro --metrics fig2   # print the replayed run's metrics snapshot
//! ```

use bench::{ablations, repro};
use cloudstore::ProviderKind;
use measure::RunProtocol;
use scenarios::{Client, ExperimentSet, NorthAmerica};
use std::io::Write;

/// The figures whose data come from a (client × provider) campaign —
/// the artifacts `--trace` / `--metrics` can replay.
const CAMPAIGN_FIGS: &[(&str, Client, ProviderKind)] = &[
    ("fig2", Client::Ubc, ProviderKind::GoogleDrive),
    ("fig4", Client::Ubc, ProviderKind::Dropbox),
    ("fig7", Client::Purdue, ProviderKind::GoogleDrive),
    ("fig8", Client::Purdue, ProviderKind::Dropbox),
    ("fig9", Client::Purdue, ProviderKind::OneDrive),
    ("fig10", Client::Ucla, ProviderKind::GoogleDrive),
    ("fig11", Client::Ucla, ProviderKind::Dropbox),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: repro [--quick] [--csv DIR] [--trace DIR] [--metrics] [--all | fig2 fig3 \
             fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 table1 table2 table3 table4 table5 \
             ablations]"
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let quick = args.iter().any(|a| a == "--quick");
    let all = args.iter().any(|a| a == "--all");
    let metrics = args.iter().any(|a| a == "--metrics");
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let trace_dir = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let world = NorthAmerica::new();
    let set = if quick {
        ExperimentSet::quick(&world)
    } else {
        ExperimentSet::paper(&world)
    };
    let wants = |name: &str| all || args.iter().any(|a| a == name);

    let mut csv_tables: Vec<(String, measure::Table)> = Vec::new();

    if all {
        let started = std::time::Instant::now();
        match repro::render_all(&set) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("reproduction failed: {e}");
                std::process::exit(1);
            }
        }
        match repro::check_headline_claims(&set) {
            Ok(v) if v.is_empty() => println!("headline claims: all preserved"),
            Ok(v) => {
                eprintln!("HEADLINE CLAIM VIOLATIONS:\n{v:#?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("claim check failed: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("(regenerated in {:.1?})", started.elapsed());
    } else {
        run_selected(&set, &wants, &mut csv_tables);
    }

    if wants("ablations") {
        let protocol = if quick {
            RunProtocol::quick()
        } else {
            RunProtocol::paper()
        };
        let sizes: Vec<u64> = if quick {
            vec![30 * netsim::units::MB]
        } else {
            vec![10, 30, 60, 100]
                .into_iter()
                .map(|m| m * netsim::units::MB)
                .collect()
        };
        let refsize = 60 * netsim::units::MB;
        for table in [
            ablations::pipeline_ablation(protocol, &sizes).expect("A1"),
            ablations::selector_ablation(protocol, refsize).expect("A2"),
            ablations::congestion_ablation(protocol, refsize).expect("A3"),
            ablations::second_pop_ablation(protocol, refsize).expect("A4"),
            ablations::parallel_streams_ablation(protocol, refsize).expect("A5"),
            ablations::delta_sync_ablation(
                protocol,
                if quick {
                    8 * netsim::units::MB
                } else {
                    40 * netsim::units::MB
                },
                4,
            )
            .expect("A6"),
            ablations::workload_experiment(if quick { 8 } else { 25 }, if quick { 2 } else { 5 })
                .expect("workload"),
            ablations::multihop_ablation(protocol, refsize).expect("multihop"),
        ] {
            println!("{}", table.render());
        }
    }

    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| io_fail(&dir, "create the CSV directory", &e));
        for (name, table) in &csv_tables {
            let path = format!("{dir}/{name}.csv");
            let mut f = std::fs::File::create(&path)
                .unwrap_or_else(|e| io_fail(&path, "create the CSV file", &e));
            f.write_all(table.to_csv().as_bytes())
                .unwrap_or_else(|e| io_fail(&path, "write the CSV file", &e));
            eprintln!("wrote {path}");
        }
    }

    if trace_dir.is_some() || metrics {
        if let Some(dir) = &trace_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| io_fail(dir, "create the trace directory", &e));
        }
        for &(name, client, provider) in CAMPAIGN_FIGS {
            if wants(name) {
                capture_trace(&set, name, client, provider, trace_dir.as_deref(), metrics);
            }
        }
    }
}

/// Exit with an actionable message for an artifact I/O failure instead of
/// a panic backtrace: the path, what was being done, the OS error, and how
/// to fix it.
fn io_fail(path: &str, what: &str, e: &std::io::Error) -> ! {
    eprintln!(
        "{path}: cannot {what} ({e})\n  hint: check that the parent directory exists and is \
         writable, or pass a different --trace/--csv directory"
    );
    std::process::exit(1);
}

/// Replay one representative run of a figure's campaign (largest size,
/// direct route, first kept run — the same seed the campaign used) with
/// telemetry enabled; write the Chrome trace-event JSON and JSONL event
/// log, and optionally print the metrics snapshot.
fn capture_trace(
    set: &ExperimentSet<'_>,
    name: &str,
    client: Client,
    provider: ProviderKind,
    trace_dir: Option<&str>,
    metrics: bool,
) {
    let campaign = set.campaign_spec(client, provider);
    let size_idx = campaign.sizes.len() - 1;
    let run = campaign.protocol.discard; // first kept run
    let (secs, rec) = campaign.trace_run(size_idx, 0, run).unwrap_or_else(|e| {
        eprintln!("{name} trace replay failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "{name}: replayed {} -> {} direct, {} MB, run {run}: {secs:.2} s \
         ({} spans, {} events)",
        client.name(),
        provider.display_name(),
        campaign.sizes[size_idx] / netsim::units::MB,
        rec.spans.len(),
        rec.events.len()
    );
    if let Some(dir) = trace_dir {
        let chrome = format!("{dir}/{name}.trace.json");
        std::fs::write(&chrome, obs::chrome_trace_json(&rec))
            .unwrap_or_else(|e| io_fail(&chrome, "write the Chrome trace", &e));
        eprintln!("wrote {chrome}");
        let jsonl = format!("{dir}/{name}.jsonl");
        std::fs::write(&jsonl, obs::jsonl_log(&rec))
            .unwrap_or_else(|e| io_fail(&jsonl, "write the JSONL log", &e));
        eprintln!("wrote {jsonl}");
    }
    if metrics {
        println!(
            "{}",
            measure::metrics_table(&rec.metrics.snapshot(), &format!("{name} metrics")).render()
        );
    }
}

fn run_selected(
    set: &ExperimentSet<'_>,
    wants: &dyn Fn(&str) -> bool,
    csv: &mut Vec<(String, measure::Table)>,
) {
    fn fail(what: &str, e: netsim::error::NetError) -> ! {
        eprintln!("{what} failed: {e}");
        std::process::exit(1);
    }
    if wants("fig3") {
        println!("{}", set.fig3().render());
    }
    if wants("fig2") || wants("table2") {
        let r = set.fig2().unwrap_or_else(|e| fail("fig2", e));
        if wants("fig2") {
            println!(
                "{}",
                repro::figure(&r, "Fig 2: Upload performance from UBC to Google Drive (s)")
            );
        }
        if wants("table2") {
            println!(
                "{}",
                repro::numbers_table(
                    &r,
                    "Table II: UBC-to-Google Drive average transfer times",
                    Some(repro::PAPER_TABLE2)
                )
            );
        }
        csv.push(("fig2".into(), r.mean_std_table("fig2")));
    }
    if wants("fig4") {
        let r = set.fig4().unwrap_or_else(|e| fail("fig4", e));
        println!(
            "{}",
            repro::figure(&r, "Fig 4: Upload performance from UBC to Dropbox (s)")
        );
        csv.push(("fig4".into(), r.mean_std_table("fig4")));
    }
    if wants("fig5") {
        println!(
            "== Fig 5: UBC to Google Drive Server Traceroute ==\n{}",
            set.fig5()
        );
    }
    if wants("fig6") {
        println!(
            "== Fig 6: UAlberta to Google Drive Server Traceroute ==\n{}",
            set.fig6()
        );
    }
    if wants("fig7") || wants("table3") {
        let r = set.fig7().unwrap_or_else(|e| fail("fig7", e));
        if wants("fig7") {
            println!(
                "{}",
                repro::figure(
                    &r,
                    "Fig 7: Upload performance from Purdue to Google Drive (s)"
                )
            );
        }
        if wants("table3") {
            println!(
                "{}",
                repro::numbers_table(
                    &r,
                    "Table III: Purdue-to-Google Drive average transfer times",
                    Some(repro::PAPER_TABLE3)
                )
            );
        }
        csv.push(("fig7".into(), r.mean_std_table("fig7")));
    }
    if wants("fig8") {
        let r = set.fig8().unwrap_or_else(|e| fail("fig8", e));
        println!(
            "{}",
            repro::figure(&r, "Fig 8: Upload performance from Purdue to Dropbox (s)")
        );
        csv.push(("fig8".into(), r.mean_std_table("fig8")));
    }
    if wants("fig9") {
        let r = set.fig9().unwrap_or_else(|e| fail("fig9", e));
        println!(
            "{}",
            repro::figure(&r, "Fig 9: Upload performance from Purdue to OneDrive (s)")
        );
        csv.push(("fig9".into(), r.mean_std_table("fig9")));
    }
    if wants("table4") {
        println!(
            "{}",
            set.table4().unwrap_or_else(|e| fail("table4", e)).render()
        );
    }
    if wants("fig10") {
        let r = set.fig10().unwrap_or_else(|e| fail("fig10", e));
        println!(
            "{}",
            repro::figure(
                &r,
                "Fig 10: Upload performance from UCLA to Google Drive (s)"
            )
        );
        csv.push(("fig10".into(), r.mean_std_table("fig10")));
    }
    if wants("fig11") {
        let r = set.fig11().unwrap_or_else(|e| fail("fig11", e));
        println!(
            "{}",
            repro::figure(&r, "Fig 11: Upload performance from UCLA to Dropbox (s)")
        );
        csv.push(("fig11".into(), r.mean_std_table("fig11")));
    }
    if wants("table1") || wants("table5") {
        let all = set.all_campaigns().unwrap_or_else(|e| fail("table1/5", e));
        if wants("table1") {
            println!("{}", scenarios::summary::table1(&all).render());
        }
        if wants("table5") {
            println!("{}", scenarios::summary::table5(&all).render());
        }
    }
}
