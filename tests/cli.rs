//! Integration tests for the `detour` CLI binary.

use std::process::Command;

fn detour(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_detour"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_args_prints_usage() {
    let (_, err, ok) = detour(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn simulate_direct_and_detour() {
    let (out, _, ok) = detour(&[
        "simulate",
        "--client",
        "ubc",
        "--provider",
        "gdrive",
        "--size",
        "100",
    ]);
    assert!(ok, "{out}");
    assert!(
        out.contains("UBC -> Google Drive (Direct), 100 MB"),
        "{out}"
    );
    let direct: f64 = out
        .split(": ")
        .nth(1)
        .unwrap()
        .split(" s")
        .next()
        .unwrap()
        .parse()
        .unwrap();

    let (out2, _, ok2) = detour(&[
        "simulate",
        "--client",
        "ubc",
        "--provider",
        "gdrive",
        "--size",
        "100",
        "--route",
        "ualberta",
    ]);
    assert!(ok2, "{out2}");
    let detoured: f64 = out2
        .split(": ")
        .nth(1)
        .unwrap()
        .split(" s")
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        detoured < direct,
        "detour {detoured} should beat direct {direct}"
    );
}

#[test]
fn simulate_multi_run_reports_sigma() {
    let (out, _, ok) = detour(&[
        "simulate",
        "--client",
        "purdue",
        "--provider",
        "gdrive",
        "--size",
        "30",
        "--runs",
        "3",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("over 3 run(s)"), "{out}");
    assert!(out.contains('±'), "{out}");
}

#[test]
fn best_route_picks_detour_for_ubc_gdrive() {
    let (out, _, ok) = detour(&[
        "best-route",
        "--client",
        "ubc",
        "--provider",
        "gdrive",
        "--size",
        "60",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("decision: via UAlberta"), "{out}");
}

#[test]
fn best_route_prefers_direct_from_ucla() {
    let (out, _, ok) = detour(&[
        "best-route",
        "--client",
        "ucla",
        "--provider",
        "dropbox",
        "--size",
        "30",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("decision: Direct"), "{out}");
}

#[test]
fn traceroute_shows_pacificwave_for_ubc_gdrive() {
    let (out, _, ok) = detour(&["traceroute", "--client", "ubc", "--provider", "gdrive"]);
    assert!(ok, "{out}");
    assert!(out.contains("vncv1rtr2.canarie.ca"), "{out}");
    assert!(out.contains("pacificwave"), "{out}");
}

#[test]
fn probe_lists_all_targets() {
    let (out, _, ok) = detour(&["probe", "--client", "purdue"]);
    assert!(ok, "{out}");
    for label in [
        "Google Drive POP",
        "Dropbox POP",
        "OneDrive POP",
        "UAlberta DTN",
        "UMich DTN",
    ] {
        assert!(out.contains(label), "missing {label}: {out}");
    }
    assert!(out.contains("Mbps"), "{out}");
}

#[test]
fn tiv_found_for_ubc_gdrive_but_not_ucla() {
    let (out, _, ok) = detour(&["tiv", "--client", "ubc", "--provider", "gdrive"]);
    assert!(ok, "{out}");
    assert!(out.contains("violations"), "{out}");
    assert!(out.contains("ualberta"), "{out}");

    let (out2, _, ok2) = detour(&["tiv", "--client", "ucla", "--provider", "gdrive"]);
    assert!(ok2, "{out2}");
    assert!(out2.contains("no bandwidth TIV"), "{out2}");
}

#[test]
fn check_emits_json_verdict_and_replays() {
    let (out, err, ok) = detour(&["check", "--cases", "8", "--seed", "7"]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("\"ok\":true"), "{out}");
    assert!(out.contains("\"passed\":8"), "{out}");
    assert!(err.contains("8 passed, 0 failed"), "{err}");

    // Save a generated scenario spec and replay it from a file.
    let spec = routing_detours::simcheck::ScenarioSpec::generate(
        routing_detours::simcheck::case_seed(7, 0),
    );
    let dir = std::env::temp_dir().join("detour-check-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, spec.to_json()).unwrap();
    let (out2, err2, ok2) = detour(&["check", "--replay", path.to_str().unwrap()]);
    assert!(ok2, "stdout: {out2}\nstderr: {err2}");
    assert!(out2.contains("\"ok\":true"), "{out2}");
    assert!(out2.contains("\"passed\":1"), "{out2}");

    // A corrupt spec fails cleanly.
    std::fs::write(&path, "{not json").unwrap();
    let (_, err3, ok3) = detour(&["check", "--replay", path.to_str().unwrap()]);
    assert!(!ok3);
    assert!(err3.contains("bad scenario spec"), "{err3}");
}

#[test]
fn hostile_replay_specs_exit_1_not_abort() {
    let dir = std::env::temp_dir().join("detour-check-cli-hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    let replay = |text: &str| {
        std::fs::write(&path, text).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_detour"))
            .args(["check", "--replay", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    // Deep nesting is a parse error, not a stack overflow (exit 134).
    let (code, err) = replay(&"[".repeat(200_000));
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("nesting deeper than"), "{err}");
    let (code, err) = replay("{\"seed\":");
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("unexpected end of input"), "{err}");
}

#[test]
fn bad_flags_fail_cleanly() {
    for args in [
        &[
            "simulate",
            "--client",
            "mars",
            "--provider",
            "gdrive",
            "--size",
            "10",
        ][..],
        // One past u32::MAX cases must not wrap to an empty, passing run.
        &["check", "--cases", "4294967296"],
        // Zero counts and out-of-range sizes are usage errors, not panics
        // or wrapped values.
        &["sync", "--files", "0"],
        &["sync", "--tenants", "0"],
        &["sync", "--size-kb", "4294967296"],
        &["plane", "--tenants", "0"],
    ] {
        let (_, err, ok) = detour(args);
        assert!(!ok, "{args:?}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}
