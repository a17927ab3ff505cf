//! Deterministic simulation-checking budget for CI.
//!
//! Runs a fixed-seed batch of randomized scenarios through the engine under
//! the simcheck invariant oracles, proves same-seed re-execution is
//! bit-identical, and — via the `failpoints` feature, enabled for tests by
//! the root crate's dev-dependency — proves the oracles catch an
//! intentionally broken allocator and shrink the failure to a minimal
//! reproducer.

use routing_detours::simcheck::{
    case_seed, check_case, check_case_at, replay, run_check, run_once, shrink, CheckConfig,
    RunOptions, ScenarioClass, ScenarioSpec, Violation, SHARD_WORKER_COUNTS,
};

/// The CI budget: a fixed-seed batch must hold every invariant.
#[test]
fn fixed_seed_budget_is_clean() {
    let report = run_check(CheckConfig {
        cases: 24,
        seed: 7,
        rate_inflation: None,
        shrink_budget: 50,
        class: ScenarioClass::Standard,
        threads: 0,
    });
    assert!(
        report.ok(),
        "invariant violations in fixed-seed budget: {}",
        report.to_json()
    );
    assert_eq!(report.passed, 24);
}

/// The chaos class — upload sessions under throttle storms, fault bursts
/// and mid-transfer capacity faults — holds its termination oracle too.
#[test]
fn fixed_seed_chaos_budget_is_clean() {
    let report = run_check(CheckConfig {
        cases: 12,
        seed: 11,
        rate_inflation: None,
        shrink_budget: 50,
        class: ScenarioClass::Chaos,
        threads: 0,
    });
    assert!(
        report.ok(),
        "invariant violations in chaos budget: {}",
        report.to_json()
    );
    assert_eq!(report.passed, 12);
}

/// Same seed, same scenario => bit-identical execution fingerprints.
#[test]
fn same_seed_double_execution_is_bit_identical() {
    for i in 0..6 {
        let spec = ScenarioSpec::generate(case_seed(11, i));
        let a = run_once(&spec, RunOptions::default());
        let b = run_once(&spec, RunOptions::default());
        assert_eq!(
            a.chain_digest, b.chain_digest,
            "case {i} diverged across same-seed executions"
        );
        assert_eq!(a.events, b.events);
        assert_eq!(a.bytes_delivered, b.bytes_delivered);
    }
}

/// A replayed spec behaves exactly like the generated original.
#[test]
fn replay_of_serialized_spec_matches_original() {
    let spec = ScenarioSpec::generate(case_seed(7, 3));
    let direct = run_once(&spec, RunOptions::default());
    let parsed = ScenarioSpec::from_json(&spec.to_json()).expect("round trip");
    let replayed = run_once(&parsed, RunOptions::default());
    assert_eq!(direct.chain_digest, replayed.chain_digest);
    let report = replay(&spec.to_json(), None).expect("valid spec");
    assert!(report.ok());
}

/// Fault injection: inflate allocator output by 30% and the oracles must
/// notice, and the shrinker must reduce the reproducer to a handful of
/// nodes and at most two flows.
#[test]
fn injected_overallocation_is_caught_and_shrunk() {
    let opts = RunOptions {
        rate_inflation: Some(1.3),
        ..Default::default()
    };
    let spec = (0..16)
        .map(|i| ScenarioSpec::generate(case_seed(13, i)))
        .find(|s| !check_case(s, opts).ok())
        .expect("a 30% over-allocation must break some generated case");

    let res = shrink(&spec, opts, &SHARD_WORKER_COUNTS, 300);
    let minimal = check_case(&res.spec, opts);
    assert!(!minimal.ok(), "shrunk spec must still fail");
    assert!(
        minimal.violations.iter().any(|v| matches!(
            v,
            Violation::OverAllocation { .. } | Violation::UnfairAllocation { .. }
        )),
        "expected an allocation violation, got {:?}",
        minimal.violations
    );
    assert!(
        res.spec.topo.node_count() <= 4,
        "reproducer not minimal: {:?}",
        res.spec.topo
    );
    assert!(
        res.spec.jobs.len() <= 2,
        "reproducer kept {} jobs",
        res.spec.jobs.len()
    );

    // The minimal reproducer survives a JSON round trip and still fails.
    let round = ScenarioSpec::from_json(&res.spec.to_json()).expect("round trip");
    assert!(!check_case(&round, opts).ok());
}

/// With an extra `--threads` worker count in the sharded differential,
/// every reported failure still carries its violations and a shrunk
/// reproducer that fails under that same worker set: shrinking and the
/// final re-check use the set the batch was checked with.
#[test]
fn failures_with_extra_threads_are_shrunk_under_the_same_worker_set() {
    let config = CheckConfig {
        cases: 2,
        seed: 13,
        rate_inflation: Some(1.3),
        shrink_budget: 20,
        class: ScenarioClass::Standard,
        threads: 3,
    };
    let workers = config.shard_workers();
    assert_eq!(workers, vec![1, 2, 3, 4]);
    let report = run_check(config);
    assert!(!report.ok(), "a 30% over-allocation must fail some case");
    let opts = RunOptions {
        rate_inflation: config.rate_inflation,
        ..Default::default()
    };
    for f in &report.failures {
        assert!(
            !f.violations.is_empty(),
            "case {} reported no violations",
            f.case_index
        );
        let recheck = check_case_at(&f.shrunk, opts, &workers);
        assert!(!recheck.ok(), "case {}: shrunk spec passes", f.case_index);
        assert_eq!(recheck.violations, f.violations, "case {}", f.case_index);
    }
}
