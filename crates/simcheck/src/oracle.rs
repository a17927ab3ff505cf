//! Invariant oracles checked after every simulator event.
//!
//! The oracle is an [`AuditHook`] installed into a [`netsim::engine::Sim`].
//! After each event it sees a read-only [`AuditView`] of the engine and
//! checks four safety properties:
//!
//! 1. **Time monotonicity** — the clock never runs backwards.
//! 2. **Capacity** — the rates of active flows crossing any resource (link
//!    or aggregate policer) never sum above its effective capacity.
//! 3. **Max-min fairness** — the engine's allocation matches an independent
//!    re-run of [`max_min_allocate`] over the same inputs.
//! 4. **Byte conservation** — a shadow ledger integrates each flow's
//!    piecewise-constant rate over time; when the engine reports a flow
//!    delivered, the integral must equal the payload size (within a float
//!    tolerance).
//!
//! It also folds every post-event state digest into a running *chain
//! digest*; two same-seed executions of the same scenario must produce the
//! same chain, which is how [`crate::runner`] checks determinism. A
//! chain-only oracle ([`InvariantOracle::chain_only`]) folds the same chain
//! and checks nothing: the runner installs it on the re-executions whose
//! chain must equal a fully checked one.

use netsim::audit::{AuditHook, Digest};
use netsim::engine::AuditView;
use netsim::flow::{max_min_allocate, AllocEntry};
use netsim::time::SimTime;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Keep at most this many violations per run; one broken invariant tends to
/// fire on every subsequent event and we only need the first few.
const MAX_VIOLATIONS: usize = 64;

/// Relative tolerance for float comparisons against engine-computed values.
const REL_TOL: f64 = 1e-9;

/// One differential re-execution [`crate::runner::check_case_at`] checks a
/// case along. Each must reproduce the first execution's compared digest
/// bit for bit; the runner's axis table says how each one re-runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The same options again: same seed ⇒ same execution.
    Repeat,
    /// The reference (full-recompute) allocator instead of the incremental
    /// one (see `netsim::flow::FlowCore`).
    Allocator,
    /// The eager per-event progress sweep instead of lazy materialization
    /// (see `netsim::engine::ProgressMode`).
    Progress,
    /// The per-query reference Dijkstra instead of the precomputed route
    /// oracle; both use the canonical smaller-predecessor-at-settlement
    /// tie-break (see `netsim::oracle`).
    Routing,
    /// The sharded executor at this many worker threads instead of the
    /// sequential fold: both reduce cells in cell-id order, so a divergence
    /// means scheduling or completion order leaked into the merge.
    Shard {
        /// Worker-thread count of the sharded run.
        workers: u32,
    },
    /// The relay chunk store bypassed. The store only re-prices forward
    /// legs, so wire timing differs but the delivered file bytes
    /// ([`crate::RunOutcome::sync_digest`]) must not.
    Chunk,
}

impl Axis {
    /// The [`Violation::kind`] tag of a divergence along this axis.
    pub fn kind(self) -> &'static str {
        match self {
            Axis::Repeat => "determinism",
            Axis::Allocator => "allocator_divergence",
            Axis::Progress => "progress_divergence",
            Axis::Routing => "routing_divergence",
            Axis::Shard { .. } => "shard_divergence",
            Axis::Chunk => "chunk_divergence",
        }
    }
}

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The simulation clock moved backwards.
    TimeRegression {
        /// Clock before the event, nanoseconds.
        prev_ns: u64,
        /// Clock after the event, nanoseconds.
        now_ns: u64,
    },
    /// Active flows were allocated more than a resource's capacity.
    OverAllocation {
        /// Resource index (links first, then aggregate policers).
        resource: usize,
        /// Sum of allocated rates crossing the resource, bytes/sec.
        used: f64,
        /// Effective capacity, bytes/sec.
        cap: f64,
        /// When, nanoseconds.
        at_ns: u64,
    },
    /// A flow's rate deviates from the independent max-min recomputation.
    UnfairAllocation {
        /// Flow id.
        flow: u64,
        /// Engine-allocated rate, bytes/sec.
        got: f64,
        /// Independently recomputed fair rate, bytes/sec.
        want: f64,
        /// When, nanoseconds.
        at_ns: u64,
    },
    /// A delivered flow's rate integral does not match its payload size.
    ByteConservation {
        /// Flow id.
        flow: u64,
        /// Payload the engine reported delivered.
        reported: u64,
        /// Shadow-ledger integral of rate over time, bytes.
        integrated: f64,
        /// When, nanoseconds.
        at_ns: u64,
    },
    /// A differential re-execution of the case disagreed with the first
    /// execution on the digest its [`Axis`] compares. Every axis is a
    /// bit-identity guarantee, so any divergence is a bug in the layer the
    /// axis swaps out.
    Divergence {
        /// Which re-execution diverged.
        axis: Axis,
        /// Compared digest of the first execution.
        first: u64,
        /// Compared digest of the re-execution.
        other: u64,
    },
    /// The route plane served a decision whose bits differ from a fresh
    /// source computation at the current generation (with breaker demotion
    /// applied). The cache guarantees warm, refreshed and demoted serves
    /// are all bit-identical to computing from scratch, so any divergence
    /// is a staleness, publication or demotion bug in `routeplane`.
    PlaneDivergence {
        /// Packed decision key (`routeplane::DecisionKey::pack`).
        key: u64,
        /// Current generation the fresh decision was computed at.
        generation: u64,
        /// Bits of the decision the plane served.
        served: u64,
        /// Bits of the freshly computed decision.
        fresh: u64,
    },
    /// The engine returned an error running the scenario.
    EngineError {
        /// The error's display form.
        message: String,
    },
    /// A chaotic upload session failed to settle within the termination
    /// bound derived from its retry budget or deadline (see
    /// [`crate::scenario::ChaosSpec`]): the resilience layer let it spin.
    DeadlineOverrun {
        /// Index of the chaos session within the spec.
        session: u32,
        /// The bound the session had to settle by, ms after its start.
        bound_ms: u64,
        /// When it actually settled, ms after its start.
        settled_ms: u64,
    },
    /// A delta applied at the sync relay did not reconstruct the client's
    /// file byte-for-byte (MD5 whole-file check after patching): the
    /// signature/delta/patch pipeline corrupted data in flight.
    SyncIntegrity {
        /// Index of the sync session within the spec.
        session: u32,
        /// File index within the session's population.
        file: u32,
        /// Sync pass (0 = initial replication, then mutation rounds).
        round: u32,
    },
}

impl Violation {
    /// Stable machine-readable kind tag (for JSON verdicts).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::TimeRegression { .. } => "time_regression",
            Violation::OverAllocation { .. } => "over_allocation",
            Violation::UnfairAllocation { .. } => "unfair_allocation",
            Violation::ByteConservation { .. } => "byte_conservation",
            Violation::Divergence { axis, .. } => axis.kind(),
            Violation::PlaneDivergence { .. } => "plane_divergence",
            Violation::EngineError { .. } => "engine_error",
            Violation::DeadlineOverrun { .. } => "deadline_overrun",
            Violation::SyncIntegrity { .. } => "sync_integrity",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::TimeRegression { prev_ns, now_ns } => {
                write!(f, "clock ran backwards: {prev_ns}ns -> {now_ns}ns")
            }
            Violation::OverAllocation {
                resource,
                used,
                cap,
                at_ns,
            } => write!(
                f,
                "resource {resource} over-allocated at {at_ns}ns: {used:.1} B/s > cap {cap:.1} B/s"
            ),
            Violation::UnfairAllocation {
                flow,
                got,
                want,
                at_ns,
            } => write!(
                f,
                "flow {flow} unfair at {at_ns}ns: got {got:.1} B/s, max-min says {want:.1} B/s"
            ),
            Violation::ByteConservation {
                flow,
                reported,
                integrated,
                at_ns,
            } => write!(
                f,
                "flow {flow} byte conservation at {at_ns}ns: reported {reported} B, integral {integrated:.1} B"
            ),
            Violation::Divergence { axis, first, other } => {
                match axis {
                    Axis::Repeat => f.write_str("same-seed executions diverged")?,
                    Axis::Allocator => f.write_str("incremental vs reference allocator diverged")?,
                    Axis::Progress => f.write_str("lazy vs eager progress accounting diverged")?,
                    Axis::Routing => f.write_str("route oracle vs reference Dijkstra diverged")?,
                    Axis::Shard { workers } => write!(
                        f,
                        "sharded executor ({workers} workers) diverged from sequential"
                    )?,
                    Axis::Chunk => f.write_str(
                        "cache-enabled vs cache-bypass sync delivered different bytes",
                    )?,
                }
                write!(f, ": {first:#018x} vs {other:#018x}")
            }
            Violation::PlaneDivergence {
                key,
                generation,
                served,
                fresh,
            } => write!(
                f,
                "route plane served key {key:#x} at generation {generation} with bits {served:#018x}, fresh compute says {fresh:#018x}"
            ),
            Violation::EngineError { message } => write!(f, "engine error: {message}"),
            Violation::DeadlineOverrun {
                session,
                bound_ms,
                settled_ms,
            } => write!(
                f,
                "chaos session {session} settled {settled_ms}ms after start, past its {bound_ms}ms termination bound"
            ),
            Violation::SyncIntegrity {
                session,
                file,
                round,
            } => write!(
                f,
                "sync session {session} file {file} round {round}: applied delta does not reconstruct the source bytes"
            ),
        }
    }
}

/// Shadow per-flow ledger entry.
#[derive(Debug, Clone, Copy, Default)]
struct ShadowFlow {
    /// Rate as of the previous event (0 once the flow drains).
    rate: f64,
    /// Integral of rate over time so far, bytes.
    integrated: f64,
}

#[derive(Debug, Default)]
struct OracleState {
    /// Check the invariants after every event; `false` only folds the
    /// chain (see [`InvariantOracle::chain_only`]).
    checks: bool,
    violations: Vec<Violation>,
    /// Running chain of post-event state digests.
    chain: u64,
    events_seen: u64,
    prev_now_ns: u64,
    shadow: HashMap<u64, ShadowFlow>,
    /// `flow_delivered` notifications buffered until the next `after_event`
    /// (the hook callback fires mid-dispatch, before time has advanced past
    /// the delivery instant is accounted for).
    delivered: Vec<(u64, u64, SimTime)>,
    /// Per-event scratch, kept across events instead of allocated for
    /// each: rate sum per resource, indices of the active flows in the
    /// view's flow list, and their allocator inputs
    /// (`entries[..active.len()]`).
    used: Vec<f64>,
    active: Vec<usize>,
    entries: Vec<AllocEntry>,
}

/// Record `v` unless the run already holds [`MAX_VIOLATIONS`].
fn push_capped(violations: &mut Vec<Violation>, v: Violation) {
    if violations.len() < MAX_VIOLATIONS {
        violations.push(v);
    }
}

impl OracleState {
    /// The four invariants, checked against the state after one event.
    fn check_invariants(&mut self, view: &AuditView<'_>) {
        let OracleState {
            violations,
            prev_now_ns,
            shadow,
            delivered,
            used,
            active,
            entries,
            ..
        } = self;
        let now_ns = view.now().as_nanos();

        // 1. Monotonicity.
        if now_ns < *prev_now_ns {
            push_capped(
                violations,
                Violation::TimeRegression {
                    prev_ns: *prev_now_ns,
                    now_ns,
                },
            );
        }

        // 4a. Advance the shadow ledger across the elapsed interval using
        // the rates that held *before* this event — the same
        // piecewise-constant fluid model the engine integrates.
        let dt = (now_ns.saturating_sub(*prev_now_ns)) as f64 * 1e-9;
        if dt > 0.0 {
            for s in shadow.values_mut() {
                s.integrated += s.rate * dt;
            }
        }
        *prev_now_ns = now_ns;

        // 4b. Settle flows the engine reported delivered during this event.
        for (flow, bytes, at) in delivered.drain(..) {
            let integrated = shadow.remove(&flow).map(|s| s.integrated).unwrap_or(0.0);
            let tol = (bytes as f64 * 1e-6).max(64.0);
            if (integrated - bytes as f64).abs() > tol {
                push_capped(
                    violations,
                    Violation::ByteConservation {
                        flow,
                        reported: bytes,
                        integrated,
                        at_ns: at.as_nanos(),
                    },
                );
            }
        }

        let flows = view.flows();
        let caps = view.resource_capacities();

        // 2. Capacity: sum active rates per resource.
        used.clear();
        used.resize(caps.len(), 0.0);
        for f in flows.iter().filter(|f| f.active) {
            for &r in f.resources {
                if let Some(u) = used.get_mut(r as usize) {
                    *u += f.rate;
                }
            }
        }
        for (r, (&u, &cap)) in used.iter().zip(caps.iter()).enumerate() {
            // Absolute slack of 1 byte/sec plus a relative term: the engine
            // sums the same f64s, so genuine bugs overshoot by far more.
            if u > cap + cap.abs() * REL_TOL + 1.0 {
                push_capped(
                    violations,
                    Violation::OverAllocation {
                        resource: r,
                        used: u,
                        cap,
                        at_ns: now_ns,
                    },
                );
            }
        }

        // 3. Fairness: recompute the allocation from the same inputs in the
        // same (sorted-by-id) order the engine uses.
        active.clear();
        for (i, f) in flows.iter().enumerate().filter(|(_, f)| f.active) {
            if active.len() == entries.len() {
                entries.push(AllocEntry::new(Vec::new(), 0.0));
            }
            let e = &mut entries[active.len()];
            e.resources.clear();
            e.resources.extend_from_slice(f.resources);
            e.cap = f.cap;
            e.weight = f.weight;
            active.push(i);
        }
        let want = max_min_allocate(&caps, &entries[..active.len()]);
        for (f, &w) in active.iter().map(|&i| &flows[i]).zip(want.iter()) {
            if (f.rate - w).abs() > w.abs().max(1.0) * REL_TOL.max(1e-9) + 1.0 {
                push_capped(
                    violations,
                    Violation::UnfairAllocation {
                        flow: f.id,
                        got: f.rate,
                        want: w,
                        at_ns: now_ns,
                    },
                );
            }
        }

        // 4c. Refresh the shadow rates for the next interval. Inactive flows
        // (drained, awaiting their Delivered event) keep a stale engine-side
        // rate; they no longer move bytes, so shadow at 0. `flows` is
        // sorted by id, so dropping departed flows is a binary search each.
        for f in &flows {
            let entry = shadow.entry(f.id).or_default();
            entry.rate = if f.active { f.rate } else { 0.0 };
        }
        shadow.retain(|id, _| flows.binary_search_by_key(id, |f| f.id).is_ok());
    }

    /// Determinism chain: fold this event's digest into the running hash.
    fn fold_chain(&mut self, view: &AuditView<'_>) {
        let mut d = Digest::new();
        d.write_u64(self.chain);
        d.write_u64(view.state_digest());
        d.write_time(view.now());
        self.chain = d.finish();
        self.events_seen += 1;
    }
}

/// Shared handle for reading oracle results after the run; the matching
/// [`InvariantOracle`] is boxed into the engine as its audit hook.
#[derive(Clone)]
pub struct OracleHandle {
    state: Rc<RefCell<OracleState>>,
}

impl OracleHandle {
    /// Violations detected so far (truncated at an internal cap).
    pub fn violations(&self) -> Vec<Violation> {
        self.state.borrow().violations.clone()
    }

    /// True if any invariant fired.
    pub fn violated(&self) -> bool {
        !self.state.borrow().violations.is_empty()
    }

    /// Record an externally detected violation (determinism, engine error).
    pub fn push(&self, v: Violation) {
        push_capped(&mut self.state.borrow_mut().violations, v);
    }

    /// Does the oracle check invariants, or only fold the chain? Processes
    /// that run checks of their own (the sync sessions' patch verification)
    /// skip them under a chain-only oracle too.
    pub fn checks(&self) -> bool {
        self.state.borrow().checks
    }

    /// The execution's chained state digest.
    pub fn chain_digest(&self) -> u64 {
        self.state.borrow().chain
    }

    /// Events audited.
    pub fn events_seen(&self) -> u64 {
        self.state.borrow().events_seen
    }
}

/// The audit hook: install with `sim.set_audit_hook(Box::new(oracle))`.
pub struct InvariantOracle {
    state: Rc<RefCell<OracleState>>,
}

impl InvariantOracle {
    /// Create an oracle and the handle used to read its findings back.
    pub fn new() -> (InvariantOracle, OracleHandle) {
        Self::with_checks(true)
    }

    /// An oracle that only folds the chain digest: no shadow ledger, no
    /// capacity sum, no fairness re-allocation. Its chain is bit-identical
    /// to a full oracle's on the same execution. A re-execution whose chain
    /// equals a fully checked one passed through the same state after
    /// every event, so re-checking those states would find nothing new.
    pub fn chain_only() -> (InvariantOracle, OracleHandle) {
        Self::with_checks(false)
    }

    fn with_checks(checks: bool) -> (InvariantOracle, OracleHandle) {
        let state = Rc::new(RefCell::new(OracleState {
            checks,
            ..OracleState::default()
        }));
        (
            InvariantOracle {
                state: Rc::clone(&state),
            },
            OracleHandle { state },
        )
    }
}

impl AuditHook for InvariantOracle {
    fn after_event(&mut self, view: &AuditView<'_>) {
        let mut st = self.state.borrow_mut();
        if st.checks {
            st.check_invariants(view);
        }
        st.fold_chain(view);
    }

    fn flow_delivered(&mut self, flow: u64, bytes: u64, now: SimTime) {
        let mut st = self.state.borrow_mut();
        if st.checks {
            st.delivered.push((flow, bytes, now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::prelude::*;

    fn two_host_world() -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", GeoPoint::new(49.0, -123.0));
        let r = b.router("r", GeoPoint::new(45.0, -100.0));
        let z = b.host("z", GeoPoint::new(37.0, -122.0));
        b.duplex(
            a,
            r,
            LinkParams::new(Bandwidth::from_mbps(40.0), SimTime::from_millis(5)),
        );
        b.duplex(
            r,
            z,
            LinkParams::new(Bandwidth::from_mbps(20.0), SimTime::from_millis(5)),
        );
        (b.build(), a, z)
    }

    #[test]
    fn clean_transfer_has_no_violations() {
        let (topo, a, z) = two_host_world();
        let mut sim = Sim::new(topo, 11);
        let (oracle, handle) = InvariantOracle::new();
        sim.set_audit_hook(Box::new(oracle));
        sim.run_transfer(TransferRequest::new(a, z, 4 * MB))
            .unwrap();
        assert_eq!(
            handle.violations(),
            vec![],
            "clean run must be violation-free"
        );
        assert!(handle.events_seen() > 0);
        assert_ne!(handle.chain_digest(), 0);
    }

    #[test]
    fn chain_digest_is_reproducible() {
        let run = || {
            let (topo, a, z) = two_host_world();
            let mut sim = Sim::new(topo, 7);
            let (oracle, handle) = InvariantOracle::new();
            sim.set_audit_hook(Box::new(oracle));
            sim.run_transfer(TransferRequest::new(a, z, 2 * MB))
                .unwrap();
            handle.chain_digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chain_only_oracle_folds_the_same_chain_and_checks_nothing() {
        let run = |(oracle, handle): (InvariantOracle, OracleHandle)| {
            let (topo, a, z) = two_host_world();
            let mut sim = Sim::new(topo, 7);
            sim.set_audit_hook(Box::new(oracle));
            sim.run_transfer(TransferRequest::new(a, z, 2 * MB))
                .unwrap();
            handle
        };
        let full = run(InvariantOracle::new());
        let cheap = run(InvariantOracle::chain_only());
        assert!(full.checks() && !cheap.checks());
        assert_eq!(full.chain_digest(), cheap.chain_digest());
        assert_eq!(full.events_seen(), cheap.events_seen());
        let st = cheap.state.borrow();
        assert!(st.shadow.is_empty() && st.delivered.is_empty() && st.entries.is_empty());
    }

    #[test]
    fn cancelled_flows_leave_the_shadow_ledger() {
        // A cancelled flow is never delivered, so only the sweep against
        // the engine's live flows can drop its shadow entry.
        struct CancelOne {
            a: NodeId,
            z: NodeId,
            victim: Option<FlowId>,
        }
        impl Process for CancelOne {
            fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                match ev {
                    Event::Started => {
                        let spec =
                            |bytes| FlowSpec::new(self.a, self.z, bytes, FlowClass::Commodity);
                        self.victim = ctx.start_flow(spec(100 * MB)).ok();
                        ctx.start_flow(spec(4 * MB)).unwrap();
                        ctx.set_timer(SimTime::from_millis(500), 0);
                    }
                    Event::Timer { .. } => ctx.cancel_flow(self.victim.take().unwrap()),
                    Event::FlowCompleted { .. } => ctx.finish(Value::None),
                    _ => {}
                }
            }
        }
        let (topo, a, z) = two_host_world();
        let mut sim = Sim::new(topo, 3);
        let (oracle, handle) = InvariantOracle::new();
        sim.set_audit_hook(Box::new(oracle));
        sim.run_process(Box::new(CancelOne { a, z, victim: None }))
            .unwrap();
        assert_eq!(handle.violations(), vec![]);
        assert!(handle.state.borrow().shadow.is_empty());
    }

    #[test]
    fn divergence_kinds_and_text_are_stable() {
        // JSON verdicts, CI logs and benchmark failure messages show these
        // strings; they must not drift.
        let cases = [
            (Axis::Repeat, "determinism", "same-seed executions diverged"),
            (
                Axis::Allocator,
                "allocator_divergence",
                "incremental vs reference allocator diverged",
            ),
            (
                Axis::Progress,
                "progress_divergence",
                "lazy vs eager progress accounting diverged",
            ),
            (
                Axis::Routing,
                "routing_divergence",
                "route oracle vs reference Dijkstra diverged",
            ),
            (
                Axis::Shard { workers: 3 },
                "shard_divergence",
                "sharded executor (3 workers) diverged from sequential",
            ),
            (
                Axis::Chunk,
                "chunk_divergence",
                "cache-enabled vs cache-bypass sync delivered different bytes",
            ),
        ];
        for (axis, kind, text) in cases {
            let v = Violation::Divergence {
                axis,
                first: 0x1234,
                other: 0xabcd,
            };
            assert_eq!(v.kind(), kind);
            assert_eq!(
                v.to_string(),
                format!("{text}: 0x0000000000001234 vs 0x000000000000abcd")
            );
        }
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn inflated_rates_are_caught() {
        let (topo, a, z) = two_host_world();
        let mut sim = Sim::new(topo, 11);
        sim.inject_rate_inflation(1.5);
        let (oracle, handle) = InvariantOracle::new();
        sim.set_audit_hook(Box::new(oracle));
        sim.run_transfer(TransferRequest::new(a, z, 4 * MB))
            .unwrap();
        let vs = handle.violations();
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::OverAllocation { .. })),
            "expected an over-allocation violation, got {vs:?}"
        );
    }
}
