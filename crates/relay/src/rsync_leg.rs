//! One rsync hop between two hosts on the simulated WAN.
//!
//! Wire behaviour follows the real protocol: a handshake exchange whose
//! response carries the receiver's block signatures, a forward flow carrying
//! the delta (for the paper's deleted-before-each-run workload this is the
//! whole file plus ~50 bytes), and a final acknowledgement.
//!
//! Legs participate in the resilience plane ([`cloudstore::resilience`]):
//! an optional [`FaultPlan`] injects per-stage throttles (receiver busy —
//! wait and come back) and transient failures (stage retried with
//! deterministically-jittered backoff), all charged against one
//! session-wide retry budget with an optional hard deadline. Fault rolls
//! are gated on [`FaultPlan::is_active`] so fault-free legs draw nothing
//! from the shared simulation PRNG.

use crate::chunkstore::ChunkStore;
use cloudstore::faults::{FaultOutcome, FaultPlan};
use cloudstore::resilience::{RetryPolicy, RetryState};
use netsim::engine::{Ctx, Event, Process, ProcessId, Value};
use netsim::error::NetError;
use netsim::flow::{FlowClass, FlowSpec};
use netsim::rpc::{Rpc, RpcSpec};
use netsim::time::SimTime;
use netsim::topology::NodeId;
use obs::{Category, SpanId};
use std::cell::RefCell;
use std::rc::Rc;
use transfer::{ChunkManifest, RsyncWirePlan};

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Idle,
    Handshake,
    Delta,
    Ack,
}

const TIMER_RETRY: u64 = 1;

/// A process performing one rsync transfer; finishes with
/// `Value::Time(elapsed)`.
pub struct RsyncLeg {
    src: NodeId,
    dst: NodeId,
    plan: RsyncWirePlan,
    class: FlowClass,
    faults: FaultPlan,
    policy: RetryPolicy,
    state: State,
    started: SimTime,
    pending: Option<ProcessId>,
    pending_outcome: FaultOutcome,
    attempts: u32,
    retry: RetryState,
    span: SpanId,
    parent_span: SpanId,
    /// Receiver-side chunk cache plus the manifest of the content this leg
    /// carries: when the deduplicated forward cost beats the delta, the
    /// forward flow shrinks to it.
    cache: Option<(Rc<RefCell<ChunkStore>>, ChunkManifest)>,
    /// Forward-leg bytes after consulting the cache (priced once, on the
    /// first delta attempt, so retries re-ship the same bytes).
    deduped_delta_bytes: Option<u64>,
}

impl RsyncLeg {
    /// A leg moving `plan` between two hosts.
    pub fn new(src: NodeId, dst: NodeId, plan: RsyncWirePlan, class: FlowClass) -> Self {
        let faults = FaultPlan::none();
        let policy = RetryPolicy::from_plan(&faults);
        RsyncLeg {
            src,
            dst,
            plan,
            class,
            faults,
            policy,
            state: State::Idle,
            started: SimTime::ZERO,
            pending: None,
            pending_outcome: FaultOutcome::Ok,
            attempts: 0,
            retry: RetryState::start(policy, SimTime::ZERO),
            span: SpanId::NONE,
            parent_span: SpanId::NONE,
            cache: None,
            deduped_delta_bytes: None,
        }
    }

    /// The paper's workload: the destination's copy was deleted, so the
    /// whole file crosses the wire.
    pub fn fresh(src: NodeId, dst: NodeId, bytes: u64, class: FlowClass) -> Self {
        Self::new(src, dst, RsyncWirePlan::fresh(bytes), class)
    }

    /// Inject faults on this leg; the retry policy defaults to
    /// [`RetryPolicy::from_plan`] unless [`with_retry`](Self::with_retry)
    /// follows.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self.policy = RetryPolicy::from_plan(&faults);
        self
    }

    /// Override the leg's retry policy (budget, backoff, deadline).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Nest this leg's telemetry span under `parent` (e.g. a relay span).
    pub fn with_parent_span(mut self, parent: SpanId) -> Self {
        self.parent_span = parent;
        self
    }

    /// Consult the receiver's content-addressed chunk store: the forward
    /// leg ships `min(delta, manifest + missing chunks)` bytes, and the
    /// manifest's chunks are admitted to the store once the leg completes.
    pub fn with_chunk_cache(mut self, store: Rc<RefCell<ChunkStore>>, m: ChunkManifest) -> Self {
        self.cache = Some((store, m));
        self
    }

    /// Price the forward leg, consulting the chunk cache at most once per
    /// leg (retries re-ship the same bytes).
    fn forward_delta_bytes(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        if let Some(done) = self.deduped_delta_bytes {
            return done;
        }
        let bytes = match &self.cache {
            None => self.plan.delta_bytes,
            Some((store, manifest)) => {
                let dedup = store.borrow_mut().plan(manifest);
                let shipped = dedup.shipped_bytes(self.plan.delta_bytes);
                let saved = self.plan.delta_bytes - shipped;
                ctx.telemetry()
                    .counter_add("relay.chunk.hits", dedup.hit_chunks);
                ctx.telemetry()
                    .counter_add("relay.chunk.misses", dedup.miss_chunks());
                if saved > 0 {
                    ctx.telemetry()
                        .counter_add("relay.chunk.saved_bytes", saved);
                }
                shipped
            }
        };
        self.deduped_delta_bytes = Some(bytes);
        bytes
    }

    fn finish_traced(&mut self, ctx: &mut Ctx<'_>, v: Value) {
        let t = ctx.now().as_nanos();
        let dur = ctx.now().saturating_sub(self.started).as_nanos();
        ctx.telemetry()
            .window_record(t, "relay.leg.duration_ns", dur);
        ctx.telemetry().span_end(t, self.span);
        ctx.finish(v);
    }

    fn finish_exhausted(&mut self, ctx: &mut Ctx<'_>, e: NetError) {
        let counter = match e {
            NetError::DeadlineExceeded { .. } => "relay.retry.deadline_exceeded",
            _ => "relay.retry.budget_exhausted",
        };
        ctx.telemetry().counter_add(counter, 1);
        self.finish_traced(ctx, Value::Error(e));
    }

    /// Roll the fault plan for the stage about to be issued. Returns `true`
    /// when the caller must not issue it now — either a throttle timer was
    /// armed or the budget/deadline just expired.
    fn stage_gated(&mut self, ctx: &mut Ctx<'_>) -> bool {
        self.pending_outcome = if self.faults.is_active() {
            self.faults.roll(ctx.rng())
        } else {
            FaultOutcome::Ok
        };
        if let FaultOutcome::Throttled { wait } = self.pending_outcome {
            ctx.telemetry().counter_add("relay.leg.throttles", 1);
            if let Err(e) = self.retry.charge(self.dst, ctx.now(), wait) {
                self.finish_exhausted(ctx, e);
                return true;
            }
            ctx.set_timer(wait, TIMER_RETRY);
            return true;
        }
        false
    }

    /// Settle a finished stage. Returns `true` when the stage succeeded and
    /// the leg may advance; otherwise a retry timer was armed (or the leg
    /// finished with an error).
    fn stage_done(&mut self, ctx: &mut Ctx<'_>) -> bool {
        match self.pending_outcome {
            FaultOutcome::Ok => {
                self.attempts = 0;
                true
            }
            FaultOutcome::TransientError => {
                ctx.telemetry().counter_add("relay.leg.retries", 1);
                self.attempts += 1;
                if self.attempts > self.faults.max_retries {
                    self.finish_traced(
                        ctx,
                        Value::Error(NetError::Blocked {
                            at: self.dst,
                            reason: "rsync stage exceeded max retries",
                        }),
                    );
                    return false;
                }
                let backoff = self.policy.backoff(self.attempts, ctx.rng());
                if let Err(e) = self.retry.charge(self.dst, ctx.now(), backoff) {
                    self.finish_exhausted(ctx, e);
                    return false;
                }
                ctx.set_timer(backoff, TIMER_RETRY);
                false
            }
            FaultOutcome::Throttled { .. } => {
                unreachable!("throttled stages never reach the wire")
            }
        }
    }

    fn begin_handshake(&mut self, ctx: &mut Ctx<'_>) {
        self.state = State::Handshake;
        if self.stage_gated(ctx) {
            return;
        }
        // Handshake request; the response carries the signatures.
        let spec = RpcSpec::control(self.src, self.dst, self.class)
            .with_payload(self.plan.handshake_bytes, 256 + self.plan.signature_bytes)
            .with_server_time(SimTime::from_millis(10))
            .fresh()
            .traced("rpc.handshake", self.span);
        self.pending = Some(ctx.spawn(Box::new(Rpc::new(spec))));
    }

    fn begin_delta(&mut self, ctx: &mut Ctx<'_>) {
        self.state = State::Delta;
        if self.stage_gated(ctx) {
            return;
        }
        let delta_bytes = self.forward_delta_bytes(ctx);
        let spec = FlowSpec::new(self.src, self.dst, delta_bytes, self.class)
            .reuse_connection()
            .with_parent_span(self.span);
        if let Err(e) = ctx.start_flow(spec) {
            self.finish_traced(ctx, Value::Error(e));
        }
    }

    fn begin_ack(&mut self, ctx: &mut Ctx<'_>) {
        self.state = State::Ack;
        if self.stage_gated(ctx) {
            return;
        }
        let spec = RpcSpec::control(self.src, self.dst, self.class)
            .with_payload(64, self.plan.ack_bytes)
            .with_server_time(SimTime::from_millis(5))
            .traced("rpc.ack", self.span);
        self.pending = Some(ctx.spawn(Box::new(Rpc::new(spec))));
    }
}

impl Process for RsyncLeg {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match (self.state, ev) {
            (State::Idle, Event::Started) => {
                self.started = ctx.now();
                // Anchor the deadline (if any) to the real start instant —
                // relay legs often begin mid-simulation.
                self.retry = RetryState::start(self.policy, self.started);
                if ctx.telemetry().is_enabled() {
                    let (t, parent) = (ctx.now().as_nanos(), self.parent_span);
                    let (delta, src, dst) = (self.plan.delta_bytes, self.src, self.dst);
                    let topo = ctx.topology();
                    let (src_name, dst_name) =
                        (topo.node(src).name.clone(), topo.node(dst).name.clone());
                    self.span = ctx.telemetry().span_begin_with(
                        t,
                        Category::Relay,
                        "rsync-leg",
                        parent,
                        |a| {
                            a.set("src", src_name)
                                .set("dst", dst_name)
                                .set("delta_bytes", delta);
                        },
                    );
                }
                self.begin_handshake(ctx);
            }
            (State::Handshake, Event::ChildDone { value, .. }) => {
                if let Value::Error(e) = value {
                    self.finish_traced(ctx, Value::Error(e));
                    return;
                }
                if self.stage_done(ctx) {
                    self.begin_delta(ctx);
                }
            }
            (State::Delta, Event::FlowCompleted { .. }) => {
                if !self.stage_done(ctx) {
                    return;
                }
                self.begin_ack(ctx);
            }
            (State::Ack, Event::ChildDone { value, .. }) => {
                if let Value::Error(e) = value {
                    self.finish_traced(ctx, Value::Error(e));
                    return;
                }
                if !self.stage_done(ctx) {
                    return;
                }
                // The content has fully arrived: the relay now owns these
                // chunks and will dedup them for every future sender.
                if let Some((store, manifest)) = &self.cache {
                    store.borrow_mut().admit(manifest);
                }
                let elapsed = ctx.now().saturating_sub(self.started);
                self.finish_traced(ctx, Value::Time(elapsed));
            }
            (_, Event::Timer { tag: TIMER_RETRY }) => match self.state {
                State::Handshake => self.begin_handshake(ctx),
                State::Delta => self.begin_delta(ctx),
                State::Ack => self.begin_ack(ctx),
                State::Idle => {}
            },
            (_, Event::FlowFailed { error, .. }) => self.finish_traced(ctx, Value::Error(error)),
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "rsync-leg"
    }

    fn abort(&mut self, ctx: &mut Ctx<'_>) {
        // Abandoned by a failing relay above us: close the leg span so
        // traces stay balanced (no-op when telemetry is disabled).
        let t = ctx.now().as_nanos();
        ctx.telemetry().span_end(t, self.span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::GeoPoint;
    use netsim::prelude::*;
    use netsim::units::MB;
    use transfer::FileGen;

    fn pair(mbps: f64) -> (Sim, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.host("user", GeoPoint::new(49.26, -123.25));
        let d = b.host("dtn", GeoPoint::new(53.52, -113.53));
        b.duplex(
            a,
            d,
            LinkParams::new(Bandwidth::from_mbps(mbps), SimTime::from_millis(8)),
        );
        (Sim::new(b.build(), 3), a, d)
    }

    #[test]
    fn fresh_leg_time_tracks_file_size() {
        let (mut sim, a, d) = pair(42.0); // ~5.25 MB/s: 100 MB ≈ 19 s (paper's UBC→UAlberta)
        let v = sim
            .run_process(Box::new(RsyncLeg::fresh(
                a,
                d,
                100 * MB,
                FlowClass::Research,
            )))
            .unwrap();
        let s = v.expect_time().as_secs_f64();
        assert!((19.0..22.0).contains(&s), "UBC→UAlberta-like leg took {s}");
    }

    #[test]
    fn delta_plan_is_faster_than_fresh() {
        let g = FileGen::new(1);
        let basis = g.random_file(20 * MB as usize);
        let target = g.similar_file(&basis, 4, 0);
        let delta_plan = RsyncWirePlan::exact(&basis, &target, 2048);
        let (mut sim, a, d) = pair(8.0);
        let with_delta = sim
            .run_process(Box::new(RsyncLeg::new(
                a,
                d,
                delta_plan,
                FlowClass::Research,
            )))
            .unwrap()
            .expect_time();
        let (mut sim2, a2, d2) = pair(8.0);
        let fresh = sim2
            .run_process(Box::new(RsyncLeg::fresh(
                a2,
                d2,
                target.len() as u64,
                FlowClass::Research,
            )))
            .unwrap()
            .expect_time();
        assert!(
            with_delta < fresh / 2,
            "delta {with_delta} should be far below fresh {fresh}"
        );
    }

    #[test]
    fn chunk_cache_shrinks_second_identical_leg() {
        use crate::chunkstore::ChunkStore;
        use transfer::{ChunkManifest, DEFAULT_CHUNK_SIZE};
        let data = FileGen::new(9).random_file(4 * MB as usize);
        let manifest = ChunkManifest::of(&data, DEFAULT_CHUNK_SIZE);
        let plan = RsyncWirePlan::fresh(data.len() as u64);
        let store = Rc::new(RefCell::new(ChunkStore::new(64 * MB)));

        // Cold: nothing resident, the whole file ships (and is admitted).
        let (mut sim, a, d) = pair(8.0);
        let cold = sim
            .run_process(Box::new(
                RsyncLeg::new(a, d, plan, FlowClass::Research)
                    .with_chunk_cache(Rc::clone(&store), manifest.clone()),
            ))
            .unwrap()
            .expect_time();

        // Warm: a different user uploads identical content through the same
        // relay — only the manifest crosses the forward leg.
        let (mut sim2, a2, d2) = pair(8.0);
        let warm = sim2
            .run_process(Box::new(
                RsyncLeg::new(a2, d2, plan, FlowClass::Research)
                    .with_chunk_cache(Rc::clone(&store), manifest.clone()),
            ))
            .unwrap()
            .expect_time();
        assert!(
            warm.as_nanos() * 10 < cold.as_nanos(),
            "warm {warm} should crush cold {cold}"
        );
        let st = store.borrow().stats();
        assert_eq!(st.admitted, manifest.chunk_count() as u64);
        assert_eq!(st.hits, manifest.chunk_count() as u64);
    }

    #[test]
    fn leg_error_propagates() {
        // No route: only reverse direction exists.
        let mut b = TopologyBuilder::new();
        let a = b.host("user", GeoPoint::new(0.0, 0.0));
        let d = b.host("dtn", GeoPoint::new(1.0, 1.0));
        b.simplex(
            d,
            a,
            LinkParams::new(Bandwidth::from_mbps(1.0), SimTime::from_millis(1)),
        );
        let mut sim = Sim::new(b.build(), 1);
        let v = sim
            .run_process(Box::new(RsyncLeg::fresh(a, d, MB, FlowClass::Research)))
            .unwrap();
        assert!(matches!(v, Value::Error(NetError::NoRoute { .. })));
    }

    #[test]
    fn flaky_leg_retries_and_succeeds() {
        let (mut sim, a, d) = pair(42.0);
        let v = sim
            .run_process(Box::new(
                RsyncLeg::fresh(a, d, 100 * MB, FlowClass::Research)
                    .with_faults(FaultPlan::flaky()),
            ))
            .unwrap();
        let flaky = v.expect_time().as_secs_f64();
        let (mut sim2, a2, d2) = pair(42.0);
        let clean = sim2
            .run_process(Box::new(RsyncLeg::fresh(
                a2,
                d2,
                100 * MB,
                FlowClass::Research,
            )))
            .unwrap()
            .expect_time()
            .as_secs_f64();
        // Faulty legs can only be slower, never faster, and still finish.
        assert!(flaky >= clean, "flaky {flaky} vs clean {clean}");
    }

    #[test]
    fn hopeless_throttling_leg_terminates() {
        let (mut sim, a, d) = pair(42.0);
        let mut faults = FaultPlan::none();
        faults.throttle_prob = 1.0;
        let v = sim
            .run_process(Box::new(
                RsyncLeg::fresh(a, d, MB, FlowClass::Research).with_faults(faults),
            ))
            .unwrap();
        assert!(
            matches!(v, Value::Error(NetError::RetryBudgetExhausted { .. })),
            "expected budget exhaustion, got {v:?}"
        );
    }

    #[test]
    fn hopeless_transient_leg_terminates() {
        let (mut sim, a, d) = pair(42.0);
        let mut faults = FaultPlan::none();
        faults.transient_prob = 1.0;
        let v = sim
            .run_process(Box::new(
                RsyncLeg::fresh(a, d, MB, FlowClass::Research).with_faults(faults),
            ))
            .unwrap();
        // Per-stage max_retries trips before the session budget.
        assert!(
            matches!(v, Value::Error(NetError::Blocked { .. })),
            "expected blocked after max retries, got {v:?}"
        );
    }

    #[test]
    fn leg_deadline_enforced() {
        let (mut sim, a, d) = pair(42.0);
        let faults = FaultPlan::flaky();
        let policy = RetryPolicy::from_plan(&faults).with_deadline(SimTime::from_millis(1));
        // 1 ms deadline: the first fault of any kind trips it; a fault-free
        // run (possible at 10%) completes instead, so force faults hard.
        let mut hard = faults;
        hard.transient_prob = 1.0;
        hard.throttle_prob = 0.0;
        let v = sim
            .run_process(Box::new(
                RsyncLeg::fresh(a, d, MB, FlowClass::Research)
                    .with_faults(hard)
                    .with_retry(policy),
            ))
            .unwrap();
        assert!(
            matches!(v, Value::Error(NetError::DeadlineExceeded { .. })),
            "expected deadline exceeded, got {v:?}"
        );
    }
}
