//! Pipelined (cut-through) relaying — the paper's future-work direction.
//!
//! Store-and-forward pays `t1 + t2`. A DTN that begins uploading chunk *i*
//! while receiving chunk *i+1* pays roughly `max(t1, t2)` plus one chunk of
//! latency. This module implements that overlap at chunk granularity:
//! a *send lane* (user → DTN flows) and an *upload lane* (DTN → provider
//! part RPCs) run concurrently, coupled by the DTN's received-chunk buffer.
//!
//! The ablation benchmark `ablation-pipeline` compares the two modes on the
//! paper's winning detours.

use crate::report::RelayReport;
use cloudstore::faults::FaultOutcome;
use cloudstore::resilience::{RetryPolicy, RetryState};
use cloudstore::{Provider, TransferStats};
use netsim::engine::{Ctx, Event, Process, ProcessId, Value};
use netsim::error::NetError;
use netsim::flow::{FlowClass, FlowSpec};
use netsim::rpc::{Rpc, RpcSpec};
use netsim::time::SimTime;
use netsim::topology::NodeId;

/// Default relay chunk: big enough to amortize round trips, small enough to
/// overlap well.
pub const DEFAULT_RELAY_CHUNK: u64 = 8 * 1024 * 1024;

/// Upload-lane retry timer (throttle wait or transient backoff).
const TIMER_RETRY: u64 = 1;

/// Cut-through relay through one DTN. Finishes with a packed
/// [`RelayReport`].
///
/// Assumes a warm (cached) token at the DTN; cold-start pipelining would
/// only add a constant to both compared modes.
pub struct PipelinedRelay {
    user: NodeId,
    dtn: NodeId,
    provider: Provider,
    bytes: u64,
    chunk: u64,
    send_class: FlowClass,
    upload_class: FlowClass,

    chunks: Vec<u64>,
    /// Maximum chunks the DTN may hold that are received but not yet
    /// uploaded (its staging buffer). `u32::MAX` = unbounded.
    max_buffered: u32,
    sent: usize,
    received: usize,
    uploaded: usize,
    send_in_flight: bool,
    frontend: NodeId,
    handshake_pid: Option<ProcessId>,
    init_pid: Option<ProcessId>,
    upload_pid: Option<ProcessId>,
    finish_pid: Option<ProcessId>,
    init_done: bool,
    handshake_done: bool,
    started: SimTime,
    last_received_at: SimTime,
    rpcs: u64,
    wire_bytes: u64,
    first_send: bool,

    /// Upload-lane fault handling (the provider's [`cloudstore::FaultPlan`]
    /// applies to part uploads, exactly as in [`cloudstore::UploadSession`]).
    policy: RetryPolicy,
    retry: RetryState,
    pending_outcome: FaultOutcome,
    upload_attempts: u32,
    /// While a throttle/backoff timer is armed the upload lane must not
    /// issue anything, even if new chunks arrive.
    upload_stalled: bool,
    retries: u64,
    throttles: u64,
}

impl PipelinedRelay {
    /// Build a pipelined relay with the default chunk size.
    pub fn new(
        user: NodeId,
        dtn: NodeId,
        provider: Provider,
        bytes: u64,
        send_class: FlowClass,
        upload_class: FlowClass,
    ) -> Self {
        Self::with_chunk(
            user,
            dtn,
            provider,
            bytes,
            send_class,
            upload_class,
            DEFAULT_RELAY_CHUNK,
        )
    }

    /// Build with an explicit relay chunk size.
    pub fn with_chunk(
        user: NodeId,
        dtn: NodeId,
        provider: Provider,
        bytes: u64,
        send_class: FlowClass,
        upload_class: FlowClass,
        chunk: u64,
    ) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        let policy = RetryPolicy::from_plan(&provider.faults);
        PipelinedRelay {
            user,
            dtn,
            provider,
            bytes,
            chunk,
            send_class,
            upload_class,
            max_buffered: u32::MAX,
            chunks: Vec::new(),
            sent: 0,
            received: 0,
            uploaded: 0,
            send_in_flight: false,
            frontend: NodeId(u32::MAX),
            handshake_pid: None,
            init_pid: None,
            upload_pid: None,
            finish_pid: None,
            init_done: false,
            handshake_done: false,
            started: SimTime::ZERO,
            last_received_at: SimTime::ZERO,
            rpcs: 0,
            wire_bytes: 0,
            first_send: true,
            policy,
            retry: RetryState::start(policy, SimTime::ZERO),
            pending_outcome: FaultOutcome::Ok,
            upload_attempts: 0,
            upload_stalled: false,
            retries: 0,
            throttles: 0,
        }
    }

    /// Override the upload lane's retry policy (budget, backoff, deadline).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    fn split(&self) -> Vec<u64> {
        let mut parts = Vec::new();
        let mut left = self.bytes;
        while left > self.chunk {
            parts.push(self.chunk);
            left -= self.chunk;
        }
        if left > 0 {
            parts.push(left);
        }
        parts
    }

    /// Bound the DTN's staging buffer to `chunks` received-but-unuploaded
    /// chunks; the sender stalls when it is full (backpressure).
    pub fn with_buffer_limit(mut self, chunks: u32) -> Self {
        assert!(chunks >= 1, "buffer must hold at least one chunk");
        self.max_buffered = chunks;
        self
    }

    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.send_in_flight || self.sent >= self.chunks.len() {
            return;
        }
        // Backpressure: in-flight + staged chunks must fit the buffer.
        let staged_after_send = (self.sent - self.uploaded) as u32;
        if staged_after_send >= self.max_buffered {
            return;
        }
        let mut spec = FlowSpec::new(
            self.user,
            self.dtn,
            self.chunks[self.sent] + 64,
            self.send_class,
        );
        if !self.first_send {
            spec = spec.reuse_connection();
        }
        self.first_send = false;
        match ctx.start_flow(spec) {
            Ok(_) => {
                self.sent += 1;
                self.send_in_flight = true;
            }
            Err(e) => ctx.finish(Value::Error(e)),
        }
    }

    fn finish_exhausted(&mut self, ctx: &mut Ctx<'_>, e: NetError) {
        let counter = match e {
            NetError::DeadlineExceeded { .. } => "relay.retry.deadline_exceeded",
            _ => "relay.retry.budget_exhausted",
        };
        ctx.telemetry().counter_add(counter, 1);
        ctx.finish(Value::Error(e));
    }

    fn maybe_upload(&mut self, ctx: &mut Ctx<'_>) {
        if !self.init_done
            || self.upload_stalled
            || self.upload_pid.is_some()
            || self.uploaded >= self.received
        {
            return;
        }
        self.pending_outcome = if self.provider.faults.is_active() {
            self.provider.faults.roll(ctx.rng())
        } else {
            FaultOutcome::Ok
        };
        if let FaultOutcome::Throttled { wait } = self.pending_outcome {
            self.throttles += 1;
            ctx.telemetry().counter_add("relay.pipeline.throttles", 1);
            if let Err(e) = self.retry.charge(self.frontend, ctx.now(), wait) {
                self.finish_exhausted(ctx, e);
                return;
            }
            self.upload_stalled = true;
            ctx.set_timer(wait, TIMER_RETRY);
            return;
        }
        let part = self.chunks[self.uploaded];
        let p = &self.provider.protocol;
        let spec = RpcSpec::control(self.dtn, self.frontend, self.upload_class)
            .with_payload(part + p.per_chunk_header, p.per_chunk_response)
            .with_server_time(p.server_time_for_part(part));
        self.rpcs += 1;
        self.wire_bytes += part + p.per_chunk_header;
        self.upload_pid = Some(ctx.spawn(Box::new(Rpc::new(spec))));
    }

    fn maybe_finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.uploaded < self.chunks.len() || self.finish_pid.is_some() {
            return;
        }
        let p = &self.provider.protocol;
        if p.has_finish_rpc() {
            let (req, resp) = p.finish_bytes;
            let spec = RpcSpec::control(self.dtn, self.frontend, self.upload_class)
                .with_payload(req, resp)
                .with_server_time(p.finish_server_time);
            self.rpcs += 1;
            self.finish_pid = Some(ctx.spawn(Box::new(Rpc::new(spec))));
        } else {
            self.report(ctx);
        }
    }

    fn report(&mut self, ctx: &mut Ctx<'_>) {
        let total = ctx.now().saturating_sub(self.started);
        let report = RelayReport {
            bytes: self.bytes,
            total,
            leg_times: vec![self.last_received_at.saturating_sub(self.started)],
            upload: TransferStats {
                bytes: self.bytes,
                elapsed: total,
                rpcs: self.rpcs,
                retries: self.retries,
                throttles: self.throttles,
                token_refreshes: 0,
                wire_bytes: self.wire_bytes,
            },
        };
        ctx.finish(report.to_value());
    }
}

impl Process for PipelinedRelay {
    fn poll(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Started => {
                self.started = ctx.now();
                self.frontend = self.provider.frontend_for(ctx.topology(), self.user);
                // Anchor the deadline (if any) to the real start instant.
                self.retry = RetryState::start(self.policy, self.started);
                self.chunks = self.split();
                if self.chunks.is_empty() {
                    ctx.finish(Value::Error(NetError::EmptyTransfer));
                    return;
                }
                // Leg-1 handshake and leg-2 session init run concurrently.
                let hs = RpcSpec::control(self.user, self.dtn, self.send_class)
                    .with_payload(512, 256)
                    .with_server_time(SimTime::from_millis(10))
                    .fresh();
                self.handshake_pid = Some(ctx.spawn(Box::new(Rpc::new(hs))));
                let (req, resp) = self.provider.protocol.init_bytes;
                let init = RpcSpec::control(self.dtn, self.frontend, self.upload_class)
                    .with_payload(req, resp)
                    .with_server_time(self.provider.protocol.init_server_time)
                    .fresh();
                self.rpcs += 1;
                self.init_pid = Some(ctx.spawn(Box::new(Rpc::new(init))));
            }
            Event::ChildDone { child, value } => {
                if let Value::Error(e) = value {
                    ctx.finish(Value::Error(e));
                    return;
                }
                if Some(child) == self.handshake_pid {
                    self.handshake_pid = None;
                    self.handshake_done = true;
                    self.send_next(ctx);
                } else if Some(child) == self.init_pid {
                    self.init_pid = None;
                    self.init_done = true;
                    self.maybe_upload(ctx);
                } else if Some(child) == self.upload_pid {
                    self.upload_pid = None;
                    match self.pending_outcome {
                        FaultOutcome::Ok => {
                            self.upload_attempts = 0;
                            self.uploaded += 1;
                            self.maybe_upload(ctx);
                            // An upload freed buffer space: the sender may
                            // resume.
                            if self.handshake_done {
                                self.send_next(ctx);
                            }
                            self.maybe_finish(ctx);
                        }
                        FaultOutcome::TransientError => {
                            self.retries += 1;
                            ctx.telemetry().counter_add("relay.pipeline.retries", 1);
                            self.upload_attempts += 1;
                            if self.upload_attempts > self.provider.faults.max_retries {
                                ctx.finish(Value::Error(NetError::Blocked {
                                    at: self.frontend,
                                    reason: "part upload exceeded max retries",
                                }));
                                return;
                            }
                            let backoff = self.policy.backoff(self.upload_attempts, ctx.rng());
                            if let Err(e) = self.retry.charge(self.frontend, ctx.now(), backoff) {
                                self.finish_exhausted(ctx, e);
                                return;
                            }
                            self.upload_stalled = true;
                            ctx.set_timer(backoff, TIMER_RETRY);
                        }
                        FaultOutcome::Throttled { .. } => {
                            unreachable!("throttled parts never reach the wire")
                        }
                    }
                } else if Some(child) == self.finish_pid {
                    self.finish_pid = None;
                    self.report(ctx);
                }
            }
            Event::FlowCompleted { .. } => {
                // A chunk arrived at the DTN.
                self.send_in_flight = false;
                self.received += 1;
                self.last_received_at = ctx.now();
                self.send_next(ctx);
                self.maybe_upload(ctx);
            }
            Event::Timer { tag: TIMER_RETRY } => {
                self.upload_stalled = false;
                self.maybe_upload(ctx);
            }
            Event::FlowFailed { error, .. } => ctx.finish(Value::Error(error)),
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "pipelined-relay"
    }
}

/// Run a pipelined detour upload end to end.
pub fn pipelined_upload(
    sim: &mut netsim::engine::Sim,
    user: NodeId,
    dtn: NodeId,
    provider: &Provider,
    bytes: u64,
    send_class: FlowClass,
    upload_class: FlowClass,
) -> Result<RelayReport, NetError> {
    let relay = PipelinedRelay::new(user, dtn, provider.clone(), bytes, send_class, upload_class);
    match sim.run_process(Box::new(relay))? {
        Value::Error(e) => Err(e),
        v => Ok(RelayReport::from_value(&v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store_forward::detour_upload;
    use cloudstore::ProviderKind;
    use netsim::geo::GeoPoint;
    use netsim::prelude::*;
    use netsim::units::MB;

    fn topo() -> (Sim, NodeId, NodeId, Provider) {
        let mut b = TopologyBuilder::new();
        let user = b.host("user", GeoPoint::new(49.26, -123.25));
        let dtn = b.host("dtn", GeoPoint::new(53.52, -113.53));
        let pop = b.datacenter("pop", GeoPoint::new(37.39, -122.08));
        b.duplex(
            user,
            dtn,
            LinkParams::new(Bandwidth::from_mbps(40.0), SimTime::from_millis(8)),
        );
        b.duplex(
            dtn,
            pop,
            LinkParams::new(Bandwidth::from_mbps(48.0), SimTime::from_millis(14)),
        );
        let provider = Provider::new(ProviderKind::GoogleDrive, pop);
        (Sim::new(b.build(), 1), user, dtn, provider)
    }

    #[test]
    fn pipelining_beats_store_and_forward() {
        let (mut sim, user, dtn, provider) = topo();
        let sf = detour_upload(
            &mut sim,
            vec![user, dtn],
            vec![FlowClass::Research; 2],
            &provider,
            60 * MB,
            cloudstore::UploadOptions::warm(FlowClass::Research),
        )
        .unwrap();
        let (mut sim2, user2, dtn2, provider2) = topo();
        let pl = pipelined_upload(
            &mut sim2,
            user2,
            dtn2,
            &provider2,
            60 * MB,
            FlowClass::Research,
            FlowClass::Research,
        )
        .unwrap();
        assert!(
            pl.total < sf.total,
            "pipelined {} should beat store-and-forward {}",
            pl.total,
            sf.total
        );
        // The win should approach the smaller leg's duration.
        assert!(pl.overlap_savings() > 0.0);
    }

    #[test]
    fn pipelined_total_close_to_max_leg() {
        let (mut sim, user, dtn, provider) = topo();
        let pl = pipelined_upload(
            &mut sim,
            user,
            dtn,
            &provider,
            60 * MB,
            FlowClass::Research,
            FlowClass::Research,
        )
        .unwrap();
        // Bottleneck leg is 40 Mbps (5 MB/s): fluid bound 12 s for 60 MB.
        // Pipelining should land within ~2.5x of that bound, far below the
        // ~25 s a store-and-forward sum would need.
        let total = pl.total.as_secs_f64();
        assert!((12.0..22.0).contains(&total), "total {total}");
    }

    #[test]
    fn buffer_limit_trades_overlap_for_memory() {
        // Unbounded, W=4 and W=1 buffers: smaller buffers mean less overlap
        // (more stalling), monotonically; even W=1 must not exceed
        // store-and-forward by much.
        let run = |limit: Option<u32>| {
            let (mut sim, user, dtn, provider) = topo();
            let mut relay = PipelinedRelay::new(
                user,
                dtn,
                provider,
                60 * MB,
                FlowClass::Research,
                FlowClass::Research,
            );
            if let Some(w) = limit {
                relay = relay.with_buffer_limit(w);
            }
            let v = sim.run_process(Box::new(relay)).unwrap();
            RelayReport::from_value(&v).total
        };
        let unbounded = run(None);
        let w4 = run(Some(4));
        let w1 = run(Some(1));
        assert!(unbounded <= w4, "unbounded {unbounded} vs W=4 {w4}");
        assert!(w4 <= w1, "W=4 {w4} vs W=1 {w1}");
        assert!(w1 > unbounded, "buffer limit should cost something");
        // And even W=1 pipelining interleaves better than full
        // store-and-forward would (~25 s here).
        assert!(w1 < SimTime::from_secs(27), "W=1 total {w1}");
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_buffer_rejected() {
        let (_, user, dtn, provider) = topo();
        let _ = PipelinedRelay::new(
            user,
            dtn,
            provider,
            MB,
            FlowClass::Research,
            FlowClass::Research,
        )
        .with_buffer_limit(0);
    }

    #[test]
    fn small_file_single_chunk_works() {
        let (mut sim, user, dtn, provider) = topo();
        let pl = pipelined_upload(
            &mut sim,
            user,
            dtn,
            &provider,
            MB,
            FlowClass::Research,
            FlowClass::Research,
        )
        .unwrap();
        assert_eq!(pl.bytes, MB);
        assert!(pl.total > SimTime::ZERO);
    }

    #[test]
    fn zero_bytes_rejected() {
        let (mut sim, user, dtn, provider) = topo();
        let err = pipelined_upload(
            &mut sim,
            user,
            dtn,
            &provider,
            0,
            FlowClass::Research,
            FlowClass::Research,
        )
        .unwrap_err();
        assert_eq!(err, NetError::EmptyTransfer);
    }

    #[test]
    fn flaky_pipeline_retries_and_succeeds() {
        let (mut sim, user, dtn, provider) = topo();
        let pl = pipelined_upload(
            &mut sim,
            user,
            dtn,
            &provider.clone().with_faults(cloudstore::FaultPlan::flaky()),
            60 * MB,
            FlowClass::Research,
            FlowClass::Research,
        )
        .unwrap();
        let (mut sim2, user2, dtn2, provider2) = topo();
        let clean = pipelined_upload(
            &mut sim2,
            user2,
            dtn2,
            &provider2,
            60 * MB,
            FlowClass::Research,
            FlowClass::Research,
        )
        .unwrap();
        assert_eq!(pl.bytes, clean.bytes);
        assert!(pl.total >= clean.total, "faults cannot speed a relay up");
    }

    #[test]
    fn hopeless_throttling_pipeline_terminates() {
        let (mut sim, user, dtn, mut provider) = topo();
        provider.faults.throttle_prob = 1.0;
        let err = pipelined_upload(
            &mut sim,
            user,
            dtn,
            &provider,
            10 * MB,
            FlowClass::Research,
            FlowClass::Research,
        )
        .unwrap_err();
        assert!(
            matches!(err, NetError::RetryBudgetExhausted { .. }),
            "expected budget exhaustion, got {err}"
        );
    }

    #[test]
    fn custom_chunk_sizes_are_respected() {
        let (mut sim, user, dtn, provider) = topo();
        let relay = PipelinedRelay::with_chunk(
            user,
            dtn,
            provider.clone(),
            10 * MB,
            FlowClass::Research,
            FlowClass::Research,
            MB,
        );
        let v = sim.run_process(Box::new(relay)).unwrap();
        let r = RelayReport::from_value(&v);
        // 10 chunks uploaded, plus init.
        assert_eq!(r.upload.rpcs, 11);
    }
}
